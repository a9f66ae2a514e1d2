"""Eigenanalysis of the dynamical matrix: stability classification, normal
modes with Krein signs, mode tracking, and the classical propagator.

A parameter point is Confined when all six eigenvalues of Lambda are purely
imaginary, nonzero and mutually distinct (hence semisimple); Boundary when the
spectrum is imaginary but degenerate or contains a zero mode; Unconfined when
any eigenvalue has a real part beyond tolerance. Boundary is a first-class
outcome, not an error: region edges and exactly-commensurate configurations
land there.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import ClassVar, List, Tuple

import numpy as np
import scipy.linalg

from .errors import DegeneracyError, DomainError, NumericalError, SaturationError
from .model import J6, _as_matrix

__all__ = [
    "Classification",
    "Mode",
    "ModeSpectrum",
    "NormalModeBasis",
    "classify",
    "stable_modes",
    "krein_sign",
    "normal_mode_basis",
    "track_modes",
    "propagate",
    "boundedness_probe",
    "ProbeResult",
]


class Classification(enum.Enum):
    CONFINED = "C"
    UNCONFINED = "U"
    BOUNDARY = "B"


@dataclass(frozen=True)
class Tolerances:
    """Classification tolerances, scaled by (1 + ||Lambda||_F).

    The factors are constants. ``gap_floor`` is an absolute lower bound on
    the gap tolerance: grid sweeps set it to their resolution margin, below
    which a cell's spectral gap or smallest eigenvalue cannot certify
    Confined; the default 0 leaves the pointwise rule unchanged.
    ``re_tol``/``gap_tol`` take a norm or an array.
    """

    re_factor: ClassVar[float] = 1e-9
    gap_factor: ClassVar[float] = 1e-7
    gap_floor: float = 0.0

    def re_tol(self, scale):
        return self.re_factor * (1.0 + scale)

    def gap_tol(self, scale):
        return np.maximum(self.gap_factor * (1.0 + scale), self.gap_floor)


DEFAULT_TOLERANCES = Tolerances()


def _unconfined(ev: np.ndarray, scale, tol: Tolerances):
    """Some eigenvalue has |Re| beyond the tolerance; over the last axis of ev."""
    return np.abs(ev.real).max(axis=-1) > tol.re_tol(scale)


def _separated(ev: np.ndarray, scale, tol: Tolerances):
    """Every gap between sorted imaginary parts, and every |lambda|, exceeds the
    gap tolerance; over the last axis of ev."""
    tau = tol.gap_tol(scale)
    gaps = np.diff(np.sort(ev.imag, axis=-1), axis=-1).min(axis=-1)
    return (gaps > tau) & (np.abs(ev).min(axis=-1) > tau)


def _mu_cubic(S: np.ndarray):
    """Coefficients (c2, c1, c0) of det(lambda I - J S) = mu^3 + c2 mu^2 + c1 mu + c0
    in mu = lambda^2, over a stack of generators S = [[K, B], [B^T, I]] with B
    skew-symmetric (the form every ``model._generator`` output has).

    With g the axial vector of B and M = K + g g^T - |g|^2 I:
    c2 = tr M + 4|g|^2, c1 = m2(M) + 4 g^T M g and c0 = det M, where m2 is
    the sum of the principal 2x2 minors of M. Every operation is a polynomial
    in the entries, so a complex S gives the analytic continuation. Callers:
    ``sweep._certify_cells`` (grid cells from the roots) and
    ``phases._dmodes_implicit`` (a complex omega-step for the derivative).
    """
    K, B = S[..., :3, :3], S[..., :3, 3:]
    g = np.stack([B[..., 2, 1], B[..., 0, 2], B[..., 1, 0]], axis=-1)
    gg = (g * g).sum(axis=-1)
    M = K + g[..., :, None] * g[..., None, :] - gg[..., None, None] * np.eye(3)
    m00, m01, m02 = M[..., 0, 0], M[..., 0, 1], M[..., 0, 2]
    m10, m11, m12 = M[..., 1, 0], M[..., 1, 1], M[..., 1, 2]
    m20, m21, m22 = M[..., 2, 0], M[..., 2, 1], M[..., 2, 2]
    minor0, minor1, minor2 = m11 * m22 - m12 * m21, m00 * m22 - m02 * m20, m00 * m11 - m01 * m10
    gMg = np.einsum("...i,...ij,...j->...", g, M, g)
    c2 = m00 + m11 + m22 + 4.0 * gg
    c1 = minor0 + minor1 + minor2 + 4.0 * gMg
    c0 = m00 * minor0 - m01 * (m10 * m22 - m12 * m20) + m02 * (m10 * m21 - m11 * m20)
    return c2, c1, c0


@dataclass(frozen=True)
class Mode:
    """A stable normal mode: eigenvalue +i*freq of Lambda with its energy sign."""

    freq: float
    krein_sign: int
    eigvec: np.ndarray


@dataclass(frozen=True)
class ModeSpectrum:
    classification: Classification
    modes: Tuple[Mode, ...]
    raw_eigenvalues: np.ndarray

    @property
    def freqs(self) -> np.ndarray:
        return np.array([m.freq for m in self.modes])

    @property
    def krein_signs(self) -> np.ndarray:
        return np.array([m.krein_sign for m in self.modes])


def _as_lambda(lam) -> np.ndarray:
    L = np.asarray(lam, dtype=float)
    if L.shape != (6, 6):
        raise DomainError(f"expected a 6x6 dynamical matrix, got shape {L.shape}")
    return L


def krein_sign(v: np.ndarray, S) -> int:
    """Energy sign of a stable mode, sign(Re(conj(v)^T S v)).

    Well-defined for a simple eigenvector of J S with eigenvalue +i*freq,
    freq > 0; raises DegeneracyError when the energy form is too close to
    zero to carry a sign.
    """
    Smat = _as_matrix(S)
    quad = np.conj(v) @ Smat @ v
    scale = np.linalg.norm(Smat) * float(np.real(np.conj(v) @ v))
    if abs(np.imag(quad)) > 1e-10 * max(abs(quad), 1e-300):
        raise NumericalError("mode energy form is not real; eigenvector suspect")
    if abs(quad) < 1e-10 * scale:
        raise DegeneracyError(
            "mode energy form vanishes (boundary degeneracy); Krein sign undefined"
        )
    return 1 if np.real(quad) > 0 else -1


def _eig_sorted(L: np.ndarray):
    try:
        ev, V = np.linalg.eig(L)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NumericalError(f"eigensolver failed on Lambda={L!r}") from exc
    return ev, V


def classify(lam) -> ModeSpectrum:
    """Classify a dynamical matrix as Confined / Unconfined / Boundary, with the
    pointwise tolerances (no gap floor).

    When Confined, the three positive-frequency modes are returned sorted by
    descending frequency (ties broken by Krein sign, +1 first), each with a
    residual-checked eigenvector.
    """
    L = _as_lambda(lam)
    if not np.all(np.isfinite(L)):
        raise DomainError("dynamical matrix must be finite")
    ev, V = _eig_sorted(L)
    scale = float(np.linalg.norm(L))
    if _unconfined(ev, scale, DEFAULT_TOLERANCES):
        return ModeSpectrum(Classification.UNCONFINED, (), ev)
    if not _separated(ev, scale, DEFAULT_TOLERANCES):
        return ModeSpectrum(Classification.BOUNDARY, (), ev)
    S = -J6 @ L
    modes = []
    for i in np.where(ev.imag > 0)[0]:
        freq = float(ev[i].imag)
        v = V[:, i]
        residual = np.linalg.norm(L @ v - 1j * freq * v)
        if residual > 1e-9 * scale:
            raise NumericalError(
                f"eigenvector residual {residual:.2e} too large at freq {freq}; "
                f"Lambda={L!r}"
            )
        try:
            sign = krein_sign(v, S)
        except DegeneracyError:
            # vanishing mode energy form: an imminent Krein collision below
            # the gap resolution
            return ModeSpectrum(Classification.BOUNDARY, (), ev)
        modes.append(Mode(freq=freq, krein_sign=sign, eigvec=v))
    modes.sort(key=lambda m: (-m.freq, -m.krein_sign))
    if len(modes) != 3:  # pragma: no cover - excluded by the gap rule
        raise NumericalError("confined spectrum did not yield three positive modes")
    return ModeSpectrum(Classification.CONFINED, tuple(modes), ev)


def stable_modes(lam) -> List[Mode]:
    """Simple purely-imaginary positive-frequency modes, even at Unconfined points.

    Used for tracking the surviving branch through a stability loss; applies
    the pointwise tolerances and returns modes sorted by descending frequency.
    """
    L = _as_lambda(lam)
    ev, V = _eig_sorted(L)
    scale = float(np.linalg.norm(L))
    tau_re = DEFAULT_TOLERANCES.re_tol(scale)
    tau_gap = DEFAULT_TOLERANCES.gap_tol(scale)
    S = -J6 @ L
    out = []
    for i in range(6):
        if abs(ev[i].real) > tau_re or ev[i].imag <= tau_gap:
            continue
        gaps = np.abs(np.delete(ev, i) - ev[i])
        if np.min(gaps) <= tau_gap:
            continue
        out.append(Mode(freq=float(ev[i].imag), krein_sign=krein_sign(V[:, i], S), eigvec=V[:, i]))
    out.sort(key=lambda m: (-m.freq, -m.krein_sign))
    return out


@dataclass(frozen=True)
class NormalModeBasis:
    """Ladder-operator coefficients A_i = coeffs[i] . u with signature signs.

    The rows satisfy i c_i^T J conj(c_j) = signs[j] delta_ij and
    i c_i^T J c_j = 0, which is the commutator normalization
    [A_i, A_j^dag] = eps_j delta_ij, [A_i, A_j] = 0 under [u_a, u_b] = i J_ab.
    """

    coeffs: np.ndarray
    signs: np.ndarray
    freqs: np.ndarray

    def ladder_commutators(self):
        """([A_i, A_j^dag], [A_i, A_j]) matrices, for verification."""
        C = 1j * self.coeffs @ J6 @ np.conj(self.coeffs.T)
        D = 1j * self.coeffs @ J6 @ self.coeffs.T
        return C, D


def normal_mode_basis(spectrum: ModeSpectrum, S) -> NormalModeBasis:
    """Ladder coefficients for a confined spectrum.

    Each coefficient vector is S v_i rescaled so the commutator normalization
    holds; the deterministic phase convention makes the largest-magnitude
    component real positive.
    """
    if spectrum.classification is not Classification.CONFINED:
        raise DomainError("normal-mode basis requires a Confined spectrum")
    Smat = _as_matrix(S)
    rows = []
    for mode in spectrum.modes:
        v = mode.eigvec
        quad = float(np.real(np.conj(v) @ Smat @ v))
        pivot = mode.freq * abs(quad)
        if pivot < 1e-12 * (1.0 + np.linalg.norm(Smat)):
            raise DegeneracyError("normalization pivot below tolerance (degenerate mode)")
        c = (Smat @ v) / math.sqrt(pivot)
        p = int(np.argmax(np.abs(c)))
        c = c * (np.conj(c[p]) / abs(c[p]))
        rows.append(c)
    basis = NormalModeBasis(
        coeffs=np.array(rows),
        signs=spectrum.krein_signs.astype(int),
        freqs=spectrum.freqs,
    )
    C, D = basis.ladder_commutators()
    err = max(np.abs(C - np.diag(basis.signs)).max(), np.abs(D).max())
    if err > 1e-9:
        raise NumericalError(f"ladder commutator normalization failed (err={err:.2e})")
    return basis


def track_modes(prev: ModeSpectrum, nxt: ModeSpectrum) -> Tuple[int, int, int]:
    """Pairing of modes between two confined spectra by eigenvector overlap.

    Returns the permutation p with nxt.modes[p[i]] continuing prev.modes[i].
    Raises DegeneracyError when the best and runner-up overlaps for some mode
    are within 1e-3 (near-degeneracy; refine the sweep step).
    """
    if (
        prev.classification is not Classification.CONFINED
        or nxt.classification is not Classification.CONFINED
    ):
        raise DomainError("mode tracking requires two Confined spectra")
    P = np.empty((3, 3))
    for i, mp in enumerate(prev.modes):
        vp = mp.eigvec / np.linalg.norm(mp.eigvec)
        for j, mn in enumerate(nxt.modes):
            vn = mn.eigvec / np.linalg.norm(mn.eigvec)
            P[i, j] = abs(np.vdot(vp, vn))
    for i in range(3):
        best = np.sort(P[i])[::-1]
        if best[0] - best[1] < 1e-3:
            raise DegeneracyError(
                f"ambiguous mode pairing for mode {i} (overlaps {best[0]:.4f}, "
                f"{best[1]:.4f}); refine the sweep step"
            )
    perms = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
    scores = [sum(P[i, p[i]] for i in range(3)) for p in perms]
    return perms[int(np.argmax(scores))]


def propagate(lam, u0, t: float) -> np.ndarray:
    """Flow map u(t) = exp(Lambda t) u0, by scaling-and-squaring."""
    L = _as_lambda(lam)
    u0 = np.asarray(u0, dtype=float)
    ev = np.linalg.eigvals(L)
    growth = float(np.max(ev.real))
    if growth * t > 500.0:
        raise SaturationError(
            f"propagation over t={t} overflows (growth exponent {growth:.3e})",
            growth_exponent=growth,
        )
    return scipy.linalg.expm(L * t) @ u0


@dataclass(frozen=True)
class ProbeResult:
    bounded: bool
    growth_exponent: float
    max_ratio: float
    horizon_periods: int


def boundedness_probe(lam, u0, horizon: int = 1000) -> ProbeResult:
    """Sample ||u(t)|| over `horizon` characteristic periods and decide boundedness.

    A trajectory is reported bounded when the sup-norm ratio stays within 10x
    of the initial norm, or when the norm envelope shows no sustained growth
    between the two halves of the horizon (linear phase-mixing transients on
    confined spectra can overshoot a fixed ratio without any actual growth).
    The growth exponent is the fitted slope of log||u|| over the second half.
    """
    if horizon < 1:
        raise DomainError("horizon must be >= 1 period")
    L = _as_lambda(lam)
    u = np.asarray(u0, dtype=float).copy()
    rho = float(np.max(np.abs(np.linalg.eigvals(L))))
    period = 2.0 * math.pi / rho if rho > 1e-12 else 2.0 * math.pi
    samples_per_period = 4
    dt = period / samples_per_period
    step = scipy.linalg.expm(L * dt)
    n_steps = horizon * samples_per_period
    norms = np.empty(n_steps + 1)
    norms[0] = np.linalg.norm(u)
    if norms[0] == 0:
        raise DomainError("initial vector must be nonzero")
    taken = n_steps
    for i in range(1, n_steps + 1):
        u = step @ u
        norms[i] = np.linalg.norm(u)
        if norms[i] > 1e12 * norms[0]:
            taken = i
            break
    norms = norms[: taken + 1]
    ratio = float(np.max(norms) / norms[0])
    half = len(norms) // 2
    env1 = float(np.max(norms[:half])) if half else norms[0]
    env2 = float(np.max(norms[half:]))
    sustained = env2 > 1.2 * env1
    t = np.arange(len(norms)) * dt
    sel = slice(half, None)
    slope = float(np.polyfit(t[sel], np.log(norms[sel]), 1)[0]) if len(norms) - half > 2 else 0.0
    bounded = (ratio <= 10.0 or not sustained) and taken == n_steps
    return ProbeResult(
        bounded=bounded,
        growth_exponent=0.0 if bounded else slope,
        max_ratio=ratio,
        horizon_periods=horizon,
    )
