"""Eigenanalysis of the dynamical matrix: stability classification, normal
modes with Krein signs and mode tracking.

A parameter point is Confined when all six eigenvalues of Lambda are purely
imaginary, nonzero and mutually distinct (hence semisimple); Boundary when the
spectrum is imaginary but degenerate or contains a zero mode; Unconfined when
any eigenvalue has a real part beyond tolerance. Boundary is a first-class
outcome, not an error: region edges and exactly-commensurate configurations
land there. This eigenvalue rule (``_unconfined``/``_separated``) is the only
confinement rule; the Krein sign of a mode guards only against a vanishing
symplectic form Im(v^H J v), which a simple imaginary eigenvalue never has.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from typing import ClassVar, Tuple

import numpy as np

from .errors import DegeneracyError, DomainError, NumericalError
from .model import J6, _as_matrix

__all__ = [
    "Classification",
    "Mode",
    "ModeSpectrum",
    "NormalModeBasis",
    "classify",
    "krein_sign",
    "normal_mode_basis",
    "track_modes",
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


def _simple_imaginary(ev: np.ndarray, scale) -> np.ndarray:
    """Mask of the stable modes among eigenvalues ev, even at Unconfined
    points: |Re| within the real-part tolerance, Im beyond the gap tolerance,
    and no other eigenvalue within the gap tolerance; over the last axis."""
    tau_re = np.expand_dims(DEFAULT_TOLERANCES.re_tol(scale), -1)
    tau_gap = np.expand_dims(DEFAULT_TOLERANCES.gap_tol(scale), -1)
    dist = np.abs(ev[..., :, None] - ev[..., None, :])
    dist[..., range(6), range(6)] = np.inf
    return (np.abs(ev.real) <= tau_re) & (ev.imag > tau_gap) & (dist.min(axis=-1) > tau_gap)


def _mu_cubic(S: np.ndarray):
    """Coefficients (c2, c1, c0) of det(lambda I - J S) = mu^3 + c2 mu^2 + c1 mu + c0
    in mu = lambda^2, over a stack of generators S = [[K, B], [B^T, I]] with K
    symmetric and B skew-symmetric (the form every ``model._generator`` output has).

    With g the axial vector of B and M = K + g g^T - |g|^2 I, symmetric:
    c2 = tr M + 4|g|^2, c1 = m2(M) + 4 g^T M g and c0 = det M, where m2 is
    the sum of the principal 2x2 minors of M; all from the three entries of g
    and the six distinct entries of M, each a column over the stack. Every
    operation is a polynomial in the entries, so a complex S gives the
    analytic continuation. Callers: ``sweep._certify_cells`` (grid cells from
    the roots) and ``phases._dmodes_implicit`` (a complex omega-step).
    """
    g0, g1, g2 = S[..., 2, 4], S[..., 0, 5], S[..., 1, 3]
    g00, g11, g22 = g0 * g0, g1 * g1, g2 * g2
    gg = g00 + g11 + g22
    m00, m11, m22 = S[..., 0, 0] + g00 - gg, S[..., 1, 1] + g11 - gg, S[..., 2, 2] + g22 - gg
    m01, m02, m12 = S[..., 0, 1] + g0 * g1, S[..., 0, 2] + g0 * g2, S[..., 1, 2] + g1 * g2
    minor0, minor1, minor2 = m11 * m22 - m12 * m12, m00 * m22 - m02 * m02, m00 * m11 - m01 * m01
    gMg = g00 * m00 + g11 * m11 + g22 * m22 + 2.0 * (g0 * g1 * m01 + g0 * g2 * m02 + g1 * g2 * m12)
    c2 = m00 + m11 + m22 + 4.0 * gg
    c1 = minor0 + minor1 + minor2 + 4.0 * gMg
    c0 = m00 * minor0 - m01 * (m01 * m22 - m12 * m02) + m02 * (m01 * m12 - m11 * m02)
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


def krein_sign(v: np.ndarray, S) -> int:
    """Energy sign of a stable mode, sign(Re(conj(v)^T S v)).

    Well-defined for a simple eigenvector of J S with eigenvalue +i*freq,
    freq > 0. The energy form equals freq * Im(conj(v)^T J v), so near a zero
    mode it shrinks like freq^2 while the sign stays definite; the guard
    therefore tests the symplectic form Im(conj(v)^T J v) against
    1e-10 |v|^2 and raises DegeneracyError below it (no sign to carry).
    """
    Smat = _as_matrix(S)
    quad = np.conj(v) @ Smat @ v
    if abs(np.imag(quad)) > 1e-10 * max(abs(quad), 1e-300):
        raise NumericalError("mode energy form is not real; eigenvector suspect")
    if abs(np.imag(np.conj(v) @ J6 @ v)) < 1e-10 * float(np.real(np.conj(v) @ v)):
        raise DegeneracyError(
            "mode symplectic form vanishes (boundary degeneracy); Krein sign undefined"
        )
    return 1 if np.real(quad) > 0 else -1


def classify(lam) -> ModeSpectrum:
    """Classify a dynamical matrix as Confined / Unconfined / Boundary, with the
    pointwise tolerances (no gap floor).

    When Confined, the three positive-frequency modes are returned sorted by
    descending frequency (ties broken by Krein sign, +1 first), each with a
    residual-checked eigenvector.
    """
    L = np.asarray(lam, dtype=float)
    if L.shape != (6, 6):
        raise DomainError(f"expected a 6x6 dynamical matrix, got shape {L.shape}")
    if not np.all(np.isfinite(L)):
        raise DomainError("dynamical matrix must be finite")
    try:
        ev, V = np.linalg.eig(L)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NumericalError(f"eigensolver failed on Lambda={L!r}") from exc
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
            # vanishing symplectic form: a degeneracy below the gap
            # resolution (safety path; a simple eigenvalue's form is nonzero)
            return ModeSpectrum(Classification.BOUNDARY, (), ev)
        modes.append(Mode(freq=freq, krein_sign=sign, eigvec=v))
    modes.sort(key=lambda m: (-m.freq, -m.krein_sign))
    if len(modes) != 3:  # pragma: no cover - excluded by the gap rule
        raise NumericalError("confined spectrum did not yield three positive modes")
    return ModeSpectrum(Classification.CONFINED, tuple(modes), ev)


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


#: The six pairings of three modes, in lexicographic order.
_PERMUTATIONS = np.array(list(itertools.permutations(range(3))))


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
    V = np.array([[m.eigvec for m in spec.modes] for spec in (prev, nxt)])
    V = V / np.linalg.norm(V, axis=-1, keepdims=True)
    P = np.abs(np.conj(V[0]) @ V[1].T)
    best = np.sort(P, axis=1)[:, ::-1]
    ambiguous = np.flatnonzero(best[:, 0] - best[:, 1] < 1e-3)
    if len(ambiguous):
        i = int(ambiguous[0])
        raise DegeneracyError(
            f"ambiguous mode pairing for mode {i} (overlaps {best[i, 0]:.4f}, "
            f"{best[i, 1]:.4f}); refine the sweep step"
        )
    scores = P[range(3), _PERMUTATIONS].sum(axis=1)
    return tuple(int(j) for j in _PERMUTATIONS[int(np.argmax(scores))])
