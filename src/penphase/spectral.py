"""Eigenanalysis of the dynamical matrix: stability classification, normal
modes with Krein signs and mode tracking.

A parameter point is Confined when all six eigenvalues of Lambda are purely
imaginary, nonzero and mutually distinct (hence semisimple); Boundary when the
spectrum is imaginary but degenerate or contains a zero mode; Unconfined when
any eigenvalue has a real part beyond tolerance. Boundary is a first-class
outcome, not an error: region edges and exactly-commensurate configurations
land there. This eigenvalue rule, ``_rule``, is the only confinement rule,
and the two factors RE_FACTOR and GAP_FACTOR (applied in ``_rule`` and
``_gap_tol``) are its only tolerance source. Each stable mode's symplectic
form Im(v^H J v) (``_forms``) gives its Krein sign and its ladder
normalisation; the form is guarded only against vanishing, which a simple
imaginary eigenvalue's form never does.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import DegeneracyError, DomainError, NumericalError
from .model import J6

__all__ = [
    "Classification",
    "Mode",
    "ModeSpectrum",
    "NormalModeBasis",
    "classify",
    "normal_mode_basis",
    "track_modes",
]


class Classification(enum.Enum):
    CONFINED = "C"
    UNCONFINED = "U"
    BOUNDARY = "B"


#: Tolerance factors, each times (1 + ||Lambda||_F): |Re lambda| beyond RE_FACTOR
#: (1 + scale) is Unconfined; gaps and |lambda| within GAP_FACTOR (1 + scale), Boundary.
RE_FACTOR, GAP_FACTOR = 1e-9, 1e-7


def _gap_tol(scale, gap_floor=0.0):
    """The gap tolerance for a norm or an array of norms. Grid sweeps set
    ``gap_floor`` to their resolution margin, below which a cell's gap or
    smallest |lambda| cannot certify Confined; 0 is the pointwise rule."""
    return np.maximum(GAP_FACTOR * (1.0 + scale), gap_floor)


def _rule(ev: np.ndarray, scale, gap_floor=0.0):
    """The eigenvalue rule over the last axis of ev: masks (unconfined,
    separated). Unconfined: some |Re lambda| beyond the real-part tolerance.
    Separated: every gap between sorted imaginary parts, and every |lambda|,
    beyond the gap tolerance. Confined is separated and not unconfined."""
    tau = _gap_tol(scale, gap_floor)
    gaps = np.diff(np.sort(ev.imag, axis=-1), axis=-1).min(axis=-1)
    unconfined = np.abs(ev.real).max(axis=-1) > RE_FACTOR * (1.0 + scale)
    return unconfined, (gaps > tau) & (np.abs(ev).min(axis=-1) > tau)


def _simple_imaginary(ev: np.ndarray, scale) -> np.ndarray:
    """Mask of the stable modes among eigenvalues ev, even at Unconfined
    points: |Re| within the real-part tolerance, Im beyond the gap tolerance,
    and no other eigenvalue within the gap tolerance; over the last axis."""
    tau_re = np.expand_dims(RE_FACTOR * (1.0 + scale), -1)
    tau_gap = np.expand_dims(_gap_tol(scale), -1)
    dist = np.abs(ev[..., :, None] - ev[..., None, :])
    dist[..., range(6), range(6)] = np.inf
    return (np.abs(ev.real) <= tau_re) & (ev.imag > tau_gap) & (dist.min(axis=-1) > tau_gap)


def _stack_entries(S: np.ndarray):
    """The nine entries ``model._generator_entries`` gives, read off a stack of
    generators S of shape (..., 6, 6)."""
    return (S[..., 2, 4], S[..., 0, 5], S[..., 1, 3], S[..., 0, 0], S[..., 1, 1],
            S[..., 2, 2], S[..., 0, 1], S[..., 0, 2], S[..., 1, 2])


def _mu_cubic(g0, g1, g2, k00, k11, k22, k01, k02, k12):
    """Coefficients (c2, c1, c0) of det(lambda I - J S) = mu^3 + c2 mu^2 + c1 mu + c0
    in mu = lambda^2, for generators S = [[K, B], [B^T, I]] with K symmetric and
    B skew-symmetric (the form every ``model._generator`` output has), given by
    the axial vector g of B and the six distinct entries of K, each a column
    over the stack (the order of ``model._generator_entries``).

    With M = K + g g^T - |g|^2 I, symmetric: c2 = tr M + 4|g|^2,
    c1 = m2(M) + 4 g^T M g and c0 = det M, where m2 is the sum of the principal
    2x2 minors of M. Every operation is a polynomial in the entries, so a
    complex S gives the analytic continuation. Callers: ``sweep._loop_codes``
    (from ``_generator_entries``, no stack) and ``phases._dmodes_implicit``
    (``_stack_entries`` of its complex omega-step).
    """
    g00, g11, g22 = g0 * g0, g1 * g1, g2 * g2
    gg = g00 + g11 + g22
    m00, m11, m22 = k00 + g00 - gg, k11 + g11 - gg, k22 + g22 - gg
    m01, m02, m12 = k01 + g0 * g1, k02 + g0 * g2, k12 + g1 * g2
    minor0, minor1, minor2 = m11 * m22 - m12 * m12, m00 * m22 - m02 * m02, m00 * m11 - m01 * m01
    gMg = g00 * m00 + g11 * m11 + g22 * m22 + 2.0 * (g0 * g1 * m01 + g0 * g2 * m02 + g1 * g2 * m12)
    c2 = m00 + m11 + m22 + 4.0 * gg
    c1 = minor0 + minor1 + minor2 + 4.0 * gMg
    c0 = m00 * minor0 - m01 * (m01 * m22 - m12 * m02) + m02 * (m01 * m12 - m11 * m02)
    return c2, c1, c0


@dataclass(frozen=True)
class Mode:
    """A stable normal mode: eigenvalue +i*freq of Lambda with its Krein sign,
    the sign of the symplectic form Im(v^H J v) of its eigenvector v."""

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


def _forms(M: np.ndarray, V: np.ndarray) -> np.ndarray:
    """v^H M v over the columns v of V.

    With M = J the imaginary part is the symplectic form Im(v^H J v). For
    J S v = i freq v, S v = -i freq J v, so the energy form v^H S v equals
    freq * Im(v^H J v): at freq > 0 the sign of the symplectic form is the
    Krein sign. It is first order in the frequency near a zero mode and
    vanishes only at a degeneracy, never for a simple imaginary eigenvalue.
    """
    return np.sum(np.conj(V) * (M @ V), axis=0)


def classify(lam) -> ModeSpectrum:
    """Classify a dynamical matrix as Confined / Unconfined / Boundary, with the
    pointwise tolerances (no gap floor).

    When Confined, the three positive-frequency modes are returned sorted by
    descending frequency (ties broken by Krein sign, +1 first), each with a
    residual-checked eigenvector. The Krein sign is the sign of the mode's
    symplectic form; a form below 1e-10 |v|^2 carries no sign and demotes
    the point to Boundary (a degeneracy below the gap resolution).
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
    unconfined, separated = _rule(ev, scale)
    if unconfined:
        return ModeSpectrum(Classification.UNCONFINED, (), ev)
    if not separated:
        return ModeSpectrum(Classification.BOUNDARY, (), ev)
    positive = np.flatnonzero(ev.imag > 0)
    if len(positive) != 3:  # pragma: no cover - excluded by the gap rule
        raise NumericalError("confined spectrum did not yield three positive modes")
    freqs, Vp = ev.imag[positive], V[:, positive]
    residuals = np.linalg.norm(L @ Vp - 1j * freqs * Vp, axis=0)
    i = int(np.argmax(residuals))
    if residuals[i] > 1e-9 * scale:
        raise NumericalError(
            f"eigenvector residual {residuals[i]:.2e} too large at freq {freqs[i]}; "
            f"Lambda={L!r}"
        )
    forms = _forms(J6, Vp).imag
    if np.any(np.abs(forms) < 1e-10 * np.sum(np.abs(Vp) ** 2, axis=0)):
        return ModeSpectrum(Classification.BOUNDARY, (), ev)
    modes = sorted(
        (Mode(freq=float(f), krein_sign=1 if s > 0 else -1, eigvec=v)
         for f, s, v in zip(freqs, forms, Vp.T)),
        key=lambda m: (-m.freq, -m.krein_sign),
    )
    return ModeSpectrum(Classification.CONFINED, tuple(modes), ev)


@dataclass(frozen=True)
class NormalModeBasis:
    """Ladder-operator coefficients A_i = coeffs[i] . u with signature signs.

    The rows c_i, each -i J v_i / sqrt|Im(v_i^H J v_i)| up to a unit phase,
    satisfy i c_i^T J conj(c_j) = signs[j] delta_ij and i c_i^T J c_j = 0,
    which is the commutator normalization [A_i, A_j^dag] = eps_j delta_ij,
    [A_i, A_j] = 0 under [u_a, u_b] = i J_ab; signs[i] is the sign of
    Im(v_i^H J v_i). J c_i = i v_i / sqrt|Im(v_i^H J v_i)| up to that phase is
    the vector each mode's quadratic form is read from (``expectation_quadratic``).
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

    Each coefficient vector is -i J v_i scaled by 1/sqrt|Im(v_i^H J v_i)|, the
    mode's symplectic form, so the commutator normalization holds; the
    deterministic phase convention makes the first component within a relative
    1e-9 of the row's largest magnitude real positive, so components that tie
    (as at axisymmetric points) do not leave the choice to rounding. The basis
    needs neither S nor the frequencies: S is accepted for call compatibility
    and not read. A commutator entry off by more than 1e-9 raises NumericalError
    naming its modes (1-based, as in the Fock label), their forms and |v_i^H J v_j|.
    """
    if spectrum.classification is not Classification.CONFINED:
        raise DomainError("normal-mode basis requires a Confined spectrum")
    V = np.stack([m.eigvec for m in spectrum.modes], axis=1)
    forms = _forms(J6, V).imag
    rows = (-1j * (J6 @ V) / np.sqrt(np.abs(forms))).T
    size = np.abs(rows)
    pivot = np.argmax(size >= (1.0 - 1e-9) * size.max(axis=1, keepdims=True), axis=1)
    largest = rows[range(3), pivot]
    basis = NormalModeBasis(
        coeffs=rows * (np.conj(largest) / np.abs(largest))[:, None],
        signs=spectrum.krein_signs.astype(int),
        freqs=spectrum.freqs,
    )
    C, D = basis.ladder_commutators()
    dev = np.maximum(np.abs(C - np.diag(basis.signs)), np.abs(D))
    err = dev.max()
    if err > 1e-9:
        i, j = sorted(np.unravel_index(np.argmax(dev), dev.shape))
        cross = abs(np.conj(V[:, i]) @ J6 @ V[:, j])
        raise NumericalError(
            f"ladder commutator normalization failed (err={err:.2e}) at modes "
            f"{i + 1} and {j + 1}: symplectic forms {forms[i]:.3g} and {forms[j]:.3g}, "
            f"cross form {cross:.3g}"
        )
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
