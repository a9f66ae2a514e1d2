"""Eigenanalysis of the dynamical matrix: stability classification and normal
modes with Krein signs.

A parameter point is Confined when all six eigenvalues of Lambda are purely
imaginary, nonzero and mutually distinct (hence semisimple); Boundary when the
spectrum is imaginary but degenerate or contains a zero mode; Unconfined when
any eigenvalue has a real part beyond tolerance. Boundary is a first-class
outcome, not an error: region edges and exactly-commensurate configurations
land there. This eigenvalue rule, ``_rule``, is the only confinement rule,
and one factor, GAP_FACTOR (through ``_gap_tol``), is its only tolerance
source. Each stable mode's symplectic form Im(v^H J v) (``_forms``; ``classify``
reads it off J's blocks) gives its Krein sign and its ladder normalisation;
the form is guarded only against vanishing, which a simple imaginary
eigenvalue's form never does. Past the eigensolve and the residuals, a
Confined point's three modes are handled as Python floats, and
``normal_mode_basis`` picks each row's pivot in a Python loop.

``classify`` keeps the last matrix's spectrum, keyed on the bytes of the
validated float64 Lambda; errors are not kept, and the spectrum's arrays are
read-only (``model._read_only``), so a caller cannot change a kept spectrum.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import DomainError, NumericalError
from .model import J6, _read_only, _real_array

__all__ = [
    "Classification",
    "Mode",
    "ModeSpectrum",
    "NormalModeBasis",
    "classify",
    "normal_mode_basis",
]


class Classification(enum.Enum):
    CONFINED = "C"
    UNCONFINED = "U"
    BOUNDARY = "B"


#: The tolerance factor, times (1 + ||Lambda||_F): |Re lambda| beyond it is Unconfined;
#: gaps and |lambda| within it, Boundary. eig splits a zero mode by ~sqrt(eps) ||Lambda||.
GAP_FACTOR = 1e-7


def _gap_tol(scale, gap_floor=0.0):
    """The gap tolerance for a norm (a float stays a float) or an array of
    norms. Grid sweeps floor it at ``gap_floor``, their resolution margin, below
    which a cell's gap or smallest |lambda| cannot certify Confined."""
    tol = GAP_FACTOR * (1.0 + scale)
    return np.maximum(tol, gap_floor) if gap_floor else tol


def _rule(ev: np.ndarray, scale, gap_floor=0.0):
    """The eigenvalue rule over the last axis of ev: masks (unconfined,
    separated). Unconfined: some |Re lambda| beyond the pointwise tolerance.
    Separated: every gap between sorted imaginary parts, and every |lambda|,
    beyond the gap tolerance. Confined is separated and not unconfined."""
    tol = _gap_tol(scale)
    tau = np.maximum(tol, gap_floor)
    im = np.sort(ev.imag, axis=-1)
    gaps = (im[..., 1:] - im[..., :-1]).min(axis=-1)
    unconfined = np.abs(ev.real).max(axis=-1) > tol
    return unconfined, (gaps > tau) & (np.abs(ev).min(axis=-1) > tau)


def _simple_imaginary(ev: np.ndarray, scale) -> np.ndarray:
    """Mask of the stable modes among eigenvalues ev, even at Unconfined
    points: |Re| within the tolerance, and Im and the distance to every other
    eigenvalue beyond it; over the last axis."""
    tau = np.expand_dims(_gap_tol(scale), -1)
    dist = np.abs(ev[..., :, None] - ev[..., None, :])
    dist[..., range(6), range(6)] = np.inf
    return (np.abs(ev.real) <= tau) & (ev.imag > tau) & (dist.min(axis=-1) > tau)


@dataclass(frozen=True, eq=False)
class Mode:
    """A stable normal mode: eigenvalue +i*freq of Lambda with its Krein sign,
    the sign of the symplectic form Im(v^H J v) of its eigenvector v."""

    freq: float
    krein_sign: int
    eigvec: np.ndarray


@dataclass(frozen=True, eq=False)
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
    pointwise tolerance (no gap floor).

    When Confined, the three positive-frequency modes are returned sorted by
    descending frequency (ties broken by Krein sign, +1 first), each with a
    residual-checked eigenvector. The Krein sign is the sign of the mode's
    symplectic form; a form below 1e-10 |v|^2 carries no sign and demotes
    the point to Boundary (a degeneracy below the gap resolution).

    A complex, non-numeric, non-finite or non-6x6 input raises DomainError.
    The last matrix's spectrum is kept, keyed on the bytes of Lambda as
    float64, so a repeated matrix is not decomposed again; ``raw_eigenvalues``
    and each mode's ``eigvec`` are read-only.
    """
    L = _real_array("dynamical matrix", lam)
    if L.shape != (6, 6):
        raise DomainError(f"expected a 6x6 dynamical matrix, got shape {L.shape}")
    if not np.isfinite(L).all():
        raise DomainError("dynamical matrix must be finite")
    return _classify_bytes(L.tobytes())


@functools.lru_cache(maxsize=1)
def _classify_bytes(key: bytes) -> ModeSpectrum:
    """``classify``'s body, on a validated Lambda given as its C-order float64
    bytes; the last key's spectrum is kept."""
    L = np.frombuffer(key).reshape(6, 6)
    try:
        ev, V = np.linalg.eig(L)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NumericalError(f"eigensolver failed on Lambda={L!r}") from exc
    ev = _read_only(ev)
    scale = float(np.linalg.norm(L))
    unconfined, separated = _rule(ev, scale)
    if unconfined:
        return ModeSpectrum(Classification.UNCONFINED, (), ev)
    if not separated:
        return ModeSpectrum(Classification.BOUNDARY, (), ev)
    positive = [i for i, e in enumerate(ev.tolist()) if e.imag > 0]
    if len(positive) != 3:  # pragma: no cover - excluded by the gap rule
        raise NumericalError("confined spectrum did not yield three positive modes")
    freqs, Vp = ev.imag[positive], _read_only(V[:, positive])
    residuals = np.linalg.norm(L @ Vp - 1j * freqs * Vp, axis=0).tolist()
    worst = max(residuals)
    if worst > 1e-9 * scale:
        raise NumericalError(
            f"eigenvector residual {worst:.2e} too large at freq "
            f"{freqs[residuals.index(worst)]}; Lambda={L!r}"
        )
    modes = []
    # Im(v^H J v) = 2 Im sum_a conj(v_a) v_(a+3) for J's (x, p) blocks; eig's
    # vectors have unit norm, so the guard's 1e-10 |v|^2 is 1e-10
    for f, v, (v0, v1, v2, v3, v4, v5) in zip(freqs.tolist(), Vp.T, Vp.T.tolist()):
        form = 2.0 * (v0.conjugate() * v3 + v1.conjugate() * v4 + v2.conjugate() * v5).imag
        if abs(form) < 1e-10:
            return ModeSpectrum(Classification.BOUNDARY, (), ev)
        modes.append(Mode(freq=f, krein_sign=1 if form > 0 else -1, eigvec=v))
    modes.sort(key=lambda m: (-m.freq, -m.krein_sign))
    return ModeSpectrum(Classification.CONFINED, tuple(modes), ev)


@dataclass(frozen=True, eq=False)
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
        A = 1j * self.coeffs @ J6
        return A @ np.conj(self.coeffs.T), A @ self.coeffs.T


def normal_mode_basis(spectrum: ModeSpectrum, S=None) -> NormalModeBasis:
    """Ladder coefficients for a confined spectrum.

    The eigenvectors are first J-orthogonalised in mode order (symplectic
    Gram-Schmidt, v_j <- v_j - sum_{i<j} v_i (v_i^H J v_j) / (v_i^H J v_i)),
    which removes the eigensolver's rounding from the cross forms; without it
    a near Krein collision, where two forms are small, fails the check below.
    Each coefficient vector is -i J v_i scaled by 1/sqrt|Im(v_i^H J v_i)|, the
    mode's symplectic form, so the commutator normalization holds; the
    deterministic phase convention makes the first component within a relative
    1e-9 of the row's largest magnitude real positive, so components that tie
    (as at axisymmetric points) do not leave the choice to rounding. The basis
    needs neither S nor the frequencies: S is optional, accepted for call
    compatibility and ignored. A commutator entry off by more than 1e-9 raises
    NumericalError naming its modes (1-based, as in the Fock label), their
    forms and the remaining |v_i^H J v_j|.

    The forms' square roots are taken on Python floats and each row's pivot
    is found by a Python loop; the values stay in NumPy, because Python's
    complex arithmetic rounds differently from NumPy's loops over arrays: the
    magnitudes (Python's abs of a complex can differ in the last bit), the
    phase factor conj(z) / |z| of each row's pivot z, the scaled rows and
    the check's deviations.
    """
    if spectrum.classification is not Classification.CONFINED:
        raise DomainError("normal-mode basis requires a Confined spectrum")
    V = np.stack([m.eigvec for m in spectrum.modes], axis=1)
    JV = J6 @ V
    # Gram-Schmidt in closed form from the Gram matrix V^H J V, as V T with T
    # unit upper triangular: w1 = v1 - c01 v0, w2 = v2 - a v0 - c12 v1, whose
    # forms are w_j^H J w_j = v_j^H J w_j
    (g00, g01, g02), (g10, g11, g12), (g20, g21, g22) = (np.conj(V.T) @ JV).tolist()
    c01, c02 = g01 / g00, g02 / g00
    f1 = g11 - c01 * g10
    c12 = (g12 - c01.conjugate() * g02) / f1
    a = c02 - c12 * c01
    T = np.array([[1.0, -c01, -a], [0.0, 1.0, -c12], [0.0, 0.0, 1.0]])
    forms = [g00.imag, f1.imag, (g22 - a * g20 - c12 * g21).imag]
    rows = (-1j * (JV @ T) / np.array([math.sqrt(abs(f)) for f in forms])).T
    # each row's pivot: its first component within a relative 1e-9 of its
    # largest magnitude (the first component if that magnitude is NaN)
    size = np.abs(rows)
    largest = []
    for row, row_size, top in zip(rows.tolist(), size.tolist(),
                                  ((1.0 - 1e-9) * size.max(axis=1)).tolist()):
        k = 0
        while k < 5 and row_size[k] < top:
            k += 1
        largest.append(row[k])
    largest = np.array(largest)
    basis = NormalModeBasis(
        coeffs=rows * (np.conj(largest) / np.abs(largest))[:, None],
        signs=spectrum.krein_signs,
        freqs=spectrum.freqs,
    )
    C, D = basis.ladder_commutators()
    C.flat[::4] -= basis.signs  # the diagonal
    dev = np.maximum(np.abs(C), np.abs(D))
    err = dev.max()
    if err > 1e-9:
        i, j = sorted(np.unravel_index(np.argmax(dev), dev.shape))
        W = V @ T
        cross = abs(np.conj(W[:, i]) @ J6 @ W[:, j])
        raise NumericalError(
            f"ladder commutator normalization failed (err={err:.2e}) at modes "
            f"{i + 1} and {j + 1}: symplectic forms {forms[i]:.3g} and {forms[j]:.3g}, "
            f"cross form {cross:.3g}"
        )
    return basis

