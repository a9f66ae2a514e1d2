"""Quasienergies, cyclic-state geometric phases, and mode-frequency
derivatives with respect to the rotation frequency.

Two independent routes to the geometric phase of a cyclic state are
implemented: 2*pi times the expectation of the axial angular momentum, and
-2*pi times the omega-derivative of the quasienergy at fixed fields. Their
agreement (a Hellmann-Feynman identity for the rotating-frame generator) is
enforced as a runtime invariant. The derivative route differentiates the
closed-form mu-cubic (the characteristic polynomial of the Hamiltonian
Lambda = J S in mu = lambda^2) implicitly and reads no eigenvectors, so it
checks the eigenvector-built <L3> route independently.

All omega-derivatives are taken at fixed physical fields (b, b0, w0); the
generator is affine in omega, so shifted coefficient matrices are formed
exactly as S - delta * S_L3. ``dmode_domega`` offers the mode-frequency
derivative by three independent routes: implicit differentiation of the
mu-cubic, first-order perturbation over each mode's symplectic form, and
Richardson-extrapolated finite differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import DegeneracyError, DomainError, NoCyclicStatesError, NumericalError
from .model import (
    BindingPotential,
    J6,
    SystemParams,
    _as_matrix,
    build_G,
    build_L3_form,
)
from .spectral import (
    Classification,
    ModeSpectrum,
    NormalModeBasis,
    _mu_cubic,
    _stack_entries,
    _symplectic_forms,
    classify,
    normal_mode_basis,
    track_modes,
)

__all__ = [
    "FockLabel",
    "PhaseReport",
    "ResonanceShift",
    "DERIVATIVE_METHODS",
    "quasienergy",
    "expectation_quadratic",
    "dmode_domega",
    "aa_phase",
    "berry_phase_adiabatic",
    "cos_theta",
    "resonance_shift",
]

_SL3 = build_L3_form().S


@dataclass(frozen=True)
class FockLabel:
    """Occupation numbers (n1, n2, n3) in the tracked mode order."""

    n1: int
    n2: int
    n3: int

    def __post_init__(self):
        for n in (self.n1, self.n2, self.n3):
            if int(n) != n or n < 0:
                raise DomainError(f"occupation numbers must be integers >= 0, got {self}")

    def as_array(self) -> np.ndarray:
        return np.array([self.n1, self.n2, self.n3], dtype=float)


@dataclass(frozen=True)
class PhaseReport:
    """Quasienergy and geometric-phase data for one cyclic state.

    ``aa_phase_eq7`` is None at omega = 0, where no cyclic motion exists and
    only the adiabatic (derivative) route is defined. ``dfreq_domega`` holds
    d(freq_i)/d(omega) from the implicit mu-cubic route, which ``aa_phase_eq8``
    is built from. Phases are reported unwrapped; modular reduction is left
    to callers.
    """

    quasienergy: float
    aa_phase_eq7: Optional[float]
    aa_phase_eq8: float
    dfreq_domega: Tuple[float, float, float]


def quasienergy(basis: NormalModeBasis, n: FockLabel) -> float:
    """E = sum_i eps_i * freq_i * (n_i + 1/2)."""
    return float(np.sum(basis.signs * basis.freqs * (n.as_array() + 0.5)))


def _ladder_inverse(basis: NormalModeBasis) -> np.ndarray:
    """Inverse of the coefficient rows C = (A, A^dag), in closed form.

    The commutator normalization gives C J C^H = D = diag(-i eps, i eps), so
    C^-1 = J C^H D^-1 with D^-1 = diag(i eps, -i eps).
    """
    C = np.vstack([basis.coeffs, np.conj(basis.coeffs)])
    return J6 @ np.conj(C.T) * np.concatenate([1j * basis.signs, -1j * basis.signs])


def _diagonal_coefficients(Q, basis: NormalModeBasis):
    """Per-mode coefficients (q, q0) with <Q> = sum q_i (n_i + 1/2) + q0."""
    Cinv = _ladder_inverse(basis)
    M = Cinv.T @ _as_matrix(Q) @ Cinv  # Q in the (A, A^dag) operator basis
    d12 = np.diag(M[:3, 3:])
    d21 = np.diag(M[3:, :3])
    q = 0.5 * np.real(d12 + d21)
    q0 = float(np.sum(basis.signs * np.real(d12 - d21)) / 4.0)
    return q, q0


def _expectation(coefficients, n: FockLabel) -> float:
    q, q0 = coefficients
    return float(np.sum(q * (n.as_array() + 0.5)) + q0)


def expectation_quadratic(Q, basis: NormalModeBasis, n: FockLabel) -> float:
    """Expectation of a quadratic observable (1/2) u^T Q u in state |n1 n2 n3>.

    Exact for any symmetric Q: only the number-conserving ladder products
    survive the diagonal expectation.
    """
    return _expectation(_diagonal_coefficients(Q, basis), n)


def cos_theta(k: float) -> float:
    """Cosine of the precession-cone semiangle, (1 + k^2)^(-1/2)."""
    if k < 0:
        raise DomainError(f"field ratio k must be >= 0, got {k}")
    return 1.0 / math.sqrt(1.0 + k * k)


def _confined_spectrum(S: np.ndarray, context: str) -> ModeSpectrum:
    spec = classify(J6 @ S)
    if spec.classification is Classification.UNCONFINED:
        raise NoCyclicStatesError(f"no cyclic motions: {context} is Unconfined")
    if spec.classification is Classification.BOUNDARY:
        raise DegeneracyError(
            f"{context} is a Boundary point (degenerate or zero mode); "
            "evaluate at a k > 0 or omega > 0 offset"
        )
    return spec


def _dmodes_perturbative(S: np.ndarray, freqs: np.ndarray) -> np.ndarray:
    """First-order eigenvalue shifts from the right eigenvectors alone.

    The left eigenvector of a Hamiltonian matrix J S at +i*w is the transpose
    of J conj(v), so with dLambda/domega = -J S_L3 constant the shift is
    dw/domega = -Re(v^H S_L3 v) / Im(v^H J v), over the mode's symplectic form.
    """
    ev, V = np.linalg.eig(J6 @ S)
    V = V[:, [int(np.argmin(np.abs(ev - 1j * w))) for w in freqs]]
    return -np.sum(np.conj(V) * (_SL3 @ V), axis=0).real / _symplectic_forms(V)


def _dmodes_implicit(S: np.ndarray, freqs: np.ndarray) -> np.ndarray:
    """Implicit differentiation of the mu-cubic q(mu, omega) = 0 at mu = -w^2.

    The coefficients of ``spectral._mu_cubic`` are real polynomials in omega
    and S(omega + d) = S - d * S_L3, so one complex step d = i h gives their
    omega-derivatives exact to rounding; dw/domega = q_omega / (2 w q_mu).
    Over a stack S of shape (..., 6, 6) with freqs of shape (..., m); a NaN
    frequency gives a NaN derivative.
    """
    h = 1e-20
    c2, c1, c0 = (c[..., None] for c in _mu_cubic(*_stack_entries(S - 1j * h * _SL3)))
    mu = -freqs * freqs
    dq_domega = (c2.imag * mu * mu + c1.imag * mu + c0.imag) / h
    dq_dmu = 3.0 * mu * mu + 2.0 * c2.real * mu + c1.real
    return dq_domega / (2.0 * freqs * dq_dmu)


def _dmodes_finite_diff(S: np.ndarray, freqs: np.ndarray) -> np.ndarray:
    """Central differences of the tracked frequencies, Richardson-extrapolated once.

    One batched eigensolve covers the four shifted generators
    S(omega + d) = S - d * S_L3 at d = +-h and +-h/2; each frequency follows
    the nearest positive one of every shifted spectrum.
    """
    h = 1e-5
    steps = np.array([h, -h, h / 2.0, -h / 2.0])
    im = np.linalg.eigvals(J6 @ (S - steps[:, None, None] * _SL3)).imag
    dist = np.where(im[:, None] > 0, np.abs(im[:, None] - freqs[:, None]), np.inf)
    shifted = np.take_along_axis(im, dist.argmin(axis=-1), axis=-1)
    d_h = (shifted[0] - shifted[1]) / (2.0 * h)
    d_h2 = (shifted[2] - shifted[3]) / (2.0 * (h / 2.0))
    return (4.0 * d_h2 - d_h) / 3.0


_DMODE_DISPATCH = {
    "implicit": _dmodes_implicit,
    "perturbative": _dmodes_perturbative,
    "finite_diff": _dmodes_finite_diff,
}

DERIVATIVE_METHODS = tuple(_DMODE_DISPATCH)


def dmode_domega(
    params: SystemParams,
    binding: BindingPotential,
    method: str = "perturbative",
) -> np.ndarray:
    """d(freq_i)/d(omega) at fixed fields, for the three modes in tracked order.

    The finite-difference step is a fixed 1e-5 in omega (halved once for the
    Richardson step); the derivative is evaluated directly at the params'
    omega (omega = 0 included, where the shifted matrices remain exact).
    """
    if method not in DERIVATIVE_METHODS:
        raise DomainError(f"unknown derivative method {method!r}; use {DERIVATIVE_METHODS}")
    S = build_G(params, binding).S
    spec = _confined_spectrum(S, f"parameter point {params}")
    return _DMODE_DISPATCH[method](S, spec.freqs)


def _assemble_report(
    basis: NormalModeBasis,
    n: FockLabel,
    dfreq: np.ndarray,
    eq7: Optional[float],
) -> PhaseReport:
    energy = quasienergy(basis, n)
    eq8 = -2.0 * math.pi * float(np.sum(basis.signs * (n.as_array() + 0.5) * dfreq))
    if eq7 is not None and abs(eq7 - eq8) > 1e-6 * (1.0 + abs(eq8)):
        raise NumericalError(
            f"geometric-phase routes disagree: <L3> route {eq7:.12g} vs "
            f"derivative route {eq8:.12g}"
        )
    return PhaseReport(
        quasienergy=energy,
        aa_phase_eq7=eq7,
        aa_phase_eq8=eq8,
        dfreq_domega=tuple(float(d) for d in dfreq),
    )


def _cyclic_data(params: SystemParams, binding: BindingPotential):
    """Generator, spectrum, ladder basis, mode-frequency derivatives and the
    ladder coefficients of L3, shared by every Fock label at one rotating point."""
    if params.omega <= 0:
        raise DomainError("aa_phase requires omega > 0; use berry_phase_adiabatic at omega = 0")
    S = build_G(params, binding).S
    spec = _confined_spectrum(S, f"parameter point {params}")
    basis = normal_mode_basis(spec, S)
    dfreq = _dmodes_implicit(S, spec.freqs)
    return S, spec, basis, dfreq, _diagonal_coefficients(_SL3, basis)


def _cyclic_report(basis, n: FockLabel, dfreq, l3) -> PhaseReport:
    eq7 = 2.0 * math.pi * _expectation(l3, n)
    return _assemble_report(basis, n, dfreq, eq7)


def aa_phase(params: SystemParams, binding: BindingPotential, n: FockLabel) -> PhaseReport:
    """Geometric phase of the cyclic state |n1 n2 n3> at rotation frequency omega > 0.

    Both routes are computed: 2*pi <L3> through the ladder-basis expectation,
    and -2*pi sum eps_i (n_i + 1/2) d(freq_i)/d(omega) from the derivative of
    the quasienergy; their consistency is enforced. Valid at any rotation
    speed, not only adiabatically.
    """
    _, _, basis, dfreq, l3 = _cyclic_data(params, binding)
    return _cyclic_report(basis, n, dfreq, l3)


def berry_phase_adiabatic(k: float, binding: BindingPotential, n: FockLabel) -> PhaseReport:
    """Adiabatic limit of the geometric phase at field ratio k, omega = 0.

    Only the derivative route exists (no cyclic motion without rotation);
    the <L3> route is reported as absent. The derivative is evaluated
    directly at omega = 0 by implicit differentiation of the mu-cubic, not
    by small-omega extrapolation.
    """
    if k <= 0:
        raise DomainError(f"field ratio k must be > 0, got {k}")
    params = SystemParams(b=k, b0=1.0, w0=binding.w0, omega=0.0)
    S = build_G(params, binding).S
    spec = _confined_spectrum(S, f"static point k={k}")
    basis = normal_mode_basis(spec, S)
    return _assemble_report(basis, n, _dmodes_implicit(S, spec.freqs), eq7=None)


@dataclass(frozen=True)
class ResonanceShift:
    """First-order and exact resonance-peak shift under omega -> omega + delta.

    omega_p_linear applies the geometric-phase formula
    omega_p - (beta_n - beta_n') delta / (2 pi); omega_p_exact recomputes the
    quasienergy gap at the shifted rotation frequency with mode tracking.
    """

    omega_p: float
    omega_p_linear: float
    omega_p_exact: float
    beta_n: float
    beta_n_prime: float
    delta_omega: float


def resonance_shift(
    params: SystemParams,
    binding: BindingPotential,
    n: FockLabel,
    n_prime: FockLabel,
    delta_omega: float,
) -> ResonanceShift:
    """Shift of the resonance peak omega_p = E_n - E_n' under a small rotation change.

    Both labels share one classification, ladder basis, set of mode-frequency
    derivatives and set of L3 ladder coefficients; each label's report still
    enforces eq7 = eq8.
    """
    if not math.isfinite(delta_omega):
        raise DomainError(f"delta_omega must be finite, got {delta_omega}")
    S, spec, basis, dfreq, l3 = _cyclic_data(params, binding)
    report_n = _cyclic_report(basis, n, dfreq, l3)
    report_np = _cyclic_report(basis, n_prime, dfreq, l3)
    omega_p = report_n.quasienergy - report_np.quasienergy
    beta_n = report_n.aa_phase_eq8
    beta_np = report_np.aa_phase_eq8
    linear = omega_p - (beta_n - beta_np) * delta_omega / (2.0 * math.pi)

    S2 = S - delta_omega * _SL3
    spec2 = _confined_spectrum(S2, f"shifted point omega={params.omega + delta_omega}")
    perm = track_modes(spec, spec2)
    freqs2 = spec2.freqs[list(perm)]
    signs2 = spec2.krein_signs[list(perm)]
    if not np.array_equal(signs2, spec.krein_signs):
        raise NumericalError("Krein signs changed across the omega shift; reduce delta_omega")
    exact = float(
        np.sum(signs2 * freqs2 * (n.as_array() + 0.5))
        - np.sum(signs2 * freqs2 * (n_prime.as_array() + 0.5))
    )
    return ResonanceShift(
        omega_p=omega_p,
        omega_p_linear=linear,
        omega_p_exact=exact,
        beta_n=beta_n,
        beta_n_prime=beta_np,
        delta_omega=delta_omega,
    )

