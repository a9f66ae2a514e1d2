"""Quasienergies, cyclic-state geometric phases, and mode-frequency
derivatives with respect to the rotation frequency.

Two independent routes to the geometric phase of a cyclic state are
implemented: eq. 7, 2*pi <L3>, from one quadratic form per mode read off the
ladder basis (the weight Re(v^H S_L3 v) / |Im(v^H J v)| is -eps times the
perturbative derivative), and eq. 8, -2*pi times the omega-derivative of the
quasienergy at fixed fields. Their agreement (a Hellmann-Feynman identity for
the rotating-frame generator) is enforced as a runtime invariant. The
derivative route differentiates the closed-form mu-cubic (the characteristic
polynomial of Lambda = J S in mu = lambda^2) implicitly and reads no
eigenvectors, so it checks the <L3> route independently.

All omega-derivatives are taken at fixed physical fields (b, b0, w0); the
generator is affine in omega, so shifted coefficient matrices are formed
exactly as S - delta * S_L3. ``dmode_domega`` offers the mode-frequency
derivative by three independent routes: implicit differentiation of the
mu-cubic, first-order perturbation over each mode's symplectic form, and
Richardson-extrapolated finite differences.

The last point's record (``_point_record``) is kept, keyed on the params and
the binding's curvatures; errors are not kept and its arrays are read-only.
A point query (``classify`` of J S, then ``aa_phase``, then
``resonance_shift``) decomposes two matrices: the point's Lambda, whose
spectrum ``classify`` keeps for the record to reuse, and the shifted point's.
The reports' three-term sums are taken on Python floats in NumPy's order.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import DegeneracyError, DomainError, NoCyclicStatesError, NumericalError
from .model import (
    BindingPotential,
    J6,
    QuadraticForm,
    SystemParams,
    _generator,
    _mu_cubic,
    _read_only,
    build_G,
    build_L3_form,
)
from .spectral import (
    Classification,
    ModeSpectrum,
    NormalModeBasis,
    _forms,
    classify,
    normal_mode_basis,
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
    """Occupation numbers (n1, n2, n3) in ``classify``'s mode order."""

    n1: int
    n2: int
    n3: int

    def __post_init__(self):
        for n in (self.n1, self.n2, self.n3):
            if not 0 <= n <= sys.float_info.max or int(n) != n:
                raise DomainError(f"occupations must be integers from 0 to float max, got {self}")

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


def _sum3(t0: float, t1: float, t2: float) -> float:
    """t0 + t1 + t2 in the order of ``np.sum`` over three float64s, which starts
    from +0.0: the same bits, without the array."""
    return 0.0 + t0 + t1 + t2


def _occupation(n: FockLabel) -> list:
    """[n_i + 1/2] as Python floats."""
    return (n.as_array() + 0.5).tolist()


def _energy(signs, freqs, occupation) -> float:
    """sum_i eps_i * freq_i * occupation_i, over lists of Python numbers."""
    return _sum3(*(s * f * o for s, f, o in zip(signs, freqs, occupation)))


def quasienergy(basis: NormalModeBasis, n: FockLabel) -> float:
    """E = sum_i eps_i * freq_i * (n_i + 1/2)."""
    return _energy(basis.signs.tolist(), basis.freqs.tolist(), _occupation(n))


def _mode_weights(Q: np.ndarray, basis: NormalModeBasis) -> np.ndarray:
    """Per-mode weights q_i = Re((J c_i)^H Q (J c_i)) of (1/2) u^T Q u, read off
    the ladder rows c_i; equal to Re(v_i^H Q v_i) / |Im(v_i^H J v_i)|."""
    return _forms(Q, J6 @ basis.coeffs.T).real


def expectation_quadratic(Q, basis: NormalModeBasis, n: FockLabel) -> float:
    """Expectation of a quadratic observable (1/2) u^T Q u in state |n1 n2 n3>.

    <Q> = sum_i q_i (n_i + 1/2), q_i = Re(w_i^H Q w_i) with w_i = J c_i for the
    ladder rows c_i. Exact for any symmetric Q: u = sum_i i eps_i (conj(w_i) A_i
    - w_i A_i^dag), only A_i A_i^dag and A_i^dag A_i survive the diagonal
    expectation, and for either Krein sign they sum to q_i (n_i + 1/2). Q is
    checked as a QuadraticForm."""
    Q = (Q if isinstance(Q, QuadraticForm) else QuadraticForm(Q)).S
    return float(np.sum(_mode_weights(Q, basis) * (n.as_array() + 0.5)))


def cos_theta(k: float) -> float:
    """Cosine of the precession-cone semiangle, (1 + k^2)^(-1/2)."""
    if not k >= 0:
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
    return -_forms(_SL3, V).real / _forms(J6, V).imag


def _dmodes_implicit(S: np.ndarray, freqs: np.ndarray) -> np.ndarray:
    """Implicit differentiation of the mu-cubic q(mu, omega) = 0 at mu = -w^2.

    The coefficients of ``model._mu_cubic`` are real polynomials in omega
    and S(omega + d) = S - d * S_L3, so one complex step d = i h gives their
    omega-derivatives exact to rounding; dw/domega = q_omega / (2 w q_mu).
    Over a stack S of shape (..., 6, 6) with freqs of shape (..., m); a NaN
    frequency gives a NaN derivative.
    """
    h = 1e-20
    c2, c1, c0 = (c[..., None] for c in _mu_cubic(S - 1j * h * _SL3))
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
    """d(freq_i)/d(omega) at fixed fields, for the three modes in ``classify``'s order.

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
    l3: Optional[np.ndarray] = None,
) -> PhaseReport:
    """Report for label n: eq8 from the mu-cubic derivatives dfreq and, when the
    per-mode L3 weights l3 are given, eq7 = 2 pi sum l3_i (n_i + 1/2), checked
    against eq8. A phase or quasienergy that overflows raises DomainError."""
    occupation = _occupation(n)
    signs, dfreq = basis.signs.tolist(), dfreq.tolist()
    eq8 = -2.0 * math.pi * _sum3(*(s * o * d for s, o, d in zip(signs, occupation, dfreq)))
    eq7 = None if l3 is None else 2.0 * math.pi * _sum3(
        *(w * o for w, o in zip(l3.tolist(), occupation)))
    energy = _energy(signs, basis.freqs.tolist(), occupation)
    if not all(math.isfinite(x) for x in (eq8, energy, 0.0 if eq7 is None else eq7)):
        raise DomainError(
            f"occupations too large for a finite phase: quasienergy {energy}, "
            f"<L3> route {eq7}, derivative route {eq8}"
        )
    if eq7 is not None and abs(eq7 - eq8) > 1e-6 * (1.0 + abs(eq8)):
        raise NumericalError(
            f"geometric-phase routes disagree: <L3> route {eq7:.12g} vs "
            f"derivative route {eq8:.12g}"
        )
    return PhaseReport(
        quasienergy=energy,
        aa_phase_eq7=eq7,
        aa_phase_eq8=eq8,
        dfreq_domega=tuple(dfreq),
    )


@functools.lru_cache(maxsize=1)
def _point_record(params: SystemParams, curvatures: tuple):
    """Generator, spectrum, ladder basis, mode-frequency derivatives and the
    per-mode L3 weights at one point. The last point's is kept, keyed on the
    values S is built from, not on a binding; its arrays are ``_read_only``."""
    S = _read_only(_generator(params.b, params.b0, params.omega, curvatures))
    spec = _confined_spectrum(S, f"parameter point {params}")
    basis = normal_mode_basis(spec)
    basis = NormalModeBasis(*map(_read_only, (basis.coeffs, basis.signs, basis.freqs)))
    dfreq, l3 = map(_read_only, (_dmodes_implicit(S, spec.freqs), _mode_weights(_SL3, basis)))
    return S, spec, basis, dfreq, l3


def aa_phase(params: SystemParams, binding: BindingPotential, n: FockLabel) -> PhaseReport:
    """Geometric phase of the cyclic state |n1 n2 n3> at rotation frequency omega > 0.

    Both routes are computed: eq. 7, 2*pi sum l3_i (n_i + 1/2) with the
    per-mode L3 weight l3_i = Re(v_i^H S_L3 v_i) / |Im(v_i^H J v_i)|, and eq. 8,
    -2*pi sum eps_i (n_i + 1/2) d(freq_i)/d(omega) from the mu-cubic; their
    consistency is enforced. Valid at any rotation speed, not only adiabatically.
    The last point's record is kept, keyed on (params, binding.curvatures()).
    """
    if params.omega <= 0:
        raise DomainError("aa_phase requires omega > 0; use berry_phase_adiabatic at omega = 0")
    _, _, basis, dfreq, l3 = _point_record(params, tuple(binding.curvatures()))
    return _assemble_report(basis, n, dfreq, l3)


def berry_phase_adiabatic(k: float, binding: BindingPotential, n: FockLabel) -> PhaseReport:
    """Adiabatic limit of the geometric phase at field ratio k, omega = 0.

    Only the derivative route exists (no cyclic motion without rotation);
    the <L3> route is reported as absent. The derivative is evaluated
    directly at omega = 0 by implicit differentiation of the mu-cubic, not
    by small-omega extrapolation. Shares ``aa_phase``'s last-point record,
    keyed on (params at omega = 0, binding.curvatures()).
    """
    if k <= 0:
        raise DomainError(f"field ratio k must be > 0, got {k}")
    params = SystemParams(b=k, b0=1.0, w0=binding.w0, omega=0.0)
    _, _, basis, dfreq, _ = _point_record(params, tuple(binding.curvatures()))
    return _assemble_report(basis, n, dfreq)


@dataclass(frozen=True)
class ResonanceShift:
    """First-order and exact resonance-peak shift under omega -> omega + delta.

    omega_p_linear applies the geometric-phase formula
    omega_p - (beta_n - beta_n') delta / (2 pi); omega_p_exact recomputes the
    quasienergy gap at the shifted rotation frequency, each mode continued by
    the shifted frequency nearest its first-order prediction.
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

    Both labels share ``aa_phase``'s last-point record, keyed on (params,
    binding.curvatures()): one classification, ladder basis, set of
    mode-frequency derivatives and set of per-mode L3 weights. Each label's
    report still enforces eq7 = eq8; the shifted spectrum is computed anew.

    Mode i continues as the shifted frequency nearest freq_i + delta *
    dfreq_i. The pairing raises DegeneracyError unless it is one-to-one and
    every prediction lies within half the smallest shifted gap; a Krein sign
    that changes under it (opposite-sign modes that collide and re-separate
    within delta) raises NumericalError.
    """
    if not math.isfinite(delta_omega):
        raise DomainError(f"delta_omega must be finite, got {delta_omega}")
    if params.omega <= 0:
        raise DomainError("resonance_shift requires omega > 0")
    S, spec, basis, dfreq, l3 = _point_record(params, tuple(binding.curvatures()))
    report_n = _assemble_report(basis, n, dfreq, l3)
    report_np = _assemble_report(basis, n_prime, dfreq, l3)
    omega_p = report_n.quasienergy - report_np.quasienergy
    beta_n = report_n.aa_phase_eq8
    beta_np = report_np.aa_phase_eq8
    linear = omega_p - (beta_n - beta_np) * delta_omega / (2.0 * math.pi)

    S2 = S - delta_omega * _SL3
    spec2 = _confined_spectrum(S2, f"shifted point omega={params.omega + delta_omega}")
    shifted = spec2.freqs
    pred = spec.freqs + delta_omega * dfreq
    miss = np.abs(pred[:, None] - shifted)
    perm = miss.argmin(axis=1)
    half_gap = np.abs(np.diff(shifted)).min() / 2.0
    if len(set(perm.tolist())) < 3 or miss[range(3), perm].max() >= half_gap:
        raise DegeneracyError(
            f"ambiguous mode pairing: predicted frequencies {pred} against shifted "
            f"{shifted}, half the smallest shifted gap {half_gap:.3g}; reduce delta_omega"
        )
    freqs2 = shifted[perm]
    signs2 = spec2.krein_signs[perm]
    if not np.array_equal(signs2, spec.krein_signs):
        raise NumericalError("Krein signs changed across the omega shift; reduce delta_omega")
    signs2, freqs2 = signs2.tolist(), freqs2.tolist()
    exact = _energy(signs2, freqs2, _occupation(n)) - _energy(signs2, freqs2, _occupation(n_prime))
    if not all(math.isfinite(x) for x in (omega_p, linear, exact)):
        raise DomainError(
            f"occupations too large for a finite shift: omega_p {omega_p}, "
            f"linear {linear}, exact {exact}"
        )
    return ResonanceShift(
        omega_p=omega_p,
        omega_p_linear=linear,
        omega_p_exact=exact,
        beta_n=beta_n,
        beta_n_prime=beta_np,
        delta_omega=delta_omega,
    )

