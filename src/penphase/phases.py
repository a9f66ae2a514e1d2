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
The reports' three-term sums are taken on Python floats in NumPy's order,
and ``resonance_shift`` pairs the modes on Python floats. The record's
implicit derivatives run on Python numbers too: ``model._mu_cubic`` reads one
matrix's six entries as Python complexes, and ``_dmode`` takes the three
frequencies one at a time as floats. A stack (the Fig. 2 curves) runs the
same formulas on arrays. The record's ladder basis picks each row's pivot in
a Python loop (``spectral.normal_mode_basis``).
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
    _finite,
    _float,
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
            if not (_finite("occupations", n) and 0 <= n <= sys.float_info.max) or int(n) != n:
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
    return [float(n.n1) + 0.5, float(n.n2) + 0.5, float(n.n3) + 0.5]


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
    if not (math.isfinite(_float("field ratio k", k)) and k >= 0):
        raise DomainError(f"field ratio k must be finite and >= 0, got {k}")
    return 1.0 / math.sqrt(1.0 + k * k)


def _confined_spectrum(S: np.ndarray, context) -> ModeSpectrum:
    """classify(J S), raising unless Confined; context() names the point in
    the message, and is called only to raise."""
    spec = classify(J6 @ S)
    if spec.classification is Classification.UNCONFINED:
        raise NoCyclicStatesError(f"no cyclic motions: {context()} is Unconfined")
    if spec.classification is Classification.BOUNDARY:
        raise DegeneracyError(
            f"{context()} is a Boundary point (degenerate or zero mode); "
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


#: The complex omega-step of ``_omega_cubic``.
_STEP = 1e-20


def _omega_cubic(S: np.ndarray):
    """The mu-cubic's coefficients (c2, c1, c0) of ``model._mu_cubic`` at the
    complex step S(omega + i h) = S - i h S_L3, h = _STEP, over a stack S of
    shape (..., 6, 6), or as Python complexes for one 6x6 S.

    The coefficients are real polynomials in omega, so their real parts are
    the coefficients at S (the step enters them as h^2, below rounding) and
    their imaginary parts over h their omega-derivatives, exact to rounding.
    """
    return _mu_cubic(S - 1j * _STEP * _SL3)


def _dmode(c2, c1, c0, w):
    """Implicit differentiation of the mu-cubic q(mu, omega) = 0 at mu = -w^2:
    dw/domega = q_omega / (2 w q_mu), from ``_omega_cubic``'s coefficients;
    one formula for Python numbers and for arrays that broadcast."""
    mu = -w * w
    dq_domega = (c2.imag * mu * mu + c1.imag * mu + c0.imag) / _STEP
    dq_dmu = 3.0 * mu * mu + 2.0 * c2.real * mu + c1.real
    return dq_domega / (2.0 * w * dq_dmu)


def _dmodes_cubic(cubic, freqs: np.ndarray) -> np.ndarray:
    """``_dmode`` at freqs of shape (..., m), from ``_omega_cubic``'s
    coefficients of shape (...); a NaN frequency gives a NaN derivative.
    One matrix's coefficients are Python complexes, and its frequencies are
    taken one at a time as Python floats."""
    if isinstance(cubic[0], complex):
        return np.array([_dmode(*cubic, w) for w in freqs.tolist()])
    return _dmode(*(c[..., None] for c in cubic), freqs)


def _dmodes_implicit(S: np.ndarray, freqs: np.ndarray) -> np.ndarray:
    """The implicit derivative route over one 6x6 S with freqs of shape (m,),
    or a stack S of shape (..., 6, 6) with freqs of shape (..., m):
    ``_dmodes_cubic`` of ``_omega_cubic(S)``. A matrix alone and the same
    matrix in a stack can differ in the last bits: NumPy's loops over complex
    arrays may fuse a product's multiply and add (they do with AVX-512),
    where Python's complexes round each step. The Fig. 2 curves
    (``sweep.curve_fig2``) evaluate the cubic once and read both the
    certificate's coefficients and the derivatives from it."""
    return _dmodes_cubic(_omega_cubic(S), freqs)


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
    spec = _confined_spectrum(S, lambda: f"parameter point {params}")
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
    spec = _confined_spectrum(S, lambda: f"parameter point {params}")
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
    # a k that is not finite is left to SystemParams' range check
    if _finite("field ratio k", k) and k <= 0:
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
    if not math.isfinite(_float("delta_omega", delta_omega)):
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
    spec2 = _confined_spectrum(S2, lambda: f"shifted point omega={params.omega + delta_omega}")
    shifted = [m.freq for m in spec2.modes]
    pred = [m.freq + delta_omega * d for m, d in zip(spec.modes, dfreq.tolist())]
    perm = [min(range(3), key=lambda j: abs(p - shifted[j])) for p in pred]
    half_gap = min(abs(shifted[1] - shifted[0]), abs(shifted[2] - shifted[1])) / 2.0
    if len(set(perm)) < 3 or max(abs(p - shifted[j]) for p, j in zip(pred, perm)) >= half_gap:
        raise DegeneracyError(
            f"ambiguous mode pairing: predicted frequencies {np.array(pred)} against "
            f"shifted {np.array(shifted)}, half the smallest shifted gap {half_gap:.3g}; "
            "reduce delta_omega"
        )
    freqs2 = [shifted[j] for j in perm]
    signs2 = [spec2.modes[j].krein_sign for j in perm]
    if signs2 != [m.krein_sign for m in spec.modes]:
        raise NumericalError("Krein signs changed across the omega shift; reduce delta_omega")
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

