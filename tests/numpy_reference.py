"""The NumPy formulations that the point query's bookkeeping on Python floats
replaced, written out as references: ``classify``'s Confined branch, the
eigenvalue rule, the occupations and ``resonance_shift``'s pairing. Each must
give the same bits as the package, or the same error with the same message.
``certify_cells`` is the grid certificate before it split the cells on the
discriminant's sign: both root formulas on every cell, one kept per cell,
and the zero-mode rule's quadratic on every cell, kept where c0 == 0.
``curve_fig2`` is the Fig. 2 curve with every k through the batched
eigensolve, its class and frequencies from eig alone.
``dmodes_implicit`` is the implicit derivative route with the mu-cubic's
entries read as arrays and the frequencies broadcast, for one matrix as for
a stack, and ``normal_mode_basis`` the ladder basis with its pivot, phase
and commutator check on arrays.

``aa_phase`` and ``resonance_shift`` here rebuild a point's record without
the package's memos: the spectrum from ``classify`` below, the ladder basis
from ``normal_mode_basis`` below with its signs and frequencies taken from
the spectrum's arrays, the derivatives from ``dmodes_implicit`` below, and
the reports summed with ``np.sum`` over the NumPy occupations.
"""

import math
from typing import Optional, Sequence

import numpy as np

from penphase import (
    Classification,
    DegeneracyError,
    DomainError,
    J6,
    Mode,
    ModeSpectrum,
    NoCyclicStatesError,
    NormalModeBasis,
    NumericalError,
    SystemParams,
)
from penphase.model import BINDINGS, _check_range, _generator
from penphase.phases import (
    PhaseReport,
    ResonanceShift,
    _SL3,
    _STEP,
    _mode_weights,
    cos_theta,
)
from penphase.spectral import _forms, _gap_tol, _simple_imaginary
from penphase.sweep import CurveTable, _eig_classes


def rule(ev, scale, gap_floor=0.0):
    """The eigenvalue rule's masks (unconfined, separated) with two tolerance
    calls and ``np.diff``."""
    tau = _gap_tol(scale, gap_floor)
    gaps = np.diff(np.sort(ev.imag, axis=-1), axis=-1).min(axis=-1)
    unconfined = np.abs(ev.real).max(axis=-1) > _gap_tol(scale)
    return unconfined, (gaps > tau) & (np.abs(ev).min(axis=-1) > tau)


def certify_cells(c2, c1, c0, scale, gap_floor):
    """``sweep._certify_cells``' masks (confined, unconfined, boundary) with
    the trigonometric and Cardano roots of every cell and ``np.where``. Where
    c0 == 0 the cubic is mu (mu^2 + c2 mu + c1): Unconfined where a root of
    that quadratic (both real roots, or the pair) has (Re lambda)^2 beyond
    the pointwise tolerance squared, else Boundary."""
    slack = 1e-6 * (1.0 + scale)
    shift = c2 / 3.0
    p = c1 - c2 * shift
    q = c0 - shift * (c1 - 2.0 * shift * shift)
    half_q, third_p = 0.5 * q, p / 3.0
    disc = half_q * half_q + third_p * third_p * third_p
    with np.errstate(invalid="ignore", divide="ignore"):
        m = 2.0 * np.sqrt(-third_p)
        cos = np.cos(np.arccos(3.0 * q / (p * m)) / 3.0)
        half_m = 0.5 * m
        mid, side = -half_m * cos - shift, half_m * np.sqrt(3.0 * (1.0 - cos * cos))
        mu0 = m * cos - shift
        w0, w1, w2 = (np.sqrt(np.maximum(-mu, 0.0)) for mu in (mu0, mid + side, mid - side))
        separation = np.minimum(np.minimum(w1 - w0, w2 - w1), w0)
        u = np.cbrt(-half_q - np.copysign(np.sqrt(disc), q))
        v = -p / (3.0 * u)
        x, y = -0.5 * (u + v) - shift, 0.5 * math.sqrt(3.0) * (u - v)
        real = disc <= 0.0
        re_squared = np.where(
            real, mu0, np.maximum(u + v - shift, 0.5 * (np.sqrt(x * x + y * y) + x))
        )
        d = c2 * c2 - 4.0 * c1
        h = -0.5 * (c2 + np.copysign(np.sqrt(d), c2))
        pair_sq = 0.5 * (np.sqrt(c1) - 0.5 * c2)
        deflated = np.where(d < 0.0, pair_sq, np.maximum(h, c1 / h))
    zero = c0 == 0.0
    tol = _gap_tol(scale)
    tau = _gap_tol(scale, gap_floor)
    zero_unconfined = deflated > tol * tol
    confined = ~zero & real & (separation > tau + slack)
    unconfined = np.where(zero, zero_unconfined, re_squared > slack * slack)
    boundary = np.where(
        zero, ~zero_unconfined, real & (separation > tol + slack) & (separation < tau - slack)
    )
    return confined, unconfined, boundary


def classify(lam) -> ModeSpectrum:
    """``spectral.classify`` without its memo: residuals by ``np.linalg.norm``,
    forms by ``_forms(J6, V)``, the guard against 1e-10 |v|^2."""
    if np.iscomplexobj(lam):
        raise DomainError("dynamical matrix must be real")
    L = np.asarray(lam, dtype=float)
    if L.shape != (6, 6):
        raise DomainError(f"expected a 6x6 dynamical matrix, got shape {L.shape}")
    if not np.all(np.isfinite(L)):
        raise DomainError("dynamical matrix must be finite")
    ev, V = np.linalg.eig(L)
    scale = float(np.linalg.norm(L))
    unconfined, separated = rule(ev, scale)
    if unconfined:
        return ModeSpectrum(Classification.UNCONFINED, (), ev)
    if not separated:
        return ModeSpectrum(Classification.BOUNDARY, (), ev)
    positive = np.flatnonzero(ev.imag > 0)
    if len(positive) != 3:
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


def mu_cubic(S):
    """``model._mu_cubic`` with every entry read as an array of shape (...),
    0-d for one matrix."""
    g0, g2 = S[..., 2, 4], S[..., 1, 3]
    k00, k11, k22, k02 = S[..., 0, 0], S[..., 1, 1], S[..., 2, 2], S[..., 0, 2]
    g00, g22 = g0 * g0, g2 * g2
    gg = g00 + g22
    m00, m11, m22 = k00 + g00 - gg, k11 - gg, k22 + g22 - gg
    m02 = k02 + g0 * g2
    minor0, minor1, minor2 = m11 * m22, m00 * m22 - m02 * m02, m00 * m11
    c2 = m00 + m11 + m22 + 4.0 * gg
    c1 = minor0 + minor1 + minor2 + 4.0 * (g00 * m00 + g22 * m22 + 2.0 * (g0 * g2 * m02))
    c0 = m00 * minor0 - m02 * (m11 * m02)
    return c2, c1, c0


def dmodes_implicit(S, freqs):
    """``phases._dmodes_implicit`` on arrays: the complex-step mu-cubic of
    ``mu_cubic``, its coefficients broadcast against freqs of shape (..., m)."""
    c2, c1, c0 = (c[..., None] for c in mu_cubic(S - 1j * _STEP * _SL3))
    mu = -freqs * freqs
    dq_domega = (c2.imag * mu * mu + c1.imag * mu + c0.imag) / _STEP
    dq_dmu = 3.0 * mu * mu + 2.0 * c2.real * mu + c1.real
    return dq_domega / (2.0 * freqs * dq_dmu)


def normal_mode_basis(spectrum: ModeSpectrum) -> NormalModeBasis:
    """``spectral.normal_mode_basis`` with the forms' square roots, each row's
    pivot (``np.argmax`` over a mask of the magnitudes) and the commutator
    deviations (``np.maximum``, ``np.unravel_index``) on arrays."""
    if spectrum.classification is not Classification.CONFINED:
        raise DomainError("normal-mode basis requires a Confined spectrum")
    V = np.stack([m.eigvec for m in spectrum.modes], axis=1)
    JV = J6 @ V
    (g00, g01, g02), (g10, g11, g12), (g20, g21, g22) = (np.conj(V.T) @ JV).tolist()
    c01, c02 = g01 / g00, g02 / g00
    f1 = g11 - c01 * g10
    c12 = (g12 - c01.conjugate() * g02) / f1
    a = c02 - c12 * c01
    T = np.array([[1.0, -c01, -a], [0.0, 1.0, -c12], [0.0, 0.0, 1.0]])
    forms = np.array([g00.imag, f1.imag, (g22 - a * g20 - c12 * g21).imag])
    rows = (-1j * (JV @ T) / np.sqrt(np.abs(forms))).T
    size = np.abs(rows)
    pivot = np.argmax(size >= (1.0 - 1e-9) * size.max(axis=1, keepdims=True), axis=1)
    largest = rows[range(3), pivot]
    basis = NormalModeBasis(
        coeffs=rows * (np.conj(largest) / np.abs(largest))[:, None],
        signs=spectrum.krein_signs,
        freqs=spectrum.freqs,
    )
    C, D = basis.ladder_commutators()
    C[range(3), range(3)] -= basis.signs
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


def occupation(n) -> np.ndarray:
    """[n_i + 1/2] from the label's float array."""
    return n.as_array() + 0.5


def basis(spec: ModeSpectrum) -> NormalModeBasis:
    """The ladder basis with its signs as ``krein_signs.astype(int)`` and its
    frequencies as the spectrum's array."""
    coeffs = normal_mode_basis(spec).coeffs
    return NormalModeBasis(coeffs=coeffs, signs=spec.krein_signs.astype(int), freqs=spec.freqs)


def _confined(S, context):
    spec = classify(J6 @ S)
    if spec.classification is Classification.UNCONFINED:
        raise NoCyclicStatesError(f"no cyclic motions: {context} is Unconfined")
    if spec.classification is Classification.BOUNDARY:
        raise DegeneracyError(
            f"{context} is a Boundary point (degenerate or zero mode); "
            "evaluate at a k > 0 or omega > 0 offset"
        )
    return spec


def _record(params: SystemParams, binding):
    S = _generator(params.b, params.b0, params.omega, binding.curvatures())
    spec = _confined(S, f"parameter point {params}")
    b = basis(spec)
    return S, spec, b, dmodes_implicit(S, spec.freqs), _mode_weights(_SL3, b)


def report(b: NormalModeBasis, n, dfreq, l3) -> PhaseReport:
    """``phases._assemble_report`` with eq7 from l3, its three-term sums by
    ``np.sum``."""
    occ = occupation(n)
    with np.errstate(over="ignore", invalid="ignore"):
        eq8 = -2.0 * math.pi * float(np.sum(b.signs * occ * dfreq))
        eq7 = 2.0 * math.pi * float(np.sum(l3 * occ))
        energy = float(np.sum(b.signs * b.freqs * occ))
    if not all(math.isfinite(x) for x in (eq8, energy, eq7)):
        raise DomainError(
            f"occupations too large for a finite phase: quasienergy {energy}, "
            f"<L3> route {eq7}, derivative route {eq8}"
        )
    if abs(eq7 - eq8) > 1e-6 * (1.0 + abs(eq8)):
        raise NumericalError(
            f"geometric-phase routes disagree: <L3> route {eq7:.12g} vs "
            f"derivative route {eq8:.12g}"
        )
    return PhaseReport(energy, eq7, eq8, tuple(dfreq.tolist()))


def aa_phase(params, binding, n) -> PhaseReport:
    """``phases.aa_phase`` at omega > 0 from a fresh record."""
    _, _, b, dfreq, l3 = _record(params, binding)
    return report(b, n, dfreq, l3)


def pairing(spec: ModeSpectrum, dfreq, delta_omega, spec2: ModeSpectrum):
    """(signs2, freqs2) as arrays: the shifted modes in ``spec``'s order, each
    the frequency nearest its first-order prediction, by a 3x3 miss matrix."""
    shifted = spec2.freqs
    pred = spec.freqs + delta_omega * dfreq
    miss = np.abs(pred[:, None] - shifted)
    perm = miss.argmin(axis=1)
    half_gap = np.abs(np.diff(shifted)).min() / 2.0
    if len(set(perm.tolist())) < 3 or miss[range(3), perm].max() >= half_gap:
        raise DegeneracyError(
            f"ambiguous mode pairing: predicted frequencies {pred} against "
            f"shifted {shifted}, half the smallest shifted gap {half_gap:.3g}; "
            "reduce delta_omega"
        )
    signs2 = spec2.krein_signs[perm]
    if not np.array_equal(signs2, spec.krein_signs):
        raise NumericalError("Krein signs changed across the omega shift; reduce delta_omega")
    return signs2, shifted[perm]


def resonance_shift(params, binding, n, n_prime, delta_omega) -> ResonanceShift:
    """``phases.resonance_shift`` at finite delta_omega and omega > 0 from a
    fresh record."""
    S, spec, b, dfreq, l3 = _record(params, binding)
    report_n, report_np = report(b, n, dfreq, l3), report(b, n_prime, dfreq, l3)
    omega_p = report_n.quasienergy - report_np.quasienergy
    beta_n, beta_np = report_n.aa_phase_eq8, report_np.aa_phase_eq8
    linear = omega_p - (beta_n - beta_np) * delta_omega / (2.0 * math.pi)
    spec2 = _confined(S - delta_omega * _SL3, f"shifted point omega={params.omega + delta_omega}")
    signs2, freqs2 = pairing(spec, dfreq, delta_omega, spec2)
    with np.errstate(over="ignore", invalid="ignore"):
        exact = (float(np.sum(signs2 * freqs2 * occupation(n)))
                 - float(np.sum(signs2 * freqs2 * occupation(n_prime))))
    if not all(math.isfinite(x) for x in (omega_p, linear, exact)):
        raise DomainError(
            f"occupations too large for a finite shift: omega_p {omega_p}, "
            f"linear {linear}, exact {exact}"
        )
    return ResonanceShift(omega_p, linear, exact, beta_n, beta_np, delta_omega)


def curve_fig2(k_grid: Optional[Sequence[float]] = None, binding: str = "penning") -> CurveTable:
    """Derivative curves at omega = 0 on the k-grid (default [0.01, 1.0], 500 points).

    `binding` names a kind in ``model.BINDINGS``, built at w0 = 4/3. For the
    loop binding, modes 2 and 3 exist only below the critical ratio; their
    columns are absent (never fabricated) beyond it, and dw1 follows the
    fastest mode that stays simple and purely imaginary. The oscillator
    binding keeps all three modes for every k. All k share one generator
    stack, one batched eigensolve and one implicit mu-cubic derivative.
    """
    if k_grid is None:
        ks = np.linspace(0.01, 1.0, 500)
    else:
        ks = np.asarray(list(k_grid), dtype=float)
        if ks.ndim != 1 or len(ks) == 0:
            raise DomainError("k grid must be a non-empty 1-D sequence")
        _check_range("k grid", ks)
        if np.any(ks <= 0):
            raise DomainError("k grid values must be > 0")
        if np.any(np.diff(ks) <= 0):
            raise DomainError("k grid must be strictly increasing")
    if binding not in BINDINGS:
        raise DomainError(f"unknown binding kind {binding!r}")
    curvatures = BINDINGS[binding](4.0 / 3.0).curvatures()
    S = _generator(ks, 1.0, 0.0, curvatures, ks.shape)
    ev, scale, codes = _eig_classes(S)
    stable23 = codes == "C"
    survivor = np.where(_simple_imaginary(ev, scale), ev.imag, 0.0).max(axis=-1)
    freqs = np.full((len(ks), 3), np.nan)
    # the three positive frequencies, descending
    freqs[stable23] = np.sort(ev[stable23].imag, axis=-1)[:, :2:-1]
    alone = ~stable23 & (survivor > 0)
    freqs[alone, 0] = survivor[alone]
    dw = dmodes_implicit(S, freqs)
    ct = np.array([cos_theta(k) for k in ks])
    return CurveTable(k=ks, cos_theta=ct, dw=dw, stable23=stable23)
