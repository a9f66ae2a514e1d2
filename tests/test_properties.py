"""Property tests: one generator assembly for points and batches, one
confinement rule for the pointwise and grid classifiers, grid cells
certified from the mu-cubic labelled as the eigenvalue rule labels them, the
mu-cubic's implicit derivative equal to the determinant-based one, and the
geometric phases' invariance under a change of time unit."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from penphase import (
    J6,
    Classification,
    IsotropicOscillator,
    PenningQuadrupole,
    SystemParams,
    aa_phase,
    build_G,
    classify,
)
from penphase.model import _generator, build_L3_form
from penphase.phases import FockLabel, _dmodes_implicit
from penphase.spectral import DEFAULT_TOLERANCES, Tolerances, _separated, _unconfined
from penphase.sweep import _classify_grid

frequency = st.floats(min_value=0.0, max_value=10.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=100, deadline=None)
@given(
    points=st.lists(st.tuples(frequency, frequency, frequency, frequency), max_size=8),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    binding_cls=st.sampled_from([PenningQuadrupole, IsotropicOscillator]),
)
def test_broadcast_generator_matches_build_G(points, seed, binding_cls):
    # drawn points give the edge values; the uniform block gives the generic
    # floats where a scalar x**2 and an array square can differ in the last bit
    uniform = np.random.default_rng(seed).uniform(0.0, 10.0, (128, 4))
    table = np.vstack([np.reshape(points, (-1, 4)), uniform])
    b, b0, w0, omega = table.T
    stack = _generator(b, b0, omega, binding_cls(w0).curvatures(), b.shape)
    for i, (bi, b0i, w0i, omegai) in enumerate(table.tolist()):
        params = SystemParams(b=bi, b0=b0i, w0=w0i, omega=omegai)
        assert np.array_equal(stack[i], build_G(params, binding_cls(w0i)).S)


def _expected_cell(alpha, alpha0, gap_floor):
    """Pointwise class of a loop cell, or None within the grid's margin.

    Outside the margin the rule is decided with room to spare on both
    classifiers: |Re| far from the real-part tolerance, and the smallest gap
    and |lambda| clear of gap_floor (below it the grid reports Boundary where
    the pointwise rule may still certify Confined).
    """
    L = J6 @ build_G(SystemParams.penning_loop(b0=alpha0, b=alpha, omega=1.0)).S
    spec = classify(L)
    ev = spec.raw_eigenvalues
    scale = np.linalg.norm(L)
    re_tol, gap_tol = DEFAULT_TOLERANCES.re_tol(scale), DEFAULT_TOLERANCES.gap_tol(scale)
    remax = np.abs(ev.real).max()
    if remax > 2.0 * re_tol:
        return "U"
    if remax > 0.5 * re_tol:
        return None
    separation = min(np.diff(np.sort(ev.imag)).min(), np.abs(ev).min())
    if separation > 2.0 * max(gap_tol, gap_floor):
        return "C" if spec.classification is Classification.CONFINED else None
    if separation < 0.5 * gap_tol:
        return "B"
    return None


grid_axis = st.lists(st.floats(min_value=0.0, max_value=3.0), min_size=1, max_size=6)


@settings(max_examples=60, deadline=None)
@given(alphas=grid_axis, alpha0s=grid_axis, gap_floor=st.sampled_from([0.0, 0.005, 0.02]))
def test_grid_agrees_with_pointwise_outside_margin(alphas, alpha0s, gap_floor):
    alphas, alpha0s = np.array(alphas), np.array(alpha0s)
    codes = _classify_grid(alphas, alpha0s, gap_floor)
    assert codes.shape == (len(alpha0s), len(alphas))
    for i, alpha0 in enumerate(alpha0s):
        for j, alpha in enumerate(alphas):
            want = _expected_cell(alpha, alpha0, gap_floor)
            if want is not None:
                assert codes[i, j] == want, (alpha, alpha0, gap_floor)


def _eig_only_grid(alphas, alpha0s, gap_floor):
    """The grid classifier before cubic certification: every cell through
    the batched eigensolver and the eigenvalue rule."""
    tol = Tolerances(gap_floor=gap_floor)
    b0, b = (x.ravel() for x in np.meshgrid(alpha0s, alphas, indexing="ij"))
    Lam = J6 @ _generator(b, b0, 1.0, PenningQuadrupole(4.0 * b0 / 3.0).curvatures(), b.shape)
    ev = np.linalg.eigvals(Lam)
    scale = np.sqrt((Lam**2).sum(axis=(-2, -1)))
    confined = np.where(_separated(ev, scale, tol), "C", "B")
    codes = np.where(_unconfined(ev, scale, tol), "U", confined)
    return codes.reshape(len(alpha0s), len(alphas))


@st.composite
def grid_windows(draw):
    """A window inside [0, 10]^2 with 20 to 200 steps per axis."""
    edges = []
    for _ in range(2):
        lo = draw(st.floats(min_value=0.0, max_value=9.9))
        hi = draw(st.floats(min_value=lo + 0.05, max_value=10.0))
        edges.append((lo, hi, draw(st.integers(min_value=20, max_value=200))))
    return edges


@settings(max_examples=25, deadline=None)
@given(window=grid_windows(), floored=st.booleans())
def test_certified_grid_matches_eig_only_rule(window, floored):
    (a_lo, a_hi, a_steps), (a0_lo, a0_hi, a0_steps) = window
    alphas = np.linspace(a_lo, a_hi, a_steps + 1)
    alpha0s = np.linspace(a0_lo, a0_hi, a0_steps + 1)
    max_step = max((a_hi - a_lo) / a_steps, (a0_hi - a0_lo) / a0_steps)
    gap_floor = 4.0 * max_step if floored else 0.0
    codes = _classify_grid(alphas, alpha0s, gap_floor)
    assert np.array_equal(codes, _eig_only_grid(alphas, alpha0s, gap_floor))


_SL3 = build_L3_form().S


def _char_det(L, lam):
    return complex(np.linalg.det(lam * np.eye(6) - L))


def _circle_derivative(f, n, radius):
    """Exact first Taylor coefficient of a polynomial of degree < n.

    Discrete orthogonality of the n-th roots of unity makes
    (1/(n r)) sum_k f(r w_k) conj(w_k) exact, with no aliasing.
    """
    thetas = 2.0 * np.pi * np.arange(n) / n
    nodes = radius * np.exp(1j * thetas)
    vals = np.array([f(z) for z in nodes])
    return complex(np.sum(vals * np.exp(-1j * thetas)) / (n * radius))


def _circle_node_implicit(S, freqs):
    """The implicit route before the mu-cubic: both partial derivatives of
    det(lambda I - Lambda(omega)), degree 6 in lambda and <= 4 in omega,
    from 6x6 determinants at circle nodes."""
    L = J6 @ S
    out = np.empty(len(freqs))
    for m, w in enumerate(freqs):
        lam0 = 1j * w
        dD_dlam = _circle_derivative(
            lambda z: _char_det(L, lam0 + z), 7, 0.5 * (1.0 + abs(lam0))
        )
        dD_domega = _circle_derivative(
            lambda d: _char_det(J6 @ (S - d * _SL3), lam0), 5, 0.5
        )
        out[m] = float((-dD_domega / dD_dlam).imag)
    return out


field = st.floats(min_value=0.0, max_value=3.0)


@settings(max_examples=100, deadline=None)
@given(
    b=field,
    b0=field,
    w0=field,
    omega=st.one_of(st.just(0.0), st.just(1.0), st.floats(min_value=0.0, max_value=2.0)),
    binding_cls=st.sampled_from([PenningQuadrupole, IsotropicOscillator]),
)
def test_implicit_route_matches_circle_node_reference(b, b0, w0, omega, binding_cls):
    S = build_G(SystemParams(b=b, b0=b0, w0=w0, omega=omega), binding_cls(w0)).S
    spec = classify(J6 @ S)
    assume(spec.classification is Classification.CONFINED)
    gaps = np.diff(np.sort(spec.raw_eigenvalues.imag))
    assume(min(gaps.min(), spec.freqs.min()) >= 0.05)
    got = _dmodes_implicit(S, spec.freqs)
    want = _circle_node_implicit(S, spec.freqs)
    # relative in the (1 + |d|) sense of the derivative bundle's spread
    assert np.all(np.abs(got - want) <= 1e-12 * (1.0 + np.abs(want)))


def _loop_point(alpha, alpha0, c=1.0):
    """Loop parameters at (alpha, alpha0), omega = 1, every frequency times c."""
    return SystemParams.penning_loop(b0=c * alpha0, b=c * alpha, omega=c)


@settings(max_examples=200, deadline=None)
@given(
    alpha=field,
    alpha0=field,
    n=st.tuples(*[st.integers(min_value=0, max_value=3)] * 3),
    c=st.floats(min_value=0.1, max_value=10.0),
)
def test_aa_phase_invariant_under_time_unit(alpha, alpha0, n, c):
    params = _loop_point(alpha, alpha0)
    spec = classify(J6 @ build_G(params).S)
    assume(spec.classification is Classification.CONFINED)
    gaps = np.diff(np.sort(spec.raw_eigenvalues.imag))
    assume(min(gaps.min(), spec.freqs.min()) >= 0.05)
    label = FockLabel(*n)
    # aa_phase raises unless the <L3> route (eq7) equals the derivative route (eq8)
    report = aa_phase(params, PenningQuadrupole(params.w0), label)
    scaled_params = _loop_point(alpha, alpha0, c)
    scaled = aa_phase(scaled_params, PenningQuadrupole(scaled_params.w0), label)
    # the phases are dimensionless; the quasienergy is a frequency
    for beta, beta_c in ((report.aa_phase_eq7, scaled.aa_phase_eq7),
                         (report.aa_phase_eq8, scaled.aa_phase_eq8)):
        assert abs(beta_c - beta) <= 1e-9 * (1.0 + abs(beta))
    energy = c * report.quasienergy
    assert abs(scaled.quasienergy - energy) <= 1e-9 * (1.0 + abs(energy))
