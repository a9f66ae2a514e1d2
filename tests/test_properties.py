"""Property tests: one generator assembly for points and batches, one
confinement rule for the pointwise and grid classifiers, and grid cells
certified from the mu-cubic labelled as the eigenvalue rule labels them."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from penphase import (
    J6,
    Classification,
    IsotropicOscillator,
    PenningQuadrupole,
    SystemParams,
    build_G,
    classify,
)
from penphase.model import _generator
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
