"""Property tests: one generator assembly for points and batches, its
always-zero entries, the mu-cubic read off its six entries equal to the
general nine-entry formula, the loop's mu-cubic and norm from its row terms
and b^2 equal to the exact ones and to the generic ones, the eigenvalue rule
equal bit for bit to reference predicates written apart from it, one
confinement rule for the pointwise and
grid classifiers and the batched scan predicate, the scans' one-point loop
classifier equal to the batched one and certifying the same points, grid
cells certified from the mu-cubic
labelled as the eigenvalue rule labels them, with one root formula per cell
giving the masks of both, the Fig. 2 curves equal to their all-eig reference
where eig decides a row and within 1e-13 where the mu-cubic certifies it,
the isotropic binding's frequencies, Krein signs, three derivative routes,
Berry phase and Fig. 2 curves equal to their closed forms, the bisection
equal to the one-halving-per-call loop, the
mu-cubic's implicit derivative equal to the determinant-based one and to
the other two derivative routes, and bit for bit to its NumPy reference for
a matrix and for a stack, the perturbative route equal to the
dual-basis one, the ladder commutators of
the normal-mode basis, its bits and its commutator failures equal to its
NumPy reference's, its agreement with the energy-form coefficients and its
phase convention's indifference to eigenvector phases, the per-mode quadratic
forms equal to the operator-basis ones, the geometric phases' invariance under
a change of time unit, and the symplecticity of the oracle's flow map."""

import cmath
import dataclasses
import math
import operator
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from penphase import (
    DERIVATIVE_METHODS,
    J6,
    Classification,
    IsotropicOscillator,
    Mode,
    ModeSpectrum,
    PenningQuadrupole,
    SystemParams,
    aa_phase,
    berry_phase_adiabatic,
    build_G,
    classify,
    dmode_domega,
    normal_mode_basis,
)
import closed_forms
import numpy_reference
from conftest import K_CR, SLOW_MODE_POINT, route_spread
from dynamics_oracle import flow_map
from penphase import sweep
from penphase.model import BINDINGS, _generator, _mu_cubic, build_L3_form
from penphase.phases import (
    FockLabel,
    _dmodes_implicit,
    _dmodes_perturbative,
    _mode_weights,
)
from penphase.spectral import (
    GAP_FACTOR,
    _gap_tol,
    _rule,
)
from penphase.sweep import _bisect, _classify_grid, _loop_code, _loop_codes

frequency = st.floats(min_value=0.0, max_value=10.0, allow_nan=False, allow_infinity=False)
field = st.floats(min_value=0.0, max_value=3.0)
_SL3 = build_L3_form().S


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


def _nine_entry_mu_cubic(S):
    """(c2, c1, c0) of the mu-cubic for any S = [[K, B], [B^T, I]] with K
    symmetric and B skew, from the axial vector (g0, g1, g2) = (S[2, 4],
    S[0, 5], S[1, 3]) of B and the six entries of K: the general formula,
    with no entry assumed zero."""
    g0, g1, g2 = S[..., 2, 4], S[..., 0, 5], S[..., 1, 3]
    k00, k11, k22 = S[..., 0, 0], S[..., 1, 1], S[..., 2, 2]
    k01, k02, k12 = S[..., 0, 1], S[..., 0, 2], S[..., 1, 2]
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


@settings(max_examples=100, deadline=None)
@given(
    points=st.lists(st.tuples(frequency, frequency, frequency, frequency), max_size=8),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    binding_cls=st.sampled_from([PenningQuadrupole, IsotropicOscillator]),
)
def test_six_entry_mu_cubic_equals_the_nine_entry_formula(points, seed, binding_cls):
    # b = 0, b0 = 0 and omega = b0 make the entries' zeros and cancellations
    rng = np.random.default_rng(seed)
    uniform = rng.uniform(0.0, 10.0, (128, 4))
    uniform[:16, 0] = 0.0
    uniform[16:32, 1] = 0.0
    uniform[32:48, 3] = uniform[32:48, 1]
    table = np.vstack([np.reshape(points, (-1, 4)), uniform])
    b, b0, w0, omega = table.T
    S = _generator(b, b0, omega, binding_cls(w0).curvatures(), b.shape)
    # K01, K12 and g1 = S[0, 5] = -S[2, 3], and their mirrors
    for i, j in ((0, 1), (1, 2), (0, 5), (2, 3)):
        assert not S[..., i, j].any() and not S[..., j, i].any()
    # the real stack, and the complex omega-steps of the implicit derivative route
    for T in (S, S - 1j * 1e-20 * _SL3, S - 1j * 1e-3 * _SL3):
        for got, want in zip(_mu_cubic(T), _nine_entry_mu_cubic(T)):
            assert np.all(got == want)


def _exact_loop_cubic(b, b0, omega):
    """(c2, c1, c0) of ``model._mu_cubic`` at one loop point, w0 = 4 b0 / 3,
    in exact rationals: M = K + g g^T - |g|^2 I, c2 = tr M + 4|g|^2,
    c1 = m2(M) + 4 g^T M g, c0 = det M."""
    b, b0, omega = Fraction(b), Fraction(b0), Fraction(omega)
    w0_sq = 16 * b0 * b0 / 9
    K = [[b0 * b0 - w0_sq / 2, 0, -b * b0],
         [0, b0 * b0 + b * b - w0_sq / 2, 0],
         [-b * b0, 0, b * b + w0_sq]]
    g = [-b, 0, omega - b0]
    gg = sum(x * x for x in g)
    M = [[K[i][j] + g[i] * g[j] - (gg if i == j else 0) for j in range(3)] for i in range(3)]

    def minor(i, j):  # the 2x2 minor of M without row i and column j
        (a, c), (d, e) = ([M[r][s] for s in range(3) if s != j] for r in range(3) if r != i)
        return a * e - c * d

    gMg = sum(g[i] * M[i][j] * g[j] for i in range(3) for j in range(3))
    c0 = M[0][0] * minor(0, 0) - M[0][1] * minor(0, 1) + M[0][2] * minor(0, 2)
    c1 = sum(minor(i, i) for i in range(3)) + 4 * gMg
    return sum(M[i][i] for i in range(3)) + 4 * gg, c1, c0


@settings(max_examples=100, deadline=None)
@given(
    points=st.lists(st.tuples(frequency, frequency), max_size=8),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    omega=st.sampled_from([0.0, 1.0]),
)
def test_loop_cubic_gives_the_mu_cubic_and_norm(points, seed, omega):
    # b = 0, b0 = 0 and omega = b0 make the entries' zeros and cancellations
    rng = np.random.default_rng(seed)
    uniform = rng.uniform(0.0, 10.0, (64, 2))
    uniform[:8, 0] = 0.0
    uniform[8:16, 1] = 0.0
    uniform[16:24, 1] = omega
    b, b0 = np.vstack([np.reshape(points, (-1, 2)), uniform]).T
    curvatures = PenningQuadrupole(4.0 * b0 / 3.0).curvatures()
    *got, scale = sweep._loop_cubic(b, b0, omega)
    norm = np.linalg.norm(_generator(b, b0, omega, curvatures, b.shape), axis=(-2, -1))
    eps = np.finfo(float).eps
    exact = np.array([_exact_loop_cubic(*point, omega) for point in zip(b, b0)], dtype=float).T
    generic = _mu_cubic(_generator(b, b0, omega, curvatures, b.shape))
    for degree, (c, want, other) in enumerate(zip(got, exact, generic), start=1):
        # c_k is a polynomial of degree k in S's entries; each float route is
        # within 4 eps (1 + ||S||)^k of the exact value, so within 8 eps of another
        bound = 4.0 * eps * (1.0 + norm) ** degree
        assert np.all(np.abs(c - want) <= bound)
        assert np.all(np.abs(c - other) <= 2.0 * bound)
    assert np.all(np.abs(scale - norm) <= 4.0 * eps * (1.0 + norm))


def _expected_cell(alpha, alpha0, gap_floor):
    """Pointwise class of a loop cell, or None within the grid's margin.

    Outside the margin the rule is decided with room to spare on both
    classifiers: |Re| far from the pointwise tolerance, and the smallest gap
    and |lambda| clear of gap_floor (below it the grid reports Boundary where
    the pointwise rule may still certify Confined).
    """
    L = J6 @ build_G(SystemParams.penning_loop(b0=alpha0, b=alpha, omega=1.0)).S
    spec = classify(L)
    ev = spec.raw_eigenvalues
    scale = np.linalg.norm(L)
    gap_tol = _gap_tol(scale)
    remax = np.abs(ev.real).max()
    if remax > 2.0 * gap_tol:
        return "U"
    if remax > 0.5 * gap_tol:
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


def _unconfined(ev, scale):
    """Reference for ``spectral._rule``'s first mask, written out apart from it:
    some |Re lambda| beyond the pointwise tolerance (no floor), over the last
    axis of ev."""
    return np.abs(ev.real).max(axis=-1) > GAP_FACTOR * (1.0 + scale)


def _separated(ev, scale, gap_floor):
    """Reference for ``spectral._rule``'s second mask: every gap between sorted
    imaginary parts, and every |lambda|, beyond the gap tolerance."""
    tau = np.maximum(GAP_FACTOR * (1.0 + scale), gap_floor)
    gaps = np.diff(np.sort(ev.imag, axis=-1), axis=-1).min(axis=-1)
    return (gaps > tau) & (np.abs(ev).min(axis=-1) > tau)


@settings(max_examples=100, deadline=None)
@given(
    rows=st.one_of(st.none(), st.integers(min_value=1, max_value=16)),
    floored=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_rule_matches_reference_predicates(rows, floored, seed):
    # rows None is one spectrum of shape (6,) with a float scale. Spectra are
    # +-i w with w1, w2 - w1 and w3 - w2 at 0.5 to 2 gap tolerances, and the
    # nonzero |Re lambda| at 0.5 to 2 pointwise tolerances, so both sides of
    # every comparison occur
    rng = np.random.default_rng(seed)
    n = rows or 1
    scale = rng.uniform(0.0, 100.0, n)
    gap_floor = rng.uniform(0.0, 4.0) * GAP_FACTOR * (1.0 + scale.max()) if floored else 0.0
    tau_gap = np.maximum(GAP_FACTOR * (1.0 + scale), gap_floor)[:, None]
    tau_point = GAP_FACTOR * (1.0 + scale)[:, None]
    w = np.cumsum(rng.uniform(0.5, 2.0, (n, 3)) * tau_gap, axis=1)
    real = rng.choice([-1.0, 0.0, 0.0, 0.0, 1.0], (n, 6)) * rng.uniform(0.5, 2.0, (n, 6)) * tau_point
    ev = rng.permuted(real + 1j * np.hstack([w, -w]), axis=1)
    if rows is None:
        ev, scale = ev[0], float(scale[0])
    unconfined, separated = _rule(ev, scale, gap_floor)
    assert np.shape(unconfined) == np.shape(separated) == np.shape(scale)
    assert np.array_equal(unconfined, _unconfined(ev, scale))
    assert np.array_equal(separated, _separated(ev, scale, gap_floor))


@settings(max_examples=200, deadline=None)
@given(alpha=st.floats(min_value=0.0, max_value=10.0), alpha0=st.sampled_from([0.75, 1.5]))
@example(alpha=0.32, alpha0=0.75)
@example(alpha=0.59, alpha0=1.5)
def test_zero_mode_rows_classify_alike_under_transpose(alpha, alpha0):
    # on the rows alpha0 = 3/4 and 3/2 (omega = 1) Lambda has a zero mode's
    # Jordan block, which eig splits by about sqrt(eps) ||Lambda|| onto the
    # real or the imaginary axis as rounding falls; Lambda^T has the same
    # spectrum and must get the same class
    L = J6 @ build_G(SystemParams.penning_loop(b0=alpha0, b=alpha, omega=1.0)).S
    assert classify(L).classification == classify(L.T).classification


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: the loop classifiers decide "
                   "det S == 0 by rule, classify(Lambda) does not yet")
def test_zero_mode_row_window_classifies_alike_under_transpose():
    # on alpha0 = 3/2 a slow mode sits beside the zero pair (c1 -> 0 at
    # alpha^2 = 0.8), and eig splits the pair above the gap tolerance for
    # Lambda or for Lambda^T alone: 349 of these 4,501 alpha disagree
    disagree = 0
    for alpha in np.linspace(0.8940, 0.89445, 4501).tolist():
        L = J6 @ build_G(SystemParams.penning_loop(b0=1.5, b=alpha, omega=1.0)).S
        disagree += classify(L).classification != classify(L.T).classification
    assert disagree == 0


def test_zero_mode_row_window_is_decided_by_the_deflated_rule():
    # the window of the test above, where c0 == 0 at every point: the cubic is
    # mu (mu^2 + c2 mu + c1). The cell certificates, run there, once called
    # 45 points Confined and 71 Unconfined whose quadratic has no root beyond
    # the tolerance (C 159, U 417, B 3,925). By rule a point is Unconfined
    # where some root mu of the quadratic has (Re sqrt(mu))^2 > tau^2, here
    # from np.roots, and Boundary otherwise; the three loop classifiers agree
    alphas = np.linspace(0.8940, 0.89445, 4501)
    c2, c1, c0, scale = sweep._loop_cubic(alphas, 1.5, 1.0)
    assert not c0.any()
    tau = _gap_tol(scale)
    want = []
    for a2, a1, t in zip(c2.tolist(), c1.tolist(), tau.tolist()):
        lam = np.sqrt(np.roots([1.0, a2, a1]).astype(complex))
        want.append("U" if (lam.real**2).max() > t * t else "B")
    assert (want.count("B"), want.count("U")) == (4272, 229)
    assert sweep._loop_codes(alphas, 1.5, 1.0).tolist() == want
    assert [_loop_code(a, 1.5, 1.0) for a in alphas.tolist()] == want
    assert sweep._classify_grid(alphas, np.array([1.5]), 0.0)[0].tolist() == want


@settings(max_examples=300, deadline=None)
@given(c2=st.floats(-1e3, 1e3), c1=st.floats(-1e3, 1e3))
@example(c2=2.0, c1=5.0)  # a pair: mu = -1 +- 2i, (Re lambda)^2 = (sqrt(5) - 1) / 2
@example(c2=-3.0, c1=2.0)  # mu = 2 and 1
@example(c2=3.0, c1=2.0)  # mu = -1 and -2: no real part
@example(c2=0.0, c1=-4.0)  # mu = +-2, sign(c2) of +0.0
@example(c2=5e-324, c1=0.0)  # mu = 0 and -5e-324: h underflows to -0.0, once 0/0
@example(c2=-5e-324, c1=0.0)  # mu = 0 and 5e-324
def test_deflated_matches_the_quadratic_formula(c2, c1):
    # the zero-mode rule's largest (Re lambda)^2 over the roots of
    # mu^2 + c2 mu + c1, against the textbook formula on complex numbers;
    # on the loop d >= 0 wherever c0 == 0, so only this test reaches the pair
    assume(c2 != 0.0 or c1 != 0.0)  # mu^2, below
    roots = [(-c2 + sign * cmath.sqrt(c2 * c2 - 4.0 * c1)) / 2.0 for sign in (1.0, -1.0)]
    want = max(cmath.sqrt(mu).real ** 2 for mu in roots)
    got = float(sweep._deflated(c2, c1))
    assert abs(max(got, 0.0) - want) <= 1e-12 * (1.0 + abs(c2) + math.sqrt(abs(c1)))
    assert sweep._deflated(np.array([c2]), np.array([c1]))[0] == got


def test_deflated_at_the_smallest_subnormal_c2():
    # the roots are 0 and -c2; h = -c2 / 2 underflows to zero, once giving 0/0
    assert sweep._deflated(5e-324, 0.0) == 0.0
    assert sweep._deflated(-5e-324, 0.0) == 5e-324
    assert sweep._deflated(np.array([5e-324, -5e-324]), np.zeros(2)).tolist() == [0.0, 5e-324]


def test_deflated_is_nan_at_a_double_zero_root():
    # mu^2: the triple root mu = 0 of the cubic, which the rule calls Boundary
    assert math.isnan(sweep._deflated(0.0, 0.0))
    assert sweep._loop_code(0.0, 0.0, 0.0) == "B"


def _eig_only_grid(alphas, alpha0s, gap_floor):
    """The grid classifier before cubic certification: every cell through
    the batched eigensolver and the reference predicates."""
    b0, b = (x.ravel() for x in np.meshgrid(alpha0s, alphas, indexing="ij"))
    Lam = J6 @ _generator(b, b0, 1.0, PenningQuadrupole(4.0 * b0 / 3.0).curvatures(), b.shape)
    ev = np.linalg.eigvals(Lam)
    scale = np.sqrt((Lam**2).sum(axis=(-2, -1)))
    confined = np.where(_separated(ev, scale, gap_floor), "C", "B")
    codes = np.where(_unconfined(ev, scale), "U", confined)
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


@st.composite
def near(draw, centre, lo_exp, hi_exp):
    """centre plus or minus 10**e, with e drawn from [lo_exp, hi_exp]."""
    offset = 10.0 ** draw(st.floats(min_value=lo_exp, max_value=hi_exp))
    return centre + draw(st.sampled_from([-1.0, 1.0])) * offset


def _classify_loop(b, b0, omega):
    params = SystemParams.penning_loop(b0=b0, b=b, omega=omega)
    return classify(J6 @ build_G(params).S).classification is Classification.CONFINED


@settings(max_examples=100, deadline=None)
@given(
    loop=st.lists(
        st.tuples(field, st.one_of(field, near(0.75, -10.0, -5.0))), min_size=1, max_size=12
    ),
    ks=st.lists(
        st.one_of(st.floats(min_value=0.01, max_value=1.0), near(K_CR, -9.0, -5.0)),
        min_size=1,
        max_size=12,
    ),
)
def test_loop_predicate_matches_classify(loop, ks):
    # omega = 1 over the plane and beside the alpha0 = 3/4 zero-mode line;
    # omega = 0 along the k-line b0 = 1 and beside the critical ratio
    b, b0 = np.array(loop).T
    got = _loop_codes(b, b0, 1.0) == "C"
    assert got.tolist() == [_classify_loop(*point, 1.0) for point in loop]
    got = _loop_codes(np.array(ks), 1.0, 0.0) == "C"
    assert got.tolist() == [_classify_loop(k, 1.0, 0.0) for k in ks]


def test_loop_codes_fall_back_to_eig_inside_the_uncertified_band(monkeypatch):
    # this close to the critical ratio the mu-cubic roots certify neither
    # class, so every point goes through the eigenvalue rule
    k = K_CR + np.array([-1e-12, -1e-13, 0.0, 1e-13, 1e-12])
    sizes = []
    eig_classes = sweep._eig_classes
    monkeypatch.setattr(
        sweep,
        "_eig_classes",
        lambda S, gap_floor: sizes.append(len(S)) or eig_classes(S, gap_floor),
    )
    codes = sweep._loop_codes(k, 1.0, 0.0)
    assert sizes == [len(k)]
    S = _generator(k, 1.0, 0.0, PenningQuadrupole(4.0 / 3.0).curvatures(), k.shape)
    assert codes.tolist() == eig_classes(S)[2].tolist()
    assert {"C", "U"} <= set(codes.tolist())  # both sides of the collision


loop_code_points = st.one_of(
    # the plane at omega = 1, negative inputs folded
    st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0), st.just(1.0)),
    # beside the zero-mode rows alpha0 = 3/4 and 3/2
    st.tuples(field, st.one_of(near(0.75, -10.0, -5.0), near(1.5, -10.0, -5.0)), st.just(1.0)),
    # the k line at omega = 0, beside the critical ratio
    st.tuples(near(K_CR, -9.0, -5.0), st.just(1.0), st.just(0.0)),
)


@settings(max_examples=200, deadline=None)
@given(point=loop_code_points)
def test_loop_code_matches_loop_codes(point):
    b, b0, omega = point
    assert _loop_code(b, b0, omega) == _loop_codes(np.array([b]), np.array([b0]), omega)[0]


@settings(max_examples=200, deadline=None)
@given(point=loop_code_points)
# beside the critical ratio, on either side of the slack edge of the Confined
# certificate (K_CR - d) and of the Unconfined one (K_CR + d): the margin is
# 0.8 and 1.1 slacks, and (Re lambda)^2 is 0.65 and 2.05 slack^2
@example(point=(K_CR - 10.0**-11.0, 1.0, 0.0))
@example(point=(K_CR - 10.0**-10.75, 1.0, 0.0))
@example(point=(K_CR + 10.0**-10.5, 1.0, 0.0))
@example(point=(K_CR + 10.0**-10.0, 1.0, 0.0))
def test_loop_code_certifies_what_certify_cells_certifies(point):
    _assert_loop_code_certifies_as_certify_cells(point)


def _assert_loop_code_certifies_as_certify_cells(point):
    # _loop_code copies _certify_cells' zero-mode rule and its Confined and
    # Unconfined certificates;
    # the codes agree even if the copies drift apart (an undecided point goes
    # to eig), so compare where each leaves a point to the eigensolver
    b, b0, omega = point
    cubic = sweep._loop_cubic(np.array([abs(b)]), np.array([abs(b0)]), omega)
    undecided = not np.logical_or.reduce(sweep._certify_cells(*cubic, 0.0))[0]
    sizes = []
    eig_classes = sweep._eig_classes
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(
            sweep, "_eig_classes", lambda S: sizes.append(S.shape) or eig_classes(S)
        )
        code = _loop_code(b, b0, omega)
    assert sizes == ([(6, 6)] if undecided else [])
    assert code == _loop_codes(np.array([b]), np.array([b0]), omega)[0]


def _depressed_cubic(b, b0, omega):
    """(p, q, disc) of the loop's mu-cubic shifted to t^3 + p t + q, as
    ``_certify_cells`` and ``_loop_code`` compute them."""
    return sweep._depressed(*sweep._loop_cubic(b, b0, omega)[:3])[1:]


#: Points (b, b0, omega) with a double root (disc == 0) whose arccos
#: argument 3 q / (p m) is exactly 1 or -1, and the triple root mu = 0 at the
#: origin with omega = 0, where p * m == 0.
ARCCOS_EDGES = {(0.0, 0.75, 0.0): 1.0, (0.0, 1.5, 0.0): 1.0,
                (0.0, 1.0, 1.0): -1.0, (0.25, 0.0, 0.0): -1.0}
TRIPLE_ROOT = (0.0, 0.0, 0.0)

#: Points where the scalar certificate's comparisons meet their edge values:
#: -0.0 coordinates; alpha = 0, where the cubic factors; the zero-mode rows
#: and the alpha0 = 3/2 window where eig splits the zero pair above the gap
#: tolerance; k within 1e-12 of the critical ratio; and the two above.
LOOP_CODE_EDGE_POINTS = [
    (-0.0, 1.0, 1.0), (0.5, -0.0, 1.0), (-0.0, -0.0, 1.0), (-0.0, -0.0, 0.0), (-0.0, 0.75, 1.0),
    (0.0, 0.3, 1.0), (0.0, 1.2, 1.0), (0.0, 2.5, 1.0), (0.0, 1.0, 0.0),
    (0.32, 0.75, 1.0), (2.0, 0.75, 1.0), (0.59, 1.5, 1.0),
    (0.89433, 1.5, 1.0), (0.894375, 1.5, 1.0), (0.89442, 1.5, 1.0),
    (K_CR - 1e-12, 1.0, 0.0), (K_CR, 1.0, 0.0), (K_CR + 1e-12, 1.0, 0.0),
    *ARCCOS_EDGES, TRIPLE_ROOT,
]


@pytest.mark.parametrize("point", LOOP_CODE_EDGE_POINTS)
def test_loop_code_edge_points(point):
    _assert_loop_code_certifies_as_certify_cells(point)


def test_loop_code_edge_points_meet_their_edges():
    def p_m_and_argument(point):
        p, q, disc = _depressed_cubic(*point)
        assert disc == 0.0
        p_m = p * (2.0 * math.sqrt(-(p / 3.0)))
        return p_m, 3.0 * q / p_m if p_m else None

    assert {x: p_m_and_argument(x)[1] for x in ARCCOS_EDGES} == ARCCOS_EDGES
    assert p_m_and_argument(TRIPLE_ROOT)[0] == 0.0


def _disc_roots(alpha0):
    """The alpha in [0, 10] where disc changes sign along the row alpha0 at
    omega = 1 (between 2,001 samples), each bisected 60 times to its last
    alpha on the side of the sample below it."""
    alphas = np.linspace(0.0, 10.0, 2001)
    real = _depressed_cubic(alphas, alpha0, 1.0)[2] <= 0.0
    flip = np.flatnonzero(real[1:] != real[:-1])
    lo, hi = alphas[flip], alphas[flip + 1]
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        same = (_depressed_cubic(mid, alpha0, 1.0)[2] <= 0.0) == real[flip]
        lo, hi = np.where(same, mid, lo), np.where(same, hi, mid)
    return lo


#: A signed offset in alpha of at most 1e-6, down to 1e-12, or none.
disc_root_offsets = st.one_of(
    st.just(0.0),
    st.builds(operator.mul, st.sampled_from([-1.0, 1.0]),
              st.floats(-12.0, -6.0).map(lambda e: 10.0**e)),
)


@settings(max_examples=100, deadline=None)
@given(
    alpha0=st.floats(min_value=0.0, max_value=10.0),
    offsets=st.lists(disc_root_offsets, min_size=1, max_size=8),
    zero_mode_alphas=st.lists(st.floats(min_value=0.0, max_value=10.0), max_size=8),
    gap_floor=st.sampled_from([0.0, 0.02]),
)
def test_split_certificate_decides_as_eig(alpha0, offsets, zero_mode_alphas, gap_floor):
    # _certify_cells runs the trigonometric roots on the cells with
    # disc <= 0 and Cardano's on the rest. Beside a sign change of disc along
    # a row (within 1e-6 in alpha), where the two branches meet, each cell it
    # certifies gets the eigenvalue rule's code. On the zero-mode rows
    # alpha0 = 3/4 and 3/2 (c0 == 0), where eig splits the zero pair onto
    # either axis, every cell is decided by rule, as the reference decides
    # it, and none is Confined. No cell gets two certificates, and the masks
    # are the unsplit form's
    lo = _disc_roots(alpha0)
    assume(len(lo))
    n = len(zero_mode_alphas)
    b = np.concatenate([np.abs(np.add.outer(lo, offsets)).ravel(), zero_mode_alphas * 2])
    b0 = np.concatenate([np.full(b.size - 2 * n, alpha0), np.repeat([0.75, 1.5], n)])
    cubic = sweep._loop_cubic(b, b0, 1.0)
    masks = sweep._certify_cells(*cubic, gap_floor)
    curvatures = PenningQuadrupole(4.0 * b0 / 3.0).curvatures()
    codes = sweep._eig_classes(_generator(b, b0, 1.0, curvatures, b.shape), gap_floor)[2]
    zero = cubic[2] == 0.0
    assert zero[b.size - 2 * n :].all()
    for mask, code in zip(masks, "CUB"):
        assert set(codes[mask & ~zero].tolist()) <= {code}
    assert np.sum(masks, axis=0).max() <= 1
    assert np.logical_or.reduce(masks)[zero].all() and not masks[0][zero].any()
    reference = numpy_reference.certify_cells(*cubic, gap_floor)
    assert all(np.array_equal(got, want) for got, want in zip(masks, reference))


@pytest.mark.parametrize("grid", [
    sweep.GridSpec(), sweep.GridSpec(0.0, 10.0, 600, 0.0, 10.0, 600),
    sweep.GridSpec(0.0, 1e4, 600, 0.0, 1e4, 600),
], ids=["default", "0-10", "0-1e4"])
def test_split_certificate_masks_equal_the_unsplit_form(grid):
    # one root formula per cell gives each cell the bits of the formula it
    # kept when both ran on every cell, at the CLI's margin and at none
    cubic = sweep._loop_cubic(grid.alphas[None, :], grid.alpha0s[:, None], 1.0)
    for gap_floor in (sweep.GAP_SLOPE_SCALE * grid.max_step, 0.0):
        masks = sweep._certify_cells(*cubic, gap_floor)
        reference = numpy_reference.certify_cells(*cubic, gap_floor)
        assert all(np.array_equal(got, want) for got, want in zip(masks, reference))


@st.composite
def block_grids(draw):
    """(alphas, alpha0s): sorted alphas of 1 to 200 columns (31, 32 and 33
    among them) over [0, 3], [0, 10] or [0, 1e4] against up to four rows of
    that window or the zero-mode rows; or the unsorted, repeated short axes
    of ``grid_axis``."""
    if draw(st.booleans()):
        return np.array(draw(grid_axis)), np.array(draw(grid_axis))
    top = draw(st.sampled_from([3.0, 10.0, 1e4]))
    width = draw(st.one_of(st.sampled_from([1, 2, 31, 32, 33]), st.integers(1, 200)))
    lo = draw(st.floats(0.0, top))
    hi = draw(st.floats(lo, top))
    rows = st.one_of(st.floats(0.0, top), st.sampled_from([0.75, 1.5]))
    return np.linspace(lo, hi, width), np.array(draw(st.lists(rows, min_size=1, max_size=4)))


@settings(max_examples=80, deadline=None)
@given(
    grid=block_grids(),
    gap_floor=st.sampled_from([0.0, 0.005, 0.02]),
    chunk_cells=st.sampled_from([1, 5, 7, 30, sweep._CHUNK_CELLS]),
)
@example(grid=(np.array([0.1, 3.0, 0.2]), np.array([0.2])), gap_floor=0.0,
         chunk_cells=sweep._CHUNK_CELLS)
def test_block_stage_gives_the_loop_codes(grid, gap_floor, chunk_cells):
    # a block is decided on the hull of its cells' b^2 (in the example the
    # end cells 0.1 and 0.2 of the row 0.2 are Confined and the cell between
    # them Unconfined), its code fills its cells, and the cells of undecided
    # blocks go through _loop_codes, in tiles and pieces of every size
    alphas, alpha0s = grid
    b0, b = (x.ravel() for x in np.meshgrid(alpha0s, alphas, indexing="ij"))
    want = _loop_codes(b, b0, 1.0, gap_floor).reshape(len(alpha0s), len(alphas))
    with mock.patch.object(sweep, "_CHUNK_CELLS", chunk_cells):
        codes = _classify_grid(alphas, alpha0s, gap_floor)
    assert codes.tolist() == want.tolist()


def _separation(alpha, alpha0):
    """min(w0, w1 - w0, w2 - w1) and ||S||_F of a loop point at omega = 1,
    from np.roots of its mu-cubic; None unless its three mu are real and
    negative."""
    c2, c1, c0, scale = sweep._loop_cubic(alpha, alpha0, 1.0, math.sqrt)
    mu = np.roots([1.0, c2, c1, c0])
    if np.iscomplexobj(mu) or mu.max() >= 0.0:
        return None
    w = np.sort(np.sqrt(-mu))
    return min(w[0], w[1] - w[0], w[2] - w[1]), scale


def _scale_edge(alpha0):
    """The alpha in [50, 1e5] where the smallest gap of the row alpha0 (a row
    in [0.36, 0.74], Confined out to alpha = 1e3) falls to GAP_FACTOR
    (1 + ||S||_F), bisected 60 times to its Confined side."""
    def clears(alpha):
        found = _separation(alpha, alpha0)
        return found is not None and found[0] > GAP_FACTOR * (1.0 + found[1])

    lo, hi = 50.0, 1e5
    assert clears(lo) and not clears(hi)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if clears(mid) else (lo, mid)
    return lo


#: A block end's signed offset from its anchor, relative to the anchor.
block_offsets = st.one_of(
    st.just(0.0),
    st.builds(operator.mul, st.sampled_from([-1.0, 1.0]),
              st.floats(-9.0, 0.0).map(lambda e: 10.0**e)),
)


@st.composite
def edge_blocks(draw):
    """(alphas, alpha0, gap_floor): the cells of one block of a row at
    omega = 1 (its two ends and up to six between), each end at a relative
    offset from an anchor where a certificate's test turns: a sign change of
    disc or of c0 (within 1e-6 in alpha), the smallest gap meeting gap_floor
    or GAP_FACTOR (1 + ||S||_F), or anywhere. So a block straddles its
    anchor, or lies beside it, from 1e-9 of the anchor to as far again."""
    kind = draw(st.sampled_from(["disc", "c0", "floor", "scale", "free"]))
    alpha0 = draw(st.one_of(st.floats(0.0, 10.0), st.sampled_from([0.75, 1.5])))
    gap_floor = draw(st.sampled_from([0.0, 0.005, 0.02]))
    anchor = draw(st.floats(0.0, 10.0))
    if kind == "disc":
        roots = _disc_roots(alpha0).tolist()
        if roots:
            anchor = abs(draw(st.sampled_from(roots)) + draw(disc_root_offsets))
    elif kind == "c0":  # c0 = p (p r - B) changes sign at B = p r where p > 0
        alpha0 = draw(st.floats(0.75, 1.5))
        s = alpha0 * alpha0 / 9.0
        p = s - (1.0 - alpha0) ** 2
        anchor = abs(math.sqrt(max(p * 16.0 * s, 0.0)) + draw(disc_root_offsets))
    elif kind == "floor":
        found = _separation(anchor, alpha0)
        if found is not None:
            gap_floor = found[0] * (1.0 + draw(st.floats(-1e-6, 1e-6)))
    elif kind == "scale":
        alpha0, gap_floor = draw(st.floats(0.36, 0.74)), 0.0
        anchor = _scale_edge(alpha0) * (1.0 + draw(st.floats(-1e-6, 1e-6)))
    lo, hi = sorted(anchor * (1.0 + draw(block_offsets)) for _ in range(2))
    between = draw(st.lists(st.floats(lo, hi), max_size=6))
    return np.array([lo, hi, *between]), alpha0, gap_floor


@settings(max_examples=300, deadline=None)
@given(block=edge_blocks())
@example(block=(np.array([100.0, 1400.0]), 0.5, 0.0))
@example(block=(np.array([0.18814231545536353]), 0.8, 0.0))
def test_block_certificates_decide_as_eig(block):
    # each certificate of _certify_blocks gives every cell of the block the
    # eigenvalue rule's class: next to sign changes of disc and c0, where
    # roots meet or cross zero, and at the edges of the gap tolerance. The
    # first example reaches from alpha = 100 across the row's GAP_FACTOR
    # (1 + ||S||_F) edge near alpha = 1319, where ||S||_F grows 200-fold; in
    # the second, 1e-11 past c0's sign change, the cubic's positive root
    # lies below slack^2 and eig sees no real pair beyond the tolerance
    alphas, alpha0, gap_floor = block
    masks = sweep._certify_blocks(alphas.min(keepdims=True), alphas.max(keepdims=True),
                                  np.array([alpha0]), gap_floor)
    b0 = np.full(alphas.shape, alpha0)
    S = _generator(alphas, b0, 1.0, PenningQuadrupole(4.0 * b0 / 3.0).curvatures(), alphas.shape)
    codes = set(sweep._eig_classes(S, gap_floor)[2].tolist())
    for mask, code in zip(masks, "CUU"):
        if mask.item():
            assert codes == {code}


def test_block_certificates_each_decide_the_default_map():
    # on the default map's blocks each certificate decides a share of its own
    # (about 31% Confined, 21% by a real root, 29% by a complex pair) and no
    # block gets both codes
    grid = sweep.GridSpec()
    gap_floor = sweep.GAP_SLOPE_SCALE * grid.max_step
    starts = np.arange(0, grid.alphas.size, sweep._BLOCK_COLUMNS)
    b_lo, b_hi = np.minimum.reduceat(grid.alphas, starts), np.maximum.reduceat(grid.alphas, starts)
    widths = np.diff(starts, append=grid.alphas.size)
    confined, real_root, pair = sweep._certify_blocks(
        b_lo[None, :], b_hi[None, :], grid.alpha0s[:, None], gap_floor
    )
    shares = [(mask @ widths).sum() / (grid.alphas.size * grid.alpha0s.size)
              for mask in (confined, real_root, pair)]
    assert min(shares) > 0.15
    assert sum(shares) > 0.75
    assert not (confined & (real_root | pair)).any()


def test_loop_code_falls_back_to_eig_inside_the_uncertified_band(monkeypatch):
    # as for _loop_codes: beside the critical ratio every point reaches the
    # eigenvalue rule, one 6x6 at a time
    sizes = []
    eig_classes = sweep._eig_classes
    monkeypatch.setattr(
        sweep, "_eig_classes", lambda S: sizes.append(S.shape) or eig_classes(S)
    )
    k = (K_CR + np.array([-1e-12, -1e-13, 0.0, 1e-13, 1e-12])).tolist()
    codes = [sweep._loop_code(x, 1.0, 0.0) for x in k]
    assert sizes == [(6, 6)] * len(k)
    S = _generator(np.array(k), 1.0, 0.0, PenningQuadrupole(4.0 / 3.0).curvatures(), (len(k),))
    assert codes == eig_classes(S)[2].tolist()
    assert {"C", "U"} <= set(codes)  # both sides of the collision


@pytest.fixture
def kernel_counts(monkeypatch):
    """Rows of every 6x6 stack ``_loop_codes`` builds, and the points each of
    its certificates leaves undecided."""
    rows, uncertified = [], []
    generator, certify = sweep._generator, sweep._certify_cells

    def counted_generator(*args):
        S = generator(*args)
        rows.append(len(S))
        return S

    def counted_certify(*args):
        confined, unconfined, boundary = certify(*args)
        uncertified.append(int(np.count_nonzero(~(confined | unconfined | boundary))))
        return confined, unconfined, boundary

    monkeypatch.setattr(sweep, "_generator", counted_generator)
    monkeypatch.setattr(sweep, "_certify_cells", counted_certify)
    return rows, uncertified


def test_loop_codes_stack_only_the_uncertified_points(kernel_counts):
    rows, uncertified = kernel_counts
    k = np.concatenate([np.linspace(0.05, 0.5, 40), K_CR + np.array([-1e-13, 0.0, 1e-13])])
    sweep._loop_codes(k, 1.0, 0.0)
    assert uncertified[0] >= 3
    assert rows == uncertified
    rows.clear()
    uncertified.clear()
    sweep._loop_codes(np.linspace(0.05, 0.2, 100), 1.0, 0.0)
    assert uncertified == [0]
    assert rows == []


def test_default_grid_stacks_sixteen_cells(kernel_counts):
    # with the CLI's resolution margin, the cells the margin alone makes
    # Boundary are certified too, and the exact zero modes on the rows
    # alpha0 = 3/4 and 3/2 are decided by rule; only 16 of 361,201 cells,
    # beside a zero mode or a mode collision, reach the eigensolver, in three
    # stacks (797 before the rule, 780 of them on the zero-mode rows)
    rows, _ = kernel_counts
    grid = sweep.GridSpec()
    gap_floor = sweep.GAP_SLOPE_SCALE * grid.max_step
    sweep._classify_grid(grid.alphas, grid.alpha0s, gap_floor)
    assert sum(rows) == 16 and sorted(rows) == [1, 5, 10]
    b0, b = (x.ravel() for x in np.meshgrid(grid.alpha0s, grid.alphas, indexing="ij"))
    n_boundary = 0
    for lo in range(0, len(b), sweep._CHUNK_CELLS):
        b_c, b0_c = b[lo : lo + sweep._CHUNK_CELLS], b0[lo : lo + sweep._CHUNK_CELLS]
        boundary = sweep._certify_cells(*sweep._loop_cubic(b_c, b0_c, 1.0), gap_floor)[2]
        b_c, b0_c = b_c[boundary], b0_c[boundary]
        curvatures = PenningQuadrupole(4.0 * b0_c / 3.0).curvatures()
        S = _generator(b_c, b0_c, 1.0, curvatures, b_c.shape)
        assert set(sweep._eig_classes(S, gap_floor)[2].tolist()) <= {"B"}
        n_boundary += len(b_c)
    assert n_boundary > 1000


@settings(max_examples=100, deadline=None)
@given(
    b=st.floats(min_value=0.0, max_value=10.0),
    b0=st.one_of(st.floats(min_value=0.0, max_value=10.0), st.sampled_from([0.0, 0.75, 1.5])),
    omega=st.sampled_from([0.0, 1.0]),
)
@example(b=0.0, b0=0.0, omega=0.0)  # the triple root mu = 0
@example(b=0.0, b0=0.75, omega=1.0)
def test_pointwise_margin_certifies_boundary_only_at_zero_modes(b, b0, omega):
    # with gap_floor 0 the Boundary certificate's band is empty, so the only
    # points certified Boundary are exact zero modes (c0 == 0: the rows
    # alpha0 = 3/4 and 3/2 at omega = 1, alpha0 = 0 at omega = 0), which the
    # rule decides as Unconfined or Boundary, never Confined; the scans keep
    # deciding every other Boundary point through the eigensolver
    cubic = sweep._loop_cubic(np.array([b]), np.array([b0]), omega)
    confined, unconfined, boundary = sweep._certify_cells(*cubic, 0.0)
    zero = cubic[2] == 0.0
    assert np.array_equal(boundary, zero & ~unconfined)
    assert not confined[zero].any()
    if zero[0]:
        assert _loop_code(b, b0, omega) == ("U" if unconfined[0] else "B")


#: k for the Fig. 2 curves: anywhere in [1e-4, 5], within 1e-6, 1e-9 or
#: 1e-12 of the critical ratio, or at 1e-12 and 1e6.
curve_ks = st.one_of(
    st.floats(min_value=1e-4, max_value=5.0),
    st.builds(lambda width, f: K_CR + f * width,
              st.sampled_from([1e-6, 1e-9, 1e-12]), st.floats(min_value=-1.0, max_value=1.0)),
    st.sampled_from([1e-12, 1e6]),
)


@settings(max_examples=200, deadline=None)
@given(
    ks=st.lists(curve_ks, min_size=1, max_size=40, unique=True).map(sorted),
    binding=st.sampled_from(["penning", "oscillator"]),
)
# past the collision, |Re lambda| of the pair between tau and tau + slack
@example(ks=[K_CR + 1e-12, K_CR + 3e-12, K_CR + 1e-11], binding="penning")
def test_curve_fig2_matches_the_eig_reference(ks, binding):
    # the rows sent to eig get the reference's bits; a row kept off eig is
    # Unconfined with one simple imaginary mode, its other four eigenvalues
    # (by the reference's eigensolve) half a slack beyond the tolerance, as
    # the certificate's bound says, and its dw1 from Cardano's root is within
    # 1e-13 of eig's
    sent = set()
    eig_classes = sweep._eig_classes
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(sweep, "_eig_classes", lambda S: (
            sent.update(s.tobytes() for s in S) or eig_classes(S)
        ))
        got = sweep.curve_fig2(ks, binding)
    want = numpy_reference.curve_fig2(ks, binding)
    assert np.array_equal(got.k, want.k)
    assert np.array_equal(got.stable23, want.stable23)
    assert np.array_equal(got.cos_theta, want.cos_theta)
    assert np.array_equal(np.isnan(got.dw), np.isnan(want.dw))
    curvatures = BINDINGS[binding](4.0 / 3.0).curvatures()
    S = _generator(want.k, 1.0, 0.0, curvatures, want.k.shape)
    kept = np.array([s.tobytes() not in sent for s in S])
    assert np.array_equal(got.dw[~kept], want.dw[~kept], equal_nan=True)
    assert not want.stable23[kept].any()
    dw1, ref = got.dw[kept, 0], want.dw[kept, 0]
    assert np.all(np.abs(dw1 - ref) <= 1e-13 * (1.0 + np.abs(ref)))
    for s in S[kept]:
        scale = float(np.linalg.norm(s))
        re = np.sort(np.abs(np.linalg.eigvals(J6 @ s).real))
        assert re[1] <= _gap_tol(scale) < re[2] - 0.5e-6 * (1.0 + scale)


#: Field ratios up to 150 and isotropic binding frequencies from the loop's
#: 4/3 up: the slow mode, about w0^2 / (2 sqrt(1 + k^2)), stays above the gap
#: tolerance, which it meets at k of about 184.54 for w0 = 4/3.
isotropic_ks = st.floats(min_value=1e-3, max_value=150.0)
isotropic_w0s = st.floats(min_value=4.0 / 3.0, max_value=10.0)


def _assert_close(got, want):
    want = np.asarray(want)
    assert np.all(np.abs(np.asarray(got) - want) <= 1e-12 * (1.0 + np.abs(want)))


#: Each derivative route's tolerance against the closed form, in units of
#: 1 + |dw| and as a function of ||Lambda||_F. The implicit and perturbative
#: routes are exact to rounding (at most 2.5e-14 over k in [1e-3, 150]).
#: finite_diff differences eigenvalues that carry a rounding error of about
#: eps ||Lambda||_F over its step 1e-5: its tolerance is 1e-10 (1 + ||Lambda||_F),
#: about 4.5 eps ||Lambda||_F / 1e-5, where it was measured at 0.07 of that
#: (4.1e-8 at k = 137, ||Lambda||_F = 2.6e4).
ROUTE_TOLERANCE = {
    "implicit": lambda norm: 1e-12,
    "perturbative": lambda norm: 1e-12,
    "finite_diff": lambda norm: 1e-10 * (1.0 + norm),
}


@settings(max_examples=600, deadline=None)
@given(k=isotropic_ks, w0=isotropic_w0s, method=st.sampled_from(DERIVATIVE_METHODS))
@example(k=150.0, w0=4.0 / 3.0, method="perturbative")
@example(k=1e-3, w0=4.0 / 3.0, method="perturbative")
@example(k=150.0, w0=4.0 / 3.0, method="finite_diff")
@example(k=1e-3, w0=10.0, method="finite_diff")
def test_isotropic_binding_matches_its_closed_forms(k, w0, method):
    # Larmor's theorem: classify's frequencies and Krein signs and each
    # route's derivatives of an isotropic binding at omega = 0 (600 examples,
    # about 200 a route)
    params = SystemParams(b=k, b0=1.0, w0=w0, omega=0.0)
    S = build_G(params, IsotropicOscillator(w0)).S
    spectrum = classify(J6 @ S)
    assert spectrum.classification is Classification.CONFINED
    _assert_close(spectrum.freqs, closed_forms.isotropic_freqs(k, w0))
    assert spectrum.krein_signs.tolist() == [1, 1, 1]
    got = dmode_domega(params, IsotropicOscillator(w0), method)
    want = np.array(closed_forms.isotropic_dw(k))
    tolerance = ROUTE_TOLERANCE[method](float(np.linalg.norm(J6 @ S)))
    assert np.all(np.abs(got - want) <= tolerance * (1.0 + np.abs(want)))


def _negative_count(H: np.ndarray) -> int:
    return int(np.count_nonzero(np.linalg.eigvalsh(H) < 0.0))


@settings(max_examples=200, deadline=None)
@given(
    b=st.floats(min_value=0.0, max_value=3.0),
    b0=st.floats(min_value=0.0, max_value=3.0),
    w0=st.floats(min_value=0.1, max_value=3.0),
    omega=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=2.0)),
    binding=st.sampled_from(sorted(BINDINGS)),
)
@example(b=SLOW_MODE_POINT[0], b0=SLOW_MODE_POINT[1], w0=4.0 * SLOW_MODE_POINT[1] / 3.0,
         omega=1.0, binding="penning")
def test_krein_signs_match_the_inertia_of_the_pencil(b, b0, w0, omega, binding):
    # S - t iJ is Hermitian and singular at t = w for each mode's conjugate
    # eigenvector; as t rises through w its null eigenvalue falls when the
    # Krein sign is +1 and rises when it is -1, so the count of negative
    # eigenvalues steps by the sign (eps stays below every gap, which the
    # Confined class puts above 1e-7 (1 + ||Lambda||_F) >= eps). A mode of
    # sign -1 carries a negative-definite 2x2 block of S, so S has two
    # negative eigenvalues per such mode
    S = build_G(SystemParams(b=b, b0=b0, w0=w0, omega=omega), BINDINGS[binding](w0)).S
    spectrum = classify(J6 @ S)
    assume(spectrum.classification is Classification.CONFINED)
    iJ = 1j * J6
    for mode in spectrum.modes:
        w, eps = mode.freq, 1e-7 * (1.0 + mode.freq)
        step = _negative_count(S - (w + eps) * iJ) - _negative_count(S - (w - eps) * iJ)
        assert step == mode.krein_sign
    assert _negative_count(S) == 2 * spectrum.krein_signs.tolist().count(-1)


@settings(max_examples=200, deadline=None)
@given(k=isotropic_ks, w0=isotropic_w0s,
       n=st.builds(FockLabel, *[st.integers(min_value=0, max_value=10**6)] * 3))
@example(k=150.0, w0=4.0 / 3.0, n=FockLabel(1, 2, 0))
def test_berry_phase_matches_the_closed_form(k, w0, n):
    # eq. 8 at omega = 0 with every Krein sign +1 and dw = (-1, 0, +1) cos(theta):
    # -2 pi sum (n_i + 1/2) dw_i = 2 pi cos(theta) (n1 - n3)
    report = berry_phase_adiabatic(k, IsotropicOscillator(w0), n)
    occupation = [n.n1 + 0.5, n.n2 + 0.5, n.n3 + 0.5]
    want = 2.0 * math.pi * closed_forms.isotropic_dw(k)[2] * (n.n1 - n.n3)
    assert report.aa_phase_eq7 is None
    assert abs(report.aa_phase_eq8 - want) <= 1e-12 * 2.0 * math.pi * sum(occupation)
    freqs = closed_forms.isotropic_freqs(k, w0)
    energy = sum(f * o for f, o in zip(freqs, occupation))
    assert abs(report.quasienergy - energy) <= 1e-12 * sum(
        (1.0 + f) * o for f, o in zip(freqs, occupation))


@settings(max_examples=100, deadline=None)
@given(ks=st.lists(isotropic_ks, min_size=1, max_size=40, unique=True).map(sorted))
def test_oscillator_curve_matches_its_closed_form(ks):
    table = sweep.curve_fig2(ks, binding="oscillator")
    assert table.stable23.all()
    _assert_close(table.dw, [closed_forms.isotropic_dw(k) for k in ks])


def _sequential_bisect(confined_at, lo, hi, length, tol):
    """The one-halving-per-call bisection loop, over a scalar predicate: the
    reference for ``sweep._bisect``."""
    iterations = max(1, math.ceil(math.log2(length / tol)))
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        if confined_at(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi, iterations


@st.composite
def predicates(draw):
    """Scalar boolean predicates: a threshold (monotone), a bit of a seeded
    hash of the float (no structure at all), or the sign of a sine."""
    kind = draw(st.sampled_from(["threshold", "hash", "sine"]))
    a = draw(st.floats(min_value=-1e3, max_value=1e3))
    if kind == "threshold":
        return lambda x: x < a
    if kind == "hash":
        seed = draw(st.integers(0, 2**32))
        return lambda x: bool(hash((x, seed)) & 1)
    freq = draw(st.floats(min_value=1e-3, max_value=1e9))
    return lambda x: math.sin(freq * x + a) > 0.0


@settings(max_examples=300, deadline=None)
@given(
    predicate=predicates(),
    lo=st.floats(min_value=-1e3, max_value=1e3),
    width=st.floats(min_value=1e-9, max_value=1e3),
    length=st.floats(min_value=1e-6, max_value=1e6),
    halvings=st.integers(min_value=1, max_value=40),
    spread=st.floats(min_value=1.0, max_value=2.0, exclude_max=True),
)
# find_kcr's bracket, which is not dyadic
@example(predicate=lambda k: k < 0.2583129093, lo=0.01, width=0.99, length=0.99, halvings=24,
         spread=1.0)
def test_bisect_matches_sequential_loop(predicate, lo, width, length, halvings, spread):
    hi = lo + width
    tol = length * 2.0**-halvings * spread  # about `halvings` halvings
    seen, visited = [], []
    got = _bisect(lambda x: seen.append(x) or predicate(x), lo, hi, length, tol)
    want = _sequential_bisect(lambda x: visited.append(x) or predicate(x), lo, hi, length, tol)
    assert got == want
    assert seen == visited  # one call per halving, at the same midpoints


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



route_omega = st.one_of(st.just(0.0), st.just(1.0), st.floats(min_value=0.0, max_value=2.0))
route_binding = st.sampled_from([PenningQuadrupole, IsotropicOscillator])


@st.composite
def mostly_confined(draw):
    """(b, b0, w0, omega, binding class) with the binding's confining
    frequency dominant: b0 in [1, 3] for the Penning trap, w0 for the
    oscillator, b 0 to 0.4 times it and the other of the two 0.2 to 1.4
    (Penning, past the loop's w0 = 4 b0 / 3) or 0.2 to 0.8 (oscillator)
    times it."""
    binding_cls, omega = draw(route_binding), draw(route_omega)
    big = draw(st.floats(min_value=1.0, max_value=3.0))
    b = big * draw(st.floats(min_value=0.0, max_value=0.4))
    ratio = 1.4 if binding_cls is PenningQuadrupole else 0.8
    other = big * draw(st.floats(min_value=0.2, max_value=ratio))
    b0, w0 = (big, other) if binding_cls is PenningQuadrupole else (other, big)
    return b, b0, w0, omega, binding_cls


# mostly_confined or, for the rest of the space, the free draw over [0, 3]^3:
# about three in five examples are Confined with every gap and frequency
# >= 0.05, against two in five for the free draw alone
route_points = st.one_of(
    mostly_confined(),
    st.tuples(field, field, field, route_omega, route_binding),
)


@settings(max_examples=100, deadline=None)
@given(point=route_points)
def test_implicit_route_matches_circle_node_reference(point):
    b, b0, w0, omega, binding_cls = point
    params = SystemParams(b=b, b0=b0, w0=w0, omega=omega)
    S = build_G(params, binding_cls(w0)).S
    spec = classify(J6 @ S)
    assume(spec.classification is Classification.CONFINED)
    gaps = np.diff(np.sort(spec.raw_eigenvalues.imag))
    assume(min(gaps.min(), spec.freqs.min()) >= 0.05)
    got = _dmodes_implicit(S, spec.freqs)
    want = _circle_node_implicit(S, spec.freqs)
    # relative in the (1 + |d|) sense of route_spread
    assert np.all(np.abs(got - want) <= 1e-12 * (1.0 + np.abs(want)))
    assert route_spread(params, binding_cls(w0)) < 1e-6


@settings(max_examples=200, deadline=None)
@given(point=route_points,
       drawn=st.lists(st.floats(min_value=0.01, max_value=3.0), min_size=1, max_size=3))
@example(point=(0.0, 1.0, 1.3107908255390095, 0.0, PenningQuadrupole), drawn=[1.0])
def test_implicit_route_matches_numpy_reference_bit_for_bit(point, drawn):
    # one matrix's mu-cubic on Python numbers gives the bits of the
    # reference's 0-d arrays, and a stack of one the bits of the reference's
    # stack; drawn frequencies where the reference divides by zero are left out
    b, b0, w0, omega, binding_cls = point
    S = build_G(SystemParams(b=b, b0=b0, w0=w0, omega=omega), binding_cls(w0)).S
    spec = classify(J6 @ S)
    runs = [np.array(drawn)]
    if spec.classification is Classification.CONFINED:
        runs.append(spec.freqs)
    for freqs in runs:
        with np.errstate(divide="ignore", invalid="ignore"):
            want, want_stack = (numpy_reference.dmodes_implicit(T, f)
                                for T, f in ((S, freqs), (S[None], freqs[None])))
        if not np.isfinite(want_stack).all():
            continue
        assert _dmodes_implicit(S, freqs).tobytes() == want.tobytes()
        assert _dmodes_implicit(S[None], freqs[None]).tobytes() == want_stack.tobytes()


@settings(max_examples=200, deadline=None)
@given(point=route_points)
@example(point=(0.0, 1.0, 1.3107908255390095, 0.0, PenningQuadrupole))
def test_implicit_route_of_a_matrix_and_of_a_stack_agree(point):
    # NumPy's loops over complex arrays may fuse a product's multiply and add
    # (they do with AVX-512) where Python's complexes and NumPy's scalars
    # round each step, so a matrix and a stack of one differ in the last bits
    # at about a third of random points, as numpy_reference's 0-d arrays do:
    # at most 1e-14 (1 + |d|) over 20,000 random points
    b, b0, w0, omega, binding_cls = point
    S = build_G(SystemParams(b=b, b0=b0, w0=w0, omega=omega), binding_cls(w0)).S
    spec = classify(J6 @ S)
    assume(spec.classification is Classification.CONFINED)
    gaps = np.diff(np.sort(spec.raw_eigenvalues.imag))
    assume(min(gaps.min(), spec.freqs.min()) >= 0.05)
    alone = _dmodes_implicit(S, spec.freqs)
    stacked = _dmodes_implicit(S[None], spec.freqs[None])[0]
    assert np.all(np.abs(alone - stacked) <= 1e-12 * (1.0 + np.abs(stacked)))


def _basis_outcome(make_basis, spec):
    """The basis' coefficient, sign and frequency bytes, or the type and text
    of its error."""
    try:
        basis = make_basis(spec)
    except Exception as exc:
        return type(exc).__name__, str(exc)
    return basis.coeffs.tobytes(), basis.signs.tobytes(), basis.freqs.tobytes()


@settings(max_examples=200, deadline=None)
@given(point=route_points)
@example(point=(1.004194013496052, 0.34906544603570067, 4.0 * 0.34906544603570067 / 3.0,
                1.0, PenningQuadrupole))
@example(point=(0.0, 1.0, 4.0 / 3.0, 1.0, PenningQuadrupole))
@example(point=(0.0, 1.0, 2.0, 0.0, IsotropicOscillator))
def test_normal_mode_basis_matches_numpy_reference_bit_for_bit(point):
    # the examples: a near Krein collision and two axisymmetric points, whose
    # rows' largest components tie
    b, b0, w0, omega, binding_cls = point
    spec = classify(J6 @ build_G(SystemParams(b=b, b0=b0, w0=w0, omega=omega), binding_cls(w0)).S)
    assume(spec.classification is Classification.CONFINED)
    want = _basis_outcome(numpy_reference.normal_mode_basis, spec)
    assert _basis_outcome(normal_mode_basis, spec) == want
    assert len(want) == 3


component = st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(vectors=st.lists(st.lists(component, min_size=6, max_size=6), min_size=3, max_size=3),
       signs=st.lists(st.sampled_from([-1, 1]), min_size=3, max_size=3))
@example(vectors=[[0j, 0j, 1j, 0j, 1 + 1j, 0.125 + 1j], [0j, 0j, 1j, 0j, 0j, 2 + 0j],
                  [0j, 1 + 0j, 0j, 0j, 0j, 0j]], signs=[-1, -1, -1])
@example(vectors=[[1 + 0j, 0j, 0j, 1j, 0j, 0j], [0j, 1 + 0j, 0j, 0j, 1j, 0j],
                  [1 + 0j, 0j, 0j, 1j, 0j, 0j]], signs=[1, 1, 1])
def test_commutator_failure_matches_numpy_reference(vectors, signs):
    # three vectors that are not a Hamiltonian matrix's eigenvectors, with
    # signs drawn apart from their forms, fail the commutator check (or an
    # earlier division) with the reference's text. The examples: deviations
    # that tie but for the last bit of a complex magnitude, which Python's
    # abs and NumPy's differ in, and a third vector equal to the first, whose
    # zero form gives a NaN row with a NaN pivot magnitude and NaN deviations
    modes = tuple(Mode(freq=1.0, krein_sign=s, eigvec=np.array(v))
                  for s, v in zip(signs, vectors))
    spec = ModeSpectrum(Classification.CONFINED, modes, np.zeros(6, dtype=complex))
    with np.errstate(divide="ignore", invalid="ignore"):
        assert _basis_outcome(normal_mode_basis, spec) == _basis_outcome(
            numpy_reference.normal_mode_basis, spec)


def _dual_basis_perturbative(S, freqs):
    """The perturbative route before the symplectic form: left eigenvectors
    as the rows of the inverse right-eigenvector matrix."""
    ev, VR = np.linalg.eig(J6 @ S)
    VRi = np.linalg.inv(VR)
    dL = -J6 @ _SL3
    idx = [int(np.argmin(np.abs(ev - 1j * w))) for w in freqs]
    return np.array([(VRi[i] @ dL @ VR[:, i]).imag for i in idx])


@settings(max_examples=100, deadline=None)
@given(point=route_points)
def test_perturbative_route_matches_dual_basis_reference(point):
    b, b0, w0, omega, binding_cls = point
    S = build_G(SystemParams(b=b, b0=b0, w0=w0, omega=omega), binding_cls(w0)).S
    spec = classify(J6 @ S)
    assume(spec.classification is Classification.CONFINED)
    gaps = np.diff(np.sort(spec.raw_eigenvalues.imag))
    assume(min(gaps.min(), spec.freqs.min()) >= 0.05)
    got = _dmodes_perturbative(S, spec.freqs)
    want = _dual_basis_perturbative(S, spec.freqs)
    assert np.all(np.abs(got - want) <= 1e-12 * (1.0 + np.abs(want)))


def _energy_form_coeffs(spec, S):
    """Ladder rows from the energy form, as ``normal_mode_basis`` built them
    before the symplectic form: S v / sqrt(freq |v^H S v|), with the largest
    component made real and positive."""
    rows = []
    for mode in spec.modes:
        v = mode.eigvec
        c = S @ v / math.sqrt(mode.freq * abs(np.real(np.conj(v) @ S @ v)))
        p = int(np.argmax(np.abs(c)))
        rows.append(c * np.conj(c[p]) / abs(c[p]))
    return np.array(rows)


# (alpha, alpha0) inside the default map's two Confined windows at omega = 1,
# alpha0 in [1.7, 3] with alpha up to 0.3 alpha0 and the band alpha0 in
# [0.42, 0.68], or free over [0, 3]^2: about three in four examples are
# Confined with every gap and frequency >= 0.05, against 29% for the free
# draw alone
loop_mode_points = st.one_of(
    st.tuples(st.floats(0.0, 0.3), st.floats(1.7, 3.0)).map(lambda t: (t[0] * t[1], t[1])),
    st.tuples(field, st.floats(0.42, 0.68)),
    st.tuples(field, field),
)


@settings(max_examples=100, deadline=None)
@given(point=loop_mode_points)
def test_normal_mode_basis_has_ladder_commutators(point):
    alpha, alpha0 = point
    S = build_G(SystemParams.penning_loop(b0=alpha0, b=alpha, omega=1.0)).S
    spec = classify(J6 @ S)
    assume(spec.classification is Classification.CONFINED)
    gaps = np.diff(np.sort(spec.raw_eigenvalues.imag))
    assume(min(gaps.min(), spec.freqs.min()) >= 0.05)
    basis = normal_mode_basis(spec, S)
    C, D = basis.ladder_commutators()
    # [A_i, A_j^dag] = eps_j delta_ij and [A_i, A_j] = 0
    assert np.abs(C - np.diag(basis.signs)).max() <= 1e-9
    assert np.abs(D).max() <= 1e-9
    want = _energy_form_coeffs(spec, S)
    # where a row's two largest components tie (alpha = 0 is axisymmetric),
    # rounding picks the phase pivot: compare such rows up to a unit phase
    top2 = -np.sort(-np.abs(want), axis=1)[:, :2]
    tied = top2[:, 1] > (1.0 - 1e-9) * top2[:, 0]
    overlap = np.sum(np.conj(want) * basis.coeffs, axis=1)
    want[tied] *= (overlap / np.abs(overlap))[tied, None]
    assert np.abs(basis.coeffs - want).max() <= 1e-11 * np.abs(want).max()


def _operator_basis_coefficients(Q, basis):
    """Per-mode coefficients (q, q0) of <Q> = sum q_i (n_i + 1/2) + q0 as
    ``phases`` formed them before the per-mode form: Q in the (A, A^dag)
    operator basis, Cinv^T Q Cinv, with Cinv the inverse of the ladder rows."""
    Cinv = np.linalg.inv(np.vstack([basis.coeffs, np.conj(basis.coeffs)]))
    M = Cinv.T @ Q @ Cinv
    d12, d21 = np.diag(M[:3, 3:]), np.diag(M[3:, :3])
    return 0.5 * np.real(d12 + d21), float(np.sum(basis.signs * np.real(d12 - d21)) / 4.0)


@settings(max_examples=100, deadline=None)
@given(
    point=route_points,
    observable=st.sampled_from(["L3", "S", "random"]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_mode_weights_match_operator_basis_reference(point, observable, seed):
    b, b0, w0, omega, binding_cls = point
    S = build_G(SystemParams(b=b, b0=b0, w0=w0, omega=omega), binding_cls(w0)).S
    spec = classify(J6 @ S)
    assume(spec.classification is Classification.CONFINED)
    gaps = np.diff(np.sort(spec.raw_eigenvalues.imag))
    assume(min(gaps.min(), spec.freqs.min()) >= 0.05)
    basis = normal_mode_basis(spec, S)
    A = np.random.default_rng(seed).normal(size=(6, 6))
    Q = {"L3": _SL3, "S": S, "random": A + A.T}[observable]
    q = _mode_weights(Q, basis)
    want, q0 = _operator_basis_coefficients(Q, basis)
    assert np.all(np.abs(q - want) <= 1e-12 * (1.0 + np.abs(q)))
    # the constant term the operator basis leaves vanishes for symmetric Q
    assert abs(q0) <= 1e-13 * (1.0 + np.abs(q).sum())


@settings(max_examples=50, deadline=None)
@given(alpha0=field, seed=st.integers(min_value=0, max_value=2**32 - 1))
@example(alpha0=2.0, seed=0)
@example(alpha0=1.3, seed=1)
@example(alpha0=0.4, seed=2)
def test_normal_mode_basis_ignores_eigenvector_phases(alpha0, seed):
    # at alpha = 0 (axisymmetric) two components of a row tie in magnitude;
    # the phase pivot must not let rounding choose between them
    S = build_G(SystemParams.penning_loop(b0=alpha0, b=0.0, omega=1.0)).S
    spec = classify(J6 @ S)
    assume(spec.classification is Classification.CONFINED)
    gaps = np.diff(np.sort(spec.raw_eigenvalues.imag))
    assume(min(gaps.min(), spec.freqs.min()) >= 0.05)
    turns = np.exp(2j * np.pi * np.random.default_rng(seed).uniform(size=3))
    turned = dataclasses.replace(spec, modes=tuple(
        dataclasses.replace(mode, eigvec=mode.eigvec * turn)
        for mode, turn in zip(spec.modes, turns)
    ))
    want = normal_mode_basis(spec, S).coeffs
    assert np.abs(normal_mode_basis(turned, S).coeffs - want).max() <= 1e-12


@settings(max_examples=100, deadline=None)
@given(
    alpha=st.one_of(st.just(0.0), st.floats(min_value=-7.0, max_value=0.5).map(lambda e: 10.0**e)),
    alpha0=st.floats(min_value=-7.0, max_value=-4.0).map(lambda e: 10.0**e),
    n=st.tuples(*[st.integers(min_value=0, max_value=3)] * 3),
)
@example(alpha=0.0, alpha0=1e-5, n=(1, 0, 0))
def test_fast_rotation_corner_has_a_basis_and_phases(alpha, alpha0, n):
    # for alpha0 <= 1e-4 the two fast modes sit at 1 +- O(alpha0) with
    # opposite Krein signs and symplectic forms of O(alpha0): the eigensolver's
    # cross form between them, divided by theirs, broke the commutator check
    # until the modes were J-orthogonalised
    params = _loop_point(alpha, alpha0)
    S = build_G(params).S
    spec = classify(J6 @ S)
    assume(spec.classification is Classification.CONFINED)
    basis = normal_mode_basis(spec, S)
    C, D = basis.ladder_commutators()
    assert np.abs(C - np.diag(basis.signs)).max() <= 1e-9
    assert np.abs(D).max() <= 1e-9
    # aa_phase raises unless eq7 = eq8 within 1e-6 (1 + |eq8|)
    report = aa_phase(params, PenningQuadrupole(params.w0), FockLabel(*n))
    eq7, eq8 = report.aa_phase_eq7, report.aa_phase_eq8
    assert abs(eq7 - eq8) <= 1e-6 * (1.0 + abs(eq8))


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


@settings(max_examples=200, deadline=None)
@given(
    alpha=field,
    # alpha0 = 3/4 is the zero-mode line: Boundary for most alpha
    alpha0=st.one_of(field, st.just(0.75)),
    t=st.floats(min_value=0.0, max_value=5.0),
)
@example(alpha=0.3, alpha0=0.55, t=5.0)  # Confined
@example(alpha=0.3, alpha0=0.8, t=5.0)  # Unconfined
@example(alpha=0.0, alpha0=0.0, t=5.0)  # Boundary
def test_flow_map_is_symplectic(alpha, alpha0, t):
    # Lambda = J S with S symmetric is Hamiltonian, so M = exp(Lambda t)
    # keeps the symplectic form at every class of point: M^T J M = J
    S = build_G(_loop_point(alpha, alpha0)).S
    M = flow_map(J6 @ S, t)
    assert np.abs(M.T @ J6 @ M - J6).max() <= 1e-9 * (1.0 + np.linalg.norm(M) ** 2)
