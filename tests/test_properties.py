"""Property tests: one generator assembly for points and batches, its
always-zero entries, the mu-cubic read off its six entries equal to the
general nine-entry formula, the loop's mu-cubic and norm from its row terms
and b^2 equal to the exact ones and to the generic ones, the eigenvalue rule
equal bit for bit to reference predicates written apart from it, one
confinement rule for the pointwise and
grid classifiers and the batched scan predicate, grid cells certified from
the mu-cubic labelled as the eigenvalue rule labels them, the batched bisection rounds
equal to the one-halving-per-call loop, the mu-cubic's implicit derivative
equal to the determinant-based one and to the other two derivative routes,
the perturbative route equal to the dual-basis one, the ladder commutators of
the normal-mode basis, its agreement with the energy-form coefficients and its
phase convention's indifference to eigenvector phases, the per-mode quadratic
forms equal to the operator-basis ones, the geometric phases' invariance under
a change of time unit, and the symplecticity of the oracle's flow map."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
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
    normal_mode_basis,
)
from conftest import route_spread
from dynamics_oracle import flow_map
from penphase import sweep
from penphase.model import _generator, _mu_cubic, build_L3_form
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
from penphase.sweep import _bisect, _classify_grid, _loop_codes

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


#: Critical ratio in closed form: at omega = 0 on the loop, k^2 is the small
#: positive root of 9 x^3 - 14 x^2 - 119 x + 8.
K_CR = math.sqrt(min(r.real for r in np.roots([9.0, -14.0, -119.0, 8.0]) if r.real > 0))


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


def test_default_grid_stacks_only_zero_mode_and_collision_cells(kernel_counts):
    # with the CLI's resolution margin, the cells the margin alone makes
    # Boundary are certified too; only cells beside a zero mode or a mode
    # collision (797 of 361,201) reach the eigensolver
    rows, _ = kernel_counts
    grid = sweep.GridSpec()
    gap_floor = sweep.GAP_SLOPE_SCALE * grid.max_step
    sweep._classify_grid(grid.alphas, grid.alpha0s, gap_floor)
    assert 0 < sum(rows) < 1000
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


@settings(max_examples=50, deadline=None)
@given(
    b=st.floats(min_value=0.0, max_value=10.0),
    b0=st.floats(min_value=0.0, max_value=10.0),
    omega=st.sampled_from([0.0, 1.0]),
)
def test_pointwise_margin_certifies_no_boundary(b, b0, omega):
    # with gap_floor 0 the Boundary certificate's band is empty, so the scans
    # keep deciding every Boundary point through the eigensolver
    cubic = sweep._loop_cubic(np.array([b]), np.array([b0]), omega)
    boundary = sweep._certify_cells(*cubic, 0.0)[2]
    assert not boundary.any()


def _sequential_bisect(confined_at, lo, hi, length, tol):
    """The one-halving-per-call bisection loop, over a scalar predicate: the
    reference for the batched rounds of ``sweep._bisect``."""
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
    with_first=st.booleans(),
)
# find_kcr's bracket, which is not dyadic
@example(predicate=lambda k: k < 0.2583129093, lo=0.01, width=0.99, length=0.99, halvings=24,
         spread=1.0, with_first=True)
def test_bisect_rounds_match_sequential_loop(predicate, lo, width, length, halvings, spread,
                                             with_first):
    hi = lo + width
    tol = length * 2.0**-halvings * spread  # about `halvings` halvings
    seen = []

    def batched(xs):
        seen.extend(xs.tolist())
        return np.array([predicate(x) for x in xs.tolist()])

    visited = []
    want = _sequential_bisect(lambda x: visited.append(x) or predicate(x), lo, hi, length, tol)
    assert _bisect(batched, lo, hi, length, tol, batched if with_first else None) == want
    assert set(visited) <= set(seen)


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



@settings(max_examples=100, deadline=None)
@given(
    b=field,
    b0=field,
    w0=field,
    omega=st.one_of(st.just(0.0), st.just(1.0), st.floats(min_value=0.0, max_value=2.0)),
    binding_cls=st.sampled_from([PenningQuadrupole, IsotropicOscillator]),
)
def test_implicit_route_matches_circle_node_reference(b, b0, w0, omega, binding_cls):
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


def _dual_basis_perturbative(S, freqs):
    """The perturbative route before the symplectic form: left eigenvectors
    as the rows of the inverse right-eigenvector matrix."""
    ev, VR = np.linalg.eig(J6 @ S)
    VRi = np.linalg.inv(VR)
    dL = -J6 @ _SL3
    idx = [int(np.argmin(np.abs(ev - 1j * w))) for w in freqs]
    return np.array([(VRi[i] @ dL @ VR[:, i]).imag for i in idx])


@settings(max_examples=100, deadline=None)
@given(
    b=field,
    b0=field,
    w0=field,
    omega=st.one_of(st.just(0.0), st.just(1.0), st.floats(min_value=0.0, max_value=2.0)),
    binding_cls=st.sampled_from([PenningQuadrupole, IsotropicOscillator]),
)
def test_perturbative_route_matches_dual_basis_reference(b, b0, w0, omega, binding_cls):
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


@settings(max_examples=100, deadline=None)
@given(alpha=field, alpha0=field)
def test_normal_mode_basis_has_ladder_commutators(alpha, alpha0):
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
    b=field,
    b0=field,
    w0=field,
    omega=st.one_of(st.just(0.0), st.just(1.0), st.floats(min_value=0.0, max_value=2.0)),
    binding_cls=st.sampled_from([PenningQuadrupole, IsotropicOscillator]),
    observable=st.sampled_from(["L3", "S", "random"]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_mode_weights_match_operator_basis_reference(b, b0, w0, omega, binding_cls,
                                                     observable, seed):
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
