import hashlib
import io
import math
import os
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import ndimage

from penphase import (
    Classification,
    DomainError,
    GridSpec,
    J6,
    MultiCrossingError,
    PenningQuadrupole,
    SystemParams,
    build_G,
    classify,
    curve_fig2,
    find_kcr,
    refine_boundary,
    sweep_fig1,
)
from conftest import K_CR, SLOW_MODE_POINT
from penphase import svgplot, sweep
from penphase.phases import _dmodes_perturbative
from penphase.spectral import _gap_tol, _rule
from penphase.sweep import RegionMap, _classify_grid, _label_regions


def loop_classification(alpha, alpha0):
    p = SystemParams.penning_loop(b0=alpha0, b=alpha, omega=1.0)
    return classify(J6 @ build_G(p).S).classification


@pytest.fixture(scope="module")
def small_map():
    return sweep_fig1(GridSpec(alpha_steps=300, alpha0_steps=300))


@pytest.fixture(scope="module")
def loop_table():
    return curve_fig2(np.linspace(0.01, 1.0, 120), binding="penning")


class TestSweepFig1:
    def test_four_confined_two_unconfined(self, small_map):
        assert small_map.n_components == 4
        assert small_map.n_unconfined_regions == 2
        assert not small_map.auto_extended

    def test_refinement_keeps_component_count(self, small_map):
        finer = sweep_fig1(GridSpec(alpha_steps=600, alpha0_steps=600))
        assert finer.n_components == small_map.n_components
        assert finer.n_unconfined_regions == small_map.n_unconfined_regions

    def test_component_ids_partition_confined_cells(self, small_map):
        confined = small_map.classes == "C"
        assert np.all(small_map.component[confined] > 0)
        assert np.all(small_map.component[~confined] == -1)

    def test_axis_slice_matches_dedicated_1d(self, small_map):
        # alpha = 0 column against an independent 1-D classification pass
        col = small_map.classes[:, 0]
        codes = _classify_grid(np.array([0.0]), small_map.alpha0s, small_map.gap_floor)
        assert np.array_equal(col, codes[:, 0])
        # the b = 0 line is never unstable
        assert set(col) <= {"C", "B"}

    def test_alpha_axis_matches_dedicated_1d(self, small_map):
        row = small_map.classes[0, :]
        codes = _classify_grid(small_map.alphas, np.array([0.0]), small_map.gap_floor)
        assert np.array_equal(row, codes[0, :])

    def test_slow_mode_cell_confined(self):
        alpha, alpha0 = SLOW_MODE_POINT
        codes = _classify_grid(np.array([alpha]), np.array([alpha0]), 0.0)
        assert codes[0, 0] == "C"
        assert loop_classification(alpha, alpha0) is Classification.CONFINED

    def test_origin_is_boundary(self, small_map):
        assert small_map.classes[0, 0] == "B"

    def test_pool_without_sched_getaffinity(self, monkeypatch):
        # os.sched_getaffinity is missing on macOS and Windows; there the
        # pool is sized by os.cpu_count
        grid = GridSpec(alpha_steps=60, alpha0_steps=60)
        want = io.StringIO()
        sweep_fig1(grid).to_csv(want)
        calls = []
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: calls.append(1) or 3)
        got = io.StringIO()
        sweep_fig1(grid).to_csv(got)
        assert calls
        assert got.getvalue() == want.getvalue()

    def test_csv_format(self, small_map):
        buf = io.StringIO()
        small_map.to_csv(buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "alpha,alpha0,class,component"
        assert len(lines) == 1 + 301 * 301
        assert lines[1] == "0,0,B,-1"
        # alpha0-major ascending: second row advances alpha
        assert lines[2].startswith("0.01,0,")

    def test_grid_validation(self):
        with pytest.raises(DomainError):
            GridSpec(alpha_steps=0)
        with pytest.raises(DomainError):
            GridSpec(alpha_min=2.0, alpha_max=1.0)
        for steps in (2.5, 20.0, "20", None):
            with pytest.raises(DomainError, match="integers"):
                GridSpec(alpha_steps=steps)
            with pytest.raises(DomainError, match="integers"):
                GridSpec(alpha0_steps=steps)
        GridSpec(alpha_steps=np.int64(20), alpha0_steps=np.int32(20))

    def test_auto_extension_grows_alpha0_after_alpha_reaches_ten(self):
        rm = sweep_fig1(GridSpec(alpha_max=10.0, alpha_steps=50, alpha0_max=2.0, alpha0_steps=10))
        assert rm.auto_extended and rm.n_components < 4
        assert (rm.grid.alpha_max, rm.grid.alpha_steps) == (10.0, 50)
        assert (rm.grid.alpha0_max, rm.grid.alpha0_steps) == (10.0, 50)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["alpha_min", "alpha_max", "alpha0_min", "alpha0_max"])
    def test_non_finite_extent_rejected(self, field, value):
        with pytest.raises(DomainError, match="finite"):
            GridSpec(**{field: value})

    @pytest.mark.parametrize("value", [math.nan, math.inf, -4.0])
    def test_non_finite_gap_scale_rejected(self, value):
        with pytest.raises(DomainError, match="finite"):
            sweep_fig1(GridSpec(alpha_steps=20, alpha0_steps=20), gap_scale=value)


def test_eig_fallback_codes_do_not_depend_on_the_matrix_eig_sees():
    # Lambda, its transpose and Lambda with rows and columns reversed share one
    # spectrum, so the default map's cells that the mu-cubic leaves to eig must
    # get one code from all three. Exempt are ties: a gap or |lambda| within
    # 1e-12 of the tolerance (at alpha = 0 both equal the floor 0.02).
    grid = GridSpec()
    gap_floor = sweep.GAP_SLOPE_SCALE * grid.max_step
    b, b0 = grid.alphas[None, :], grid.alpha0s[:, None]
    rest = ~np.logical_or.reduce(sweep._certify_cells(*sweep._loop_cubic(b, b0, 1.0), gap_floor))
    b, b0 = (np.broadcast_to(x, rest.shape)[rest] for x in (b, b0))
    # the zero-mode rows alpha0 = 3/4 and 3/2 are decided by rule; 12 of the
    # 16 cells left lie at alpha = 0
    assert len(b) == 16 and np.count_nonzero(b == 0.0) == 12
    assert not np.any((b0 == 0.75) | (b0 == 1.5))
    curvatures = PenningQuadrupole(4.0 * b0 / 3.0).curvatures()
    Lam = J6 @ sweep._generator(b, b0, 1.0, curvatures, b.shape)
    scale = np.sqrt((Lam**2).sum(axis=(-2, -1)))
    tau = _gap_tol(scale, gap_floor)
    codes, tie = [], np.zeros(len(b), dtype=bool)
    for L in (Lam, np.swapaxes(Lam, -1, -2), Lam[..., ::-1, ::-1]):
        ev = np.linalg.eigvals(L)
        unconfined, separated = _rule(ev, scale, gap_floor)
        codes.append(np.where(unconfined, "U", np.where(separated, "C", "B")))
        gaps = np.diff(np.sort(ev.imag, axis=-1), axis=-1).min(axis=-1)
        tie |= (np.abs(gaps - tau) < 1e-12) | (np.abs(np.abs(ev).min(axis=-1) - tau) < 1e-12)
    assert np.array_equal(_classify_grid(grid.alphas, grid.alpha0s, gap_floor)[rest], codes[0])
    assert np.count_nonzero(tie) < 20
    for other in codes[1:]:
        assert np.array_equal(other[~tie], codes[0][~tie])


def _mixed_region_map():
    """A small map with C, U and B cells, runs of every length from one cell
    to a whole row, and several component ids."""
    classes = np.array([
        list("CCUUBBCCC"),
        list("CUBCUBCUB"),
        list("BBBBBBBBB"),
        list("UUCCCCBBU"),
        list("CBBBBBBBC"),
    ])
    component = np.full(classes.shape, -1, dtype=np.int32)
    component[classes == "C"] = [1, 1, 2, 2, 2, 1, 3, 2, 4, 4, 4, 4, 5, 12]
    grid = GridSpec(alpha_min=0.1, alpha_max=2.9, alpha_steps=8,
                    alpha0_min=0.0, alpha0_max=1.7, alpha0_steps=4)
    return RegionMap(grid=grid, classes=classes, component=component, n_components=12,
                     n_unconfined_regions=3, auto_extended=False, gap_floor=0.1)


def _cells_map(classes, component, alphas, alpha0s):
    """A RegionMap over the given cells; the renderers read only the sample
    coordinates of its grid, so any one-row or one-column shape works."""
    grid = types.SimpleNamespace(alphas=np.asarray(alphas), alpha0s=np.asarray(alpha0s))
    return RegionMap(grid=grid, classes=np.asarray(classes), component=np.asarray(component),
                     n_components=0, n_unconfined_regions=0, auto_extended=False, gap_floor=0.0)


@st.composite
def cell_maps(draw, min_side=1):
    """Small maps whose Confined cells carry ids 1-3, so neighbouring
    Confined cells often differ only in their component. With min_side 2 the
    end samples of each axis lie at least 1e-3 apart, so the SVG's pixel map
    (x - first) / (last - first) stays finite."""
    rows, cols = draw(st.integers(min_side, 6)), draw(st.integers(min_side, 8))
    classes = np.array(draw(st.lists(st.sampled_from("CUB"), min_size=rows * cols,
                                     max_size=rows * cols))).reshape(rows, cols)
    ids = np.array(draw(st.lists(st.integers(1, 3), min_size=rows * cols,
                                 max_size=rows * cols))).reshape(rows, cols)
    coord = st.floats(min_value=-1e3, max_value=1e3)

    def axis(n):
        return draw(st.lists(coord, min_size=n, max_size=n).filter(
            lambda xs: min_side == 1 or abs(xs[-1] - xs[0]) >= 1e-3))

    alphas, alpha0s = axis(cols), axis(rows)
    component = np.where(classes == "C", ids, -1).astype(np.int32)
    return _cells_map(classes, component, alphas, alpha0s)


def _loop_csv(rm, stream):
    """Per-cell reference rendering of RegionMap.to_csv."""
    stream.write("alpha,alpha0,class,component\n")
    alphas, alpha0s = rm.alphas, rm.alpha0s
    for i in range(len(alpha0s)):
        a0 = f"{alpha0s[i]:.17g}"
        row_cls = rm.classes[i]
        row_comp = rm.component[i]
        for j in range(len(alphas)):
            stream.write(f"{alphas[j]:.17g},{a0},{row_cls[j]},{row_comp[j]}\n")


def _loop_svg(rm, stream):
    """Cell-by-cell run scan reference rendering of svgplot.region_map_svg."""
    cv = svgplot._Canvas(640, 640)
    alphas, alpha0s = rm.alphas, rm.alpha0s
    to_px = svgplot._axes(cv, alphas[0], alphas[-1], alpha0s[0], alpha0s[-1], "alpha", "alpha0")
    x_left, _ = to_px(alphas[0], alpha0s[0])
    x_right, _ = to_px(alphas[-1], alpha0s[0])
    cell_w = (x_right - x_left) / max(len(alphas) - 1, 1)
    _, y_bot = to_px(alphas[0], alpha0s[0])
    _, y_top = to_px(alphas[0], alpha0s[-1])
    cell_h = (y_bot - y_top) / max(len(alpha0s) - 1, 1)
    for i in range(len(alpha0s)):
        row = rm.classes[i]
        _, y = to_px(alphas[0], alpha0s[i])
        j = 0
        while j < len(row):
            j2 = j
            while j2 + 1 < len(row) and row[j2 + 1] == row[j]:
                j2 += 1
            x, _ = to_px(alphas[j], alpha0s[i])
            cv.rect(x - cell_w / 2, y - cell_h / 2, cell_w * (j2 - j + 1), cell_h,
                    svgplot._CLASS_COLORS[str(row[j])])
            j = j2 + 1
    cv.text(cv.width - svgplot._MARGIN_R - 4, svgplot._MARGIN_T - 4,
            "C confined / U unconfined / B boundary", anchor="end", size=10)
    cv.render(stream)


def _assert_labels_match_ndimage(codes):
    component, n, n_unconfined = _label_regions(codes)
    four = ndimage.generate_binary_structure(2, 1)
    want, n_want = ndimage.label(codes == "C", structure=four)
    assert n == n_want
    assert component.dtype == np.int32
    assert np.array_equal(component, np.where(want > 0, want, -1))
    rest, _ = ndimage.label(codes != "C", structure=four)
    assert n_unconfined == len(set(rest[codes == "U"].tolist()))


class TestLabel4:
    """The region labeller against scipy.ndimage.label with 4-connectivity:
    the same Confined components, numbered in the same raster order, and as
    many Unconfined regions as there are components of the non-Confined cells
    that hold an Unconfined cell."""

    @settings(max_examples=200, deadline=None)
    @given(
        rows=st.integers(min_value=1, max_value=40),
        cols=st.integers(min_value=1, max_value=40),
        weights=st.tuples(*[st.integers(min_value=0, max_value=4)] * 3).filter(any),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_matches_ndimage(self, rows, cols, weights, seed):
        p = np.array(weights) / sum(weights)
        codes = np.random.default_rng(seed).choice(np.array(list("CUB")), (rows, cols), p=p)
        _assert_labels_match_ndimage(codes)

    @pytest.mark.parametrize(
        "mask",
        [
            np.zeros((5, 7), dtype=bool),
            np.ones((5, 7), dtype=bool),
            np.array([[1, 1, 0, 1, 0, 0, 1, 1, 1]], dtype=bool),
            np.array([[1, 1, 0, 1, 0, 0, 1, 1, 1]], dtype=bool).T,
            np.indices((8, 9)).sum(axis=0) % 2 == 0,
        ],
        ids=["all_false", "all_true", "single_row", "single_column", "checkerboard"],
    )
    def test_fixed_masks(self, mask):
        _assert_labels_match_ndimage(np.where(mask, "C", "U"))


class TestRendering:
    @pytest.mark.parametrize("render, reference", [
        (lambda rm, s: rm.to_csv(s), _loop_csv),
        (svgplot.region_map_svg, _loop_svg),
    ], ids=["csv", "svg"])
    def test_matches_per_cell_loop(self, render, reference):
        rm = _mixed_region_map()
        got, want = io.StringIO(), io.StringIO()
        render(rm, got)
        reference(rm, want)
        assert got.getvalue() == want.getvalue()

    @settings(max_examples=200, deadline=None)
    @given(rm=cell_maps())
    # one row whose Confined run breaks on the component alone
    @example(rm=_cells_map([list("CCCUC")], [[1, 1, 2, -1, 2]], [0.0, 0.1, 0.2, 0.3, 0.4], [1.5]))
    # one column
    @example(rm=_cells_map([["C"], ["C"], ["B"]], [[1], [2], [-1]], [0.25], [0.0, 1.0, 2.0]))
    def test_csv_matches_per_cell_loop_on_random_maps(self, rm):
        got, want = io.StringIO(), io.StringIO()
        rm.to_csv(got)
        _loop_csv(rm, want)
        assert got.getvalue() == want.getvalue()

    @settings(max_examples=200, deadline=None)
    @given(rm=cell_maps(min_side=2))
    # a one-sample axis has no extent to map to pixels, so the thinnest maps
    # drawn are two rows (one of whose Confined runs breaks on the component
    # alone, which the SVG ignores) and two columns
    @example(rm=_cells_map([list("CCCUC"), list("UBBCC")], [[1, 1, 2, -1, 2], [-1, -1, -1, 3, 3]],
                           [0.0, 0.1, 0.2, 0.3, 0.4], [1.5, 1.6]))
    @example(rm=_cells_map([["C", "U"], ["C", "B"], ["B", "B"]], [[1, -1], [2, -1], [-1, -1]],
                           [0.25, 0.5], [0.0, 1.0, 2.0]))
    def test_svg_matches_per_cell_loop_on_random_maps(self, rm):
        got, want = io.StringIO(), io.StringIO()
        svgplot.region_map_svg(rm, got)
        _loop_svg(rm, want)
        assert got.getvalue() == want.getvalue()


class TestRefineBoundary:
    def test_single_crossing(self):
        point = refine_boundary((0.3, 0.55), (0.3, 0.8), tol=1e-12)
        # the returned point straddles the classification flip
        a, a0 = point
        assert loop_classification(a, a0 - 1e-9) is Classification.CONFINED
        assert loop_classification(a, a0 + 1e-9) is not Classification.CONFINED
        # growth rate at the located boundary is tiny (square-root unfolding)
        p = SystemParams.penning_loop(b0=a0, b=a, omega=1.0)
        ev = np.linalg.eigvals(J6 @ build_G(p).S)
        assert np.abs(ev.real).max() < 1e-4

    def test_requires_mixed_endpoints(self):
        with pytest.raises(DomainError):
            refine_boundary((0.2, 0.2), (0.2, 0.3), tol=1e-6)
        with pytest.raises(DomainError):
            refine_boundary((0.3, 0.8), (0.3, 0.55), tol=1e-6)

    @pytest.mark.parametrize("point", [(0.3, 0.55), (0.0, 0.0)])
    def test_coincident_endpoints_rejected(self, point):
        # a segment of length 0 has no crossing to bisect toward
        with pytest.raises(DomainError, match="zero length"):
            refine_boundary(point, point, tol=1e-6)

    def test_endpoints_must_be_pairs(self):
        with pytest.raises(DomainError, match="pairs"):
            refine_boundary((0.3, 0.55, 1.0), (0.3, 0.8, 1.0), tol=1e-6)

    def test_multi_crossing_detected(self):
        with pytest.raises(MultiCrossingError):
            refine_boundary((0.45, 0.1), (0.45, 0.9), tol=1e-6)

    # 1e200 is finite, but its square overflows
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 1e200])
    @pytest.mark.parametrize("coord", range(4))
    def test_non_finite_endpoint_rejected(self, coord, value):
        coords = [0.3, 0.55, 0.3, 0.8]
        coords[coord] = value
        with pytest.raises(DomainError, match="parameters must be finite"):
            refine_boundary(coords[:2], coords[2:], tol=1e-6)

    def test_negative_coordinates_folded(self):
        point = refine_boundary((0.3, 0.55), (0.3, 0.8), tol=1e-9)
        mirrored = refine_boundary((-0.3, -0.55), (-0.3, -0.8), tol=1e-9)
        assert mirrored == (-point[0], -point[1])

    @pytest.mark.parametrize("tol", [
        math.nan, math.inf, 0.0, -1e-6, 1e-6j, 1e-6 + 0j, np.complex128(1e-6), "1e-6", None,
    ])
    def test_bad_tolerance_rejected(self, tol):
        with pytest.raises(DomainError, match="tolerance"):
            refine_boundary((0.3, 0.55), (0.3, 0.8), tol=tol)

    # Exact results of the one-halving-per-call bisection. tol = 0.5 bisects
    # once, the 1e6 segment 40 times; the last two segments are seeded
    # perfbench ones.
    @pytest.mark.parametrize("p0, p1, tol, want", [
        ((0.3, 0.55), (0.3, 0.8), 1e-6, (0.3, 0.750000286102295)),
        ((0.3, 0.55), (0.3, 0.8), 1e-12, (0.3, 0.7499999999993634)),
        ((-0.3, -0.55), (-0.3, -0.8), 1e-9, (-0.3, -0.7499999997206033)),
        ((0.3, 0.55), (0.3, 0.8), 0.5, (0.3, 0.7375)),
        ((0.3, 0.55), (0.3, 1e6), 1e-6, (0.3, 2710.753478776718)),
        ((0.9809168298166822, 2.961830530013777), (1.2247436381136185, 2.7018427827122395),
         1e-6, (1.1042586741386504, 2.8303135385998006)),
        ((0.5541946705032447, 0.5815936467129321), (0.6983194004446276, 0.24169361424808444),
         1e-6, (0.6525210218434404, 0.3497033248627176)),
    ])
    def test_pinned_results(self, p0, p1, tol, want):
        got = refine_boundary(p0, p1, tol=tol)
        assert got == want
        assert all(type(x) is float for x in got)


class TestScanKernelCalls:
    """The scans classify one point at a time through ``sweep._loop_code``:
    the grid's batched certificate is never called, a point whose mu-cubic
    roots clear the slack never reaches the eigensolver, and
    ``refine_boundary`` classifies no point twice. ``curve_fig2`` sends the
    eigensolver only the rows its survivor certificate leaves."""

    @pytest.fixture
    def calls(self, monkeypatch):
        names = []
        for name in ("_certify_cells", "_eig_classes"):
            kernel = getattr(sweep, name)
            monkeypatch.setattr(
                sweep, name, lambda *args, name=name, kernel=kernel: (
                    names.append(name) or kernel(*args)
                ),
            )
        return names

    def test_refine_boundary(self, calls):
        assert refine_boundary((0.3, 0.55), (0.3, 0.8), tol=1e-6) == (0.3, 0.750000286102295)
        assert calls == []

    def test_find_kcr(self, calls):
        assert find_kcr(tol=1e-7).k_cr == 0.25831293195486066
        assert calls == []

    def test_curve_fig2_past_the_collision(self, calls):
        # every k of [0.3, 1] has one stable mode, certified by the mu-cubic
        table = curve_fig2(np.linspace(0.3, 1.0, 16))
        assert not table.stable23.any()
        assert calls == []

    def test_curve_fig2_beside_the_collision(self, calls):
        # 1e-12 past k_cr the pair's |Re lambda| (6.2e-7) lies between tau
        # (4.3e-7) and tau + slack (4.7e-6), so the row goes to eig
        table = curve_fig2([K_CR + 1e-12])
        assert not table.stable23[0] and np.isfinite(table.dw[0, 0])
        assert calls == ["_eig_classes"]

    def test_curve_fig2_oscillator_sends_every_row(self, monkeypatch):
        # three real roots on every row: nothing is certified
        rows = []
        eig_classes = sweep._eig_classes
        monkeypatch.setattr(sweep, "_eig_classes", lambda S: rows.append(len(S)) or eig_classes(S))
        curve_fig2(binding="oscillator")
        assert rows == [500]

    @pytest.mark.parametrize("p0, p1, tol", [
        ((0.3, 0.55), (0.3, 0.8), 1e-6),
        ((0.3, 0.55), (0.3, 0.8), 0.5),
        ((-0.3, -0.55), (-0.3, -0.8), 1e-9),
        ((0.3, 0.55), (0.3, 1e6), 1e-6),
        ((0.5541946705032447, 0.5815936467129321), (0.6983194004446276, 0.24169361424808444),
         1e-6),
        ((0.45, 0.1), (0.45, 0.9), 1e-6),  # MultiCrossingError after the pre-scan
    ])
    def test_refine_boundary_classifies_each_point_once(self, monkeypatch, p0, p1, tol):
        # the pre-scan sample s = 0 is p0 and s = 1 is p1, and the first five
        # midpoints are samples s = k / 32, so they add no classification
        points = []
        loop_code = sweep._loop_code
        monkeypatch.setattr(sweep, "_loop_code", lambda b, b0, omega: (
            points.append((abs(b), abs(b0))) or loop_code(b, b0, omega)
        ))
        try:
            refine_boundary(p0, p1, tol=tol)
        except MultiCrossingError:
            pass
        iterations = max(1, math.ceil(math.log2(np.linalg.norm(np.subtract(p1, p0)) / tol)))
        assert len(set(points)) == len(points)
        assert len(points) <= 2 + 32 + max(0, iterations - 5)


@pytest.mark.parametrize("grid, digest", [
    (GridSpec(alpha_steps=1200, alpha0_steps=1200),
     "ec51de20d6b055ea591902b1354c06c1572c142d1af5b03ba602465515152ec6"),
    (GridSpec(0.0, 10.0, 600, 0.0, 10.0, 600),
     "a74b2d4a057356d3d1a479cc92cdf589a0e453532c9223533a8eb8406477db22"),
    (GridSpec(0.0, 1e4, 600, 0.0, 1e4, 600),
     "417dde16715962e7bff2a45daad0a47eaaf061745edb680e1b5d5c6576f6fcd4"),
])
def test_pinned_grid_codes(grid, digest):
    # the class codes of maps beyond the default one (whose CSV the CLI tests
    # pin), at the CLI's resolution margin: a finer grid, a wider window and
    # a window where ||Lambda||_F reaches 1e8
    codes = sweep_fig1(grid, auto_extend=False).classes
    assert hashlib.sha256(codes.astype("S1").tobytes()).hexdigest() == digest


def _tile_peak_per_cell(grid, alphas, alpha0s):
    """Peak traced bytes per cell of one ``_loop_codes`` tile of the grid, at
    the CLI's resolution margin."""
    gap_floor = sweep.GAP_SLOPE_SCALE * grid.max_step
    tracemalloc.start()
    try:
        sweep._loop_codes(alphas, alpha0s, 1.0, gap_floor)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (alphas.size * alpha0s.size)


def test_loop_codes_chunk_memory_per_cell():
    # a tile's certificate works from the loop's row terms and b^2, each
    # coefficient one or two passes over the tile: no 6x6 stack (288 B per
    # cell) for the cells it decides; about 200 B per cell measured on the
    # default map's first tile of 13 whole rows
    grid = GridSpec()
    alphas = grid.alphas[None, :]
    alpha0s = grid.alpha0s[: sweep._CHUNK_CELLS // alphas.size, None]
    assert _tile_peak_per_cell(grid, alphas, alpha0s) < 450


def test_loop_codes_row_piece_memory_per_cell():
    # rows wider than _CHUNK_CELLS are cut into one-row tiles of
    # _CHUNK_CELLS cells; about 180 B per cell measured on the row alpha0 = 1
    # of a grid three tiles wide, and about 145 B on the zero-mode rows
    # alpha0 = 3/4 and 3/2, whose cells the rule decides without a 6x6 stack
    # (910-1,016 B per cell when they went to eig)
    grid = GridSpec(alpha_steps=3 * sweep._CHUNK_CELLS, alpha0_steps=600)
    alphas = grid.alphas[None, : sweep._CHUNK_CELLS]
    for row, alpha0 in ((200, 1.0), (150, 0.75), (300, 1.5)):
        alpha0s = grid.alpha0s[row : row + 1, None]
        assert alpha0s.item() == alpha0
        assert _tile_peak_per_cell(grid, alphas, alpha0s) < 450


def test_classify_grid_tile_memory_per_cell():
    # a tile of the block stage is whole rows holding at most _CHUNK_CELLS
    # blocks (431 rows of the default map's 19 blocks), worked as
    # (row x block) arrays, and the cells of its undecided blocks go through
    # _loop_codes in pieces of at most _CHUNK_CELLS; about 13 B per cell of
    # the tile measured, the codes included
    grid = GridSpec()
    gap_floor = sweep.GAP_SLOPE_SCALE * grid.max_step
    rows = sweep._CHUNK_CELLS // -(-grid.alphas.size // sweep._BLOCK_COLUMNS)
    alpha0s = grid.alpha0s[:rows]
    tracemalloc.start()
    try:
        _classify_grid(grid.alphas, alpha0s, gap_floor)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows == 431
    assert peak / (rows * grid.alphas.size) < 450


@pytest.mark.parametrize("chunk_cells", [1, 5, 7, 30])
def test_grid_tiles_cover_every_cell(monkeypatch, chunk_cells):
    # 1, 5 and 7 split each 11-cell row into capped-width pieces; 30 takes
    # two whole rows per tile and leaves a one-row tile at the end
    alphas, alpha0s = np.linspace(0.0, 3.0, 11), np.linspace(0.0, 3.0, 13)
    gap_floor = 0.02  # the default map's margin, under which all three classes occur
    b0, b = (x.ravel() for x in np.meshgrid(alpha0s, alphas, indexing="ij"))
    want = sweep._loop_codes(b, b0, 1.0, gap_floor).reshape(13, 11)
    assert {"C", "U", "B"} <= set(want.ravel().tolist())
    monkeypatch.setattr(sweep, "_CHUNK_CELLS", chunk_cells)
    assert _classify_grid(alphas, alpha0s, gap_floor).tolist() == want.tolist()


def test_fig1_map_and_csv_memory_per_cell():
    # the map keeps 8 B per cell (<U1 codes and int32 ids); labelling and the
    # CSV work from the runs of each row, so they add a few bool masks, not
    # a second label array
    grid = GridSpec(alpha_steps=1200, alpha0_steps=1200)
    tracemalloc.start()
    try:
        with open(os.devnull, "w") as null:
            sweep_fig1(grid, auto_extend=False).to_csv(null)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * len(grid.alphas) * len(grid.alpha0s)


def test_auto_extension_holds_one_map_at_a_time():
    # [0, 1]^2 at 400 steps grows twice, to [0, 2.25]^2 at 900; each round's
    # map is dropped before the next is classified, so the peak stays within
    # about 1 B per cell of classifying the final window alone
    def peak_per_cell(grid, auto_extend):
        tracemalloc.start()
        try:
            region_map = sweep_fig1(grid, auto_extend=auto_extend)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert region_map.classes.shape == (901, 901)
        return peak / region_map.classes.size

    grown = peak_per_cell(GridSpec(0.0, 1.0, 400, 0.0, 1.0, 400), True)
    final = peak_per_cell(GridSpec(0.0, 2.25, 900, 0.0, 2.25, 900), False)
    assert grown < final + 1.0


class TestFindKcr:
    def test_value_and_bracket(self):
        res = find_kcr(tol=1e-7)
        assert res.k_cr == pytest.approx(0.25831, abs=5e-4)
        lo, hi = res.bracket
        assert hi - lo <= 1e-7
        assert res.iterations == math.ceil(math.log2((1.0 - 0.01) / 1e-7))

    def test_bracket_halving_iteration_count(self):
        res = find_kcr(tol=1e-4)
        assert res.iterations == math.ceil(math.log2(0.99 / 1e-4))
        lo, hi = res.bracket
        assert hi - lo == pytest.approx(0.99 / 2**res.iterations, rel=1e-9)

    def test_tolerance_wider_than_bracket_bisects_once(self):
        res = find_kcr(tol=100)
        assert res.iterations == 1
        lo, hi = res.bracket
        assert hi - lo == pytest.approx(0.495, rel=1e-12)

    def test_sides_of_the_critical_ratio(self):
        res = find_kcr(tol=1e-7)
        for k, expected in [(res.k_cr - 1e-3, Classification.CONFINED),
                            (res.k_cr + 1e-3, Classification.UNCONFINED)]:
            p = SystemParams.penning_loop(b0=1.0, b=k, omega=0.0)
            assert classify(J6 @ build_G(p).S).classification is expected

    def test_colliding_pair_has_opposite_krein_signs(self):
        res = find_kcr(tol=1e-7)
        p = SystemParams.penning_loop(b0=1.0, b=res.k_cr - 1e-4, omega=0.0)
        spec = classify(J6 @ build_G(p).S)
        freqs, signs = spec.freqs, spec.krein_signs
        # the two closest frequencies are the colliding pair
        gaps = {(i, j): abs(freqs[i] - freqs[j]) for i in range(3) for j in range(i + 1, 3)}
        (i, j) = min(gaps, key=gaps.get)
        assert signs[i] * signs[j] == -1

    @pytest.mark.parametrize("tol, k_cr, bracket, iterations", [
        (1e-7, 0.25831293195486066, (0.2583129024505615, 0.25831296145915983), 24),
        (1e-9, 0.25831290936563167, (0.258312908904627, 0.2583129098266363), 30),
        (100, 0.2575, (0.01, 0.505), 1),
    ])
    def test_pinned_result(self, tol, k_cr, bracket, iterations):
        res = find_kcr(tol=tol)
        assert (res.k_cr, res.bracket, res.iterations) == (k_cr, bracket, iterations)

    def test_tolerance_floor(self):
        with pytest.raises(DomainError):
            find_kcr(tol=1e-10)

    @pytest.mark.parametrize("tol", [math.nan, math.inf])
    def test_non_finite_tolerance_rejected(self, tol):
        with pytest.raises(DomainError, match="finite"):
            find_kcr(tol=tol)

    @pytest.mark.parametrize("tol", ["1e-7", 1e-7 + 0j, np.complex128(1e-7), None])
    def test_non_real_tolerance_rejected(self, tol):
        with pytest.raises(DomainError, match="tolerance must be a real number"):
            find_kcr(tol=tol)


class TestCurveFig2:
    def test_row_presence_by_stability(self, loop_table):
        t = loop_table
        k_cr = 0.25831
        below = t.k < k_cr - 5e-3
        above = t.k > k_cr + 5e-3
        assert np.all(t.stable23[below])
        assert not np.any(t.stable23[above])
        assert np.all(np.isfinite(t.dw[below].ravel()))
        assert np.all(np.isfinite(t.dw[above, 0]))
        assert np.all(np.isnan(t.dw[above, 1:]))

    def test_fast_branch_continuous_across_collision(self, loop_table):
        dw1 = loop_table.dw[:, 0]
        assert np.all(np.isfinite(dw1))
        steps = np.abs(np.diff(dw1))
        assert steps.max() < 0.1  # no tracking glitches on the survivor

    def test_column_continuity(self, loop_table):
        # second differences stay comparable to first differences: the mode
        # ordering never swaps inside the stable interval
        t = loop_table
        stable = np.where(t.stable23)[0]
        for col in range(3):
            d = t.dw[stable, col]
            first = np.abs(np.diff(d))
            second = np.abs(np.diff(d, 2))
            assert np.all(second <= 10.0 * np.maximum(first[:-1], first[1:]) + 1e-12)

    def test_stable_rows_match_perturbative_route(self, loop_table):
        # one implicit mu-cubic call over the stack against a per-row
        # eigenvector route
        t = loop_table
        for i in np.flatnonzero(t.stable23):
            S = build_G(SystemParams.penning_loop(b0=1.0, b=t.k[i], omega=0.0)).S
            want = _dmodes_perturbative(S, np.sort(np.linalg.eigvals(J6 @ S).imag)[:2:-1])
            assert np.abs(t.dw[i] - want).max() <= 1e-12 * (1.0 + np.abs(want).max())

    def test_oscillator_columns_proportional_to_cosine(self):
        t = curve_fig2(np.linspace(0.05, 3.0, 60), binding="oscillator")
        assert np.all(t.stable23)
        ratios = t.dw / t.cos_theta[:, None]
        for col, expected in enumerate((-1.0, 0.0, 1.0)):
            assert np.abs(ratios[:, col] - expected).max() < 1e-8

    def test_oscillator_rows_meet_the_tolerance_edge(self):
        # the slow mode, about w0^2 / (2 sqrt(1 + k^2)), falls below the gap
        # tolerance between k = 184.538 and 184.539, and the rows turn Boundary
        t = curve_fig2([150.0, 184.538, 184.539, 200.0], binding="oscillator")
        assert t.stable23.tolist() == [True, True, False, False]
        assert np.isnan(t.dw[2:, 1:]).all() and np.isfinite(t.dw[:, 0]).all()

    def test_loss_of_stability_is_a_krein_collision(self):
        # below k_cr the modes carry the signs (+1, +1, -1), descending, and S
        # has 2 negative eigenvalues, twice the count of -1 signs; the slower
        # two, of opposite sign, meet at k_cr, past which Fig. 2 loses them
        for k in (0.1, 0.25, K_CR - 1e-6):
            S = build_G(SystemParams.penning_loop(b0=1.0, b=k, omega=0.0)).S
            spectrum = classify(J6 @ S)
            assert spectrum.classification is Classification.CONFINED
            assert spectrum.krein_signs.tolist() == [1, 1, -1]
            assert np.count_nonzero(np.linalg.eigvalsh(S) < 0) == 2
        assert spectrum.freqs[1:] == pytest.approx([0.837253, 0.836022], abs=1e-6)
        assert curve_fig2([K_CR - 1e-6, K_CR + 1e-6]).stable23.tolist() == [True, False]

    def test_csv_format(self, loop_table):
        buf = io.StringIO()
        loop_table.to_csv(buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "k,cos_theta,dw1,dw2,dw3,stable23"
        assert len(lines) == 1 + len(loop_table.k)
        # a row beyond the critical ratio carries empty dw2/dw3 fields
        i = int(np.argmax(loop_table.k > 0.5))
        cells = lines[1 + i].split(",")
        assert cells[2] != "" and cells[3] == "" and cells[4] == "" and cells[5] == "false"

    def test_grid_validation(self):
        with pytest.raises(DomainError):
            curve_fig2([0.2, 0.1])
        with pytest.raises(DomainError):
            curve_fig2([-0.1, 0.2])
        with pytest.raises(DomainError, match="k grid must be finite"):
            curve_fig2([0.1, math.inf])
        with pytest.raises(DomainError):
            curve_fig2([0.1], binding="hexapole")

    @pytest.mark.parametrize("grid", [
        [0.1 + 1j, 0.2], [0.1 + 0j, 0.2], np.array([0.1, 0.2], dtype=complex),
        ["a"], ["0.5"], [0.1, "0.2"], 5,
    ])
    def test_non_real_grid_rejected(self, grid):
        with pytest.raises(DomainError, match="k grid must be a sequence of real numbers"):
            curve_fig2(grid)
