import io
import math

import numpy as np
import pytest

from penphase import (
    Classification,
    DomainError,
    GridSpec,
    J6,
    MultiCrossingError,
    SystemParams,
    build_G,
    classify,
    curve_fig2,
    find_kcr,
    refine_boundary,
    sweep_fig1,
)
from penphase import svgplot
from penphase.sweep import RegionMap, _classify_grid


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

    def test_origin_is_boundary(self, small_map):
        assert small_map.classes[0, 0] == "B"

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

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["alpha_min", "alpha_max", "alpha0_min", "alpha0_max"])
    def test_non_finite_extent_rejected(self, field, value):
        with pytest.raises(DomainError, match="finite"):
            GridSpec(**{field: value})

    @pytest.mark.parametrize("value", [math.nan, math.inf, -4.0])
    def test_non_finite_gap_scale_rejected(self, value):
        with pytest.raises(DomainError, match="finite"):
            sweep_fig1(GridSpec(alpha_steps=20, alpha0_steps=20), gap_scale=value)


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

    def test_multi_crossing_detected(self):
        with pytest.raises(MultiCrossingError):
            refine_boundary((0.45, 0.1), (0.45, 0.9), tol=1e-6)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-6])
    def test_bad_tolerance_rejected(self, tol):
        with pytest.raises(DomainError, match="tolerance"):
            refine_boundary((0.3, 0.55), (0.3, 0.8), tol=tol)


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

    def test_tolerance_floor(self):
        with pytest.raises(DomainError):
            find_kcr(tol=1e-10)

    @pytest.mark.parametrize("tol", [math.nan, math.inf])
    def test_non_finite_tolerance_rejected(self, tol):
        with pytest.raises(DomainError, match="finite"):
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

    def test_oscillator_columns_proportional_to_cosine(self):
        t = curve_fig2(np.linspace(0.05, 3.0, 60), binding="oscillator")
        assert np.all(t.stable23)
        ratios = t.dw / t.cos_theta[:, None]
        for col, expected in enumerate((-1.0, 0.0, 1.0)):
            assert np.abs(ratios[:, col] - expected).max() < 1e-8

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
