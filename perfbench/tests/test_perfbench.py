"""Tests of the benchmark itself: seeded generators, margin rules, output
checks against planted wrong answers, and the runner's plumbing.

Run from the repository root: python3 -m pytest -q perfbench/tests
"""

import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import workloads as wl  # noqa: E402
from penphase import (  # noqa: E402
    J6,
    Classification,
    KcrResult,
    build_G,
    classify,
    find_kcr,
    refine_boundary,
)
from spans import Tracer, direct  # noqa: E402

POOL = 24


@pytest.fixture(autouse=True)
def small_pool(monkeypatch):
    monkeypatch.setattr(wl, "POOL_SIZE", POOL)


def pool(name, seed, tmp_path):
    return wl.WORKLOADS[name].inputs(np.random.default_rng(seed), str(tmp_path))


def flat(inputs):
    """A comparable rendering that keeps every bit of every float."""
    return json.dumps(inputs, default=lambda o: (
        [float(x).hex() for x in o.ravel()] if isinstance(o, np.ndarray)
        else float(o).hex() if isinstance(o, float) else repr(o)),
        sort_keys=True)


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_generators_are_seeded(name, tmp_path):
    first = flat(pool(name, 5, tmp_path))
    assert flat(pool(name, 5, tmp_path)) == first
    assert flat(pool(name, 6, tmp_path)) != first


def margins(alpha, alpha0, omega=1.0):
    spec = classify(J6 @ build_G(wl.loop_params(alpha, alpha0, omega)).S)
    return spec, wl.spectral_margins(spec)


def test_point_inputs_keep_their_margin(tmp_path):
    for inp in pool("point_phases", 7, tmp_path):
        p = inp["params"]
        assert 0.0 <= p.b <= 3.0 and 0.0 <= p.b0 <= 3.0 and p.omega == 1.0
        least = math.inf
        for k in (0,) + wl.POINT_OMEGA_STEPS:
            spec, (_, gap, _) = margins(p.b, p.b0, 1.0 + k * wl.POINT_DELTA_OMEGA)
            assert spec.classification is Classification.CONFINED
            least = min(least, gap, spec.freqs.min())
        assert least == inp["margin"] >= 0.05
        assert all(0 <= n <= 3 for label in inp["labels"]
                   for n in (label.n1, label.n2, label.n3))


def test_scan_inputs_keep_their_margin(tmp_path):
    inputs = pool("scan_1d", 7, tmp_path)
    kinds = [inp[0] for inp in inputs]
    assert kinds.count("kcr") == kinds.count("curve") == POOL // 8
    for inp in inputs:
        if inp[0] == "refine":
            (a0, b0), (a1, b1) = inp[1], inp[2]
            spec0, (_, gap, _) = margins(a0, b0)
            assert spec0.classification is Classification.CONFINED
            assert min(gap, spec0.freqs.min()) >= 0.05
            spec1, (re, _, _) = margins(a1, b1)
            assert spec1.classification is Classification.UNCONFINED
            assert re >= wl.SCAN_MIN_GROWTH
            assert 0.2 <= math.dist(inp[1], inp[2]) <= 0.6
            assert all(0.0 <= v <= 3.0 for v in (a0, b0, a1, b1))
        elif inp[0] == "curve":
            ks = inp[1]
            assert len(ks) == wl.CURVE_POINTS and np.all(np.diff(ks) > 0)
            assert ks[0] >= 0.01 and ks[-1] <= 1.0
            assert np.min(np.abs(ks - wl.K_CR)) > wl.CURVE_K_MARGIN


def test_fig1_sample_is_distinct_cells(tmp_path):
    (inp,) = pool("fig1_grid", 7, tmp_path)
    sample = inp["sample"]
    assert len(set(sample)) == len(sample) == wl.FIG1_SAMPLE
    assert 0 <= min(sample) and max(sample) < wl.FIG1_CELLS


def test_point_rule_rejects_a_collision_within_delta():
    # Confined with margin 0.055 at omega = 1, Unconfined at omega = 1 - delta
    a, a0 = 0.8569222911438517, 1.5086941758185328
    spec, _ = margins(a, a0)
    assert wl.confined_margin(spec) > 0.05
    spec, _ = margins(a, a0, 1.0 - wl.POINT_DELTA_OMEGA)
    assert wl.confined_margin(spec) == 0.0


def test_k_cr_is_the_polynomial_root():
    k = wl.K_CR
    assert abs(9 * k**6 - 14 * k**4 - 119 * k**2 + 8) < 1e-8


# --- checkers reject planted wrong answers -------------------------------

def test_fig1_cell_check_rejects_a_flipped_cell():
    rng = np.random.default_rng(3)
    (a, a0), _ = wl.sample_confined(rng)
    assert wl.fig1_expected_class(a, a0) == "C"
    assert wl.check_fig1_cells([(a, a0, "C")]) == ([], 1)
    problems, checked = wl.check_fig1_cells([(a, a0, "U")])
    assert checked == 1 and len(problems) == 1
    _, u1 = wl.sample_segment(rng)
    assert wl.check_fig1_cells([(*u1, "U")]) == ([], 1)
    assert len(wl.check_fig1_cells([(*u1, "B")])[0]) == 1


def test_fig1_cell_check_skips_cells_within_the_margin():
    # alpha = 0 lies on a collision curve: Boundary pointwise, either label is right
    assert wl.fig1_expected_class(0.0, 1.0) is None
    assert wl.check_fig1_cells([(0.0, 1.0, "B"), (0.0, 1.0, "C")]) == ([], 0)


def test_fig1_summary_check():
    assert wl.check_fig1_summary(wl.FIG1_CELLS, 4, 2, False) == []
    assert wl.check_fig1_summary(wl.FIG1_CELLS - 1, 4, 2, False)
    assert wl.check_fig1_summary(wl.FIG1_CELLS, 3, 2, False)
    assert wl.check_fig1_summary(wl.FIG1_CELLS, 4, 1, False)
    assert wl.check_fig1_summary(wl.FIG1_CELLS, 4, 2, True)


def test_fig1_stdout_parser():
    line = ("confined components: 4; unconfined regions: 2; window alpha<=3 "
            "(auto-extended: false)\n")
    assert wl.parse_fig1_stdout(line) == (4, 2, False)
    assert wl.parse_fig1_stdout("garbage") is None


def test_fig1_csv_reader(tmp_path):
    path = tmp_path / "grid.csv"
    path.write_text("alpha,alpha0,class,component\n"
                    "0,0,B,-1\n0.5,0,C,1\n1,0,U,-1\n0,0.5,C,2\n")
    n_rows, components, picked = wl.read_fig1_csv(str(path), [1, 3])
    assert n_rows == 4 and components == {"1", "2"}
    assert picked == [(0.5, 0.0, "C"), (0.0, 0.5, "C")]


@pytest.fixture(scope="module")
def point_result():
    inp = wl.WORKLOADS["point_phases"].inputs(np.random.default_rng(4), "")[0]
    return inp, wl.WORKLOADS["point_phases"].op(inp, direct)


def test_point_check_accepts_the_program(point_result):
    inp, result = point_result
    assert wl.WORKLOADS["point_phases"].check(inp, result) == []


def test_point_check_rejects_an_eq7_eq8_mismatch(point_result):
    inp, (S, spec, report, shift) = point_result
    bad = dataclasses.replace(report, aa_phase_eq7=report.aa_phase_eq8 + 1e-4)
    assert any("eq7" in p for p in wl.check_point(inp, spec, bad, shift))


def test_point_check_rejects_a_first_order_resonance_error(point_result):
    inp, (S, spec, report, shift) = point_result
    bad = dataclasses.replace(shift, omega_p_exact=shift.omega_p_linear + 1e-2)
    assert any("omega_p" in p for p in wl.check_point(inp, spec, report, bad))


def test_kcr_check():
    assert wl.check_kcr(find_kcr(tol=wl.KCR_TOL)) == []
    off = KcrResult(k_cr=wl.K_CR + 1e-6, bracket=(0.0, 1.0), tol=1e-7, iterations=1)
    assert wl.check_kcr(off)


def test_refine_check():
    p0, p1 = wl.sample_segment(np.random.default_rng(8))
    point = refine_boundary(p0, p1, tol=wl.REFINE_TOL)
    assert wl.check_refine(p0, p1, point) == []
    u = (np.asarray(p1) - np.asarray(p0)) / math.dist(p0, p1)
    assert wl.check_refine(p0, p1, np.asarray(point) + 10 * wl.REFINE_TOL * u)
    assert wl.check_refine(p0, p1, np.asarray(point) - 10 * wl.REFINE_TOL * u)
    normal = np.array([-u[1], u[0]])
    assert wl.check_refine(p0, p1, np.asarray(point) + 10 * wl.REFINE_TOL * normal)


def test_curve_check():
    ks = wl.sample_k_grid(np.random.default_rng(9))
    table = wl.curve_fig2(ks)
    assert wl.check_curve(ks, table) == []
    flipped = table.stable23.copy()
    flipped[0] = not flipped[0]
    assert wl.check_curve(ks, dataclasses.replace(table, stable23=flipped))
    assert wl.check_curve(ks[:-1], table)


# --- runner plumbing ------------------------------------------------------

def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, unit, _, _ in run.LAYER_METRICS]


IMPORTTIME = """\
import time: self [us] | cumulative | imported package
import time:       100 |        100 |       scipy.ndimage._a
import time:        50 |        150 |     scipy.ndimage._b
import time:        10 |         10 |     scipy.ndimage.c
import time:        20 |        180 |   penphase.sweep
import time:         5 |        185 | penphase
import time:         7 |          7 | penphase.cli
"""


def test_importtime_parser():
    roots = run.parse_importtime(IMPORTTIME)
    assert [r[0] for r in roots] == ["penphase", "penphase.cli"]
    assert run.import_cost(roots, "penphase.sweep", "self") == 20
    assert run.import_cost(roots, "scipy.ndimage", "cum") == 160
    assert run.import_cost(roots, "penphase", "cum") == 192
    assert run.import_cost(roots, "scipy.linalg", "cum") == 0


def test_tracer_records_parents_and_requests(tmp_path):
    tr = Tracer()
    with tr.span("op", request=3):
        assert tr("inner", sum, [1, 2]) == 3
        tr.count("things", 2)
    tr("outside", abs, -1)
    op, inner, outside = tr.spans
    assert inner[1] == op[0] and inner[2] == op[2] == 3
    assert outside[1] is None and outside[2] is None
    assert tr.counts == {"things": [2]}
    tr.write(tmp_path / "spans.jsonl")
    lines = (tmp_path / "spans.jsonl").read_text().splitlines()
    assert [json.loads(x)["name"] for x in lines] == ["op", "inner", "outside"]


def test_runner_refuses_a_tree_without_penphase(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    code = run.main(["--workload", "scan_1d", "--seed", "1", "--seconds", "1"])
    out = capsys.readouterr()
    assert code != 0 and out.out == "" and "penphase" in out.err
