"""``scripts/assemble_bench.py`` on synthetic runs: the paired seeds, medians
and the no-regression check of each end-to-end metric, read in its better
direction with an unresolved mark for a spread wider than the bound, and an
error naming any file in the runs directory that is not a run file."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("assemble_bench", ROOT / "scripts" / "assemble_bench.py")
assemble_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(assemble_bench)

END_TO_END = [
    {"name": "op_p50_eig6", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "better": "lower", "bound": 0.1},
    {"name": "ok_ratio", "better": "higher", "bound": 0.01},
]


def _write_runs(runs: Path, workload: str, sides: dict) -> None:
    """sides: {side: {metric: [one value per seed 1, 2, ...]}}"""
    for side, metrics in sides.items():
        for i, values in enumerate(zip(*metrics.values())):
            run = {"metrics": {m: {"value": v} for m, v in zip(metrics, values)}}
            (runs / f"{side}-{workload}-{i + 1}.json").write_text(json.dumps(run))


def _summary(tmp_path, sides, workload="w_1"):
    _write_runs(tmp_path, workload, sides)
    end_to_end = [m for m in END_TO_END if m["name"] in sides["parent"]]
    return assemble_bench.summarize(assemble_bench.read_runs(tmp_path), end_to_end)[workload]


def test_ratios_bounds_and_directions(tmp_path):
    entry = _summary(tmp_path, {
        "parent": {"op_p50_eig6": [10.0, 10.2, 9.8, 10.1, 9.9],
                   "peak_rss_mb": [40.0] * 5, "ok_ratio": [1.0] * 5},
        "change": {"op_p50_eig6": [12.0, 12.4, 11.9, 12.1, 12.2],
                   "peak_rss_mb": [44.4] * 5, "ok_ratio": [0.98] * 5},
    })
    assert entry["seeds"] == [1, 2, 3, 4, 5]
    assert entry["change"]["median"]["op_p50_eig6"] == 12.1
    checks = entry["no_regression"]
    assert checks["op_p50_eig6"]["ratio"] == pytest.approx(1.21)
    assert checks["op_p50_eig6"]["within_bound"] and not checks["op_p50_eig6"]["unresolved"]
    # lower is better: 1.11 > 1 + 0.1; higher is better: 0.98 < 1 - 0.01
    assert not checks["peak_rss_mb"]["within_bound"]
    assert not checks["ok_ratio"]["within_bound"]
    assert checks["ok_ratio"]["parent_iqr_over_median"] == 0.0
    assert entry["op_p50_eig6_pairs_won_by_change"] == "0/5"


def test_spread_wider_than_the_bound_is_unresolved(tmp_path):
    parent = [10.0, 20.0, 10.0, 20.0, 15.0, 10.0, 20.0, 15.0]
    entry = _summary(tmp_path, {
        "parent": {"op_p50_eig6": parent},
        "change": {"op_p50_eig6": [9.0, 21.0, 9.0, 21.0, 14.0, 9.0, 21.0, 14.0]},
    }, workload="wide")
    check = entry["no_regression"]["op_p50_eig6"]
    assert check["parent_iqr_over_median"] > check["bound"]
    assert check["within_bound"] and check["unresolved"]
    # unless every run of the change beats every run of the parent
    entry = _summary(tmp_path, {
        "parent": {"op_p50_eig6": parent},
        "change": {"op_p50_eig6": [9.0] * len(parent)},
    }, workload="wide_won")
    assert not entry["no_regression"]["op_p50_eig6"]["unresolved"]


def test_unpaired_seed_is_left_out(tmp_path):
    entry = _summary(tmp_path, {"parent": {m["name"]: [1.0, 1.0, 1.0] for m in END_TO_END},
                                "change": {m["name"]: [1.0, 1.0] for m in END_TO_END}})
    assert entry["seeds"] == [1, 2]
    assert all(not c["unresolved"] and c["ratio"] == 1.0 for c in entry["no_regression"].values())


@pytest.mark.parametrize("name", ["parent-w-1.log", "base-w-1.json", "change-w-x.json", "notes"])
def test_stray_file_is_named(tmp_path, name):
    _write_runs(tmp_path, "w", {"parent": {"op_p50_eig6": [1.0]}, "change": {"op_p50_eig6": [1.0]}})
    (tmp_path / name).write_text("{}")
    with pytest.raises(ValueError, match=name.replace(".", r"\.")):
        assemble_bench.read_runs(tmp_path)
