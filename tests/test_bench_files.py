"""Every committed BENCH_<n>.json at the repository root parses and names what
it measured: for each side of its parent/change comparison, either a commit
hash or, for a change measured before it was committed, its parent commit and
the git tree hash of its ``src/`` directory. Each workload holds both sides'
medians of the end-to-end metrics and the seeds they were run on. A file with
a ``no_regression`` check (written by ``scripts/assemble_bench.py``) checks
every end-to-end metric BENCHMARK.json names, with the ratio of the medians."""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))
HASH = re.compile(r"[0-9a-f]{40}")
END_TO_END = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]


def _names_code(side):
    if HASH.fullmatch(side.get("commit") or ""):
        return True
    return all(HASH.fullmatch(side.get(key) or "") for key in ("parent", "src_tree"))


def test_bench_files_exist():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=[p.name for p in BENCH_FILES])
def test_bench_file_names_what_it_measured(path):
    doc = json.loads(path.read_text())
    assert doc["bench"] == int(re.fullmatch(r"BENCH_(\d+)\.json", path.name).group(1))
    assert {"python", "numpy", "machine", "nproc"} <= set(doc["environment"])
    assert set(doc["commits"]) == {"parent", "change"}
    for side in doc["commits"].values():
        assert _names_code(side), side
    assert doc["workloads"]
    for workload in doc["workloads"].values():
        assert workload["seeds"]
        for side in ("parent", "change"):
            medians = workload[side]["median"]
            assert "op_p50_eig6" in medians and "ok_ratio" in medians
            runs = workload[side]["runs"]
            assert all(len(values) == len(workload["seeds"]) for values in runs.values())


CHECKED = [p for p in BENCH_FILES
           if any("no_regression" in w for w in json.loads(p.read_text())["workloads"].values())]


def test_no_regression_checks_exist():
    assert {"BENCH_20.json", "BENCH_22.json"} <= {p.name for p in CHECKED}


@pytest.mark.parametrize("path", CHECKED, ids=[p.name for p in CHECKED])
def test_no_regression_covers_every_end_to_end_metric(path):
    for workload in json.loads(path.read_text())["workloads"].values():
        check = workload["no_regression"]
        assert sorted(check) == sorted(END_TO_END)
        for metric, entry in check.items():
            parent, change = (workload[side]["median"][metric] for side in ("parent", "change"))
            assert abs(entry["ratio"] - change / parent) <= 1e-12, metric
