"""Every committed BENCH_<n>.json at the repository root parses and names what
it measured: for each side of its parent/change comparison, either a commit
hash or, for a change measured before it was committed, its parent commit and
the git tree hash of its ``src/`` directory. Each workload holds both sides'
medians of the end-to-end metrics and the seeds they were run on."""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))
HASH = re.compile(r"[0-9a-f]{40}")


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
