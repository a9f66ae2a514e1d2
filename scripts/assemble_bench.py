#!/usr/bin/env python3
"""Assemble a BENCH_<n>.json from paired runs of perfbench/run.py.

Run the harness from the roots of two checkouts, the parent and the change,
for each workload and seed, alternating which side runs first, and keep the
last line of each run's standard output as RUNS/<side>-<workload>-<seed>.json:

    python3 perfbench/run.py --workload fig1_grid --seed 61 --seconds 20 --trace 0 \\
        | tail -1 > RUNS/parent-fig1_grid-61.json

Then, from the root of this repository,

    python3 scripts/assemble_bench.py RUNS --bench 18 --parent <commit> \\
        --change-src-tree <tree of the change's src/> \\
        --environment <a result-*.json the harness wrote> > BENCH_18.json

writes, per workload, the seeds, each side's per-run end-to-end metrics (the
ones BENCHMARK.json names) and their medians, the pairs whose op_p50_eig6 the
change won, the interquartile range of the parent's op_p50_eig6
(``statistics.quantiles``) and the no-regression check. The check gives, for
each end-to-end metric, the ratio of the change's median to the parent's and
whether it is within the metric's ``bound``, read in its ``better``
direction: at most 1 + bound when lower is better, at least 1 - bound when
higher is. A metric is unresolved when the parent's interquartile range over
its median exceeds the bound, unless every run of the change is better than
every run of the parent. The parent is named by its commit and the git
tree hash of its src/ directory; the change, measured before it is
committed, by its parent commit and the tree hash of its src/.
``tests/test_bench_files.py`` checks the result.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ENVIRONMENT_KEYS = ("machine", "nproc", "python", "numpy", "scipy", "numpy_blas",
                    "blas_threads", "penphase_threads")
SIDES = ("parent", "change")
RUN_NAME = re.compile(r"(parent|change)-(\w+)-(\d+)\.json")


def read_runs(runs: Path) -> dict:
    """{(workload, seed): {side: {metric: value}}} from the run files in runs;
    any other file raises ValueError naming it."""
    found = {}
    for path in sorted(runs.iterdir()):
        name = RUN_NAME.fullmatch(path.name)
        if name is None:
            raise ValueError(f"{path}: not named <parent|change>-<workload>-<seed>.json")
        side, workload, seed = name.groups()
        run = json.loads(path.read_text())["metrics"]
        found.setdefault((workload, int(seed)), {})[side] = {m: v["value"] for m, v in run.items()}
    return found


def _no_regression(parent, change, metric) -> dict:
    """The no-regression check of one end-to-end metric (a BENCHMARK.json
    entry) over the paired runs of both sides."""
    bound, lower = metric["bound"], metric["better"] == "lower"
    median = statistics.median(parent)
    quartiles = statistics.quantiles(parent, n=4)
    ratio, spread = statistics.median(change) / median, (quartiles[2] - quartiles[0]) / median
    all_better = max(change) < min(parent) if lower else min(change) > max(parent)
    return {
        "ratio": ratio,
        "bound": bound,
        "better": metric["better"],
        "within_bound": ratio <= 1.0 + bound if lower else ratio >= 1.0 - bound,
        "parent_iqr_over_median": spread,
        "unresolved": spread > bound and not all_better,
    }


def summarize(found: dict, end_to_end: list) -> dict:
    """Per workload: the seeds both sides ran, each side's runs and medians of
    the end-to-end metrics, the op_p50_eig6 pairs the change won, the
    parent's op_p50_eig6 interquartile range and the no-regression check."""
    metrics = [m["name"] for m in end_to_end]
    workloads = {}
    for workload in sorted({w for w, _ in found}):
        seeds = sorted(s for w, s in found if w == workload and len(found[w, s]) == 2)
        entry = {"seeds": seeds}
        for side in SIDES:
            runs = {m: [found[workload, s][side][m] for s in seeds] for m in metrics}
            entry[side] = {"median": {m: statistics.median(v) for m, v in runs.items()},
                           "runs": runs}
        parent, change = (entry[side]["runs"]["op_p50_eig6"] for side in SIDES)
        won = sum(c < p for p, c in zip(parent, change))
        quartiles = statistics.quantiles(parent, n=4)
        entry["op_p50_eig6_pairs_won_by_change"] = f"{won}/{len(seeds)}"
        entry["op_p50_eig6_parent_iqr"] = quartiles[2] - quartiles[0]
        entry["no_regression"] = {
            m["name"]: _no_regression(entry["parent"]["runs"][m["name"]],
                                      entry["change"]["runs"][m["name"]], m)
            for m in end_to_end
        }
        workloads[workload] = entry
    return workloads


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("runs", type=Path)
    p.add_argument("--bench", type=int, required=True)
    p.add_argument("--parent", required=True, help="commit hash of the parent")
    p.add_argument("--change-src-tree", required=True)
    p.add_argument("--environment", type=Path, required=True)
    args = p.parse_args(argv)

    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    workloads = summarize(read_runs(args.runs), end_to_end)
    environment = json.loads(args.environment.read_text())["environment"]
    src_tree = subprocess.run(["git", "rev-parse", f"{args.parent}:src"], cwd=ROOT, check=True,
                              capture_output=True, text=True).stdout.strip()
    doc = {
        "bench": args.bench,
        "what": "parent and change of one change, end-to-end metrics of every workload; "
                "each seed is one pair, the two sides alternating which runs first",
        "harness": "python3 perfbench/run.py --workload <workload> --seed <seed> "
                   "--seconds 20 --trace 0",
        "environment": {k: environment[k] for k in ENVIRONMENT_KEYS if k in environment},
        "commits": {
            "parent": {"commit": args.parent, "src_tree": src_tree},
            "change": {"parent": args.parent, "src_tree": args.change_src_tree},
        },
        "workloads": workloads,
    }
    json.dump(doc, sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
