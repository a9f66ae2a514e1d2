#!/usr/bin/env python3
"""penphase benchmark.

Run from the root of a penphase checkout:

    python3 perfbench/run.py --workload point_phases --seed 1 --seconds 20 --trace 0

Workloads (defined, with the reason for each, in workloads.py):
fig1_grid, point_phases, scan_1d. One process, one client thread, closed
loop: the next op starts when the previous one has returned. Inputs come
from --seed and are generated before the timed phase; outputs are checked
after each op, outside its timing.

--trace 0 prints the end-to-end metrics. --trace 1 runs every op twice,
untraced and then with a span around each public call, adds probe calls that
time single layers, and prints the per-layer metrics and the tracing
overhead (median traced op time over median untraced op time). The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. The environment,
sample counts and documented-outcome shares are printed before it and kept,
with the spans, under .perfbench_out/.

BLAS threads are capped at the number of usable CPUs and PENPHASE_THREADS is
unset, so the grid uses its default of one thread.
"""

from __future__ import annotations

import argparse
import collections
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_SNIPPET = "import penphase, penphase.cli"
#: The third-party imports penphase makes: the yardstick for setup_s. A fresh
#: interpreter's import time drifts by 30% over minutes on a shared machine,
#: and these imports drift with it, so setup_s is the median ratio of paired
#: timings, times DEPS_NOMINAL_S: roughly their import time on the 2-core
#: sandbox the bounds were set on. The raw median is printed beside it.
DEPS_SNIPPET = "import numpy, scipy.linalg, scipy.ndimage"
DEPS_NOMINAL_S = 0.70
#: paired fresh-interpreter timings per run for setup_s, after one warm-up
SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3
SUBPROCESS_TIMEOUT = 60

#: (module, "self" or "cum"): self time of each penphase module, and the
#: inclusive time of the package and of the scipy subpackages it pulls in
IMPORT_METRICS = [
    (m, "self") for m in (
        "penphase", "penphase.errors", "penphase.model", "penphase.spectral",
        "penphase.phases", "penphase.sweep", "penphase.svgplot", "penphase.cli",
    )
] + [(m, "cum") for m in ("penphase", "scipy.linalg", "scipy.ndimage")]

#: Op times are reported in units of one eigendecomposition of a 6x6 matrix
#: ("eig6"), timed between blocks of ops, the way the workload makes them:
#: one call at a time for point queries and scans, batched for the grid.
#: Other tenants of a shared machine slow the ops and this kernel alike, by
#: up to 2x for seconds at a time, so the ratio holds steady where raw
#: milliseconds do not. Raw times are printed beside it.
END_TO_END = {
    "setup_s": "s",
    "op_p50_eig6": "eig6",
    "op_p95_eig6": "eig6",
    "op_mean_eig6": "eig6",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}

#: 6x6 matrices per timing of the reference kernel, by workload style
REF_BATCH = {"loop": 20, "batched": 50000}
#: time spent on the reference kernel after each block, as a share of the block
REF_SHARE = 0.1
REF_WARMUP = 0.2

# (metric, unit, source, statistic): a span's median duration ("p50_us",
# "s") or call count ("calls"), or a count's "sum" or "median".
LAYER_METRICS = [
    (f"setup.import.{m}.{kind}_us", "us", m, kind) for m, kind in IMPORT_METRICS
] + [
    ("cli.main.s", "s", "cli.main", "s"),
    ("sweep.sweep_fig1.s", "s", "sweep.sweep_fig1", "s"),
    ("sweep.sweep_fig1.cells", "count", "sweep.sweep_fig1.cells", "median"),
    ("sweep.RegionMap.to_csv.s", "s", "sweep.RegionMap.to_csv", "s"),
    ("sweep.RegionMap.to_csv.bytes", "bytes", "sweep.RegionMap.to_csv.bytes", "median"),
    ("svgplot.region_map_svg.s", "s", "svgplot.region_map_svg", "s"),
    ("svgplot.region_map_svg.bytes", "bytes", "svgplot.region_map_svg.bytes", "median"),
    ("phases.aa_phase.p50_us", "us", "phases.aa_phase", "p50_us"),
    ("phases.resonance_shift.p50_us", "us", "phases.resonance_shift", "p50_us"),
    ("phases.dmode_domega.perturbative.p50_us", "us",
     "phases.dmode_domega.perturbative", "p50_us"),
    ("phases.dmode_domega.implicit.p50_us", "us", "phases.dmode_domega.implicit", "p50_us"),
    ("phases.dmode_domega.finite_diff.p50_us", "us",
     "phases.dmode_domega.finite_diff", "p50_us"),
    ("spectral.normal_mode_basis.p50_us", "us", "spectral.normal_mode_basis", "p50_us"),
    ("spectral.classify.p50_us", "us", "spectral.classify", "p50_us"),
    ("spectral.classify.calls", "count", "spectral.classify", "calls"),
    ("spectral.classify.confined", "count", "spectral.classify.confined", "sum"),
    ("spectral.classify.unconfined", "count", "spectral.classify.unconfined", "sum"),
    ("spectral.classify.boundary", "count", "spectral.classify.boundary", "sum"),
    ("model.build_G.p50_us", "us", "model.build_G", "p50_us"),
    ("sweep.refine_boundary.p50_us", "us", "sweep.refine_boundary", "p50_us"),
    ("sweep.refine_boundary.multi_crossing", "count", "MultiCrossingError", "outcome"),
    ("sweep.find_kcr.p50_us", "us", "sweep.find_kcr", "p50_us"),
    ("sweep.find_kcr.iterations", "count", "sweep.find_kcr.iterations", "median"),
    ("sweep.curve_fig2.p50_us", "us", "sweep.curve_fig2", "p50_us"),
    ("sweep.curve_fig2.rows", "count", "sweep.curve_fig2.rows", "sum"),
    ("trace.overhead_ratio", "ratio", "trace", "overhead"),
    ("trace.spans", "count", "trace", "spans"),
]


def parse_args(argv):
    p = argparse.ArgumentParser(description="penphase benchmark")
    p.add_argument("--workload", required=True,
                   choices=("fig1_grid", "point_phases", "scan_1d"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def configure_environment():
    """Cap BLAS threads, unset PENPHASE_THREADS and put src/ on the path,
    for this process and for the interpreters it starts."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        os.environ[var] = str(nproc)
    os.environ.pop("PENPHASE_THREADS", None)
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    sys.path.insert(0, str(SRC))
    return nproc


def run_python(args):
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=os.environ, check=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        timeout=SUBPROCESS_TIMEOUT,
    )


def timed_python(args):
    t0 = time.perf_counter()
    run_python(args)
    return time.perf_counter() - t0


def setup_times():
    """Paired wall times of fresh interpreters that import penphase and
    penphase.cli, and that import only its dependencies; the order
    alternates between pairs."""
    for snippet in (IMPORT_SNIPPET, DEPS_SNIPPET):  # warm-up: bytecode caches
        run_python(["-c", snippet])
    pairs = []
    for i in range(SETUP_REPEATS):
        order = (IMPORT_SNIPPET, DEPS_SNIPPET) if i % 2 == 0 else (DEPS_SNIPPET, IMPORT_SNIPPET)
        t = {snippet: timed_python(["-c", snippet]) for snippet in order}
        pairs.append((t[IMPORT_SNIPPET], t[DEPS_SNIPPET]))
    return pairs


def parse_importtime(stderr):
    """Import tree from `python -X importtime` output: root nodes of
    [name, self_us, cumulative_us, children]. The output lists a module after
    the modules it imports, indented one step deeper."""
    pending = []  # (depth, node) not yet claimed by a parent
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        try:
            self_us, cum_us = int(fields[0]), int(fields[1])
        except ValueError:  # the header line
            continue
        label = fields[2].rstrip()
        depth = len(label) - len(label.lstrip())
        children = []
        while pending and pending[-1][0] > depth:
            children.insert(0, pending.pop()[1])
        pending.append((depth, [label.strip(), self_us, cum_us, children]))
    return [node for _, node in pending]


def import_cost(roots, module, kind):
    """Self time of `module`'s own line, or inclusive time of every import of
    `module` and its submodules (scipy may import a package's submodules
    without listing the package itself)."""
    total, stack = 0, list(roots)
    while stack:
        name, self_us, cum_us, children = stack.pop()
        if kind == "self" and name == module:
            return self_us
        if kind == "cum" and (name == module or name.startswith(module + ".")):
            total += cum_us
        else:
            stack.extend(children)
    return total


def import_times():
    trees = [parse_importtime(run_python(["-X", "importtime", "-c", IMPORT_SNIPPET]).stderr)
             for _ in range(IMPORTTIME_REPEATS)]
    return {(m, kind): statistics.median(import_cost(t, m, kind) for t in trees)
            for m, kind in IMPORT_METRICS}


def environment(nproc, args):
    import numpy
    import scipy

    def blas(cfg):
        deps = cfg.get("Build Dependencies", {}).get("blas", {})
        return f"{deps.get('name', '?')} {deps.get('version', '?')}"

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": nproc,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.__config__.CONFIG),
        "scipy_blas": blas(scipy.__config__.CONFIG),
        "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
        "penphase_threads": os.environ.get("PENPHASE_THREADS", "unset"),
        "machine": platform.machine(),
    }


class Runner:
    """Closed-loop driver of one workload; tallies outcomes and failures."""

    def __init__(self, workload, pool, seconds):
        self.wl, self.pool, self.seconds = workload, pool, seconds
        self.outcomes = collections.Counter()
        self.problems = []

    def execute(self, inp, op, tr):
        """Time one op; returns (seconds, result or None)."""
        t0 = time.perf_counter()
        try:
            result = op(inp, tr)
        except self.wl.documented as exc:
            self.outcomes[type(exc).__name__] += 1
            return time.perf_counter() - t0, None
        except Exception as exc:  # an undocumented error is a failed op
            dt = time.perf_counter() - t0
            self.fail(f"{type(exc).__name__}: {exc}")
            return dt, None
        return time.perf_counter() - t0, result

    def verify(self, inp, result):
        try:
            problems = self.wl.check(inp, result)
        except Exception as exc:  # a check that cannot read the output fails
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        if problems:
            self.fail("; ".join(problems))
        else:
            self.outcomes["ok"] += 1

    def fail(self, message):
        self.outcomes["failed"] += 1
        if len(self.problems) < 20:
            self.problems.append(message)

    def more(self, n_ops, started, min_ops):
        """Start another op while under min_ops, or while one more fits."""
        if n_ops < min_ops:
            return True
        elapsed = time.perf_counter() - started
        return elapsed + elapsed / n_ops <= self.seconds

    def untraced(self, direct, reference):
        """Raw op latencies, and each divided by the eig6 time measured
        around its block of ops."""
        raw, scaled = [], []
        before = reference(REF_WARMUP)
        started = time.perf_counter()
        while self.more(len(raw), started, self.wl.min_ops):
            block = []
            for _ in range(self.wl.block_ops):
                inp = self.pool[len(raw) % len(self.pool)]
                dt, result = self.execute(inp, self.wl.op, direct)
                block.append(dt)
                raw.append(dt)
                if result is not None:
                    self.verify(inp, result)
            after = reference(REF_SHARE * sum(block))
            unit = 0.5 * (before + after)
            scaled.extend(dt / unit for dt in block)
            before = after
        return raw, scaled

    def traced(self, direct, tracer):
        """Each input runs untraced, then traced and probed."""
        plain, traced = [], []
        started = time.perf_counter()
        while self.more(len(plain), started, self.wl.min_traced):
            i = len(plain)
            inp = self.pool[i % len(self.pool)]
            dt, result = self.execute(inp, self.wl.op, direct)
            plain.append(dt)
            if result is not None:
                self.verify(inp, result)
            with tracer.span("op", request=i):
                dt, result = self.execute(inp, self.wl.op, tracer)
            traced.append(dt)
            if result is not None:
                with tracer.span("probe", request=i):
                    self.wl.probe(inp, result, tracer)
                self.verify(inp, result)
        return plain, traced

    @property
    def attempted(self):
        return sum(self.outcomes.values())


def percentile(values, q):
    import numpy as np

    return float(np.percentile(values, q))


def make_reference(style):
    """A function that times the eig6 kernel for about `budget` seconds (at
    least one batch) and returns the median time of one eig6."""
    import numpy as np

    n = REF_BATCH[style]

    def reference(budget):
        # made afresh so that they do not count toward the workload's peak RSS
        matrices = np.random.default_rng(0).standard_normal((n, 6, 6))
        batches, spent = [], 0.0
        while not batches or spent < budget:
            t0 = time.perf_counter()
            if style == "batched":
                np.linalg.eigvals(matrices)
            else:
                for m in matrices:
                    np.linalg.eig(m)
            batches.append(time.perf_counter() - t0)
            spent += batches[-1]
        return statistics.median(batches) / n

    reference(REF_WARMUP)  # first calls into LAPACK run slow
    return reference


def end_to_end_metrics(raw, scaled, setup):
    metrics = {
        "setup_s": statistics.median(p / d for p, d in setup) * DEPS_NOMINAL_S,
        "op_p50_eig6": percentile(scaled, 50),
        "op_p95_eig6": percentile(scaled, 95),
        "op_mean_eig6": statistics.fmean(scaled),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    raw_times = {
        "setup_raw_s": statistics.median(p for p, _ in setup),
        "setup_deps_raw_s": statistics.median(d for _, d in setup),
        "op_p50_ms": percentile(raw, 50) * 1e3,
        "op_p99_ms": percentile(raw, 99) * 1e3,
        "ops_per_s": len(raw) / sum(raw),
    }
    return metrics, raw_times


def layer_metrics(tracer, imports, runner, plain, traced):
    durations = tracer.durations()
    out = {}
    for name, unit, source, stat in LAYER_METRICS:
        spans = durations.get(source, [])
        counts = tracer.counts.get(source, [])
        if stat in ("self", "cum"):
            value = imports[(source, stat)]
        elif stat == "p50_us":
            value = statistics.median(spans) * 1e6 if spans else 0.0
        elif stat == "s":
            value = statistics.median(spans) if spans else 0.0
        elif stat == "calls":
            value = len(spans)
        elif stat == "sum":
            value = sum(counts)
        elif stat == "median":
            value = statistics.median(counts) if counts else 0
        elif stat == "outcome":
            value = runner.outcomes[source]
        elif stat == "overhead":
            value = statistics.median(traced) / statistics.median(plain)
        else:
            value = len(tracer.spans)
        out[name] = value
    return out


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "penphase" / "__init__.py").is_file():
        print(f"perfbench: no penphase package under {SRC}; "
              "run from the root of a penphase checkout", file=sys.stderr)
        return 2
    nproc = configure_environment()

    imports = import_times() if args.trace else None
    setup = None if args.trace else setup_times()

    # imported only now: numpy reads the BLAS thread caps on first import
    import numpy as np

    from spans import Tracer, direct
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    out_dir = OUT / wl.name
    out_dir.mkdir(parents=True, exist_ok=True)
    pool = wl.inputs(np.random.default_rng(args.seed), str(out_dir))
    runner = Runner(wl, pool, args.seconds)
    gc.collect()

    tag = f"seed{args.seed}-trace{args.trace}"
    if args.trace:
        tracer = Tracer()
        plain, traced = runner.traced(direct, tracer)
        metrics = layer_metrics(tracer, imports, runner, plain, traced)
        units = {name: unit for name, unit, _, _ in LAYER_METRICS}
        tracer.write(out_dir / f"spans-{tag}.jsonl")
        samples = {"ops_untraced": len(plain), "ops_traced": len(traced),
                   "spans": len(tracer.spans), "importtime_repeats": IMPORTTIME_REPEATS}
    else:
        raw, scaled = runner.untraced(direct, make_reference(wl.reference))
        metrics, raw_times = end_to_end_metrics(raw, scaled, setup)
        units = END_TO_END
        samples = {"ops": len(raw), "ops_per_reference_block": wl.block_ops,
                   "setup_repeats": len(setup)}

    attempted, failed = runner.attempted, runner.outcomes["failed"]
    if not args.trace:
        metrics["ok_ratio"] = (attempted - failed) / attempted
    report = {
        "environment": environment(nproc, args),
        "samples": samples,
        "outcomes": dict(runner.outcomes),
        # "ok", "failed" and each documented exception the API raised
        "outcome_shares": {k: v / attempted for k, v in runner.outcomes.items()},
        "fail_ratio": failed / attempted,
        "problems": runner.problems,
        "metrics": metrics,
    }
    if not args.trace:
        report.update(raw_times=raw_times, latencies_s=raw, latencies_eig6=scaled)
    (out_dir / f"result-{tag}.json").write_text(json.dumps(report, indent=1) + "\n")

    for name, value in metrics.items():
        print(f"{name:42s} {value:>16.6g} {units[name]}")
    for name, value in report.get("raw_times", {}).items():
        print(f"{name:42s} {value:>16.6g} (raw wall clock, for reference)")
    for message in runner.problems:
        print(f"FAILED: {message}")
    print(json.dumps({k: report[k] for k in ("environment", "samples", "outcomes",
                                             "outcome_shares", "fail_ratio", "raw_times")
                      if k in report}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
