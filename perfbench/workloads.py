"""The three benchmark workloads: seeded input generators, the ops that drive
penphase through its public API, the traced-only layer probes and the output
checks.

Every call into penphase goes through `tr(name, fn, *args)`. Untraced runs
pass `spans.direct`, traced runs a `spans.Tracer`, so both run the same
code. The benchmark calls no private name and no public name the ROADMAP
plans to delete.

Out of scope:
- Tier-1 wall time. It is a test suite, not a user workload, and at about
  95 s it is too costly to repeat for every benchmark run.
- The split of grid work into matrix build, eigen-solve and labelling. Those
  functions are private; the split waits for spans inside the program.
"""

from __future__ import annotations

import contextlib
import io
import math
import os

import numpy as np

from penphase import (
    J6,
    Classification,
    FockLabel,
    GridSpec,
    MultiCrossingError,
    PenningQuadrupole,
    SystemParams,
    aa_phase,
    build_G,
    classify,
    curve_fig2,
    dmode_domega,
    find_kcr,
    normal_mode_basis,
    refine_boundary,
    resonance_shift,
    sweep_fig1,
)
from penphase import svgplot
from penphase.cli import main as cli_main

from spans import direct

#: Smallest positive root of 9k^6 - 14k^4 - 119k^2 + 8: where the slow
#: mode pair of the static loop loses stability.
K_CR = 0.2583129093

#: Inputs sampled per pool; ops cycle through the pool.
POOL_SIZE = 2048


def loop_params(alpha, alpha0, omega=1.0):
    return SystemParams.penning_loop(b0=alpha0, b=alpha, omega=omega)


def spectral_margins(spec):
    """(max |Re lambda|, min spacing of Im lambda, min |lambda|) of a spectrum."""
    ev = spec.raw_eigenvalues
    return (
        float(np.max(np.abs(ev.real))),
        float(np.min(np.diff(np.sort(ev.imag)))),
        float(np.min(np.abs(ev))),
    )


def loop_classify(tr, alpha, alpha0, omega=1.0):
    S = tr("model.build_G", build_G, loop_params(alpha, alpha0, omega))
    return counted_classify(tr, S)


def counted_classify(tr, S):
    spec = tr("spectral.classify", classify, J6 @ S.S)
    tr.count("spectral.classify." + spec.classification.name.lower())
    return spec


def sample_confined(rng, window=3.0, min_gap=0.05):
    """A Confined loop point at omega = 1 whose spectral gap and smallest
    frequency are at least `min_gap`, as in the tests' sampler."""
    while True:
        a, a0 = rng.uniform(0.0, window, 2)
        margin = confined_margin(loop_classify(direct, a, a0))
        if margin >= min_gap:
            return (float(a), float(a0)), margin


def confined_margin(spec):
    """min(spectral gap, smallest frequency) of a Confined spectrum, else 0."""
    if spec.classification is not Classification.CONFINED:
        return 0.0
    _, gap, _ = spectral_margins(spec)
    return min(gap, float(spec.freqs.min()))


class Workload:
    """One set of inputs. Subclasses document why they were chosen."""

    name = ""
    #: ops a run makes at least, whatever --seconds says
    min_ops = 1
    #: untraced-traced pairs a traced run makes at least
    min_traced = 1
    #: ops between two timings of the reference kernel
    block_ops = 1
    #: how the reference kernel makes its 6x6 eigendecompositions
    reference = "loop"
    #: exceptions the API documents for these inputs; not failures
    documented = ()

    def inputs(self, rng, out_dir):
        raise NotImplementedError

    def op(self, inp, tr):
        raise NotImplementedError

    def probe(self, inp, result, tr):
        """Traced runs only: extra calls that time single layers."""

    def check(self, inp, result):
        """Problems with an op's output; empty when it is correct."""
        raise NotImplementedError


# --------------------------------------------------------------------------
# fig1_grid

FIG1_CELLS = 601 * 601
#: the CLI's default grid-resolution margin: gap_scale * grid step
FIG1_GAP_FLOOR = 4.0 * 3.0 / 600
FIG1_SAMPLE = 400
#: below this, a real part may be rounding and the cell is within the margin
FIG1_RE_MARGIN = 1e-6


def fig1_expected_class(alpha, alpha0):
    """Pointwise class a grid cell must have, or None when the cell lies
    within the grid's resolution margin and either answer is correct."""
    spec = loop_classify(direct, alpha, alpha0)
    re, gap, zero = spectral_margins(spec)
    if re > FIG1_RE_MARGIN:
        return "U"
    if (spec.classification is Classification.CONFINED
            and min(gap, zero) > 2.0 * FIG1_GAP_FLOOR):
        return "C"
    return None


def check_fig1_cells(rows):
    """rows: (alpha, alpha0, class) of sampled cells. Returns (problems, checked)."""
    problems, checked = [], 0
    for alpha, alpha0, cls in rows:
        want = fig1_expected_class(alpha, alpha0)
        if want is None:
            continue
        checked += 1
        if cls != want:
            problems.append(f"cell ({alpha!r}, {alpha0!r}) is {cls}, pointwise {want}")
    return problems, checked


def check_fig1_summary(n_rows, n_components, n_unconfined, auto_extended):
    problems = []
    if n_rows != FIG1_CELLS:
        problems.append(f"{n_rows} data rows, expected {FIG1_CELLS}")
    if n_components != 4:
        problems.append(f"{n_components} confined components, expected 4")
    if n_unconfined != 2:
        problems.append(f"{n_unconfined} unconfined regions, expected 2")
    if auto_extended:
        problems.append("the default window was auto-extended")
    return problems


def read_fig1_csv(path, sample_rows):
    """Stream the CSV: (data rows, distinct component ids, sampled rows)."""
    wanted = set(sample_rows)
    picked, components, n_rows = [], set(), 0
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        if header != "alpha,alpha0,class,component\n":
            raise ValueError(f"unexpected CSV header {header!r}")
        for n_rows, line in enumerate(fh, start=1):
            alpha, alpha0, cls, comp = line.rstrip("\n").split(",")
            if comp != "-1":
                components.add(comp)
            if n_rows - 1 in wanted:
                picked.append((float(alpha), float(alpha0), cls))
    return n_rows, components, picked


class Fig1Grid(Workload):
    """The default `sweep-fig1 -o <csv> --svg <svg>` through `penphase.cli.main`:
    361,201 cells, a 12.9 MB CSV, an SVG and a manifest.

    Why: grid matrix build, batched eigen-solve, labelling and CSV rendering
    do nearly all the work; no pointwise classification, normal-mode basis
    or derivative route runs. ROADMAP items 2(a) (grid classifier without
    eig) and 5 (grid chunking) show here and nowhere else.
    """

    name = "fig1_grid"
    min_ops = 3
    block_ops = 1
    reference = "batched"

    def inputs(self, rng, out_dir):
        csv = os.path.join(out_dir, "fig1.csv")
        svg = os.path.join(out_dir, "fig1.svg")
        sample = sorted(int(i) for i in rng.choice(FIG1_CELLS, FIG1_SAMPLE, replace=False))
        return [{"csv": csv, "svg": svg, "sample": sample}]

    def op(self, inp, tr):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = tr("cli.main", cli_main,
                      ["sweep-fig1", "-o", inp["csv"], "--svg", inp["svg"]])
        return {"code": code, "stdout": out.getvalue()}

    def probe(self, inp, result, tr):
        """The CLI's public calls, one span each."""
        rm = tr("sweep.sweep_fig1", sweep_fig1, GridSpec(), auto_extend=True, gap_scale=4.0)
        tr.count("sweep.sweep_fig1.cells", int(rm.classes.size))
        buf = io.StringIO()
        tr("sweep.RegionMap.to_csv", rm.to_csv, buf)
        tr.count("sweep.RegionMap.to_csv.bytes", len(buf.getvalue().encode()))
        svg = io.StringIO()
        tr("svgplot.region_map_svg", svgplot.region_map_svg, rm, svg)
        tr.count("svgplot.region_map_svg.bytes", len(svg.getvalue().encode()))

    def check(self, inp, result):
        try:
            return self._check(inp, result)
        finally:
            for path in (inp["csv"], inp["svg"], inp["csv"] + ".manifest"):
                with contextlib.suppress(FileNotFoundError):
                    os.remove(path)

    def _check(self, inp, result):
        if result["code"] != 0:
            return [f"sweep-fig1 exited with {result['code']}"]
        summary = parse_fig1_stdout(result["stdout"])
        if summary is None:
            return [f"unexpected sweep-fig1 output {result['stdout']!r}"]
        n_rows, components, picked = read_fig1_csv(inp["csv"], inp["sample"])
        problems = check_fig1_summary(n_rows, *summary)
        if len(components) != summary[0]:
            problems.append(f"CSV holds {len(components)} component ids, "
                            f"summary says {summary[0]}")
        with open(inp["svg"], "r", encoding="utf-8") as fh:
            if fh.read(4) != "<svg":
                problems.append("SVG file does not start with <svg")
        if not os.path.isfile(inp["csv"] + ".manifest"):
            problems.append("no manifest written")
        cell_problems, _ = check_fig1_cells(picked)
        return problems + cell_problems


def parse_fig1_stdout(text):
    """(components, unconfined regions, auto-extended) from the CLI summary line."""
    try:
        head, _, tail = text.partition("; window")
        comp, unconf = (int(part.rsplit(":", 1)[1]) for part in head.split(";"))
        extended = tail.rsplit("auto-extended:", 1)[1].strip().rstrip(")")
    except (IndexError, ValueError):
        return None
    return comp, unconf, extended == "true"


# --------------------------------------------------------------------------
# point_phases

POINT_DELTA_OMEGA = 1e-3
#: Rotation frequencies, in steps of POINT_DELTA_OMEGA from omega = 1, at
#: which a point must keep its margin too. The linearization error is
#: O(delta^2) only when the nearest Krein collision along omega lies well
#: beyond delta: the Taylor series of the frequencies in omega converges no
#: farther than that. About one point in 110 with the margin at omega = 1
#: loses it within 4 delta, and one in 2,000 turns Unconfined there. With
#: the collision within delta, resonance_shift raises NoCyclicStatesError
#: on the omega + delta side; on the other side it stays correct to
#: O(delta^2) but with a coefficient (seen: 32 delta^2 occupation / margin)
#: that no bound of this form holds.
POINT_OMEGA_STEPS = (-4, -2, -1, 1, 2, 4)
#: |omega_p_exact - omega_p_linear| <= C * delta^2 * occupation / margin, the
#: margin taken over every omega above; the largest ratio seen over 20,000
#: sampled points is below 4.
POINT_SECOND_ORDER = 32.0


def sample_point(rng, min_gap=0.05):
    """A Confined loop point at omega = 1 that keeps `min_gap` at every
    rotation frequency in POINT_OMEGA_STEPS, and that least margin."""
    while True:
        (a, a0), margin = sample_confined(rng, min_gap=min_gap)
        for k in POINT_OMEGA_STEPS:
            omega = 1.0 + k * POINT_DELTA_OMEGA
            margin = min(margin, confined_margin(loop_classify(direct, a, a0, omega)))
        if margin >= min_gap:
            return (a, a0), margin


def check_point(inp, spec, report, shift):
    problems = []
    if spec.classification is not Classification.CONFINED:
        return [f"{inp['params']} classified {spec.classification.name}, expected CONFINED"]
    eq7, eq8 = report.aa_phase_eq7, report.aa_phase_eq8
    if eq7 is None or not (math.isfinite(eq7) and math.isfinite(eq8)):
        problems.append(f"phase routes not finite: eq7={eq7}, eq8={eq8}")
    elif abs(eq7 - eq8) > 1e-6 * (1.0 + abs(eq8)):
        problems.append(f"eq7 {eq7!r} != eq8 {eq8!r}")
    n1, n2 = inp["labels"]
    occupation = float(np.sum(n1.as_array() + 0.5) + np.sum(n2.as_array() + 0.5))
    bound = POINT_SECOND_ORDER * POINT_DELTA_OMEGA**2 * occupation / inp["margin"]
    err = abs(shift.omega_p_exact - shift.omega_p_linear)
    if not err <= bound:
        problems.append(f"omega_p_exact - omega_p_linear = {err:.3e} > {bound:.3e}")
    return problems


class PointPhases(Workload):
    """One user request per op at a Confined loop point, omega = 1, in [0, 3]^2
    with a spectral margin of 0.05 that holds from omega = 1 - 4 delta to
    1 + 4 delta: `classify`, then `aa_phase` for a seeded
    Fock label, then `resonance_shift` to a second seeded label with
    delta_omega = 1e-3.

    Why: the pointwise spectral/phases path does almost all the work: the
    normal-mode basis, the three derivative routes and the eq7 = eq8
    invariant; the grid does nothing. ROADMAP items 3 (opt-in derivative
    cross-check) and 2(d) (implicit route from the polynomial) show here.
    """

    name = "point_phases"
    min_ops = 1000
    min_traced = 500
    block_ops = 10

    def inputs(self, rng, out_dir):
        pool = []
        for _ in range(POOL_SIZE):
            (a, a0), margin = sample_point(rng)
            labels = tuple(FockLabel(*(int(n) for n in rng.integers(0, 4, 3)))
                           for _ in range(2))
            pool.append({"params": loop_params(a, a0), "labels": labels, "margin": margin})
        return pool

    def op(self, inp, tr):
        params = inp["params"]
        n1, n2 = inp["labels"]
        S = tr("model.build_G", build_G, params)
        spec = counted_classify(tr, S)
        binding = PenningQuadrupole(params.w0)
        report = tr("phases.aa_phase", aa_phase, params, binding, n1)
        shift = tr("phases.resonance_shift", resonance_shift,
                   params, binding, n1, n2, POINT_DELTA_OMEGA)
        return S, spec, report, shift

    def probe(self, inp, result, tr):
        S, spec = result[0], result[1]
        params = inp["params"]
        tr("spectral.normal_mode_basis", normal_mode_basis, spec, S)
        binding = PenningQuadrupole(params.w0)
        for method in ("perturbative", "implicit", "finite_diff"):
            tr(f"phases.dmode_domega.{method}", dmode_domega, params, binding, method)

    def check(self, inp, result):
        _, spec, report, shift = result
        return check_point(inp, spec, report, shift)


# --------------------------------------------------------------------------
# scan_1d

REFINE_TOL = 1e-6
KCR_TOL = 1e-7
#: growth rate an Unconfined segment end must have
SCAN_MIN_GROWTH = 0.01
#: curve k-grids keep this far from K_CR, so the stable23 flag is unambiguous
CURVE_K_MARGIN = 1e-4
CURVE_POINTS = 16
#: op kinds in every block of eight, shuffled per block
SCAN_BLOCK = ("refine",) * 6 + ("kcr", "curve")


def sample_segment(rng, window=3.0):
    """A Confined point (margin 0.05) and an Unconfined point (growth >= 0.01)
    0.2 to 0.6 apart, both in the window."""
    while True:
        p0, _ = sample_confined(rng, window)
        for _ in range(8):
            theta = rng.uniform(0.0, 2.0 * math.pi)
            length = rng.uniform(0.2, 0.6)
            p1 = (p0[0] + length * math.cos(theta), p0[1] + length * math.sin(theta))
            if not (0.0 <= p1[0] <= window and 0.0 <= p1[1] <= window):
                continue
            spec = loop_classify(direct, *p1)
            if (spec.classification is Classification.UNCONFINED
                    and float(np.max(spec.raw_eigenvalues.real)) >= SCAN_MIN_GROWTH):
                return p0, p1


def sample_k_grid(rng):
    """Increasing k in [0.01, 1] at least CURVE_K_MARGIN from K_CR."""
    while True:
        ks = np.sort(rng.uniform(0.01, 1.0, CURVE_POINTS))
        if np.all(np.diff(ks) > 0) and np.min(np.abs(ks - K_CR)) > CURVE_K_MARGIN:
            return ks


def check_refine(p0, p1, point, tol=REFINE_TOL):
    """The point must lie within tol of a Confined -> not Confined flip."""
    p0, p1, point = (np.asarray(p, dtype=float) for p in (p0, p1, point))
    u = (p1 - p0) / np.linalg.norm(p1 - p0)
    d = point - p0
    off = abs(u[0] * d[1] - u[1] * d[0])
    if off > tol:
        return [f"boundary point {tuple(point)} is {off:.2e} off its segment"]
    before = loop_classify(direct, *(point - tol * u)).classification
    after = loop_classify(direct, *(point + tol * u)).classification
    if before is not Classification.CONFINED or after is Classification.CONFINED:
        return [f"no flip within {tol} of {tuple(point)}: {before.name} -> {after.name}"]
    return []


def check_kcr(result, tol=KCR_TOL):
    if not abs(result.k_cr - K_CR) <= tol:
        return [f"k_cr {result.k_cr!r} is not within {tol} of {K_CR}"]
    return []


def check_curve(ks, table):
    if len(table.k) != len(ks) or not np.array_equal(table.k, ks):
        return [f"curve has {len(table.k)} rows for {len(ks)} k values"]
    problems = []
    want = ks < K_CR
    if not np.array_equal(table.stable23, want):
        problems.append(f"stable23 {table.stable23.tolist()} for k {ks.tolist()}")
    if not (np.all(np.isfinite(table.dw[table.stable23]))
            and np.all(np.isfinite(table.dw[:, 0]))
            and np.all(np.isnan(table.dw[~table.stable23, 1:]))):
        problems.append("derivative columns are missing or fabricated")
    return problems


class Scan1D(Workload):
    """A seeded stream of 1-D scans. Six ops in eight are `refine_boundary`
    segments from a Confined to an Unconfined point, each about 55 sequential
    classifications, many of them at Unconfined or Boundary inputs. The rest
    are `find_kcr(tol=1e-7)` and `curve_fig2` on 16-point seeded k-grids.

    Why: this drives `spectral.classify` near region edges with no mode
    analysis, unlike point_phases, so a gain for interior points that costs
    the classification path shows here. ROADMAP items 2(b) (closed-form
    k_cr) and 2(c) (boundary as a discriminant root) show here.
    """

    name = "scan_1d"
    min_ops = 1000
    min_traced = 500
    block_ops = 10
    documented = (MultiCrossingError,)

    def inputs(self, rng, out_dir):
        pool = []
        while len(pool) < POOL_SIZE:
            for kind in rng.permutation(SCAN_BLOCK):
                if kind == "refine":
                    pool.append(("refine", *sample_segment(rng)))
                elif kind == "curve":
                    pool.append(("curve", sample_k_grid(rng)))
                else:
                    pool.append(("kcr",))
        return pool[:POOL_SIZE]

    def op(self, inp, tr):
        kind = inp[0]
        if kind == "refine":
            return tr("sweep.refine_boundary", refine_boundary, inp[1], inp[2], tol=REFINE_TOL)
        if kind == "kcr":
            result = tr("sweep.find_kcr", find_kcr, tol=KCR_TOL)
            tr.count("sweep.find_kcr.iterations", result.iterations)
            return result
        table = tr("sweep.curve_fig2", curve_fig2, inp[1])
        tr.count("sweep.curve_fig2.rows", len(table.k))
        return table

    def probe(self, inp, result, tr):
        if inp[0] == "refine":
            for point in (inp[1], inp[2], result):
                loop_classify(tr, *point)

    def check(self, inp, result):
        kind = inp[0]
        if kind == "refine":
            return check_refine(inp[1], inp[2], result)
        if kind == "kcr":
            return check_kcr(result)
        return check_curve(inp[1], result)


WORKLOADS = {w.name: w for w in (Fig1Grid(), PointPhases(), Scan1D())}
