"""Parameter-space exploration: the (alpha, alpha0) region map under the loop
constraint w = 4 alpha0 / 3, adiabatic derivative curves over the field ratio
k, and bisection utilities for region boundaries and the critical ratio.

Grid cells are classified with a resolution-aware degeneracy tolerance: a
cell whose spectral gap (or smallest eigenvalue) is below a few grid steps'
worth of gap change cannot be certified as Confined at that resolution and is
recorded as Boundary. This keeps the cell labeling faithful to the true open
confined regions, whose separating collision curves pinch below any fixed
grid resolution near their roots on the alpha = 0 axis; the pointwise
classifier keeps the one much tighter tolerance, GAP_FACTOR (1 + ||Lambda||_F).
Both apply the one eigenvalue rule ``spectral._rule``, the grid with its
margin as ``gap_floor`` and the pointwise classifier with none.

Since Lambda = J S is Hamiltonian, its characteristic polynomial is a cubic
in mu = lambda^2, and most points are certified Confined, Unconfined or
(under a grid's margin) Boundary from the closed-form roots of that cubic,
with a slack far above rounding. On the loop the cubic's coefficients and
the tolerance scale ||S||_F are each a term in b0 alone plus b^2 times
another (``_loop_cubic``), so over a grid tile, a column of alpha0 against a
row of alpha, each costs one to four passes. Only the points the roots leave
undecided are built as 6x6 generators and go through the batched
eigensolver: those within the slack of a tolerance, of a mode collision or
of a zero mode. At a zero mode Lambda has a Jordan block; eig splits it by
about sqrt(eps) ||Lambda||, within the tolerance, so the point is Boundary on
either axis. The labels equal those of the eigenvalue rule at every point.
``_loop_codes`` is that one classifier of loop points, for the grid (with its
margin as ``gap_floor``) and for the 1-D scans ``refine_boundary`` and
``find_kcr`` (with gap_floor 0, the pointwise tolerance, under which no
point is certified Boundary), whose confined test is its code 'C'. The scans
bisect in rounds: one call classifies every midpoint that up to _ROUND_DEPTH
halvings can visit, so a scan makes two or three kernel calls, not one per
halving.
The Fig. 2 curves take their classes from one batched eigensolve and their
derivatives from one implicit mu-cubic call; no scan builds normal modes.
Grid work runs in tiles of at most _CHUNK_CELLS cells, so memory stays
bounded for any grid size, with one thread per CPU the process may use. The
labeller, the CSV and the SVG read each grid row as runs of equal values
(``_runs``): the 4-connected regions are one union-find over the class runs,
so no cell is labelled twice, and a CSV run or SVG rect is one string per
run.
"""

from __future__ import annotations

import itertools
import math
import operator
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import IO, Optional, Sequence, Tuple

import numpy as np

from .errors import DomainError, MultiCrossingError, NumericalError
from .model import BINDINGS, J6, PenningQuadrupole, _check_range, _generator
from .phases import _dmodes_implicit, cos_theta
from .spectral import _gap_tol, _rule, _simple_imaginary

__all__ = [
    "GridSpec",
    "RegionMap",
    "CurveTable",
    "KcrResult",
    "sweep_fig1",
    "refine_boundary",
    "find_kcr",
    "curve_fig2",
]

#: Upper bound on how fast frequency gaps vary per unit of (alpha, alpha0);
#: used to scale the grid-resolution Boundary margin.
GAP_SLOPE_SCALE = 4.0

#: Sample points of the flip pre-scan in ``refine_boundary``.
_PRESCAN_STEPS = 32

#: Halvings per bisection round; one round classifies up to 2^10 - 1 midpoints.
_ROUND_DEPTH = 10

#: Cells per certification tile; a 13 x 601 tile of the default map peaks at
#: about 1.8 MB of arrays (235 B per cell under tracemalloc).
_CHUNK_CELLS = 8192

@dataclass(frozen=True)
class GridSpec:
    """Rectangular grid; `steps` counts intervals, so samples = steps + 1."""

    alpha_min: float = 0.0
    alpha_max: float = 3.0
    alpha_steps: int = 600
    alpha0_min: float = 0.0
    alpha0_max: float = 3.0
    alpha0_steps: int = 600

    def __post_init__(self):
        extents = (self.alpha_min, self.alpha_max, self.alpha0_min, self.alpha0_max)
        _check_range("grid extents", extents)
        try:
            steps = min(operator.index(self.alpha_steps), operator.index(self.alpha0_steps))
        except TypeError:
            raise DomainError("step counts must be integers") from None
        if steps < 1:
            raise DomainError("step counts must be positive")
        if self.alpha_max <= self.alpha_min or self.alpha0_max <= self.alpha0_min:
            raise DomainError("grid extents must be increasing")
        if self.alpha_min < 0 or self.alpha0_min < 0:
            raise DomainError("grid extents must be >= 0")

    @property
    def alphas(self) -> np.ndarray:
        return np.linspace(self.alpha_min, self.alpha_max, self.alpha_steps + 1)

    @property
    def alpha0s(self) -> np.ndarray:
        return np.linspace(self.alpha0_min, self.alpha0_max, self.alpha0_steps + 1)

    @property
    def max_step(self) -> float:
        return max(
            (self.alpha_max - self.alpha_min) / self.alpha_steps,
            (self.alpha0_max - self.alpha0_min) / self.alpha0_steps,
        )


def _loop_cubic(b, b0, omega: float):
    """Coefficients (c2, c1, c0) of the mu-cubic (``model._mu_cubic``) and
    ||S||_F of loop points (b, b0), w0 = 4 b0 / 3; b and b0 broadcast together.

    On the loop, with d = omega - b0, s = b0^2 / 9, p = s - d^2, r = 16 s and
    B = b^2, M = K + g g^T - |g|^2 I is [[p, 0, -b omega], [0, p, 0],
    [-b omega, 0, r]], so each coefficient is a term in b0 alone plus B times
    another: c2 = (2p + r + 4d^2) + 4B, c1 = (2pr + p^2 + 4d^2 r)
    + B (4p + 8d omega - omega^2), c0 = p^2 r - B p omega^2 and
    ||S||_F^2 = 2B^2 + B (2s + 2r + 2b0^2 + 4) + (2s^2 + r^2 + 4d^2 + 3).
    With b0 a column and b a row, the b0 terms cost one pass over the column
    and each output one to four passes over the tile.
    """
    B = b * b
    d = omega - b0
    d_sq, s = d * d, b0 * b0 / 9.0
    p, r = s - d_sq, 16.0 * s
    c2 = (2.0 * p + r + 4.0 * d_sq) + 4.0 * B
    c1 = (2.0 * p * r + p * p + 4.0 * d_sq * r) + B * (4.0 * p + 8.0 * d * omega - omega * omega)
    c0 = p * p * r - B * (p * (omega * omega))
    scale = np.sqrt(
        B * (2.0 * B + (2.0 * (s + r + b0 * b0) + 4.0)) + (2.0 * s * s + r * r + 4.0 * d_sq + 3.0)
    )
    return c2, c1, c0, scale


def _certify_cells(
    c2, c1, c0, scale, gap_floor: float
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Masks (confined, unconfined, boundary) of the cells the mu-cubic decides
    without eig, from same-shaped arrays of its coefficients (``_loop_cubic``)
    and of the cells' ||S||_F, which equals the eigenvalue rule's scale
    ||Lambda||_F.

    The roots mu = lambda^2 come in closed form: trigonometric when all three
    are real (one cosine; they come out ordered mu0 >= mu1 >= mu2, so the
    frequencies w = sqrt(-mu) ascend), Cardano's otherwise. With all mu real,
    the separation min(w1 - w0, w2 - w1, w0) is the smallest gap and |lambda|
    the eigenvalue rule sees. A cell is certified Confined when the separation
    clears the gap tolerance by ``slack``; Boundary when it clears the
    pointwise tolerance by ``slack`` but stays ``slack`` below the grid's
    ``gap_floor``; Unconfined when some |Re lambda| exceeds ``slack``. The
    slack dwarfs both the roots' and eig's rounding once every gap clears
    the pointwise tolerance, so a certified cell gets the class the
    eigenvalue rule would give it. With gap_floor 0 no cell is certified
    Boundary. Cells within slack of a tolerance (near a zero mode or a
    collision) and cells whose roots come out NaN are left uncertified.
    """
    slack = 1e-6 * (1.0 + scale)
    shift = c2 / 3.0
    p = c1 - c2 * shift
    q = c0 - shift * (c1 - 2.0 * shift * shift)
    half_q, third_p = 0.5 * q, p / 3.0
    disc = half_q * half_q + third_p * third_p * third_p
    with np.errstate(invalid="ignore", divide="ignore"):
        m = 2.0 * np.sqrt(-third_p)
        # theta in [0, pi/3], so sqrt(3) sin(theta) = sqrt(3 (1 - cos^2)) >= 0
        cos = np.cos(np.arccos(3.0 * q / (p * m)) / 3.0)
        half_m = 0.5 * m
        mid, side = -half_m * cos - shift, half_m * np.sqrt(3.0 * (1.0 - cos * cos))
        mu0 = m * cos - shift
        w0, w1, w2 = (np.sqrt(np.maximum(-mu, 0.0)) for mu in (mu0, mid + side, mid - side))
        separation = np.minimum(np.minimum(w1 - w0, w2 - w1), w0)
        u = np.cbrt(-half_q - np.copysign(np.sqrt(disc), q))
        v = -p / (3.0 * u)
        # (Re lambda)^2 is the largest real mu or, for the complex pair
        # mu = x +- iy, (|mu| + x) / 2; for x < 0 the sum cancels, but its
        # error, about eps |x| <= 2e-16 scale^2, is far below slack^2, and
        # _MAX_MAGNITUDE keeps x^2 + y^2 finite
        x, y = -0.5 * (u + v) - shift, 0.5 * math.sqrt(3.0) * (u - v)
        real = disc <= 0.0
        re_squared = np.where(
            real, mu0, np.maximum(u + v - shift, 0.5 * (np.sqrt(x * x + y * y) + x))
        )
    tau = _gap_tol(scale, gap_floor)
    confined = real & (separation > tau + slack)
    boundary = real & (separation > _gap_tol(scale) + slack) & (separation < tau - slack)
    return confined, re_squared > slack * slack, boundary


def _eig_classes(S: np.ndarray, gap_floor: float = 0.0):
    """The eigenvalue rule ``spectral._rule`` over a stack of generators S of
    shape (..., 6, 6): the eigenvalues of Lambda = J S, their tolerance scale
    ||Lambda||_F, and the class codes 'C'/'U'/'B'."""
    Lam = J6 @ S
    ev = np.linalg.eigvals(Lam)
    scale = np.sqrt((Lam**2).sum(axis=(-2, -1)))
    unconfined, separated = _rule(ev, scale, gap_floor)
    return ev, scale, np.where(unconfined, "U", np.where(separated, "C", "B"))


def _loop_codes(b, b0, omega: float, gap_floor: float = 0.0) -> np.ndarray:
    """Codes 'C'/'U'/'B' of loop points (|b|, |b0|), w0 = 4 |b0| / 3, by the
    eigenvalue rule; b and b0 broadcast together (a 1-D stack, or a row of b
    against a column of b0 for a grid tile).

    Most points are certified Confined, Unconfined or, inside the band that
    ``gap_floor`` adds above the pointwise gap tolerance, Boundary from the
    closed-form mu-cubic of the loop (``_loop_cubic``, ``_certify_cells``);
    only the rest (beside a tolerance edge, a mode collision or a zero mode)
    get a 6x6 stack and go through the batched eigensolver, with the same
    result either way.
    """
    b, b0 = np.abs(b), np.abs(b0)
    confined, unconfined, boundary = _certify_cells(*_loop_cubic(b, b0, omega), gap_floor)
    codes = np.where(unconfined, "U", np.where(boundary, "B", "C"))
    rest = ~(confined | unconfined | boundary)
    if rest.any():
        b, b0 = (np.broadcast_to(x, rest.shape)[rest] for x in (b, b0))
        curvatures = PenningQuadrupole(4.0 * b0 / 3.0).curvatures()
        codes[rest] = _eig_classes(_generator(b, b0, omega, curvatures, b.shape), gap_floor)[2]
    return codes


def _classify_grid(alphas: np.ndarray, alpha0s: np.ndarray, gap_floor: float) -> np.ndarray:
    """Cell codes 'C'/'U'/'B' on the loop at omega = 1, indexed [alpha0, alpha].

    Cells go through ``_loop_codes`` in tiles of at most _CHUNK_CELLS: as many
    whole rows as fit, or one row split into _CHUNK_CELLS-wide pieces, so the
    mu-cubic's alpha0 terms are a column and b^2 a row. One thread per usable
    CPU; NumPy releases the interpreter lock in the heavy calls.
    """
    codes = np.empty((len(alpha0s), len(alphas)), dtype="<U1")
    width = min(len(alphas), _CHUNK_CELLS)
    height = max(1, _CHUNK_CELLS // width)

    def work(corner):
        i, j = corner
        codes[i : i + height, j : j + width] = _loop_codes(
            alphas[None, j : j + width], alpha0s[i : i + height, None], 1.0, gap_floor
        )

    affinity = getattr(os, "sched_getaffinity", None)  # missing on macOS and Windows
    workers = len(affinity(0)) if affinity else os.cpu_count() or 1
    corners = itertools.product(range(0, len(alpha0s), height), range(0, len(alphas), width))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for _ in pool.map(work, corners):
            pass
    return codes


@dataclass(frozen=True)
class RegionMap:
    """Cell classification of the (alpha, alpha0) plane with labeled components.

    ``classes[i, j]`` holds 'C'/'U'/'B' at (alpha0s[i], alphas[j]);
    ``component`` holds 1-based ids on Confined cells (4-neighbor
    connectivity) and -1 elsewhere. Unconfined regions are counted as the
    connected components of the non-confined complement that contain at least
    one Unconfined cell, so that sub-resolution collision channels recorded
    as Boundary join the open unstable regions they border.
    """

    grid: GridSpec
    classes: np.ndarray
    component: np.ndarray
    n_components: int
    n_unconfined_regions: int
    auto_extended: bool
    gap_floor: float

    @property
    def alphas(self) -> np.ndarray:
        return self.grid.alphas

    @property
    def alpha0s(self) -> np.ndarray:
        return self.grid.alpha0s

    def to_csv(self, stream: IO[str]) -> None:
        """Rows alpha0-major ascending: header alpha,alpha0,class,component. Each
        run of equal (class, component) in a row (``_runs``) is one string join."""
        stream.write("alpha,alpha0,class,component\n")
        alphas = [f"{a:.17g}," for a in self.alphas.tolist()]
        alpha0s = [f"{a:.17g}" for a in self.alpha0s.tolist()]
        row, start, end = _runs(self.classes, self.component)
        for i, j, j_end, cls, comp in zip(
            row.tolist(), start.tolist(), end.tolist(),
            self.classes[row, start].tolist(), self.component[row, start].tolist(),
        ):
            line_end = f"{alpha0s[i]},{cls},{comp}\n"
            stream.write(line_end.join(alphas[j:j_end]) + line_end)


def _runs(*arrays: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row, start and end (one past the last column) of each maximal run of
    equal values in a row of the same-shaped 2-D arrays, in raster order; a
    run breaks where any of the arrays changes. Values are compared by their
    bits, as unsigned integers of their width (class codes and component ids
    are equal exactly when their bits are). The runs tile the grid."""
    rows, cols = arrays[0].shape
    first = np.arange(0, rows * cols, cols)  # flat index of each run's first cell
    for a in arrays:
        flat = a.ravel().view(f"u{a.dtype.itemsize}")
        first = np.concatenate([first, np.flatnonzero(flat[1:] != flat[:-1]) + 1])
    first = np.sort(first)
    first = first[np.diff(first, prepend=-1) > 0]
    row, start = np.divmod(first, cols)
    return row, start, np.append(first[1:], rows * cols) - row * cols


def _label_regions(codes: np.ndarray) -> Tuple[np.ndarray, int, int]:
    """(component, n_components, n_unconfined_regions) of a grid of class codes,
    under the rules of ``RegionMap``: one union-find over the class runs of each
    row (``_runs``) in raster order. A run joins the overlapping runs of the row
    above when both or neither are Confined, and a non-Confined run the one
    beside it; each union keeps the smaller root, so Confined components are
    numbered in raster order of their first cells."""
    row, start, end = _runs(codes)
    cls = codes[row, start]
    confined = cls == "C"
    cols = codes.shape[1]
    at = row * cols  # flat index of the first cell of each run's row
    # run j overlaps runs lo[j] .. lo[j] + n_above[j] - 1 of the row above;
    # it is paired with those of its own kind, Confined or not
    lo = np.searchsorted(at + end, at + start - cols, side="right")
    n_above = np.searchsorted(at + start, at + end - cols, side="left") - lo
    j = np.repeat(np.arange(len(row)), n_above)
    i = np.arange(len(j)) + np.repeat(lo - np.cumsum(n_above) + n_above, n_above)
    keep = confined[i] == confined[j]
    # non-Confined runs side by side in a row (U beside B)
    beside = np.flatnonzero(~confined[1:] & ~confined[:-1] & (row[1:] == row[:-1]))
    parent = list(range(len(row)))

    def find(i):
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        return i

    for i, j in zip(np.append(i[keep], beside).tolist(), np.append(j[keep], beside + 1).tolist()):
        a, b = find(i), find(j)
        if a != b:
            parent[max(a, b)] = min(a, b)
    roots = np.array([find(i) for i in range(len(row))], dtype=np.intp)
    first = confined & (roots == np.arange(len(row)))
    ids = np.where(confined, np.cumsum(first)[roots], -1).astype(np.int32)
    component = np.repeat(ids, end - start).reshape(codes.shape)
    return component, int(first.sum()), int(np.count_nonzero(np.bincount(roots[cls == "U"])))


def _grown(lo: float, hi: float, step: float) -> Tuple[float, float, int]:
    """An axis (lo, hi, steps) with hi grown by 50%, capped at 10 and never
    lowered, at the step the caller asked for, so rounding never compounds."""
    new_hi = max(hi, min(1.5 * hi, 10.0))
    return lo, new_hi, int(round((new_hi - lo) / step))


def sweep_fig1(
    grid: Optional[GridSpec] = None,
    auto_extend: bool = True,
    gap_scale: float = GAP_SLOPE_SCALE,
) -> RegionMap:
    """Region map of the (alpha, alpha0) plane at omega = 1, w = 4 alpha0 / 3.

    The default window is [0, 3]^2 at 600 steps per axis. When fewer than four
    confined components are found and auto_extend is on, each axis maximum
    below 10 grows by 50% increments, capped at 10, at the cell size asked for
    on that axis; once no axis grows the result is reported as-is.
    """
    if not (math.isfinite(gap_scale) and gap_scale >= 0):
        raise DomainError(f"gap scale must be finite and >= 0, got {gap_scale}")
    spec = grid or GridSpec()
    steps = ((spec.alpha_max - spec.alpha_min) / spec.alpha_steps,
             (spec.alpha0_max - spec.alpha0_min) / spec.alpha0_steps)
    extended = False
    while True:
        gap_floor = gap_scale * spec.max_step
        codes = _classify_grid(spec.alphas, spec.alpha0s, gap_floor)
        component, n_comp, n_unconf = _label_regions(codes)
        grown = spec
        if auto_extend and n_comp < 4:
            grown = GridSpec(*_grown(spec.alpha_min, spec.alpha_max, steps[0]),
                             *_grown(spec.alpha0_min, spec.alpha0_max, steps[1]))
        if grown == spec:
            return RegionMap(
                grid=spec,
                classes=codes,
                component=component,
                n_components=n_comp,
                n_unconfined_regions=n_unconf,
                auto_extended=extended,
                gap_floor=gap_floor,
            )
        del codes, component  # the next round's map is not allocated beside this one
        spec, extended = grown, True


def _halvings(lo: float, hi: float, depth: int) -> np.ndarray:
    """The 2^depth - 1 midpoints that `depth` halvings of [lo, hi] can visit, in
    bracket order. Each is 0.5 * (a + b) of its own bracket [a, b], formed level
    by level as a one-halving-at-a-time loop would form it."""
    edges = np.array([lo, hi])
    for _ in range(depth):
        finer = np.empty(2 * len(edges) - 1)
        finer[0::2] = edges
        finer[1::2] = 0.5 * (edges[:-1] + edges[1:])
        edges = finer
    return edges[1:-1]


def _bisect(confined_at, lo: float, hi: float, length: float, tol: float, first=None):
    """Halve [lo, hi] max(1, ceil(log2(length / tol))) times, keeping
    confined_at(lo) true, where `length` is the bracket's extent in the units
    of `tol`; returns (lo, hi, iterations).

    The halvings go in the fewest rounds of at most _ROUND_DEPTH, of near-equal
    depth. A round calls confined_at (the first round `first`, when given) once
    on all its ``_halvings`` midpoints, then binary-searches their flags, so lo
    and hi are bit-identical to those of a loop that halves once per call.
    """
    iterations = max(1, math.ceil(math.log2(length / tol)))
    left = iterations
    for rounds in range(math.ceil(iterations / _ROUND_DEPTH), 0, -1):
        depth = math.ceil(left / rounds)
        mids = _halvings(lo, hi, depth)
        flags = (first or confined_at)(mids)
        first, step = None, 2 ** (depth - 1)
        node = step - 1  # the middle midpoint
        for _ in range(depth):
            step //= 2
            if flags[node]:
                lo, node = mids[node], node + step
            else:
                hi, node = mids[node], node - step
        left -= depth
    return float(lo), float(hi), iterations


def refine_boundary(
    p_confined: Tuple[float, float],
    p_unconfined: Tuple[float, float],
    tol: float = 1e-6,
) -> Tuple[float, float]:
    """Bisect a segment between a Confined and an Unconfined point.

    Points are (alpha, alpha0) on the loop at omega = 1; negative coordinates
    are folded by abs. The segment is pre-scanned at _PRESCAN_STEPS equal
    steps: two or more classification flips among the samples raise
    MultiCrossingError (subdivide and retry). Crossings closer together
    than length / _PRESCAN_STEPS go undetected, and bisection then returns
    one of them: refine_boundary((0.3, 0.55), (0.3, 1e6)) returns alpha0 =
    2710.75, though the segment also crosses four edges below alpha0 = 1.5.
    That point is a tolerance edge, not a physical crossing: the smallest
    gap stays at 1.3114 while the gap tolerance GAP_FACTOR (1 + ||Lambda||_F)
    grows up to meet it (2710.7 is Confined, 2710.8 Boundary). Bisection halves
    the bracket max(1, ceil(log2(length / tol))) times and returns the midpoint
    of the final bracket. The endpoints, the pre-scan samples and the first
    bisection round are classified in one batch.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise DomainError(f"tolerance must be finite and > 0, got {tol}")
    p0 = np.asarray(p_confined, dtype=float)
    p1 = np.asarray(p_unconfined, dtype=float)
    _check_range("parameters", [p0, p1])
    length = float(np.linalg.norm(p1 - p0))
    if length == 0.0:
        raise DomainError(f"segment {p0.tolist()} -> {p1.tolist()} has zero length")
    prescan = np.linspace(0.0, 1.0, _PRESCAN_STEPS + 1)

    def confined_at(s):
        return _loop_codes(*(p0 + s[:, None] * (p1 - p0)).T, 1.0) == "C"

    def first(mids):
        points = np.vstack([p0, p1, p0 + np.concatenate([prescan, mids])[:, None] * (p1 - p0)])
        confined = _loop_codes(*points.T, 1.0) == "C"
        if not confined[0]:
            raise DomainError(f"first endpoint {p0.tolist()} is not Confined")
        if confined[1]:
            raise DomainError(f"second endpoint {p1.tolist()} is not Unconfined/Boundary")
        flips = np.count_nonzero(np.diff(confined[2 : _PRESCAN_STEPS + 3]))
        if flips > 1:
            raise MultiCrossingError(
                f"segment {p0.tolist()} -> {p1.tolist()} crosses {flips} boundaries; subdivide"
            )
        return confined[_PRESCAN_STEPS + 3 :]

    lo, hi, _ = _bisect(confined_at, 0.0, 1.0, length, tol, first)
    mid = 0.5 * (lo + hi)
    return tuple(p0 + mid * (p1 - p0))


@dataclass(frozen=True)
class KcrResult:
    k_cr: float
    bracket: Tuple[float, float]
    tol: float
    iterations: int


def find_kcr(tol: float = 1e-7) -> KcrResult:
    """Critical field ratio where the slow mode pair loses stability at omega = 0.

    Bisection of the static loop classification over k in [0.01, 1.0]; the
    bracket is halved max(1, ceil(log2(range / tol))) times, in the batched
    rounds of ``_bisect``. The first round's call also checks the bracket
    ends.
    """
    if not math.isfinite(tol):
        raise DomainError(f"tolerance must be finite, got {tol}")
    if tol < 1e-9:
        raise DomainError(f"tolerance must be >= 1e-9, got {tol}")
    lo, hi = 0.01, 1.0

    def confined_at(k):
        return _loop_codes(k, 1.0, 0.0) == "C"

    def first(mids):
        confined = confined_at(np.concatenate([[lo, hi], mids]))
        if not confined[0]:
            raise NumericalError(f"lower bracket k={lo} is not Confined")
        if confined[1]:
            raise NumericalError(f"upper bracket k={hi} is not Unconfined")
        return confined[2:]

    lo, hi, iterations = _bisect(confined_at, lo, hi, hi - lo, tol, first)
    return KcrResult(k_cr=0.5 * (lo + hi), bracket=(lo, hi), tol=tol, iterations=iterations)


@dataclass(frozen=True)
class CurveTable:
    """Adiabatic derivative curves d(freq_i)/d(omega)|_{omega=0} over the ratio k.

    Columns dw2/dw3 carry NaN where the corresponding mode pair is unstable
    (stable23 False); dw1 follows the branch that stays stable for all k.
    """

    k: np.ndarray
    cos_theta: np.ndarray
    dw: np.ndarray  # (n, 3), NaN where undefined
    stable23: np.ndarray  # bool

    def to_csv(self, stream: IO[str]) -> None:
        stream.write("k,cos_theta,dw1,dw2,dw3,stable23\n")
        for i in range(len(self.k)):
            cells = [f"{self.k[i]:.17g}", f"{self.cos_theta[i]:.17g}"]
            for m in range(3):
                v = self.dw[i, m]
                cells.append("" if math.isnan(v) else f"{v:.17g}")
            cells.append("true" if self.stable23[i] else "false")
            stream.write(",".join(cells) + "\n")


def curve_fig2(k_grid: Optional[Sequence[float]] = None, binding: str = "penning") -> CurveTable:
    """Derivative curves at omega = 0 on the k-grid (default [0.01, 1.0], 500 points).

    `binding` names a kind in ``model.BINDINGS``, built at w0 = 4/3. For the
    loop binding, modes 2 and 3 exist only below the critical ratio; their
    columns are absent (never fabricated) beyond it, and dw1 follows the
    fastest mode that stays simple and purely imaginary. The oscillator
    binding keeps all three modes for every k. All k share one generator
    stack, one batched eigensolve and one implicit mu-cubic derivative.
    """
    if k_grid is None:
        ks = np.linspace(0.01, 1.0, 500)
    else:
        ks = np.asarray(list(k_grid), dtype=float)
        if ks.ndim != 1 or len(ks) == 0:
            raise DomainError("k grid must be a non-empty 1-D sequence")
        _check_range("k grid", ks)
        if np.any(ks <= 0):
            raise DomainError("k grid values must be > 0")
        if np.any(np.diff(ks) <= 0):
            raise DomainError("k grid must be strictly increasing")
    if binding not in BINDINGS:
        raise DomainError(f"unknown binding kind {binding!r}")
    curvatures = BINDINGS[binding](4.0 / 3.0).curvatures()
    S = _generator(ks, 1.0, 0.0, curvatures, ks.shape)
    ev, scale, codes = _eig_classes(S)
    stable23 = codes == "C"
    survivor = np.where(_simple_imaginary(ev, scale), ev.imag, 0.0).max(axis=-1)
    freqs = np.full((len(ks), 3), np.nan)
    # the three positive frequencies, descending
    freqs[stable23] = np.sort(ev[stable23].imag, axis=-1)[:, :2:-1]
    alone = ~stable23 & (survivor > 0)
    freqs[alone, 0] = survivor[alone]
    dw = _dmodes_implicit(S, freqs)
    ct = np.array([cos_theta(k) for k in ks])
    return CurveTable(k=ks, cos_theta=ct, dw=dw, stable23=stable23)
