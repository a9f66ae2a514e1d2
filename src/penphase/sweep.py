"""Parameter-space exploration: the (alpha, alpha0) region map under the loop
constraint w = 4 alpha0 / 3, adiabatic derivative curves over the field ratio
k, and bisection utilities for region boundaries and the critical ratio.

Grid cells are classified with a resolution-aware degeneracy tolerance: a
cell whose spectral gap (or smallest eigenvalue) is below a few grid steps'
worth of gap change cannot be certified as Confined at that resolution and is
recorded as Boundary. This keeps the cell labeling faithful to the true open
confined regions, whose separating collision curves pinch below any fixed
grid resolution near their roots on the alpha = 0 axis; the pointwise
classifier keeps its own much tighter spectral tolerances. Both apply the
same rule from ``spectral``, the grid with its margin as ``gap_floor``.

Since Lambda = J S is Hamiltonian, its characteristic polynomial is a cubic
in mu = lambda^2, and most cells are certified Confined or Unconfined from
the closed-form roots of that cubic, with a slack far above rounding. Only
the cells the roots leave undecided, near region edges, go through the
batched eigensolver; the labels equal those of the eigenvalue rule on every
cell. Grid work runs in fixed-size chunks of cells, so memory stays bounded
for any grid size, with one thread per CPU the process may use.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import IO, Optional, Sequence, Tuple

import numpy as np
from scipy import ndimage

from .errors import DomainError, MultiCrossingError, NumericalError
from .model import (
    BINDINGS,
    J6,
    PenningQuadrupole,
    SystemParams,
    _generator,
    build_G,
)
from .phases import _dmodes_perturbative, cos_theta
from .spectral import (
    Classification,
    Tolerances,
    _mu_cubic,
    _separated,
    _unconfined,
    classify,
    stable_modes,
)

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

#: Cells per certification chunk; one chunk peaks at about 5.4 MB of arrays.
_CHUNK_CELLS = 8192

#: Phase offsets 0, 2 pi/3, 4 pi/3 of the trigonometric cubic roots.
_THIRDS = 2.0 * np.pi / 3.0 * np.arange(3)


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
        if not all(math.isfinite(x) for x in extents):
            raise DomainError(f"grid extents must be finite, got {extents}")
        if self.alpha_steps < 1 or self.alpha0_steps < 1:
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


def _certify_cells(S: np.ndarray, tol: Tolerances) -> Tuple[np.ndarray, np.ndarray]:
    """Masks (confined, unconfined) of the cells the mu-cubic decides without eig,
    over a stack S of shape (n, 6, 6).

    The roots mu = lambda^2 come in closed form: trigonometric when all three
    are real, Cardano's otherwise. A cell is certified Confined when all three
    mu are negative and the frequencies w = sqrt(-mu) clear the gap tolerance
    by ``slack``, pairwise and from zero; Unconfined when some |Re lambda|
    exceeds ``slack``. The slack dwarfs both the roots' and eig's rounding,
    so a certified cell gets the class the eigenvalue rule would give it;
    a cell whose roots come out NaN is left uncertified.
    """
    c2, c1, c0 = _mu_cubic(S)
    scale = np.sqrt((S * S).sum(axis=(-2, -1)))
    slack = 1e-6 * (1.0 + scale)
    shift = c2 / 3.0
    p = c1 - c2 * shift
    q = c0 - shift * (c1 - 2.0 * shift * shift)
    disc = (0.5 * q) ** 2 + (p / 3.0) ** 3
    with np.errstate(invalid="ignore", divide="ignore"):
        m = 2.0 * np.sqrt(-p / 3.0)
        theta = np.arccos(3.0 * q / (p * m)) / 3.0
        mu = m[:, None] * np.cos(theta[:, None] - _THIRDS) - shift[:, None]
        u = np.cbrt(-0.5 * q - np.copysign(np.sqrt(disc), q))
        v = -p / (3.0 * u)
        mu_pair = (-0.5 * (u + v) - shift) + 0.5j * math.sqrt(3.0) * (u - v)
        w = np.sqrt(np.maximum(-mu, 0.0))
        separation = np.minimum(
            np.abs(w - np.roll(w, 1, axis=1)).min(axis=1), w.min(axis=1)
        )
        re_lam = np.where(
            disc <= 0.0,
            np.sqrt(np.maximum(mu.max(axis=1), 0.0)),
            np.maximum(np.sqrt(np.maximum(u + v - shift, 0.0)), np.sqrt(mu_pair).real),
        )
    confined = (disc <= 0.0) & (separation > tol.gap_tol(scale) + slack)
    return confined, re_lam > slack


def _classify_grid(alphas: np.ndarray, alpha0s: np.ndarray, gap_floor: float) -> np.ndarray:
    """Cell codes 'C'/'U'/'B' on the loop at omega = 1, indexed [alpha0, alpha].

    Most cells are certified from the closed-form mu-cubic; only the rest
    (near region edges) go through the batched eigensolver and the
    eigenvalue rule of ``spectral``, with the same result either way. Cells
    go alpha0-major in chunks of _CHUNK_CELLS, one thread per usable CPU;
    NumPy releases the interpreter lock in the heavy calls.
    """
    tol = Tolerances(gap_floor=gap_floor)
    n_cols = len(alphas)
    n_cells = len(alpha0s) * n_cols
    codes = np.empty(n_cells, dtype="<U1")

    def work(lo):
        cell = np.arange(lo, min(lo + _CHUNK_CELLS, n_cells))
        b, b0 = alphas[cell % n_cols], alpha0s[cell // n_cols]
        curvatures = PenningQuadrupole(4.0 * b0 / 3.0).curvatures()
        S = _generator(b, b0, 1.0, curvatures, b.shape)
        confined, unconfined = _certify_cells(S, tol)
        chunk = np.where(unconfined, "U", "C")
        rest = ~(confined | unconfined)
        Lam = J6 @ S[rest]
        ev = np.linalg.eigvals(Lam)
        scale = np.sqrt((Lam**2).sum(axis=(-2, -1)))
        separated = np.where(_separated(ev, scale, tol), "C", "B")
        chunk[rest] = np.where(_unconfined(ev, scale, tol), "U", separated)
        codes[lo : lo + len(cell)] = chunk

    with ThreadPoolExecutor(max_workers=len(os.sched_getaffinity(0))) as pool:
        for _ in pool.map(work, range(0, n_cells, _CHUNK_CELLS)):
            pass
    return codes.reshape(len(alpha0s), n_cols)


_FOUR_CONN = ndimage.generate_binary_structure(2, 1)


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
        """Rows alpha0-major ascending: header alpha,alpha0,class,component."""
        stream.write("alpha,alpha0,class,component\n")
        alphas = [f"{a:.17g}" for a in self.alphas.tolist()]
        for alpha0, row_cls, row_comp in zip(
            self.alpha0s.tolist(), self.classes.tolist(), self.component.tolist()
        ):
            a0 = f"{alpha0:.17g}"
            stream.write(
                "".join(f"{a},{a0},{c},{k}\n" for a, c, k in zip(alphas, row_cls, row_comp))
            )


def _label_regions(codes: np.ndarray) -> Tuple[np.ndarray, int, int]:
    confined = codes == "C"
    component, n_comp = ndimage.label(confined, structure=_FOUR_CONN)
    component = np.where(confined, component, -1).astype(np.int32)
    complement, _ = ndimage.label(~confined, structure=_FOUR_CONN)
    ids = np.unique(complement[codes == "U"])
    n_unconf = int(len(ids[ids > 0]))
    return component, int(n_comp), n_unconf


def sweep_fig1(
    grid: Optional[GridSpec] = None,
    auto_extend: bool = True,
    gap_scale: float = GAP_SLOPE_SCALE,
) -> RegionMap:
    """Region map of the (alpha, alpha0) plane at omega = 1, w = 4 alpha0 / 3.

    The default window is [0, 3]^2 at 600 steps per axis. When fewer than four
    confined components are found and auto_extend is on, the window grows by
    50% increments (same cell size) up to [0, 10]^2, then the result is
    reported as-is.
    """
    if not (math.isfinite(gap_scale) and gap_scale >= 0):
        raise DomainError(f"gap scale must be finite and >= 0, got {gap_scale}")
    spec = grid or GridSpec()
    extended = False
    while True:
        gap_floor = gap_scale * spec.max_step
        codes = _classify_grid(spec.alphas, spec.alpha0s, gap_floor)
        component, n_comp, n_unconf = _label_regions(codes)
        if not auto_extend or n_comp >= 4 or spec.alpha_max >= 10.0:
            return RegionMap(
                grid=spec,
                classes=codes,
                component=component,
                n_components=n_comp,
                n_unconfined_regions=n_unconf,
                auto_extended=extended,
                gap_floor=gap_floor,
            )
        step = spec.max_step
        new_max = min(spec.alpha_max * 1.5, 10.0)
        new_max0 = min(spec.alpha0_max * 1.5, 10.0)
        spec = GridSpec(
            alpha_min=spec.alpha_min,
            alpha_max=new_max,
            alpha_steps=int(round((new_max - spec.alpha_min) / step)),
            alpha0_min=spec.alpha0_min,
            alpha0_max=new_max0,
            alpha0_steps=int(round((new_max0 - spec.alpha0_min) / step)),
        )
        extended = True


def _loop_confined(b: float, b0: float, omega: float = 1.0) -> bool:
    params = SystemParams.penning_loop(b0=b0, b=b, omega=omega)
    return classify(J6 @ build_G(params).S).classification is Classification.CONFINED


def _bisect(confined_at, lo: float, hi: float, length: float, tol: float):
    """Halve [lo, hi] max(1, ceil(log2(length / tol))) times, keeping
    confined_at(lo) true, where `length` is the bracket's extent in the units
    of `tol`; returns (lo, hi, iterations)."""
    iterations = max(1, math.ceil(math.log2(length / tol)))
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        if confined_at(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi, iterations


def refine_boundary(
    p_confined: Tuple[float, float],
    p_unconfined: Tuple[float, float],
    tol: float = 1e-6,
) -> Tuple[float, float]:
    """Bisect a segment between a Confined and an Unconfined point.

    The segment is pre-scanned at _PRESCAN_STEPS equal steps for multiple
    classification flips (a region sliver raises MultiCrossingError;
    subdivide and retry). Bisection then halves the bracket
    max(1, ceil(log2(length / tol))) times and returns the midpoint of the
    final bracket.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise DomainError(f"tolerance must be finite and > 0, got {tol}")
    p0 = np.asarray(p_confined, dtype=float)
    p1 = np.asarray(p_unconfined, dtype=float)
    if not _loop_confined(*p0):
        raise DomainError(f"first endpoint {tuple(p0)} is not Confined")
    if _loop_confined(*p1):
        raise DomainError(f"second endpoint {tuple(p1)} is not Unconfined/Boundary")
    flips = 0
    prev = True
    for s in np.linspace(0.0, 1.0, _PRESCAN_STEPS + 1)[1:]:
        confined = _loop_confined(*(p0 + s * (p1 - p0)))
        if confined != prev:
            flips += 1
            prev = confined
    if flips > 1:
        raise MultiCrossingError(
            f"segment {tuple(p0)} -> {tuple(p1)} crosses {flips} boundaries; subdivide"
        )
    length = float(np.linalg.norm(p1 - p0))
    lo, hi, _ = _bisect(lambda s: _loop_confined(*(p0 + s * (p1 - p0))), 0.0, 1.0, length, tol)
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
    bracket is halved max(1, ceil(log2(range / tol))) times.
    """
    if not math.isfinite(tol):
        raise DomainError(f"tolerance must be finite, got {tol}")
    if tol < 1e-9:
        raise DomainError(f"tolerance must be >= 1e-9, got {tol}")
    lo, hi = 0.01, 1.0
    if not _loop_confined(lo, 1.0, 0.0):
        raise NumericalError(f"lower bracket k={lo} is not Confined")
    if _loop_confined(hi, 1.0, 0.0):
        raise NumericalError(f"upper bracket k={hi} is not Unconfined")
    lo, hi, iterations = _bisect(lambda k: _loop_confined(k, 1.0, 0.0), lo, hi, hi - lo, tol)
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
    columns are absent (never fabricated) beyond it. The oscillator binding
    keeps all three modes for every k.
    """
    if k_grid is None:
        ks = np.linspace(0.01, 1.0, 500)
    else:
        ks = np.asarray(list(k_grid), dtype=float)
        if ks.ndim != 1 or len(ks) == 0:
            raise DomainError("k grid must be a non-empty 1-D sequence")
        if not np.all(np.isfinite(ks)):
            raise DomainError("k grid must be finite")
        if np.any(ks <= 0):
            raise DomainError("k grid values must be > 0")
        if np.any(np.diff(ks) <= 0):
            raise DomainError("k grid must be strictly increasing")
    if binding not in BINDINGS:
        raise DomainError(f"unknown binding kind {binding!r}")
    bind = BINDINGS[binding](4.0 / 3.0)
    n = len(ks)
    dw = np.full((n, 3), np.nan)
    stable23 = np.zeros(n, dtype=bool)
    ct = np.array([cos_theta(k) for k in ks])
    for i, k in enumerate(ks):
        params = SystemParams(b=k, b0=1.0, w0=bind.w0, omega=0.0)
        S = build_G(params, bind).S
        spec = classify(J6 @ S)
        if spec.classification is Classification.CONFINED:
            freqs = spec.freqs
            dw[i] = _dmodes_perturbative(S, freqs)
            stable23[i] = True
        else:
            survivors = stable_modes(J6 @ S)
            if survivors:
                freqs = np.array([survivors[0].freq])
                dw[i, 0] = _dmodes_perturbative(S, freqs)[0]
    return CurveTable(k=ks, cos_theta=ct, dw=dw, stable23=stable23)
