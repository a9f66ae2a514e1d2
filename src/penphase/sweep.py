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
with a slack far above rounding. Each closed form is written once on arrays:
``_depressed`` (the shifted cubic and its discriminant), ``_trig_roots``
(three real roots) and ``_cardano`` (a real root and a complex pair); the
scalar scans keep a copy on floats. On the loop the cubic's coefficients and
the tolerance scale ||S||_F are each a term in b0 alone plus b^2 times
another (``_loop_cubic``), so over a grid tile, a column of alpha0 against a
row of alpha, each costs one to four passes. Only the points the roots leave
undecided are built as 6x6 generators and go through the batched
eigensolver: those within the slack of a tolerance, of a mode collision or
of a zero mode. At an exact zero mode (c0 == 0, as on the loop's rows
alpha0 = 3/4 and 3/2 at omega = 1) Lambda has a 2x2 Jordan block, which eig
splits by about sqrt(eps) ||Lambda|| onto either axis, so such a point is
decided by rule before any certificate: Unconfined where the deflated
quadratic's roots (``_deflated``) leave the pointwise tolerance, else
Boundary, never Confined. Every other label equals the eigenvalue rule's.
``_loop_codes`` is that one classifier of loop points over a grid tile,
with its margin as ``gap_floor``. The 1-D scans ``refine_boundary`` and
``find_kcr`` bisect one halving at a time and classify each point through
``_loop_code``, the same rule and certificates on Python floats under the
pointwise tolerance (gap_floor 0, under which only a zero mode is certified
Boundary), with the eigenvalue rule on the one 6x6 it leaves undecided;
their confined test is its code 'C'. ``refine_boundary`` classifies each
point of its scan once: its first halvings land on pre-scan samples and read
their codes.
The Fig. 2 curves evaluate one complex-step mu-cubic over all their k: its
real parts certify the rows past the collision, whose one stable mode takes
its frequency from Cardano's real root (``_survivors``), and only the other
rows go through the batched eigensolve; its imaginary parts give every
row's derivatives. No scan builds normal modes.
The grid tries each block of _BLOCK_COLUMNS cells of a row whole before its
cells (``_certify_blocks``): along a row the cubic's coefficients are affine
in b^2, so the cubic's sign at a fixed mu over a block follows from the
block's two ends, and its discriminant is a quartic in b^2, bounded below by
its Bernstein coefficients. Confined blocks are certified by root isolation
at both ends, Unconfined ones by a real root or a complex pair beyond the
slack; the cells of the blocks left undecided go to ``_loop_codes``. Blocks
decide 81% of the default map's cells. Grid work runs on the calling thread
in tiles of at most _CHUNK_CELLS blocks and pieces of at most
max(_CHUNK_CELLS, _BLOCK_COLUMNS) cells, so memory stays bounded for any
grid size. The labeller, the CSV and the SVG read each grid row as runs of
equal values (``_runs``): the 4-connected regions are one union-find over
the class runs, so no cell is labelled twice, and a CSV run or SVG rect is
one string per run.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import IO, Optional, Sequence, Tuple

import numpy as np

from .errors import DomainError, MultiCrossingError, NumericalError
from .model import BINDINGS, J6, PenningQuadrupole, _check_range, _float, _generator, _real_array
from .phases import _dmodes_cubic, _omega_cubic
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

#: Steps of the flip pre-scan in ``refine_boundary``; a power of two, so its
#: samples are exact and the first log2(_PRESCAN_STEPS) midpoints are samples.
_PRESCAN_STEPS = 32

#: Cells per piece of ``_loop_codes``, and blocks per tile of the block
#: stage; ``_loop_codes`` on 8,192 cells of the default map peaks at about
#: 1.7 MB of arrays (about 200 B per cell under tracemalloc).
_CHUNK_CELLS = 8192

#: Columns per block of a grid row that ``_certify_blocks`` decides at once.
_BLOCK_COLUMNS = 32

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
        names = ("alpha_min", "alpha_max", "alpha0_min", "alpha0_max")
        _check_range("grid extents", tuple(_float(name, getattr(self, name)) for name in names))
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


def _loop_cubic(b, b0, omega: float, sqrt=np.sqrt):
    """Coefficients (c2, c1, c0) of the mu-cubic (``model._mu_cubic``) and
    ||S||_F of loop points (b, b0), w0 = 4 b0 / 3; b and b0 broadcast together.
    On Python floats, with ``sqrt`` math.sqrt, every output is a Python float
    (both roots are correctly rounded, so the bits do not depend on which).

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
    scale = sqrt(
        B * (2.0 * B + (2.0 * (s + r + b0 * b0) + 4.0)) + (2.0 * s * s + r * r + 4.0 * d_sq + 3.0)
    )
    return c2, c1, c0, scale


def _depressed(c2, c1, c0):
    """(shift, p, q, disc) of mu^3 + c2 mu^2 + c1 mu + c0 = t^3 + p t + q,
    mu = t - shift, with disc = (q / 2)^2 + (p / 3)^3: three real roots where
    disc <= 0, else a real root and a complex pair. Arrays or floats."""
    shift = c2 / 3.0
    p = c1 - c2 * shift
    q = c0 - shift * (c1 - 2.0 * shift * shift)
    half_q, third_p = 0.5 * q, p / 3.0
    return shift, p, q, half_q * half_q + third_p * third_p * third_p


def _trig_roots(shift, p, q):
    """Roots mu0 >= mu1 >= mu2 of a ``_depressed`` cubic with disc <= 0, so
    w = sqrt(-mu) ascends: m cos(theta - 2 pi j / 3) - shift for j = 0, 1, -1,
    with theta in [0, pi/3], so sqrt(3) sin(theta) = sqrt(3 (1 - cos^2)) >= 0.
    NaN where the arccos argument leaves [-1, 1] or p m = 0."""
    m = 2.0 * np.sqrt(-(p / 3.0))
    cos = np.cos(np.arccos(3.0 * q / (p * m)) / 3.0)
    half_m = 0.5 * m
    mid, side = -half_m * cos - shift, half_m * np.sqrt(3.0 * (1.0 - cos * cos))
    return m * cos - shift, mid + side, mid - side


def _cardano(shift, p, q, disc):
    """Real root mu_r and pair_sq = a^2 of a ``_depressed`` cubic with
    disc > 0, whose complex roots are mu = x +- i y = (a +- i b)^2, so
    a^2 = (|mu| + x) / 2; u != 0, as |q / 2| + sqrt(disc) > 0. For x < 0 that
    sum cancels, but its error, about eps |x| <= 2e-16 ||S||_F^2, is far below
    any slack^2, and _MAX_MAGNITUDE keeps x^2 + y^2 finite."""
    u = np.cbrt(-(0.5 * q) - np.copysign(np.sqrt(disc), q))
    v = -p / (3.0 * u)
    x, y = -0.5 * (u + v) - shift, 0.5 * math.sqrt(3.0) * (u - v)
    return u + v - shift, 0.5 * (np.sqrt(x * x + y * y) + x)


def _deflated(c2, c1):
    """Largest (Re lambda)^2 over the roots mu = lambda^2 of the deflated
    quadratic mu^2 + c2 mu + c1, arrays or floats, where it is positive:
    with d = c2^2 - 4 c1, the larger of the real roots h = -(c2 + sign(c2)
    sqrt(d)) / 2 and c1 / h (free of cancellation) where d >= 0 (negative
    when both are), else the pair's (|mu| + Re mu) / 2 = (sqrt(c1) - c2 / 2)
    / 2. h underflows to 0 only at c1 = 0, |c2| <= 5e-324, where it is the
    root -c2; so the result is NaN only where c2 = c1 = 0 (c1 / h = 0 / 0)."""
    d = c2 * c2 - 4.0 * c1
    with np.errstate(invalid="ignore", divide="ignore"):
        h = -0.5 * (c2 + np.copysign(np.sqrt(d), c2))
        h = np.where(h == 0.0, -c2, h)
        return np.where(d < 0.0, 0.5 * (np.sqrt(c1) - 0.5 * c2), np.maximum(h, c1 / h))


def _certify_cells(
    c2, c1, c0, scale, gap_floor: float
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Masks (confined, unconfined, boundary) of the cells the mu-cubic decides
    without eig, from same-shaped arrays of its coefficients (``_loop_cubic``)
    and of the cells' ||S||_F, which equals the eigenvalue rule's scale
    ||Lambda||_F.

    The roots mu = lambda^2 come in closed form: ``_trig_roots`` when all
    three are real, ``_cardano`` otherwise. The cells are split on the sign
    of ``_depressed``'s disc and each formula runs on its own cells only;
    elementwise, so each cell's bits are those of the whole tile's pass.
    With all mu real, the separation min(w1 - w0, w2 - w1, w0) is the
    smallest gap and |lambda| the eigenvalue rule sees. A cell is certified
    Confined when the separation clears the gap tolerance by ``slack``;
    Boundary when it clears the pointwise tolerance by ``slack`` but stays
    ``slack`` below the grid's ``gap_floor``; Unconfined when some
    (Re lambda)^2 (the largest real mu, or ``_cardano``'s mu_r or pair_sq)
    exceeds ``slack``^2. The slack dwarfs both the roots' and eig's rounding
    once every gap clears the pointwise tolerance, so a certified cell gets
    the class the eigenvalue rule would give it. Cells within slack of a
    tolerance (near a zero mode or a collision) and cells whose roots come
    out NaN are left uncertified.

    A cell with c0 == 0 has an exact zero mode, a 2x2 Jordan block of Lambda
    that eig splits by about sqrt(eps) ||Lambda|| onto either axis, and the
    trigonometric roots misplace it by up to about 1e-10, beyond slack^2, so
    no certificate above is sound there. Such a cell is decided by rule
    instead: its cubic is mu (mu^2 + c2 mu + c1), and it is Unconfined where
    that quadratic's largest (Re lambda)^2 (``_deflated``) exceeds tau^2,
    with tau = _gap_tol(||S||_F) the pointwise tolerance, else Boundary;
    never Confined. With gap_floor 0 only these cells are certified
    Boundary. ``_loop_code`` applies the same rule and certificates to one
    point on floats.
    """
    cubic = _depressed(c2, c1, c0)
    zero = c0 == 0.0
    real = (cubic[3] <= 0.0) & ~zero
    confined, unconfined, boundary = (np.zeros(real.shape, dtype=bool) for _ in range(3))
    with np.errstate(invalid="ignore", divide="ignore"):
        tau = _gap_tol(scale[zero])
        unconfined[zero] = _deflated(c2[zero], c1[zero]) > tau * tau
        boundary[zero] = ~unconfined[zero]
        scale_r = scale[real]
        slack = 1e-6 * (1.0 + scale_r)
        mu0, mu1, mu2 = _trig_roots(*(a[real] for a in cubic[:3]))
        unconfined[real] = mu0 > slack * slack
        w0, w1, w2 = (np.sqrt(np.maximum(-mu, 0.0)) for mu in (mu0, mu1, mu2))
        separation = np.minimum(np.minimum(w1 - w0, w2 - w1), w0)
        tau = _gap_tol(scale_r, gap_floor)
        confined[real] = separation > tau + slack
        boundary[real] = (separation > _gap_tol(scale_r) + slack) & (separation < tau - slack)
        rest = ~(real | zero)  # a complex pair (or NaN roots)
        slack = 1e-6 * (1.0 + scale[rest])
        unconfined[rest] = np.maximum(*_cardano(*(a[rest] for a in cubic))) > slack * slack
    return confined, unconfined, boundary


def _eig_classes(S: np.ndarray, gap_floor: float = 0.0):
    """The eigenvalue rule ``spectral._rule`` over a stack of generators S of
    shape (..., 6, 6): the eigenvalues of Lambda = J S, their tolerance scale
    ||Lambda||_F, and the class codes 'C'/'U'/'B'."""
    Lam = J6 @ S
    ev = np.linalg.eigvals(Lam)
    scale = np.sqrt((Lam**2).sum(axis=(-2, -1)))
    unconfined, separated = _rule(ev, scale, gap_floor)
    return ev, scale, np.where(unconfined, "U", np.where(separated, "C", "B"))


def _loop_code(b: float, b0: float, omega: float) -> str:
    """Code 'C'/'U'/'B' of one loop point (|b|, |b0|), w0 = 4 |b0| / 3, by the
    pointwise eigenvalue rule (gap_floor 0), equal to ``_loop_codes``'.

    ``_loop_cubic``, the zero-mode rule and the Confined and Unconfined
    certificates of ``_certify_cells`` on Python floats: where it masks
    (c0 == 0, real roots or not, the arccos argument's range), this
    branches; the rule is the one ``_deflated`` call both share. ``max`` and
    ``min`` are written as the comparisons the builtins make (the first of
    equals wins, and a NaN compares false), so -0.0 and NaN pass through as
    they would. A point left undecided goes through ``_eig_classes`` as one
    6x6.
    """
    b, b0 = abs(b), abs(b0)
    c2, c1, c0, scale = _loop_cubic(b, b0, omega, math.sqrt)
    if c0 == 0.0:  # an exact zero mode: Unconfined or Boundary by rule
        tau = _gap_tol(scale)
        return "U" if _deflated(c2, c1) > tau * tau else "B"
    slack = 1e-6 * (1.0 + scale)
    shift = c2 / 3.0
    p = c1 - c2 * shift
    q = c0 - shift * (c1 - 2.0 * shift * shift)
    half_q, third_p = 0.5 * q, p / 3.0
    disc = half_q * half_q + third_p * third_p * third_p
    if disc > 0.0:  # a complex pair: u != 0, as |half_q| + sqrt(disc) > 0
        u = float(np.cbrt(-half_q - math.copysign(math.sqrt(disc), q)))
        v = -p / (3.0 * u)
        x, y = -0.5 * (u + v) - shift, 0.5 * math.sqrt(3.0) * (u - v)
        re_sq, pair_sq = u + v - shift, 0.5 * (math.sqrt(x * x + y * y) + x)
        if (pair_sq if pair_sq > re_sq else re_sq) > slack * slack:
            return "U"
    else:  # three real roots, so third_p <= 0
        m = 2.0 * math.sqrt(-third_p)
        pm = p * m
        arg = 3.0 * q / pm if pm != 0.0 else math.nan
        if -1.0 <= arg <= 1.0:
            cos = math.cos(math.acos(arg) / 3.0)
            half_m = 0.5 * m
            mid, side = -half_m * cos - shift, half_m * math.sqrt(3.0 * (1.0 - cos * cos))
            mu0 = m * cos - shift
            if mu0 > slack * slack:
                return "U"
            w0, w1, w2 = -mu0, -(mid + side), -(mid - side)  # w^2, floored at 0 below
            w0 = math.sqrt(0.0 if 0.0 > w0 else w0)
            w1 = math.sqrt(0.0 if 0.0 > w1 else w1)
            w2 = math.sqrt(0.0 if 0.0 > w2 else w2)
            gap = w1 - w0
            if w2 - w1 < gap:
                gap = w2 - w1
            if w0 < gap:
                gap = w0
            if gap > _gap_tol(scale) + slack:
                return "C"
    curvatures = PenningQuadrupole(4.0 * b0 / 3.0).curvatures()
    return _eig_classes(_generator(b, b0, omega, curvatures))[2].item()


def _loop_codes(b, b0, omega: float, gap_floor: float = 0.0) -> np.ndarray:
    """Codes 'C'/'U'/'B' of loop points (|b|, |b0|), w0 = 4 |b0| / 3, by the
    eigenvalue rule; b and b0 broadcast together (a 1-D stack, or a row of b
    against a column of b0 for a grid tile). One point at a time, under the
    pointwise rule, is ``_loop_code``.

    Points with an exact zero mode (c0 == 0) are Unconfined or Boundary by
    rule, and most others are certified Confined, Unconfined or, inside the
    band that ``gap_floor`` adds above the pointwise gap tolerance, Boundary
    from the closed-form mu-cubic of the loop (``_loop_cubic``,
    ``_certify_cells``); only the rest (beside a tolerance edge, a mode
    collision or a near zero mode) get a 6x6 stack and go through the
    batched eigensolver, with the same result either way.
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


def _certify_blocks(b_lo, b_hi, b0, gap_floor: float):
    """Masks (confined, real_root, pair) of blocks of loop cells at omega = 1:
    a block is the cells of one row |b0| whose B = b^2 lies in [b_lo^2, b_hi^2]
    (0 <= b_lo <= b_hi; b_lo, b_hi and b0 broadcast together). Where a mask
    holds, every cell of the block gets, from the eigenvalue rule with margin
    ``gap_floor``, the class 'C' (confined) or 'U' (real_root, pair).

    On a row, ``_loop_cubic``'s c2, c1 and c0 are affine in B, so at a fixed
    mu the cubic q(mu) = mu^3 + c2 mu^2 + c1 mu + c0 is affine in B, and its
    sign at both ends of the block is its sign over the block; the
    discriminant D = (Q/2)^2 + (P/3)^3 of ``_depressed`` is a quartic in
    B. ||S||_F grows with B >= 0, so the tolerances are taken at the upper
    end: tau = _gap_tol(||S||, gap_floor) and slack = 1e-6 (1 + ||S||) there
    are at least each cell's own.

    - Confined: the end roots (``_trig_roots``, w = sqrt(-mu) ascending) minus
      and plus a quarter of their worst separation give test points
      a0 < b0 < a1 < b1 < a2 < b2 in w. If q(-w^2) has the signs
      +, -, -, +, +, - there at both ends, every cell's cubic has a root in
      each of (-bj^2, -aj^2), so exactly one, and all three frequencies are
      real, simple and inside (aj, bj): the separation min(w0, w1 - w0,
      w2 - w1) exceeds min(a0, a1 - b0, a2 - b1), which must exceed tau +
      slack, as ``_certify_cells`` asks of a cell's computed separation.
    - Real root: q(slack^2) < 0 at both ends, so every cell's cubic has a root
      mu > slack^2, a real pair |Re lambda| > slack.
    - Pair: a lower bound d of D over the block (its Bernstein coefficients on
      [b_lo^2, b_hi^2], from D at five nodes whose c2, c1, c0 are
      interpolated in B; Farouki, CAGD 29 (2012) 379) is positive, so every
      cell's cubic has a complex pair mu = x +- iy. Its discriminant,
      -108 D = -4 y^2 |mu_1 - mu|^4 with mu_1 the real root, and Cauchy's
      bound R = 1 + max |c_k| over the ends (|mu| < R for every root) give
      y^2 >= 27 d / (16 R^4). (Re lambda)^2 = (|mu| + x) / 2 <= slack^2
      would need y^2 <= 4 slack^2 (slack^2 - x) <= 4 slack^2 (slack^2 + R),
      so y^2 beyond that bound puts the pair at |Re lambda| > slack.

    Rounding margins. The cubic of a cell is the one its own computed c_k
    give, as for ``_certify_cells``. With P = s + d^2 >= |p|, the absolute
    terms of c2, c1 and c0 sum to T2 = 2P + r + 4d^2 + 4B, T1 = 2Pr + P^2 +
    4d^2 r + B (4P + 8|d| + 1) and T0 = P^2 r + BP, all growing with B, so
    taken at the upper end. Each computed c_k is within 16 eps T_k of its
    affine value (eps = 2^-53), at a cell as at an end, and Horner's rule
    adds 7 eps (|mu|^3 + T2 mu^2 + T1 |mu| + T0), so a sign test asks
    |q(mu)| > 1e-12 (|mu|^3 + T2 mu^2 + T1 |mu| + T0), 230 times the sum of
    the three. Write D^ for D with P = T1 + T2^2 / 3 and Q = T0 + T2 T1 / 3
    + 2 T2^3 / 27. Coefficients within 35 eps T_k (an end's error, a cell's
    and the interpolation's) move D by at most 6 (35 eps) D^, its evaluation
    adds a few eps D^, and the Bernstein weights' absolute sums are at most
    15.3: under 4e-13 D^, so d is the smallest coefficient less 1e-10 D^.
    R adds 1e-12 max T_k for the cells' own c_k. The squares of the test
    points round by a relative eps, far below slack. Blocks whose ends give
    NaN or inf decide nothing.
    """
    with np.errstate(all="ignore"):
        ends = [_loop_cubic(b, b0, 1.0) for b in (b_lo, b_hi)]
        shape = np.shape(ends[0][0])
        ends = [[np.ravel(x) for x in end] for end in ends]
        d = 1.0 - b0
        d_sq, s = d * d, b0 * b0 / 9.0
        P, r, B = s + d_sq, 16.0 * s, b_hi * b_hi
        sizes = [np.ravel(x) for x in (
            (2.0 * P + r + 4.0 * d_sq) + 4.0 * B,
            (2.0 * P * r + P * P + 4.0 * d_sq * r) + B * (4.0 * P + 8.0 * abs(d) + 1.0),
            P * P * r + B * P,
        )]  # T2, T1, T0, shaped as the ends

        def beyond(end, mu, sign, t):  # sign q(mu) > its rounding bound
            c2, c1, c0, _ = end
            x = abs(mu)
            value = ((mu + c2) * mu + c1) * mu + c0
            return sign * value > 1e-12 * (((x + t[0]) * x + t[1]) * x + t[2])

        lo, hi = ends
        scale = hi[3]
        slack = 1e-6 * (1.0 + scale)
        s_sq = slack * slack
        real_root = beyond(lo, s_sq, -1.0, sizes) & beyond(hi, s_sq, -1.0, sizes)
        disc = [_depressed(*end[:3])[3] for end in ends]
        confined, pair = np.zeros_like(real_root), np.zeros_like(real_root)

        # Confined: both ends' roots real, then the intervals and their signs
        at = np.flatnonzero((disc[0] <= 0.0) & (disc[1] <= 0.0) & ~real_root)
        w = [[np.sqrt(-mu) for mu in _trig_roots(*_depressed(*(x[at] for x in end[:3]))[:3])]
             for end in ends]
        gap = functools.reduce(np.minimum, [g for w0, w1, w2 in w for g in (w0, w1 - w0, w2 - w1)])
        inner = [np.minimum(x, y) - 0.25 * gap for x, y in zip(*w)]  # a0, a1, a2
        outer = [np.maximum(x, y) + 0.25 * gap for x, y in zip(*w)]  # b0, b1, b2
        margin = _gap_tol(scale[at], gap_floor) + slack[at]
        ok = (inner[0] > margin) & (inner[1] - outer[0] > margin) & (inner[2] - outer[1] > margin)
        t = [x[at] for x in sizes]
        for end in ([x[at] for x in end] for end in ends):
            for x, sign in zip((*inner, *outer), (1.0, -1.0, 1.0, -1.0, 1.0, -1.0)):
                ok &= beyond(end, -x * x, sign, t)
        confined[at] = ok

        # Pair: D > 0 over the block, by its Bernstein coefficients
        at = np.flatnonzero((disc[0] > 0.0) & (disc[1] > 0.0) & ~real_root)
        lo_c, hi_c = ([x[at] for x in end[:3]] for end in ends)
        v0, v4 = disc[0][at], disc[1][at]
        v1, v2, v3 = (
            _depressed(*(x + f * (y - x) for x, y in zip(lo_c, hi_c)))[3]
            for f in (0.25, 0.5, 0.75)
        )
        t2, t1, t0 = (x[at] for x in sizes)
        p_hat, q_hat = t1 + t2 * t2 / 3.0, t0 + t2 * (t1 / 3.0 + 2.0 * t2 * t2 / 27.0)
        lower = functools.reduce(np.minimum, [
            v0, v4,
            (-13.0 * v0 + 48.0 * v1 - 36.0 * v2 + 16.0 * v3 - 3.0 * v4) / 12.0,
            (13.0 * v0 - 64.0 * v1 + 120.0 * v2 - 64.0 * v3 + 13.0 * v4) / 18.0,
            (-3.0 * v0 + 16.0 * v1 - 36.0 * v2 + 48.0 * v3 - 13.0 * v4) / 12.0,
        ]) - 1e-10 * (0.25 * q_hat * q_hat + (p_hat / 3.0) ** 3)
        R = 1.0 + functools.reduce(np.maximum, [abs(x) for x in (*lo_c, *hi_c)])
        R += 1e-12 * functools.reduce(np.maximum, [t2, t1, t0])
        R_sq, s_sq = R * R, s_sq[at]
        pair[at] = 27.0 * lower > 64.0 * R_sq * R_sq * s_sq * (s_sq + R)
    return confined.reshape(shape), real_root.reshape(shape), pair.reshape(shape)


def _classify_grid(alphas: np.ndarray, alpha0s: np.ndarray, gap_floor: float) -> np.ndarray:
    """Cell codes 'C'/'U'/'B' on the loop at omega = 1, indexed [alpha0, alpha].

    Each row is cut into blocks of _BLOCK_COLUMNS columns, and each block is
    first tried whole by ``_certify_blocks`` on the hull of its cells' b^2,
    so unsorted or repeated alphas stay covered. The block stage runs on
    tiles of whole rows holding at most _CHUNK_CELLS blocks (one row's blocks
    split into pieces when they are more), as (row x block) arrays; a decided
    block writes its code into its cells. The cells of all the undecided
    blocks of a tile go through ``_loop_codes`` in one pass, as a
    (block x column) grid _BLOCK_COLUMNS wide cut into pieces of at most
    max(_CHUNK_CELLS, _BLOCK_COLUMNS) cells, so every code is the eigenvalue
    rule's and no per-cell array spans a tile. A short last block's columns
    are clipped to the grid's last column, so its piece repeats that cell:
    same alpha, same code.
    """
    codes = np.empty((len(alpha0s), len(alphas)), dtype="<U1")
    b, b0 = np.abs(alphas), np.abs(alpha0s)
    cols = len(b)
    starts = np.arange(0, cols, _BLOCK_COLUMNS)
    b_lo, b_hi = np.minimum.reduceat(b, starts), np.maximum.reduceat(b, starts)
    width = min(len(starts), _CHUNK_CELLS)
    height = max(1, _CHUNK_CELLS // width)
    down = max(1, _CHUNK_CELLS // _BLOCK_COLUMNS)  # blocks per piece of _loop_codes
    for i, k in itertools.product(range(0, len(alpha0s), height), range(0, len(starts), width)):
        blocks = slice(k, k + width)
        confined, real_root, pair = _certify_blocks(
            b_lo[None, blocks], b_hi[None, blocks], b0[i : i + height, None], gap_floor
        )
        first = k * _BLOCK_COLUMNS
        cells = codes[i : i + height, first : first + width * _BLOCK_COLUMNS]  # a view
        block = np.repeat(np.where(confined, "C", "U"), _BLOCK_COLUMNS, axis=1)
        cells[...] = block[:, : cells.shape[1]]
        # the undecided blocks as a (block, column) grid, a short block's
        # columns clipped to the last, in pieces of `down` blocks
        row, start = np.nonzero(~(confined | real_root | pair))
        row, start = row + i, first + start * _BLOCK_COLUMNS
        for a in range(0, len(row), down):
            r = row[a : a + down, None]
            c = np.minimum(start[a : a + down, None] + np.arange(_BLOCK_COLUMNS), cols - 1)
            codes[r, c] = _loop_codes(b[c], b0[r], 1.0, gap_floor)
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
    if not (math.isfinite(_float("gap scale", gap_scale)) and gap_scale >= 0):
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


def _bisect(confined_at, lo: float, hi: float, length: float, tol: float):
    """Halve [lo, hi] max(1, ceil(log2(length / tol))) times, one midpoint
    0.5 * (lo + hi) and one confined_at call per halving, keeping
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
    of the final bracket. The endpoints, each pre-scan sample and each
    midpoint are classified one at a time by ``_loop_code``, at p0 + s (p1 - p0)
    on Python floats, and each point of the scan once. The samples
    s = k / _PRESCAN_STEPS are exact: the sample s = 0 is p0 (a + 0 da == a),
    the sample s = 1 is p1 unless p0 + (p1 - p0) rounds away from it, and the
    first min(5, halvings) midpoints are samples, which read the codes already
    found. (Points are told apart by s, so a segment across an axis classifies
    a point and its mirror image both.)
    """
    if not (math.isfinite(_float("tolerance", tol)) and tol > 0):
        raise DomainError(f"tolerance must be finite and > 0, got {tol}")
    try:  # _float parses no string: its DomainError is a ValueError
        (a, a0), (b, b0) = ((_float("alpha", x), _float("alpha0", y))
                            for x, y in (p_confined, p_unconfined))
    except (TypeError, ValueError):
        raise DomainError("segment endpoints must be (alpha, alpha0) pairs of reals") from None
    _check_range("parameters", (a, a0, b, b0))
    da, da0 = b - a, b0 - a0
    length = math.hypot(da, da0)
    if length == 0.0:
        raise DomainError(f"segment {[a, a0]} -> {[b, b0]} has zero length")

    def confined_at(s):
        return _loop_code(a + s * da, a0 + s * da0, 1.0) == "C"

    if _loop_code(a, a0, 1.0) != "C":
        raise DomainError(f"first endpoint {[a, a0]} is not Confined")
    if _loop_code(b, b0, 1.0) == "C":
        raise DomainError(f"second endpoint {[b, b0]} is not Unconfined/Boundary")
    flags = [True] + [confined_at(k / _PRESCAN_STEPS) for k in range(1, _PRESCAN_STEPS)]
    flags.append((a + da, a0 + da0) != (b, b0) and confined_at(1.0))
    flips = sum(map(operator.ne, flags[1:], flags[:-1]))
    if flips > 1:
        raise MultiCrossingError(
            f"segment {[a, a0]} -> {[b, b0]} crosses {flips} boundaries; subdivide"
        )

    def halving_at(s):  # the first halvings land on samples
        k = s * _PRESCAN_STEPS
        return flags[int(k)] if k.is_integer() else confined_at(s)

    lo, hi, _ = _bisect(halving_at, 0.0, 1.0, length, tol)
    mid = 0.5 * (lo + hi)
    return (a + mid * da, a0 + mid * da0)


@dataclass(frozen=True)
class KcrResult:
    k_cr: float
    bracket: Tuple[float, float]
    tol: float
    iterations: int


def find_kcr(tol: float = 1e-7) -> KcrResult:
    """Critical field ratio where the slow mode pair loses stability at omega = 0.

    Bisection of the static loop classification over k in [0.01, 1.0]; the
    bracket ends are checked, then the bracket is halved
    max(1, ceil(log2(range / tol))) times by ``_bisect``, each k classified by
    ``_loop_code``.
    """
    if not math.isfinite(_float("tolerance", tol)):
        raise DomainError(f"tolerance must be finite, got {tol}")
    if tol < 1e-9:
        raise DomainError(f"tolerance must be >= 1e-9, got {tol}")
    lo, hi = 0.01, 1.0

    def confined_at(k):
        return _loop_code(k, 1.0, 0.0) == "C"

    if not confined_at(lo):
        raise NumericalError(f"lower bracket k={lo} is not Confined")
    if confined_at(hi):
        raise NumericalError(f"upper bracket k={hi} is not Unconfined")
    lo, hi, iterations = _bisect(confined_at, lo, hi, hi - lo, tol)
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


def _survivors(c2, c1, c0, scale) -> np.ndarray:
    """Frequency w = sqrt(-mu_r) of the one stable mode of each row whose
    mu-cubic certifies it, NaN elsewhere; from same-shaped arrays of the
    cubic's coefficients and of the rows' ||S||_F.

    A row is certified where the cubic has a complex pair (disc > 0) and,
    with tau = _gap_tol(||S||_F) and slack = 1e-6 (1 + ||S||_F) as in
    ``_certify_cells``, ``_cardano`` gives pair_sq = a^2 > (tau + slack)^2
    and -mu_r > (tau + slack)^2. Rounding moves the computed (Re lambda)^2
    by about eps ||S||_F^2 (for x < 0 too, by ``_cardano``), and eig moves
    an eigenvalue by at most about sqrt(eps) ||Lambda||_F, at a Jordan block
    too; ||Lambda||_F = ||S||_F, the rows' scale here, so both stay far
    below the slack. So:

    - the pair's four eigenvalues have |Re lambda| = a > tau + slack, and
      eig's stay beyond tau: the eigenvalue rule calls the row Unconfined
      (stable23 False), and none of the four is a simple imaginary mode;
    - the real root gives lambda = +-i w with w > tau + slack: eig's Re
      stays within tau, its Im beyond tau, and its distance to every other
      eigenvalue is at least min(2 w, a) > tau, so it is the one simple
      imaginary mode with Im > 0, the survivor that ``_simple_imaginary``
      would pick, to rounding.

    Rows within the slack of either bound, with three real roots, or whose
    roots come out NaN are left uncertified.
    """
    cubic = _depressed(c2, c1, c0)
    at = np.flatnonzero(cubic[3] > 0.0)
    mu_r, pair_sq = _cardano(*(x[at] for x in cubic))
    edge = np.square(_gap_tol(scale[at]) + 1e-6 * (1.0 + scale[at]))
    certified = (pair_sq > edge) & (-mu_r > edge)
    w = np.full(cubic[3].shape, np.nan)
    w[at[certified]] = np.sqrt(-mu_r[certified])
    return w


def curve_fig2(k_grid: Optional[Sequence[float]] = None, binding: str = "penning") -> CurveTable:
    """Derivative curves at omega = 0 on the k-grid (default [0.01, 1.0], 500 points).

    `binding` names a kind in ``model.BINDINGS``, built at w0 = 4/3. For the
    loop binding, modes 2 and 3 exist only below the critical ratio; their
    columns are absent (never fabricated) beyond it, and dw1 follows the
    fastest mode that stays simple and purely imaginary. The oscillator
    binding keeps all three modes up to k of about 184.54, where its slow
    mode, about w0^2 / (2 sqrt(1 + k^2)), falls below the gap tolerance
    GAP_FACTOR (1 + ||Lambda||_F): the rows beyond are Boundary.

    All k share one generator stack and one complex-step mu-cubic
    (``phases._omega_cubic``): its real parts certify the rows with one
    stable mode (``_survivors``) and its imaginary parts give every row's
    derivatives. Only the other rows go through the batched eigensolve: the
    eigenvalue rule gives their class, a Confined row's three frequencies
    are its eigenvalues' positive imaginary parts, and any other row's dw1
    follows its fastest simple imaginary mode. eig gives each matrix the
    same bits in any stack, so those rows' frequencies do not depend on
    which rows were certified.
    """
    if k_grid is None:
        ks = np.linspace(0.01, 1.0, 500)
    else:
        try:
            ks = _real_array("k grid", list(k_grid))
        except TypeError:  # not iterable
            raise DomainError("k grid must be a sequence of real numbers") from None
        if ks.ndim != 1 or len(ks) == 0:
            raise DomainError("k grid must be a non-empty 1-D sequence")
        _check_range("k grid", ks)
        if np.any(ks <= 0):
            raise DomainError("k grid values must be > 0")
        if np.any(np.diff(ks) <= 0):
            raise DomainError("k grid must be strictly increasing")
    if not isinstance(binding, str) or binding not in BINDINGS:
        raise DomainError(f"unknown binding kind {binding!r}")
    curvatures = BINDINGS[binding](4.0 / 3.0).curvatures()
    S = _generator(ks, 1.0, 0.0, curvatures, ks.shape)
    cubic = _omega_cubic(S)
    freqs = np.full((len(ks), 3), np.nan)
    freqs[:, 0] = _survivors(*(c.real for c in cubic), np.sqrt((S * S).sum(axis=(-2, -1))))
    stable23 = np.zeros(len(ks), dtype=bool)
    rest = np.flatnonzero(np.isnan(freqs[:, 0]))
    if len(rest):
        ev, scale, codes = _eig_classes(S[rest])
        confined = codes == "C"
        # the three positive frequencies, descending
        freqs[rest[confined]] = np.sort(ev[confined].imag, axis=-1)[:, :2:-1]
        stable23[rest] = confined
        if not confined.all():
            ev, scale, loose = ev[~confined], scale[~confined], rest[~confined]
            survivor = np.where(_simple_imaginary(ev, scale), ev.imag, 0.0).max(axis=-1)
            freqs[loose[survivor > 0], 0] = survivor[survivor > 0]
    dw = _dmodes_cubic(cubic, freqs)
    return CurveTable(k=ks, cos_theta=1.0 / np.sqrt(1.0 + ks * ks), dw=dw, stable23=stable23)
