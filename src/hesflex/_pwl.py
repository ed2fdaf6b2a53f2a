"""Continuous piecewise-linear functions on a closed interval.

Just enough machinery for exact one-dimensional dynamic programming
with convex stage costs and non-convex value functions: evaluation,
convex construction from exact samples, infimal convolution of convex
functions by slope merging, splitting into maximal convex runs, and the
exact pointwise minimum of several functions. A function is stored as
strictly increasing breakpoints ``xs`` with values ``ys``; a
single-point domain is legal.

Everything works on Python floats: the hot calls of a dynamic program
are on a few breakpoints, where numpy's set-up would cost more than the
arithmetic.
"""

from __future__ import annotations

import math
import operator
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

__all__ = ["Pwl", "inf_convolve", "convex_runs", "lower_envelope"]

_KINK_TOL = 1e-12
_TOL = 8.0 * sys.float_info.epsilon  # float rounding, with a few ulps to spare


@dataclass(frozen=True)
class Pwl:
    xs: tuple[float, ...]
    ys: tuple[float, ...]

    def __post_init__(self) -> None:
        xs = self.xs
        if not xs or len(xs) != len(self.ys):
            raise ValueError("xs and ys must be nonempty and equal length")
        if not all(map(operator.lt, xs, xs[1:])):
            raise ValueError("breakpoints must strictly increase")

    @property
    def x_lo(self) -> float:
        return self.xs[0]

    @property
    def x_hi(self) -> float:
        return self.xs[-1]

    def __call__(self, x: float) -> float:
        """Linear interpolation; outside the domain the endpoint value
        is held (callers are expected to stay in-domain)."""
        return _at(self.xs, self.ys, x)


def _at(xs, ys, x: float) -> float:
    """``Pwl(xs, ys)(x)``, for loops that cannot afford the method call."""
    if x <= xs[0]:
        return ys[0]
    if x >= xs[-1]:
        return ys[-1]
    i = bisect_right(xs, x) - 1
    t = (x - xs[i]) / (xs[i + 1] - xs[i])
    return (1.0 - t) * ys[i] + t * ys[i + 1]


def _hull(pts) -> Pwl:
    """Lower convex hull of exact samples of a convex function, given in
    ascending x order.

    The sample set must contain every kink of the target; duplicate x
    values keep the smaller y, and interior points on or above the
    chord of their neighbours are dropped, so float noise can only
    produce an underestimate, never a non-convex result. A sample joins
    the hull once the next one is no duplicate of it.
    """
    hx: list[float] = []
    hy: list[float] = []
    pts = iter(pts)
    px, py = next(pts)
    for x, y in (*pts, (None, None)):
        if x is not None and x - px <= 1e-13 * max(1.0, abs(x)):
            if y < py:
                py = y
            continue
        while len(hx) >= 2:
            lhs = (hy[-1] - hy[-2]) * (px - hx[-1])
            rhs = (py - hy[-1]) * (hx[-1] - hx[-2])
            if lhs >= rhs - _KINK_TOL * max(1.0, abs(lhs), abs(rhs)):
                hx.pop()  # middle point is no strict downward kink
                hy.pop()
            else:
                break
        hx.append(px)
        hy.append(py)
        px, py = x, y
    return Pwl(tuple(hx), tuple(hy))


def inf_convolve(f: Pwl, g: Pwl) -> Pwl:
    """Infimal convolution ``h(z) = min over x of f(x) + g(z - x)``.

    For convex piecewise-linear operands the result sweeps the merged
    ascending slope sequence starting from the sum of the left domain
    endpoints. Every vertex of that sweep is the sum of one vertex of f
    and one of g, and is computed as such, so rounding does not
    accumulate along the sweep, and the vertices come in ascending x
    order (float addition is monotone), which is the order ``_hull``
    needs.
    """
    fx, fy, gx, gy = f.xs, f.ys, g.xs, g.ys
    i = j = 0
    m, n = len(fx) - 1, len(gx) - 1
    pts = [(fx[0] + gx[0], fy[0] + gy[0])]
    while i < m or j < n:
        # take f's next segment when its slope is no steeper than g's
        if j == n or (i < m and (fy[i + 1] - fy[i]) * (gx[j + 1] - gx[j])
                      <= (gy[j + 1] - gy[j]) * (fx[i + 1] - fx[i])):
            i += 1
        else:
            j += 1
        pts.append((fx[i] + gx[j], fy[i] + gy[j]))
    return _hull(pts)


def convex_runs(f: Pwl) -> list[Pwl]:
    """Split f at its concave kinks into maximal convex pieces.

    Consecutive pieces share their end breakpoint, and f is the pointwise
    minimum of the pieces, each taken as +inf outside its own domain.
    """
    xs, ys = f.xs, f.ys
    slopes = [(ys[i + 1] - ys[i]) / (xs[i + 1] - xs[i]) for i in range(len(xs) - 1)]
    cuts = [0, *(i for i in range(1, len(slopes)) if slopes[i] < slopes[i - 1]), len(xs) - 1]
    if len(cuts) == 2:
        return [f]
    return [Pwl(f.xs[a:b + 1], f.ys[a:b + 1]) for a, b in zip(cuts, cuts[1:])]


def lower_envelope(fs, lo: float, hi: float) -> Pwl:
    """Exact pointwise minimum of continuous functions on [lo, hi].

    Each function counts as +inf outside its own domain; together the
    domains must cover [lo, hi], and the minimum must be continuous
    there. One function goes through the same four steps as many:

    1. The grid is lo, hi and every breakpoint strictly between. Each
       function is evaluated at the grid points of its domain with
       ``np.interp``'s arithmetic: a breakpoint gives its own value, any
       other point ``slope*(x - xs[j]) + ys[j]``. Each grid point keeps
       the minimum and the first function in ``fs`` order attaining it.
    2. Between neighbouring grid points every function is linear, so the
       minimum there is concave and lies on or above the chord of its end
       values. Where the same function is first lowest at both ends, it
       is the minimum on the whole interval.
    3. Elsewhere, among the functions defined on the whole interval, the
       crossing of the first lowest at the left end with the first lowest
       at the right end is inserted, and both halves are checked again
       (``_crossings``). A function counts as lowest when it is within
       float rounding of the lowest, so the result can sit below the true
       minimum by that much, never above it.
    4. Breakpoints on the chord of their neighbours to rounding are
       dropped, in rounds that each drop every other such point, so no
       two neighbours go in one round.
    """
    lo, hi = float(lo), float(hi)
    grid = {lo, hi}
    for f in fs:
        xs = f.xs
        grid.update(xs[bisect_right(xs, lo):bisect_left(xs, hi)])
    grid = sorted(grid)
    low = [math.inf] * len(grid)  # the minimum at each grid point
    first = [-1] * len(grid)  # the first function in fs order that attains it
    spans = []  # per function: its first grid index and its values from there on
    for k, f in enumerate(fs):
        xs, ys = f.xs, f.ys
        s = i = bisect_left(grid, xs[0])
        j = 0
        vals = []
        for x in grid[i:bisect_right(grid, xs[-1])]:
            while xs[j] < x:
                j += 1
            if xs[j] == x:
                v = ys[j]
            else:  # between xs[j - 1] and xs[j]
                v = (ys[j] - ys[j - 1]) / (xs[j] - xs[j - 1]) * (x - xs[j - 1]) + ys[j - 1]
            vals.append(v)
            if v < low[i]:
                low[i] = v
                first[i] = k
            i += 1
        spans.append((s, vals))
    gx, gy = grid, low
    # the grid points where the first-lowest function changes: the intervals
    # ending there may hold crossings
    checks = ([] if first.count(first[0]) == len(first)
              else [i for i in range(1, len(first)) if first[i - 1] != first[i]])
    if checks:
        ends = {i: ([], []) for i in checks}  # the functions defined on the whole interval
        for s, vals in spans:
            for i in checks[bisect_right(checks, s):bisect_left(checks, s + len(vals))]:
                ends[i][0].append(vals[i - 1 - s])
                ends[i][1].append(vals[i - s])
        for i in reversed(checks):
            left, right = ends[i]
            if left:
                cx, cy = [], []
                _crossings(grid[i - 1], grid[i], left, right, cx, cy)
                gx[i:i], gy[i:i] = cx, cy
    flat = [False] * len(gx)  # per point: on the chord of its neighbours
    todo = range(1, len(gx) - 1)
    while todo:
        for p in todo:
            x0, x1, x2 = gx[p - 1], gx[p], gx[p + 1]
            y0, y1, y2 = gy[p - 1], gy[p], gy[p + 1]
            slope = (y2 - y0) / (x2 - x0)
            dev = abs(y1 - (y0 + (x1 - x0) * slope))
            # the tolerance is never below _TOL, which settles most flat points
            flat[p] = dev <= _TOL or dev <= _TOL * (max(1.0, abs(y1), abs(y0), abs(y2))
                                                    + abs(slope) * max(abs(x0), abs(x2)))
        if True not in flat:
            break
        on = [p for p, f in enumerate(flat) if f]
        drop = on[::2]  # every other flat point: never two neighbours
        for p in reversed(drop):
            del gx[p], gy[p], flat[p]
        if len(drop) == len(on):
            break
        # only the neighbours of a dropped point have new neighbours
        todo = [q for r, p in enumerate(drop) for q in (p - r - 1, p - r) if 0 < q < len(gx) - 1]
    return Pwl(tuple(gx), tuple(gy))


def _crossings(x0: float, x1: float, left: list, right: list, gx: list, gy: list) -> None:
    """Append to gx, gy, in ascending x, the crossings strictly inside
    (x0, x1) of functions linear there, with values ``left`` at x0 and
    ``right`` at x1. The crossing of the first lowest at each end is
    inserted when each is above the other at the far end by more than
    rounding; the halves on either side are then checked the same way.
    An interval's result depends only on its own end values."""
    a = left.index(min(left))
    b = right.index(min(right))
    excess_l = left[b] - left[a]  # how far b is above a at the left end
    excess_r = right[a] - right[b]  # how far a is above b at the right end
    rise = max(abs(right[a] - left[a]), abs(right[b] - left[b]))
    tol = _TOL * (max(1.0, abs(left[a]), abs(right[b])) + rise / (x1 - x0) * max(abs(x0), abs(x1)))
    if not (excess_l > tol and excess_r > tol):
        return
    t = excess_l / (excess_l + excess_r)
    x = x0 + t * (x1 - x0)
    if not x0 < x < x1:  # within an ulp of an end
        return
    mid = [u + t * (w - u) for u, w in zip(left, right)]
    _crossings(x0, x, left, mid, gx, gy)
    gx.append(x)
    gy.append(min(mid))
    _crossings(x, x1, mid, right, gx, gy)
