"""Continuous piecewise-linear functions on a closed interval.

Just enough machinery for exact one-dimensional dynamic programming
with convex stage costs and non-convex value functions: evaluation,
infimal convolution of convex functions by slope merging and a lower
hull, splitting into maximal convex runs, and the exact pointwise
minimum of several functions. A function is stored as
strictly increasing breakpoints ``xs`` with values ``ys``; a
single-point domain is legal.

Everything works on Python floats: the hot calls of a dynamic program
are on a few breakpoints, where numpy's set-up would cost more than the
arithmetic. The private helpers take and return plain ``(xs, ys)``
pairs, and ``Pwl`` unpacks to its pair, so a dynamic program builds no
``Pwl`` at all. One loop, ``_convolve``, runs the slope-merge sweep and
the lower hull of a convolution; ``inf_convolve`` wraps it, and
``_convolve_on``, the commonest step (one convex pair convolved and cut
to a window), cuts its result as ``lower_envelope`` would, bit for bit.
``_runs`` splits a pair into its convex runs as slices, for
``convex_runs`` and for steps with several runs alike.
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

    def __iter__(self):
        """Unpacks to ``(xs, ys)``, the pair every function here reads."""
        return iter((self.xs, self.ys))

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


def _convolve(fx, fy, gx, gy) -> tuple[list[float], list[float]]:
    """Infimal convolution of convex f = (fx, fy) and g = (gx, gy) as
    breakpoint and value lists: the lower convex hull of the vertices of
    the slope-merge sweep of their merged ascending slope sequence, in
    one pass.

    The sweep starts at the sum of the left domain endpoints and at each
    vertex takes f's next segment when its slope is no steeper than g's.
    Every vertex is the sum of one vertex of f and one of g, and is
    computed as such, so rounding does not accumulate along the sweep,
    and the vertices come in ascending x order (float addition is
    monotone). Vertices that are duplicates in x keep the smaller y, and
    interior vertices on or above the chord of their neighbours are
    dropped, so float noise can only produce an underestimate, never a
    non-convex result; a vertex joins the hull once the next one is no
    duplicate of it. With g the single point (0.0, 0.0) this is the hull
    of f's points, which then need only ascend in x.
    """
    i = j = 0
    m, n = len(fx) - 1, len(gx) - 1
    hx: list[float] = []
    hy: list[float] = []
    px, py = fx[0] + gx[0], fy[0] + gy[0]
    while True:
        if i < m or j < n:
            if j == n or (i < m and (fy[i + 1] - fy[i]) * (gx[j + 1] - gx[j])
                          <= (gy[j + 1] - gy[j]) * (fx[i + 1] - fx[i])):
                i += 1
            else:
                j += 1
            x = fx[i] + gx[j]
            y = fy[i] + gy[j]
            # the scales are max(1.0, abs(x)) and max(1.0, abs(lhs), abs(rhs)), spelled
            # out: this loop is most of a convex dynamic-program step
            if x - px <= 1e-13 * (abs(x) if x > 1.0 or x < -1.0 else 1.0):
                if y < py:
                    py = y
                continue
        else:
            x = None
        while len(hx) >= 2:
            x1 = hx[-1]
            y1 = hy[-1]
            lhs = (y1 - hy[-2]) * (px - x1)
            rhs = (py - y1) * (x1 - hx[-2])
            scale = abs(lhs) if abs(lhs) > abs(rhs) else abs(rhs)
            if lhs >= rhs - _KINK_TOL * (scale if scale > 1.0 else 1.0):
                hx.pop()  # middle point is no strict downward kink
                hy.pop()
            else:
                break
        hx.append(px)
        hy.append(py)
        if x is None:
            return hx, hy
        px, py = x, y


def inf_convolve(f: Pwl, g: Pwl) -> Pwl:
    """Infimal convolution ``h(z) = min over x of f(x) + g(z - x)``.

    For convex piecewise-linear operands the result is the lower hull of
    the vertices of the sweep of their merged ascending slope sequence.
    """
    hx, hy = _convolve(*f, *g)
    return Pwl(tuple(hx), tuple(hy))


def _convolve_on(fx, fy, gx, gy, lo: float, hi: float) -> tuple[tuple, tuple]:
    """``lower_envelope([inf_convolve(f, g)], lo, hi)`` as ``(xs, ys)``, bit
    for bit, for convex f = (fx, fy) and g = (gx, gy), with no ``Pwl``.

    The convolution is cut to [lo, hi]: the ends take the value
    ``lower_envelope``'s step 1 gives them (a hull vertex its own value,
    any other point ``slope*(x - xs[j]) + ys[j]``), the vertices strictly
    inside are kept, and ``_drop_flat`` runs on the result. A window that
    the hull does not cover is refused as ``lower_envelope`` refuses it.
    """
    lo, hi = float(lo), float(hi)
    xs, ys = _convolve(fx, fy, gx, gy)
    i, j = bisect_right(xs, lo), bisect_left(xs, hi)
    if i == 0 or j == len(xs):
        return lower_envelope([(xs, ys)], lo, hi)  # raises
    if xs[i - 1] == lo:
        y_lo = ys[i - 1]
    else:
        y_lo = (ys[i] - ys[i - 1]) / (xs[i] - xs[i - 1]) * (lo - xs[i - 1]) + ys[i - 1]
    if lo == hi:
        return (lo,), (y_lo,)
    if xs[j] == hi:
        y_hi = ys[j]
    else:
        y_hi = (ys[j] - ys[j - 1]) / (xs[j] - xs[j - 1]) * (hi - xs[j - 1]) + ys[j - 1]
    gx = [lo, *xs[i:j], hi]
    gy = [y_lo, *ys[i:j], y_hi]
    _drop_flat(gx, gy)
    return tuple(gx), tuple(gy)


def _concave_kinks(xs, ys):
    """Indices of the breakpoints where the slope strictly falls, in
    ascending order, one at a time: ``next(_concave_kinks(xs, ys), None)
    is None`` tests convexity without building a list."""
    s0 = -math.inf
    for k in range(1, len(xs)):
        s = (ys[k] - ys[k - 1]) / (xs[k] - xs[k - 1])
        if s < s0:
            yield k - 1
        s0 = s


def _runs(xs, ys) -> list[tuple]:
    """The maximal convex runs of ``(xs, ys)`` as ``(xs, ys)`` slices, split
    at the concave kinks; consecutive runs share their end breakpoint."""
    cuts = [0, *_concave_kinks(xs, ys), len(xs) - 1]
    return [(xs[a:b + 1], ys[a:b + 1]) for a, b in zip(cuts, cuts[1:])]


def convex_runs(f: Pwl) -> list[Pwl]:
    """Split f at its concave kinks into maximal convex pieces.

    Consecutive pieces share their end breakpoint, and f is the pointwise
    minimum of the pieces, each taken as +inf outside its own domain.
    """
    return [Pwl(*run) for run in _runs(f.xs, f.ys)]


def lower_envelope(fs, lo: float, hi: float) -> Pwl:
    """Exact pointwise minimum of continuous functions on [lo, hi].

    Each function is an ``(xs, ys)`` pair (a ``Pwl`` unpacks to one) and
    counts as +inf outside its own domain; together the domains must
    cover [lo, hi], or a ``ValueError`` names the first grid point or
    interval that none covers, and the minimum must be continuous there.
    One function goes through the same four steps as many:

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
    for xs, _ in fs:
        grid.update(xs[bisect_right(xs, lo):bisect_left(xs, hi)])
    grid = sorted(grid)
    low = [math.inf] * len(grid)  # the minimum at each grid point
    first = [-1] * len(grid)  # the first function in fs order that attains it
    spans = []  # per function: its first grid index and its values from there on
    for k, (xs, ys) in enumerate(fs):
        s = i = bisect_left(grid, xs[0])
        j = 0
        x_j = xs[0]  # the first breakpoint at or after x
        vals = []
        for x in grid[i:bisect_right(grid, xs[-1])]:
            if x_j < x:  # a new segment: its slope, once
                while xs[j] < x:
                    j += 1
                x_j = xs[j]
                x0, y0 = xs[j - 1], ys[j - 1]
                slope = (ys[j] - y0) / (x_j - x0)
            if x_j == x:
                v = ys[j]
            else:  # between xs[j - 1] and xs[j]
                v = slope * (x - x0) + y0
            vals.append(v)
            if v < low[i]:
                low[i] = v
                first[i] = k
            i += 1
        spans.append((s, vals))
    if -1 in first:
        raise ValueError(f"lower_envelope: no function is defined at {grid[first.index(-1)]!r}"
                         f" in [{lo!r}, {hi!r}]")
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
            if not left:
                raise ValueError(f"lower_envelope: no function is defined on all of"
                                 f" [{grid[i - 1]!r}, {grid[i]!r}]")
            cx, cy = [], []
            _crossings(grid[i - 1], grid[i], left, right, cx, cy)
            gx[i:i], gy[i:i] = cx, cy
    _drop_flat(gx, gy)
    return Pwl(tuple(gx), tuple(gy))


def _drop_flat(gx: list, gy: list) -> None:
    """Drop, in place, the breakpoints on the chord of their neighbours to
    rounding, in rounds that each drop every other such point, so no two
    neighbours go in one round."""
    flat = [False] * len(gx)  # per point: on the chord of its neighbours
    todo = range(1, len(gx) - 1)
    while todo:
        for p in todo:
            x0, x1, x2 = gx[p - 1], gx[p], gx[p + 1]
            y0, y1, y2 = gy[p - 1], gy[p], gy[p + 1]
            slope = (y2 - y0) / (x2 - x0)
            dev = abs(y1 - (y0 + (x1 - x0) * slope))
            # the tolerance is never below _TOL, which settles most flat points
            if dev <= _TOL:
                flat[p] = True
                continue
            # the scale max(1.0, abs(y1), abs(y0), abs(y2)) + abs(slope) * max(abs(x0),
            # abs(x2)), spelled out: the big envelopes run this for every grid point
            y_scale = y1 if y1 > 1.0 else -y1 if y1 < -1.0 else 1.0
            if y0 > y_scale or -y0 > y_scale:
                y_scale = y0 if y0 > 0.0 else -y0
            if y2 > y_scale or -y2 > y_scale:
                y_scale = y2 if y2 > 0.0 else -y2
            x_scale = x0 if x0 > 0.0 else -x0
            if x2 > x_scale or -x2 > x_scale:
                x_scale = x2 if x2 > 0.0 else -x2
            flat[p] = dev <= _TOL * (y_scale + (slope if slope > 0.0 else -slope) * x_scale)
        if True not in flat:
            return
        on = [p for p, f in enumerate(flat) if f]
        drop = on[::2]  # every other flat point: never two neighbours
        for p in reversed(drop):
            del gx[p], gy[p], flat[p]
        if len(drop) == len(on):
            return
        # only the neighbours of a dropped point have new neighbours
        todo = [q for r, p in enumerate(drop) for q in (p - r - 1, p - r) if 0 < q < len(gx) - 1]


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
