"""Continuous piecewise-linear functions on a closed interval.

Just enough machinery for exact one-dimensional dynamic programming
with convex stage costs and non-convex value functions: evaluation,
convex construction from exact samples, infimal convolution of convex
functions by slope merging, splitting into maximal convex runs, and the
exact pointwise minimum of several functions. A function is stored as
strictly increasing breakpoints ``xs`` with values ``ys``; a
single-point domain is legal.

The calls on a few breakpoints are the hot ones, so they work on Python
floats: the minimum of one function is only its restriction to the
interval, done with the arithmetic of the numpy code that handles
several functions, so both give the same bits.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

__all__ = ["Pwl", "from_points", "inf_convolve", "convex_runs", "lower_envelope"]

_KINK_TOL = 1e-12
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class Pwl:
    xs: tuple[float, ...]
    ys: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.xs or len(self.xs) != len(self.ys):
            raise ValueError("xs and ys must be nonempty and equal length")
        for a, b in zip(self.xs, self.xs[1:]):
            if not b > a:
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
    i = bisect.bisect_right(xs, x) - 1
    t = (x - xs[i]) / (xs[i + 1] - xs[i])
    return (1.0 - t) * ys[i] + t * ys[i + 1]


def from_points(points) -> Pwl:
    """Lower convex hull of exact samples of a convex function.

    The sample set must contain every kink of the target; duplicate x
    values keep the smaller y, and interior points on or above the
    chord of their neighbours are dropped, so float noise can only
    produce an underestimate, never a non-convex result.
    """
    pts = sorted((float(x), float(y)) for x, y in points)
    if not pts:
        raise ValueError("no sample points")
    return _hull(pts)


def _hull(pts) -> Pwl:
    """``from_points`` on samples already in ascending x order. A sample
    joins the hull once the next one is no duplicate of it."""
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
    order (float addition is monotone), which is the order the hull
    of ``from_points`` needs.
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
    there. Between consecutive breakpoints of the inputs every function
    is linear, so on such an interval the minimum is concave and lies on
    or above the chord of its end values. Where no single function is
    lowest at both ends, the crossing of the lowest at the left end with
    the lowest at the right end is inserted, and the two halves are
    checked again. A function counts as lowest when it is within float
    rounding of the lowest, so the result can sit below the true minimum
    by that much, never above it. Breakpoints on a straight line to
    rounding are dropped.

    A single function is its own minimum and is only restricted to
    [lo, hi]; that is done in Python floats (``_restrict``), which costs
    far less than numpy's set-up on the few breakpoints a one-function
    step of a dynamic program has.
    """
    if len(fs) == 1:
        return _restrict(fs[0], lo, hi)
    xs = np.concatenate([f.xs for f in fs])
    grid = np.unique(np.concatenate(([lo, hi], xs[(xs > lo) & (xs < hi)])))
    vals = np.array([np.interp(grid, f.xs, f.ys, left=np.inf, right=np.inf) for f in fs])
    todo = np.arange(grid.size - 1)
    while todo.size:
        x0, x1 = grid[todo], grid[todo + 1]
        lv, rv = vals[:, todo], vals[:, todo + 1]
        whole = np.isfinite(lv) & np.isfinite(rv)  # defined on the whole interval
        lv, rv = np.where(whole, lv, np.inf), np.where(whole, rv, np.inf)
        cols = np.arange(todo.size)
        a, b = lv.argmin(axis=0), rv.argmin(axis=0)
        excess_l = lv[b, cols] - lv[a, cols]  # how far b is above a at the left end
        excess_r = rv[a, cols] - rv[b, cols]  # how far a is above b at the right end
        rise = np.maximum(np.abs(rv[a, cols] - lv[a, cols]), np.abs(rv[b, cols] - lv[b, cols]))
        tol = _rounding(np.maximum(np.abs(lv[a, cols]), np.abs(rv[b, cols])),
                        rise / (x1 - x0), np.maximum(np.abs(x0), np.abs(x1)))
        cross = (excess_l > tol) & (excess_r > tol)
        t = excess_l[cross] / (excess_l[cross] + excess_r[cross])
        i = todo[cross]
        x = grid[i] + t * (grid[i + 1] - grid[i])
        inside = (x > grid[i]) & (x < grid[i + 1])  # else within an ulp of an end
        if not inside.any():
            break
        i, t, x = i[inside], t[inside], x[inside]
        with np.errstate(invalid="ignore"):  # inf - inf off a function's domain
            new = vals[:, i] + t * (vals[:, i + 1] - vals[:, i])
        new[np.isnan(new)] = np.inf
        grid = np.insert(grid, i + 1, x)
        vals = np.insert(vals, i + 1, new, axis=1)
        at = i + np.arange(i.size)  # the left halves, after insertion
        todo = np.sort(np.concatenate((at, at + 1)))
    return _drop_collinear(grid, vals.min(axis=0))


def _restrict(f: Pwl, lo: float, hi: float) -> Pwl:
    """f on [lo, hi], equal bit for bit to the numpy route of
    ``lower_envelope`` on one function: the ends are interpolated with
    ``np.interp``'s arithmetic, interior breakpoints are kept, and
    collinear points go in the rounds of ``_drop_collinear``."""
    xs, ys = f.xs, f.ys
    lo, hi = float(lo), float(hi)
    if not lo < hi:
        return Pwl((lo,), (_np_interp(xs, ys, lo),))
    a, b = bisect.bisect_right(xs, lo), bisect.bisect_left(xs, hi)
    gx = [lo, *xs[a:b], hi]
    gy = [_np_interp(xs, ys, lo), *ys[a:b], _np_interp(xs, ys, hi)]
    while len(gx) > 2:
        flat = []
        for i in range(len(gx) - 2):
            x0, x1, x2 = gx[i], gx[i + 1], gx[i + 2]
            y0, y1, y2 = gy[i], gy[i + 1], gy[i + 2]
            slope = (y2 - y0) / (x2 - x0)
            dev = y1 - (y0 + (x1 - x0) * slope)
            if abs(dev) <= 8.0 * _EPS * (max(1.0, abs(y1), abs(y0), abs(y2))  # _rounding
                                         + abs(slope) * max(abs(x0), abs(x2))):
                flat.append(i)
        if not flat:
            break
        drop = flat[::2]  # every other flat point: never two neighbours
        for i in reversed(drop):
            del gx[i + 1], gy[i + 1]
        if len(drop) == len(flat):
            break
    return Pwl(tuple(gx), tuple(gy))


def _np_interp(xs, ys, x: float) -> float:
    """``np.interp(x, xs, ys, left=inf, right=inf)`` at one x, with the
    same arithmetic: breakpoint values exact, else
    ``slope*(x - xs[j]) + ys[j]``."""
    if not xs[0] <= x <= xs[-1]:
        return math.inf
    j = bisect.bisect_right(xs, x) - 1
    if j == len(xs) - 1 or xs[j] == x:
        return ys[j]
    slope = (ys[j + 1] - ys[j]) / (xs[j + 1] - xs[j])
    return slope * (x - xs[j]) + ys[j]


def _rounding(y, slope, x):
    """Float rounding of a function value y, and of its breakpoint
    positions x times the slope, with a few ulps to spare."""
    return 8.0 * _EPS * (np.maximum(1.0, y) + slope * x)


def _drop_collinear(xs: np.ndarray, ys: np.ndarray) -> Pwl:
    """Drop interior breakpoints that lie on the chord of their
    neighbours to float rounding. Each round drops no two neighbours, so
    a dropped point moves the function by at most the rounding tolerance
    measured against the points that stay."""
    while xs.size > 2:
        x0, x1, x2 = xs[:-2], xs[1:-1], xs[2:]
        y0, y1, y2 = ys[:-2], ys[1:-1], ys[2:]
        slope = (y2 - y0) / (x2 - x0)
        dev = y1 - (y0 + (x1 - x0) * slope)
        tol = _rounding(np.maximum(np.abs(y1), np.maximum(np.abs(y0), np.abs(y2))),
                        np.abs(slope), np.maximum(np.abs(x0), np.abs(x2)))
        flat = np.flatnonzero(np.abs(dev) <= tol)
        if not flat.size:
            break
        drop = flat[::2] + 1  # every other flat point: never two neighbours
        keep = np.ones(xs.size, bool)
        keep[drop] = False
        xs, ys = xs[keep], ys[keep]
        if drop.size == flat.size:
            break
    return Pwl(tuple(xs.tolist()), tuple(ys.tolist()))
