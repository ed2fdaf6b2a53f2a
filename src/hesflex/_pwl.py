"""Continuous piecewise-linear functions on a closed interval.

Just enough machinery for exact one-dimensional dynamic programming
with convex stage costs and non-convex value functions: evaluation,
convex construction from exact samples, infimal convolution of convex
functions by slope merging, splitting into maximal convex runs, and the
exact pointwise minimum of several functions. A function is stored as
strictly increasing breakpoints ``xs`` with values ``ys``; a
single-point domain is legal.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

__all__ = ["Pwl", "from_points", "inf_convolve", "convex_runs", "lower_envelope"]

_KINK_TOL = 1e-12
_EPS = np.finfo(float).eps


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
        xs, ys = self.xs, self.ys
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
    merged: list[list[float]] = []
    for x, y in pts:
        if merged and x - merged[-1][0] <= 1e-13 * max(1.0, abs(x)):
            if y < merged[-1][1]:
                merged[-1][1] = y
        else:
            merged.append([x, y])
    hull: list[list[float]] = []
    for x, y in merged:
        while len(hull) >= 2:
            x0, y0 = hull[-2]
            x1, y1 = hull[-1]
            lhs = (y1 - y0) * (x - x1)
            rhs = (y - y1) * (x1 - x0)
            if lhs >= rhs - _KINK_TOL * max(1.0, abs(lhs), abs(rhs)):
                hull.pop()  # middle point is no strict downward kink
            else:
                break
        hull.append([x, y])
    return Pwl(tuple(p[0] for p in hull), tuple(p[1] for p in hull))


def inf_convolve(f: Pwl, g: Pwl) -> Pwl:
    """Infimal convolution ``h(z) = min over x of f(x) + g(z - x)``.

    For convex piecewise-linear operands the result sweeps the merged
    ascending slope sequence starting from the sum of the left domain
    endpoints. Every vertex of that sweep is the sum of one vertex of f
    and one of g, and is computed as such, so rounding does not
    accumulate along the sweep.
    """
    i = j = 0
    m, n = len(f.xs) - 1, len(g.xs) - 1
    pts = [(f.xs[0] + g.xs[0], f.ys[0] + g.ys[0])]
    while i < m or j < n:
        # take f's next segment when its slope is no steeper than g's
        if j == n or (i < m and (f.ys[i + 1] - f.ys[i]) * (g.xs[j + 1] - g.xs[j])
                      <= (g.ys[j + 1] - g.ys[j]) * (f.xs[i + 1] - f.xs[i])):
            i += 1
        else:
            j += 1
        pts.append((f.xs[i] + g.xs[j], f.ys[i] + g.ys[j]))
    return from_points(pts)


def convex_runs(f: Pwl) -> list[Pwl]:
    """Split f at its concave kinks into maximal convex pieces.

    Consecutive pieces share their end breakpoint, and f is the pointwise
    minimum of the pieces, each taken as +inf outside its own domain.
    """
    xs, ys = f.xs, f.ys
    slopes = [(ys[i + 1] - ys[i]) / (xs[i + 1] - xs[i]) for i in range(len(xs) - 1)]
    cuts = [0, *(i for i in range(1, len(slopes)) if slopes[i] < slopes[i - 1]), len(xs) - 1]
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
    """
    xs = np.concatenate([f.xs for f in fs])
    grid = np.unique(np.concatenate(([lo, hi], xs[(xs > lo) & (xs < hi)])))
    vals = np.array([np.interp(grid, f.xs, f.ys, left=np.inf, right=np.inf) for f in fs])
    todo = np.arange(grid.size - 1 if len(fs) > 1 else 0)  # one function is its own minimum
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
