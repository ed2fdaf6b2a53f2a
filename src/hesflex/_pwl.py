"""Continuous piecewise-linear functions on a closed interval.

Just enough machinery for exact one-dimensional dynamic programming
with stage costs that are convex on each of a few runs and non-convex
value functions: evaluation (``_at``) and one step's infimal
convolution, restricted to a window (``_convolve_any``). A function is
a pair ``(xs, ys)`` of strictly increasing breakpoints and their
values; a single-point domain is legal.

Everything works on Python floats: the hot calls of a dynamic program
are on a few breakpoints, where numpy's set-up would cost more than the
arithmetic. The kernel lays down, per convex run of f, one chain per
convex stretch of g by a slope-merge sweep over g. One sweep
(``_sweep``, two functions at a time in ``_insert``) takes the minimum
of all the chains: it follows the lower function, inserts crossings
where the lower one changes and keeps only that one's own breakpoints,
so its cost follows the overlap, not a merged grid. The minimum is
restricted to the window by ``_cut`` and has the breakpoints on the
chord of their neighbours dropped by ``_drop_flat``; no other step
rounds it.
"""

from __future__ import annotations

import math
import operator
import sys
from bisect import bisect_left, bisect_right

_TOL = 8.0 * sys.float_info.epsilon  # float rounding, with a few ulps to spare


def _at(xs, ys, x: float) -> float:
    """The value at ``x`` by linear interpolation; outside the domain the
    endpoint value is held (callers are expected to stay in-domain)."""
    if x <= xs[0]:
        return ys[0]
    if x >= xs[-1]:
        return ys[-1]
    i = bisect_right(xs, x) - 1
    t = (x - xs[i]) / (xs[i + 1] - xs[i])
    return (1.0 - t) * ys[i] + t * ys[i + 1]


def _convolve_any(runs, gx, gy, lo: float, hi: float) -> tuple[list, list]:
    """Infimal convolution ``h(z) = min over d of f(d) + g(z - d)`` on
    [lo, hi] of a continuous f, given as its convex runs, with a
    continuous g = (gx, gy) of any shape, as breakpoint and value lists.

    ``runs`` are ``(xs, ys)`` pairs in ascending order, consecutive ones
    sharing their end breakpoint; f is their minimum and [] distributes
    over minima, so each run is convolved with g in one pass over g. The
    graph of a run's convolution is the lower boundary of the Minkowski
    sum of the two graphs, and only two kinds of its pieces can be on it:
    an edge of g shifted by the vertex of the run where the edge's slope
    fits between the run's neighbouring slopes, and an edge of the run
    placed at a vertex of g where its slope fits between g's. The pass is
    a slope-merge sweep over all of g: it starts at the sum of the left
    domain ends, and at each vertex of g it places the run's edges no
    steeper than g's next edge, then that edge shifted; at a concave
    vertex where g's next edge is shallower than the last edge of the run
    placed, it steps back along the run instead, and a new chain starts
    there, left of where the last one ended. Every point is the sum of a
    vertex of the run and one of g, so rounding does not build up along
    the sweep, and a point at the x of the one before is one point with
    the lower value. ``_sweep`` then merges all the chains, each into the
    envelope of those before it; for one convex run and convex g there is
    one chain. The result is cut to [lo, hi], which the convolution's
    domain must meet (``_cut``), and its flat points are dropped
    (``_drop_flat``).
    """
    n = len(gx) - 1
    chains = []
    for fx, fy in runs:
        m = len(fx) - 1
        fdx = [fx[i + 1] - fx[i] for i in range(m)]
        fdy = [fy[i + 1] - fy[i] for i in range(m)]
        cx, cy = [gx[0] + fx[0]], [gy[0] + fy[0]]
        i = 0
        for j in range(n):
            x0, y0 = gx[j], gy[j]
            dx, dy = gx[j + 1] - x0, gy[j + 1] - y0
            if i < m and fdy[i] * dx <= dy * fdx[i]:
                while True:  # the run's edges no steeper than g's edge j, placed at its start
                    i += 1
                    x, y = x0 + fx[i], y0 + fy[i]
                    if x != cx[-1]:  # sums of ascending terms never descend
                        cx.append(x)
                        cy.append(y)
                    elif y < cy[-1]:
                        cy[-1] = y
                    if i == m or fdy[i] * dx > dy * fdx[i]:
                        break
            elif i and fdy[i - 1] * dx > dy * fdx[i - 1]:
                i -= 1  # a concave vertex of g: a new chain, further back on the run
                while i and fdy[i - 1] * dx > dy * fdx[i - 1]:
                    i -= 1
                chains.append((cx, cy))
                cx, cy = [x0 + fx[i]], [y0 + fy[i]]
            x, y = gx[j + 1] + fx[i], gy[j + 1] + fy[i]  # g's edge j, shifted
            if x != cx[-1]:
                cx.append(x)
                cy.append(y)
            elif y < cy[-1]:
                cy[-1] = y
        for i in range(i + 1, m + 1):  # the run's steepest edges, at g's end
            x, y = gx[n] + fx[i], gy[n] + fy[i]
            if x != cx[-1]:
                cx.append(x)
                cy.append(y)
            elif y < cy[-1]:
                cy[-1] = y
        chains.append((cx, cy))
    xs, ys = _cut(*_sweep(chains), lo, hi)
    _drop_flat(xs, ys)
    return xs, ys


def _cut(xs, ys, lo: float, hi: float) -> tuple[list, list]:
    """``(xs, ys)`` restricted to [lo, hi], which it must meet, as lists: the
    ends take a breakpoint's own value or ``slope*(x - xs[j]) + ys[j]`` on the
    segment holding them, and the breakpoints strictly between are kept."""
    a = xs[0] if xs[0] > lo else lo
    b = xs[-1] if xs[-1] < hi else hi
    i = bisect_right(xs, a)  # xs[i - 1] <= a < xs[i]
    j = bisect_left(xs, b, i)  # xs[j - 1] < b <= xs[j]
    if xs[i - 1] == a:
        y = ys[i - 1]
    else:
        y = (ys[i] - ys[i - 1]) / (xs[i] - xs[i - 1]) * (a - xs[i - 1]) + ys[i - 1]
    gx, gy = [a, *xs[i:j]], [y, *ys[i:j]]
    if a < b:
        if xs[j] == b:
            y = ys[j]
        else:
            y = (ys[j] - ys[j - 1]) / (xs[j] - xs[j - 1]) * (b - xs[j - 1]) + ys[j - 1]
        gx.append(b)
        gy.append(y)
    return gx, gy


def _sweep(chains) -> tuple[list, list]:
    """Lower envelope of continuous chains, each an ``(xs, ys)`` pair of
    lists with strictly increasing xs, as breakpoint and value lists: the
    first chain's lists, with every later chain merged in by ``_insert``
    in place. Each later chain starts at or after the first one's start;
    one that starts after the envelope so far ends leaves a gap, which is
    refused. Jumps that the merges leave (a breakpoint listed twice) take
    the lower value."""
    ex, ey = chains[0]
    for px, py in chains[1:]:
        if px[0] > ex[-1]:
            raise ValueError(f"no chain is defined on all of [{ex[-1]!r}, {px[0]!r}]")
        _insert(ex, ey, px, py)
    if len(chains) > 1 and any(map(operator.eq, ex, ex[1:])):
        gx, gy = [ex[0]], [ey[0]]
        for x, y in zip(ex[1:], ey[1:]):
            if x != gx[-1]:
                gx.append(x)
                gy.append(y)
            elif y < gy[-1]:
                gy[-1] = y
        return gx, gy
    return ex, ey


def _insert(ex: list, ey: list, px, py) -> None:
    """Merge the continuous chain ``(px, py)`` into the envelope ``(ex, ey)``
    in place. The chain starts inside the envelope's domain; the envelope
    may list a breakpoint twice, a jump from its left to its right value.

    One sweep runs over the interval where both are defined, from one
    breakpoint of either to the next, where both are linear. It keeps the
    lower of the two (the envelope on ties), emits that one's own
    breakpoints, and, where the other one ends a step below it by more
    than rounding, inserts their crossing, found from the gaps between
    the two at the step's ends, and hands over. Past the overlap the
    longer of the two goes on, with a point of its own value at the
    overlap's end if it is the lower one there. Where one ends or starts
    above or below the other by more than rounding, a jump is kept; the
    points of the envelope before the chain and after the overlap are
    untouched. Values
    between breakpoints are interpolated as ``y0 + (y1 - y0) * t``, with
    t in [0, 1], which overflows on no slope.
    """
    s, t, e_end = px[0], px[-1], ex[-1]
    n = len(ex)
    k = bisect_left(ex, s)  # ex[:k] lie before the chain
    if ex[k] == s:
        i = bisect_right(ex, s, k)  # the envelope's next breakpoint after s
        ya_left, ya0 = ey[k], ey[i - 1]
    else:
        i = k
        x = ex[k - 1]
        ya0 = ya_left = (ey[k] - ey[k - 1]) * ((s - x) / (ex[k] - x)) + ey[k - 1]
    yb0 = py[0]
    rx, ry = [], []
    on_b = yb0 < ya0  # the chain is lower at s
    if on_b:
        keep = k
        if abs(ya_left - yb0) > _TOL * max(1.0, abs(ya_left), abs(yb0)):
            rx.append(s)  # a jump at s from the envelope's left value
            ry.append(ya_left)
        rx.append(s)
        ry.append(yb0)
        last = s
    else:
        keep = i
        last = ex[i - 1] if i else -math.inf
    b = 1
    x0 = s
    u = t if t < e_end else e_end
    while x0 < u:
        xa, xb = ex[i], px[b]
        if xa <= xb:
            x1 = xa
            ya1 = ey[i]
        else:
            x1 = xb
            x = ex[i - 1]
            ya1 = (ey[i] - ey[i - 1]) * ((x1 - x) / (xa - x)) + ey[i - 1]
        if xb <= xa:
            yb1 = py[b]
        else:
            x = px[b - 1]
            yb1 = (py[b] - py[b - 1]) * ((x1 - x) / (xb - x)) + py[b - 1]
        # does the other one end this step below the lower one beyond rounding?
        if (ya1 < yb1) if on_b else (yb1 < ya1):
            if on_b:
                lw0, lw1, up0, up1 = yb0, yb1, ya0, ya1
            else:
                lw0, lw1, up0, up1 = ya0, ya1, yb0, yb1
            rise = max(abs(lw1 - lw0), abs(up1 - up0))
            tol = _TOL * (max(1.0, abs(lw0), abs(up1))
                          + rise / (x1 - x0) * max(abs(x0), abs(x1)))
            excess_r = lw1 - up1
            if excess_r > tol:
                excess_l = up0 - lw0
                x = x0  # where they part, unless they cross inside
                if excess_l > tol:
                    # x < x1 where x1 - x0 is finite: excess_r > tol keeps
                    # x1 - x above the rounding of x, by tol's slope term;
                    # where it overflows, the weighted mean stays finite
                    tau = excess_l / (excess_l + excess_r)
                    span = x1 - x0
                    x = x0 + tau * span if span < math.inf else (1.0 - tau) * x0 + tau * x1
                if x0 < x < x1:
                    rx.append(x)
                    ry.append(min(lw0 + tau * (lw1 - lw0), up0 + tau * (up1 - up0)))
                    last = x
                elif last < x0:
                    rx.append(x0)
                    ry.append(min(ya0, yb0))
                    last = x0
                on_b = not on_b
        if xa <= xb:
            if not on_b and last < x1:
                rx.append(x1)
                ry.append(ya1)
                last = x1
            i += 1
            while i < n and ex[i] == x1:  # the envelope jumps at x1
                y = ey[i]
                if on_b:
                    if y < yb1:  # down below the chain
                        if last < x1 or ry[-1] != yb1:
                            rx.append(x1)
                            ry.append(yb1)
                        rx.append(x1)
                        ry.append(y)
                        last = x1
                        on_b = False
                else:
                    rx.append(x1)
                    ry.append(y if y <= yb1 else yb1)
                    last = x1
                    on_b = yb1 < y  # up above the chain
                ya1 = y
                i += 1
        if xb <= xa:
            if on_b and last < x1:
                rx.append(x1)
                ry.append(yb1)
                last = x1
            b += 1
        x0, ya0, yb0 = x1, ya1, yb1
    # the one going on may have taken over where the two parted, from a
    # point of the other's value, and its next breakpoint may be far off
    if t < e_end:  # the envelope goes on from t
        if not on_b:
            if last < t:
                rx.append(t)
                ry.append(ya0)
        elif ya0 - yb0 > _TOL * max(1.0, abs(ya0), abs(yb0)):
            rx.append(t)  # a jump up to the envelope
            ry.append(ya0)
        ex[keep:i] = rx
        ey[keep:i] = ry
        return
    if t > e_end:  # the chain goes on from e_end
        if on_b:
            if last < e_end:
                rx.append(e_end)
                ry.append(yb0)
        elif yb0 - ya0 > _TOL * max(1.0, abs(ya0), abs(yb0)):
            rx.append(e_end)  # a jump up to the chain
            ry.append(yb0)
        rx += px[b:]
        ry += py[b:]
    ex[keep:] = rx
    ey[keep:] = ry


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
