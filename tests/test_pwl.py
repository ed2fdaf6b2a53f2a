"""Piecewise-linear helper: evaluation, infimal convolution and the
exact lower envelope of chains.

``Pwl``, ``_runs`` and ``_lower_envelope`` are test-side harnesses: a
function with its evaluation, the convex runs that the oracle's stage
costs are split into, and the pointwise minimum of functions on a
window, from the package's ``_cut``, ``_sweep`` and ``_drop_flat``.
"""

import math
import operator
import sys
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hesflex._pwl import _at, _convolve_any, _cut, _drop_flat, _sweep


@dataclass(frozen=True)
class Pwl:
    """A function as its breakpoints ``xs`` and values ``ys``; it unpacks
    to the ``(xs, ys)`` pair the package's functions take."""

    xs: tuple[float, ...]
    ys: tuple[float, ...]

    @property
    def x_lo(self) -> float:
        return self.xs[0]

    @property
    def x_hi(self) -> float:
        return self.xs[-1]

    def __iter__(self):
        return iter((self.xs, self.ys))

    def __call__(self, x: float) -> float:
        return _at(self.xs, self.ys, x)


def _runs(xs, ys) -> list[tuple]:
    """The maximal convex runs of ``(xs, ys)`` as ``(xs, ys)`` slices, split
    where the slope strictly falls; consecutive runs share their end
    breakpoint. The reference for the runs of the oracle's stage costs."""
    cuts = [0]
    s0 = -math.inf
    for k in range(1, len(xs)):
        s = (ys[k] - ys[k - 1]) / (xs[k] - xs[k - 1])
        if s < s0:
            cuts.append(k - 1)
        s0 = s
    cuts.append(len(xs) - 1)
    return [(xs[a:b + 1], ys[a:b + 1]) for a, b in zip(cuts, cuts[1:])]


def _lower_envelope(fs, lo: float, hi: float) -> Pwl:
    """The pointwise minimum on [lo, hi] of continuous functions that
    cover it, each +inf outside its own domain: the functions that meet
    the window are cut to it (``_cut``), merged in order of their left
    ends by ``_sweep`` and have their flat points dropped
    (``_drop_flat``), as the convolution kernel does with its chains."""
    parts = [_cut(xs, ys, lo, hi) for xs, ys in fs if xs[0] <= hi and lo <= xs[-1]]
    parts.sort(key=lambda p: p[0][0])
    gx, gy = _sweep(parts)
    _drop_flat(gx, gy)
    return Pwl(tuple(gx), tuple(gy))


def _convolve(f, g) -> tuple[list, list]:
    """The kernel's convolution of convex f with g on its whole domain."""
    return _convolve_any([f], *g, f[0][0] + g[0][0], f[0][-1] + g[0][-1])


def test_interpolation_and_endpoint_hold():
    xs, ys = (0.0, 1.0, 3.0), (2.0, 0.0, 4.0)
    assert _at(xs, ys, 0.0) == 2.0
    assert _at(xs, ys, 0.5) == 1.0
    assert _at(xs, ys, 2.0) == 2.0
    assert _at(xs, ys, 3.0) == 4.0
    # outside the domain the endpoint value is held
    assert _at(xs, ys, -5.0) == 2.0
    assert _at(xs, ys, 9.0) == 4.0


def test_single_point_function():
    assert _at((1.5,), (0.7,), 1.5) == 0.7
    assert _at((1.5,), (0.7,), -3.0) == 0.7


def test_convex_runs_split_at_concave_kinks():
    # slopes -1, 1, 0, 2, -3: concave at x = 2 and x = 4
    f = Pwl((0.0, 1.0, 2.0, 3.0, 4.0, 5.0), (1.0, 0.0, 1.0, 1.0, 3.0, 0.0))
    runs = _runs(*f)
    assert [xs for xs, _ in runs] == [(0.0, 1.0, 2.0), (2.0, 3.0, 4.0), (4.0, 5.0)]
    for xs, ys in runs:
        assert ys == tuple(f(x) for x in xs)
    convex = ((0.0, 1.0, 2.0), (1.0, 0.0, 2.0))
    assert _runs(*convex) == [convex]


def _random_pwl(rng, lo, hi, n):
    xs = np.unique(np.concatenate(([lo, hi], rng.uniform(lo, hi, n - 2))))
    return Pwl(tuple(xs), tuple(rng.uniform(-2.0, 2.0, xs.size)))


def test_lower_envelope_matches_dense_minimum(rng):
    """Against the minimum sampled on a fine grid, which the exact
    envelope must equal at every sample (crossings included). Two
    functions cover the whole interval; two more cover part of it and
    start and end above the first two, so the minimum stays continuous."""
    for _ in range(20):
        full = [_random_pwl(rng, -rng.uniform(0.0, 0.5), 1.0 + rng.uniform(0.0, 0.5), 6)
                for _ in range(2)]
        fs = list(full)
        for _ in range(2):
            g = _random_pwl(rng, *np.sort(rng.uniform(0.0, 1.0, 2)), 5)
            lift = max(0.0, *(min(f(x) for f in full) - g(x) for x in (g.x_lo, g.x_hi)))
            fs.append(Pwl(g.xs, tuple(y + lift for y in g.ys)))
        env = _lower_envelope(fs, 0.0, 1.0)
        assert env.x_lo == 0.0 and env.x_hi == 1.0
        for x in np.linspace(0.0, 1.0, 401):
            want = min(f(x) for f in fs if f.x_lo <= x <= f.x_hi)
            assert env(float(x)) == pytest.approx(want, abs=1e-12)


def test_lower_envelope_inserts_crossings_and_drops_collinear_points():
    # two lines crossing at x = 0.5, and a third that touches neither
    up = Pwl((0.0, 0.25, 1.0), (0.0, 0.25, 1.0))
    down = Pwl((0.0, 1.0), (1.0, 0.0))
    high = Pwl((0.0, 1.0), (5.0, 5.0))
    env = _lower_envelope([up, down, high], 0.0, 1.0)
    assert env.xs == (0.0, 0.5, 1.0)
    assert env.ys == (0.0, 0.5, 0.0)


@pytest.mark.parametrize("chains, match", [
    ([([0.0, 1.0], [0.0, 1.0]), ([1.5, 2.0], [0.0, 0.0])],
     r"no chain is defined on all of \[1\.0, 1\.5\]"),
    ([([0.0, 1.0], [0.0, 1.0]), ([0.5, 1.2], [0.0, 0.0]), ([1.5, 2.0], [0.0, 0.0])],
     r"no chain is defined on all of \[1\.2, 1\.5\]"),
], ids=["gap", "gap-after-a-merge"])
def test_lower_envelope_refuses_parts_that_do_not_cover_the_window(chains, match):
    """``_sweep`` refuses a chain that starts past the end of the envelope
    of those before it."""
    with pytest.raises(ValueError, match=match):
        _sweep(chains)


def test_sweep_hands_over_where_the_envelope_jumps_below_the_lower_chain():
    """The second chain starts below the first, so the envelope jumps
    down at x = 1; the third starts left of that, below the envelope,
    which then jumps below it at x = 1, where the sweep hands over to the
    envelope. The fourth, lowest of all left of x = 1, closes the jump,
    so the minimum of all four is continuous, as ``_sweep``'s chains in
    the kernel are."""
    chains = [([0.0, 3.0], [10.0, 7.0]), ([1.0, 3.0], [0.0, 1.0]), ([0.0, 2.0], [5.0, 3.0]),
              ([0.0, 1.0, 3.0], [5.0, 0.0, 1.0])]
    gx, gy = _sweep(chains)
    assert (gx, gy) == ([0.0, 1.0, 3.0], [5.0, 0.0, 1.0])
    fs = [Pwl(tuple(xs), tuple(ys)) for xs, ys in chains]
    for x in np.linspace(0.0, 3.0, 301).tolist():
        want = min(f(x) for f in fs if f.x_lo <= x <= f.x_hi)
        assert _at(gx, gy, x) == pytest.approx(want, abs=1e-12), x


@pytest.mark.parametrize("chains", [
    # a steep envelope, lowest up to x0 = 0.8999999999994445 and then up
    # to 0.5 at its end 0.9; a flat chain, 6e-8 above it at x0, goes on
    [([0.09999999999944445, 0.1, 0.8999999999994445, 0.9],
      [0.499999940395355, 1.3234889800848443e-23, 1.3234889800848443e-23, 0.5]),
     ([0.1, 0.8999999999994445, 55555556.45555555],
      [5.9604645e-08, 5.9604645e-08, 0.500000059604645])],
    # the same with the roles swapped: a flat envelope goes on past a steep chain
    [([0.0, 1e8], [5.9604645e-08, 5.9604645e-08]), ([0.9 - 5.56e-13, 0.9], [0.0, 0.5])],
])
def test_sweep_keeps_the_value_of_the_one_that_goes_on_past_the_overlap(chains):
    """The two part within rounding of the steep one at x0, so the flat
    one takes over there from a point of the steep one's value; its next
    breakpoint is far past the end of the overlap at 0.9. The envelope
    still reads the flat one's value at 0.9, not one interpolated from
    that point."""
    gx, gy = _sweep([(list(xs), list(ys)) for xs, ys in chains])
    want = min(_at(xs, ys, 0.9) for xs, ys in chains)
    assert want > 5e-8
    assert _at(gx, gy, 0.9) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("chains", [
    [([-1e308, 1e308], [0.0, 10.0]), ([-1e308, 1e308], [5.0, 4.0])],
    [([-1e308, 1e308], [5.0, 4.0]), ([-1e308, 1e308], [0.0, 10.0])],
])
def test_sweep_finds_a_crossing_on_a_step_wider_than_the_largest_double(chains):
    """Two lines on [-1e308, 1e308], whose width 2e308 overflows to inf,
    cross at x = -1e308 / 11, where both read 50 / 11. The envelope keeps
    that crossing, not the chord from 0 to 4, which reads ~1.82 there."""
    gx, gy = _sweep([(list(xs), list(ys)) for xs, ys in chains])
    assert gx == [-1e308, pytest.approx(-1e308 / 11, rel=1e-12), 1e308]
    assert gy == [0.0, pytest.approx(50 / 11, rel=1e-12), 4.0]


_SLOPES =st.one_of(st.floats(-5.0, 5.0), st.integers(-2, 2).map(lambda i: i / 2))


@st.composite
def _convex_and_window(draw):
    """A convex f and lo <= hi inside its domain, each either a breakpoint
    of f or a point between breakpoints. Neighbouring slopes are often
    equal, and values may be moved by a few dozen ulps, so that runs of
    collinear breakpoints and points near the collinearity tolerance
    occur."""
    n = draw(st.integers(1, 7))
    widths = draw(st.lists(st.floats(1e-3, 2.0), min_size=n, max_size=n))
    slopes = sorted(draw(st.lists(_SLOPES, min_size=n, max_size=n)))
    jitter = draw(st.lists(st.integers(-64, 64), min_size=n + 1, max_size=n + 1))
    xs = [draw(st.floats(-3.0, 3.0))]
    ys = [draw(st.floats(-3.0, 3.0))]
    for w, m in zip(widths, slopes):
        xs.append(xs[-1] + w)
        ys.append(ys[-1] + m * w)
    ys = [y + j * 1e-16 * max(1.0, abs(y)) for y, j in zip(ys, jitter)]
    f = Pwl(tuple(xs), tuple(ys))
    point = st.one_of(st.sampled_from(xs), st.floats(xs[0], xs[-1]))
    lo, hi = sorted((draw(point), draw(point)))
    return f, lo, hi


@settings(max_examples=300, deadline=None)
@given(_convex_and_window())
def test_lower_envelope_of_one_function_matches_a_duplicated_one(case):
    """One function is only restricted to [lo, hi]. A duplicate ties it at
    every grid point, so no crossing is inserted, and both must give the
    same breakpoints bit for bit."""
    f, lo, hi = case
    one, two = _lower_envelope([f], lo, hi), _lower_envelope([f, f], lo, hi)
    assert np.array(one.xs).tobytes() == np.array(two.xs).tobytes()  # signed zeros too
    assert np.array(one.ys).tobytes() == np.array(two.ys).tobytes()
    assert all(type(v) is float for v in one.xs + one.ys)


_VALUES = st.one_of(st.floats(-3.0, 3.0), st.integers(-3, 3).map(float))


@st.composite
def _dp_step(draw):
    """Parts shaped like those of one dynamic-program step, and a window.

    A continuous base function is cut into runs that share their end
    breakpoints; some runs are repeated (exact ties everywhere). Extra
    parts have their own domains, which may end inside or past the
    window or hold a single point; where such a domain ends inside the
    base's, its end value is raised to the base's there, so the minimum
    stays continuous. The window lies in the base's domain, ends on a
    breakpoint or between two, and may be a single point. The parts come
    in shuffled order."""
    n = draw(st.integers(2, 9))
    widths = draw(st.lists(st.floats(0.01, 1.0), min_size=n - 1, max_size=n - 1))
    bx = [draw(st.floats(-2.0, 2.0))]
    for w in widths:
        bx.append(bx[-1] + w)
    by = draw(st.lists(_VALUES, min_size=n, max_size=n))
    base = Pwl(tuple(bx), tuple(by))
    cuts = sorted({0, n - 1, *draw(st.lists(st.integers(0, n - 1), max_size=4))})
    parts = [Pwl(base.xs[a:b + 1], base.ys[a:b + 1]) for a, b in zip(cuts, cuts[1:])]
    parts += draw(st.lists(st.sampled_from(parts), max_size=2))
    for _ in range(draw(st.integers(0, 3))):
        m = draw(st.integers(1, 4))
        gx = sorted(set(draw(st.lists(st.floats(bx[0] - 1.0, bx[-1] + 1.0),
                                      min_size=m, max_size=m))))
        gy = draw(st.lists(_VALUES, min_size=len(gx), max_size=len(gx)))
        for i in {0, len(gx) - 1}:
            if bx[0] <= gx[i] <= bx[-1]:
                gy[i] = max(gy[i], base(gx[i]))
        parts.append(Pwl(tuple(gx), tuple(gy)))
    point = st.one_of(st.sampled_from(bx), st.floats(bx[0], bx[-1]))
    lo, hi = sorted((draw(point), draw(point)))
    return draw(st.permutations(parts)), lo, hi


def _rounding_tol(fs, x: float, y: float) -> float:
    """A few ulps of a value y at x, and of x times the steepest slope."""
    slope = max([abs((f.ys[i + 1] - f.ys[i]) / (f.xs[i + 1] - f.xs[i]))
                 for f in fs for i in range(len(f.xs) - 1)], default=0.0)
    return 64 * np.finfo(float).eps * (max(1.0, abs(y)) + slope * max(1.0, abs(x)))


@settings(max_examples=400, deadline=None)
@given(_dp_step())
def test_lower_envelope_is_the_pointwise_minimum(case):
    """The breakpoints strictly increase from lo to hi. At every input
    breakpoint in the window, every breakpoint of the result and every
    midpoint between two of these, the result is the pointwise minimum of
    the parts defined there to float rounding: a missed crossing would
    leave a chord above the minimum at a midpoint."""
    fs, lo, hi = case
    env = _lower_envelope(fs, lo, hi)
    assert env.xs[0] == lo and env.xs[-1] == hi
    assert all(a < b for a, b in zip(env.xs, env.xs[1:]))
    points = sorted({lo, hi, *env.xs, *(x for f in fs for x in f.xs if lo < x < hi)})
    points += [a + (b - a) / 2 for a, b in zip(points, points[1:])]
    for x in points:
        want = min(f(x) for f in fs if f.x_lo <= x <= f.x_hi)
        assert abs(env(x) - want) <= _rounding_tol(fs, x, want), x


@st.composite
def _convex(draw):
    """A convex function as ``(xs, ys)`` with 1 to 6 breakpoints, near 0
    or far from it. Widths may sit at the 1e-13 scale, and neighbouring
    slopes may differ at the 1e-12 scale or by a few ulps of jitter, so
    that kinks too narrow or too flat to tell from rounding at a glance
    occur."""
    n = draw(st.integers(0, 5))
    xs = [draw(st.one_of(st.floats(-3.0, 3.0), st.floats(-1e6, 1e6)))]
    ys = [draw(st.one_of(st.floats(-3.0, 3.0), st.floats(-1e6, 1e6)))]
    slopes = sorted(draw(st.lists(_SLOPES, min_size=n, max_size=n)))
    for i, m in enumerate(slopes):
        m += draw(st.sampled_from([0.0, 0.0, 1e-12, -1e-12, 5e-13])) * max(1.0, abs(m))
        if draw(st.booleans()):
            w = draw(st.sampled_from([0.25, 0.5, 1.0, 2.0])) * 1e-13 * max(1.0, abs(xs[-1]))
        else:
            w = draw(st.floats(1e-3, 2.0))
        x = max(xs[-1] + w, math.nextafter(xs[-1], math.inf))
        ys.append(ys[-1] + m * (x - xs[-1]))
        xs.append(x)
    jitter = draw(st.lists(st.integers(-8, 8), min_size=len(ys), max_size=len(ys)))
    ys = [y + j * 1e-16 * max(1.0, abs(y)) for y, j in zip(ys, jitter)]
    return tuple(xs), tuple(ys)


def _drop_flat_reference(gx: list, gy: list) -> None:
    """``_drop_flat`` with its tolerance in ``max``/``abs`` form, one
    point at a time: the reference for the spelled-out scale."""
    tol = 8.0 * sys.float_info.epsilon
    while True:
        flat = []
        for p in range(1, len(gx) - 1):
            x0, x1, x2 = gx[p - 1], gx[p], gx[p + 1]
            y0, y1, y2 = gy[p - 1], gy[p], gy[p + 1]
            slope = (y2 - y0) / (x2 - x0)
            dev = abs(y1 - (y0 + (x1 - x0) * slope))
            if dev <= tol or dev <= tol * (max(1.0, abs(y1), abs(y0), abs(y2))
                                           + abs(slope) * max(abs(x0), abs(x2))):
                flat.append(p)
        drop = flat[::2]  # every other flat point: never two neighbours
        for p in reversed(drop):
            del gx[p], gy[p]
        if len(drop) == len(flat):  # as in _drop_flat, no second look at the neighbours
            return


@st.composite
def _near_collinear(draw):
    """Two to ten points on a few lines, at magnitudes from 1e-3 to 1e6 on
    either side of 0, with values moved by up to a few hundred ulps, so
    that a deviation falls on either side of the scaled tolerance."""
    n = draw(st.integers(2, 10))
    x = draw(st.sampled_from([-1e3, -1.0, 0.0]) | st.floats(-1e6, 1e6))
    xs = [x]
    for _ in range(n - 1):
        x = x + draw(st.sampled_from([1e-3, 0.5, 1.0, 1e3, 1e6]) | st.floats(1e-3, 1e6))
        xs.append(x)
    assume(all(map(operator.lt, xs, xs[1:])))
    slope = draw(st.sampled_from([0.0, 1.0, -3.0, 1e3]) | st.floats(-1e3, 1e3))
    c = draw(st.sampled_from([0.0, 1e3, -1e6]) | st.floats(-1e6, 1e6))
    ys = []
    for x in xs:
        if draw(st.integers(0, 4)) == 0:
            slope = draw(st.floats(-1e3, 1e3))
        y = c + slope * x
        ys.append(y + draw(st.integers(-300, 300)) * math.ulp(y))
    return xs, ys


@settings(max_examples=500, deadline=None)
@given(_near_collinear())
def test_drop_flat_equals_its_max_abs_form(pts):
    """The flat-point rounds keep the same breakpoints as their reference,
    whose tolerance is spelled with ``max`` and ``abs``."""
    gx, gy = list(pts[0]), list(pts[1])
    want_x, want_y = list(gx), list(gy)
    _drop_flat(gx, gy)
    _drop_flat_reference(want_x, want_y)
    assert np.array(gx).tobytes() == np.array(want_x).tobytes()
    assert np.array(gy).tobytes() == np.array(want_y).tobytes()


@st.composite
def _convex_and_any(draw):
    """A convex f of zero to four pieces and a continuous g of zero to
    twenty pieces: a sawtooth of runs narrower than f, with slopes often
    equal to f's, or slopes at random."""
    m = draw(st.integers(0, 4))
    slopes = sorted(draw(st.lists(_SLOPES, min_size=m, max_size=m)))
    fx, fy = [draw(st.floats(-1.0, 0.5))], [draw(st.floats(-1.0, 1.0))]
    for m_ in slopes:
        w = draw(st.floats(0.05, 1.0))
        fx.append(fx[-1] + w)
        fy.append(fy[-1] + m_ * w)
    gx, gy = [draw(st.floats(0.0, 1.0))], [draw(st.floats(-1.0, 1.0))]
    g_slopes = st.sampled_from(slopes or [0.0]) | _SLOPES
    for _ in range(draw(st.integers(0, 20))):
        w = draw(st.floats(0.005, 0.05) | st.floats(0.05, 1.0))
        m_ = draw(g_slopes)
        gx.append(gx[-1] + w)
        gy.append(gy[-1] + m_ * w)
    return (tuple(fx), tuple(fy)), (tuple(gx), tuple(gy))


def _two_sum(a, b):
    """``a + b`` as ``s + e`` exactly, ``s`` the rounded sum (Knuth)."""
    s = a + b
    a1 = s - b
    return s, (a - a1) + (b - (s - a1))


def _at_split(xs, ys, s, e):
    """The function ``(xs, ys)`` at ``s + e``, with ``e`` the rounding
    error of ``s``: on a breakpoint ``s``, the sign of ``e`` picks the
    piece, and ``e`` moves the value along its slope."""
    if len(xs) == 1:
        return np.broadcast_to(ys[0], s.shape)
    k = np.where(e < 0, np.searchsorted(xs, s, "left"), np.searchsorted(xs, s, "right")) - 1
    k = np.clip(k, 0, len(xs) - 2)
    m = (ys[k + 1] - ys[k]) / (xs[k + 1] - xs[k])
    return ys[k] + m * ((s - xs[k]) + e)


def _exact_convolution(fx, fy, gx, gy, z):
    """min over d of f(d) + g(z - d) by exhaustion, for each z: as a
    function of d it is piecewise linear with its kinks where d is a
    breakpoint of f or z - d one of g, and these include the ends of the
    feasible range. Each difference ``z - d`` and ``z - x`` is carried
    with its rounding error (``_two_sum``), so that a difference of large
    breakpoints is not rounded at their scale. A z - d outside g's domain
    by rounding only (4 ulps of the largest magnitude) is moved onto its
    end."""
    z = np.asarray(z, dtype=float)[..., None]
    fx, fy, gx, gy = (np.asarray(v, dtype=float) for v in (fx, fy, gx, gy))
    # d a breakpoint of f, x = z - d
    xs, xe = _two_sum(z, -fx)
    slack = 4 * np.finfo(float).eps * np.maximum.reduce([np.ones_like(z), np.abs(z),
                                                        np.full_like(z, abs(gx[0])),
                                                        np.full_like(z, abs(gx[-1]))])
    ok = (gx[0] - slack <= xs) & (xs <= gx[-1] + slack)
    out = ((xs < gx[0]) | ((xs == gx[0]) & (xe < 0))
           | (xs > gx[-1]) | ((xs == gx[-1]) & (xe > 0)))
    xs, xe = np.clip(xs, gx[0], gx[-1]), np.where(out, 0.0, xe)
    at_f = np.where(ok, fy + _at_split(gx, gy, xs, xe), np.inf)
    # x a breakpoint of g, d = z - x; a d outside f's domain is the
    # end of f's domain, one of the breakpoints above
    ds, de = _two_sum(z, -gx)
    inside = (((ds > fx[0]) | ((ds == fx[0]) & (de >= 0)))
              & ((ds < fx[-1]) | ((ds == fx[-1]) & (de <= 0))))
    at_g = np.where(inside, _at_split(fx, fy, ds, de) + gy, np.inf)
    return np.minimum(at_f.min(axis=-1), at_g.min(axis=-1))


@settings(max_examples=400, deadline=None)
@given(_convex_and_any()
       | st.tuples(_convex().filter(lambda f: len(_runs(*f)) == 1), _convex()))
@example((((-1.0, 0.0, 1.0), (1.0, 0.0, 1.0)), ((-2.0, 0.0, 2.0), (2.0, 0.0, 2.0))))
@example((((-1.0, 0.0, 1.0), (2.0, 0.0, 2.0)), ((-2.0, 0.0, 2.0), (2.0, 0.0, 2.0))))
@example((((-2.0, -0.5, 0.3, 1.0, 2.0), (5.29, 0.64, 0.0, 0.49, 2.89)),
          ((-1.0, 0.5, 1.0, 3.0), (2.0, 0.5, 0.0, 2.0))))
@example((((245055.0, 245055.00000000614, 245056.00000000614), (0.0, -6.1409082263708115e-09,
                                                                -6.1409082263708115e-09)),
          ((-244033.0,), (0.0,))))
# f's last edge, steeper than g's, is placed at g's end, at the x of the
# point before: its lower value replaces that point's
@example((((0.0, 1e-17), (0.0, -1e-17)), ((0.0, 1.0), (2.0, 0.0))))
def test_convolve_any_is_the_infimal_convolution(case):
    """Over the whole domain, at the breakpoints of the result, every sum of
    a breakpoint of f and one of g and the midpoints between these, the
    one-pass convolution equals the minimum over the kinks to rounding at
    the scale of the values added: a missed vertex or crossing would leave
    a chord above it. The inputs include pairs with kinks at the 1e-13
    scale (``_convex``; its jitter can make one non-convex, and f must
    stay convex), vees of equal and of unequal slopes, a shift far from 0
    onto a result near it, and samples of a parabola and of ``abs``."""
    f, g = case
    hx, hy = _convolve(f, g)
    assert all(map(operator.lt, hx, hx[1:]))
    assert hx[0] == f[0][0] + g[0][0] and hx[-1] == f[0][-1] + g[0][-1]
    slope = max((abs((p[1][i + 1] - p[1][i]) / (p[0][i + 1] - p[0][i]))
                 for p in (f, g) for i in range(len(p[0]) - 1)), default=0.0)
    points = sorted({*hx, *(x + d for x in g[0] for d in f[0] if hx[0] <= x + d <= hx[-1])})
    points += [a + (b - a) / 2 for a, b in zip(points, points[1:])]
    # each value is a sum of one of f and one of g, rounded at their scale
    scale = max(1.0, *map(abs, f[1]), *map(abs, g[1]))
    for z, want in zip(points, _exact_convolution(*f, *g, points).tolist()):
        tol = 64 * sys.float_info.epsilon * (scale + slope * max(1.0, abs(z)))
        assert abs(_at(hx, hy, z) - want) <= tol, z


def test_inf_convolve_matches_brute_force(rng):
    """Samples of a parabola convolved with samples of ``abs``, both convex,
    against the exhaustive minimum over the kinks."""
    for _ in range(10):
        fx = np.unique(np.sort(rng.uniform(-2.0, 2.0, 5)))
        gx = np.unique(np.sort(rng.uniform(-1.0, 3.0, 4)))
        f = (tuple(fx), tuple((x - 0.3) ** 2 for x in fx))
        g = (tuple(gx), tuple(abs(x - 1.0) for x in gx))
        hx, hy = _convolve(f, g)
        assert hx[0] == pytest.approx(fx[0] + gx[0], abs=1e-12)
        assert hx[-1] == pytest.approx(fx[-1] + gx[-1], abs=1e-12)
        zs = np.linspace(hx[0], hx[-1], 33)
        for z, want in zip(zs.tolist(), _exact_convolution(*f, *g, zs).tolist()):
            assert math.isfinite(want)
            assert _at(hx, hy, z) == pytest.approx(want, abs=1e-9)


def test_inf_convolve_of_vees():
    # equal-slope vees convolve into one wider vee of the same slope
    g = ((-2.0, 0.0, 2.0), (2.0, 0.0, 2.0))
    h = _convolve(((-1.0, 0.0, 1.0), (1.0, 0.0, 1.0)), g)
    assert _at(*h, 0.0) == 0.0
    assert _at(*h, -3.0) == pytest.approx(3.0, abs=1e-12)
    assert _at(*h, 1.5) == pytest.approx(1.5, abs=1e-12)
    # mismatched slopes: the shallow segment is consumed first, so the
    # result kinks from slope 1 to slope 2 at x = 2
    h2 = _convolve(((-1.0, 0.0, 1.0), (2.0, 0.0, 2.0)), g)
    assert _at(*h2, 2.0) == pytest.approx(2.0, abs=1e-12)
    assert _at(*h2, 2.5) == pytest.approx(3.0, abs=1e-12)


def test_convolve_any_of_convex_g_is_one_sweep():
    """For convex g there is one chain: the slope-merge sweep's points, each
    the sum of a vertex of f and one of g, with slopes -2, -1, 0, 0.5 and
    3."""
    g = ((0.0, 1.0, 2.0, 3.0), (0.0, -2.0, -2.0, 1.0))
    want = ([-1.0, 0.0, 1.0, 2.0, 4.0, 5.0], [1.0, -1.0, -2.0, -2.0, -1.0, 2.0])
    assert _convolve(((-1.0, 0.0, 2.0), (1.0, 0.0, 1.0)), g) == want
