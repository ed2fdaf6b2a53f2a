"""Piecewise-linear helper: evaluation, hulls, inf-convolution, convex
runs and exact lower envelopes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hesflex._pwl import Pwl, _hull, convex_runs, inf_convolve, lower_envelope


def test_interpolation_and_endpoint_hold():
    f = Pwl((0.0, 1.0, 3.0), (2.0, 0.0, 4.0))
    assert f(0.0) == 2.0
    assert f(0.5) == 1.0
    assert f(2.0) == 2.0
    assert f(3.0) == 4.0
    # outside the domain the endpoint value is held
    assert f(-5.0) == 2.0
    assert f(9.0) == 4.0


def test_single_point_function():
    f = Pwl((1.5,), (0.7,))
    assert f(1.5) == 0.7
    assert f(-3.0) == 0.7


def test_breakpoints_must_increase():
    with pytest.raises(ValueError):
        Pwl((0.0, 0.0), (1.0, 2.0))
    with pytest.raises(ValueError):
        Pwl((1.0, 0.5), (1.0, 2.0))


def test_hull_dedupes():
    f = _hull([(0.0, 3.0), (1.0, 1.5), (2.0, 5.0), (2.0, 1.0)])
    assert f.xs == (0.0, 1.0, 2.0)
    assert f(2.0) == 1.0  # min y wins at a duplicated x


def test_hull_prunes_to_the_lower_hull():
    # the middle point sits above the chord and must vanish
    f = _hull([(0.0, 0.0), (1.0, 2.0), (2.0, 0.0)])
    assert f.xs == (0.0, 2.0)
    # hull pruning only ever moves the function down
    pts = [(0.0, 1.0), (0.5, 0.9), (1.0, 0.1), (1.5, 0.7), (2.0, 2.0)]
    f = _hull(pts)
    for x, y in pts:
        assert f(x) <= y + 1e-12


def test_hull_keeps_convex_input_exact(rng):
    xs = np.sort(rng.uniform(-3.0, 3.0, 9))
    xs = np.unique(xs)
    ys = (xs - 0.7) ** 2  # strictly convex
    f = _hull(list(zip(xs, ys)))
    for x, y in zip(xs, ys):
        assert f(x) == pytest.approx(y, abs=1e-12)


def _brute_infconv(f, g, x):
    """min over u of f(u) + g(x - u), exact for convex PWL inputs.

    The minimizer of a piecewise-linear convolution sits at a split
    where u is a breakpoint of f or x - u is a breakpoint of g, so the
    candidate set below is exhaustive.
    """
    cands = set()
    for u in f.xs:
        cands.add(min(max(u, x - g.x_hi), x - g.x_lo))
    for v in g.xs:
        cands.add(min(max(x - v, f.x_lo), f.x_hi))
    vals = [f(u) + g(x - u) for u in cands
            if f.x_lo - 1e-12 <= u <= f.x_hi + 1e-12
            and g.x_lo - 1e-12 <= x - u <= g.x_hi + 1e-12]
    return min(vals) if vals else None


def test_inf_convolve_matches_brute_force(rng):
    for _ in range(10):
        fx = np.unique(np.sort(rng.uniform(-2.0, 2.0, 5)))
        gx = np.unique(np.sort(rng.uniform(-1.0, 3.0, 4)))
        f = _hull([(x, (x - 0.3) ** 2) for x in fx])
        g = _hull([(x, abs(x - 1.0)) for x in gx])
        h = inf_convolve(f, g)
        assert h.x_lo == pytest.approx(f.x_lo + g.x_lo, abs=1e-12)
        assert h.x_hi == pytest.approx(f.x_hi + g.x_hi, abs=1e-12)
        for x in np.linspace(h.x_lo, h.x_hi, 33):
            want = _brute_infconv(f, g, float(x))
            assert want is not None
            assert h(float(x)) == pytest.approx(want, abs=1e-9)


def test_inf_convolve_of_vees():
    # equal-slope vees convolve into one wider vee of the same slope
    f = Pwl((-1.0, 0.0, 1.0), (1.0, 0.0, 1.0))
    g = Pwl((-2.0, 0.0, 2.0), (2.0, 0.0, 2.0))
    h = inf_convolve(f, g)
    assert h(0.0) == 0.0
    assert h(-3.0) == pytest.approx(3.0, abs=1e-12)
    assert h(1.5) == pytest.approx(1.5, abs=1e-12)
    # mismatched slopes: the shallow segment is consumed first, so the
    # result kinks from slope 1 to slope 2 at x = 2
    steep = Pwl((-1.0, 0.0, 1.0), (2.0, 0.0, 2.0))
    h2 = inf_convolve(steep, g)
    assert h2(2.0) == pytest.approx(2.0, abs=1e-12)
    assert h2(2.5) == pytest.approx(3.0, abs=1e-12)


def test_convex_runs_split_at_concave_kinks():
    # slopes -1, 1, 0, 2, -3: concave at x = 2 and x = 4
    f = Pwl((0.0, 1.0, 2.0, 3.0, 4.0, 5.0), (1.0, 0.0, 1.0, 1.0, 3.0, 0.0))
    runs = convex_runs(f)
    assert [r.xs for r in runs] == [(0.0, 1.0, 2.0), (2.0, 3.0, 4.0), (4.0, 5.0)]
    for r in runs:
        assert r.ys == tuple(f(x) for x in r.xs)
    convex = Pwl((0.0, 1.0, 2.0), (1.0, 0.0, 2.0))
    assert convex_runs(convex) == [convex]


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
        env = lower_envelope(fs, 0.0, 1.0)
        assert env.x_lo == 0.0 and env.x_hi == 1.0
        for x in np.linspace(0.0, 1.0, 401):
            want = min(f(x) for f in fs if f.x_lo <= x <= f.x_hi)
            assert env(float(x)) == pytest.approx(want, abs=1e-12)


def test_lower_envelope_inserts_crossings_and_drops_collinear_points():
    # two lines crossing at x = 0.5, and a third that touches neither
    up = Pwl((0.0, 0.25, 1.0), (0.0, 0.25, 1.0))
    down = Pwl((0.0, 1.0), (1.0, 0.0))
    high = Pwl((0.0, 1.0), (5.0, 5.0))
    env = lower_envelope([up, down, high], 0.0, 1.0)
    assert env.xs == (0.0, 0.5, 1.0)
    assert env.ys == (0.0, 0.5, 0.0)


_SLOPES = st.one_of(st.floats(-5.0, 5.0), st.integers(-2, 2).map(lambda i: i / 2))


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
    one, two = lower_envelope([f], lo, hi), lower_envelope([f, f], lo, hi)
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
    env = lower_envelope(fs, lo, hi)
    assert env.xs[0] == lo and env.xs[-1] == hi
    assert all(a < b for a, b in zip(env.xs, env.xs[1:]))
    points = sorted({lo, hi, *env.xs, *(x for f in fs for x in f.xs if lo < x < hi)})
    points += [a + (b - a) / 2 for a, b in zip(points, points[1:])]
    for x in points:
        want = min(f(x) for f in fs if f.x_lo <= x <= f.x_hi)
        assert abs(env(x) - want) <= _rounding_tol(fs, x, want), x
