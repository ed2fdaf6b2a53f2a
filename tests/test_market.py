"""Market accounting: mileage, performance score, payments, bids."""

import math
from datetime import datetime, timezone

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hesflex import (
    STATISTICS,
    BatteryParams,
    MarketOutcome,
    MarketPrices,
    RegSignal,
    decomposed_bid,
    group_by_season_hour,
    max_flex_bid,
    mileage,
    payment,
    performance_score,
    pv_statistic,
    settle,
)


def _utc(y, m, d, h=0):
    return int(datetime(y, m, d, h, tzinfo=timezone.utc).timestamp())


def test_reg_signal_validation():
    with pytest.raises(ValueError):
        RegSignal(np.array([0.5]))
    with pytest.raises(ValueError):
        RegSignal(np.array([0.5, 1.2]))


def test_mileage_hand_example():
    sig = RegSignal(np.array([0.0, 1.0, -1.0, 0.0]))
    assert mileage(sig) == 4.0


def test_perfect_tracking_scores_one():
    r = np.array([0.2, -0.7, 0.5, 0.0])
    sig = RegSignal(r)
    assert performance_score(6.5, sig, 6.5 * r) == 1.0


def test_score_zero_when_idle():
    r = np.array([0.2, -0.7, 0.5, 0.1])
    assert performance_score(6.5, RegSignal(r), np.zeros(4)) == pytest.approx(0.0, abs=1e-15)


def test_score_can_go_negative():
    # anti-tracking is worse than doing nothing and the raw score says so
    r = np.array([0.5, -0.5, 0.5, -0.5])
    score = performance_score(2.0, RegSignal(r), -2.0 * r)
    assert score == pytest.approx(-1.0, abs=1e-15)


def test_score_validation():
    r = np.array([0.5, -0.5])
    with pytest.raises(ValueError):
        performance_score(0.0, RegSignal(r), r)
    with pytest.raises(ValueError):
        performance_score(1.0, RegSignal(r), [0.5])
    with pytest.raises(ValueError):
        performance_score(1.0, RegSignal(np.zeros(3)), np.zeros(3))


def test_payment_hand_examples():
    prices = MarketPrices(lambda_c=10.0, lambda_m=1.0)
    assert payment(1.0, 6.5, 0.0, prices) == 65.0
    assert payment(0.8, 2.0, 3.0, prices) == 20.8
    assert payment(0.74, 2.0, 3.0, prices) == 0.0


def test_qualification_cliff_is_at_three_quarters():
    prices = MarketPrices(lambda_c=10.0, lambda_m=1.0)
    assert payment(0.75, 1.0, 0.0, prices) == 7.5
    assert payment(0.7499999, 1.0, 0.0, prices) == 0.0


def test_payment_validation():
    prices = MarketPrices(lambda_c=10.0, lambda_m=1.0)
    with pytest.raises(ValueError):
        payment(0.9, -1.0, 0.0, prices)
    with pytest.raises(ValueError):
        payment(0.9, 1.0, -0.1, prices)
    with pytest.raises(ValueError):
        MarketPrices(lambda_c=-1.0, lambda_m=1.0)


def test_settle_bundles_everything():
    r = np.array([0.0, 1.0, -1.0, 0.0])
    sig = RegSignal(r)
    prices = MarketPrices(lambda_c=10.0, lambda_m=1.0)
    out = settle(6.5, sig, 6.5 * r, prices)
    assert isinstance(out, MarketOutcome)
    assert out.capacity == 6.5
    assert out.score == 1.0
    assert out.mileage == 4.0
    assert out.qualified
    assert out.payment == 1.0 * 6.5 * (10.0 + 4.0 * 1.0)


def test_settle_zeroes_unqualified_payment():
    r = np.array([0.5, -0.5, 0.5, -0.5])
    sig = RegSignal(r)
    out = settle(2.0, sig, np.zeros(4), MarketPrices(10.0, 1.0))
    assert not out.qualified
    assert out.payment == 0.0
    assert out.score == pytest.approx(0.0, abs=1e-15)


def test_max_flex_bid_ratio():
    sig = RegSignal(np.array([0.25, -0.5, 0.1]))
    assert max_flex_bid([3.0, -6.5, 1.0], sig) == pytest.approx(13.0, abs=1e-12)
    with pytest.raises(ValueError):
        max_flex_bid([], sig)
    with pytest.raises(ValueError):
        max_flex_bid([1.0, 1.0, 1.0], RegSignal(np.zeros(3)))
    # a batch of signals gives one bid per run, each the one-run bid
    batch = RegSignal(np.array([[0.25, -0.5, 0.1], [1.0, 0.0, 0.0]]))
    dp = np.array([[3.0, -6.5, 1.0], [0.5, 2.0, 0.0]])
    bids = max_flex_bid(dp, batch)
    assert bids.tolist() == [max_flex_bid(d, RegSignal(r)) for d, r in zip(dp, batch.values)]
    with pytest.raises(ValueError, match="run 1: max-flex bid undefined"):
        max_flex_bid(dp, RegSignal(np.array([[0.5, 0.5, 0.5], [0.0, 0.0, 0.0]])))


def test_decomposed_bid():
    batt = BatteryParams(p_max=5.0, e_cap=5.0)
    assert decomposed_bid(batt, 2.0) == 6.0
    assert decomposed_bid(batt, 0.0) == 5.0
    with pytest.raises(ValueError):
        decomposed_bid(batt, -0.5)


def test_pv_statistic_hand_examples():
    assert pv_statistic([0.0, 1.0, 2.0, 3.0, 4.0], "p75") == 3.0
    assert pv_statistic([0.0, 2.0], "p50") == 1.0
    assert pv_statistic([1.0, 2.0, 3.0], "mean") == 2.0
    assert pv_statistic([0.0, 1.0], "p95") == pytest.approx(0.95, abs=1e-12)
    with pytest.raises(ValueError):
        pv_statistic([], "mean")
    with pytest.raises(ValueError):
        pv_statistic([1.0], "p33")


def test_group_by_season_hour():
    ts = [_utc(2021, 7, 1, h % 24) + 86400 * (h // 24) for h in range(48)]
    vals = np.arange(48.0)
    groups = group_by_season_hour(ts, vals)
    assert set(k[0] for k in groups) == {"summer"}
    assert sorted(k[1] for k in groups) == list(range(24))
    np.testing.assert_allclose(groups[("summer", 5)], [5.0, 29.0])
    with pytest.raises(ValueError):
        group_by_season_hour(ts, vals[:-1])


_SEASON_OF_MONTH = {12: "winter", 1: "winter", 2: "winter", 3: "spring", 4: "spring",
                    5: "spring", 6: "summer", 7: "summer", 8: "summer", 9: "fall",
                    10: "fall", 11: "fall"}


def test_group_by_season_hour_matches_calendar_reference():
    """Same keys and arrays as bucketing each sample through ``datetime``,
    over a year boundary, a leap day and pre-1970 stamps; buckets in
    calendar order, whatever order the samples come in, shuffled or
    sorted."""
    rng = np.random.default_rng(5)
    windows = [
        (_utc(1969, 12, 30), _utc(1970, 1, 2)),   # the epoch, negative stamps
        (_utc(1900, 2, 27), _utc(1900, 3, 2)),    # 1900 is no leap year
        (_utc(1999, 12, 31), _utc(2000, 1, 2)),   # year boundary
        (_utc(2020, 2, 28), _utc(2020, 3, 2)),    # 29 Feb, winter -> spring
        (_utc(2021, 5, 31), _utc(2021, 6, 2)),    # spring -> summer
        (_utc(2021, 8, 31), _utc(2021, 12, 2)),   # fall -> winter
    ]
    ts = np.concatenate([rng.integers(lo, hi, 400) for lo, hi in windows])
    # first appearances out of calendar order, and sorted into runs of one hour
    for ts in (rng.permutation(ts), np.sort(ts)):
        vals = rng.normal(size=ts.size)
        expect = {}
        for t, v in zip(ts.tolist(), vals.tolist()):
            stamp = datetime.fromtimestamp(t, tz=timezone.utc)
            expect.setdefault((_SEASON_OF_MONTH[stamp.month], stamp.hour), []).append(v)
        groups = group_by_season_hour(ts, vals)
        seasons = ["winter", "spring", "summer", "fall"]
        assert list(groups) == sorted(expect, key=lambda k: (seasons.index(k[0]), k[1]))
        for key, samples in expect.items():
            assert groups[key].dtype == np.float64
            assert np.array_equal(groups[key], samples)
    assert group_by_season_hour([], []) == {}


def test_reg_signal_rejects_non_finite_values():
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            RegSignal(np.array([0.5, bad]))


def test_group_by_season_hour_refuses_timestamps_that_are_not_whole_seconds():
    """1e20 s was cast to garbage and bucketed under (spring, 8), and -0.7 s
    truncated into (winter, 0); both are refused, naming the index."""
    for stamps, where in (([1e20, 0.0], "step 0"), ([0.0, -0.7], "step 1"),
                          ([0.0, math.nan], "step 1"), ([-math.inf, 0.0], "step 0"),
                          ([0.0, 2.0**53], "step 1"), (np.array([0, -2**53]), "step 1"),
                          (np.array([[0, 1], [2**60, 3]]), "run 1, step 0")):
        with pytest.raises(ValueError, match=f"{where}: timestamp .* is not a whole second"):
            group_by_season_hour(stamps, np.zeros(np.shape(stamps)))
    # a whole second before the epoch is 1969-12-31 23:59:59, in floats or integers
    as_floats = group_by_season_hour([-1.0, 2.0**53 - 1], [1.0, 2.0])
    as_ints = group_by_season_hour(np.array([-1, 2**53 - 1]), [1.0, 2.0])
    assert as_floats.keys() == as_ints.keys() and len(as_ints) == 2
    assert np.array_equal(as_ints[("winter", 23)], [1.0])
    assert np.array_equal(group_by_season_hour([-0.0, 3600.0], [1.0, 2.0])[("winter", 1)], [2.0])


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_market_prices_refuse_non_finite_values(bad):
    # MarketPrices(nan, 1.0) passed its "< 0" checks
    for args in ((bad, 1.0), (1.0, bad)):
        with pytest.raises(ValueError, match="prices must be finite"):
            MarketPrices(*args)


def test_settle_refuses_a_non_finite_delivery_by_step():
    # it gave score nan, qualified False and payment 0.0
    sig = RegSignal(np.array([0.5, -0.5, 0.25]))
    with pytest.raises(ValueError, match=r"step 0: delivered_dp = nan is not finite"):
        settle(1.0, sig, [math.nan, 0.0, 0.0], MarketPrices(10.0, 1.0))
    with pytest.raises(ValueError, match="capacity <= 0 or not finite"):
        settle(math.nan, sig, np.zeros(3), MarketPrices(10.0, 1.0))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_decomposed_bid_refuses_a_non_finite_statistic(bad):
    with pytest.raises(ValueError, match="pv_stat must be a finite power"):
        decomposed_bid(BatteryParams(p_max=5.0, e_cap=5.0), bad)


def test_pv_statistic_refuses_non_finite_samples_by_step():
    # pv_statistic([nan, 1.0], "p75") returned nan
    with pytest.raises(ValueError, match=r"step 0: sample = nan is not finite"):
        pv_statistic([math.nan, 1.0], "p75")
    with pytest.raises(ValueError, match=r"step 1: sample = inf is not finite"):
        pv_statistic([1.0, math.inf], ("mean", "p50"))


def test_batch_market_inputs_name_the_run_and_step():
    prices = MarketPrices(10.0, 1.0)
    sig = RegSignal(np.tile([0.5, -0.5, 0.25], (2, 1)))
    dp = np.zeros((2, 3))
    dp[1, 2] = -math.inf
    with pytest.raises(ValueError, match=r"run 1, step 2: delivered_dp = -inf is not finite"):
        settle([1.0, 2.0], sig, dp, prices)
    with pytest.raises(ValueError, match=r"run 1: performance score undefined for capacity"):
        settle([1.0, math.nan], sig, np.zeros((2, 3)), prices)
    with pytest.raises(ValueError, match="capacity must be one value or one per run"):
        settle([1.0, 2.0, 3.0], sig, np.zeros((2, 3)), prices)
    with pytest.raises(ValueError, match=r"run 0, step 1: signal value = nan is not finite"):
        RegSignal(np.array([[0.5, math.nan], [0.5, 0.5]]))


def _bytes(x) -> bytes:
    return np.float64(x).tobytes()


_ROW = st.tuples(
    # capacity: ordinary, or so large that a qualified payment overflows to inf
    st.one_of(st.floats(1e-3, 1e3), st.just(1e300)),
    # delivered share of C * r: perfect, idle (unqualified), or anything
    st.one_of(st.sampled_from([1.0, 0.0]), st.floats(-1.0, 2.0)),
    # a constant signal has zero mileage
    st.booleans(),
    st.integers(0, 2**32 - 1),
)


@settings(max_examples=150, deadline=None)
@given(rows=st.lists(_ROW, min_size=1, max_size=6), n=st.integers(2, 40),
       prices=st.tuples(st.floats(0.0, 1e12), st.floats(0.0, 1e12)))
@example(rows=[(1e300, 1.0, False, 0), (2.0, 0.0, False, 1), (3.0, 0.9, True, 2)], n=30,
         prices=(1e12, 1e12))
def test_settle_on_a_batch_is_the_one_row_calls(rows, n, prices):
    prices = MarketPrices(*prices)
    caps = np.array([c for c, *_ in rows])
    sig = np.empty((len(rows), n))
    dp = np.empty_like(sig)
    for r, (c, share, flat, seed) in enumerate(rows):
        rng = np.random.default_rng(seed)
        sig[r] = rng.uniform(0.1, 1.0) if flat else rng.uniform(-1.0, 1.0, n)
        dp[r] = share * c * sig[r] + rng.normal(0.0, 0.01 * c, n)
    batch = settle(caps, RegSignal(sig), dp, prices)
    assert batch.score.shape == batch.payment.shape == batch.qualified.shape == (len(rows),)
    # column-major inputs sum their rows as row-major ones do
    fortran = settle(caps, RegSignal(np.asfortranarray(sig)), np.asfortranarray(dp), prices)
    assert fortran.score.tobytes() == batch.score.tobytes()
    for r in range(len(rows)):
        one = settle(float(caps[r]), RegSignal(sig[r]), dp[r], prices)
        assert isinstance(one.score, float) and isinstance(one.qualified, bool)
        assert _bytes(batch.score[r]) == _bytes(one.score)
        assert _bytes(batch.mileage[r]) == _bytes(one.mileage)
        assert _bytes(batch.payment[r]) == _bytes(one.payment)
        assert batch.qualified[r] == one.qualified
        assert one.payment == 0.0 or one.qualified


def test_settle_on_a_batch_covers_the_edge_rows():
    """The explicit example above holds an overflowing payment, an
    unqualified row and a zero-mileage signal."""
    sig = np.tile([0.5, -0.5, 0.5], (3, 1))
    sig[2] = 0.5
    caps = np.array([1e300, 2.0, 3.0])
    out = settle(caps, RegSignal(sig), caps[:, None] * sig * [[1.0], [0.0], [1.0]],
                 MarketPrices(1e12, 1e12))
    assert out.payment[0] == math.inf and out.qualified.tolist() == [True, False, True]
    assert out.payment[1] == 0.0 and out.mileage[2] == 0.0


@pytest.mark.parametrize("samples", [np.zeros(50), np.array([2.5]),
                                     np.random.default_rng(3).gamma(2.0, 1.0, 997)])
def test_pv_statistic_tuple_is_the_one_name_calls(samples):
    for names in (("mean", "p50", "p75", "p95"), ("p95", "mean", "p50"), ("p75",), ()):
        both = pv_statistic(samples, names)
        assert type(both) is tuple and len(both) == len(names)
        for name, value in zip(names, both):
            one = pv_statistic(samples, name)
            assert type(value) is float and _bytes(value) == _bytes(one)
    with pytest.raises(ValueError, match="unknown statistic 'p33'"):
        pv_statistic(samples, ("mean", "p33"))


_NAMES = st.one_of(st.sampled_from(STATISTICS),
                   st.lists(st.sampled_from(STATISTICS), max_size=4, unique=True).map(tuple))


@settings(max_examples=150, deadline=None)
@given(kinds=st.lists(st.sampled_from(["random", "equal", "zero"]), min_size=1, max_size=5),
       m=st.one_of(st.just(1), st.integers(2, 8), st.integers(60, 400)),
       layout=st.sampled_from(["C", "F", "strided"]), names=_NAMES,
       seed=st.integers(0, 2**32 - 1), bad=st.sampled_from([math.nan, math.inf, -math.inf]))
@example(kinds=["random", "random"], m=300, layout="F", names=STATISTICS, seed=0, bad=math.nan)
@example(kinds=["zero", "equal", "random"], m=1, layout="strided", names="p95", seed=1,
         bad=math.inf)
def test_pv_statistic_on_a_batch_is_the_one_row_calls(kinds, m, layout, names, seed, bad):
    rng = np.random.default_rng(seed)
    rows = np.empty((len(kinds), m))
    for r, kind in enumerate(kinds):
        rows[r] = {"random": rng.gamma(2.0, 1.0, m), "equal": rng.uniform(0.0, 5.0),
                   "zero": 0.0}[kind]
    if layout == "F":
        batch = np.asfortranarray(rows)
    elif layout == "strided":
        batch = np.repeat(rows, 2, axis=1)[:, ::2]  # a view that steps over every other value
    else:
        batch = rows
    assert np.array_equal(batch, rows)
    got = pv_statistic(batch, names)
    for i, name in enumerate((names,) if isinstance(names, str) else names):
        values = got if isinstance(names, str) else got[i]
        assert isinstance(values, np.ndarray) and values.shape == (len(kinds),)
        for r in range(len(kinds)):
            assert _bytes(values[r]) == _bytes(pv_statistic(rows[r], name)), (name, r)
    r, k = int(rng.integers(len(kinds))), int(rng.integers(m))
    rows[r, k] = bad
    with pytest.raises(ValueError, match=rf"run {r}, step {k}: sample = {bad} is not finite"):
        pv_statistic(rows, names)
