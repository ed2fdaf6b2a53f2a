"""Market accounting: mileage, performance score, payments, bids."""

from datetime import datetime, timezone

import numpy as np
import pytest

from hesflex import (
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
    calendar order, whatever order the samples come in."""
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
    ts = rng.permutation(ts)  # first appearances out of calendar order
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
