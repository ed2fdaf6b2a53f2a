"""Pay-for-performance regulation market accounting.

A plant bids a regulation capacity ``C`` (MW), receives a normalized
signal ``r`` in [-1, 1], and is scored on how closely the delivered
flexible power tracks ``C * r``:

    score   x_p = 1 - sum|C r - dp| / (C * sum|r|)
    mileage M_d = sum|r[k+1] - r[k]|
    payment     = x_p * C * (lambda_c + M_d * lambda_m)   if x_p >= 0.75
                  0                                        otherwise

Scores below the 0.75 qualification threshold earn nothing. The score is
kept as computed (it can go negative for very poor tracking); report
writers may floor the displayed value at zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assets import BatteryParams

QUALIFICATION_THRESHOLD = 0.75

_SEASONS = ("winter", "spring", "summer", "fall")
# Meteorological season (an index into _SEASONS) by month number 1-12.
_SEASON_OF_MONTH = np.array([-1, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3, 0])

_PERCENTILES = {"p50": 50.0, "p75": 75.0, "p95": 95.0}
STATISTICS = ("mean", "p50", "p75", "p95")


@dataclass
class RegSignal:
    """Normalized regulation signal, one value per step in [-1, 1]."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size < 2:
            raise ValueError("a signal needs at least two samples")
        if not np.all(np.isfinite(v)):
            raise ValueError("signal values must be finite")
        if np.any(np.abs(v) > 1.0 + 1e-12):
            raise ValueError("normalized signal must stay within [-1, 1]")
        self.values = v


@dataclass(frozen=True, slots=True)
class MarketPrices:
    """Capacity and mileage clearing prices, $/MW and $/MW-mile."""

    lambda_c: float
    lambda_m: float

    def __post_init__(self):
        if self.lambda_c < 0 or self.lambda_m < 0:
            raise ValueError("prices must be >= 0")


@dataclass(frozen=True, slots=True)
class MarketOutcome:
    """Settlement of one scored interval. ``score`` is as computed."""

    capacity: float
    score: float
    mileage: float
    payment: float
    qualified: bool


def mileage(sig: RegSignal) -> float:
    """Total signal movement, sum of absolute first differences."""
    return float(np.sum(np.abs(np.diff(sig.values))))


# A huge capacity overflows the sums to inf and the score to nan; the
# caller checks the score, so numpy's overflow warning would only add noise.
@np.errstate(over="ignore")
def performance_score(capacity: float, sig: RegSignal, delivered_dp) -> float:
    """L1 tracking score of the delivered deviation against ``C * r``.

    Undefined (raises ValueError) for non-positive capacity, an all-zero
    signal, or a capacity times sum |r| that underflows to 0.
    """
    dp = np.asarray(delivered_dp, dtype=float)
    if dp.shape != sig.values.shape:
        raise ValueError("delivered_dp must match the signal length")
    if capacity <= 0.0:
        raise ValueError("performance score undefined for capacity <= 0")
    l1 = float(np.sum(np.abs(sig.values)))
    if l1 == 0.0:
        raise ValueError("performance score undefined for an all-zero signal")
    scale = capacity * l1
    if scale == 0.0:
        raise ValueError("performance score undefined: capacity * sum |r| underflows to 0")
    err = float(np.sum(np.abs(capacity * sig.values - dp)))
    return 1.0 - err / scale


def payment(score: float, capacity: float, mileage_value: float, prices: MarketPrices) -> float:
    """Scored payment; zero below the qualification threshold."""
    if capacity < 0 or mileage_value < 0:
        raise ValueError("capacity and mileage must be >= 0")
    if score < QUALIFICATION_THRESHOLD:
        return 0.0
    return score * capacity * (prices.lambda_c + mileage_value * prices.lambda_m)


def settle(capacity: float, sig: RegSignal, delivered_dp, prices: MarketPrices) -> MarketOutcome:
    """Score, mileage, qualification, and payment for one interval."""
    score = performance_score(capacity, sig, delivered_dp)
    m = mileage(sig)
    qualified = score >= QUALIFICATION_THRESHOLD
    pay = payment(score, capacity, m, prices) if qualified else 0.0
    return MarketOutcome(capacity, score, m, pay, qualified)


def max_flex_bid(dp_series, sig: RegSignal) -> float:
    """Capacity that maps the signal peak onto the envelope peak.

    ``C = max|dp| / max|r|`` over the interval. Note the bid can exceed
    what the fleet can deliver at off-peak PV; delivery stays envelope
    capped either way.
    """
    dp = np.asarray(dp_series, dtype=float)
    if dp.size == 0:
        raise ValueError("dp_series must not be empty")
    r_inf = float(np.max(np.abs(sig.values)))
    if r_inf == 0.0:
        raise ValueError("max-flex bid undefined for an all-zero signal")
    return float(np.max(np.abs(dp))) / r_inf


def decomposed_bid(batt: BatteryParams, pv_stat: float) -> float:
    """Battery rating plus half of a PV availability statistic."""
    if pv_stat < 0.0:
        raise ValueError("pv_stat must be >= 0 MW")
    return batt.p_max + 0.5 * pv_stat


def pv_statistic(samples, statistic: str) -> float:
    """Mean or percentile (linear interpolation) of PV power samples."""
    x = np.asarray(samples, dtype=float)
    if x.size == 0:
        raise ValueError("cannot take a statistic of an empty sample set")
    if statistic == "mean":
        return float(np.mean(x))
    try:
        q = _PERCENTILES[statistic]
    except KeyError:
        raise ValueError(f"unknown statistic {statistic!r}; pick one of {STATISTICS}") from None
    return float(np.percentile(x, q))


def group_by_season_hour(timestamps, values) -> dict[tuple[str, int], np.ndarray]:
    """Bucket samples by (season, UTC hour of day).

    Buckets come in calendar order, winter to fall and hour 0 to 23
    within a season, and keep their samples in input order.
    """
    ts = np.asarray(timestamps, dtype=np.int64)
    vals = np.asarray(values, dtype=float)
    if ts.shape != vals.shape:
        raise ValueError("timestamps and values must have the same length")
    ts = ts.ravel()
    month = ts.astype("datetime64[s]").astype("datetime64[M]").astype(np.int64) % 12 + 1
    hour = (ts // 3600) % 24
    key = _SEASON_OF_MONTH[month] * 24 + hour
    order = np.argsort(key, kind="stable")
    key = key[order]
    starts = np.flatnonzero(np.diff(key, prepend=-1))
    chunks = np.split(vals.ravel()[order], starts[1:])
    return {(_SEASONS[key[i] // 24], int(key[i] % 24)): chunk.copy()
            for i, chunk in zip(starts.tolist(), chunks)}
