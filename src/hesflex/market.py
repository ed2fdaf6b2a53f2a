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

A signal, a delivered deviation and a capacity may also be a batch of R
runs: (R, n) arrays and one capacity per run (or one for all). Mileage,
score, payment and settlement then work row-wise and return one value per
run, each bit for bit the one-row call's; a one-row call is the same code
on a 1-D series and returns floats. PV statistics take an (R, m) batch of
sample sets the same way. Non-finite inputs are refused, naming the run
and step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .assets import BatteryParams
from .dispatch import _position

QUALIFICATION_THRESHOLD = 0.75

_PERCENTILES = {"p50": 50.0, "p75": 75.0, "p95": 95.0}
STATISTICS = ("mean", "p50", "p75", "p95")


def _check_finite(name: str, x: np.ndarray) -> None:
    """Refuse a non-finite value of ``x``, naming its run and step."""
    bad = np.flatnonzero(~np.isfinite(x))
    if bad.size:
        raise ValueError(f"{_position(x, bad[0])}: {name} = {np.ravel(x)[bad[0]]} is not finite")


def _per_run(x: np.ndarray):
    """A float for one run, the array of per-run values for a batch."""
    return float(x) if x.ndim == 0 else x


@dataclass
class RegSignal:
    """Normalized regulation signal, one value per step in [-1, 1]; or a
    batch of R signals as an (R, n) array, one row per run."""

    values: np.ndarray

    def __post_init__(self):
        # C order: numpy sums a row pairwise, as it sums a 1-D run, only
        # along a contiguous last axis
        v = np.ascontiguousarray(self.values, dtype=float)
        if v.ndim not in (1, 2) or v.shape[-1] < 2:
            raise ValueError("a signal needs at least two samples")
        _check_finite("signal value", v)
        over = np.flatnonzero(np.abs(v) > 1.0 + 1e-12)
        if over.size:
            raise ValueError(f"{_position(v, over[0])}: normalized signal must stay within "
                             f"[-1, 1], got {np.ravel(v)[over[0]]}")
        self.values = v


@dataclass(frozen=True, slots=True)
class MarketPrices:
    """Capacity and mileage clearing prices, $/MW and $/MW-mile."""

    lambda_c: float
    lambda_m: float

    def __post_init__(self):
        for name in ("lambda_c", "lambda_m"):
            price = getattr(self, name)
            if not (math.isfinite(price) and price >= 0):
                raise ValueError(f"prices must be finite and >= 0, got {name} = {price}")


@dataclass(frozen=True, slots=True)
class MarketOutcome:
    """Settlement of one scored interval. ``score`` is as computed. For a
    batch each field holds one value per run."""

    capacity: float
    score: float
    mileage: float
    payment: float
    qualified: bool


def mileage(sig: RegSignal):
    """Total signal movement, sum of absolute first differences."""
    return _per_run(np.sum(np.abs(np.diff(sig.values)), axis=-1))


# A huge capacity overflows the sums to inf and the score to nan; the
# caller checks the score, so numpy's warnings would only add noise.
@np.errstate(over="ignore", invalid="ignore")
def performance_score(capacity, sig: RegSignal, delivered_dp):
    """L1 tracking score of the delivered deviation against ``C * r``.

    Undefined (raises ValueError) for a capacity that is not finite and
    positive, an all-zero signal, or a capacity times sum |r| that
    underflows to 0.
    """
    r = sig.values
    dp = np.ascontiguousarray(delivered_dp, dtype=float)  # C order, as for RegSignal
    if dp.shape != r.shape:
        raise ValueError("delivered_dp must match the signal's shape")
    _check_finite("delivered_dp", dp)
    try:
        c = np.broadcast_to(np.asarray(capacity, dtype=float), r.shape[:-1])
    except ValueError:
        raise ValueError(f"capacity must be one value or one per run, got shape "
                         f"{np.shape(capacity)} for {r.shape[:-1]} runs") from None
    l1 = np.sum(np.abs(r), axis=-1)
    scale = c * l1
    bad = ~((c > 0.0) & np.isfinite(c))
    if np.any(bad):
        raise ValueError(f"{_run(bad)}performance score undefined for capacity <= 0 or not finite")
    if np.any(l1 == 0.0):
        raise ValueError(f"{_run(l1 == 0.0)}performance score undefined for an all-zero signal")
    if np.any(scale == 0.0):
        raise ValueError(f"{_run(scale == 0.0)}performance score undefined: "
                         "capacity * sum |r| underflows to 0")
    err = np.sum(np.abs(c[..., None] * r - dp), axis=-1)
    return _per_run(1.0 - err / scale)


def _run(mask: np.ndarray) -> str:
    """``run r: `` for the first run ``mask`` holds in a batch, nothing for one run."""
    return f"run {int(np.argmax(mask))}: " if mask.ndim else ""


def payment(score, capacity, mileage_value, prices: MarketPrices):
    """Scored payment; zero below the qualification threshold."""
    score, c, m = (np.asarray(x, dtype=float) for x in (score, capacity, mileage_value))
    for name, x in (("capacity", c), ("mileage", m)):
        bad = ~((x >= 0) & np.isfinite(x))
        if np.any(bad):
            raise ValueError(f"{_run(bad)}{name} must be finite and >= 0, got {x[bad].flat[0]}")
    with np.errstate(over="ignore", invalid="ignore"):
        pay = score * c * (prices.lambda_c + m * prices.lambda_m)
    return _per_run(np.where(score >= QUALIFICATION_THRESHOLD, pay, 0.0))


def settle(capacity, sig: RegSignal, delivered_dp, prices: MarketPrices) -> MarketOutcome:
    """Score, mileage, qualification, and payment for one interval, or
    for each run of a batch."""
    score = performance_score(capacity, sig, delivered_dp)
    m = mileage(sig)
    return MarketOutcome(capacity, score, m, payment(score, capacity, m, prices),
                         score >= QUALIFICATION_THRESHOLD)


def max_flex_bid(dp_series, sig: RegSignal):
    """Capacity that maps the signal peak onto the envelope peak.

    ``C = max|dp| / max|r|`` over the interval, or over each run of a
    batch. Note the bid can exceed what the fleet can deliver at off-peak
    PV; delivery stays envelope capped either way.
    """
    dp = np.asarray(dp_series, dtype=float)
    if dp.size == 0:
        raise ValueError("dp_series must not be empty")
    r_inf = np.max(np.abs(sig.values), axis=-1)
    if np.any(r_inf == 0.0):
        raise ValueError(f"{_run(r_inf == 0.0)}max-flex bid undefined for an all-zero signal")
    return _per_run(np.max(np.abs(dp), axis=-1) / r_inf)


def decomposed_bid(batt: BatteryParams, pv_stat: float) -> float:
    """Battery rating plus half of a PV availability statistic."""
    if not (math.isfinite(pv_stat) and pv_stat >= 0.0):
        raise ValueError(f"pv_stat must be a finite power >= 0 MW, got {pv_stat}")
    return batt.p_max + 0.5 * pv_stat


def pv_statistic(samples, statistic):
    """Mean or percentile (linear interpolation) of PV power samples.

    ``statistic`` is one name of :data:`STATISTICS`, which gives a float,
    or a tuple of them, which gives a tuple of floats from one
    ``np.percentile`` call. ``samples`` may also be an (R, m) batch of R
    sample sets of m samples each; every float is then an array of one
    value per row, bit for bit the one-row call's.
    """
    # C order, as for RegSignal: numpy sums a row pairwise only along a
    # contiguous last axis
    x = np.ascontiguousarray(samples, dtype=float)
    if x.ndim > 2:
        raise ValueError("samples must be one sample set or an (R, m) batch of them")
    if x.size == 0:
        raise ValueError("cannot take a statistic of an empty sample set")
    _check_finite("sample", x)
    names = (statistic,) if isinstance(statistic, str) else tuple(statistic)
    for name in names:
        if name not in STATISTICS:
            raise ValueError(f"unknown statistic {name!r}; pick one of {STATISTICS}")
    q = [_PERCENTILES[name] for name in names if name != "mean"]
    percentiles = iter(np.percentile(x, q, axis=-1) if q else ())
    out = tuple(_per_run(np.mean(x, axis=-1) if name == "mean" else next(percentiles))
                for name in names)
    return out[0] if isinstance(statistic, str) else out
