"""Real-time flexibility envelopes of the hybrid plant.

An envelope is the nominal net power ``p0`` plus the closed interval
[dp_lo, dp_hi] of deviations the fleet can deliver around it during one
step. Five operating modes are supported, differing in how the
controllable load is parked and whether PV may be curtailed:

- S1  load parked at half rating, no curtailment, maximum symmetric range
- S2  load fed from PV only (sustainable load), no curtailment
- S3  load matched to PV (up to its rating), battery provides the whole
      (smallest) range
- S4  load parked mid-range with curtailment allowed, widest symmetric range
- S5  one-sided pricing of the resources: full load + battery down, battery
      plus available PV up (asymmetric)

Every envelope is the battery's +-p_max added to the interval that the
other assets deliver around ``p0``; the offline oracle reads that same
interval. All powers are MW. ``p_pv`` is the currently available PV
power, one value or one per step: the envelope is closed-form, so a whole
horizon is evaluated in one numpy pass.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .assets import AssetFleet


class Scenario(enum.Enum):
    """Operating mode selecting a nominal trajectory and envelope."""

    S1 = "S1"
    S2 = "S2"
    S3 = "S3"
    S4 = "S4"
    S5 = "S5"


@dataclass(frozen=True, slots=True)
class FlexEnvelope:
    """Nominal power and admissible deviation interval: floats for one
    step, equal-length arrays for a horizon."""

    p0: float | np.ndarray
    dp_lo: float | np.ndarray
    dp_hi: float | np.ndarray

    def __post_init__(self):
        if not (np.all(self.dp_lo <= 0.0) and np.all(0.0 <= self.dp_hi)):
            raise ValueError("envelope must contain dp = 0")

    def contains(self, dp):
        """Closed-interval membership test, elementwise for arrays."""
        return (self.dp_lo <= dp) & (dp <= self.dp_hi)

    @property
    def width(self) -> float:
        return self.dp_hi - self.dp_lo


def _band(scenario: Scenario, p, cl: float):
    """``(p0, lo, hi)``: the nominal power and the interval [lo, hi] of
    deviations around it that the assets other than the battery (load
    and, in S4/S5, curtailment) can deliver at PV availability ``p``."""
    if scenario is Scenario.S1:
        half = 0.5 * cl
        return p - half, -half, half
    if scenario is Scenario.S2:
        half = 0.5 * np.minimum(p, cl)
        return half, -half, half
    if scenario is Scenario.S3:
        return p - np.minimum(p, cl), 0.0, 0.0
    if scenario is Scenario.S4:
        half = 0.5 * (p + cl)
        return 0.5 * (p - cl), -half, half
    if scenario is Scenario.S5:
        return 0.0, -cl, p
    raise ValueError(f"unknown scenario: {scenario!r}")


def envelope(scenario: Scenario, fleet: AssetFleet, p_pv) -> FlexEnvelope:
    """Envelope of the fleet at PV availability ``p_pv``: floats for a
    scalar ``p_pv``, arrays of its shape for an array."""
    p = np.asarray(p_pv, dtype=float)
    if not np.all(np.isfinite(p)):
        raise ValueError("p_pv must be finite")
    if np.any(p < 0.0):
        raise ValueError("p_pv must be >= 0 MW")
    p0, lo, hi = _band(scenario, p, fleet.load.p_max)
    pb = fleet.battery.p_max
    dp_lo, dp_hi = lo - pb, hi + pb
    if p.ndim == 0:
        return FlexEnvelope(float(p0), float(dp_lo), float(dp_hi))
    return FlexEnvelope(*(np.broadcast_to(x, p.shape) for x in (p0, dp_lo, dp_hi)))
