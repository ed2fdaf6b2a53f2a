"""SoC guard: tapered battery power limiting around a target band.

The guard keeps the battery SoC inside a band [e_lower, e_upper] that is
tighter than the physical window, so that headroom for sustained
regulation is always preserved. Near a band edge the power limit in the
offending direction shrinks linearly across a buffer zone:

    entering the top buffer while charging:
        cap = max(0, (e_upper - soc) / buffer) * p_max
    entering the bottom buffer while discharging:
        cap = max(0, (soc - e_lower) / buffer) * p_max

Power in the direction that moves the SoC back toward the band center is
never restricted. Requests are truncated, never redirected; the unmet
part shows up as tracking shortfall downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .assets import BatteryParams


@dataclass(frozen=True, slots=True)
class GuardConfig:
    """Guard band and taper buffer, all per-unit SoC."""

    e_upper: float = 0.6
    e_lower: float = 0.4
    buffer: float = 0.02

    def __post_init__(self):
        if not 0.0 <= self.e_lower < self.e_upper <= 1.0:
            raise ValueError("need 0 <= e_lower < e_upper <= 1")
        if not 0.0 < self.buffer <= 0.5 * (self.e_upper - self.e_lower):
            raise ValueError("buffer must lie in (0, (e_upper - e_lower) / 2]")


def guard_power_cap(cfg: GuardConfig, batt: BatteryParams, soc: float, p_req: float) -> float:
    """Apply the taper to a requested battery power (MW, + = discharge)."""
    cap = batt.p_max
    if soc > cfg.e_upper - cfg.buffer:
        if p_req < 0.0:
            cap = max(0.0, (cfg.e_upper - soc) / cfg.buffer) * batt.p_max
    elif soc < cfg.e_lower + cfg.buffer:
        if p_req > 0.0:
            cap = max(0.0, (soc - cfg.e_lower) / cfg.buffer) * batt.p_max
    if p_req >= 0.0:
        return min(p_req, cap)
    return max(p_req, -cap)


def containment_ratio(cfg: GuardConfig, batt: BatteryParams, dt: float) -> float:
    """Largest per-step SoC move at full power, as a fraction of the buffer.

    A ratio <= 1 guarantees the taper contains the SoC inside the band:
    the worst single step from the buffer edge cannot overshoot the bound.
    """
    charge_move = batt.p_max * batt.eta_inv * dt / batt.e_cap
    den = batt.eta_inv * batt.e_cap  # underflows to 0 for a tiny efficiency
    discharge_move = batt.p_max * dt / den if den > 0.0 else math.inf
    return max(charge_move, discharge_move) / cfg.buffer
