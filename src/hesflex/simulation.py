"""Closed-loop dispatch simulation of the fleet against a deviation request.

The envelope and the allocation rules are closed-form in the available PV
and the request, so one numpy pass evaluates the envelope for the whole
horizon, clips every request into it and runs the allocation rule. Only
the battery carries state from step to step: a loop over the steps then
tapers the battery setpoint through the SoC guard (when one is given),
saturates it at the physical energy window, and advances the SoC. Finally
S4/S5 recompute curtailment for the battery power actually delivered. The
recorded ``p_hes`` is what the fleet actually delivers, so the power
balance holds exactly on every row even when the request was truncated.

A run owns its own battery state; the module is stateless.
"""

from __future__ import annotations

import numpy as np

from .assets import AssetFleet, BatteryState, battery_step
from .dispatch import Trajectory, _curtailment, _split
from .flexibility import Scenario, envelope
from .soc_guard import GuardConfig, check_band, guard_power_cap


def simulate(
    fleet: AssetFleet,
    scenario: Scenario,
    dp_request,
    pv,
    soc0: float,
    guard: GuardConfig | None = None,
) -> Trajectory:
    """Run the rule-based dispatcher over a whole horizon.

    ``dp_request`` and ``pv`` are equal-length, finite MW series.
    ``soc0`` must lie inside the battery window, and inside the guard
    band when a ``guard`` is given.
    """
    dp_req = np.asarray(dp_request, dtype=float)
    p_pv = np.asarray(pv, dtype=float)
    if dp_req.ndim != 1 or p_pv.shape != dp_req.shape:
        raise ValueError(
            f"dp_request {dp_req.shape} and pv {p_pv.shape} must be equal-length 1-D series"
        )
    for name, series in (("dp_request", dp_req), ("pv", p_pv)):
        bad = np.flatnonzero(~np.isfinite(series))
        if bad.size:
            raise ValueError(f"step {bad[0]}: {name} = {series[bad[0]]} is not finite")
    batt = fleet.battery
    if not (batt.e_min - 1e-12 <= soc0 <= batt.e_max + 1e-12):
        raise ValueError(f"soc0 = {soc0} outside the battery window")
    if guard is not None:
        check_band(guard, batt)
        if not (guard.e_lower <= soc0 <= guard.e_upper):
            raise ValueError(
                f"soc0 = {soc0} outside the guard band [{guard.e_lower}, {guard.e_upper}]"
            )
    env = envelope(scenario, fleet, p_pv)
    dp = np.clip(dp_req, env.dp_lo, env.dp_hi)
    p_cl, p_batt, p_curt = _split(scenario, fleet, p_pv, env.p0, dp)

    dt = fleet.dt
    alpha = dt / batt.e_cap
    eta = batt.eta_inv
    state = BatteryState(soc0)
    delivered = []
    soc = []
    for p in p_batt.tolist():
        if guard is not None:
            p = guard_power_cap(guard, batt, state.soc, p)
        # The battery cannot push the SoC past its physical window.
        if p > 0.0:
            lim = (state.soc - batt.e_min) / alpha * eta
            if p > lim:
                p = max(lim, 0.0)
        elif p < 0.0:
            lim = -(batt.e_max - state.soc) / (alpha * eta)
            if p < lim:
                p = min(lim, 0.0)
        state = battery_step(batt, state, min(p, 0.0), max(p, 0.0), dt)
        delivered.append(p)
        soc.append(state.soc)
    p_batt = np.array(delivered)
    if scenario in (Scenario.S4, Scenario.S5):
        # A truncated charge leaves PV surplus; curtail it away so the
        # delivered power still lands on the target when possible.
        p_curt = _curtailment(p_pv, p_cl, p_batt, env.p0 + dp)
    p_hes = (p_pv - p_curt) - p_cl + p_batt
    return Trajectory(p_hes, env.p0, dp_req, p_pv, p_cl, p_batt, p_curt, np.array(soc))
