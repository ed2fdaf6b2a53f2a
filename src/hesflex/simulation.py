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

A batch of R runs of n steps, given as (R, n) arrays, takes the same
numpy pass over all of it and one loop over the n steps, each step
advancing all R runs with numpy operations; row r of the batch gives
exactly the trajectory that run r gives on its own. A single horizon
keeps a loop over Python floats, which is far cheaper per step than
numpy calls on one-element arrays.

A run owns its own battery state; the module is stateless.
"""

from __future__ import annotations

import numpy as np

from .assets import AssetFleet, BatteryState, _battery_step_runs, battery_step
from .dispatch import Trajectory, _curtailment, _position, _split
from .flexibility import Scenario, envelope
from .soc_guard import GuardConfig, _guard_power_cap_runs, check_band, guard_power_cap


def simulate(
    fleet: AssetFleet,
    scenario: Scenario,
    dp_request,
    pv,
    soc0: float,
    guard: GuardConfig | None = None,
) -> Trajectory | list[Trajectory]:
    """Run the rule-based dispatcher over a whole horizon.

    ``dp_request`` and ``pv`` are equal-length, finite MW series, and the
    result is one :class:`Trajectory`. Given as equal-shape (R, n)
    arrays they are a batch of R runs sharing ``soc0`` and ``guard``, and
    the result is a list of R trajectories, the r-th being run r.
    ``soc0`` must lie inside the battery window, and inside the guard
    band when a ``guard`` is given.
    """
    dp_req = np.asarray(dp_request, dtype=float)
    p_pv = np.asarray(pv, dtype=float)
    if dp_req.ndim not in (1, 2) or p_pv.shape != dp_req.shape:
        raise ValueError(
            f"dp_request {dp_req.shape} and pv {p_pv.shape} must be equal-length 1-D "
            "series or equal-shape (runs, steps) batches"
        )
    for name, series in (("dp_request", dp_req), ("pv", p_pv)):
        flat = np.ravel(series)
        bad = np.flatnonzero(~np.isfinite(flat))
        if bad.size:
            raise ValueError(
                f"{_position(series, bad[0])}: {name} = {flat[bad[0]]} is not finite"
            )
    batt = fleet.battery
    if not (batt.e_min - 1e-12 <= soc0 <= batt.e_max + 1e-12):
        raise ValueError(f"soc0 = {soc0} outside the battery window")
    if guard is not None:
        check_band(guard, batt)
        if not (guard.e_lower <= soc0 <= guard.e_upper):
            raise ValueError(
                f"soc0 = {soc0} outside the guard band [{guard.e_lower}, {guard.e_upper}]"
            )
    # Intermediate columns are dropped as soon as they are used: on a
    # batch each one is as large as the whole input.
    env = envelope(scenario, fleet, p_pv)
    p0 = env.p0
    dp = np.clip(dp_req, env.dp_lo, env.dp_hi)
    del env
    p_cl, p_batt, p_curt = _split(scenario, fleet, p_pv, p0, dp)
    if dp_req.ndim == 1:
        p_batt, soc = _step_loop(fleet, guard, p_batt, soc0)
    else:
        p_batt, soc = _step_loop_runs(fleet, guard, p_batt, soc0)
    if scenario in (Scenario.S4, Scenario.S5):
        # A truncated charge leaves PV surplus; curtail it away so the
        # delivered power still lands on the target when possible.
        p_curt = _curtailment(p_pv, p_cl, p_batt, p0 + dp)
    del dp
    p_hes = (p_pv - p_curt) - p_cl + p_batt
    columns = (p_hes, p0, dp_req, p_pv, p_cl, p_batt, p_curt, soc)
    if dp_req.ndim == 1:
        return Trajectory(*columns)
    return [Trajectory(*(col[r] for col in columns)) for r in range(dp_req.shape[0])]


def _step_loop(fleet: AssetFleet, guard: GuardConfig | None, p_batt: np.ndarray, soc0: float):
    """Guard taper, SoC-window truncation and SoC update of one horizon;
    returns the delivered battery power and the SoC after each step."""
    batt = fleet.battery
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
    return np.array(delivered), np.array(soc)


def _step_loop_runs(fleet: AssetFleet, guard: GuardConfig | None, p_batt: np.ndarray,
                    soc0: float):
    """:func:`_step_loop` over an (R, n) batch: each step advances all R
    runs at once, with ``np.where`` in place of Python's ``min``/``max``
    so every value, signed zeros included, is the one a single run gets."""
    batt = fleet.battery
    dt = fleet.dt
    alpha = dt / batt.e_cap
    eta = batt.eta_inv
    runs, steps = p_batt.shape
    soc = np.full(runs, float(soc0))
    delivered = np.empty((steps, runs))
    socs = np.empty((steps, runs))
    for k, p in enumerate(p_batt.T):
        if guard is not None:
            p = _guard_power_cap_runs(guard, batt, soc, p)
        # The battery cannot push the SoC past its physical window.
        lim = (soc - batt.e_min) / alpha * eta
        p = np.where((p > 0.0) & (p > lim), np.where(0.0 > lim, 0.0, lim), p)
        lim = -(batt.e_max - soc) / (alpha * eta)
        p = np.where((p < 0.0) & (p < lim), np.where(0.0 < lim, 0.0, lim), p)
        soc = _battery_step_runs(batt, soc, p, dt)
        delivered[k] = p
        socs[k] = soc
    return delivered.T, socs.T
