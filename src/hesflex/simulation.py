"""Closed-loop dispatch simulation of the fleet against a deviation request.

The envelope and the allocation rules are closed-form in the available PV
and the request, so one numpy pass evaluates the envelope for the whole
horizon, clips every request into it and runs the allocation rule. Only
the battery carries state from step to step: a scan over the steps then
tapers the battery setpoint through the SoC guard (when one is given),
saturates it at the physical energy window, and advances the SoC. Finally
S4/S5 recompute curtailment for the battery power actually delivered. The
recorded ``p_hes`` is what the fleet actually delivers, so the power
balance holds exactly on every row even when the request was truncated.

A batch of R runs of n steps, given as (R, n) arrays, takes the same
numpy pass over all of it and gives one :class:`Trajectory` of (R, n)
columns; a single horizon is one row. Where neither the guard nor the
window changes a step, the scan takes the SoC of many steps from one
sequential ``np.cumsum`` of the SoC drops :func:`battery_step` applies
(``assets._soc_drop``), which gives the same floats; near the window or
the guard buffer it takes one scalar step at a time. The first block of
every row is one array pass over the batch, and only a row that fails it
is scanned on its own, from its first failing step. Row r of a batch is
therefore exactly the trajectory run r gives on its own.

A run owns its own battery state; the module is stateless.
"""

from __future__ import annotations

import numpy as np

from .assets import _SOC_SNAP, AssetFleet, BatteryParams, _soc_drop, _soc_power, battery_step
from .dispatch import Trajectory, _curtailment, _position, _split
from .flexibility import Scenario, envelope
from .soc_guard import GuardConfig, guard_power_cap

# Shortest scan block after a fast segment fails, and the fewest scalar
# steps taken after one that fails within that many steps.
_BLOCK = 32


def simulate(
    fleet: AssetFleet,
    scenario: Scenario,
    dp_request,
    pv,
    soc0: float,
    guard: GuardConfig | None = None,
) -> Trajectory:
    """Run the rule-based dispatcher over a whole horizon.

    ``dp_request`` and ``pv`` are equal-length, finite MW series, and the
    result is one :class:`Trajectory`. Given as equal-shape (R, n)
    arrays they are a batch of R runs sharing ``soc0`` and ``guard``, and
    the result is one :class:`Trajectory` of (R, n) columns, row r being
    run r.
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
    if not (batt.e_min - _SOC_SNAP <= soc0 <= batt.e_max + _SOC_SNAP):
        raise ValueError(f"soc0 = {soc0} outside the battery window")
    if guard is not None:
        if guard.e_lower < batt.e_min - _SOC_SNAP or guard.e_upper > batt.e_max + _SOC_SNAP:
            raise ValueError(
                f"guard band [{guard.e_lower}, {guard.e_upper}] exceeds the battery "
                f"window [{batt.e_min}, {batt.e_max}]"
            )
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
    p_batt, soc = _soc_scan(fleet, guard, p_batt, soc0)
    if scenario in (Scenario.S4, Scenario.S5):
        # A truncated charge leaves PV surplus; curtail it away so the
        # delivered power still lands on the target when possible.
        p_curt = _curtailment(p_pv, p_cl, p_batt, p0 + dp)
    del dp
    p_hes = (p_pv - p_curt) - p_cl + p_batt
    for col in (p_hes, p_cl, p_batt, p_curt):
        col.flags.writeable = False  # fresh arrays, which the trajectory keeps uncopied
    return Trajectory(p_hes, p0, dp_req, p_pv, p_cl, p_batt, p_curt, soc)


# Python floats overflow to inf silently; the vectorized steps do the same.
@np.errstate(over="ignore", invalid="ignore")
def _soc_scan(fleet: AssetFleet, guard: GuardConfig | None, p_batt: np.ndarray, soc0: float):
    """Guard taper, SoC-window truncation and SoC update of each run, a
    row of ``p_batt`` (or the one row of a 1-D horizon); returns the
    delivered battery power and the SoC after each step, shaped like
    ``p_batt``.

    The first block spans every row: one sequential cumsum along the rows,
    prefixed by ``soc0``, and one :func:`_unchanged` over the batch. A row
    that passes it is done; any other is scanned by :func:`_scan_row` from
    the first step :func:`_unchanged` cannot vouch for.
    """
    batt = fleet.battery
    alpha = fleet.dt / batt.e_cap
    eta = batt.eta_inv
    delivered = np.array(p_batt, dtype=float)
    rows = delivered if delivered.ndim == 2 else delivered[None]  # a view, one row per run
    n = rows.shape[1]
    soc = np.empty((rows.shape[0], n + 1))
    soc[:, 0] = soc0
    soc[:, 1:] = -_soc_drop(alpha, eta, rows)  # SoC increments at the requested power
    np.cumsum(soc, axis=1, out=soc)
    ok = _unchanged(batt, guard, alpha, eta, rows, soc[:, :-1], soc[:, 1:])
    for r in np.flatnonzero(~ok.all(axis=1)).tolist():
        _scan_row(fleet, guard, rows[r], soc[r], int(ok[r].argmin()))
    return delivered, soc[:, 1:].reshape(p_batt.shape)


def _scan_row(fleet: AssetFleet, guard: GuardConfig | None, p: np.ndarray, s_row: np.ndarray,
              k: int) -> None:
    """Finish the scan of one run in place: ``p`` holds its requested
    powers and ``s_row`` its SoC before each step, right up to step ``k``,
    the first step the array pass cannot vouch for.

    From a step a fast segment fails at, the scan takes scalar steps, the
    guard taper and then :func:`battery_step` (truncation and update),
    while the SoC stays within one full-power step of the window or the
    guard buffer. A fast segment takes the SoC of a block of steps from
    one sequential cumsum prefixed by the current SoC, and keeps the steps
    before the first one that :func:`_unchanged` cannot vouch for. Blocks
    double while they run clean and fall back to twice the steps the last
    one kept, so a request that keeps re-crossing the margin costs O(n),
    not O(n^2).
    """
    batt = fleet.battery
    dt = fleet.dt
    alpha = dt / batt.e_cap
    eta = batt.eta_inv
    n = p.size
    # Inside [lo, hi] no full-power step reaches the window or the buffer.
    reach = _soc_drop(alpha, eta, batt.p_max)
    lo, hi = batt.e_min + reach, batt.e_max - reach
    if guard is not None:
        lo = max(lo, guard.e_lower + guard.buffer + reach)
        hi = min(hi, guard.e_upper - guard.buffer - reach)
    incr = -_soc_drop(alpha, eta, p)
    requests = p.tolist()
    j = k  # the first block spanned the row from step 0
    while True:
        block = max(_BLOCK, 2 * j)
        min_run = _BLOCK if j < _BLOCK else 1
        s = float(s_row[k])
        taken, socs = [], []
        for i in range(k, n):
            q = requests[i]
            if guard is not None:
                q = guard_power_cap(guard, batt, s, q)
            q, s = battery_step(batt, s, q, dt)
            taken.append(q)
            socs.append(s)
            if len(taken) >= min_run and lo <= s <= hi:
                break
        m = len(taken)
        p[k:k + m] = taken
        s_row[k + 1:k + 1 + m] = socs
        k += m
        while k < n:
            end = min(n, k + block)
            seg = s_row[k:end + 1]
            seg[1:] = incr[k:end]
            np.cumsum(seg, out=seg)
            ok = _unchanged(batt, guard, alpha, eta, p[k:end], seg[:-1], seg[1:])
            j = int(ok.argmin())
            if not ok[j]:
                k += j
                break
            k, block = end, 2 * block
        else:
            return


def _unchanged(batt: BatteryParams, guard: GuardConfig | None, alpha: float, eta: float,
               p: np.ndarray, before: np.ndarray, after: np.ndarray) -> np.ndarray:
    """Steps that the scalar step would deliver as requested, from the SoC
    ``before`` to the SoC ``after`` the unclamped update: within the
    rating, untouched by the guard taper and by :func:`battery_step`'s
    window truncation, and landing inside the window. Each test takes the
    scalar step's decision: its truncation limits are the
    :func:`_soc_power` of the drops to the window edges, which
    :func:`battery_step` spells inline."""
    ok = (np.abs(p) <= batt.p_max) & (batt.e_min <= after) & (after <= batt.e_max)
    discharge = p > 0.0
    lim = _soc_power(alpha, eta, np.where(discharge, before - batt.e_min, before - batt.e_max))
    ok &= ~((discharge & (p > lim)) | ((p < 0.0) & (p < lim)))
    if guard is not None:
        ok &= ~((before > guard.e_upper - guard.buffer) & (p < 0.0))
        ok &= ~((before < guard.e_lower + guard.buffer) & discharge)
    return ok
