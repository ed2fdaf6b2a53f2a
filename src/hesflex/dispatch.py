"""Rule-based allocation of a requested deviation, and the trajectory it
produces.

Given a scenario, the available PV power, and a deviation request ``dp``
inside the scenario envelope, the allocation rules split the implied net
power between the controllable load, the battery, and (for S4/S5) PV
curtailment such that the power balance

    p_hes = (p_pv - p_curtailed) - p_cl + p_batt

holds exactly with ``p_hes = p0 + dp``. Two closed-form rules exist: the
priority-load rule serves the load first and lets the battery take the
residual, and the green-load rule keeps the load fed from PV alone. The
rules take one step or a whole horizon of arrays alike; :func:`allocate`
returns floats for one step and arrays for a horizon.

A :class:`Trajectory` holds an executed run as equal-length columns, one
value per step, or a batch of R runs as (R, n) columns, one row per run;
:func:`validate_records` audits it column by column.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .assets import AssetFleet, _soc_drop
from .flexibility import FlexEnvelope, Scenario, envelope

_BALANCE_TOL = 1e-9


class InfeasibleDispatchError(ValueError):
    """Requested deviation falls outside the scenario envelope."""

    def __init__(self, scenario: Scenario, dp: float, env: FlexEnvelope):
        super().__init__(
            f"dp = {dp:.9g} MW is outside the {scenario.value} envelope "
            f"[{env.dp_lo:.9g}, {env.dp_hi:.9g}] MW"
        )
        self.scenario = scenario
        self.dp = dp
        self.envelope = env


@dataclass(frozen=True, eq=False)
class Trajectory:
    """An executed dispatch run as read-only float64 columns (MW, and
    per-unit SoC), indexed by step; or a batch of R runs as (R, n)
    columns, row r being run r. ``len`` is the number of steps. A
    read-only float64 array that owns its memory is kept as it is; any
    other column is copied.

    ``dp_req`` is the deviation requested before any envelope clipping
    or battery saturation; the delivered deviation is ``p_hes - p0``.
    ``soc`` is the battery SoC once the step has been applied.
    """

    p_hes: np.ndarray
    p0: np.ndarray
    dp_req: np.ndarray
    p_pv: np.ndarray
    p_cl: np.ndarray
    p_batt: np.ndarray
    p_curtailed: np.ndarray
    soc: np.ndarray

    def __post_init__(self):
        shape = None
        for f in fields(self):
            col = getattr(self, f.name)
            if not (isinstance(col, np.ndarray) and col.dtype == np.float64
                    and not col.flags.writeable and col.base is None):
                col = np.array(col, dtype=float)
            if col.ndim not in (1, 2) or (shape is not None and col.shape != shape):
                raise ValueError(f"column {f.name} must be 1-D with one value per step, "
                                 "or (runs, steps) like the other columns")
            shape = col.shape
            col.flags.writeable = False
            object.__setattr__(self, f.name, col)

    def __len__(self) -> int:
        return self.p_hes.shape[-1]


def _priority_load(fleet: AssetFleet, p_pv, p0, dp):
    """Load-first split of the target ``p0 + dp``.

    The load soaks up PV beyond the target, the battery covers whatever
    remains, both clamped to their ratings:

        p_cl   = clamp(p_pv - p0 - dp, 0, load.p_max)
        p_batt = clamp(p0 + dp - p_pv + p_cl, -batt.p_max, batt.p_max)
    """
    pb = fleet.battery.p_max
    p_cl = np.clip(p_pv - p0 - dp, 0.0, fleet.load.p_max)
    p_batt = np.clip(p0 + dp - p_pv + p_cl, -pb, pb)
    return p_cl, p_batt


def _green_load(fleet: AssetFleet, p_pv, dp):
    """Sustainable-load split: the load consumes PV energy only.

    Valid when the load can absorb all available PV (p_pv <= load.p_max).
    With ``D = 2 * batt.p_max + p_pv`` (> 0, the battery rating is):

        p_cl   = clamp(p_pv * (batt.p_max + p_pv / 2 - dp) / D, 0, load.p_max)
        p_batt = clamp(batt.p_max * 2 * dp / D, -batt.p_max, batt.p_max)
    """
    pb = fleet.battery.p_max
    den = 2.0 * pb + p_pv
    p_cl = np.clip(p_pv * (pb + 0.5 * p_pv - dp) / den, 0.0, fleet.load.p_max)
    p_batt = np.clip(pb * 2.0 * dp / den, -pb, pb)
    return p_cl, p_batt


def _curtailment(p_pv, p_cl, p_batt, target):
    """PV to curtail so the net power lands on ``target``: the surplus
    the load and battery leave, clamped to [0, p_pv]."""
    surplus = (p_pv - p_cl + p_batt) - target
    return np.clip(surplus, 0.0, p_pv)


def _position(x, flat: int) -> str:
    """Where the ``flat``-th value of ``x`` sits: ``step k`` in a horizon,
    ``run r, step k`` in an (R, n) batch of runs."""
    if np.ndim(x) == 2:
        r, k = np.unravel_index(flat, np.shape(x))
        return f"run {r}, step {k}"
    return f"step {flat}"


def _check_green_pv(p_pv, cl: float, source: str | None = None) -> None:
    """S2 keeps the load fed from PV alone, so the load must be able to
    absorb all of it; raises ValueError naming ``source`` or else the
    first step that is not."""
    flat = np.ravel(p_pv)
    over = np.flatnonzero(flat > cl + 1e-9)
    if over.size:
        raise ValueError(
            f"{source or _position(p_pv, over[0])}: green-load allocation requires "
            f"p_pv <= load.p_max (got p_pv = {flat[over[0]]:.9g}, load = {cl:.9g} MW)"
        )


def _split(scenario: Scenario, fleet: AssetFleet, p_pv, p0, dp):
    """The scenario's rule for an in-envelope ``dp`` around ``p0``."""
    cl = fleet.load.p_max
    pb = fleet.battery.p_max
    if scenario is Scenario.S2:
        _check_green_pv(p_pv, cl)
        p_cl, p_batt = _green_load(fleet, p_pv, dp)
        return p_cl, p_batt, np.zeros_like(p_cl)
    if scenario is Scenario.S3:
        p_cl = np.minimum(p_pv, cl)
        p_batt = np.clip(p0 + dp - p_pv + p_cl, -pb, pb)
        return p_cl, p_batt, np.zeros_like(p_cl)
    p_cl, p_batt = _priority_load(fleet, p_pv, p0, dp)
    if scenario is Scenario.S1:
        return p_cl, p_batt, np.zeros_like(p_cl)
    # S4/S5: load first, then battery, curtail the remaining surplus.
    return p_cl, p_batt, _curtailment(p_pv, p_cl, p_batt, p0 + dp)


def allocate(scenario: Scenario, fleet: AssetFleet, p_pv, dp):
    """Route a deviation request to the scenario's allocation rule.

    Returns ``(p_cl, p_batt, p_curtailed)``, floats for one step and
    arrays for array inputs. Raises :class:`InfeasibleDispatchError` when
    some ``dp`` is outside the envelope and ``ValueError`` for S2 with more
    PV than the load can absorb (the green-load rule has no consistent
    split there).
    """
    env = envelope(scenario, fleet, p_pv)
    outside = np.flatnonzero(~np.atleast_1d(env.contains(dp)))
    if outside.size:
        k = outside[0]
        at = [float(np.atleast_1d(x)[k]) for x in (dp, env.p0, env.dp_lo, env.dp_hi)]
        raise InfeasibleDispatchError(scenario, at[0], FlexEnvelope(*at[1:]))
    out = _split(scenario, fleet, p_pv, env.p0, dp)
    # Python floats for one step, the arrays themselves for a horizon
    return tuple(float(x) for x in out) if all(np.ndim(x) == 0 for x in out) else out


def validate_records(
    traj: Trajectory,
    fleet: AssetFleet,
    *,
    scenario: Scenario | None = None,
    soc0: float | None = None,
) -> None:
    """Audit a trajectory, or each run of a batch; raises ValueError
    naming the first bad step (and run).

    Checks the power balance residual, asset box constraints, the SoC
    window, and (when ``soc0`` is given) the SoC recursion under the
    battery inverter efficiency, each to ``_BALANCE_TOL`` (1e-9). A
    non-finite value fails every check it takes part in.
    """
    batt = fleet.battery
    cl = fleet.load.p_max
    t = traj
    tol = _BALANCE_TOL
    residual = (t.p_pv - t.p_curtailed) - t.p_cl + t.p_batt - t.p_hes
    checks = [
        (np.abs(residual) <= tol,
         lambda k: f"power balance residual {residual[k]:.3e} MW"),
        ((-tol <= t.p_cl) & (t.p_cl <= cl + tol),
         lambda k: f"load setpoint {t.p_cl[k]:.9g} outside [0, {cl}]"),
        (np.abs(t.p_batt) <= batt.p_max + tol,
         lambda k: f"battery power {t.p_batt[k]:.9g} beyond rating"),
        ((-tol <= t.p_curtailed) & (t.p_curtailed <= t.p_pv + tol),
         lambda k: f"curtailment {t.p_curtailed[k]:.9g} outside [0, p_pv]"),
    ]
    if scenario in (Scenario.S1, Scenario.S2, Scenario.S3):
        checks.append((t.p_curtailed <= tol,
                       lambda k: f"curtailment not allowed in {scenario.value}"))
    checks.append(((batt.e_min - tol <= t.soc) & (t.soc <= batt.e_max + tol),
                   lambda k: f"SoC {t.soc[k]:.9g} outside the window"))
    if soc0 is not None:
        prev = np.concatenate((np.full_like(t.soc[..., :1], soc0), t.soc[..., :-1]), axis=-1)
        expect = prev - _soc_drop(fleet.dt / batt.e_cap, batt.eta_inv, t.p_batt)
        off = expect - t.soc
        checks.append((np.abs(off) <= tol, lambda k: f"SoC recursion off by {off[k]:.3e}"))
    failing = np.flatnonzero(~np.logical_and.reduce([ok for ok, _ in checks]))
    if failing.size:
        k = np.unravel_index(failing[0], t.p_hes.shape)
        message = next(message for ok, message in checks if not ok[k])
        raise ValueError(f"{_position(t.p_hes, failing[0])}: {message(k)}")
