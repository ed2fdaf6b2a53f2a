"""Optimal-dispatch benchmark for regulation tracking.

Computes the minimum achievable total tracking error

    sum_k | C r_k - dp_k |

in any operating mode. The deliverable deviation of one step is
dp = p_batt + x, where x is what the other assets (the load, and PV
curtailment in S4/S5) deliver around the nominal power: any value of the
mode's band [lo_k, hi_k], the interval the flexibility envelope is built
from. Minimizing over x pointwise leaves a battery-only stage cost, the
distance of t_k - p to the band (t_k = C r_k),

    g_k(p) = max(0, (t_k - p) - hi_k, (p - t_k) + lo_k),

so the whole problem is a one-dimensional optimal control of the state
of charge. PV enters only through the band, so it moves the optimum in
S2, S4 and S5. This module solves the problem with the entire signal
known in advance; it is an offline benchmark, not a real-time
controller.

Strategy, cheapest first:

1. A state-free lower bound: no step can beat the distance of t_k to
   the envelope [dp_lo_k, dp_hi_k].
2. A myopic greedy pass respecting state-of-charge budgets, and the
   caller's warm start if given; when the better one meets the lower
   bound the result is provably optimal.
3. Otherwise an exact backward dynamic program over the SoC. The stage
   cost phi_k of a SoC drop d is convex piecewise-linear on each side of
   d = 0 (one side per battery mode, discharge or charge), so the only
   non-convexity is the choice of mode, and the value functions on the
   SoC window

       V_n = 0,  V_k = phi_k [] V_k+1

   ([] is infimal convolution) are continuous piecewise-linear. They are
   computed without a grid, by convolving convex runs and taking exact
   lower envelopes; a step with a single pair of runs, most steps on the
   default fleet, only restricts its convolution to the window. A
   forward pass then commits the drops that attain them. The answer is
   certified when its objective is within 1e-9 (relative, floor 1) of
   V_0(soc0), which holds to float rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _pwl
from .assets import AssetFleet, battery_step
from .dispatch import Trajectory, _check_green_pv, _curtailment
from .flexibility import Scenario, _band, envelope

__all__ = [
    "OracleProblem",
    "OracleSolution",
    "solve",
    "rule_objective",
]

_CERT_TOL = 1e-12  # greedy or warm start on the state-free bound
_EXACT_REL_TOL = 1e-9  # dynamic program objective on its own bound


@dataclass(frozen=True)
class OracleProblem:
    """Tracking instance: fleet, awarded capacity, signal, PV, start SoC
    and operating mode.

    ``pv`` may be a scalar (held constant) or a per-step series. It sets
    the baseline, and in S2, S4 and S5 also the band the load and
    curtailment deliver around it, so there it moves the optimum too; S2
    needs PV within the load rating, as its allocation rule does. Every
    number must be finite.
    """

    fleet: AssetFleet
    capacity: float
    signal: np.ndarray
    pv: np.ndarray = 0.0
    soc0: float = 0.5
    scenario: Scenario = Scenario.S1

    def __post_init__(self):
        sig = np.atleast_1d(np.asarray(self.signal, dtype=float))
        if sig.ndim != 1 or sig.size < 1:
            raise ValueError("signal must be a nonempty 1-D array")
        pv = np.asarray(self.pv, dtype=float)
        for name, value in (("signal", sig), ("pv", pv), ("capacity", self.capacity),
                            ("soc0", self.soc0)):
            if not np.all(np.isfinite(value)):
                raise ValueError(f"{name} must be finite")
        if pv.ndim == 0:
            pv = np.full(sig.size, float(pv))
        if pv.shape != sig.shape:
            raise ValueError("pv must be a scalar or match the signal length")
        if np.any(pv < 0.0):
            raise ValueError("pv must be nonnegative")
        if self.capacity <= 0.0:
            raise ValueError("capacity must be > 0 MW")
        b = self.fleet.battery
        if not (b.e_min <= self.soc0 <= b.e_max):
            raise ValueError("soc0 must start inside the battery window")
        if not isinstance(self.scenario, Scenario):
            raise ValueError(f"scenario must be a Scenario, got {self.scenario!r}")
        if self.scenario is Scenario.S2:
            _check_green_pv(pv, self.fleet.load.p_max)
        object.__setattr__(self, "signal", sig)
        object.__setattr__(self, "pv", pv)

    @property
    def horizon(self) -> int:
        return int(self.signal.size)

    def targets(self) -> np.ndarray:
        """Requested deviation per step, MW."""
        return self.capacity * self.signal


@dataclass(frozen=True)
class OracleSolution:
    """Best trajectory found plus its optimality status.

    ``backend`` names the path that produced the answer:
    "greedy-certificate", "warm-start-certificate" or "exact-dp".
    ``certified_optimal`` is True only when the objective is within
    float tolerance of ``lower_bound``.
    """

    records: Trajectory
    objective: float
    backend: str
    lower_bound: float
    certified_optimal: bool


def _band_of(problem: OracleProblem) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per step: the nominal power ``p0`` and the band [lo, hi] of
    deviations around it that the assets other than the battery deliver."""
    out = _band(problem.scenario, problem.pv, problem.fleet.load.p_max)
    return tuple(np.broadcast_to(x, problem.pv.shape) for x in out)


def _distance(x, lo, hi):
    """Distance of ``x`` to the interval [lo, hi], elementwise (0.0 last,
    so a zero distance is never -0.0)."""
    return np.maximum(np.maximum(x - hi, lo - x), 0.0)


class _Stage:
    """Per-step stage costs as functions of the SoC drop d.

    Sign conventions: battery power p > 0 discharges and drops the SoC
    by alpha * p / eta; p < 0 charges and raises it by alpha * eta * |p|
    (alpha = dt / e_cap, eta the inverter efficiency), so d > 0 on
    discharge. The cost is convex in d on each side of d = 0, one side
    per mode; at d = 0 it is concave when the target asks for more
    charging than the other assets can absorb, convex otherwise.
    """

    def __init__(self, problem: OracleProblem):
        fl = problem.fleet
        b = fl.battery
        self.alpha = fl.dt / b.e_cap
        self.eta = b.eta_inv
        self.pmax = b.p_max
        self.d_hi = self.alpha * self.pmax / self.eta
        self.d_lo = -self.alpha * self.eta * self.pmax
        _, lo, hi = _band_of(problem)
        self.phi = self._build(problem.targets(), lo, hi)

    def drop(self, p):
        a, e = self.alpha, self.eta
        return np.where(p >= 0.0, a * p / e, a * e * p)

    def to_power(self, d):
        a, e = self.alpha, self.eta
        return np.clip(np.where(d >= 0.0, d * e / a, d / (a * e)), -self.pmax, self.pmax)

    def _build(self, t: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> list[_pwl.Pwl]:
        # cost and drop are both linear in p between -p_max, the band
        # edges t - hi and t - lo, 0 and p_max, so phi is linear between
        # their drops; all steps at once, then one Pwl per step from floats
        def cost(p):
            return _distance(t - p, lo, hi)

        d_lo, d_hi = self.d_lo, self.d_hi
        kinks = [self.drop(t - hi), self.drop(t - lo)]
        cols = [d.tolist() for d in kinks]
        cols += [cost(self.to_power(d)).tolist() for d in kinks]
        cols += [cost(self.to_power(d)).tolist() for d in (d_lo, 0.0, d_hi)]
        phi = []
        for k1, k2, c1, c2, y_lo, y_0, y_hi in zip(*cols):
            pts = {d_lo: y_lo, 0.0: y_0, d_hi: y_hi}
            if d_lo < k1 < d_hi:
                pts.setdefault(k1, c1)
            if d_lo < k2 < d_hi:
                pts.setdefault(k2, c2)
            xs = sorted(pts)
            phi.append(_pwl.Pwl(tuple(xs), tuple(pts[d] for d in xs)))
        return phi


def _certificate_lower_bound(problem: OracleProblem) -> float:
    """State-free bound: no step can deliver a deviation outside the
    envelope, so each costs at least the distance of its target to it."""
    env = envelope(problem.scenario, problem.fleet, problem.pv)
    return float(_distance(problem.targets(), env.dp_lo, env.dp_hi).sum())


def _objective_of_powers(problem: OracleProblem, p_batt) -> float:
    _, lo, hi = _band_of(problem)
    return float(_distance(problem.targets() - np.asarray(p_batt, dtype=float), lo, hi).sum())


def _greedy_battery(problem: OracleProblem) -> np.ndarray:
    """One forward pass: stay in the zero-cost band when the budget
    allows it (preferring the smallest |p|), else saturate towards it."""
    fl = problem.fleet
    b = fl.battery
    alpha = fl.dt / b.e_cap
    eta = b.eta_inv
    _, band_lo, band_hi = _band_of(problem)
    soc = problem.soc0
    out = []
    for t, lo_k, hi_k in zip(problem.targets().tolist(), band_lo.tolist(), band_hi.tolist()):
        # power interval that keeps the post-step SoC inside the window
        p_hi = min(b.p_max, (soc - b.e_min) * eta / alpha)
        p_lo = max(-b.p_max, -(b.e_max - soc) / (alpha * eta))
        # powers that leave t - p inside the band cost nothing
        lo = max(p_lo, t - hi_k)
        hi = min(p_hi, t - lo_k)
        if lo <= hi:
            p = min(max(0.0, lo), hi)
        elif t - hi_k > p_hi:
            p = p_hi
        else:
            p = p_lo
        out.append(p)
        soc -= alpha * p / eta if p >= 0.0 else alpha * eta * p
    return np.array(out, dtype=float)


def _records_from_battery(problem: OracleProblem, p_batt) -> Trajectory:
    """Expand a battery trajectory into a full dispatch trajectory: each
    step delivers the deviation nearest its target that the band allows,
    split load first, then (S4/S5) curtailment, clamped as the
    allocation rules clamp them."""
    fl = problem.fleet
    b = fl.battery
    t = problem.targets()
    pv = problem.pv
    p0, lo, hi = _band_of(problem)
    p = np.clip(np.asarray(p_batt, dtype=float), -b.p_max, b.p_max)
    p_hes = p0 + np.clip(t, p + lo, p + hi)
    p_cl = np.clip(pv + p - p_hes, 0.0, fl.load.p_max)
    if problem.scenario in (Scenario.S4, Scenario.S5):
        p_curt = _curtailment(pv, p_cl, p, p_hes)
    else:
        p_curt = np.zeros(t.size)
    s = problem.soc0
    soc = []
    for pk in p.tolist():
        s = battery_step(b, s, min(pk, 0.0), max(pk, 0.0), fl.dt)
        soc.append(s)
    return Trajectory(p_hes, p0, t, pv, p_cl, p, p_curt, soc)


def _check_warm_start(problem: OracleProblem, p_batt) -> np.ndarray:
    p = np.asarray(p_batt, dtype=float)
    if p.shape != problem.signal.shape:
        raise ValueError("warm start must match the signal length")
    b = problem.fleet.battery
    if np.any(np.abs(p) > b.p_max + 1e-9):
        raise ValueError("warm start exceeds the battery rating")
    p = np.clip(p, -b.p_max, b.p_max)
    alpha = problem.fleet.dt / b.e_cap
    soc = problem.soc0
    for pk in p:
        soc -= alpha * pk / b.eta_inv if pk >= 0.0 else alpha * b.eta_inv * pk
        if soc < b.e_min - 1e-9 or soc > b.e_max + 1e-9:
            raise ValueError("warm start leaves the state-of-charge window")
    return p


# ---------------------------------------------------------------------------
# exact dynamic programming over piecewise-linear value functions
# ---------------------------------------------------------------------------


def _value_functions(stage: _Stage, n: int, e_min: float, e_max: float) -> list[_pwl.Pwl]:
    """V_n = 0 and V_k = phi_k [] V_k+1 on the SoC window, where [] is
    infimal convolution. Both operands are minima of their convex runs
    and [] distributes over minima, so every pair of runs is convolved
    and the results are merged exactly."""
    values: list[_pwl.Pwl] = [_pwl.Pwl((e_min, e_max), (0.0, 0.0))] * (n + 1)
    for k in range(n - 1, -1, -1):
        parts = [_pwl.inf_convolve(f, g) for f in _pwl.convex_runs(stage.phi[k])
                 for g in _pwl.convex_runs(values[k + 1])]
        values[k] = _pwl.lower_envelope(parts, e_min, e_max)
    return values


def _d_candidates(phi: _pwl.Pwl, v_next: _pwl.Pwl, s: float) -> set[float]:
    """Kink-complete candidate drops for min_d phi(d) + V(s - d)."""
    lo = max(phi.x_lo, s - v_next.x_hi)
    hi = min(phi.x_hi, s - v_next.x_lo)
    cands = {lo, hi}
    cands.update(x for x in phi.xs if lo < x < hi)
    cands.update(s - x for x in v_next.xs if lo < s - x < hi)
    return cands


def _optimal_powers(problem: OracleProblem, stage: _Stage, values) -> np.ndarray:
    """Walk forward committing, per step, the drop that attains V_k
    (the smallest |p| among exact ties). Drops and powers convert with
    the arithmetic of ``_Stage.to_power`` and ``_Stage.drop``, on floats."""
    b = problem.fleet.battery
    a, e, pmax = stage.alpha, stage.eta, stage.pmax
    s = problem.soc0
    powers = []
    for phi, v_next in zip(stage.phi, values[1:]):
        fx, fy, vx, vy = phi.xs, phi.ys, v_next.xs, v_next.ys
        best = None
        for d in _d_candidates(phi, v_next, s):
            p = min(max(d * e / a if d >= 0.0 else d / (a * e), -pmax), pmax)
            key = (_pwl._at(fx, fy, d) + _pwl._at(vx, vy, s - d), abs(p), p)
            if best is None or key < best:
                best = key
        p = best[2]
        powers.append(p)
        s -= a * p / e if p >= 0.0 else a * e * p
        s = min(max(s, b.e_min), b.e_max)  # float dust only
    return np.array(powers, dtype=float)


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


def solve(problem: OracleProblem, warm_start_p_batt=None) -> OracleSolution:
    """Optimal dispatch for the instance, certified to float tolerance.

    The greedy/certificate path runs first and short-circuits when it
    is already optimal; otherwise the exact dynamic program solves the
    instance. A feasible ``warm_start_p_batt`` (for example a rule-based
    trajectory) caps the returned objective from above.
    """
    lb = _certificate_lower_bound(problem)
    best_p = _greedy_battery(problem)
    best_obj = _objective_of_powers(problem, best_p)
    used = "greedy"
    if warm_start_p_batt is not None:
        warm = _check_warm_start(problem, warm_start_p_batt)
        warm_obj = _objective_of_powers(problem, warm)
        if warm_obj < best_obj:
            best_p, best_obj, used = warm, warm_obj, "warm-start"
    if best_obj <= lb + _CERT_TOL:
        return OracleSolution(
            _records_from_battery(problem, best_p),
            best_obj, f"{used}-certificate", lb, True,
        )
    b = problem.fleet.battery
    stage = _Stage(problem)
    values = _value_functions(stage, problem.horizon, b.e_min, b.e_max)
    dp_p = _optimal_powers(problem, stage, values)
    dp_obj = _objective_of_powers(problem, dp_p)
    if dp_obj < best_obj:
        best_p, best_obj = dp_p, dp_obj
    lower = max(lb, values[0](problem.soc0))
    certified = best_obj - lower <= _EXACT_REL_TOL * max(1.0, best_obj)
    return OracleSolution(
        _records_from_battery(problem, best_p),
        best_obj, "exact-dp", lower, certified,
    )


def rule_objective(problem: OracleProblem, traj: Trajectory) -> float:
    """Total tracking error sum_k |C r_k - (p_hes - p0)| of a dispatch
    trajectory on the instance, summed in step order."""
    # sum() over numpy float64 items adds them one by one; Python >= 3.12
    # compensates sums of exact floats, which would change the report bytes
    return float(sum(np.abs(problem.targets() - (traj.p_hes - traj.p0))))
