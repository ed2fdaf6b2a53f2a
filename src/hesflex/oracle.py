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
2. The SoC tube: backward and forward passes over SoC intervals find a
   trajectory with every step at its least cost, if one exists; moved
   through the rule's SoC scan, it is optimal when it meets the bound.
3. Otherwise an exact backward dynamic program over the SoC. The stage
   cost phi_k of a SoC drop d is convex piecewise-linear on each side of
   d = 0 (one side per battery mode, discharge or charge), so the only
   non-convexity is the choice of mode, and the value functions on the
   SoC window

       V_n = 0,  V_k = phi_k [] V_k+1

   ([] is infimal convolution) are continuous piecewise-linear. They are
   computed without a grid, on plain ``(xs, ys)`` float tuples with no
   ``Pwl``. One numpy pass builds every phi_k and decides once whether
   each is convex. A step where phi_k and V_k+1 are each one convex run,
   most steps on the default fleet, is one fused convolve-and-cut pass
   that equals the generic path bit for bit. Any other step convolves
   each mode's run of phi_k with all of V_k+1 in one pass, the pieces of
   the Minkowski sum of their graphs that can be lowest, and one sweep
   keeps the lowest piece; its cost follows the pieces that overlap, not
   the breakpoints of all of them. A forward pass then commits the drops
   that attain them. The answer is certified when its objective is
   within 1e-9 (relative, floor 1) of V_0(soc0), which holds to float
   rounding.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from . import _pwl
from .assets import AssetFleet
from .dispatch import Trajectory, _check_green_pv, _curtailment
from .flexibility import Scenario, _band
from .simulation import _soc_scan

__all__ = [
    "OracleProblem",
    "OracleSolution",
    "solve",
    "rule_objective",
]

_CERT_TOL = 1e-12  # tube trajectory on the state-free bound
_EXACT_REL_TOL = 1e-9  # dynamic program objective on its own bound
# The DP keeps every V_k. A breakpoint held costs up to 64 B (two float
# objects and two tuple slots), ~77 B of peak RSS, so this budget is
# ~1.3 GB traced, about a `track` run at the step limit. The oracle-long
# instances of the default fleet hold at most 4.8 a step (~4.8 M at the
# 10^6-step oracle limit); the 1 h tight pack holds ~900 a step, and the
# default fleet at bias -0.6 ~2,000-2,600 (1-4 h runs), so those stop
# after ~22,000 and ~8,000-10,000 steps.
_MAX_BREAKPOINTS_HELD = 20_000_000


@dataclass(frozen=True)
class OracleProblem:
    """Tracking instance: fleet, awarded capacity, signal, PV, start SoC
    and operating mode.

    ``pv`` may be a scalar (held constant) or a per-step series. It sets
    the baseline, and in S2, S4 and S5 also the band the load and
    curtailment deliver around it, so there it moves the optimum too; S2
    needs PV within the load rating, as its allocation rule does. Every
    number must be finite. ``_band`` keeps the mode's ``(p0, lo, hi)`` per step.
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
        band = _band(self.scenario, pv, self.fleet.load.p_max)
        object.__setattr__(self, "_band", tuple(np.broadcast_to(x, pv.shape) for x in band))

    @property
    def horizon(self) -> int:
        return int(self.signal.size)

    def targets(self) -> np.ndarray:
        """Requested deviation per step, MW."""
        return self.capacity * self.signal


@dataclass(frozen=True)
class OracleSolution:
    """Best trajectory found plus its optimality status.

    ``backend`` names the path that produced the answer, "tube-certificate"
    or "exact-dp"; ``certified_optimal`` is True only when the objective is
    within float tolerance of ``lower_bound``.
    """

    records: Trajectory
    objective: float
    backend: str
    lower_bound: float
    certified_optimal: bool


def _distance(x, lo, hi):
    """Distance of ``x`` to the interval [lo, hi], elementwise (0.0 last,
    so a zero distance is never -0.0)."""
    return np.maximum(np.maximum(x - hi, lo - x), 0.0)


def _drop(a: float, e: float, p):
    """SoC drop of battery power ``p``, elementwise: p > 0 discharges and
    drops the SoC by a * p / e, p < 0 charges and raises it by a * e * |p|
    (a = dt / e_cap, e the inverter efficiency)."""
    return np.where(p >= 0.0, a * p / e, a * e * p)


def _breakpoints(problem: OracleProblem) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The breakpoints of every phi_k (see :func:`_stage_costs`) in one
    run, step after step, as drops and costs, and the number per step.

    Cost and drop are linear in p between -p_max, t - hi, t - lo, 0 and
    p_max, so phi is linear between their drops. In ascending order, with
    k1 <= k2 (t - hi <= t - lo, and _drop is monotone), a step's
    breakpoints are the drop bound d_lo, the kinks in (d_lo, 0), 0.0, the
    kinks in (0, d_hi) and d_hi. A kink equal to 0.0 (-0.0 too) or to k1
    adds none and keeps the earlier cost; a drop bound that underflows to
    0.0 shares the 0.0 breakpoint, whose cost is then the later bound's.
    """
    b = problem.fleet.battery
    a, e, pmax = problem.fleet.dt / b.e_cap, b.eta_inv, b.p_max
    d_lo, d_hi = -a * e * pmax, a * pmax / e
    _, lo, hi = problem._band
    t = problem.targets()
    n = t.size

    def cost(d):
        p = np.clip(np.where(d >= 0.0, d * e / a, d / (a * e)), -pmax, pmax)
        return _distance(t - p, lo, hi)

    k1, k2 = _drop(a, e, t - hi), _drop(a, e, t - lo)
    c1, c2 = cost(k1), cost(k2)
    y_0, y_hi = cost(0.0), cost(d_hi)
    # one column per candidate breakpoint, in ascending order
    xs = np.stack([np.full(n, d_lo), k1, k2, np.zeros(n), k1, k2, np.full(n, d_hi)], axis=1)
    ys = np.stack([cost(d_lo) if d_lo < 0.0 else y_0, c1, c2, y_0, c1, c2, y_hi], axis=1)
    if not 0.0 < d_hi:
        ys[:, 3 if d_lo < 0.0 else 0] = y_hi
    keep = np.stack([np.full(n, True), (d_lo < k1) & (k1 < 0.0),
                     (d_lo < k2) & (k2 < 0.0) & (k2 != k1), np.full(n, d_lo < 0.0),
                     (0.0 < k1) & (k1 < d_hi), (0.0 < k2) & (k2 < d_hi) & (k2 != k1),
                     np.full(n, 0.0 < d_hi)], axis=1)
    return xs[keep], ys[keep], keep.sum(axis=1)


def _stage_costs(problem: OracleProblem) -> tuple[list[tuple[tuple, tuple]], list[bool]]:
    """Per-step stage costs phi_k as functions of the SoC drop d, each as
    its ``(xs, ys)`` breakpoints, and per step whether phi_k is convex.

    d > 0 on discharge (see :func:`_drop`). The cost is convex in d on
    each side of d = 0, one side per mode; at d = 0 it is concave when
    the target asks for more charging than the other assets can absorb,
    convex otherwise. Convexity is decided for all steps at once with
    ``_pwl._concave_kinks``' arithmetic: a slope strictly below the one
    before it, at a breakpoint that is neither the first nor the last of
    its step.
    """
    xs, ys, m = _breakpoints(problem)
    ends = np.cumsum(m)
    with np.errstate(all="ignore"):  # slopes across two steps are never used
        slopes = np.diff(ys) / np.diff(xs)
    inner = np.full(xs.size, True)
    inner[ends - m] = inner[ends - 1] = False
    kinks = inner[1:-1] & (slopes[1:] < slopes[:-1])
    convex = np.full(m.size, True)
    convex[np.repeat(np.arange(m.size), m)[1:-1][kinks]] = False
    xs, ys, ends = xs.tolist(), ys.tolist(), ends.tolist()
    phi = [(tuple(xs[i:j]), tuple(ys[i:j])) for i, j in zip([0, *ends], ends)]
    return phi, convex.tolist()


def _certificate_lower_bound(problem: OracleProblem) -> float:
    """State-free bound: no step can deliver a deviation outside the
    envelope, the band widened by the battery rating, so each costs at
    least the distance of its target to it."""
    _, lo, hi = problem._band
    p_max = problem.fleet.battery.p_max
    return float(_distance(problem.targets(), lo - p_max, hi + p_max).sum())


def _objective_of_powers(problem: OracleProblem, p_batt) -> float:
    _, lo, hi = problem._band
    return float(_distance(problem.targets() - np.asarray(p_batt, dtype=float), lo, hi).sum())


def _tube_battery(problem: OracleProblem, tol: float) -> np.ndarray | None:
    """Powers, through the rule's SoC scan, that put every step within
    ``tol`` of its least cost, or None when the SoC window rules that out.
    Step k qualifies on the powers within tol of [t - hi, t - lo] clipped
    to the rating (the cost has slope 1), whose SoC drops D_k give the
    SoCs from which steps k..n-1 all qualify, B_k = (B_k+1 + D_k) cut to
    the window, B_n the window: the target tube of Bertsekas and Rhodes
    (Automatica 7, 1971). Forwards, each step takes the drop in D_k
    nearest the greedy request's that keeps the SoC in B_k+1."""
    b = problem.fleet.battery
    a, e = problem.fleet.dt / b.e_cap, b.eta_inv
    _, lo, hi = problem._band
    t = problem.targets()
    greedy = np.clip(np.clip(0.0, t - hi, t - lo), -b.p_max, b.p_max)
    p_lo = np.maximum(np.minimum(t - hi, b.p_max) - tol, -b.p_max)
    p_hi = np.minimum(np.maximum(t - lo, -b.p_max) + tol, b.p_max)
    d_lo, d_hi, d_greedy = (_drop(a, e, p).tolist() for p in (p_lo, p_hi, greedy))
    p_lo, p_hi, powers = p_lo.tolist(), p_hi.tolist(), greedy.tolist()
    e_min = s_lo = b.e_min
    e_max = s_hi = b.e_max
    tube = [(s_lo, s_hi)]  # B_n, ..., B_0
    for dl, dh in zip(d_lo[::-1], d_hi[::-1]):
        s_lo = s_lo + dl if s_lo + dl > e_min else e_min
        s_hi = s_hi + dh if s_hi + dh < e_max else e_max
        if s_lo > s_hi:
            return None
        tube.append((s_lo, s_hi))
    s = problem.soc0
    if not s_lo <= s <= s_hi:
        return None
    for k, (s_lo, s_hi) in enumerate(tube[-2::-1]):
        d = min(max(d_greedy[k], d_lo[k], s - s_hi), d_hi[k], s - s_lo)
        if d != d_greedy[k]:
            powers[k] = min(max(d * e / a if d >= 0.0 else d / (a * e), p_lo[k]), p_hi[k])
        s -= d
    return _soc_scan(problem.fleet, None, np.array(powers), problem.soc0)[0]


def _records_from_battery(problem: OracleProblem, p_batt) -> Trajectory:
    """Expand a battery trajectory, moved through the rule's SoC scan,
    into a full dispatch trajectory: each step delivers the deviation
    nearest its target that the band allows, split load first, then
    (S4/S5) curtailment, clamped as the allocation rules clamp them."""
    fl = problem.fleet
    t = problem.targets()
    pv = problem.pv
    p0, lo, hi = problem._band
    p, soc = _soc_scan(fl, None, p_batt, problem.soc0)
    p_hes = p0 + np.clip(t, p + lo, p + hi)
    p_cl = np.clip(pv + p - p_hes, 0.0, fl.load.p_max)
    if problem.scenario in (Scenario.S4, Scenario.S5):
        p_curt = _curtailment(pv, p_cl, p, p_hes)
    else:
        p_curt = np.zeros(t.size)
    return Trajectory(p_hes, p0, t, pv, p_cl, p, p_curt, soc)


# ---------------------------------------------------------------------------
# exact dynamic programming over piecewise-linear value functions
# ---------------------------------------------------------------------------


def _value_functions(phi, phi_convex, e_min: float, e_max: float) -> list[tuple[tuple, tuple]]:
    """V_n = 0 and V_k = phi_k [] V_k+1 on the SoC window, each as its
    ``(xs, ys)`` breakpoints, where [] is infimal convolution;
    ``phi_convex[k]`` tells whether phi_k is one convex run.

    When phi_k and V_k+1 are each one convex run, the step is one fused
    convolve-and-cut pass (``_pwl._convolve_on``); any other step is
    :func:`_multi_part_step`. Raises ValueError once the breakpoints held
    exceed ``_MAX_BREAKPOINTS_HELD``.
    """
    values = [((e_min, e_max), (0.0, 0.0))] * (len(phi) + 1)
    convex = True  # V_k+1 is one convex run
    held = 0
    for k in reversed(range(len(phi))):
        if convex and phi_convex[k]:
            xs, ys = _pwl._convolve_on(*phi[k], *values[k + 1], e_min, e_max)
        else:
            xs, ys = _multi_part_step(phi[k], values[k + 1], e_min, e_max)
        values[k] = (xs, ys)
        held += len(xs)
        if held > _MAX_BREAKPOINTS_HELD:
            raise ValueError(
                f"the exact oracle DP holds more than its budget of "
                f"{_MAX_BREAKPOINTS_HELD:,} value-function breakpoints after "
                f"{len(phi) - k:,} of {len(phi):,} steps; shorten the horizon")
        convex = next(_pwl._concave_kinks(xs, ys), None) is None
    return values


def _multi_part_step(phi_k, v_next, e_min: float, e_max: float) -> tuple[tuple, tuple]:
    """phi_k [] V_k+1 on the window as ``(xs, ys)``, for phi_k and V_k+1 of any
    shape. phi_k is the minimum of its convex runs, one per battery mode,
    and [] distributes over minima, so each mode is convolved with all of
    V_k+1 in one pass (``_pwl._convolve_any``) and ``_pwl.lower_envelope``
    takes the minimum of the modes."""
    gx, gy = v_next
    parts = [_pwl._convolve_any(*f, gx, gy) for f in _pwl._runs(*phi_k)]
    return tuple(_pwl.lower_envelope(parts, e_min, e_max))


def _optimal_powers(problem: OracleProblem, stage_costs, values) -> np.ndarray:
    """Walk forward committing, per step, the drop that attains V_k
    (the smallest |p| among exact ties). The candidate drops are the ends
    of the feasible range and every kink of phi_k and of V_k+1(s - d)
    inside it, evaluated as ``_pwl._at`` evaluates; a candidate listed
    twice gives the same key twice. Drops and powers convert with the
    arithmetic of :func:`_drop` and its inverse in :func:`_stage_costs`,
    on floats."""
    b = problem.fleet.battery
    a, e, pmax = problem.fleet.dt / b.e_cap, b.eta_inv, b.p_max
    ae, nmax, e_min, e_max = a * e, -pmax, b.e_min, b.e_max
    s = problem.soc0
    powers = []
    for (fx, fy), (vx, vy) in zip(stage_costs, values[1:]):
        f_lo, f_hi, v_lo, v_hi = fx[0], fx[-1], vx[0], vx[-1]
        lo = max(f_lo, s - v_hi)
        hi = min(f_hi, s - v_lo)
        cands = [lo, hi]
        cands += [x for x in fx if lo < x < hi]
        # s - x falls as x rises, so the kinks of V_k+1 inside are one slice
        # of vx: bisect near its ends, then settle them with the test itself
        i = bisect_right(vx, s - hi)
        while i and s - vx[i - 1] < hi:
            i -= 1
        while i < len(vx) and not s - vx[i] < hi:
            i += 1
        j = bisect_left(vx, s - lo, i)
        while j < len(vx) and lo < s - vx[j]:
            j += 1
        while j > i and not lo < s - vx[j - 1]:
            j -= 1
        cands += [s - x for x in vx[i:j]]
        first = True
        for d in cands:
            p = d * e / a if d >= 0.0 else d / ae
            if p < nmax:
                p = nmax
            elif p > pmax:
                p = pmax
            if d <= f_lo:
                u = fy[0]
            elif d >= f_hi:
                u = fy[-1]
            else:
                i = bisect_right(fx, d) - 1
                t = (d - fx[i]) / (fx[i + 1] - fx[i])
                u = (1.0 - t) * fy[i] + t * fy[i + 1]
            x = s - d
            if x <= v_lo:
                v = vy[0]
            elif x >= v_hi:
                v = vy[-1]
            else:
                i = bisect_right(vx, x) - 1
                t = (x - vx[i]) / (vx[i + 1] - vx[i])
                v = (1.0 - t) * vy[i] + t * vy[i + 1]
            # the least (u + v, |p|, p), compared as tuples are, without the tuples
            c = u + v
            m = abs(p)
            if first or c < best_c or c == best_c and (m < best_m or m == best_m and p < best_p):
                best_c, best_m, best_p = c, m, p
                first = False
        powers.append(best_p)
        s -= a * best_p / e if best_p >= 0.0 else ae * best_p
        s = e_min if s < e_min else e_max if s > e_max else s  # float dust only
    return np.array(powers, dtype=float)


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


def solve(problem: OracleProblem) -> OracleSolution:
    """Optimal dispatch for the instance, certified to float tolerance:
    the tube's trajectory when it meets the state-free bound (each step at
    its least cost, else, for float dust at the SoC window, within the
    whole tolerance, as in any certifiable trajectory), else the DP's."""
    lb = _certificate_lower_bound(problem)
    for tol in (0.0, _CERT_TOL):
        p = _tube_battery(problem, tol)
        if p is not None and (obj := _objective_of_powers(problem, p)) <= lb + _CERT_TOL:
            return OracleSolution(_records_from_battery(problem, p), obj, "tube-certificate",
                                  lb, True)
    b = problem.fleet.battery
    phi, phi_convex = _stage_costs(problem)
    values = _value_functions(phi, phi_convex, b.e_min, b.e_max)
    p = _optimal_powers(problem, phi, values)
    obj = _objective_of_powers(problem, p)
    lower = max(lb, _pwl._at(*values[0], problem.soc0))
    certified = obj - lower <= _EXACT_REL_TOL * max(1.0, obj)
    return OracleSolution(_records_from_battery(problem, p), obj, "exact-dp", lower, certified)


def rule_objective(problem: OracleProblem, traj: Trajectory) -> float:
    """Total tracking error sum_k |C r_k - (p_hes - p0)| of a dispatch
    trajectory on the instance, summed in step order."""
    # sum() over numpy float64 items adds them one by one; Python >= 3.12
    # compensates sums of exact floats, which would change the report bytes
    return float(sum(np.abs(problem.targets() - (traj.p_hes - traj.p0))))
