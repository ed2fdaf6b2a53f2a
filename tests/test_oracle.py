"""Optimal-dispatch benchmark: exact dynamic program, certificates, and honesty.

The headline check re-solves small instances with an entirely separate
method: every per-step charge/discharge sign pattern becomes a linear
program (epigraph form of the deadband cost plus cumulative SoC rows),
and the minimum over all 2^n patterns is the true optimum. The dynamic
program must match it to float dust.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

import hesflex as hx
from hesflex.oracle import (
    OracleProblem,
    certificate_lower_bound,
    compare_with_rule,
    solve,
)

TIGHT = hx.AssetFleet(
    pv=hx.PvParams.scaled_to_rating(3.0),
    battery=hx.BatteryParams(p_max=5.0, e_cap=2.0),
    load=hx.LoadParams(p_max=3.0),
    dt=0.25,
)


# HiGHS's default feasibility tolerances (1e-7) let a constraint break by
# more than the 1e-9 the oracle is held to; see the pinned instances below.
LP_TOLERANCES = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}


def _brute_force_lp(problem: OracleProblem) -> float:
    """Exhaustive optimum over all sign assignments, via linear programs.

    For a fixed pattern s in {dis, chg}^n the cost and dynamics are
    linear: minimize sum z_k subject to z_k >= |t_k - p_k| - hcl and the
    running SoC staying inside the window. Discharge steps consume
    alpha/eta per MW, charge steps return alpha*eta per MW.
    """
    batt = problem.fleet.battery
    alpha = problem.fleet.dt / batt.e_cap
    eta = batt.eta_inv
    hcl = 0.5 * problem.fleet.load.p_max
    t = problem.targets()
    n = t.size
    best = np.inf
    for mask in range(2 ** n):
        signs = [(mask >> k) & 1 for k in range(n)]  # 1 = discharge
        c = np.concatenate([np.zeros(n), np.ones(n)])
        # z_k >= (t_k - hcl) - p_k  and  z_k >= p_k - (t_k + hcl)
        a_ub = []
        b_ub = []
        for k in range(n):
            row = np.zeros(2 * n)
            row[k] = -1.0
            row[n + k] = -1.0
            a_ub.append(row)
            b_ub.append(hcl - t[k])
            row = np.zeros(2 * n)
            row[k] = 1.0
            row[n + k] = -1.0
            a_ub.append(row)
            b_ub.append(hcl + t[k])
        coef = np.array([alpha / eta if s else alpha * eta for s in signs])
        for k in range(n):
            row = np.zeros(2 * n)
            row[: k + 1] = coef[: k + 1]
            a_ub.append(row)
            b_ub.append(problem.soc0 - batt.e_min)
            a_ub.append(-row)
            b_ub.append(batt.e_max - problem.soc0)
        bounds = []
        for s in signs:
            bounds.append((0.0, batt.p_max) if s else (-batt.p_max, 0.0))
        bounds += [(0.0, None)] * n
        res = linprog(c, A_ub=np.array(a_ub), b_ub=np.array(b_ub),
                      bounds=bounds, method="highs", options=LP_TOLERANCES)
        if res.status == 0 and res.fun < best:
            best = res.fun
    return float(best)


def test_matches_exhaustive_lp_optimum(rng):
    """Ten random tight-battery instances against the 2^n LP sweep."""
    for trial in range(10):
        n = int(rng.integers(4, 8))
        r = np.clip(rng.normal(rng.uniform(-0.4, 0.4), 0.6, n), -1.0, 1.0)
        prob = OracleProblem(TIGHT, 6.5, r, 2.0, float(rng.uniform(0.3, 0.7)))
        sol = solve(prob)
        assert sol.certified_optimal, trial
        want = _brute_force_lp(prob)
        assert sol.objective == pytest.approx(want, abs=1e-9), trial


def _unit_fleet(load_max: float) -> hx.AssetFleet:
    return hx.AssetFleet(
        pv=hx.PvParams.scaled_to_rating(3.0),
        battery=hx.BatteryParams(p_max=1.0, e_cap=1.0, eta_inv=1.0),
        load=hx.LoadParams(p_max=load_max),
        dt=0.25,
    )


@pytest.mark.parametrize("load_max, r, want", [
    # the empty battery cannot deliver 2e-9 MW; at the default tolerance
    # the LP reported 0.0
    (0.0, [1e-9], 2e-9),
    # zero targets cost nothing; with a 6e-8 MW load the LP at the
    # default tolerance reported a negative optimum, -3e-8
    (6e-8, [0.0, 0.0], 0.0),
])
def test_lp_reference_holds_at_solver_tolerance_scale(load_max, r, want):
    """Instances whose optimum hinges on numbers below HiGHS's default
    feasibility tolerance: the LP reference must agree with the oracle."""
    prob = OracleProblem(_unit_fleet(load_max), 2.0, np.array(r), 0.0, 0.1)
    sol = solve(prob)
    assert sol.objective == pytest.approx(want, abs=1e-15)
    assert _brute_force_lp(prob) == pytest.approx(want, abs=1e-15)


def test_tree_search_beats_greedy_on_a_pinned_instance():
    """An instance where the one-pass heuristic is badly suboptimal.

    Greedy lands at 2.3172; committing the first steps differently gets
    the cost down to 0.08491864506787805 (certified, and confirmed by
    the LP sweep in this module's headline test family).
    """
    r = np.array([0.07790531915322435, -1.0, 0.5697032142190103, -0.42808534669407433])
    prob = OracleProblem(TIGHT, 6.5, r, 2.0, 0.5814214762583996)
    sol = solve(prob)
    assert sol.certified_optimal
    assert sol.objective == pytest.approx(0.08491864506787805, abs=1e-9)
    assert sol.objective == pytest.approx(_brute_force_lp(prob), abs=1e-9)


def test_certificate_short_circuit(fleet):
    # roomy battery, short horizon: the greedy run hits the lower bound
    sig = hx.synth_signal(3, 120)
    prob = OracleProblem(fleet, 6.5, sig.values, 2.0, 0.5)
    sol = solve(prob)
    assert sol.backend.endswith("certificate")
    assert sol.certified_optimal
    assert sol.objective == pytest.approx(sol.lower_bound, abs=1e-12)
    assert sol.objective == pytest.approx(0.0, abs=1e-9)


def test_certificate_bound_is_sound(rng):
    # the closed-form bound never exceeds an achieved objective
    for _ in range(20):
        n = int(rng.integers(5, 40))
        r = np.clip(rng.normal(0.0, 0.6, n), -1.0, 1.0)
        prob = OracleProblem(TIGHT, 8.0, r, 1.0, 0.5)
        sol = solve(prob)
        assert certificate_lower_bound(prob) <= sol.objective + 1e-9


def test_solution_records_are_physical(fleet):
    sig = hx.synth_signal(8, 90)
    prob = OracleProblem(fleet, 6.5, sig.values, 2.0, 0.5)
    sol = solve(prob)
    recs = sol.records
    hx.validate_records(recs, fleet, scenario=hx.Scenario.S1, soc0=0.5)
    # the stored objective is exactly the deadband cost of the trajectory
    t = prob.targets()
    dp = recs.p_hes - recs.p0
    again = np.sum(np.maximum(0.0, np.abs(t - dp) - 0.5 * fleet.load.p_max))
    assert sol.objective == pytest.approx(float(again), abs=1e-9)


def test_oracle_never_loses_to_the_rule(rng):
    for trial in range(8):
        n = int(rng.integers(15, 40))
        r = np.clip(rng.normal(rng.uniform(-0.5, 0.5), 0.6, n), -1.0, 1.0)
        prob = OracleProblem(TIGHT, 6.5, r, 2.0, float(rng.uniform(0.25, 0.75)))
        comp = compare_with_rule(prob)
        assert comp.oracle.objective <= comp.rule_objective + 1e-12
        assert comp.gap == pytest.approx(
            comp.rule_objective - comp.oracle.objective, abs=1e-12)


def test_guarded_rule_is_also_dominated():
    cfg = hx.GuardConfig(0.6, 0.4, 0.02)
    sig = hx.synth_signal(5, 900, bias=0.25)
    prob = OracleProblem(hx.default_fleet(), 6.5, sig.values, 2.0, 0.5)
    comp = compare_with_rule(prob, guard=cfg)
    assert comp.oracle.objective <= comp.rule_objective + 1e-12


def _tight_instance(seed: int, n: int, bias: float, soc0: float) -> OracleProblem:
    r = np.clip(np.random.default_rng(seed).normal(bias, 0.5, n), -1.0, 1.0)
    return OracleProblem(TIGHT, 6.5, r, 2.0, soc0)


def _default_instance(seed: int, n: int, bias: float) -> OracleProblem:
    sig = hx.synth_signal(seed, n, bias=bias)
    return OracleProblem(hx.default_fleet(), 6.5, sig.values, 2.0, 0.5)


# Objectives that the two approximate backends the dynamic program
# replaced reached on these instances: branch and bound with its
# 500-node limit (certified or not) and dynamic programming on a
# 2001-point SoC grid (never certified).
LONG_CASES = {
    # id: (instance, (branch-and-bound objective, certified), grid objective)
    "tight-160": (lambda: _tight_instance(77, 160, 0.35, 0.5),
                  (128.5834749479773, True), 128.58347494797727),
    "tight-220": (lambda: _tight_instance(202, 220, -0.3, 0.4),
                  (108.73900664678587, False), 103.49827506578322),
    "tight-300": (lambda: _tight_instance(203, 300, 0.2, 0.6),
                  (158.56156418339634, True), 158.5615641833963),
    "tight-400": (lambda: _tight_instance(204, 400, -0.15, 0.5),
                  (108.87423908325528, False), 96.41152003271554),
    "default-3600": (lambda: _default_instance(11, 3600, 0.5),
                     (2867.3750151955123, True), 2867.3750151954896),
}


@pytest.mark.parametrize("case", sorted(LONG_CASES))
def test_long_horizons_match_the_replaced_backends(case):
    """Where branch and bound certified its answer the dynamic program
    must reproduce it; elsewhere it must do at least as well as the
    better of the two replaced backends."""
    make, (bnb, bnb_certified), grid = LONG_CASES[case]
    prob = make()
    sol = solve(prob)
    assert sol.backend == "exact-dp"
    assert sol.certified_optimal
    assert sol.lower_bound <= sol.objective + 1e-9 * max(1.0, sol.objective)
    if bnb_certified:
        assert sol.objective == pytest.approx(bnb, abs=1e-9)
    else:
        assert sol.objective <= min(bnb, grid)
    hx.validate_records(sol.records, prob.fleet, scenario=hx.Scenario.S1,
                        soc0=prob.soc0)


def _grid(lo: int, hi: int, den: int):
    return st.integers(lo, hi).map(lambda i: i / den)


# The LP reference runs at 1e-10 feasibility tolerances (LP_TOLERANCES),
# so it can still misjudge an instance whose optimum hinges on numbers
# near 1e-10; every parameter therefore comes from a coarse grid.
@settings(max_examples=30, deadline=None)
@given(
    p_max=_grid(2, 24, 4),
    e_cap=_grid(2, 16, 4),
    load_max=_grid(0, 16, 4),
    eta=_grid(16, 20, 20),
    capacity=_grid(4, 40, 4),
    soc0=_grid(2, 18, 20),
    r=st.lists(_grid(-20, 20, 20), min_size=1, max_size=6),
)
def test_bound_objective_lp_and_rule_agree_on_small_fleets(
        p_max, e_cap, load_max, eta, capacity, soc0, r):
    """certificate bound <= oracle objective == LP optimum <= rule."""
    fleet = hx.AssetFleet(
        pv=hx.PvParams.scaled_to_rating(3.0),
        battery=hx.BatteryParams(p_max=p_max, e_cap=e_cap, eta_inv=eta),
        load=hx.LoadParams(p_max=load_max),
        dt=0.25,
    )
    prob = OracleProblem(fleet, capacity, np.array(r), 0.0, soc0)
    comp = compare_with_rule(prob)
    sol = comp.oracle
    assert sol.certified_optimal
    assert certificate_lower_bound(prob) <= sol.objective + 1e-9
    assert sol.objective == pytest.approx(_brute_force_lp(prob), abs=1e-9)
    assert sol.objective <= comp.rule_objective + 1e-12


def test_problem_validation(fleet):
    with pytest.raises(ValueError):
        OracleProblem(fleet, 0.0, np.array([0.1, 0.2]))
    with pytest.raises(ValueError):
        OracleProblem(fleet, 6.5, np.array([]))
    with pytest.raises(ValueError):
        OracleProblem(fleet, 6.5, np.array([0.1]), soc0=0.95)


def test_pv_broadcast_and_targets(fleet):
    prob = OracleProblem(fleet, 6.5, np.array([0.4, -0.2]), pv=2.0)
    np.testing.assert_allclose(prob.pv, [2.0, 2.0])
    np.testing.assert_allclose(prob.targets(), [2.6, -1.3])


@pytest.mark.parametrize("field, kwargs", [
    ("capacity", dict(capacity=np.nan)),
    ("signal", dict(signal=np.array([0.1, np.nan]))),
    ("signal", dict(signal=np.array([np.inf, 0.2]))),
    ("pv", dict(pv=np.array([2.0, np.nan]))),
    ("pv", dict(pv=np.inf)),
    ("soc0", dict(soc0=np.nan)),
])
def test_problem_rejects_non_finite_input(fleet, field, kwargs):
    """A NaN must not reach the solver, which would report a NaN
    objective as certified."""
    args = dict(fleet=fleet, capacity=6.5, signal=np.array([0.1, 0.2]), pv=2.0, soc0=0.5)
    args.update(kwargs)
    with pytest.raises(ValueError, match=field):
        OracleProblem(**args)
