"""Acceptance gate: ten numbered criteria, one test and one line each.

Run with ``pytest -v tests/test_acceptance.py`` to get the per-criterion
pass/fail listing. Each test prints a short evidence line (visible with
``-rA`` or on failure) and pins the tolerance it was accepted at.
"""

import time

import numpy as np
import pytest

import hesflex as hx
from hesflex.cli import bid_sweep_rows
from hesflex.oracle import OracleProblem, solve

BAND = hx.GuardConfig(e_upper=0.6, e_lower=0.4, buffer=0.02)


def _tight_fleet():
    """Small pack and coarse steps so regulation energy binds the SoC."""
    return hx.AssetFleet(
        pv=hx.PvParams.scaled_to_rating(3.0),
        battery=hx.BatteryParams(p_max=5.0, e_cap=2.0),
        load=hx.LoadParams(p_max=3.0),
        dt=0.25,
    )


def test_criterion_01_envelope_constants(fleet):
    t0 = time.perf_counter()
    s1 = hx.envelope(hx.Scenario.S1, fleet, 2.0)
    assert s1.dp_hi == 6.5 and s1.dp_lo == -6.5
    s3 = hx.envelope(hx.Scenario.S3, fleet, 2.0)
    assert s3.dp_hi == 5.0 and s3.dp_lo == -5.0
    for p_pv in np.linspace(0.0, 3.0, 301):
        s5 = hx.envelope(hx.Scenario.S5, fleet, float(p_pv))
        assert s5.dp_hi == 5.0 + p_pv
        assert s5.dp_lo == -8.0
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"criterion 1 PASS: S1 +-6.5, S3 +-5, S5 [-8, 5+pv] exact, {elapsed:.3f}s")


def test_criterion_02_perfect_tracking(fleet):
    t0 = time.perf_counter()
    sig = hx.synth_signal(0, 1800)  # energy neutral per 450-step window
    recs = hx.simulate(fleet, hx.Scenario.S1, 6.5 * sig.values,
                       np.full(1800, 2.0), 0.5)
    score = hx.performance_score(6.5, hx.RegSignal(sig.values), recs.p_hes - recs.p0)
    assert score == pytest.approx(1.0, abs=1e-9)
    sol = solve(OracleProblem(fleet, 6.5, sig.values, 2.0, 0.5))
    assert sol.objective == 0.0
    assert sol.certified_optimal
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"criterion 2 PASS: x_p = {score!r}, oracle objective 0, {elapsed:.3f}s")


def test_criterion_03_rule_equals_oracle_when_soc_is_slack(fleet, rule_and_oracle):
    t0 = time.perf_counter()
    rng = np.random.default_rng(31415)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(60, 121))
        r = np.clip(rng.normal(rng.uniform(-0.3, 0.3), 0.45, n), -1.0, 1.0)
        capacity = float(rng.uniform(3.0, 9.0))
        prob = OracleProblem(fleet, capacity, r, 2.0, 0.5)
        rule_obj, sol = rule_and_oracle(prob)
        gap = rule_obj - sol.objective
        worst = max(worst, abs(gap))
        assert abs(gap) <= 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"criterion 3 PASS: 200 instances, max |rule - oracle| = {worst:.2e}, {elapsed:.1f}s")


def test_criterion_04_oracle_dominates_when_soc_binds(rule_and_oracle):
    fleet = _tight_fleet()
    rng = np.random.default_rng(11)
    strict = 0
    for trial in range(30):
        n = int(rng.integers(20, 61))
        r = np.clip(rng.normal(rng.uniform(-0.5, 0.5), 0.5, n), -1.0, 1.0)
        prob = OracleProblem(fleet, 6.5, r, 2.0, float(rng.uniform(0.2, 0.8)))
        rule_obj, sol = rule_and_oracle(prob)
        assert sol.objective <= rule_obj + 1e-12, trial
        if rule_obj - sol.objective > 1e-6:
            strict += 1
    assert strict >= 10  # the instances genuinely engage the constraint
    print(f"criterion 4 PASS: oracle <= rule on 30/30 binding trials, {strict} strict")


def test_criterion_05_guard_containment(fleet):
    n = 7200  # four hours at two seconds
    pv = np.full(n, 2.0)
    sigs = [hx.synth_signal(seed, n).values for seed in range(100)]
    req = 6.5 * np.array(sigs)
    pvs = np.broadcast_to(pv, req.shape)
    guarded = hx.simulate(fleet, hx.Scenario.S1, req, pvs, 0.5, guard=BAND)
    unguarded = hx.simulate(fleet, hx.Scenario.S1, req, pvs, 0.5)
    g_soc, u_soc = guarded.soc, unguarded.soc
    escaped = np.flatnonzero((g_soc.min(axis=1) <= BAND.e_lower)
                             | (g_soc.max(axis=1) >= BAND.e_upper))
    assert escaped.size == 0, escaped
    reg = hx.RegSignal(np.array(sigs))
    g_score = hx.performance_score(6.5, reg, guarded.p_hes - guarded.p0)
    u_score = hx.performance_score(6.5, reg, unguarded.p_hes - unguarded.p0)
    in_window = ((u_soc.min(axis=1) >= fleet.battery.e_min - 1e-12)
                 & (u_soc.max(axis=1) <= fleet.battery.e_max + 1e-12))
    worse = np.flatnonzero(in_window & (g_score > u_score + 1e-12))
    assert worse.size == 0, worse
    qualified = int(np.sum(g_score >= 0.75))
    assert qualified >= 90
    # a discharge-heavy signal drags the unguarded battery out of the band
    biased = hx.synth_signal(0, n, bias=0.3)
    free = hx.simulate(fleet, hx.Scenario.S1, 6.5 * biased.values, pv, 0.5)
    f_soc = free.soc
    assert f_soc.min() < BAND.e_lower
    held = hx.simulate(fleet, hx.Scenario.S1, 6.5 * biased.values, pv, 0.5, guard=BAND)
    h_soc = held.soc
    assert h_soc.min() > BAND.e_lower and h_soc.max() < BAND.e_upper
    print(f"criterion 5 PASS: 100/100 contained, {qualified}/100 qualified, "
          f"biased unguarded min soc {f_soc.min():.3f} exits the band")


def test_criterion_06_power_balance_audit(fleet):
    worst = 0.0
    rows = 0
    tiny = hx.AssetFleet(pv=hx.PvParams.scaled_to_rating(3.0),
                         battery=hx.BatteryParams(p_max=5.0, e_cap=0.02),
                         load=hx.LoadParams(p_max=3.0), dt=fleet.dt)
    runs = []
    for seed in (1, 2):
        sig = hx.synth_signal(seed, 600)
        pv = np.full(600, 2.0)
        for scen in hx.Scenario:
            cap = hx.envelope(scen, fleet, 2.0).dp_hi
            req = cap * sig.values
            runs.append((fleet, scen, hx.simulate(fleet, scen, req, pv, 0.5)))
            runs.append((fleet, scen,
                         hx.simulate(fleet, scen, req, pv, 0.5, guard=BAND)))
        # saturation regime: the 20 kWh pack truncates constantly
        runs.append((tiny, hx.Scenario.S1,
                     hx.simulate(tiny, hx.Scenario.S1, 6.5 * sig.values, pv, 0.5)))
    for fl, scen, recs in runs:
        hx.validate_records(recs, fl, scenario=scen, soc0=0.5)
        resid = np.abs(recs.p_hes - ((recs.p_pv - recs.p_curtailed) - recs.p_cl + recs.p_batt))
        worst = max(worst, float(resid.max()))
        rows += len(recs)
    assert worst <= 1e-9
    print(f"criterion 6 PASS: {rows} rows audited, max residual {worst:.2e} MW")


def test_criterion_07_envelope_maximality(rng):
    checked = 0
    for trial in range(1000):
        fl = hx.AssetFleet(
            pv=hx.PvParams.scaled_to_rating(float(rng.uniform(0.5, 6.0))),
            battery=hx.BatteryParams(p_max=float(rng.uniform(1.0, 8.0)),
                                     e_cap=float(rng.uniform(1.0, 10.0))),
            load=hx.LoadParams(p_max=float(rng.uniform(0.5, 5.0))),
            dt=2.0 / 3600.0,
        )
        scen = list(hx.Scenario)[int(rng.integers(0, 5))]
        hi = fl.pv.p_pv_rated
        if scen in (hx.Scenario.S2, hx.Scenario.S3):
            hi = min(hi, fl.load.p_max)  # these modes feed the load from PV
        p_pv = float(rng.uniform(0.0, hi))
        env = hx.envelope(scen, fl, p_pv)
        for eps in (1e-6, 0.1):
            for bad in (env.dp_hi + eps, env.dp_lo - eps):
                with pytest.raises(hx.InfeasibleDispatchError):
                    hx.allocate(scen, fl, p_pv, bad)
        for edge in (env.dp_hi, env.dp_lo):
            p_cl, p_batt, p_curt = hx.allocate(scen, fl, p_pv, edge)
            got = (p_pv - p_curt) - p_cl + p_batt - env.p0
            assert abs(got - edge) <= 1e-9, (trial, scen, edge)
        checked += 1
    print(f"criterion 7 PASS: {checked} fleets, edges exact, edges +- eps rejected")


def test_criterion_08_market_arithmetic():
    assert hx.mileage(hx.RegSignal(np.array([0.0, 1.0, -1.0, 0.0]))) == 4.0
    prices = hx.MarketPrices(lambda_c=10.0, lambda_m=1.0)
    assert hx.payment(1.0, 6.5, 0.0, prices) == 65.0
    assert hx.payment(0.8, 2.0, 3.0, prices) == 20.8
    assert hx.payment(0.74, 2.0, 3.0, prices) == 0.0
    assert hx.pv_statistic([0.0, 1.0, 2.0, 3.0, 4.0], "p75") == 3.0
    assert hx.pv_statistic([0.0, 2.0], "p50") == 1.0
    print("criterion 8 PASS: mileage 4.0, payments 65.0 / 20.8 / 0.0, percentiles exact")


def test_criterion_09_bid_sweep_direction():
    cfg = hx.RunConfig(seed=0)
    rows = bid_sweep_rows(cfg, days=30, eval_steps=600,
                          statistics=("p50", "p75", "p95"))
    by_bucket = {}
    for season, hour, stat, _n, _stat_mw, bid, score, _q, _pay in rows:
        by_bucket.setdefault((season, hour), {})[stat] = (bid, score)
    assert by_bucket
    strict = 0
    for key, stats in by_bucket.items():
        (c50, x50), (c75, x75), (c95, x95) = (stats[s] for s in ("p50", "p75", "p95"))
        assert c95 >= c75 >= c50, key
        assert x95 <= x75 + 1e-12 and x75 <= x50 + 1e-12, key
        if c95 > c50 and x95 < x50:
            strict += 1
    assert strict >= 1  # the trade-off actually engages somewhere
    print(f"criterion 9 PASS: {len(by_bucket)} buckets ordered, {strict} strictly trading off")


def test_criterion_10_battery_step_numerics():
    batt = hx.BatteryParams(p_max=5.0, e_cap=5.0, eta_inv=0.95)
    dt = 2.0 / 3600.0
    _, down = hx.battery_step(batt, 0.5, 5.0, dt)
    _, up = hx.battery_step(batt, 0.5, -5.0, dt)
    assert down == pytest.approx(0.499415, abs=1e-6)
    assert up == pytest.approx(0.500528, abs=1e-6)
    print(f"criterion 10 PASS: discharge {down:.9f}, charge {up:.9f} (tol 1e-6)")
