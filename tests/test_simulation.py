"""Closed-loop runs: envelope clipping, SoC budgets, guard wiring."""

from dataclasses import fields, replace

import numpy as np
import pytest

from hesflex import (
    AssetFleet,
    BatteryParams,
    GuardConfig,
    LoadParams,
    PvParams,
    Scenario,
    Trajectory,
    pv_power_interp,
    simulate,
    synth_irradiance,
    synth_signal,
    validate_records,
)

DT = 2.0 / 3600.0


def _tiny_battery_fleet():
    return AssetFleet(
        pv=PvParams.scaled_to_rating(3.0),
        battery=BatteryParams(p_max=5.0, e_cap=0.02),
        load=LoadParams(p_max=3.0),
        dt=DT,
    )


def test_length_mismatch_raises(fleet):
    with pytest.raises(ValueError):
        simulate(fleet, Scenario.S1, [0.0, 0.0], [2.0], 0.5)


def test_soc0_outside_window_raises(fleet):
    with pytest.raises(ValueError):
        simulate(fleet, Scenario.S1, [0.0], [2.0], 0.95)


def test_in_envelope_requests_are_delivered(fleet, rng):
    n = 300
    req = rng.uniform(-6.5, 6.5, n)
    recs = simulate(fleet, Scenario.S1, req, np.full(n, 2.0), 0.5)
    dev = recs.p_hes - recs.p0
    assert np.max(np.abs(dev - req)) < 1e-9
    validate_records(recs, fleet, scenario=Scenario.S1, soc0=0.5)


def test_out_of_envelope_requests_are_clipped(fleet):
    recs = simulate(fleet, Scenario.S1, [9.0, -9.0], [2.0, 2.0], 0.5)
    dev = recs.p_hes - recs.p0
    assert dev[0] == pytest.approx(6.5, abs=1e-12)
    assert dev[1] == pytest.approx(-6.5, abs=1e-12)
    # the trajectory keeps the raw request for scoring against the signal
    assert recs.dp_req[0] == 9.0


def test_soc_budget_truncates_instead_of_raising():
    """A 20 kWh battery at 5 MW runs dry almost immediately; the run
    must degrade power instead of tripping on the SoC bounds."""
    fl = _tiny_battery_fleet()
    n = 400
    recs = simulate(fl, Scenario.S1, np.full(n, 6.5), np.full(n, 2.0), 0.5)
    assert recs.soc.min() >= fl.battery.e_min - 1e-12
    assert recs.p_batt[-1] == pytest.approx(0.0, abs=1e-9)
    validate_records(recs, fl, scenario=Scenario.S1, soc0=0.5)


def test_soc_budget_truncation_keeps_balance_for_s4():
    # charge-side truncation with curtailment picking up the slack
    fl = _tiny_battery_fleet()
    n = 400
    recs = simulate(fl, Scenario.S4, np.full(n, -8.0), np.full(n, 3.0), 0.5)
    assert recs.soc.max() <= fl.battery.e_max + 1e-12
    validate_records(recs, fl, scenario=Scenario.S4, soc0=0.5)
    # once the battery is full the request becomes physically unreachable
    assert recs.p_batt[-1] == pytest.approx(0.0, abs=1e-9)
    assert recs.p_curtailed[-1] == pytest.approx(3.0, abs=1e-9)


@pytest.mark.parametrize("scen", list(Scenario))
def test_every_scenario_validates(fleet, rng, scen):
    n = 200
    env_pv = 2.0
    req = rng.uniform(-8.0, 8.0, n)
    recs = simulate(fleet, scen, req, np.full(n, env_pv), 0.5)
    validate_records(recs, fleet, scenario=scen, soc0=0.5)


def test_unity_efficiency_round_trip(fleet):
    """With a lossless inverter, a symmetric charge/discharge pattern
    returns the SoC to its start."""
    lossless = replace(fleet, battery=replace(fleet.battery, eta_inv=1.0))
    req = [3.0] * 50 + [-3.0] * 50
    recs = simulate(lossless, Scenario.S3, req, [0.0] * 100, 0.5)
    assert recs.soc[-1] == pytest.approx(0.5, abs=1e-12)


def test_guard_keeps_band_where_unguarded_exits(fleet, rng):
    cfg = GuardConfig(0.6, 0.4, 0.02)
    n = 3000
    # discharge-heavy request train drains the battery
    req = rng.uniform(-2.0, 6.0, n)
    pv = np.full(n, 2.0)
    g_socs = simulate(fleet, Scenario.S1, req, pv, 0.5, guard=cfg).soc
    u_socs = simulate(fleet, Scenario.S1, req, pv, 0.5).soc
    assert g_socs.min() >= cfg.e_lower and g_socs.max() <= cfg.e_upper
    assert u_socs.min() < cfg.e_lower


def test_run_guarded_rejects_start_outside_band(fleet):
    cfg = GuardConfig(0.6, 0.4, 0.02)
    with pytest.raises(ValueError):
        simulate(fleet, Scenario.S1, [0.0], [2.0], 0.3, guard=cfg)


def test_run_guarded_rejects_band_outside_window(fleet):
    cfg = GuardConfig(0.95, 0.4, 0.02)
    with pytest.raises(ValueError):
        simulate(fleet, Scenario.S1, [0.0], [2.0], 0.5, guard=cfg)


def test_guarded_records_validate(fleet, rng):
    cfg = GuardConfig(0.6, 0.4, 0.02)
    n = 500
    req = rng.uniform(-6.5, 6.5, n)
    recs = simulate(fleet, Scenario.S1, req, np.full(n, 2.0), 0.5, guard=cfg)
    validate_records(recs, fleet, scenario=Scenario.S1, soc0=0.5)


def test_non_finite_inputs_name_the_step(fleet):
    with pytest.raises(ValueError, match="step 1: dp_request"):
        simulate(fleet, Scenario.S1, [0.0, np.nan, 0.0], [2.0, 2.0, 2.0], 0.5)
    with pytest.raises(ValueError, match="step 2: pv"):
        simulate(fleet, Scenario.S1, [0.0, 0.0, 0.0], [2.0, 2.0, np.inf], 0.5)


def _batch_corpus(fleet, runs=6, n=400):
    """Requests at 1.15x the S1 reach under drifting signals, against
    morning PV ramps from synthetic irradiance (0 MW at night)."""
    reach = fleet.battery.p_max + 0.5 * fleet.load.p_max
    req = np.empty((runs, n))
    pv = np.empty((runs, n))
    for r in range(runs):
        req[r] = 1.15 * reach * synth_signal(r, n, bias=0.3 * (-1) ** r).values
        ghi = synth_irradiance(r, 1).values[300 + 20 * r:300 + 20 * r + n]
        pv[r] = pv_power_interp(fleet.pv, ghi)
    return req, pv


@pytest.mark.parametrize("e_cap", [5.0, 0.5])
def test_batch_rows_equal_single_runs(fleet, e_cap):
    """Every row of an (R, n) batch is bit for bit the trajectory its run
    gives on its own, over all scenarios, with and without the guard."""
    fleet = replace(fleet, battery=replace(fleet.battery, e_cap=e_cap))
    guard = GuardConfig(0.6, 0.4, 0.02)
    req, pv = _batch_corpus(fleet)
    edge = buffer = 0
    for scen in Scenario:
        for g in (None, guard):
            batch = simulate(fleet, scen, req, pv, 0.5, g)
            assert isinstance(batch, list) and len(batch) == len(req)
            for r, traj in enumerate(batch):
                single = simulate(fleet, scen, req[r], pv[r], 0.5, g)
                for f in fields(Trajectory):
                    a, b = getattr(traj, f.name), getattr(single, f.name)
                    assert np.array_equal(a, b) and a.tobytes() == b.tobytes(), (scen, g, r, f)
                soc = traj.soc
                edge += bool(np.any((soc <= fleet.battery.e_min + 1e-12)
                                    | (soc >= fleet.battery.e_max - 1e-12)))
                if g is not None:
                    buffer += bool(np.any((soc > g.e_upper - g.buffer)
                                          | (soc < g.e_lower + g.buffer)))
    assert buffer > 0
    if e_cap == 0.5:
        assert edge > 0
    # a batch of one is the single run too
    one = simulate(fleet, Scenario.S1, req[:1], pv[:1], 0.5, guard)[0]
    assert one.soc.tobytes() == simulate(fleet, Scenario.S1, req[0], pv[0], 0.5, guard).soc.tobytes()


def test_batch_validation_names_run_and_step(fleet):
    with pytest.raises(ValueError, match="equal-shape"):
        simulate(fleet, Scenario.S1, np.zeros((2, 3)), np.zeros((3, 2)), 0.5)
    with pytest.raises(ValueError, match="equal-shape"):
        simulate(fleet, Scenario.S1, np.zeros((2, 3)), np.zeros(3), 0.5)
    with pytest.raises(ValueError, match="equal-shape"):
        simulate(fleet, Scenario.S1, np.zeros((1, 2, 3)), np.zeros((1, 2, 3)), 0.5)
    req = np.zeros((3, 4))
    req[2, 1] = np.nan
    with pytest.raises(ValueError, match="run 2, step 1: dp_request = nan"):
        simulate(fleet, Scenario.S1, req, np.full((3, 4), 2.0), 0.5)
    pv = np.full((3, 4), 2.0)
    pv[1, 3] = -np.inf
    with pytest.raises(ValueError, match="run 1, step 3: pv = -inf"):
        simulate(fleet, Scenario.S1, np.zeros((3, 4)), pv, 0.5)
    # the green-load rule names where PV exceeds the load
    pv = np.full((3, 4), 2.0)
    pv[2, 2] = 3.5
    with pytest.raises(ValueError, match="run 2, step 2: green-load"):
        simulate(fleet, Scenario.S2, np.zeros((3, 4)), pv, 0.5)
    with pytest.raises(ValueError, match="step 1: green-load"):
        simulate(fleet, Scenario.S2, [0.0, 0.0], [2.0, 3.5], 0.5)
