"""Closed-loop runs: envelope clipping, SoC budgets, guard wiring."""

from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from hesflex import (
    AssetFleet,
    BatteryParams,
    GuardConfig,
    LoadParams,
    PvParams,
    Scenario,
    Trajectory,
    allocate,
    battery_step,
    containment_ratio,
    envelope,
    guard_power_cap,
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


@pytest.mark.parametrize("req", [5.0, -5.0, 0.0])
@pytest.mark.parametrize("edge", ["e_min", "e_max"])
def test_soc0_may_lie_outside_the_window_by_dust(fleet, edge, req):
    """simulate grants soc0 1e-12 of slack at the window; the battery step
    takes such a start too, and every SoC stays in the window."""
    batt = fleet.battery
    soc0 = batt.e_min - 5e-13 if edge == "e_min" else batt.e_max + 5e-13
    recs = simulate(fleet, Scenario.S3, np.full(3, req), np.zeros(3), soc0)
    assert np.all((batt.e_min <= recs.soc) & (recs.soc <= batt.e_max))


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


def _reference_battery(fleet, guard, p_batt, soc0):
    """The scalar step applied to every step of one run: guard taper, then
    battery_step's window truncation and update."""
    batt = fleet.battery
    soc = soc0
    delivered, socs = [], []
    for p in p_batt.tolist():
        if guard is not None:
            p = guard_power_cap(guard, batt, soc, p)
        p, soc = battery_step(batt, soc, p, fleet.dt)
        delivered.append(p)
        socs.append(soc)
    return np.array(delivered), np.array(socs)


def _assert_scan_matches_reference(fleet, scenario, req, pv, soc0, guard):
    """simulate's p_batt and soc columns, for a 1-D run and for an (R, n)
    batch, are byte-equal to the reference loop over the rule's battery
    power."""
    env = envelope(scenario, fleet, pv)
    _, rule_p_batt, _ = allocate(scenario, fleet, pv, np.clip(req, env.dp_lo, env.dp_hi))
    rule_p_batt = np.atleast_2d(rule_p_batt)
    try:
        expect = [_reference_battery(fleet, guard, row, soc0) for row in rule_p_batt]
    except ValueError as exc:
        with pytest.raises(type(exc)):
            simulate(fleet, scenario, req, pv, soc0, guard)
        return
    got = simulate(fleet, scenario, req, pv, soc0, guard)
    for traj, (p_batt, soc) in zip(got if isinstance(got, list) else [got], expect):
        assert traj.p_batt.tobytes() == p_batt.tobytes()
        assert traj.soc.tobytes() == soc.tobytes()


def _accepted_fleet(battery, load, dt):
    """The fleet, or a rejected draw where ``AssetFleet`` refuses the SoC
    move per MW of a step (tested in test_assets)."""
    try:
        return AssetFleet(PvParams(), battery, load, dt)
    except ValueError:
        reject()


@st.composite
def _scan_cases(draw):
    eta = draw(st.floats(0.0, 1.0, exclude_min=True))
    p_max = draw(st.floats(1e-3, 1e3))
    dt = draw(st.floats(1e-4, 1.0))
    # The SoC move of a full-power step sets e_cap; it spans steps far
    # inside the buffer to steps wider than the whole window.
    move = 10.0 ** draw(st.floats(-5.0, 0.5))
    e_cap = p_max * dt / move
    fleet = _accepted_fleet(BatteryParams(p_max=p_max, e_cap=e_cap, eta_inv=eta),
                            LoadParams(draw(st.floats(0.0, 10.0))), dt)
    guard = None
    lo, hi = fleet.battery.e_min, fleet.battery.e_max
    if draw(st.booleans()):
        try:
            buffer = draw(st.floats(0.0, 0.4, exclude_min=True))
            width = draw(st.floats(2.0 * buffer, hi - lo))
            e_lower = draw(st.floats(lo, max(lo, hi - width)))
            guard = GuardConfig(min(e_lower + width, hi), e_lower, buffer)
        except ValueError:
            guard = None
        if guard is not None and containment_ratio(guard, fleet.battery, dt) <= 1.0:
            lo, hi = guard.e_lower, guard.e_upper
        else:
            guard = None
    soc0 = draw(st.floats(lo, hi))
    scale = p_max + fleet.load.p_max
    level = st.one_of(st.sampled_from([0.0, -0.0, scale, -scale]),
                      st.floats(-1.5, 1.5).map(lambda x: x * scale))
    runs = draw(st.lists(st.tuples(level, st.integers(1, 60)), min_size=1, max_size=12))
    req = np.array([x for x, count in runs for _ in range(count)])
    pv = np.full(req.size, draw(st.floats(0.0, fleet.load.p_max)))
    return fleet, draw(st.sampled_from(list(Scenario))), req, pv, soc0, guard


@settings(max_examples=150, deadline=None)
@given(case=_scan_cases())
def test_scan_is_the_scalar_step_on_arbitrary_fleets(case):
    fleet, scenario, req, pv, soc0, guard = case
    _assert_scan_matches_reference(fleet, scenario, req, pv, soc0, guard)
    batch = np.stack([req, -req, req[::-1]])
    _assert_scan_matches_reference(fleet, scenario, batch, np.broadcast_to(pv, batch.shape),
                                   soc0, guard)


@pytest.mark.parametrize("side", ["empty", "full"])
def test_scan_truncates_where_the_scalar_step_does(fleet, side):
    """Requests at and one ulp past the window truncation limit, from SoCs
    within a step of the edge: the scan keeps the first and truncates the
    second exactly as the scalar step does."""
    batt = fleet.battery
    alpha = fleet.dt / batt.e_cap
    eta = batt.eta_inv
    pv = np.zeros(1)  # in S3 without PV the battery takes the request as it is
    for x in np.linspace(0.0, 4e-4, 101)[1:].tolist():
        if side == "empty":
            soc0 = batt.e_min + x
            lim = (soc0 - batt.e_min) / alpha * eta
            requests = (lim, np.nextafter(lim, np.inf))
        else:
            soc0 = batt.e_max - x
            lim = -(batt.e_max - soc0) / (alpha * eta)
            requests = (lim, np.nextafter(lim, -np.inf))
        for q in requests:
            _assert_scan_matches_reference(fleet, Scenario.S3, np.array([q]), pv, soc0, None)


def test_scan_keeps_signed_zeros(fleet):
    """From an SoC of -0.0, a charge so small that eta * p underflows to
    -0.0 leaves the SoC at -0.0, as battery_step's update does."""
    fleet = replace(fleet, battery=replace(fleet.battery, eta_inv=0.4, e_min=0.0))
    req = np.array([-5e-324, -0.0, 0.0, -5e-324])
    _assert_scan_matches_reference(fleet, Scenario.S3, req, np.zeros(4), -0.0, None)
    assert np.signbit(simulate(fleet, Scenario.S3, req, np.zeros(4), -0.0).soc[0])


@pytest.mark.parametrize("guard", [None, GuardConfig(0.6, 0.4, 0.02)])
def test_alternating_request_matches_reference(fleet, guard):
    """A +-4 MW battery request flipping every 4 steps pins the SoC to the
    window (or the guard buffer) and re-crosses the scan's margin every
    few steps, for 43,200 steps."""
    fleet = replace(fleet, battery=replace(fleet.battery, e_cap=0.5))
    req = np.where(np.arange(43_200) // 4 % 2 == 0, 4.0, -4.0)
    pv = np.zeros(req.size)  # in S3 without PV the battery takes the request as it is
    _assert_scan_matches_reference(fleet, Scenario.S3, req, pv, 0.575, guard)
    soc = simulate(fleet, Scenario.S3, req, pv, 0.575, guard).soc
    if guard is None:
        assert soc.min() == fleet.battery.e_min
    else:
        assert soc.min() < guard.e_lower + guard.buffer


@st.composite
def _plants(draw):
    """A fleet, mode, request and PV series, start SoC and optional guard:
    battery and load ratings up to 1e5 MW and MWh, any efficiency, SoC
    window and step up to a day, PV up to 2 GW; S2 gets PV within the load rating,
    as its rule requires."""
    e_min = draw(st.floats(0.0, 0.9))
    e_max = draw(st.floats(e_min, 1.0, exclude_min=True))
    battery = BatteryParams(p_max=draw(st.floats(1e-6, 1e5)), e_cap=draw(st.floats(1e-6, 1e5)),
                            eta_inv=draw(st.floats(0.0, 1.0, exclude_min=True)),
                            e_min=e_min, e_max=e_max)
    fleet = _accepted_fleet(battery, LoadParams(draw(st.floats(0.0, 1e5))),
                            draw(st.integers(1, 86_400)) / 3600.0)
    scenario = draw(st.sampled_from(list(Scenario)))
    steps = draw(st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(0.0, 2e3)), min_size=1,
                          max_size=80))
    r, pv = (np.array(col) for col in zip(*steps))
    if scenario is Scenario.S2:
        pv = np.minimum(pv, fleet.load.p_max)
    guard, lo, hi = None, e_min, e_max
    if 0.5 * (e_max - e_min) > 0.0 and draw(st.booleans()):
        buffer = draw(st.floats(0.0, 0.5 * (e_max - e_min), exclude_min=True))
        e_lower = draw(st.floats(e_min, max(e_min, e_max - 2.0 * buffer)))
        e_upper = draw(st.floats(min(e_lower + 2.0 * buffer, e_max), e_max))
        try:
            guard = GuardConfig(e_upper, e_lower, buffer)
            lo, hi = e_lower, e_upper
        except ValueError:  # float dust at the width limit
            pass
    soc0 = draw(st.floats(lo, hi))
    request = draw(st.floats(1e-3, 1e6)) * r
    return fleet, scenario, request, pv, soc0, guard


@settings(max_examples=300, deadline=None)
@given(case=_plants())
def test_simulation_audits_clean_on_arbitrary_plants(case):
    """Every run balances its power, keeps each asset in its box and the
    SoC in the window, and follows the SoC recursion, as the audit checks;
    with an admissible guard the SoC also stays in the guard band."""
    fleet, scenario, request, pv, soc0, guard = case
    traj = simulate(fleet, scenario, request, pv, soc0, guard)
    validate_records(traj, fleet, scenario=scenario, soc0=soc0)
    if guard is not None and containment_ratio(guard, fleet.battery, fleet.dt) <= 1.0:
        assert np.all(guard.e_lower - 1e-12 <= traj.soc)
        assert np.all(traj.soc <= guard.e_upper + 1e-12)
