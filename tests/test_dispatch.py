"""Allocation rules: power balance, ratings, and envelope edge behavior."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hesflex import (
    AssetFleet,
    BatteryParams,
    InfeasibleDispatchError,
    LoadParams,
    PvParams,
    Scenario,
    Trajectory,
    allocate,
    envelope,
    simulate,
    validate_records,
)

ALL = list(Scenario)


def _pv_ceiling(scen, fleet):
    # the sustainable-load scenario assumes the load can absorb the PV
    if scen is Scenario.S2:
        return min(fleet.pv.p_pv_rated, fleet.load.p_max)
    return fleet.pv.p_pv_rated


def test_priority_load_hand_example(fleet):
    # S1 at p_pv = 2 parks p0 = 0.5; dp = 1: load takes the half MW of slack PV
    p_cl, p_batt, p_curt = allocate(Scenario.S1, fleet, 2.0, 1.0)
    assert p_cl == pytest.approx(0.5, abs=0.0)
    assert p_batt == pytest.approx(0.0, abs=0.0)
    assert p_curt == 0.0


def test_priority_load_upper_edge(fleet):
    # at dp = +6.5 the load drops out and the battery rails
    p_cl, p_batt, p_curt = allocate(Scenario.S1, fleet, 2.0, 6.5)
    assert p_cl == 0.0
    assert p_batt == 5.0
    assert 2.0 - p_cl + p_batt == pytest.approx(7.0, abs=1e-12)


def test_green_load_consumes_pv_only(fleet):
    # green-load setpoints never exceed the PV actually available
    for dp in np.linspace(-6.0, 6.0, 241):
        p_cl, p_batt, _ = allocate(Scenario.S2, fleet, 2.0, float(dp))
        assert -1e-12 <= p_cl <= 2.0 + 1e-12
        assert abs(p_batt) <= 5.0 + 1e-12


def test_green_load_hand_values(fleet):
    # D = 2*5 + 2 = 12
    p_cl, p_batt, _ = allocate(Scenario.S2, fleet, 2.0, 0.0)
    assert p_cl == pytest.approx(1.0, abs=1e-15)
    assert p_batt == 0.0
    p_cl, p_batt, _ = allocate(Scenario.S2, fleet, 2.0, 6.0)
    assert p_cl == pytest.approx(0.0, abs=1e-15)
    assert p_batt == pytest.approx(5.0, abs=1e-15)


def test_green_load_degenerate_fleet():
    fl = AssetFleet(
        pv=PvParams.scaled_to_rating(1.0),
        battery=BatteryParams(p_max=1.0, e_cap=1.0),
        load=LoadParams(p_max=1.0),
        dt=2.0 / 3600.0,
    )
    assert allocate(Scenario.S2, fl, 0.0, 0.0) == (0.0, 0.0, 0.0)
    # with no PV the load idles and the battery covers the whole request
    p_cl, p_batt, _ = allocate(Scenario.S2, fl, 0.0, 0.5)
    assert p_cl == 0.0
    assert p_batt == pytest.approx(0.5, abs=1e-15)


_RATING = st.floats(1e-6, 1e5)


@settings(max_examples=300, deadline=None)
@given(
    scen=st.sampled_from(ALL),
    p_max=_RATING,
    load_max=_RATING,
    pv_share=st.floats(0.0, 2.0),
    where=st.floats(0.0, 1.0),
)
def test_allocate_delivers_every_in_envelope_request(scen, p_max, load_max, pv_share, where):
    """For ratings from 1e-6 to 1e5 MW, PV anywhere in [0, 2 CL] and any dp
    inside the envelope, the allocation lands on p0 + dp with every asset
    inside its box; S2 with more PV than the load can absorb is refused."""
    fleet = AssetFleet(
        pv=PvParams.scaled_to_rating(3.0),
        battery=BatteryParams(p_max=p_max, e_cap=1.0),
        load=LoadParams(p_max=load_max),
        dt=2.0 / 3600.0,
    )
    p_pv = pv_share * load_max
    env = envelope(scen, fleet, p_pv)
    dp = min(max(env.dp_lo + where * env.width, env.dp_lo), env.dp_hi)
    if scen is Scenario.S2 and p_pv > load_max + 1e-9:
        with pytest.raises(ValueError, match="green-load"):
            allocate(scen, fleet, p_pv, dp)
        return
    p_cl, p_batt, p_curt = allocate(scen, fleet, p_pv, dp)
    assert abs((p_pv - p_curt) - p_cl + p_batt - (env.p0 + dp)) <= 1e-9
    assert 0.0 <= p_cl <= load_max
    assert abs(p_batt) <= p_max
    assert 0.0 <= p_curt <= p_pv
    if scen in (Scenario.S1, Scenario.S2, Scenario.S3):
        assert p_curt == 0.0


@settings(max_examples=500, deadline=None)
@given(
    scen=st.sampled_from(ALL),
    p_max=_RATING,
    load_max=_RATING,
    pv=st.one_of(st.just(0.0), _RATING),
)
def test_envelope_edges_are_delivered_and_nothing_beyond(scen, p_max, load_max, pv):
    """The envelope is the largest interval allocate serves: on any finite
    fleet both edges are delivered, balanced to 1e-9 with every asset
    inside its box, and a request 1e-9 (relative) beyond either edge is
    refused. S2 and S3 take PV up to the load rating."""
    fleet = AssetFleet(
        pv=PvParams.scaled_to_rating(3.0),
        battery=BatteryParams(p_max=p_max, e_cap=1.0),
        load=LoadParams(p_max=load_max),
        dt=2.0 / 3600.0,
    )
    p_pv = min(pv, load_max) if scen in (Scenario.S2, Scenario.S3) else pv
    env = envelope(scen, fleet, p_pv)
    for dp in (env.dp_lo, env.dp_hi):
        p_cl, p_batt, p_curt = allocate(scen, fleet, p_pv, dp)
        assert abs((p_pv - p_curt) - p_cl + p_batt - (env.p0 + dp)) <= 1e-9
        assert 0.0 <= p_cl <= load_max
        assert abs(p_batt) <= p_max
        assert 0.0 <= p_curt <= p_pv
        if scen in (Scenario.S1, Scenario.S2, Scenario.S3):
            assert p_curt == 0.0
        with pytest.raises(InfeasibleDispatchError):
            allocate(scen, fleet, p_pv, dp * (1.0 + 1e-9))


@pytest.mark.parametrize("scen", ALL)
def test_balance_and_boxes_inside_envelope(fleet, scen):
    """Every in-envelope request is delivered exactly with feasible setpoints."""
    for p_pv in (0.0, 0.8, 2.0, _pv_ceiling(scen, fleet)):
        env = envelope(scen, fleet, p_pv)
        for dp in np.linspace(env.dp_lo, env.dp_hi, 97):
            dp = float(dp)
            p_cl, p_batt, p_curt = allocate(scen, fleet, p_pv, dp)
            net = (p_pv - p_curt) - p_cl + p_batt
            assert net - (env.p0 + dp) == pytest.approx(0.0, abs=1e-9)
            assert -1e-12 <= p_cl <= fleet.load.p_max + 1e-12
            assert abs(p_batt) <= fleet.battery.p_max + 1e-12
            assert -1e-12 <= p_curt <= p_pv + 1e-12
            if scen in (Scenario.S1, Scenario.S2, Scenario.S3):
                assert p_curt == 0.0


@pytest.mark.parametrize("scen", ALL)
def test_outside_envelope_is_rejected(fleet, scen):
    p_pv = 2.0
    env = envelope(scen, fleet, p_pv)
    for bad in (env.dp_hi + 1e-6, env.dp_hi + 0.1, env.dp_lo - 1e-6, env.dp_lo - 0.1):
        with pytest.raises(InfeasibleDispatchError):
            allocate(scen, fleet, p_pv, bad)


def test_infeasible_error_reports_the_request(fleet):
    with pytest.raises(InfeasibleDispatchError) as exc:
        allocate(Scenario.S1, fleet, 2.0, 7.0)
    msg = str(exc.value)
    assert "S1" in msg and "7" in msg


def test_s2_rejects_pv_beyond_the_load(fleet):
    with pytest.raises(ValueError):
        allocate(Scenario.S2, fleet, 3.5, 0.0)


def test_s3_pins_load_to_pv(fleet):
    p_cl, p_batt, p_curt = allocate(Scenario.S3, fleet, 2.0, 0.0)
    assert (p_cl, p_batt, p_curt) == (2.0, 0.0, 0.0)


def test_s3_above_the_load_rating(fleet):
    # 3.5 MW of PV against a 3 MW load: the 0.5 MW surplus is the nominal
    # power, and the battery alone moves around it
    env = envelope(Scenario.S3, fleet, 3.5)
    assert (env.p0, env.dp_lo, env.dp_hi) == (0.5, -5.0, 5.0)
    p_cl, p_batt, p_curt = allocate(Scenario.S3, fleet, 3.5, -5.0)
    assert (p_cl, p_batt, p_curt) == (3.0, -5.0, 0.0)
    assert (3.5 - p_curt) - p_cl + p_batt == env.p0 - 5.0


def test_s5_lower_corner(fleet):
    # full import: load railed, battery charging at rating, all PV curtailed
    p_cl, p_batt, p_curt = allocate(Scenario.S5, fleet, 3.0, -8.0)
    assert (p_cl, p_batt, p_curt) == (3.0, -5.0, 3.0)
    net = (3.0 - p_curt) - p_cl + p_batt
    assert net == -8.0


def test_s5_bounds_match_brute_force_reachability(fleet):
    """Enumerate feasible setpoints on a dense grid and confirm the S5
    envelope touches the extreme net powers and goes no further."""
    p_pv = 3.0
    cl = np.linspace(0.0, fleet.load.p_max, 61)
    pb = np.linspace(-fleet.battery.p_max, fleet.battery.p_max, 201)
    pcur = np.linspace(0.0, p_pv, 61)
    net = ((p_pv - pcur)[None, None, :]
           - cl[:, None, None]
           + pb[None, :, None])
    env = envelope(Scenario.S5, fleet, p_pv)
    assert net.max() == pytest.approx(env.p0 + env.dp_hi, abs=1e-12)
    assert net.min() == pytest.approx(env.p0 + env.dp_lo, abs=1e-12)


@pytest.mark.parametrize("k, column", [(1, np.zeros(2)), (7, np.zeros((3, 1)))])
def test_trajectory_columns_hold_one_value_per_step(k, column):
    columns = list(np.zeros((8, 3)))
    columns[k] = column
    name = ("p_hes", "p0", "dp_req", "p_pv", "p_cl", "p_batt", "p_curtailed", "soc")[k]
    with pytest.raises(ValueError, match=f"column {name} must be 1-D with one value per step"):
        Trajectory(*columns)


def test_validate_records_accepts_clean_run(fleet):
    recs = simulate(fleet, Scenario.S4, [3.0, -3.0, 0.5], [2.0, 2.0, 2.0], 0.5)
    validate_records(recs, fleet, scenario=Scenario.S4, soc0=0.5)


def test_validate_records_catches_corruption(fleet):
    recs = simulate(fleet, Scenario.S1, [1.0, -1.0], [2.0, 2.0], 0.5)
    bad = replace(recs, p_hes=recs.p_hes + [0.0, 0.01])
    with pytest.raises(ValueError, match="step 1"):
        validate_records(bad, fleet, scenario=Scenario.S1, soc0=0.5)


def test_validate_records_audits_each_run_of_a_batch(fleet):
    batch = simulate(fleet, Scenario.S4, [[3.0, -3.0, 0.5], [0.5, 0.0, -8.0]],
                     np.full((2, 3), 2.0), 0.5)
    validate_records(batch, fleet, scenario=Scenario.S4, soc0=0.5)
    soc = batch.soc.copy()
    soc[1, 2] += 1e-6
    with pytest.raises(ValueError, match="run 1, step 2: SoC recursion off"):
        validate_records(replace(batch, soc=soc), fleet, scenario=Scenario.S4, soc0=0.5)


def test_validate_records_catches_curtailment_where_forbidden(fleet):
    recs = simulate(fleet, Scenario.S1, [0.0], [2.0], 0.5)
    # force a balanced but illegally-curtailing row
    bad = replace(recs, p_hes=recs.p_hes - 0.5, p_curtailed=[0.5])
    with pytest.raises(ValueError):
        validate_records(bad, fleet, scenario=Scenario.S1, soc0=0.5)
