"""Asset model tests: battery SoC recursion and the single-diode PV plant."""

import math

import numpy as np
import pytest

from hesflex import (
    AssetFleet,
    BatteryParams,
    LoadParams,
    PvParams,
    RunConfig,
    SocBoundsError,
    battery_step,
    build_fleet,
    pv_power,
    pv_power_interp,
    pv_power_series,
)

DT = 2.0 / 3600.0


# ---------------------------------------------------------------------------
# battery
# ---------------------------------------------------------------------------

def test_full_discharge_step_from_midpoint():
    """Hand check: 0.5 - (2/3600/5) * 5/0.95 = 0.4994152046783626."""
    batt = BatteryParams(p_max=5.0, e_cap=5.0, eta_inv=0.95)
    nxt = battery_step(batt, 0.5, 0.0, 5.0, DT)
    assert nxt == pytest.approx(0.4994152046783626, abs=1e-12)


def test_full_charge_step_from_midpoint():
    """Hand check: 0.5 + (2/3600/5) * 0.95*5 = 0.5005277777777778."""
    batt = BatteryParams(p_max=5.0, e_cap=5.0, eta_inv=0.95)
    nxt = battery_step(batt, 0.5, -5.0, 0.0, DT)
    assert nxt == pytest.approx(0.5005277777777778, abs=1e-12)


def test_round_trip_loses_energy():
    # charge then discharge the same power for the same time: the
    # inverter eats eta^2 of it, so the SoC ends below where it started
    batt = BatteryParams(p_max=5.0, e_cap=5.0)
    s = battery_step(batt, 0.5, -4.0, 0.0, DT)
    s = battery_step(batt, s, 0.0, 4.0, DT)
    assert s < 0.5
    expected = 0.5 + (DT / 5.0) * 4.0 * (0.95 - 1.0 / 0.95)
    assert s == pytest.approx(expected, abs=1e-15)


@pytest.mark.parametrize(
    "p_charge, p_discharge",
    [(0.5, 0.0), (0.0, -0.5), (-6.0, 0.0), (0.0, 6.0), (-1.0, 1.0)],
)
def test_battery_step_rejects_bad_powers(p_charge, p_discharge):
    batt = BatteryParams(p_max=5.0, e_cap=5.0)
    with pytest.raises(ValueError):
        battery_step(batt, 0.5, p_charge, p_discharge, DT)


def test_battery_step_rejects_nonpositive_dt():
    batt = BatteryParams(p_max=5.0, e_cap=5.0)
    with pytest.raises(ValueError):
        battery_step(batt, 0.5, 0.0, 1.0, 0.0)


def test_soc_bounds_error_carries_clipped_state():
    batt = BatteryParams(p_max=5.0, e_cap=5.0)
    with pytest.raises(SocBoundsError) as exc:
        battery_step(batt, 0.899, -5.0, 0.0, 0.5)
    err = exc.value
    assert err.soc_raw > batt.e_max
    assert err.soc_clipped == batt.e_max


def test_landing_on_the_bound_is_not_an_error():
    batt = BatteryParams(p_max=5.0, e_cap=5.0)
    # discharge exactly to e_min; float dust around the bound is snapped
    p = (0.5 - batt.e_min) * batt.e_cap / 0.5 * batt.eta_inv
    nxt = battery_step(batt, 0.5, 0.0, p, 0.5)
    assert nxt == pytest.approx(batt.e_min, abs=1e-12)
    assert nxt >= batt.e_min


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(p_max=0.0, e_cap=5.0),
        dict(p_max=5.0, e_cap=0.0),
        dict(p_max=5.0, e_cap=5.0, eta_inv=0.0),
        dict(p_max=5.0, e_cap=5.0, eta_inv=1.2),
        dict(p_max=5.0, e_cap=5.0, e_min=0.7, e_max=0.3),
    ],
)
def test_battery_params_validation(kwargs):
    with pytest.raises(ValueError):
        BatteryParams(**kwargs)


def test_default_fleet_parameters():
    fleet = build_fleet(RunConfig())
    assert fleet.battery.p_max == 5.0
    assert fleet.battery.e_cap == 5.0
    assert fleet.battery.eta_inv == 0.95
    assert (fleet.battery.e_min, fleet.battery.e_max) == (0.1, 0.9)
    assert fleet.load.p_max == 3.0
    assert fleet.pv.p_pv_rated == 3.0
    assert fleet.dt == pytest.approx(DT, abs=0.0)


# ---------------------------------------------------------------------------
# PV plant
# ---------------------------------------------------------------------------

def _dense_sweep_mpp_mw(params: PvParams, irradiance: float) -> float:
    """Independent maximum power point by brute force.

    Re-evaluates the equivalent-circuit law on a dense voltage grid and
    takes the best point. Serves as the optimality oracle for the
    plant's internal one-dimensional search.
    """
    i_sc = params.i_sc_stc * irradiance / 1000.0
    v = np.linspace(0.0, 0.7, 2_000_001)
    i = i_sc - params.i_0 * np.expm1(params.thermal_coeff * v) - v / params.r_p
    p = i * (v - i * params.r_s)
    best_w = float(np.max(p))
    return max(params.eta_pv * params.n_cell * best_w * 1e-6, 0.0)


@pytest.mark.parametrize("irradiance", [150.0, 400.0, 600.0, 850.0])
def test_pv_power_matches_dense_sweep(irradiance):
    params = PvParams.scaled_to_rating(3.0)
    want = _dense_sweep_mpp_mw(params, irradiance)
    assert pv_power(params, irradiance) == pytest.approx(want, abs=1e-9)


def test_pv_power_frozen_point():
    # regression pin, value confirmed by the dense sweep above
    params = PvParams.scaled_to_rating(3.0)
    assert pv_power(params, 600.0) == pytest.approx(1.7541752453027257, abs=1e-9)


def test_scaled_to_rating_hits_rating_exactly():
    for rated in (0.5, 3.0, 6.0):
        params = PvParams.scaled_to_rating(rated)
        assert pv_power(params, 1000.0) == rated


def test_pv_power_monotone_in_irradiance():
    params = PvParams.scaled_to_rating(3.0)
    grid = np.arange(0.0, 1200.0, 37.0)
    out = [pv_power(params, g) for g in grid]
    assert all(b >= a - 1e-12 for a, b in zip(out, out[1:]))


def test_pv_power_edge_cases():
    params = PvParams.scaled_to_rating(3.0)
    assert pv_power(params, 0.0) == 0.0
    assert pv_power(params, 1200.0) == 3.0  # clamped at the rating
    with pytest.raises(ValueError):
        pv_power(params, -1.0)


@pytest.mark.parametrize("irradiance", [2000.5, 1e16, 1e308, math.nan])
def test_pv_model_refuses_irradiance_above_its_range(irradiance):
    # from ~1e16 W/m2 the output used to fall to 0 MW, and from ~1e155 the
    # diode term overflowed
    params = PvParams.scaled_to_rating(3.0)
    assert pv_power(params, 2000.0) == 3.0
    with pytest.raises(ValueError, match=r"\[0, 2000\] W/m2"):
        pv_power(params, irradiance)
    if not math.isnan(irradiance):
        with pytest.raises(ValueError, match=r"\[0, 2000\] W/m2"):
            pv_power_interp(params, [500.0, irradiance])


def test_pv_power_series_matches_scalar_calls():
    params = PvParams.scaled_to_rating(3.0)
    g = [0.0, 250.0, 250.0, 990.0, 1000.0, 250.0]
    p = pv_power_series(params, g)
    assert isinstance(p, np.ndarray) and p.dtype == float
    np.testing.assert_array_equal(p, [pv_power(params, x) for x in g])


def test_pv_power_interp_close_to_exact(rng):
    params = PvParams.scaled_to_rating(3.0)
    g = rng.uniform(0.0, 1100.0, 400)
    exact = pv_power_series(params, g)
    approx = pv_power_interp(params, g)
    assert np.max(np.abs(exact - approx)) < 5e-5
    with pytest.raises(ValueError):
        pv_power_interp(params, [-3.0])


def test_pv_params_validation():
    with pytest.raises(ValueError):
        PvParams(i_0=0.0)
    with pytest.raises(ValueError):
        PvParams(eta_pv=0.0)
    with pytest.raises(ValueError):
        PvParams(n_cell=0.5)
    with pytest.raises(ValueError):
        PvParams(p_pv_rated=-1.0)


# ---------------------------------------------------------------------------
# load and fleet
# ---------------------------------------------------------------------------

def test_fleet_requires_positive_dt():
    with pytest.raises(ValueError):
        AssetFleet(
            pv=PvParams.scaled_to_rating(3.0),
            battery=BatteryParams(p_max=5.0, e_cap=5.0),
            load=LoadParams(p_max=3.0),
            dt=0.0,
        )
