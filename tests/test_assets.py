"""Asset model tests: battery SoC recursion and the single-diode PV plant."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from hesflex import assets

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

def _probe_cell_w(params: PvParams, irradiance: float, n: int = 20_001) -> float:
    """Independent maximum power point of one cell, in watts, by brute force.

    Evaluates the equivalent-circuit law at n voltages over [0, v_top],
    where v_top = min(log1p(i_sc / i_0) / c, i_sc * r_p) lies above v_oc,
    then at n more between the neighbours of the best one, and takes the
    best point. Serves as the optimality oracle for the plant's own search.
    """
    i_sc = params.i_sc_stc * irradiance / 1000.0
    if i_sc <= 0.0:
        return 0.0
    c = params.thermal_coeff
    v_top = min(math.log1p(i_sc / params.i_0) / c, i_sc * params.r_p)

    def power(v):
        i = i_sc - params.i_0 * np.expm1(c * v) - v / params.r_p
        return i * (v - i * params.r_s)

    v = np.linspace(0.0, v_top, n)
    p = power(v)
    k = int(np.argmax(p))
    fine = np.linspace(v[max(k - 1, 0)], v[min(k + 1, n - 1)], n)
    return float(max(np.max(p), np.max(power(fine))))


def _dense_sweep_mpp_mw(params: PvParams, irradiance: float) -> float:
    return max(params.eta_pv * params.n_cell * _probe_cell_w(params, irradiance) * 1e-6, 0.0)


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


@pytest.mark.parametrize("irradiance", [math.nan, math.inf, -1.0, 3000.0])
@pytest.mark.parametrize("series", [pv_power_series, pv_power_interp])
def test_pv_series_functions_refuse_irradiance_outside_the_range(series, irradiance):
    # pv_power_interp used to let NaN past its min/max test and fail in
    # the bracket search with an OverflowError
    params = PvParams.scaled_to_rating(3.0)
    for values in ([irradiance], [1.0, irradiance]):
        with pytest.raises(ValueError, match=r"\[0, 2000\] W/m2"):
            series(params, values)


def test_pv_power_series_matches_scalar_calls():
    # held values, the ends of the range and 300 distinct values
    inputs = ([0.0, 250.0, 250.0, 990.0, 1000.0, 250.0],
              np.random.default_rng(5).uniform(0.0, 2000.0, 300).tolist() + [0.0, 5e-324, 2000.0])
    for cell in ({}, {"i_sc_stc": 9.0, "i_0": 1e-7, "r_s": 0.02, "thermal_coeff": 20.0}):
        params = PvParams.scaled_to_rating(3.0, **cell)
        for g in inputs:
            p = pv_power_series(params, g)
            assert isinstance(p, np.ndarray) and p.dtype == float
            assert p.tobytes() == np.array([pv_power(params, x) for x in g]).tobytes()


@pytest.mark.parametrize("cell", [{"thermal_coeff": 1e5}, {"i_0": 1e-300}, {"thermal_coeff": 1e-300}])
def test_pv_cells_at_the_ends_of_their_range_give_their_power(cell):
    # the first two used to overflow the open-circuit bracket search; a
    # start at the diode bound alone is ~2e301 V on the third, where the
    # power overflows and the solve gave 0 W
    params = PvParams(**cell)
    assert pv_power(params, 1000.0) == pytest.approx(_dense_sweep_mpp_mw(params, 1000.0), rel=1e-9)
    assert pv_power(PvParams.scaled_to_rating(3.0, **cell), 1000.0) == 3.0


def _log_uniform(lo: float, hi: float):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda x: 10.0 ** x)


_CELLS = st.fixed_dictionaries({
    "i_sc_stc": _log_uniform(1e-3, 1e3),
    "i_0": _log_uniform(1e-300, 1e2),
    "r_p": _log_uniform(1e-3, 1e6),
    "r_s": st.one_of(st.just(0.0), _log_uniform(1e-6, 1.0)),
    "thermal_coeff": _log_uniform(1e-300, 1e5),
})


@settings(max_examples=300, deadline=None)
@given(cell=_CELLS, irradiance=st.lists(st.floats(0.0, 2000.0), min_size=1, max_size=6))
def test_pv_mpp_on_arbitrary_cells(cell, irradiance):
    """No probed voltage beats the solve by more than 4 ulps; the power is
    monotone in irradiance to 4 ulps, since irradiances a few ulps apart
    differ by less than the solve's rounding; and ``pv_power_series`` is
    ``pv_power`` of each value, bit for bit."""
    params = PvParams(**cell)
    for g in irradiance:
        got = assets._cell_mpp_power(params, g)
        assert _probe_cell_w(params, g) <= got + 4 * math.ulp(got)
    out = pv_power_series(params, sorted(irradiance))
    assert np.all(out[1:] >= out[:-1] - 4 * np.spacing(out[:-1]))
    want = np.array([pv_power(params, g) for g in irradiance])
    assert pv_power_series(params, irradiance).tobytes() == want.tobytes()


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
    # i_0 * exp(thermal_coeff * v) reaches ~i_sc near v_oc: past the
    # largest float it overflowed
    for cell in ({"i_0": 1e-310}, {"i_sc_stc": 1e300}):
        with pytest.raises(ValueError, match="diode term overflows"):
            PvParams(**cell)


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
