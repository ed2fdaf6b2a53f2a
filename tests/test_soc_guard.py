"""SoC guard: taper arithmetic, band checks, and containment."""

import numpy as np
import pytest

from hesflex import (
    AssetFleet,
    BatteryParams,
    GuardConfig,
    LoadParams,
    PvParams,
    Scenario,
    containment_ratio,
    guard_power_cap,
    simulate,
)

BATT = BatteryParams(p_max=5.0, e_cap=5.0, eta_inv=0.95)
CFG = GuardConfig(e_upper=0.6, e_lower=0.4, buffer=0.02)
FLEET = AssetFleet(pv=PvParams.scaled_to_rating(3.0), battery=BATT,
                   load=LoadParams(p_max=3.0), dt=2.0 / 3600.0)


def test_taper_halves_the_charge_near_the_upper_edge():
    """Hand check: (0.6 - 0.59) / 0.02 = 0.5, so a 5 MW charge request
    is capped at 2.5 MW."""
    assert guard_power_cap(CFG, BATT, 0.59, -5.0) == pytest.approx(-2.5, abs=1e-12)


def test_taper_halves_the_discharge_near_the_lower_edge():
    assert guard_power_cap(CFG, BATT, 0.41, 5.0) == pytest.approx(2.5, abs=1e-12)


def test_no_taper_mid_band():
    for p in (-5.0, -0.3, 0.0, 0.3, 5.0):
        assert guard_power_cap(CFG, BATT, 0.5, p) == p


def test_taper_is_direction_gated():
    # near the upper edge only charging is limited
    assert guard_power_cap(CFG, BATT, 0.59, 5.0) == 5.0
    # near the lower edge only discharging is limited
    assert guard_power_cap(CFG, BATT, 0.41, -5.0) == -5.0


def test_cap_is_zero_outside_the_band():
    assert guard_power_cap(CFG, BATT, 0.61, -5.0) == 0.0
    assert guard_power_cap(CFG, BATT, 0.39, 5.0) == 0.0


def test_cap_never_amplifies_small_requests():
    # a request below the cap passes through untouched
    assert guard_power_cap(CFG, BATT, 0.59, -1.0) == -1.0
    assert guard_power_cap(CFG, BATT, 0.41, 0.7) == 0.7


def test_containment_ratio_small_at_two_seconds():
    # worst one-step SoC move is far below the buffer at a 2 s cadence
    ratio = containment_ratio(CFG, BATT, 2.0 / 3600.0)
    expect = ((2.0 / 3600.0) / 5.0) * (5.0 / 0.95) / 0.02
    assert ratio == pytest.approx(expect, rel=1e-12)
    assert ratio < 1.0


def test_containment_ratio_flags_coarse_steps():
    assert containment_ratio(CFG, BATT, 0.25) > 1.0


def test_band_containment_under_random_abuse(rng):
    """Adversarial full-rating requests cannot push the SoC out of the
    band when the per-step move fits inside the buffer."""
    # S3 with no PV hands the whole request to the battery
    p_req = rng.choice([-5.0, 5.0], 5000)
    soc = simulate(FLEET, Scenario.S3, p_req, np.zeros(5000), 0.5, guard=CFG).soc
    assert CFG.e_lower <= soc.min() and soc.max() <= CFG.e_upper


def test_guard_config_validation():
    with pytest.raises(ValueError):
        GuardConfig(e_upper=0.4, e_lower=0.6, buffer=0.02)
    with pytest.raises(ValueError):
        GuardConfig(e_upper=0.6, e_lower=0.4, buffer=0.0)
    with pytest.raises(ValueError):
        GuardConfig(e_upper=0.6, e_lower=0.4, buffer=0.2)


def test_check_band_requires_band_inside_window():
    # simulate checks the band whenever it is given a guard
    zeros = np.zeros(4)
    for band in (GuardConfig(e_upper=0.95, e_lower=0.4, buffer=0.02),
                 GuardConfig(e_upper=0.6, e_lower=0.05, buffer=0.02)):
        with pytest.raises(ValueError, match="exceeds the battery window"):
            simulate(FLEET, Scenario.S3, zeros, zeros, 0.5, guard=band)
    simulate(FLEET, Scenario.S3, zeros, zeros, 0.5, guard=CFG)  # the reference band is fine
