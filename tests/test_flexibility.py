"""Per-step flexibility envelopes for the five operating scenarios."""

import numpy as np
import pytest

from hesflex import (
    AssetFleet,
    BatteryParams,
    FlexEnvelope,
    LoadParams,
    PvParams,
    Scenario,
    envelope,
)


def _random_fleet(rng):
    return AssetFleet(
        pv=PvParams.scaled_to_rating(float(rng.uniform(0.5, 6.0))),
        battery=BatteryParams(p_max=float(rng.uniform(1.0, 8.0)),
                              e_cap=float(rng.uniform(1.0, 10.0))),
        load=LoadParams(p_max=float(rng.uniform(0.5, 5.0))),
        dt=2.0 / 3600.0,
    )


def test_s1_constants_are_exact(fleet):
    env = envelope(Scenario.S1, fleet, 2.0)
    assert env.dp_hi == 6.5
    assert env.dp_lo == -6.5
    assert env.p0 == 0.5
    assert env.width == 13.0


def test_s1_is_pv_independent_in_width(fleet):
    for p_pv in (0.0, 1.0, 2.7, 3.0):
        env = envelope(Scenario.S1, fleet, p_pv)
        assert env.dp_hi == 6.5
        assert env.p0 == p_pv - 1.5


def test_s2_half_min_rule(fleet):
    env = envelope(Scenario.S2, fleet, 2.0)
    assert env.p0 == 1.0
    assert env.dp_hi == 6.0
    # min(p_pv, load) engages above the load rating
    env = envelope(Scenario.S2, fleet, 4.0)
    assert env.p0 == 1.5
    assert env.dp_hi == 6.5


def test_s2_collapses_to_s3_without_pv(fleet):
    a = envelope(Scenario.S2, fleet, 0.0)
    b = envelope(Scenario.S3, fleet, 0.0)
    assert (a.p0, a.dp_lo, a.dp_hi) == (b.p0, b.dp_lo, b.dp_hi)


def test_s3_is_battery_only(fleet):
    for p_pv in (0.0, 2.0, 3.0):
        env = envelope(Scenario.S3, fleet, p_pv)
        assert env.p0 == 0.0
        assert env.dp_hi == 5.0
        assert env.dp_lo == -5.0


def test_s4_curtailment_widens(fleet):
    env = envelope(Scenario.S4, fleet, 2.0)
    assert env.p0 == -0.5
    assert env.dp_hi == 7.5
    assert env.dp_lo == -7.5


def test_s5_asymmetric_bounds(fleet):
    for p_pv in (0.0, 1.3, 2.0, 3.0):
        env = envelope(Scenario.S5, fleet, p_pv)
        assert env.p0 == 0.0
        assert env.dp_hi == 5.0 + p_pv
        assert env.dp_lo == -8.0


def test_symmetry_s1_to_s4(rng):
    for _ in range(50):
        fl = _random_fleet(rng)
        p_pv = float(rng.uniform(0.0, fl.pv.p_pv_rated))
        for scen in (Scenario.S1, Scenario.S2, Scenario.S3, Scenario.S4):
            env = envelope(scen, fl, p_pv)
            assert env.dp_lo == -env.dp_hi
            assert env.dp_lo <= 0.0 <= env.dp_hi


def test_interval_nesting(rng):
    """S3 inside S2 inside S1 when the load can take all the PV, then S4,
    and S5 is at least as wide as S4."""
    for _ in range(50):
        fl = _random_fleet(rng)
        p_pv = float(rng.uniform(0.0, min(fl.pv.p_pv_rated, fl.load.p_max)))
        e1 = envelope(Scenario.S1, fl, p_pv)
        e2 = envelope(Scenario.S2, fl, p_pv)
        e3 = envelope(Scenario.S3, fl, p_pv)
        e4 = envelope(Scenario.S4, fl, p_pv)
        e5 = envelope(Scenario.S5, fl, p_pv)
        assert e3.dp_hi <= e2.dp_hi <= e1.dp_hi <= e4.dp_hi
        assert e4.width <= e5.width + 1e-12


def test_curtailment_dividend(rng):
    # the S4 envelope is wider than S1 by exactly the PV availability
    for _ in range(50):
        fl = _random_fleet(rng)
        p_pv = float(rng.uniform(0.0, fl.pv.p_pv_rated))
        w1 = envelope(Scenario.S1, fl, p_pv).width
        w4 = envelope(Scenario.S4, fl, p_pv).width
        assert w4 - w1 == pytest.approx(p_pv, abs=1e-12)


def test_contains_is_closed():
    env = FlexEnvelope(0.0, -6.5, 6.5)
    assert env.contains(6.5)
    assert env.contains(-6.5)
    assert env.contains(0.0)
    assert not env.contains(6.5 + 1e-12)
    assert not env.contains(-6.5 - 1e-12)


def test_negative_pv_rejected(fleet):
    for scen in Scenario:
        with pytest.raises(ValueError):
            envelope(scen, fleet, -0.1)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_pv_rejected(fleet, bad):
    with pytest.raises(ValueError, match="finite"):
        envelope(Scenario.S1, fleet, bad)
    with pytest.raises(ValueError, match="finite"):
        envelope(Scenario.S4, fleet, np.array([1.0, bad]))
