"""File formats, the hold lookup at the run step, and the synthetic
generators."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hesflex import (
    DataFormatError,
    RunConfig,
    Scenario,
    Series,
    Trajectory,
    build_fleet,
    export_trace,
    read_irradiance_csv,
    read_signal_csv,
    report_lines,
    simulate,
    synth_irradiance,
    synth_signal,
    write_signal_csv,
)
from hesflex.cli import _load_signal
from hesflex.data_io import TRACE_COLUMNS


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return p


# ---------------------------------------------------------------------------
# CSV round trips and error reporting
# ---------------------------------------------------------------------------

def test_signal_round_trip(tmp_path):
    sig = synth_signal(7, 500)
    path = tmp_path / "sig.csv"
    with open(path, "w", newline="") as fh:
        write_signal_csv(sig, fh)
    back = read_signal_csv(path)
    np.testing.assert_array_equal(back.timestamps, sig.timestamps)
    np.testing.assert_allclose(back.values, sig.values, rtol=1e-14, atol=1e-15)
    assert back.cadence == sig.cadence


def test_irradiance_round_trip(tmp_path):
    ghi = synth_irradiance(3, 1)
    path = _write(tmp_path, "ghi.csv", "timestamp,ghi_wm2\n" + "".join(
        f"{t},{g!r}\n" for t, g in zip(ghi.timestamps.tolist(), ghi.values.tolist())))
    back = read_irradiance_csv(path)
    np.testing.assert_array_equal(back.timestamps, ghi.timestamps)
    np.testing.assert_array_equal(back.values, ghi.values)
    assert back.cadence == ghi.cadence == 60


def test_bad_header_points_at_line_one(tmp_path):
    p = _write(tmp_path, "x.csv", "time,value\n0,0.5\n")
    with pytest.raises(DataFormatError, match=r"x\.csv:1"):
        read_signal_csv(p)


def test_non_monotone_timestamps_point_at_the_row(tmp_path):
    p = _write(tmp_path, "x.csv", "timestamp,r\n0,0.1\n2,0.2\n2,0.3\n")
    with pytest.raises(DataFormatError, match=r"x\.csv:4"):
        read_signal_csv(p)


def test_out_of_range_signal_rejected(tmp_path):
    p = _write(tmp_path, "x.csv", "timestamp,r\n0,0.1\n2,1.2\n")
    with pytest.raises(DataFormatError, match="1.2"):
        read_signal_csv(p)


def test_negative_irradiance_rejected(tmp_path):
    p = _write(tmp_path, "x.csv", "timestamp,ghi_wm2\n0,100\n60,-5\n")
    with pytest.raises(DataFormatError):
        read_irradiance_csv(p)


def test_unparsable_float_rejected(tmp_path):
    p = _write(tmp_path, "x.csv", "timestamp,r\n0,abc\n")
    with pytest.raises(DataFormatError, match=r"x\.csv:2"):
        read_signal_csv(p)


def test_uneven_timestamps_point_at_the_row(tmp_path):
    # a hole, and a row closer than the cadence the first two rows set
    p = _write(tmp_path, "x.csv", "timestamp,r\n0,0.1\n2,0.2\n\n10,0.3\n12,0.4\n")
    with pytest.raises(DataFormatError, match=r"x\.csv:5: timestamp 10 is 8 s .* cadence of 2 s"):
        read_signal_csv(p)
    p = _write(tmp_path, "g.csv", "timestamp,ghi_wm2\n0,1\n60,2\n120,3\n150,4\n")
    with pytest.raises(DataFormatError, match=r"g\.csv:5"):
        read_irradiance_csv(p)


def test_empty_file_rejected(tmp_path):
    p = _write(tmp_path, "x.csv", "")
    with pytest.raises(DataFormatError):
        read_signal_csv(p)


def test_one_row_file_is_refused(tmp_path):
    # one row sets no cadence; it used to read as a cadence of 0 s
    p = _write(tmp_path, "x.csv", "timestamp,r\n0,0.5\n\n")
    with pytest.raises(DataFormatError, match=r"x\.csv: needs two data rows .* got 1"):
        read_signal_csv(p)
    p = _write(tmp_path, "g.csv", "timestamp,ghi_wm2\n60,500\n")
    with pytest.raises(DataFormatError, match=r"g\.csv: needs two data rows"):
        read_irradiance_csv(p)


@pytest.mark.parametrize("rows", [
    ("1e20", "2e20"),  # beyond int64
    ("-1e19", "-9e18"),
    ("9223372036854775000", "9223372036854775002"),  # distinct, but one float
    ("9007199254740992", "9007199254740994"),  # 2**53: float seconds skip whole seconds
])
def test_timestamps_beyond_2_to_the_53_point_at_the_row(tmp_path, rows):
    p = _write(tmp_path, "x.csv", "timestamp,r\n" + "".join(f"{t},0.5\n" for t in rows))
    with pytest.raises(DataFormatError, match=r"x\.csv:2: timestamp .* 2\*\*53"):
        read_signal_csv(p)
    p = _write(tmp_path, "g.csv", "timestamp,ghi_wm2\n" + "".join(f"{t},500\n" for t in rows))
    with pytest.raises(DataFormatError, match=r"g\.csv:2: timestamp .* 2\*\*53"):
        read_irradiance_csv(p)


def test_irradiance_above_the_pv_model_range_rejected(tmp_path):
    p = _write(tmp_path, "g.csv", "timestamp,ghi_wm2\n0,2000\n60,2000.5\n")
    with pytest.raises(DataFormatError, match=r"g\.csv: row with timestamp 60 .* 2000\.5"):
        read_irradiance_csv(p)


# ---------------------------------------------------------------------------
# the hold lookup at the run step
# ---------------------------------------------------------------------------

def test_zoh_refines_sixty_to_two_seconds(tmp_path):
    vals = np.arange(10.0) / 10.0
    p = _write(tmp_path, "x.csv", "timestamp,r\n" + "".join(
        f"{60 * k},{v!r}\n" for k, v in enumerate(vals.tolist())))
    out = _load_signal(RunConfig(), p)
    assert len(out.values) == 300
    assert out.cadence == 2
    np.testing.assert_array_equal(out.timestamps, np.arange(0, 600, 2))
    # each source sample held for its whole minute
    np.testing.assert_array_equal(out.values, np.repeat(vals, 30))


def test_zoh_refuses_to_coarsen(tmp_path):
    p = _write(tmp_path, "x.csv", "timestamp,r\n" + "".join(f"{t},0.1\n" for t in range(0, 20, 2)))
    with pytest.raises(DataFormatError, match="cadence 2 s is finer than the run step 60 s"):
        _load_signal(RunConfig(dt_s=60.0), p)


# ---------------------------------------------------------------------------
# synthetic generators
# ---------------------------------------------------------------------------

def test_synth_signal_is_deterministic():
    a = synth_signal(42, 1000)
    b = synth_signal(42, 1000)
    np.testing.assert_array_equal(a.values, b.values)
    c = synth_signal(43, 1000)
    assert not np.array_equal(a.values, c.values)


def test_synth_signal_range_and_neutrality():
    sig = synth_signal(0, 1800)
    assert np.max(np.abs(sig.values)) <= 1.0
    for i in range(0, 1800, 450):
        assert abs(sig.values[i : i + 450].mean()) < 1e-12


def test_synth_signal_bias_survives_demeaning():
    sig = synth_signal(0, 1800, bias=0.3)
    assert sig.values.mean() > 0.2


def test_synth_signal_full_scale_peaks_at_one():
    sig = synth_signal(5, 900, full_scale=True)
    assert np.max(np.abs(sig.values)) == pytest.approx(1.0, abs=1e-12)


def test_synth_signal_timestamps():
    sig = synth_signal(1, 5, cadence=2.0)
    np.testing.assert_array_equal(sig.timestamps, [0, 2, 4, 6, 8])


@pytest.mark.parametrize("cadence", [2.5, 0.4, 0, 0.0, -2.0, float("nan"), float("inf")])
def test_synth_series_reject_a_cadence_that_is_no_whole_second(cadence):
    # timestamps are whole epoch seconds: 2.5 used to give t = 0, 2, 4, ...
    with pytest.raises(ValueError, match="cadence"):
        synth_signal(1, 5, cadence=cadence)


def test_synth_series_accept_a_whole_second_cadence():
    sig = synth_signal(1, 3, cadence=np.float64(900.0))
    np.testing.assert_array_equal(sig.timestamps, [0, 900, 1800])
    assert sig.cadence == 900
    ghi = synth_irradiance(1, 1)
    assert ghi.timestamps.size == 1440
    assert np.all(np.diff(ghi.timestamps) == 60)


def test_synth_irradiance_shape():
    ghi = synth_irradiance(9, 2)
    assert len(ghi.values) == 2 * 1440
    assert ghi.values.min() >= 0.0
    assert ghi.values.max() <= 1000.0
    # the first six hours are night at this epoch
    assert np.all(ghi.values[: 6 * 60] == 0.0)
    assert ghi.values[12 * 60] > 0.0


def test_synth_irradiance_deterministic():
    a = synth_irradiance(4, 1)
    b = synth_irradiance(4, 1)
    np.testing.assert_array_equal(a.values, b.values)


# ---------------------------------------------------------------------------
# trace and report export
# ---------------------------------------------------------------------------

def _read_trace(path):
    with open(path) as fh:
        assert fh.readline() == ",".join(TRACE_COLUMNS) + "\n"
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2).T


def test_trace_round_trip(tmp_path):
    fleet = build_fleet(RunConfig())
    sig = synth_signal(11, 120)
    recs = simulate(fleet, Scenario.S1, 6.5 * sig.values, np.full(120, 2.0), 0.5)
    path = tmp_path / "trace.csv"
    export_trace(recs, path, times=sig.timestamps, signal=sig.values)
    k, times, r, p_hes, *_, soc = _read_trace(path)
    np.testing.assert_array_equal(k, np.arange(120))
    np.testing.assert_allclose(times, sig.timestamps)
    np.testing.assert_allclose(r, sig.values, rtol=1e-14, atol=1e-15)
    np.testing.assert_allclose(p_hes, recs.p_hes, rtol=1e-14, atol=1e-15)
    np.testing.assert_allclose(soc, recs.soc, rtol=1e-14)


# Every finite double, with the edge cases drawn often: both zeros, the
# smallest subnormal, the largest subnormal and the largest double.
_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1.7976931348623157e308]


def _round_trips(back, values):
    """Equal to within the rounding of 15 significant digits, signs of
    zero included."""
    back, values = np.asarray(back), np.asarray(values)
    np.testing.assert_allclose(back, values, rtol=1e-14, atol=0.0)
    np.testing.assert_array_equal(np.signbit(back), np.signbit(values))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    t0=st.integers(-(2**53) + 1, 2**53 - 1 - 10**7),
    cadence=st.integers(1, 10**5),
    values=st.lists(st.one_of(st.sampled_from([v for v in _EDGES if abs(v) <= 1.0]),
                              st.floats(-1.0, 1.0)), min_size=2, max_size=40),
)
def test_signal_csv_round_trip_property(tmp_path, t0, cadence, values):
    ts = t0 + cadence * np.arange(len(values), dtype=np.int64)
    path = tmp_path / "sig.csv"
    with open(path, "w", newline="") as fh:
        write_signal_csv(Series(ts, np.array(values), cadence), fh)
    back = read_signal_csv(path)
    np.testing.assert_array_equal(back.timestamps, ts)
    assert back.cadence == cadence
    _round_trips(back.values, values)


_finite = st.one_of(st.sampled_from(_EDGES), st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.integers(1, 20).flatmap(lambda n: st.tuples(
    st.lists(st.integers(-(2**53) + 1, 2**53 - 1), min_size=n, max_size=n),
    st.lists(st.lists(_finite, min_size=n, max_size=n), min_size=9, max_size=9),
)))
def test_trace_round_trip_property(tmp_path, case):
    times, (signal, *columns) = case
    path = tmp_path / "trace.csv"
    export_trace(Trajectory(*columns), path, times=times, signal=signal)
    k, *back = _read_trace(path)
    np.testing.assert_array_equal(k, np.arange(len(times)))
    for got, want in zip(back, [times, signal, *columns]):
        _round_trips(got, np.asarray(want, dtype=float))


def test_report_formatting():
    lines = report_lines({"n": 3, "score": 0.25, "ok": True, "skip": None, "name": "x"})
    assert lines == ["n = 3", "score = 0.25", "ok = true", "skip = ", "name = x"]
    assert report_lines({"a": False}) == ["a = false"]
