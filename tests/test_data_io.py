"""File formats, resampling, and the synthetic generators."""

import io

import numpy as np
import pytest

from hesflex import (
    DataFormatError,
    Scenario,
    SignalSeries,
    default_fleet,
    export_trace,
    read_irradiance_csv,
    read_signal_csv,
    read_trace_csv,
    report_lines,
    resample_zoh,
    simulate,
    synth_irradiance,
    synth_signal,
    write_irradiance_csv,
    write_signal_csv,
)


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
    path = tmp_path / "ghi.csv"
    with open(path, "w", newline="") as fh:
        write_irradiance_csv(ghi, fh)
    back = read_irradiance_csv(path)
    np.testing.assert_array_equal(back.timestamps, ghi.timestamps)
    np.testing.assert_allclose(back.values, ghi.values, rtol=1e-14, atol=1e-12)


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


# ---------------------------------------------------------------------------
# resampling
# ---------------------------------------------------------------------------

def test_zoh_refines_sixty_to_two_seconds():
    ts = np.arange(0, 600, 60, dtype=np.int64)
    vals = np.arange(10.0)
    src = SignalSeries(ts, vals / 10.0, 60.0)
    out = resample_zoh(src, 2.0)
    assert len(out.values) == 300
    assert out.cadence == 2.0
    # each source sample held for its whole minute
    np.testing.assert_allclose(out.values[:30], np.full(30, 0.0))
    np.testing.assert_allclose(out.values[30:60], np.full(30, 0.1))
    assert out.values.min() == src.values.min()
    assert out.values.max() == src.values.max()


def test_zoh_refuses_to_coarsen():
    src = SignalSeries(np.arange(0, 20, 2, dtype=np.int64), np.zeros(10), 2.0)
    with pytest.raises(ValueError):
        resample_zoh(src, 60.0)


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
    sig = synth_signal(1, 5, cadence=2.0, start_epoch=1000)
    np.testing.assert_array_equal(sig.timestamps, [1000, 1002, 1004, 1006, 1008])


@pytest.mark.parametrize("cadence", [2.5, 0.4, 0, 0.0, -2.0, float("nan"), float("inf")])
def test_synth_series_reject_a_cadence_that_is_no_whole_second(cadence):
    # timestamps are whole epoch seconds: 2.5 used to give t = 0, 2, 4, ...
    # and a zero cadence divided by zero in synth_irradiance
    with pytest.raises(ValueError, match="cadence"):
        synth_signal(1, 5, cadence=cadence)
    with pytest.raises(ValueError, match="cadence"):
        synth_irradiance(1, 1, cadence=cadence)


def test_synth_series_accept_a_whole_second_cadence():
    sig = synth_signal(1, 3, cadence=np.float64(900.0), start_epoch=0)
    np.testing.assert_array_equal(sig.timestamps, [0, 900, 1800])
    assert sig.cadence == 900.0
    ghi = synth_irradiance(1, 1, cadence=3600)
    assert ghi.timestamps.size == 24
    assert np.all(np.diff(ghi.timestamps) == 3600)


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

def test_trace_round_trip(tmp_path):
    fleet = default_fleet()
    sig = synth_signal(11, 120)
    recs = simulate(fleet, Scenario.S1, 6.5 * sig.values, np.full(120, 2.0), 0.5)
    path = tmp_path / "trace.csv"
    export_trace(recs, path, times=sig.timestamps, signal=sig.values)
    back, times, r = read_trace_csv(path)
    assert len(back) == 120
    np.testing.assert_allclose(times, sig.timestamps)
    np.testing.assert_allclose(r, sig.values, rtol=1e-14, atol=1e-15)
    np.testing.assert_allclose(back.p_hes, recs.p_hes, rtol=1e-14, atol=1e-15)
    np.testing.assert_allclose(back.soc, recs.soc, rtol=1e-14)


def test_trace_header_check(tmp_path):
    p = _write(tmp_path, "t.csv", "a,b,c\n")
    with pytest.raises(DataFormatError, match=":1"):
        read_trace_csv(p)


def test_trace_steps_must_count_up(tmp_path):
    row = ",".join(["0"] * 10)
    p = _write(tmp_path, "t.csv", "k,t,r,p_hes,p0,dp_req,p_pv,p_cl,p_batt,p_curtailed,soc\n"
               f"0,{row}\n2,{row}\n")
    with pytest.raises(DataFormatError, match=r"t\.csv:3"):
        read_trace_csv(p)


def test_report_formatting():
    lines = report_lines({"n": 3, "score": 0.25, "ok": True, "skip": None, "name": "x"})
    assert lines == ["n = 3", "score = 0.25", "ok = true", "skip = ", "name = x"]
    assert report_lines({"a": False}) == ["a = false"]
