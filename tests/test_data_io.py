"""File formats, the hold lookup at the run step, the array formatter and
the synthetic generators."""

import csv
import dataclasses
import math
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
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
from hesflex import data_io
from hesflex.cli import _load_signal
from hesflex.data_io import TRACE_COLUMNS, _FMT_MAX, _csv_rows, _fmt, _read_rows, _read_two_columns


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


# Rows that a plain file does not have: each is valid, refused or skipped by
# the line loop, and most of them make the numpy pass hand the file over.
_ODD_ROWS = ("blank", "spaces", "quoted", "underscore", "unicode-digit", "nan", "inf",
             "three-columns", "off-cadence", "repeat", "quarter-second", "sub-microsecond")


@st.composite
def _csv_text(draw):
    # now and then timestamps that pass 2**53 or differences that pass it
    t0 = draw(st.sampled_from((10**6,) * 3 + (2**53,)).flatmap(lambda m: st.integers(-m, m)))
    cadence = draw(st.sampled_from((900,) * 3 + (2**54,)).flatmap(lambda m: st.integers(1, m)))
    n = draw(st.integers(0, 12))
    values = [repr(v) for v in draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n))]
    lines = [f"{t0 + k * cadence},{v}" for k, v in enumerate(values)]
    for kind in draw(st.lists(st.sampled_from(_ODD_ROWS), max_size=3)):
        k = draw(st.integers(0, len(lines)))
        t, v = t0 + k * cadence, "0.5"
        row = {
            "blank": "",
            "spaces": " \t ",
            "quoted": f'"{t}","{v}"',
            "underscore": f"{str(t)[:-1]}_{str(t)[-1]},1_0",
            "unicode-digit": f"{t},\u0661",
            "nan": f"{t},nan",
            "inf": f"inf,{v}",
            "three-columns": f"{t},{v},0",
            "off-cadence": f"{t + 1},{v}",
            "repeat": f"{t0},{v}",
            "quarter-second": f"{t}.25,{v}",
            "sub-microsecond": f"{t}.0000001,{v}",
        }[kind]
        if kind in ("blank", "spaces") or k == len(lines):
            lines.insert(k, row)
        else:
            lines[k] = row
    eol = draw(st.sampled_from(("\n", "\r\n")))
    return eol.join(["timestamp,r"] + lines) + draw(st.sampled_from(("", eol)))


def _read_outcome(read, path):
    try:
        return read(path, ("timestamp", "r"))
    except DataFormatError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=_csv_text())
# a cadence of 2**54 - 3 s, which float seconds cannot hold
@example(text="timestamp,r\n-9007199254740991,0.5\n9007199254740990,0.5\n")
def test_numpy_pass_agrees_with_the_line_loop(tmp_path, text):
    path = tmp_path / "x.csv"
    path.write_bytes(text.encode("utf-8"))
    got, want = _read_outcome(_read_two_columns, path), _read_outcome(_read_rows, path)
    if isinstance(want, str):
        assert got == want
        return
    (ts, values, cadence), (want_ts, want_values, want_cadence) = got, want
    assert ts.dtype == np.int64 and values.dtype == np.float64 and values.flags.c_contiguous
    np.testing.assert_array_equal(ts, want_ts)
    assert values.tobytes() == want_values.tobytes()
    assert type(cadence) is int and cadence == want_cadence


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


def test_synth_signal_refuses_a_bias_outside_the_unit_interval():
    # a NaN bias gave an all-NaN signal and 5.0 a constant 1.0
    for bias in (math.nan, math.inf, 5.0, -1.5):
        with pytest.raises(ValueError, match="bias must be a finite number in"):
            synth_signal(0, 10, bias=bias)
    for bias in (-1.0, 1.0):
        assert np.all(np.abs(synth_signal(0, 10, bias=bias).values) <= 1.0)


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


@pytest.mark.parametrize("make, names", [
    (lambda: synth_signal(1, 0), "n_steps must be >= 1"),
    (lambda: synth_irradiance(1, 0), "days must be >= 1"),
])
def test_synth_series_refuse_an_empty_span(make, names):
    with pytest.raises(ValueError, match=names):
        make()


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


def _synth_irradiance_loop(seed, days):
    """The byte reference for synth_irradiance: every factor taken over
    the whole series, and the cloud filter one sample at a time."""
    step = 60
    n = days * 86400 // step
    ts = 1609459200 + np.arange(n, dtype=np.int64) * step
    doy = (ts - ts[0]) // 86400 % 365
    hod = ts % 86400 / 3600.0
    elevation = np.sin(np.pi * (hod - 6.0) / 12.0)
    np.clip(elevation, 0.0, None, out=elevation)
    seasonal = 0.7 + 0.3 * np.cos(2.0 * np.pi * (doy - 171) / 365.0)
    rng = np.random.default_rng(seed)
    innov = rng.normal(0.0, 0.18, n)
    cloud = np.empty(n)
    out = memoryview(cloud)
    y = 0.0
    for k, e in enumerate(memoryview(innov)):
        y = 0.995 * y + e
        out[k] = y
    cloud = np.clip(0.75 + 0.25 * cloud, 0.05, 1.0)
    ghi = 1000.0 * seasonal * elevation * cloud
    np.clip(ghi, 0.0, None, out=ghi)
    return ts, ghi


def _assert_irradiance_bytes(seed, days):
    ghi = synth_irradiance(seed, days)
    ts, values = _synth_irradiance_loop(seed, days)
    assert ghi.cadence == 60
    assert ghi.timestamps.dtype == ts.dtype and ghi.timestamps.tobytes() == ts.tobytes()
    assert ghi.values.dtype == values.dtype and ghi.values.tobytes() == values.tobytes()


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), days=st.integers(1, 40))
def test_synth_irradiance_equals_the_sample_loop(seed, days):
    _assert_irradiance_bytes(seed, days)


@pytest.mark.parametrize("seed, days", [(1, 365), (7, 366)])
def test_synth_irradiance_equals_the_sample_loop_over_a_year(seed, days):
    _assert_irradiance_bytes(seed, days)


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
    k, _, *back = _read_trace(path)
    np.testing.assert_array_equal(k, np.arange(len(times)))
    # the times are whole seconds, written and read back as integers
    t = np.loadtxt(path, delimiter=",", skiprows=1, usecols=1, dtype=np.int64, ndmin=1)
    np.testing.assert_array_equal(t, times)
    for got, want in zip(back, [signal, *columns]):
        _round_trips(got, np.asarray(want, dtype=float))


@pytest.mark.parametrize("times", [[0.0, 2.5, 4.5], [0, 2, float("nan")]])
def test_trace_refuses_a_time_that_is_no_whole_second(tmp_path, times):
    traj = Trajectory(*np.zeros((8, 3)))
    step = 1 if times[1] == 2.5 else 2
    with pytest.raises(ValueError, match=rf"^step {step}: time .* is not a whole second"):
        export_trace(traj, tmp_path / "trace.csv", times=times, signal=np.zeros(3))


@pytest.mark.parametrize("times, signal", [([0, 2], np.zeros(3)), ([0, 2, 4], np.zeros(4))])
def test_trace_refuses_times_or_signal_of_another_length(tmp_path, times, signal):
    traj = Trajectory(*np.zeros((8, 3)))
    with pytest.raises(ValueError, match="times and signal must match the number of steps"):
        export_trace(traj, tmp_path / "trace.csv", times=times, signal=signal)
    assert not (tmp_path / "trace.csv").exists()


def test_trace_refuses_a_batch_of_runs(tmp_path):
    traj = Trajectory(*np.zeros((8, 2, 3)))
    with pytest.raises(ValueError, match="export_trace writes one run, not a batch"):
        export_trace(traj, tmp_path / "trace.csv", times=[0, 2, 4], signal=np.zeros(3))
    assert not (tmp_path / "trace.csv").exists()


# ---------------------------------------------------------------------------
# the array formatter against _fmt and "%d", and the writers against the
# Python formatting they replaced
# ---------------------------------------------------------------------------

def _float_rows(values):
    """The array formatter's text of one float per row."""
    return _csv_rows([], np.asarray(values, dtype=float)[:, None]).decode()


def _ulps(x, n):
    """x and its n neighbours on either side."""
    out = [x]
    lo = hi = x
    for _ in range(n):
        lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
        out += [float(lo), float(hi)]
    return out


_FORMAT_EDGES = [
    0.0, 5e-324, 1e-323, 2.225073858507201e-308, 2.2250738585072014e-308,  # zero, subnormals
    *(v for k in range(-9, 17) for v in _ulps(float(f"1e{k}"), 2)),  # powers of ten
    123456789012344.5, 123456789012345.5, 100000000000000.5, 0.5, 2.5,  # exact 16th-digit ties
    # a double just above or below a tie that its product with 10**(14-e)
    # rounds onto: the low part of the two-product decides
    58432.89818973505, 39675.85448491825, 95541.73266933415, 46827.92227322455,
    999999999999999.4, 999999999999999.5, 999999999999999.6,  # the carry to 1e+15
    # floor(log10(x)) is one too high
    9.99999999999998e-09, 9.999999999999991e-05, 999.9999999999995, 999999999.999998,
    999999999999998.0,
    99999999999999.95, 9.999999999999995e-08,
    *_ulps(0.0001, 2), 9.99999999999999e-05, 9.999999999999999e-05,  # %g's switch to e-05
    0.00009999999999999995, 1.00000000000000005e-04,
    *_ulps(_FMT_MAX, 2), 1.7976931348623157e308, np.inf, np.nan,  # _FMT_MAX and above
]


def test_float_formatter_edge_list():
    values = _FORMAT_EDGES + [-v for v in _FORMAT_EDGES]
    assert _float_rows(values) == "".join(_fmt(v) + "\r\n" for v in values)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.floats(), st.sampled_from(_FORMAT_EDGES)), min_size=1, max_size=60))
def test_float_formatter_matches_fmt(values):
    assert _float_rows(values) == "".join(_fmt(v) + "\r\n" for v in values)


@settings(max_examples=100, deadline=None)
@given(st.one_of(
    st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=30).map(
        lambda v: np.array(v, dtype=np.int64)),
    st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=30).map(
        lambda v: np.array(v, dtype=np.uint64)),
    st.lists(st.floats(allow_nan=False, allow_infinity=False).map(float.__trunc__).map(float),
             min_size=1, max_size=30).map(np.array),
))
def test_int_formatter_matches_percent_d(values):
    text = _csv_rows([values], np.empty((values.size, 0))).decode()
    assert text == "".join("%d\r\n" % v for v in values.tolist())


def _row_generator_trace(traj, path, *, times, signal):
    """The trace writer the array formatter replaced: one %-format a row."""
    times = np.asarray(times)
    if times.dtype.kind not in "iu":
        times = times.astype(float)
    columns = [times] + [np.asarray(col, dtype=float) for col in
                         [signal] + [getattr(traj, f.name) for f in dataclasses.fields(traj)]]
    row = "%d,%d" + "".join(",%r" if np.any(np.abs(col) > _FMT_MAX) else ",%.15g"
                            for col in columns[1:]) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(TRACE_COLUMNS) + "\r\n")
        fh.writelines(row % values for values in zip(range(len(traj)), *(c.tolist() for c in columns)))


def _csv_writer_signal(series, fh):
    """The signal writer the array formatter replaced."""
    w = csv.writer(fh)
    w.writerow(("timestamp", "r"))
    for t, v in zip(series.timestamps, series.values):
        w.writerow((int(t), _fmt(v)))


def test_trace_bytes_match_the_row_generator(tmp_path):
    fleet = build_fleet(RunConfig())
    sig = synth_signal(5, 3000, bias=0.2)
    recs = simulate(fleet, Scenario.S1, 6.5 * sig.values, np.linspace(0.0, 3.0, 3000), 0.5)
    export_trace(recs, tmp_path / "new.csv", times=sig.timestamps + 1624233600, signal=sig.values)
    _row_generator_trace(recs, tmp_path / "old.csv", times=sig.timestamps + 1624233600,
                         signal=sig.values)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


_any_float = st.one_of(st.floats(), st.sampled_from(_FORMAT_EDGES))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(block=st.integers(1, 5), case=st.integers(1, 12).flatmap(lambda n: st.tuples(
    st.one_of(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=n, max_size=n),
              st.lists(st.integers(-(2**70), 2**70).map(float), min_size=n, max_size=n)),
    st.lists(st.lists(_any_float, min_size=n, max_size=n), min_size=9, max_size=9),
)))
def test_trace_bytes_match_the_row_generator_property(tmp_path, monkeypatch, block, case):
    """Blocks of a few rows, times as integers or whole floats, and every
    double, non-finite ones and columns written by repr included."""
    monkeypatch.setattr(data_io, "_BLOCK_ROWS", block)
    times, (signal, *columns) = case
    export_trace(Trajectory(*columns), tmp_path / "new.csv", times=times, signal=signal)
    _row_generator_trace(Trajectory(*columns), tmp_path / "old.csv", times=times, signal=signal)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


# Runs of one value down a column, as traces hold them: both zeros, NaNs
# of several signs and payloads, the infinities, the largest double (its
# column is written by repr) and any other double. The writer finds a run
# by its bits, so a -0.0 below a 0.0 starts a run of its own.
_NANS = [struct.unpack("<d", struct.pack("<Q", bits))[0]
         for bits in (0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000001, 0x7FFC0000DEADBEEF)]
_N0, _N1, _N2, _N3 = _NANS
_BIG = 1.7976931348623157e308
_RUN_VALUES = st.one_of(st.sampled_from([0.0, -0.0]),
                        st.sampled_from([math.inf, -math.inf, _BIG, *_NANS]), _any_float)


def _runs(n):
    """n cells made of runs of one value each, the last run filling up."""
    def cells(runs):
        column = [v for v, length in runs for _ in range(length)][:n]
        return column + [runs[-1][0]] * (n - len(column))
    return st.lists(st.tuples(_RUN_VALUES, st.integers(1, 6)), min_size=1, max_size=n).map(cells)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(block=st.integers(1, 5), case=st.integers(1, 24).flatmap(lambda n: st.tuples(
    st.lists(st.integers(-(2**63), 2**63 - 1), min_size=n, max_size=n),
    st.lists(_runs(n), min_size=9, max_size=9),
)))
@example(block=2, case=(list(range(7)), [
    [0.0, 0.0, -0.0, -0.0, 0.0, -0.0, -0.0],
    [_N0, _N0, _N1, _N2, _N2, _N3, _N0],
    [math.inf, math.inf, math.inf, -math.inf, -math.inf, math.inf, 1.0],
    [_BIG, _BIG, _BIG, 0.1, 0.1, -_BIG, -_BIG],
    [0.5] * 7,
    [1e-5] * 4 + [2.5] * 3,
    [-0.0] * 7,
    [3.0, 3.0, 3.0, 0.0, 0.0, 0.0, -0.0],
    [1e300] * 3 + [1e-300] * 4,
]))
def test_trace_bytes_match_the_row_generator_on_runs(tmp_path, monkeypatch, block, case):
    """Columns of runs that cross the blocks of a few rows."""
    monkeypatch.setattr(data_io, "_BLOCK_ROWS", block)
    times, (signal, *columns) = case
    export_trace(Trajectory(*columns), tmp_path / "new.csv", times=times, signal=signal)
    _row_generator_trace(Trajectory(*columns), tmp_path / "old.csv", times=times, signal=signal)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(block=st.integers(1, 5), t0=st.integers(-(2**62), 2**62), cadence=st.integers(1, 10**6),
       values=st.lists(_any_float, min_size=1, max_size=20))
def test_signal_bytes_match_the_csv_writer(tmp_path, monkeypatch, block, t0, cadence, values):
    monkeypatch.setattr(data_io, "_BLOCK_ROWS", block)
    series = Series(t0 + cadence * np.arange(len(values), dtype=np.int64), np.array(values), cadence)
    for name, writer in (("new.csv", write_signal_csv), ("old.csv", _csv_writer_signal)):
        with open(tmp_path / name, "w", newline="") as fh:
            writer(series, fh)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_report_formatting():
    lines = report_lines({"n": 3, "score": 0.25, "ok": True, "skip": None, "name": "x"})
    assert lines == ["n = 3", "score = 0.25", "ok = true", "skip = ", "name = x"]
    assert report_lines({"a": False}) == ["a = false"]
