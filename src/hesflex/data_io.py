"""File formats and synthetic data generation.

CSV inputs use UTC epoch-second integer timestamps:

- signal files:      header ``timestamp,r``        with r in [-1, 1]
- irradiance files:  header ``timestamp,ghi_wm2``  with ghi >= 0

Every value must be finite. Dispatch traces are CSV with the step ``k``,
the time ``t`` and the signal ``r`` followed by the :class:`Trajectory`
columns, ``k,t,r,p_hes,p0,dp_req,p_pv,p_cl,p_batt,p_curtailed,soc``, and
reports are flat ``key = value`` text. All floats are serialized with 15
significant digits so a round trip stays well inside 1e-9.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, fields
from datetime import datetime, timezone

import numpy as np

from .dispatch import Trajectory

_FLOAT_FMT = ".15g"
_TRACE_BLOCK_ROWS = 1024
_TRAJECTORY_COLUMNS = tuple(f.name for f in fields(Trajectory))
TRACE_COLUMNS = ("k", "t", "r") + _TRAJECTORY_COLUMNS


class DataFormatError(ValueError):
    """Malformed or out-of-contract input data (message carries the line)."""


@dataclass
class SignalSeries:
    """Normalized signal samples at a uniform cadence (seconds)."""

    timestamps: np.ndarray
    values: np.ndarray
    cadence: float
    gaps: tuple[int, ...] = ()


@dataclass
class IrradianceSeries:
    """Global horizontal irradiance samples, W/m2."""

    timestamps: np.ndarray
    values: np.ndarray
    cadence: float
    gaps: tuple[int, ...] = ()


def _fmt(x: float) -> str:
    return format(float(x), _FLOAT_FMT)


def _read_two_columns(path, header: tuple[str, str]):
    """Shared reader: returns (timestamps, values, cadence, gaps)."""
    ts: list[int] = []
    vals: list[float] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            first = next(reader)
        except StopIteration:
            raise DataFormatError(f"{path}: empty file") from None
        if [c.strip() for c in first] != list(header):
            raise DataFormatError(
                f"{path}:1: expected header '{header[0]},{header[1]}', got {','.join(first)!r}"
            )
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 2:
                raise DataFormatError(f"{path}:{lineno}: expected 2 columns, got {len(row)}")
            try:
                t_raw = float(row[0])
                v = float(row[1])
            except ValueError:
                raise DataFormatError(f"{path}:{lineno}: unparsable row {row!r}") from None
            if not (math.isfinite(t_raw) and math.isfinite(v)):
                raise DataFormatError(f"{path}:{lineno}: non-finite value in row {row!r}")
            if abs(t_raw - round(t_raw)) > 1e-6:
                raise DataFormatError(f"{path}:{lineno}: timestamp must be integer seconds")
            t = int(round(t_raw))
            if ts and t <= ts[-1]:
                raise DataFormatError(f"{path}:{lineno}: timestamps must strictly increase")
            ts.append(t)
            vals.append(v)
    if not ts:
        raise DataFormatError(f"{path}: no data rows")
    t_arr = np.asarray(ts, dtype=np.int64)
    v_arr = np.asarray(vals, dtype=float)
    if len(t_arr) > 1:
        diffs = np.diff(t_arr)
        cadence = float(diffs.min())
        gaps = tuple(int(i) for i in np.nonzero(diffs > cadence + 1e-9)[0])
    else:
        cadence = 0.0
        gaps = ()
    return t_arr, v_arr, cadence, gaps


def read_signal_csv(path) -> SignalSeries:
    """Read a ``timestamp,r`` file; every |r| must stay within 1."""
    ts, vals, cadence, gaps = _read_two_columns(path, ("timestamp", "r"))
    bad = np.nonzero(np.abs(vals) > 1.0)[0]
    if bad.size:
        i = int(bad[0])
        raise DataFormatError(
            f"{path}: row with timestamp {int(ts[i])} has |r| = {abs(vals[i]):.6g} > 1"
        )
    return SignalSeries(ts, vals, cadence, gaps)


def read_irradiance_csv(path) -> IrradianceSeries:
    """Read a ``timestamp,ghi_wm2`` file; irradiance must be >= 0."""
    ts, vals, cadence, gaps = _read_two_columns(path, ("timestamp", "ghi_wm2"))
    bad = np.nonzero(vals < 0.0)[0]
    if bad.size:
        i = int(bad[0])
        raise DataFormatError(
            f"{path}: row with timestamp {int(ts[i])} has negative irradiance {vals[i]:.6g}"
        )
    return IrradianceSeries(ts, vals, cadence, gaps)


def write_signal_csv(series: SignalSeries, fh) -> None:
    """Write a signal to an open text file in the reader's format."""
    w = csv.writer(fh)
    w.writerow(("timestamp", "r"))
    for t, v in zip(series.timestamps, series.values):
        w.writerow((int(t), _fmt(v)))


def write_irradiance_csv(series: IrradianceSeries, fh) -> None:
    w = csv.writer(fh)
    w.writerow(("timestamp", "ghi_wm2"))
    for t, v in zip(series.timestamps, series.values):
        w.writerow((int(t), _fmt(v)))


def resample_zoh(series, cadence_s: float):
    """Zero-order-hold resampling to a finer (or equal) cadence.

    Each source sample is held over its own interval, so a 60 s series
    resampled to 2 s grows exactly thirty-fold. Min and max of the
    values are preserved by construction.
    """
    if cadence_s <= 0:
        raise ValueError("cadence must be > 0 seconds")
    src_dt = series.cadence if series.cadence > 0 else cadence_s
    if cadence_s > src_dt + 1e-9:
        raise ValueError("zero-order hold only refines; target cadence exceeds the source")
    t0 = int(series.timestamps[0])
    t_end = int(series.timestamps[-1]) + int(round(src_dt))
    out_ts = np.arange(t0, t_end, int(round(cadence_s)), dtype=np.int64)
    idx = np.searchsorted(series.timestamps, out_ts, side="right") - 1
    out_vals = np.asarray(series.values, dtype=float)[idx]
    return type(series)(out_ts, out_vals, float(cadence_s), ())


def _whole_seconds(cadence: float) -> int:
    """The cadence as an int; timestamps are whole epoch seconds, the
    rule ``config.validate`` applies to ``signal.dt_s``."""
    if not (float(cadence) > 0.0 and float(cadence).is_integer()):
        raise ValueError(f"cadence must be a positive whole number of seconds, got {cadence!r}")
    return int(cadence)


def synth_signal(
    seed: int,
    n_steps: int,
    neutrality_window: int | None = 450,
    cadence: float = 2.0,
    bias: float = 0.0,
    full_scale: bool = False,
    start_epoch: int = 0,
) -> SignalSeries:
    """Deterministic synthetic regulation signal.

    A mean-reverting random walk reflected at +-1; when
    ``neutrality_window`` is set, each window of that many steps is
    demeaned so the signal is close to energy neutral over short spans.
    ``full_scale`` rescales the result so its peak sits exactly at 1,
    the way capability test signals exercise a unit's whole range. A
    nonzero ``bias`` then shifts the whole signal (before the final
    clip), deliberately breaking neutrality.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    step = _whole_seconds(cadence)
    rng = np.random.default_rng(seed)
    phi, sigma = 0.99, 0.05
    eps = rng.normal(0.0, sigma, n_steps)
    x = np.empty(n_steps)
    out = memoryview(x)  # Python floats in and out, no numpy scalars
    prev = 0.0
    for k, e in enumerate(memoryview(eps)):
        prev = phi * prev + e
        if prev > 1.0:
            prev = 2.0 - prev
        elif prev < -1.0:
            prev = -2.0 - prev
        out[k] = prev
    if neutrality_window:
        if neutrality_window < 1:
            raise ValueError("neutrality_window must be >= 1 step")
        for i in range(0, n_steps, neutrality_window):
            w = x[i : i + neutrality_window]
            w -= w.mean()
    if full_scale:
        peak = np.max(np.abs(x))
        if peak > 0.0:
            x /= peak
    if bias:
        x += bias
    np.clip(x, -1.0, 1.0, out=x)
    ts = start_epoch + np.arange(n_steps, dtype=np.int64) * step
    return SignalSeries(ts, x, float(cadence), ())


def synth_irradiance(
    seed: int,
    days: int,
    cadence: float = 60.0,
    start_epoch: int = 1609459200,  # 2021-01-01T00:00:00Z
    clear_sky_peak: float = 1000.0,
) -> IrradianceSeries:
    """Deterministic synthetic GHI: seasonal clear-sky bell plus slow
    cloud noise. Good enough to exercise seasonal statistics; not a
    weather model."""
    if days < 1:
        raise ValueError("days must be >= 1")
    step = _whole_seconds(cadence)
    n = days * 86400 // step
    ts = start_epoch + np.arange(n, dtype=np.int64) * step
    start_doy = datetime.fromtimestamp(start_epoch, tz=timezone.utc).timetuple().tm_yday
    day_index = (ts - ts[0]) // 86400
    doy = (start_doy - 1 + day_index) % 365
    second_of_day = ts % 86400
    hod = second_of_day / 3600.0
    elevation = np.sin(np.pi * (hod - 6.0) / 12.0)
    np.clip(elevation, 0.0, None, out=elevation)
    seasonal = 0.7 + 0.3 * np.cos(2.0 * np.pi * (doy - 171) / 365.0)
    rng = np.random.default_rng(seed)
    innov = rng.normal(0.0, 0.18, n)
    cloud = np.empty(n)
    out = memoryview(cloud)  # Python floats in and out, no numpy scalars
    y = 0.0
    for k, e in enumerate(memoryview(innov)):
        y = 0.995 * y + e
        out[k] = y
    cloud = np.clip(0.75 + 0.25 * cloud, 0.05, 1.0)
    ghi = clear_sky_peak * seasonal * elevation * cloud
    np.clip(ghi, 0.0, None, out=ghi)
    return IrradianceSeries(ts, ghi, float(cadence), ())


def export_trace(traj: Trajectory, path, *, times=None, signal=None, dt_s: float = 2.0) -> None:
    """Write a dispatch trajectory as CSV, one row per step.

    ``times`` (epoch seconds) and ``signal`` (normalized r) default to
    the step index scaled by ``dt_s`` and zero respectively when the
    run has no real-world clock or signal attached.
    """
    n = len(traj)
    if times is None:
        times = np.arange(n) * dt_s
    if signal is None:
        signal = np.zeros(n)
    if len(times) != n or len(signal) != n:
        raise ValueError("times and signal must match the number of steps")
    columns = [np.asarray(col, dtype=float)
               for col in [times, signal] + [getattr(traj, name) for name in _TRAJECTORY_COLUMNS]]
    # One %-format per row renders each float as _fmt does; rows go out in
    # blocks, so the Python floats of only one block are alive at a time.
    row = "%d" + f",%{_FLOAT_FMT}" * len(columns) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(TRACE_COLUMNS) + "\r\n")
        for lo in range(0, n, _TRACE_BLOCK_ROWS):
            block = [col[lo:lo + _TRACE_BLOCK_ROWS].tolist() for col in columns]
            fh.writelines(row % values for values in zip(range(lo, n), *block))


def read_trace_csv(path):
    """Read back an exported trace.

    Returns ``(traj, times, signal)`` with the same column meanings as
    :func:`export_trace`; the steps must run 0, 1, 2, ...
    """
    rows: list[list[float]] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataFormatError(f"{path}: empty file") from None
        if tuple(c.strip() for c in header) != TRACE_COLUMNS:
            raise DataFormatError(f"{path}:1: unexpected trace header {header!r}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(TRACE_COLUMNS):
                raise DataFormatError(f"{path}:{lineno}: expected {len(TRACE_COLUMNS)} columns")
            try:
                k = int(row[0])
                values = [float(x) for x in row[1:]]
            except ValueError:
                raise DataFormatError(f"{path}:{lineno}: unparsable row {row!r}") from None
            if k != len(rows):
                raise DataFormatError(f"{path}:{lineno}: expected step {len(rows)}, got {k}")
            rows.append(values)
    cols = np.array(rows, dtype=float).reshape(-1, len(TRACE_COLUMNS) - 1).T
    return Trajectory(*cols[2:]), cols[0], cols[1]


def report_lines(pairs: dict) -> list[str]:
    """Render a flat ``key = value`` report, one string per line."""
    lines = []
    for key, value in pairs.items():
        if isinstance(value, bool):
            text = "true" if value else "false"
        elif isinstance(value, float):
            text = _fmt(value)
        elif value is None:
            text = ""
        else:
            text = str(value)
        lines.append(f"{key} = {text}")
    return lines
