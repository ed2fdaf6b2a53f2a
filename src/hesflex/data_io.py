"""File formats and synthetic data generation.

CSV inputs use UTC epoch-second integer timestamps, and both read into a
:class:`Series`:

- signal files:      header ``timestamp,r``        with r in [-1, 1]
- irradiance files:  header ``timestamp,ghi_wm2``  with ghi in [0, 2000]

Every value must be finite, every timestamp below 2**53 s in magnitude
(where float seconds stop being whole), and the timestamps must keep one
cadence: the first two rows set it, so a file needs two rows, and a row
off it (a hole or a jitter) is refused with its line. Dispatch traces are
written as CSV with the step ``k``, the time ``t`` and the signal ``r``
followed by the :class:`Trajectory` columns,
``k,t,r,p_hes,p0,dp_req,p_pv,p_cl,p_batt,p_curtailed,soc``, and reports
are flat ``key = value`` text. All floats are serialized with 15
significant digits so a round trip stays well inside 1e-9.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, fields

import numpy as np

from .assets import _IRRADIANCE_MAX_WM2
from .dispatch import Trajectory

_FLOAT_FMT = ".15g"
# 15 digits of the four doubles above this one round past the largest
# double and would read back as inf; those take their shortest repr.
_FMT_MAX = 1.797693134862315e308
_MAX_TIMESTAMP = 2**53  # from here on float seconds skip whole seconds
_NEUTRALITY_WINDOW = 450  # synth_signal demeans each window of this many steps
_TRACE_BLOCK_ROWS = 1024
_TRAJECTORY_COLUMNS = tuple(f.name for f in fields(Trajectory))
TRACE_COLUMNS = ("k", "t", "r") + _TRAJECTORY_COLUMNS


class DataFormatError(ValueError):
    """Malformed or out-of-contract input data (message carries the line)."""


@dataclass
class Series:
    """Samples at a uniform cadence: a regulation signal (normalized r) or
    global horizontal irradiance (W/m2). The cadence is whole seconds."""

    timestamps: np.ndarray
    values: np.ndarray
    cadence: int


def _fmt(x: float) -> str:
    x = float(x)
    return format(x, _FLOAT_FMT) if abs(x) <= _FMT_MAX else repr(x)


def _read_two_columns(path, header: tuple[str, str]):
    """Shared reader: returns (timestamps, values, cadence). The first
    two rows set the cadence, and every later row must follow it."""
    ts: list[int] = []
    vals: list[float] = []
    step = None
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
            if abs(t_raw) >= _MAX_TIMESTAMP:
                raise DataFormatError(
                    f"{path}:{lineno}: timestamp {row[0].strip()} is not below 2**53 s in magnitude"
                )
            if abs(t_raw - round(t_raw)) > 1e-6:
                raise DataFormatError(f"{path}:{lineno}: timestamp must be integer seconds")
            t = int(round(t_raw))
            if ts and t - ts[-1] != step:
                if t <= ts[-1]:
                    raise DataFormatError(f"{path}:{lineno}: timestamps must strictly increase")
                if step is not None:
                    raise DataFormatError(
                        f"{path}:{lineno}: timestamp {t} is {t - ts[-1]} s after the row before,"
                        f" not the file's cadence of {step} s"
                    )
                step = t - ts[-1]
            ts.append(t)
            vals.append(v)
    if len(ts) < 2:
        raise DataFormatError(f"{path}: needs two data rows to set the cadence, got {len(ts)}")
    return np.asarray(ts, dtype=np.int64), np.asarray(vals, dtype=float), step


def read_signal_csv(path) -> Series:
    """Read a ``timestamp,r`` file; every |r| must stay within 1."""
    ts, vals, cadence = _read_two_columns(path, ("timestamp", "r"))
    bad = np.nonzero(np.abs(vals) > 1.0)[0]
    if bad.size:
        i = int(bad[0])
        raise DataFormatError(
            f"{path}: row with timestamp {int(ts[i])} has |r| = {abs(vals[i]):.6g} > 1"
        )
    return Series(ts, vals, cadence)


def read_irradiance_csv(path) -> Series:
    """Read a ``timestamp,ghi_wm2`` file; irradiance must lie in
    [0, 2000] W/m2, the range the PV model takes."""
    ts, vals, cadence = _read_two_columns(path, ("timestamp", "ghi_wm2"))
    bad = np.nonzero((vals < 0.0) | (vals > _IRRADIANCE_MAX_WM2))[0]
    if bad.size:
        i = int(bad[0])
        raise DataFormatError(
            f"{path}: row with timestamp {int(ts[i])} has irradiance {vals[i]:.6g} W/m2,"
            f" outside [0, {_IRRADIANCE_MAX_WM2:g}]"
        )
    return Series(ts, vals, cadence)


def write_signal_csv(series: Series, fh) -> None:
    """Write a signal to an open text file in the reader's format."""
    w = csv.writer(fh)
    w.writerow(("timestamp", "r"))
    for t, v in zip(series.timestamps, series.values):
        w.writerow((int(t), _fmt(v)))


def synth_signal(
    seed: int,
    n_steps: int,
    cadence: float = 2.0,
    bias: float = 0.0,
    full_scale: bool = False,
) -> Series:
    """Deterministic synthetic regulation signal from epoch second 0.

    A mean-reverting random walk reflected at +-1; each window of 450
    steps is demeaned so the signal is close to energy neutral over short
    spans. ``full_scale`` rescales the result so its peak sits exactly at 1,
    the way capability test signals exercise a unit's whole range. A
    nonzero ``bias`` then shifts the whole signal (before the final
    clip), deliberately breaking neutrality.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    # timestamps are whole epoch seconds, as config.validate has signal.dt_s
    if not (float(cadence) > 0.0 and float(cadence).is_integer()):
        raise ValueError(f"cadence must be a positive whole number of seconds, got {cadence!r}")
    step = int(cadence)
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
    for i in range(0, n_steps, _NEUTRALITY_WINDOW):
        w = x[i : i + _NEUTRALITY_WINDOW]
        w -= w.mean()
    if full_scale:
        peak = np.max(np.abs(x))
        if peak > 0.0:
            x /= peak
    if bias:
        x += bias
    np.clip(x, -1.0, 1.0, out=x)
    ts = np.arange(n_steps, dtype=np.int64) * step
    return Series(ts, x, step)


def synth_irradiance(seed: int, days: int) -> Series:
    """Deterministic synthetic GHI at 60 s from 2021-01-01T00:00:00Z:
    seasonal clear-sky bell peaking at 1000 W/m2 plus slow cloud noise.
    Good enough to exercise seasonal statistics; not a weather model."""
    if days < 1:
        raise ValueError("days must be >= 1")
    step = 60
    n = days * 86400 // step
    ts = 1609459200 + np.arange(n, dtype=np.int64) * step  # day 0 is January 1st
    doy = (ts - ts[0]) // 86400 % 365
    hod = ts % 86400 / 3600.0
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
    ghi = 1000.0 * seasonal * elevation * cloud
    np.clip(ghi, 0.0, None, out=ghi)
    return Series(ts, ghi, step)


def export_trace(traj: Trajectory, path, *, times, signal) -> None:
    """Write a dispatch trajectory as CSV, one row per step, with the
    ``times`` (epoch seconds) and ``signal`` (normalized r) of its steps."""
    n = len(traj)
    if len(times) != n or len(signal) != n:
        raise ValueError("times and signal must match the number of steps")
    columns = [np.asarray(col, dtype=float)
               for col in [times, signal] + [getattr(traj, name) for name in _TRAJECTORY_COLUMNS]]
    # One %-format per row renders each float as _fmt does, except that a
    # column holding one of the doubles above _FMT_MAX takes repr whole;
    # rows go out in blocks, so the Python floats of only one block are
    # alive at a time.
    row = "%d" + "".join(",%r" if np.any(np.abs(col) > _FMT_MAX) else f",%{_FLOAT_FMT}"
                         for col in columns) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(TRACE_COLUMNS) + "\r\n")
        for lo in range(0, n, _TRACE_BLOCK_ROWS):
            block = [col[lo:lo + _TRACE_BLOCK_ROWS].tolist() for col in columns]
            fh.writelines(row % values for values in zip(range(lo, n), *block))


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
