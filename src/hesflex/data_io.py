"""File formats and synthetic data generation.

CSV inputs use UTC epoch-second integer timestamps, and both read into a
:class:`Series`:

- signal files:      header ``timestamp,r``        with r in [-1, 1]
- irradiance files:  header ``timestamp,ghi_wm2``  with ghi in [0, 2000]

Every value must be finite, every timestamp below 2**53 s in magnitude
(where float seconds stop being whole), and the timestamps must keep one
cadence: the first two rows set it, so a file needs two rows, and a row
off it (a hole or a jitter) is refused with its line. A plain file is
parsed by one numpy pass; the line-by-line reader defines a valid file,
reads what numpy does not parse and writes every message.

Dispatch traces are written as CSV with the step ``k``, the time ``t`` in
whole seconds and the signal ``r`` followed by the :class:`Trajectory`
columns, ``k,t,r,p_hes,p0,dp_req,p_pv,p_cl,p_batt,p_curtailed,soc``, and
reports are flat ``key = value`` text. Step and time are integers; all
floats are serialized with 15 significant digits so a round trip stays
well inside 1e-9.
"""

from __future__ import annotations

import csv
import functools
import math
import warnings
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .assets import _IRRADIANCE_MAX_WM2
from .dispatch import Trajectory

_FLOAT_FMT = ".15g"
# 15 digits of the four doubles above this one round past the largest
# double and would read back as inf; those take their shortest repr.
_FMT_MAX = 1.797693134862315e308
_MAX_TIMESTAMP = 2**53  # from here on float seconds skip whole seconds
_IRRADIANCE_STEP_S = 60  # synth_irradiance's cadence
_IRRADIANCE_T0 = 1609459200  # synth_irradiance's first sample, 2021-01-01T00:00:00Z
_IRRADIANCE_BLOCK_DAYS = 32  # days of noise drawn, and of irradiance formed, at a time
_NEUTRALITY_WINDOW = 450  # synth_signal demeans each window of this many steps
_BLOCK_ROWS = 1536  # rows formatted at a time
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


# The array formatter below writes CSV rows as bytes, one cell per value
# in a block of rows. Byte 0 of a cell is its separator, and a 0 byte
# stands for no character: one pass over the block deletes them. A float
# cell is little-endian 64-bit words: separator, sign and %g prefix; the
# digits and point; and, where some value of its column in the block
# needs it, the exponent. The float columns are laid out one after
# another, and each run of cells with the same 64 bits down a column is
# formatted once, at its head, and repeated: a trace holds long runs (PV
# held between samples, an idle battery, a SoC at rest).

_WORD = np.dtype("<u8")


class _Tables(NamedTuple):
    digits4: np.ndarray  # the 4 ASCII digits of 0..9999, as one 32-bit word
    zeros4: np.ndarray  # trailing zeros of 0..9999 (4 for 0)
    # masks and bytes of 16, as two words (2, j):
    upto: np.ndarray  # [:, j] keeps bytes 1..j
    above: np.ndarray  # [:, j] keeps bytes j+1..15
    last: np.ndarray  # [:, j] keeps the last j bytes
    point: np.ndarray  # [:, j] is "." at byte j, none for j = 0
    pow10: np.ndarray  # 10**0..10**22, exact in binary64
    pow10_hi: np.ndarray  # their high halves for the two-product
    # per decimal exponent X in [-8, 15] of a 15-digit mantissa, and a
    # last row for zero:
    head: np.ndarray  # [row, sign]: separator, sign and the %g prefix
    tail: np.ndarray  # the %g exponent, e-05
    before_point: np.ndarray  # digits before the point


@functools.cache
def _tables() -> _Tables:
    """The formatter's lookup tables, built on first use."""
    d = np.indices((10,) * 4, np.uint8).reshape(4, -1)  # the digits of 0..9999
    first = np.arange(16) < np.arange(17)[:, None]  # row j: the first j of 16 bytes
    xs = range(-8, 17)
    head = np.zeros((len(xs), 2, 8), np.uint8)
    head[:, :, 0] = ord(",")
    head[:, 1, 1] = ord("-")
    tail = np.zeros((len(xs), 8), np.uint8)
    before_point = np.zeros(len(xs), np.intp)
    for i, x in enumerate(xs):
        if x == 16:  # zero
            prefix = b"0"
        elif -4 <= x < 15:  # fixed notation
            prefix = b"0." + b"0" * (-x - 1) if x < 0 else b""
            before_point[i] = max(x + 1, 0)
        else:
            prefix = b""
            tail[i, :4] = np.frombuffer(b"e%+03d" % x, np.uint8)
            before_point[i] = 1
        head[i, :, 2 : 2 + len(prefix)] = np.frombuffer(prefix, np.uint8)
    pow10 = np.concatenate(([1.0], np.cumprod(np.full(22, 10.0))))
    return _Tables(
        digits4=np.ascontiguousarray(np.frombuffer(b"0123456789", np.uint8)[d.T]).view("<u4").ravel(),
        zeros4=np.logical_and.accumulate(d[::-1] == 0).sum(axis=0),
        upto=_bytes_mask(first[1:] & (np.arange(16) > 0)),
        above=_bytes_mask(~first[1:]),
        last=_bytes_mask(~first[::-1]),
        point=_bytes_mask(np.eye(16, dtype=bool) & (np.arange(16) > 0)[:, None], ord(".")),
        pow10=pow10,
        pow10_hi=_split(pow10),
        head=head.view(_WORD)[:, :, 0],
        tail=tail.view(_WORD).ravel(),
        before_point=before_point,
    )


def _bytes_mask(keep, byte=255):
    """Words (2, rows) with ``byte`` at the bytes that the rows of ``keep``
    (16 flags) mark."""
    return np.ascontiguousarray(np.where(keep, byte, 0).astype(np.uint8).view(_WORD).T)


def _split(a):
    """The high half of Veltkamp's split: it and ``a - hi`` each have at
    most 26 significant bits, so their products are exact."""
    c = a * 134217729.0  # 2**27 + 1
    hi = c - a
    np.subtract(c, hi, out=hi)
    return hi


def _times_pow10(a, k):
    """``a * 10**k``, k in 0..22, exactly as ``hi + lo`` (Dekker's
    two-product ``((a_hi*s_hi - hi) + a_hi*s_lo + a_lo*s_hi) + a_lo*s_lo``,
    worked in place)."""
    t = _tables()
    s_lo, s_hi = np.take(t.pow10, k), np.take(t.pow10_hi, k)
    hi = a * s_lo
    s_lo -= s_hi
    a_hi = _split(a)
    a_lo = a - a_hi
    lo = a_hi * s_hi
    lo -= hi
    a_hi *= s_lo
    lo += a_hi
    s_hi *= a_lo
    lo += s_hi
    a_lo *= s_lo
    lo += a_lo
    return hi, lo


def _digits16(m):
    """The 16 ASCII digits of each whole float in ``m`` (0 <= m < 1e16),
    as two words (2, m.size), and the number of trailing zeros (16 for
    0). Every quotient and remainder is a whole number below 2**53, so all
    of it is exact."""
    t = _tables()
    q = np.floor(m / t.pow10[16::-4, None])  # m // 10**16, m // 10**12, ..., m
    g = q[1:] - 1e4 * q[:-1]  # four-digit groups, most significant first
    g = g.astype(np.intp)
    words = np.empty((2, m.size, 2), "<u4")
    for j in range(4):
        words[j // 2, :, j % 2] = np.take(t.digits4, g[j])
    z = np.take(t.zeros4, g)
    zeros = z[3] + (z[3] == 4) * (z[2] + (z[2] == 4) * (z[1] + (z[1] == 4) * z[0]))
    return words.view(_WORD)[:, :, 0], zeros


def _patch(cells, index, texts):
    """``cells`` (uint8 rows) with those at ``index`` holding ``texts``
    after their separator, widened where a text needs it."""
    if not texts:
        return cells
    width = max(map(len, texts))
    if width >= cells.shape[1]:
        cells = np.pad(cells, ((0, 0), (0, width + 1 - cells.shape[1])))
    text = np.zeros((len(texts), cells.shape[1]), np.uint8)
    text[:, 0] = ord(",")
    text[:, 1 : width + 1] = np.array(texts, dtype=f"S{width}").view(np.uint8).reshape(-1, width)
    cells[index] = text
    return cells


def _int_cells(v):
    """Cells of whole numbers (an integer array, or whole floats) as
    ``%d`` writes them; those of 2**53 or more in magnitude take ``%d``
    one at a time."""
    t = _tables()
    f = v.astype(float)
    if v.dtype.kind == "f":
        f = np.trunc(f)  # as int() cuts a fraction
    wide = ~(np.abs(f) < 2.0**53)  # where a float holds every integer
    m = np.where(wide, 0.0, np.abs(f))
    # 10**(nd-1) <= m < 10**nd, and one digit for 0
    nd = np.searchsorted(t.pow10[1:16], m, side="right") + 1
    width = int(nd.max(initial=1))
    digits, _ = _digits16(m)
    digits &= np.take(t.last, nd, axis=1)
    cells = np.empty((m.size, 3), _WORD)
    cells[:, 1] = digits[0]
    cells[:, 2] = digits[1]
    cells = cells.view(np.uint8)[:, 22 - width :]
    cells[:, 0] = ord(",")
    cells[:, 1] = np.where(f < 0, ord("-"), 0)
    return _patch(cells, np.flatnonzero(wide), ["%d" % x for x in v[wide].tolist()])


def _mantissa15(a):
    """The mantissa m and decimal exponent X of ``%.15g`` for each a in
    [1e-8, 1e15): a rounded to 15 significant digits, half to even, is
    m * 10**(X - 14) with 1e14 <= m < 1e15.

    The decimal exponent e of a lies in [-8, 14], so 10**(14 - e) is exact
    in binary64, and the two-product gives y = a * 10**(14 - e), in
    [1e14, 1e15), exactly as hi + lo. As hi < 2**53, ``hi - rint(hi)`` is
    exact. It is +-0.5 only when hi sits on a tie, and then the sign of lo
    says on which side of it y lies; when lo is 0, y is the tie and
    rint's half-even stands. That is the correctly rounded mantissa, which
    CPython's ``%.15g`` prints.
    """
    e = np.log10(a)
    np.floor(e, out=e)
    e = e.astype(np.intp)
    np.clip(e, -8, 14, out=e)
    hi, lo = _times_pow10(a, 14 - e)
    # log10 can miss by one next to a power of ten
    above = (hi > 1e15) | ((hi == 1e15) & (lo >= 0))
    fix = np.flatnonzero(above | (hi < 1e14) | ((hi == 1e14) & (lo < 0)))
    if fix.size:
        e[fix] += np.where(above[fix], 1, -1)
        hi[fix], lo[fix] = _times_pow10(a[fix], 14 - e[fix])
    m = np.rint(hi)
    hi -= m
    m += (hi == 0.5) & (lo > 0)
    m -= (hi == -0.5) & (lo < 0)
    carry = m == 1e15
    m[carry] = 1e14
    e += carry
    return m, e


def _float_cells(x):
    """Cells of float64 ``x`` with the bytes of :func:`_fmt`: values with
    1e-8 <= |x| < 1e15 through :func:`_mantissa15`, zeros through the
    tables, and every other value (non-finite, subnormal, out of that
    range) through :func:`_fmt`."""
    t = _tables()
    a = np.abs(x)
    fast = (a >= 1e-8) & (a < 1e15)
    a[~fast] = 1.0
    m, row = _mantissa15(a)
    del a
    row += 8  # the decimal exponent's row in the tables
    m[~fast] = 0.0
    row[~fast] = t.before_point.size - 1  # zero; the others are patched
    tail = np.take(t.tail, row)
    digits, zeros = _digits16(m)  # a 0, then the mantissa's 15 digits
    del m
    # the integer part, then the fraction up to its last nonzero digit;
    # the integer part moves down a byte over the 0, the point takes its
    # place
    before = np.take(t.before_point, row)
    shown = np.maximum(15 - zeros, before)
    int_part = digits & np.take(t.upto, before, axis=1)
    digits &= np.take(t.above, before, axis=1)
    digits &= np.take(t.upto, shown, axis=1)
    digits[0] |= (int_part[0] >> 8) | (int_part[1] << 56)
    digits[1] |= int_part[1] >> 8
    digits |= np.take(t.point, before * (shown > before), axis=1)
    cells = np.empty((x.size, 4 if tail.any() else 3), _WORD)
    cells[:, 1] = digits[0]
    cells[:, 2] = digits[1]
    cells[:, 0] = np.take(t.head, 2 * row + np.signbit(x))
    if cells.shape[1] == 4:
        cells[:, 3] = tail
    other = np.flatnonzero(~(fast | (x == 0.0)))
    return _patch(cells.view(np.uint8), other, [_fmt(v) for v in x[other].tolist()])


def _float_columns(floats, as_repr):
    """Each column of ``floats`` (rows, columns) as the cells of its runs
    and their lengths, those numbered in ``as_repr`` written by ``repr``.

    A run of equal cells is formatted once, at its head: the first row of
    a column or a cell whose bits differ from the one above, so that
    -0.0 below 0.0 and each NaN payload keep their own text."""
    rows, columns = floats.shape
    cols = np.ascontiguousarray(floats.T, dtype=float)  # one column after another
    bits = cols.view(_WORD)
    is_head = np.empty(bits.shape, bool)
    is_head[:, :1] = True
    np.not_equal(bits[:, 1:], bits[:, :-1], out=is_head[:, 1:])
    at = np.flatnonzero(is_head)
    values = cols.ravel()[at]
    cells = _float_cells(values)
    first = np.searchsorted(at, np.arange(columns + 1) * rows)  # column j's heads
    for j in as_repr:
        heads = slice(first[j], first[j + 1])
        cells = _patch(cells, heads, [repr(v) for v in values[heads].tolist()])
    runs = np.diff(at, append=bits.size)
    out = []
    for j in range(columns):
        heads = slice(first[j], first[j + 1])
        # a column without a byte past the 24th keeps three-word cells
        width = 24 if not cells[heads, 24:].any() else cells.shape[1]
        out.append((cells[heads, :width], runs[heads]))
    return out


def _csv_rows(ints, floats, as_repr=()) -> bytearray:
    """CRLF-terminated CSV rows of the integer columns ``ints`` (1-D) and
    then the float columns of ``floats`` (rows, columns), those numbered
    in ``as_repr`` written by ``repr``."""
    rows = floats.shape[0]
    columns = [(_int_cells(v), None) for v in ints]
    if floats.shape[1]:
        columns += _float_columns(floats, as_repr)
    widths = [cells.shape[1] for cells, _ in columns]
    buf = bytearray(rows * (sum(widths) + 2))
    out = np.frombuffer(buf, np.uint8).reshape(rows, -1)
    end = 0
    for (cells, runs), width in zip(columns, widths):
        # each column is expanded on its own, into its place in the rows
        out[:, end:end + width] = cells if len(cells) == rows else np.repeat(cells, runs, axis=0)
        end += width
    out[:, end:] = np.frombuffer(b"\r\n", np.uint8)
    out[:, 0] = 0  # no separator before the first column
    return buf.translate(None, b"\0")


def _read_rows(path, header: tuple[str, str]):
    """The line-by-line reader, the definition of a valid file: returns
    (timestamps, values, cadence), or raises naming the file and line. The
    first two rows set the cadence, and every later row must follow it."""
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


def _read_two_columns(path, header: tuple[str, str]):
    """Shared reader: returns (timestamps, values, cadence).

    A plain file is read by one ``np.loadtxt`` pass and checked column by
    column. Anything else, from an unusual but valid row (quoted fields,
    whitespace-only lines, ``1_0``) to a bad one, goes to
    :func:`_read_rows`, which accepts exactly the same files and writes
    every message.
    """
    with open(path) as fh:
        parsed = _read_plain(fh, header)
    return parsed if parsed is not None else _read_rows(path, header)


def _read_plain(fh, header: tuple[str, str]):
    """(timestamps, values, cadence) of a plain valid file, or None where
    :func:`_read_rows` has to decide."""
    if [c.strip() for c in fh.readline().split(",")] != list(header):
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # np.loadtxt warns on a file without rows
            data = np.loadtxt(fh, delimiter=",", comments=None, dtype=float, ndmin=2)
    except (ValueError, Warning):
        return None
    if data.shape[0] < 2 or data.shape[1] != 2 or not np.isfinite(data).all():
        return None
    t_raw = data[:, 0]
    t = np.round(t_raw)
    if not ((np.abs(t_raw) < _MAX_TIMESTAMP).all() and (np.abs(t_raw - t) <= 1e-6).all()):
        return None
    ts = t.astype(np.int64)  # whole seconds, so the differences below are exact
    step = ts[1] - ts[0]
    if step <= 0 or (np.diff(ts) != step).any():
        return None
    return ts, np.ascontiguousarray(data[:, 1]), int(step)


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
    fh.write("timestamp,r\r\n")
    ts, values = np.asarray(series.timestamps), np.asarray(series.values, dtype=float)
    for lo in range(0, ts.size, _BLOCK_ROWS):
        rows = slice(lo, lo + _BLOCK_ROWS)
        fh.write(_csv_rows([ts[rows]], values[rows, None]).decode())


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
    clip), deliberately breaking neutrality; it must be finite and in
    [-1, 1], as ``signal.bias`` must.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    if not (math.isfinite(bias) and -1.0 <= bias <= 1.0):
        raise ValueError(f"bias must be a finite number in [-1, 1], got {bias!r}")
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


def _ar1_days(e, a):
    """The AR(1) filter ``y[k] = a * y[k-1] + e[k]`` from y[-1] = 0 over
    the columns of ``e`` (one day of m samples each) laid end to end,
    equal bit for bit to the loop that runs it one sample at a time.

    A run steps every day at once, one row of ``e`` at a time, from a
    start value per day, with that loop's two float operations. The first
    run starts every day at 0, so its day ends are the days' local sums;
    chained over the days by ``a**m`` they guess each day's start. Each
    later run starts every day where the day before ended in the run
    before, until, bit for bit, every day ends where the next one started.
    Day 0 starts at exactly 0.0, so then every day ran from its exact
    start, by induction over the days, and the output is the sample
    loop's. Each of those later runs makes at least one more day start
    exactly, so there are at most days + 1 runs (parareal, Lions, Maday
    and Turinici 2001, with the sample loop as the fine solver).
    """
    m, days = e.shape
    out = np.empty_like(e)
    start = np.zeros(days)
    chained = False
    while True:
        prev = start
        for y, x in zip(out, e):
            np.multiply(prev, a, out=y)
            y += x
            prev = y
        ends = out[-1, :-1]
        if ends.tobytes() == start[1:].tobytes():
            return out
        if chained:
            start[1:] = ends
        else:
            decay, s = a**m, 0.0
            for d, local in enumerate(ends.tolist(), 1):
                s = decay * s + local
                start[d] = s
            chained = True


def synth_irradiance(seed: int, days: int) -> Series:
    """Deterministic synthetic GHI at 60 s from 2021-01-01T00:00:00Z:
    seasonal clear-sky bell peaking at 1000 W/m2 plus slow cloud noise.
    Good enough to exercise seasonal statistics; not a weather model.

    The series is worked on as a grid of days by minutes of the day: the
    seasonal factor is taken once per day, the sun's elevation once per
    minute of the day, and the cloud filter runs the days side by side
    (:func:`_ar1_days`), with the float operations that a pass over the
    whole series makes. The noise is drawn, and the irradiance formed, in
    blocks of days, so that no whole-series temporary is made beyond the
    filter's input and output; the timestamps are built last."""
    if days < 1:
        raise ValueError("days must be >= 1")
    step = _IRRADIANCE_STEP_S
    per_day = 86400 // step
    doy = np.arange(days) % 365
    hod = np.arange(per_day) * step / 3600.0
    elevation = np.sin(np.pi * (hod - 6.0) / 12.0)
    np.clip(elevation, 0.0, None, out=elevation)
    seasonal = 0.7 + 0.3 * np.cos(2.0 * np.pi * (doy - 171) / 365.0)
    rng = np.random.default_rng(seed)
    blocks = [slice(lo, min(days, lo + _IRRADIANCE_BLOCK_DAYS))
              for lo in range(0, days, _IRRADIANCE_BLOCK_DAYS)]
    # minute-major, so that each minute of the day is one contiguous row;
    # the blocks take the normals in the order of one (days, per_day) draw
    innov = np.empty((per_day, days))
    for b in blocks:
        innov[:, b] = rng.normal(0.0, 0.18, (b.stop - b.start, per_day)).T
    cloud = _ar1_days(innov, 0.995)
    del innov
    ghi = np.empty((days, per_day))
    for b in blocks:
        c = cloud[:, b].T * 0.25
        c += 0.75
        np.clip(c, 0.05, 1.0, out=c)
        g = ghi[b]
        np.multiply((1000.0 * seasonal[b])[:, None], elevation, out=g)
        g *= c
        np.clip(g, 0.0, None, out=g)
    del cloud
    ts = np.arange(_IRRADIANCE_T0, _IRRADIANCE_T0 + days * 86400, step, dtype=np.int64)
    return Series(ts, ghi.reshape(-1), step)


def export_trace(traj: Trajectory, path, *, times, signal) -> None:
    """Write a dispatch trajectory as CSV, one row per step, with the
    ``times`` (whole epoch seconds, written as integers) and ``signal``
    (normalized r) of its steps."""
    if traj.p_hes.ndim != 1:
        raise ValueError("export_trace writes one run, not a batch")
    n = len(traj)
    if len(times) != n or len(signal) != n:
        raise ValueError("times and signal must match the number of steps")
    times = np.asarray(times)
    if times.dtype.kind not in "iu":
        times = times.astype(float)
        bad = np.flatnonzero(~(np.isfinite(times) & (times == np.round(times))))
        if bad.size:
            i = int(bad[0])
            raise ValueError(f"step {i}: time {float(times[i])!r} is not a whole second")
    floats = [np.asarray(col, dtype=float)
              for col in [signal] + [getattr(traj, name) for name in _TRAJECTORY_COLUMNS]]
    # a column holding one of the doubles above _FMT_MAX takes repr whole
    as_repr = [j for j, col in enumerate(floats) if np.any(np.abs(col) > _FMT_MAX)]
    with open(path, "wb") as fh:
        fh.write((",".join(TRACE_COLUMNS) + "\r\n").encode())
        for lo in range(0, n, _BLOCK_ROWS):
            hi = min(n, lo + _BLOCK_ROWS)
            block = np.stack([col[lo:hi] for col in floats])
            fh.write(_csv_rows([np.arange(lo, hi), times[lo:hi]], block.T, as_repr))


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
