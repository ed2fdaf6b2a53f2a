"""Physical models of the hybrid plant assets.

Sign conventions, grid perspective:

- PV generation and battery discharge inject power (MW >= 0).
- The controllable load consumes power (``p_cl`` in MW, >= 0).
- Battery charging power is negative, discharging power positive.
- Battery state of charge (SoC) is per-unit of the pack energy capacity.

Power is MW, energy MWh, duration hours unless a name says otherwise.

The PV maximum-power point of many irradiances is solved in one batch,
each element with its own iteration count and stopping tests, so every
value has the bits of a solve of that value alone; a few values are solved
one at a time, which is faster for them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

_VOC_CURRENT_TOL_A = 1e-9  # bisection stop on |cell current|
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# From this many irradiances on, the batched maximum-power-point solve is
# faster: one value at a time takes ~50 us a value, one batch ~2.5 ms plus
# ~13 us a value (measured on a shared 2-core host). A CLI run without a
# PV file solves one value.
_MPP_BATCH_MIN = 64
_SOC_SNAP = 1e-12  # float dust tolerated at the SoC bounds
# Highest irradiance the PV model takes, above the 1,361 W/m2 solar
# constant. From ~1e16 W/m2 i*r_s outgrows the junction voltage and the
# output falls to 0; from ~1e155 the diode term overflows.
_IRRADIANCE_MAX_WM2 = 2000.0


class SocBoundsError(Exception):
    """Raised when a battery step would leave the SoC window.

    Carries the SoC the step would reach (``soc_raw``) and that SoC
    clipped to the window (``soc_clipped``). No caller recovers: the SoC
    scan truncates each step to the window first, so it is a failed step.
    """

    def __init__(self, soc_raw: float, soc_clipped: float):
        super().__init__(
            f"battery step would move SoC to {soc_raw:.9f}, outside the "
            f"operating window (clipped to {soc_clipped:.9f})"
        )
        self.soc_raw = soc_raw
        self.soc_clipped = soc_clipped


@dataclass(frozen=True, slots=True)
class PvParams:
    """Aggregated single-diode PV plant.

    The plant is ``n_cell`` identical cells behind one inverter. Each
    cell follows the equivalent-circuit law

        i(v) = i_sc - i_0 * (exp(thermal_coeff * v) - 1) - v / r_p
        p(v) = i(v) * (v - i(v) * r_s)

    where ``v`` is the swept junction voltage and ``i_sc`` scales
    linearly with irradiance (``i_sc_stc`` at 1000 W/m2). Plant output
    is ``eta_pv * n_cell * p(v_mpp)``, clamped to [0, p_pv_rated].
    """

    i_sc_stc: float = 3.8
    i_0: float = 6e-10
    r_p: float = 6.6
    r_s: float = 0.005
    thermal_coeff: float = 38.9
    n_cell: float = 1.0
    eta_pv: float = 0.95
    p_pv_rated: float = 3.0

    def __post_init__(self):
        if self.i_sc_stc < 0:
            raise ValueError("i_sc_stc must be >= 0")
        if self.i_0 <= 0:
            raise ValueError("i_0 must be > 0")
        if self.r_p <= 0 or self.r_s < 0:
            raise ValueError("resistances must satisfy r_p > 0 and r_s >= 0")
        if self.thermal_coeff <= 0:
            raise ValueError("thermal_coeff must be > 0")
        if self.n_cell < 1.0:
            raise ValueError("n_cell must be >= 1")
        if not 0.0 < self.eta_pv <= 1.0:
            raise ValueError("eta_pv must lie in (0, 1]")
        if self.p_pv_rated <= 0:
            raise ValueError("p_pv_rated must be > 0")

    @classmethod
    def scaled_to_rating(cls, p_pv_rated: float, **kwargs) -> "PvParams":
        """Build params with ``n_cell`` sized so that clear-sky
        irradiance (1000 W/m2) produces exactly ``p_pv_rated`` MW."""
        base = cls(n_cell=1.0, p_pv_rated=p_pv_rated, **kwargs)
        p_cell_w = _cell_mpp_power_one(base, 1000.0)
        if p_cell_w <= 0.0:
            raise ValueError("cell parameters produce no power at 1000 W/m2")
        n = p_pv_rated * 1e6 / (base.eta_pv * p_cell_w)
        return replace(base, n_cell=n)


@dataclass(frozen=True, slots=True)
class BatteryParams:
    """Battery energy storage ratings and operating window."""

    p_max: float  # charge/discharge power rating, MW
    e_cap: float  # energy capacity, MWh
    eta_inv: float = 0.95  # inverter efficiency, applied per direction
    e_min: float = 0.1  # lower SoC bound, per-unit
    e_max: float = 0.9  # upper SoC bound, per-unit

    def __post_init__(self):
        if self.p_max <= 0:
            raise ValueError("p_max must be > 0")
        if self.e_cap <= 0:
            raise ValueError("e_cap must be > 0")
        if not 0.0 < self.eta_inv <= 1.0:
            raise ValueError("eta_inv must lie in (0, 1]")
        if not 0.0 <= self.e_min < self.e_max <= 1.0:
            raise ValueError("need 0 <= e_min < e_max <= 1")


@dataclass(frozen=True, slots=True)
class LoadParams:
    """Controllable load rating."""

    p_max: float  # MW

    def __post_init__(self):
        if self.p_max < 0:
            raise ValueError("load p_max must be >= 0")


@dataclass(frozen=True, slots=True)
class AssetFleet:
    """One PV plant, one battery, one controllable load, one step size."""

    pv: PvParams
    battery: BatteryParams
    load: LoadParams
    dt: float  # simulation step, hours

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be > 0 hours")


# ---------------------------------------------------------------------------
# PV equivalent circuit
# ---------------------------------------------------------------------------

def _cell_current(params: PvParams, i_sc: float, v: float) -> float:
    return i_sc - params.i_0 * math.expm1(params.thermal_coeff * v) - v / params.r_p


def _cell_power(params: PvParams, i_sc: float, v: float) -> float:
    i = _cell_current(params, i_sc, v)
    return i * (v - i * params.r_s)


def _open_circuit_voltage(params: PvParams, i_sc: float) -> float:
    """Root of the cell current, found by bisection to 1e-9 A."""
    if i_sc <= 0.0:
        return 0.0
    lo, hi = 0.0, 0.6
    for _ in range(80):
        if _cell_current(params, i_sc, hi) < 0.0:
            break
        lo = hi
        hi *= 2.0
    else:
        raise ValueError("open-circuit voltage bracket not found")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        cur = _cell_current(params, i_sc, mid)
        if abs(cur) <= _VOC_CURRENT_TOL_A or (hi - lo) < 1e-15:
            return mid
        if cur > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _cell_mpp_power_one(params: PvParams, irradiance: float) -> float:
    """Maximum power point of one cell, in watts.

    Golden-section search of the power curve over [0, v_oc]; the
    single-diode power curve is unimodal on that interval.
    """
    i_sc = params.i_sc_stc * irradiance / 1000.0
    if i_sc <= 0.0:
        return 0.0
    v_oc = _open_circuit_voltage(params, i_sc)
    if v_oc <= 0.0:
        return 0.0
    a, b = 0.0, v_oc
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc = _cell_power(params, i_sc, c)
    fd = _cell_power(params, i_sc, d)
    for _ in range(200):
        if (b - a) <= 1e-12 * max(1.0, v_oc):
            break
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = _cell_power(params, i_sc, c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = _cell_power(params, i_sc, d)
    best = max(fc, fd, _cell_power(params, i_sc, 0.5 * (a + b)))
    return max(best, 0.0)


def _cell_current_batch(params: PvParams, i_sc: np.ndarray, v: np.ndarray) -> np.ndarray:
    # math.expm1 per element: np.expm1 rounds ~9% of these arguments differently
    e = np.fromiter(map(math.expm1, (params.thermal_coeff * v).tolist()), float, v.size)
    return i_sc - params.i_0 * e - v / params.r_p


def _cell_power_batch(params: PvParams, i_sc: np.ndarray, v: np.ndarray) -> np.ndarray:
    i = _cell_current_batch(params, i_sc, v)
    return i * (v - i * params.r_s)


def _open_circuit_voltage_batch(params: PvParams, i_sc: np.ndarray) -> np.ndarray:
    """Root of the cell current at each short-circuit current i_sc > 0,
    found by bisection to 1e-9 A. The bracket doubles from [0, 0.6] V."""
    n = i_sc.size
    lo, hi = np.zeros(n), np.full(n, 0.6)
    act = np.arange(n)  # elements whose bracket is still open
    for _ in range(80):
        act = act[~(_cell_current_batch(params, i_sc[act], hi[act]) < 0.0)]
        if not act.size:
            break
        lo[act] = hi[act]
        hi[act] *= 2.0
    else:
        raise ValueError("open-circuit voltage bracket not found")
    v_oc = np.empty(n)
    act = np.arange(n)  # elements still bisecting
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        cur = _cell_current_batch(params, i_sc, mid)
        done = (np.abs(cur) <= _VOC_CURRENT_TOL_A) | ((hi - lo) < 1e-15)
        if done.any():
            v_oc[act[done]] = mid[done]
            keep = ~done
            act, i_sc, lo, hi, mid, cur = act[keep], i_sc[keep], lo[keep], hi[keep], mid[keep], cur[keep]
            if not act.size:
                break
        up = cur > 0.0
        lo = np.where(up, mid, lo)
        hi = np.where(up, hi, mid)
    v_oc[act] = 0.5 * (lo + hi)
    return v_oc


def _cell_mpp_power_batch(params: PvParams, irradiance: np.ndarray) -> np.ndarray:
    """:func:`_cell_mpp_power_one` of each irradiance, all in one batch.

    Every element runs its own bisection and golden-section search, with
    its own stopping tests and iteration count, in the same float
    arithmetic, so each result has the bits of a solve of that value alone.
    """
    i_sc = params.i_sc_stc * irradiance / 1000.0
    power = np.zeros(irradiance.shape)
    lit = np.flatnonzero(~(i_sc <= 0.0))
    if not lit.size:
        return power
    i_sc = i_sc[lit]
    # v_oc is at least 0.3 V, the first midpoint of the bisection
    v_oc = _open_circuit_voltage_batch(params, i_sc)
    m = lit.size
    a, b = np.zeros(m), v_oc
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc = _cell_power_batch(params, i_sc, c)
    fd = _cell_power_batch(params, i_sc, d)
    # the final bracket and its two probes, per element
    end = np.empty((4, m))
    act, i_act, tol = np.arange(m), i_sc, 1e-12 * np.where(v_oc > 1.0, v_oc, 1.0)
    for _ in range(200):
        done = (b - a) <= tol
        if done.any():
            end[:, act[done]] = a[done], b[done], fc[done], fd[done]
            keep = ~done
            act, i_act, tol = act[keep], i_act[keep], tol[keep]
            a, b, c, d, fc, fd = a[keep], b[keep], c[keep], d[keep], fc[keep], fd[keep]
            if not act.size:
                break
        left = fc >= fd  # the maximum lies in [a, d]: drop (d, b]
        b = np.where(left, d, b)
        a = np.where(left, a, c)
        x = np.where(left, b - _GOLDEN * (b - a), a + _GOLDEN * (b - a))
        fx = _cell_power_batch(params, i_act, x)
        c, d = np.where(left, x, d), np.where(left, c, x)
        fc, fd = np.where(left, fx, fd), np.where(left, fc, fx)
    end[:, act] = a, b, fc, fd
    a, b, fc, fd = end
    fm = _cell_power_batch(params, i_sc, 0.5 * (a + b))
    # max(fc, fd, fm, 0.0) the way Python's max picks: a later value only if larger
    best = np.where(fd > fc, fd, fc)
    best = np.where(fm > best, fm, best)
    power[lit] = np.where(0.0 > best, 0.0, best)
    return power


def _cell_mpp_power(params: PvParams, irradiance: np.ndarray) -> np.ndarray:
    """Maximum power point of one cell, in watts, at each irradiance: one
    value at a time for a few values, in one batch for many. Both give the
    same bits."""
    if irradiance.size < _MPP_BATCH_MIN:
        return np.array([_cell_mpp_power_one(params, g) for g in irradiance.tolist()], dtype=float)
    return _cell_mpp_power_batch(params, irradiance)


def _pv_power(params: PvParams, irradiance: np.ndarray) -> np.ndarray:
    """Plant output in MW at each irradiance (already range-checked)."""
    p_mw = params.eta_pv * params.n_cell * _cell_mpp_power(params, irradiance) * 1e-6
    return np.where(p_mw <= 0.0, 0.0, np.where(params.p_pv_rated < p_mw, params.p_pv_rated, p_mw))


def _check_irradiance(irradiance: np.ndarray) -> None:
    if not np.all((0.0 <= irradiance) & (irradiance <= _IRRADIANCE_MAX_WM2)):
        raise ValueError(f"irradiance must lie in [0, {_IRRADIANCE_MAX_WM2:g}] W/m2")


def pv_power(params: PvParams, irradiance: float) -> float:
    """Plant output in MW at the cell maximum power point.

    Takes irradiance in [0, 2000] W/m2, and is non-decreasing in it and
    clamped to [0, p_pv_rated].
    """
    g = np.array([irradiance], dtype=float)
    _check_irradiance(g)
    return float(_pv_power(params, g)[0])


def pv_power_series(params: PvParams, irradiance_values) -> np.ndarray:
    """:func:`pv_power` of each irradiance value, as an array.

    Held (repeated) irradiance samples are common after a zero-order-hold
    lookup, so each distinct value is solved once, all in one batch.
    """
    distinct, inverse = np.unique(np.asarray(irradiance_values, dtype=float), return_inverse=True)
    _check_irradiance(distinct)
    return _pv_power(params, distinct)[inverse]


def pv_power_interp(params: PvParams, irradiance_values):
    """Fast approximate power curve for long irradiance series.

    Tabulates :func:`pv_power` on a uniform irradiance grid spanning the
    inputs and interpolates linearly. The power curve is smooth and
    concave-ish in irradiance, so a 1024-point table is accurate to a
    fraction of a kilowatt; use :func:`pv_power` where exactness counts.
    """
    g = np.asarray(irradiance_values, dtype=float)
    if g.size == 0:
        return np.empty(0)
    _check_irradiance(g)
    hi = float(g.max())
    if hi == 0.0:
        return np.zeros(g.shape)
    grid = np.linspace(0.0, hi, 1024)
    return np.interp(g, grid, _pv_power(params, grid))


# ---------------------------------------------------------------------------
# Battery
# ---------------------------------------------------------------------------

def battery_step(
    params: BatteryParams,
    soc: float,
    p_charge: float,
    p_discharge: float,
    dt: float,
) -> float:
    """Advance the SoC (per-unit of capacity) by one step; returns the
    next SoC.

    ``p_charge`` must lie in [-p_max, 0], ``p_discharge`` in [0, p_max],
    and at most one of them may be nonzero. The update is

        soc' = soc - (dt / e_cap) * (eta * p_charge + p_discharge / eta)

    so charging raises the SoC and discharging lowers it, both penalized
    by the inverter efficiency ``eta = params.eta_inv``. A step that would
    exit [e_min, e_max] raises :class:`SocBoundsError` carrying the
    clipped SoC.
    """
    eta = params.eta_inv
    if dt <= 0:
        raise ValueError("dt must be > 0 hours")
    if not (-params.p_max - 1e-9 <= p_charge <= 0.0):
        raise ValueError("p_charge must lie in [-p_max, 0] MW")
    if not (0.0 <= p_discharge <= params.p_max + 1e-9):
        raise ValueError("p_discharge must lie in [0, p_max] MW")
    if abs(p_charge) > 1e-12 and abs(p_discharge) > 1e-12:
        raise ValueError("simultaneous charge and discharge is not allowed")
    soc_next = soc - (dt / params.e_cap) * (eta * p_charge + p_discharge / eta)
    lo, hi = params.e_min, params.e_max
    if soc_next < lo - _SOC_SNAP or soc_next > hi + _SOC_SNAP:
        raise SocBoundsError(soc_next, min(max(soc_next, lo), hi))
    return min(max(soc_next, lo), hi)

