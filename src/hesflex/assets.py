"""Physical models of the hybrid plant assets.

Sign conventions, grid perspective:

- PV generation and battery discharge inject power (MW >= 0).
- The controllable load consumes power (``p_cl`` in MW, >= 0).
- Battery charging power is negative, discharging power positive.
- Battery state of charge (SoC) is per-unit of the pack energy capacity.

Power is MW, energy MWh, duration hours unless a name says otherwise.

The PV maximum-power point has one exact solve: Newton's method on
Python floats, one irradiance at a time (~4-6 us each on a shared 2-core
host). ``pv_power``, ``pv_power_series`` and the table of
``pv_power_interp`` all call it, so every value has the bits of a solve of
that value alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

# Newton stops within 12 passes on the default cell and within 17 on 3,000
# random cells over the ranges of the property test; the cap only bounds
# the loop.
_NEWTON_MAX_STEPS = 100
_SOC_SNAP = 1e-12  # float dust a start SoC may lie outside the battery window
# Highest irradiance the PV model takes, above the 1,361 W/m2 solar
# constant. From ~1e16 W/m2 i*r_s outgrows the junction voltage and the
# output falls to 0; from ~1e155 the diode term overflows.
_IRRADIANCE_MAX_WM2 = 2000.0


def _require_finite(params) -> None:
    """Refuse a NaN or infinite number in a field of ``params``, by name."""
    for f in fields(params):
        value = getattr(params, f.name)
        if isinstance(value, (int, float)) and not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value!r}")


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
        _require_finite(self)
        if self.i_sc_stc < 0:
            raise ValueError("i_sc_stc must be >= 0")
        if self.i_0 <= 0:
            raise ValueError("i_0 must be > 0")
        if self.r_p <= 0 or self.r_s < 0:
            raise ValueError("resistances must satisfy r_p > 0 and r_s >= 0")
        if self.thermal_coeff <= 0:
            raise ValueError("thermal_coeff must be > 0")
        # near v_oc the diode term i_0 * exp(thermal_coeff * v) is ~i_sc
        if not self.i_sc_stc * (_IRRADIANCE_MAX_WM2 / 1000.0) < 1e307 * self.i_0:
            raise ValueError("i_sc_stc / i_0 must be < 5e306: the diode term overflows")
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
        p_cell_w = _cell_mpp_power(base, 1000.0)
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
        _require_finite(self)
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
        _require_finite(self)
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
        _require_finite(self)
        if self.dt <= 0:
            raise ValueError("dt must be > 0 hours")
        alpha, eta = self.dt / self.battery.e_cap, self.battery.eta_inv
        # else battery_step's window truncation of a charge divides by zero
        if _soc_drop(alpha, eta, -1.0) == 0.0:
            raise ValueError("the SoC move per MW of a charging step, dt / e_cap * eta_inv, "
                             "underflows to 0")
        # else a discharge truncated to the window can be a subnormal power that overshoots it
        if _soc_drop(alpha, eta, 1.0) == math.inf:
            raise ValueError("the SoC move per MW of a discharging step, dt / e_cap / eta_inv, "
                             "overflows to inf")


# ---------------------------------------------------------------------------
# PV equivalent circuit
# ---------------------------------------------------------------------------

def _cell_mpp_power(params: PvParams, irradiance: float) -> float:
    """Maximum power point of one cell, in watts.

    Newton's method on p'(v) = 0, started right of the root at
    v_top = min(log1p(i_sc / i_0) / c, i_sc * r_p): each term bounds v_oc
    from above, the first through the diode and the second through r_p.
    With d = c * i_0 * exp(c * v),

        i'  = -d - 1/r_p,    i'' = -c * d
        p'  = i' * (v - 2*r_s*i) + i
        p'' = i'' * (v - 2*r_s*i) + 2*i' * (1 - r_s*i')

    Right of the root p'' and p''' are negative, so each step lowers v and
    stays right of the root. The search ends at the first step that does
    not lower v: there rounding has taken over.
    """
    i_sc = params.i_sc_stc * irradiance / 1000.0
    if i_sc <= 0.0:
        return 0.0
    i_0, c, r_p, r_s = params.i_0, params.thermal_coeff, params.r_p, params.r_s
    v = min(math.log1p(i_sc / i_0) / c, i_sc * r_p)
    for _ in range(_NEWTON_MAX_STEPS):
        e = i_0 * math.expm1(c * v)
        i = i_sc - e - v / r_p
        d = c * (e + i_0)
        di = -d - 1.0 / r_p
        u = v - 2.0 * r_s * i
        v_next = v - (di * u + i) / (-c * d * u + 2.0 * di * (1.0 - r_s * di))
        if not v_next < v:
            break
        v = v_next
    i = i_sc - i_0 * math.expm1(c * v) - v / r_p
    return i * (v - i * r_s)


def _plant_power(params: PvParams, irradiance: float) -> float:
    """Plant output in MW at one irradiance (already range-checked),
    clamped to [0, p_pv_rated]."""
    p_mw = params.eta_pv * params.n_cell * _cell_mpp_power(params, irradiance) * 1e-6
    return 0.0 if p_mw <= 0.0 else params.p_pv_rated if params.p_pv_rated < p_mw else p_mw


def _pv_power(params: PvParams, irradiance: np.ndarray) -> np.ndarray:
    """Plant output in MW at each irradiance (already range-checked)."""
    return np.array([_plant_power(params, g) for g in irradiance.tolist()], dtype=float)


def _check_irradiance(lo: float, hi: float) -> None:
    """Refuse irradiance whose least value ``lo`` or greatest value ``hi``
    lies outside [0, 2000] W/m2; a NaN bound fails too."""
    if not (0.0 <= lo and hi <= _IRRADIANCE_MAX_WM2):
        raise ValueError(f"irradiance must lie in [0, {_IRRADIANCE_MAX_WM2:g}] W/m2")


def pv_power(params: PvParams, irradiance: float) -> float:
    """Plant output in MW at the cell maximum power point.

    Takes irradiance in [0, 2000] W/m2, and is non-decreasing in it and
    clamped to [0, p_pv_rated].
    """
    g = float(irradiance)
    _check_irradiance(g, g)
    return _plant_power(params, g)


def pv_power_series(params: PvParams, irradiance_values) -> np.ndarray:
    """:func:`pv_power` of each irradiance value, as an array.

    Held (repeated) irradiance samples are common after a zero-order-hold
    lookup, so each distinct value is solved once.
    """
    distinct, inverse = np.unique(np.asarray(irradiance_values, dtype=float), return_inverse=True)
    if distinct.size:
        _check_irradiance(distinct[0], distinct[-1])  # sorted, NaN last
    return _pv_power(params, distinct)[inverse]


def pv_power_interp(params: PvParams, irradiance_values):
    """Fast approximate power curve for long irradiance series.

    Tabulates :func:`pv_power` on a uniform irradiance grid spanning the
    inputs and interpolates linearly. The power curve is smooth and
    concave-ish in irradiance, so a 1024-point table is accurate to a
    fraction of a kilowatt; use :func:`pv_power` where exactness counts.
    ``bid-sweep`` uses it for its year of samples: its outputs, and the
    benchmark's reference digests of them, follow the table's values.
    """
    g = np.asarray(irradiance_values, dtype=float)
    if g.size == 0:
        return np.empty(0)
    hi = float(g.max())
    _check_irradiance(float(g.min()), hi)
    if hi == 0.0:
        return np.zeros(g.shape)
    grid = np.linspace(0.0, hi, 1024)
    return np.interp(g, grid, _pv_power(params, grid))


# ---------------------------------------------------------------------------
# Battery
# ---------------------------------------------------------------------------

def _soc_drop(alpha: float, eta: float, p):
    """SoC drop of one step at signed battery power ``p`` (MW, > 0
    discharges), a float or elementwise over an array:
    ``alpha * (eta * min(p, 0) + max(p, 0) / eta)``, alpha = dt / e_cap and
    ``eta`` the inverter efficiency. Every SoC move of the package takes
    these float operations in this order, inline in the scalar hot loops."""
    if isinstance(p, np.ndarray):
        return alpha * (eta * np.where(p > 0.0, 0.0, p) + np.where(p < 0.0, 0.0, p) / eta)
    return alpha * (eta * min(p, 0.0) + max(p, 0.0) / eta)


def _soc_power(alpha: float, eta: float, d):
    """Signed battery power whose :func:`_soc_drop` is ``d``, to rounding:
    ``d / alpha * eta`` for d >= 0 and ``d / (alpha * eta)`` below, a
    float or elementwise over an array."""
    if isinstance(d, np.ndarray):
        return np.where(d >= 0.0, d / alpha * eta, d / (alpha * eta))
    return d / alpha * eta if d >= 0.0 else d / (alpha * eta)


def battery_step(params: BatteryParams, soc: float, p: float,
                 dt: float) -> tuple[float, float]:
    """One physical battery step from the SoC ``soc`` (per-unit of
    capacity) at the requested signed power ``p`` in [-p_max, p_max] MW;
    returns the power delivered and the next SoC.

    The battery cannot push the SoC past its window [e_min, e_max]: a
    request that would is truncated to the :func:`_soc_power` of the drop
    to the window edge, or to 0 from beyond it. Charging (p < 0) then
    raises the SoC and discharging (p > 0) lowers it, both penalized by
    the inverter efficiency ``eta = params.eta_inv``:

        soc' = soc - (dt / e_cap) * (eta * min(p, 0) + max(p, 0) / eta)

    the drop of :func:`_soc_drop`, clamped to the window against float
    dust. A bad ``dt``, a power outside the rating, and a start SoC more
    than 1e-12 outside the window (NaN included) raise ``ValueError``.
    """
    if dt <= 0:
        raise ValueError("dt must be > 0 hours")
    if not (-params.p_max - 1e-9 <= p <= params.p_max + 1e-9):
        raise ValueError(f"battery power {p!r} must lie in [-p_max, p_max] MW")
    lo, hi = params.e_min, params.e_max
    if not (lo - _SOC_SNAP <= soc <= hi + _SOC_SNAP):
        raise ValueError(f"SoC {soc!r} outside the battery window [{lo}, {hi}]")
    alpha = dt / params.e_cap
    eta = params.eta_inv
    if p > 0.0:
        lim = (soc - lo) / alpha * eta
        if p > lim:
            p = max(lim, 0.0)
    elif p < 0.0:
        lim = -(hi - soc) / (alpha * eta)
        if p < lim:
            p = min(lim, 0.0)
    soc_next = soc - alpha * (eta * min(p, 0.0) + max(p, 0.0) / eta)
    return p, min(max(soc_next, lo), hi)
