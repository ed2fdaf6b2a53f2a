"""Run configuration: flat dotted-key files plus CLI overrides.

The file format is one ``key = value`` assignment per line, ``#`` for
comments. All problems in a file are reported together in a single
:class:`ConfigError` rather than one at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

from .assets import _IRRADIANCE_MAX_WM2, AssetFleet, BatteryParams, LoadParams, PvParams
from .flexibility import Scenario
from .soc_guard import GuardConfig, containment_ratio

__all__ = [
    "RunConfig",
    "ConfigError",
    "parse_config_text",
    "config_from_mapping",
    "build_fleet",
    "build_guard",
    "config_mapping",
]


class ConfigError(ValueError):
    """One or more bad keys/values; ``errors`` lists all of them."""

    def __init__(self, errors: list[str]):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


@dataclass(frozen=True)
class RunConfig:
    """Everything a run needs, with the reference plant as defaults."""

    scenario: str = "S1"
    capacity_mw: float = 6.5
    lambda_capacity: float = 10.0
    lambda_mileage: float = 1.0
    hours: float = 1.0
    dt_s: float = 2.0
    seed: int = 0
    bias: float = 0.0
    pv_rated_mw: float = 3.0
    irradiance_wm2: float = 1000.0
    batt_p_max_mw: float = 5.0
    batt_e_cap_mwh: float = 5.0
    eta_inv: float = 0.95
    soc_min: float = 0.1
    soc_max: float = 0.9
    soc0: float = 0.5
    load_max_mw: float = 3.0
    guard_enabled: bool = True
    guard_upper: float = 0.6
    guard_lower: float = 0.4
    guard_buffer: float = 0.02


def _to_bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


# dotted config key -> (RunConfig field, converter)
_KEYS = {
    "scenario": ("scenario", str),
    "market.capacity_mw": ("capacity_mw", float),
    "market.lambda_capacity": ("lambda_capacity", float),
    "market.lambda_mileage": ("lambda_mileage", float),
    "signal.hours": ("hours", float),
    "signal.dt_s": ("dt_s", float),
    "signal.seed": ("seed", int),
    "signal.bias": ("bias", float),
    "pv.rated_mw": ("pv_rated_mw", float),
    "pv.irradiance_wm2": ("irradiance_wm2", float),
    "battery.p_max_mw": ("batt_p_max_mw", float),
    "battery.e_cap_mwh": ("batt_e_cap_mwh", float),
    "battery.eta_inv": ("eta_inv", float),
    "battery.soc_min": ("soc_min", float),
    "battery.soc_max": ("soc_max", float),
    "battery.soc0": ("soc0", float),
    "load.p_max_mw": ("load_max_mw", float),
    "guard.enabled": ("guard_enabled", _to_bool),
    "guard.upper": ("guard_upper", float),
    "guard.lower": ("guard_lower", float),
    "guard.buffer": ("guard_buffer", float),
}

_FIELD_TO_KEY = {field: key for key, (field, _) in _KEYS.items()}

_MAX_DT_S = 86400.0  # one day
# A terawatt, for the capacity and every rating: from ~1e307 MW the score's
# sums overflow, and from ~1e308 MW the envelope's edges and width do
_MAX_MW = 1e6
# A watt: below it the score's C * sum |r| of a short run can underflow to 0
_MIN_CAPACITY_MW = 1e-6
# USD per MW and per MW of mileage. The mileage of a run is at most twice
# its steps, so at the capacity and step limits a payment stays below
# ~2e25 USD; prices near 1e295 would overflow it to inf.
_MAX_PRICE = 1e12
# Run steps, and samples of one synthetic series, in one command. A track
# run peaks at ~145 B of RSS a step (measured at 10**5 and 10**6 steps),
# so this bound keeps one under ~1.5 GB. The exact oracle's solve holds
# every value function V_k, so its memory grows with V_k's breakpoints, not
# only with the steps: ~0.75-0.9 KB a step where V_k has a few breakpoints
# (tracemalloc on 7,200-step default-fleet DP instances: 746-900 B), ~57 KB
# a step where it has ~900 (a 1 h, 0.5 MWh pack at 8 MW: 103 MB traced,
# 161 MB peak RSS against 36 MB without the oracle). The oracle step limit
# fits the first kind in ~1 GB; the DP's own budget on the breakpoints it
# holds (oracle._MAX_BREAKPOINTS_HELD) stops the second with exit 4.
_MAX_STEPS = 10_000_000
_MAX_ORACLE_STEPS = 1_000_000  # track --oracle: ~1 GB more on the default fleet


def parse_config_text(text: str, source: str = "<config>") -> dict[str, str]:
    """Split a config file into raw key/value strings."""
    raw: dict[str, str] = {}
    errors: list[str] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            errors.append(f"{source}:{lineno}: expected 'key = value'")
            continue
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key in raw:
            errors.append(f"{source}:{lineno}: duplicate key '{key}'")
            continue
        raw[key] = value.strip()
    if errors:
        raise ConfigError(errors)
    return raw


def config_from_mapping(mapping: dict[str, str], source: str = "<config>") -> RunConfig:
    """Convert raw strings into a validated RunConfig.

    Unknown keys, unparsable values, and out-of-range settings are all
    collected and raised together.
    """
    errors: list[str] = []
    values = {}
    for key, raw in mapping.items():
        spec = _KEYS.get(key)
        if spec is None:
            errors.append(f"{source}: unknown key '{key}'")
            continue
        field, conv = spec
        try:
            values[field] = conv(raw)
        except ValueError:
            errors.append(f"{source}: bad value for '{key}': {raw!r}")
    cfg = replace(RunConfig(), **values)
    errors.extend(f"{source}: {msg}" for msg in validate(cfg))
    if errors:
        raise ConfigError(errors)
    return cfg


def validate(cfg: RunConfig) -> list[str]:
    """Range checks; returns messages instead of raising."""
    out: list[str] = []
    for key, (name, conv) in _KEYS.items():
        if conv is float and not math.isfinite(getattr(cfg, name)):
            out.append(f"{key} must be finite")
    if cfg.scenario not in Scenario.__members__:
        out.append(f"scenario must be one of {list(Scenario.__members__)}, got '{cfg.scenario}'")
    for name in ("capacity_mw", "hours", "dt_s", "pv_rated_mw", "batt_p_max_mw",
                 "batt_e_cap_mwh", "load_max_mw"):
        if getattr(cfg, name) <= 0:
            out.append(f"{_FIELD_TO_KEY[name]} must be > 0")
    for name in ("lambda_capacity", "lambda_mileage", "irradiance_wm2"):
        if getattr(cfg, name) < 0:
            out.append(f"{_FIELD_TO_KEY[name]} must be >= 0")
    if math.isfinite(cfg.irradiance_wm2) and cfg.irradiance_wm2 > _IRRADIANCE_MAX_WM2:
        out.append(f"pv.irradiance_wm2 must be <= {_IRRADIANCE_MAX_WM2:g} W/m2")
    if 0.0 < cfg.capacity_mw < _MIN_CAPACITY_MW:
        out.append(f"market.capacity_mw must be >= {_MIN_CAPACITY_MW:g} MW")
    for name in ("capacity_mw", "pv_rated_mw", "batt_p_max_mw", "load_max_mw"):
        if math.isfinite(getattr(cfg, name)) and getattr(cfg, name) > _MAX_MW:
            out.append(f"{_FIELD_TO_KEY[name]} must be <= {_MAX_MW:g} MW")
    for name in ("lambda_capacity", "lambda_mileage"):
        if math.isfinite(getattr(cfg, name)) and getattr(cfg, name) > _MAX_PRICE:
            out.append(f"{_FIELD_TO_KEY[name]} must be <= {_MAX_PRICE:g} USD/MW")
    if math.isfinite(cfg.dt_s):
        # Timestamps are whole epoch seconds, so the step must be too.
        if not float(cfg.dt_s).is_integer():
            out.append("signal.dt_s must be a whole number of seconds")
        if cfg.dt_s > _MAX_DT_S:
            out.append(f"signal.dt_s must be <= {_MAX_DT_S:g} s (one day)")
        # the run has round(steps) steps
        steps = cfg.hours * 3600.0 / cfg.dt_s if cfg.dt_s > 0 and math.isfinite(cfg.hours) else 0
        if steps > _MAX_STEPS + 0.5:
            out.append(f"signal.hours / signal.dt_s gives {steps:.3g} steps, "
                       f"above the limit of {_MAX_STEPS:,}")
    if not 0.0 < cfg.eta_inv <= 1.0:
        out.append("battery.eta_inv must lie in (0, 1]")
    if not 0.0 <= cfg.soc_min < cfg.soc_max <= 1.0:
        out.append("need 0 <= battery.soc_min < battery.soc_max <= 1")
    elif not cfg.soc_min <= cfg.soc0 <= cfg.soc_max:
        out.append("battery.soc0 must lie inside [soc_min, soc_max]")
    if cfg.guard_enabled:
        if not cfg.soc_min <= cfg.guard_lower < cfg.guard_upper <= cfg.soc_max:
            out.append("guard band must sit inside the battery window")
        elif not 0.0 < cfg.guard_buffer <= 0.5 * (cfg.guard_upper - cfg.guard_lower):
            out.append("guard.buffer must lie in (0, half the band width]")
    if math.isfinite(cfg.bias) and not -1.0 <= cfg.bias <= 1.0:
        out.append("signal.bias must lie in [-1, 1]")
    if cfg.seed < 0:
        out.append("signal.seed must be >= 0")
    return out


def _battery(cfg: RunConfig) -> BatteryParams:
    return BatteryParams(
        p_max=cfg.batt_p_max_mw,
        e_cap=cfg.batt_e_cap_mwh,
        eta_inv=cfg.eta_inv,
        e_min=cfg.soc_min,
        e_max=cfg.soc_max,
    )


def build_fleet(cfg: RunConfig) -> AssetFleet:
    """The configured plant. Raises ConfigError when ``pv.rated_mw`` is
    below the output of one PV cell, so no whole cell count reaches it, or
    when ``battery.eta_inv`` makes the SoC move per MW of a step underflow
    to 0 or overflow to inf, which ``AssetFleet`` refuses."""
    try:
        pv = PvParams.scaled_to_rating(cfg.pv_rated_mw)
    except ValueError as exc:
        raise ConfigError([f"pv.rated_mw = {cfg.pv_rated_mw:g} is below the output of one "
                           f"PV cell ({exc})"]) from None
    try:
        return AssetFleet(pv, _battery(cfg), LoadParams(p_max=cfg.load_max_mw), cfg.dt_s / 3600.0)
    except ValueError as exc:  # validate() has passed every other field
        raise ConfigError([
            f"battery.eta_inv = {cfg.eta_inv:g} is unusable with battery.e_cap_mwh = "
            f"{cfg.batt_e_cap_mwh:g} and signal.dt_s = {cfg.dt_s:g}: {exc}"
        ]) from None


def build_guard(cfg: RunConfig) -> GuardConfig | None:
    """The configured guard, or None when it is off. Raises ConfigError
    when one step at full power can carry the SoC across the buffer, so
    the taper could not keep it inside the band, or when the run would
    start outside the band."""
    if not cfg.guard_enabled:
        return None
    guard = GuardConfig(cfg.guard_upper, cfg.guard_lower, cfg.guard_buffer)
    errors = []
    ratio = containment_ratio(guard, _battery(cfg), cfg.dt_s / 3600.0)
    if ratio > 1.0:
        errors.append(
            f"guard.buffer = {cfg.guard_buffer:g} cannot contain one signal.dt_s = "
            f"{cfg.dt_s:g} s step at full power (battery.p_max_mw = {cfg.batt_p_max_mw:g}, "
            f"battery.e_cap_mwh = {cfg.batt_e_cap_mwh:g}, battery.eta_inv = {cfg.eta_inv:g}; "
            f"containment ratio {ratio:.3g} > 1)"
        )
    if not cfg.guard_lower <= cfg.soc0 <= cfg.guard_upper:
        errors.append(
            f"battery.soc0 = {cfg.soc0:g} lies outside the guard band [guard.lower, "
            f"guard.upper] = [{cfg.guard_lower:g}, {cfg.guard_upper:g}]; move it inside "
            f"or run with --no-guard"
        )
    if errors:
        raise ConfigError(errors)
    return guard


def config_mapping(cfg: RunConfig) -> dict[str, object]:
    """Dotted-key view of a config, for echoing into reports."""
    return {_FIELD_TO_KEY[f.name]: getattr(cfg, f.name) for f in fields(cfg)}
