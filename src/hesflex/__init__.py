"""Real-time power flexibility of a PV + battery + controllable-load plant.

The package models one hybrid plant, derives its admissible power
deviation envelope in five operating modes, dispatches the assets
against a regulation signal with rule-based allocation and a
state-of-charge guard, benchmarks the rules against an offline optimal
dispatcher, and settles the result in a pay-for-performance market.
"""

from .assets import (
    AssetFleet,
    BatteryParams,
    LoadParams,
    PvParams,
    SocBoundsError,
    battery_step,
    default_fleet,
    pv_power,
    pv_power_interp,
    pv_power_series,
)
from .config import ConfigError, RunConfig, build_fleet, build_guard, load_config
from .data_io import (
    DataFormatError,
    IrradianceSeries,
    SignalSeries,
    export_report,
    export_trace,
    read_irradiance_csv,
    read_signal_csv,
    read_trace_csv,
    report_lines,
    resample_zoh,
    synth_irradiance,
    synth_signal,
    write_irradiance_csv,
    write_signal_csv,
)
from .dispatch import (
    InfeasibleDispatchError,
    Trajectory,
    allocate,
    allocate_green_load,
    allocate_priority_load,
    validate_records,
)
from .flexibility import FlexEnvelope, Scenario, envelope
from .market import (
    QUALIFICATION_THRESHOLD,
    STATISTICS,
    MarketOutcome,
    MarketPrices,
    RegSignal,
    decomposed_bid,
    group_by_season_hour,
    max_flex_bid,
    mileage,
    payment,
    performance_score,
    pv_statistic,
    settle,
)
from .oracle import (
    OracleProblem,
    OracleSolution,
    RuleOracleComparison,
    certificate_lower_bound,
    compare_with_rule,
)
from .oracle import solve as solve_oracle
from .simulation import simulate
from .soc_guard import GuardConfig, check_band, containment_ratio, guard_power_cap

__version__ = "0.1.0"

__all__ = [
    "AssetFleet",
    "BatteryParams",
    "ConfigError",
    "DataFormatError",
    "FlexEnvelope",
    "GuardConfig",
    "InfeasibleDispatchError",
    "IrradianceSeries",
    "LoadParams",
    "MarketOutcome",
    "MarketPrices",
    "OracleProblem",
    "OracleSolution",
    "PvParams",
    "QUALIFICATION_THRESHOLD",
    "RegSignal",
    "RuleOracleComparison",
    "RunConfig",
    "STATISTICS",
    "Scenario",
    "SignalSeries",
    "SocBoundsError",
    "Trajectory",
    "allocate",
    "allocate_green_load",
    "allocate_priority_load",
    "battery_step",
    "build_fleet",
    "build_guard",
    "certificate_lower_bound",
    "check_band",
    "compare_with_rule",
    "containment_ratio",
    "decomposed_bid",
    "default_fleet",
    "envelope",
    "export_report",
    "export_trace",
    "group_by_season_hour",
    "guard_power_cap",
    "load_config",
    "max_flex_bid",
    "mileage",
    "payment",
    "performance_score",
    "pv_power",
    "pv_power_interp",
    "pv_power_series",
    "pv_statistic",
    "read_irradiance_csv",
    "read_signal_csv",
    "read_trace_csv",
    "report_lines",
    "resample_zoh",
    "settle",
    "simulate",
    "solve_oracle",
    "synth_irradiance",
    "synth_signal",
    "validate_records",
    "write_irradiance_csv",
    "write_signal_csv",
]
