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
    battery_step,
    pv_power,
    pv_power_interp,
    pv_power_series,
)
from .config import ConfigError, RunConfig, build_fleet, build_guard
from .data_io import (
    DataFormatError,
    Series,
    export_trace,
    read_irradiance_csv,
    read_signal_csv,
    report_lines,
    synth_irradiance,
    synth_signal,
    write_signal_csv,
)
from .dispatch import (
    InfeasibleDispatchError,
    Trajectory,
    allocate,
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
    max_flex_bid,
    mileage,
    payment,
    performance_score,
    pv_statistic,
    settle,
)
from .oracle import OracleProblem, OracleSolution
from .oracle import solve as solve_oracle
from .simulation import simulate
from .soc_guard import GuardConfig, containment_ratio, guard_power_cap

__version__ = "0.1.0"

__all__ = [
    "AssetFleet",
    "BatteryParams",
    "ConfigError",
    "DataFormatError",
    "FlexEnvelope",
    "GuardConfig",
    "InfeasibleDispatchError",
    "LoadParams",
    "MarketOutcome",
    "MarketPrices",
    "OracleProblem",
    "OracleSolution",
    "PvParams",
    "QUALIFICATION_THRESHOLD",
    "RegSignal",
    "RunConfig",
    "STATISTICS",
    "Scenario",
    "Series",
    "Trajectory",
    "allocate",
    "battery_step",
    "build_fleet",
    "build_guard",
    "containment_ratio",
    "decomposed_bid",
    "envelope",
    "export_trace",
    "guard_power_cap",
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
    "report_lines",
    "settle",
    "simulate",
    "solve_oracle",
    "synth_irradiance",
    "synth_signal",
    "validate_records",
    "write_signal_csv",
]
