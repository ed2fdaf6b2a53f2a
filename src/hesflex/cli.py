"""Command line front end.

Subcommands:

- ``envelope``      print the flexibility envelope at one PV operating point
- ``track``         dispatch against a regulation signal and settle it
- ``bid-sweep``     seasonal/hourly capacity bids from PV statistics
- ``synth-signal``  write a synthetic regulation signal as CSV

``track`` looks a signal file up at the run step and a PV file at the
signal's timestamps, both by one zero-order hold: each sample holds until
the next, the last one for one cadence.

Exit codes: 0 success, 2 configuration problems (including a step above
one day, irradiance above 2000 W/m2, capacity outside [1e-6, 1e6] MW, a
rating above 1e6 MW, a PV rating below one cell, S2 PV from a flag or the
config above the load rating, or a run or synthetic series above 10**7
steps, 10**6 with ``--oracle``), 3 input data problems (including a file
with fewer than two rows, a timestamp of 2**53 s or more in magnitude, an
all-zero signal file, or a signal file spanning more run steps than the
limit), 4 runtime failures (S2 PV from a file above the load rating, a
non-finite report value, a signal file so small that the score's
capacity * sum |r| underflows, running out of memory).
Reports are deterministic: the same config and seed give identical bytes.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import math
import sys

import numpy as np

from .assets import pv_power, pv_power_interp, pv_power_series
from .config import (
    _MAX_ORACLE_STEPS,
    _MAX_STEPS,
    ConfigError,
    RunConfig,
    build_fleet,
    build_guard,
    config_from_mapping,
    config_mapping,
    parse_config_text,
)
from .data_io import (
    _IRRADIANCE_STEP_S,
    DataFormatError,
    Series,
    _fmt,
    export_trace,
    read_irradiance_csv,
    read_signal_csv,
    report_lines,
    synth_irradiance,
    synth_signal,
    write_signal_csv,
)
from .dispatch import _check_green_pv
from .flexibility import Scenario, envelope
from .market import (
    _SEASONS,
    STATISTICS,
    MarketPrices,
    RegSignal,
    decomposed_bid,
    group_by_season_hour,
    max_flex_bid,
    pv_statistic,
    settle,
)
from .oracle import OracleProblem, rule_objective, solve as solve_oracle
from .simulation import simulate

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_RUNTIME = 4

_CONFIG_PV = "pv.rated_mw/pv.irradiance_wm2"

# Runs x steps per bid-sweep batch: a year's 384 runs of 900 steps make one
# batch, and a long --eval-steps cannot make a batch's columns outgrow ~4 MB.
_SWEEP_BATCH_VALUES = 1 << 19
_SWEEP_COLUMNS = (
    "season", "hour", "statistic", "n_samples",
    "pv_stat_mw", "capacity_mw", "score", "qualified", "payment_usd",
)


@contextlib.contextmanager
def _open_out(path):
    if path is None:
        yield sys.stdout
    else:
        with open(path, "w", newline="") as fh:
            yield fh


def _emit_report(pairs: dict, path) -> None:
    for key, value in pairs.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"report value {key} = {value} is not finite")
    with _open_out(path) as fh:
        fh.write("\n".join(report_lines(pairs)))
        fh.write("\n")


def _configure(args) -> RunConfig:
    mapping: dict[str, str] = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            mapping.update(parse_config_text(fh.read(), args.config))
    for flag, key in (
        ("scenario", "scenario"),
        ("capacity", "market.capacity_mw"),
        ("hours", "signal.hours"),
        ("seed", "signal.seed"),
        ("bias", "signal.bias"),
    ):
        value = getattr(args, flag, None)
        if value is not None:
            mapping[key] = str(value)
    guard = getattr(args, "guard", None)
    if guard is not None:
        mapping["guard.enabled"] = "true" if guard else "false"
    for item in getattr(args, "set", None) or ():
        key, sep, value = item.partition("=")
        if not sep:
            raise ConfigError([f"--set expects key=value, got {item!r}"])
        mapping[key.strip()] = value.strip()
    return config_from_mapping(mapping, getattr(args, "config", None) or "<cli>")


def _hold(series: Series, times: np.ndarray, path) -> np.ndarray:
    """The values of ``series`` at ``times`` by zero-order hold, each
    sample held until the next and the last one for one cadence; a time
    that no sample covers is refused."""
    idx = np.searchsorted(series.timestamps, times, side="right") - 1
    uncovered = np.flatnonzero((idx < 0) | (times >= series.timestamps[-1] + series.cadence))
    if uncovered.size:
        raise DataFormatError(
            f"{path}: no sample covers signal timestamp {int(times[uncovered[0]])}"
        )
    return series.values[idx]


def _load_signal(cfg: RunConfig, path) -> Series:
    """The signal at the run step. A file is held over each of its
    samples' intervals, so its cadence may not be finer than the step."""
    if path:
        series = read_signal_csv(path)
        if series.cadence < cfg.dt_s:
            raise DataFormatError(
                f"{path}: cadence {series.cadence} s is finer than the run step {cfg.dt_s:g} s"
            )
        if not np.any(series.values):
            raise DataFormatError(f"{path}: r is 0 on every row, so no performance score "
                                  "can be computed")
        step = int(cfg.dt_s)
        span = int(series.timestamps[-1]) + series.cadence - int(series.timestamps[0])
        n = -(-span // step)  # the length of the np.arange below
        if n > _MAX_STEPS:
            raise DataFormatError(f"{path}: spans {span} s, {n:,} steps of {step} s,"
                                  f" above the limit of {_MAX_STEPS:,} steps")
        times = np.arange(series.timestamps[0], series.timestamps[-1] + series.cadence, step,
                          dtype=np.int64)
        return Series(times, _hold(series, times, path), step)
    n = int(round(cfg.hours * 3600.0 / cfg.dt_s))
    if n < 2:
        raise ConfigError(["signal.hours gives fewer than two steps"])
    return synth_signal(cfg.seed, n, cadence=cfg.dt_s, bias=cfg.bias)


def _load_pv(cfg: RunConfig, fleet, path, n: int, times=None):
    """PV power per signal step. A PV file is looked up at the signal's
    ``times``; without a clock (a synthetic signal) step k is looked up
    at the file's first timestamp + k * dt_s."""
    if not path:
        p_pv = pv_power(fleet.pv, cfg.irradiance_wm2)
        _check_green_config(cfg, p_pv, _CONFIG_PV)
        return np.full(n, p_pv)
    irr = read_irradiance_csv(path)
    if times is None:
        times = irr.timestamps[0] + np.arange(n) * int(cfg.dt_s)
    return pv_power_series(fleet.pv, _hold(irr, times, path))


def _check_green_config(cfg: RunConfig, p_pv: float, source: str) -> None:
    """S2 cannot use a PV operating point, set by ``source``, that the
    load cannot absorb; that is a configuration error."""
    if cfg.scenario == Scenario.S2.name:
        try:
            _check_green_pv(p_pv, cfg.load_max_mw, source)
        except ValueError as exc:
            raise ConfigError([str(exc)]) from None


def cmd_envelope(args) -> int:
    cfg = _configure(args)
    if args.pv_mw is not None and not (math.isfinite(args.pv_mw) and args.pv_mw >= 0.0):
        raise ConfigError([f"--pv-mw must be a finite power >= 0 MW, got {args.pv_mw}"])
    fleet = build_fleet(cfg)
    if args.pv_mw is not None:
        p_pv, source = args.pv_mw, "--pv-mw"
    else:
        p_pv, source = pv_power(fleet.pv, cfg.irradiance_wm2), _CONFIG_PV
    _check_green_config(cfg, p_pv, source)
    env = envelope(Scenario[cfg.scenario], fleet, p_pv)
    _emit_report(
        {
            "scenario": cfg.scenario,
            "p_pv_mw": p_pv,
            "p0_mw": env.p0,
            "dp_lo_mw": env.dp_lo,
            "dp_hi_mw": env.dp_hi,
            "width_mw": env.width,
        },
        args.out,
    )
    return EXIT_OK


def cmd_synth_signal(args) -> int:
    cfg = _configure(args)
    if args.steps < 1:
        raise ConfigError([f"--steps must be >= 1, got {args.steps}"])
    if args.steps > _MAX_STEPS:
        raise ConfigError([f"--steps = {args.steps} is above the limit of {_MAX_STEPS:,} samples"])
    series = synth_signal(cfg.seed, args.steps, cadence=cfg.dt_s, bias=cfg.bias)
    with _open_out(args.out) as fh:
        write_signal_csv(series, fh)
    return EXIT_OK


def cmd_track(args) -> int:
    cfg = _configure(args)
    guard = build_guard(cfg)  # its containment check names an unusable eta_inv first
    fleet = build_fleet(cfg)
    scenario = Scenario[cfg.scenario]
    series = _load_signal(cfg, args.signal_csv)
    r = series.values
    n = len(r)
    if args.oracle and n > _MAX_ORACLE_STEPS:
        raise ConfigError([f"--oracle on {n:,} steps is above its limit of {_MAX_ORACLE_STEPS:,}"])
    pv = _load_pv(cfg, fleet, args.pv_csv, n, series.timestamps if args.signal_csv else None)
    traj = simulate(fleet, scenario, cfg.capacity_mw * r, pv, cfg.soc0, guard)
    sig = RegSignal(r)
    outcome = settle(
        cfg.capacity_mw, sig, traj.p_hes - traj.p0,
        MarketPrices(cfg.lambda_capacity, cfg.lambda_mileage),
    )
    residual = np.abs(traj.p_hes - ((traj.p_pv - traj.p_curtailed) - traj.p_cl + traj.p_batt))
    env = envelope(scenario, fleet, pv)
    reach = np.maximum(np.abs(env.dp_lo), env.dp_hi)
    pairs: dict[str, object] = dict(config_mapping(cfg))
    pairs.update(
        steps=n,
        performance_score=max(0.0, outcome.score),
        performance_score_raw=outcome.score,
        mileage=outcome.mileage,
        qualified=outcome.qualified,
        payment_usd=outcome.payment,
        soc_final=float(traj.soc[-1]),
        max_balance_residual_mw=float(residual.max()),
        max_flex_bid_mw=max_flex_bid(reach, sig),
    )
    if args.oracle:
        problem = OracleProblem(fleet, cfg.capacity_mw, r, pv, cfg.soc0, scenario)
        sol = solve_oracle(problem)
        rule_obj = rule_objective(problem, traj)
        pairs.update(
            rule_objective_mw=rule_obj,
            oracle_objective_mw=sol.objective,
            oracle_gap_mw=rule_obj - sol.objective,
            oracle_backend=sol.backend,
            oracle_lower_bound_mw=sol.lower_bound,
            oracle_certified=sol.certified_optimal,
        )
    # The report is checked before anything is written.
    _emit_report(pairs, args.out)
    if args.trace:
        export_trace(traj, args.trace, times=series.timestamps, signal=r)
    return EXIT_OK


def bid_sweep_rows(cfg: RunConfig, days: int, eval_steps: int = 900, statistics=None):
    """Capacity bids and scored test tracking per (season, hour) bucket.

    One synthetic PV year (or ``days`` of it) is bucketed by season and
    UTC hour. Each bucket gets one capacity bid per PV statistic, and
    every bid in a bucket is scored against the same evaluation signal
    and the same constant PV (the bucket mean), so within a bucket the
    scores respond to the bid alone.
    """
    if days < 1:
        raise ConfigError(["bid sweep needs at least one day"])
    if eval_steps < 2:
        raise ConfigError(["bid sweep needs at least two evaluation steps"])
    # a synthetic year of irradiance samples, and one evaluation signal per bucket
    samples = days * 86400 // _IRRADIANCE_STEP_S
    if samples > _MAX_STEPS:
        raise ConfigError([f"--days = {days} gives {samples:,} irradiance samples, "
                           f"above the limit of {_MAX_STEPS:,}"])
    buckets = len(_SEASONS) * 24
    if eval_steps * buckets > _MAX_STEPS:
        raise ConfigError([f"--eval-steps = {eval_steps} gives up to {buckets} evaluation "
                           f"signals of that length, above the limit of {_MAX_STEPS:,} samples"])
    if cfg.pv_rated_mw > cfg.load_max_mw + 1e-9:
        raise ConfigError(
            ["bid sweep runs the PV-following mode, which needs pv.rated_mw <= load.p_max_mw"]
        )
    stats = tuple(statistics) if statistics else STATISTICS
    for s in stats:
        if s not in STATISTICS:
            raise ConfigError([f"unknown statistic '{s}'"])
    fleet = build_fleet(cfg)
    irr = synth_irradiance(cfg.seed, days)
    groups = group_by_season_hour(irr.timestamps, pv_power_interp(fleet.pv, irr.values))
    del irr  # freed before the batches, which would otherwise add to its memory
    heads, bids = [], []  # per bid: its row so far, and its capacity
    signals, means = [], []  # per bucket: its evaluation signal and mean PV
    for idx, key in enumerate(list(groups)):  # calendar order
        samples = groups.pop(key)
        signals.append(synth_signal(
            cfg.seed + 7919 * (idx + 1), eval_steps, cadence=cfg.dt_s, full_scale=True
        ).values)
        means.append(np.mean(samples))
        for stat, stat_mw in zip(stats, pv_statistic(samples, stats)):
            bids.append(decomposed_bid(fleet.battery, stat_mw))
            heads.append((*key, stat, samples.size, stat_mw, bids[-1]))
    del samples  # the buckets share one array; the last one would hold all of it
    bucket = np.repeat(np.arange(len(signals)), len(stats))  # each bid's bucket
    bids = np.array(bids)
    signals = np.array(signals)
    means = np.array(means)
    prices = MarketPrices(cfg.lambda_capacity, cfg.lambda_mileage)
    rows = []
    per_batch = max(1, _SWEEP_BATCH_VALUES // eval_steps)
    for lo in range(0, len(heads), per_batch):
        runs = slice(lo, lo + per_batch)
        sig = RegSignal(signals[bucket[runs]])
        requests = bids[runs, None] * sig.values
        pv = np.broadcast_to(means[bucket[runs], None], requests.shape)
        traj = simulate(fleet, Scenario.S2, requests, pv, cfg.soc0)
        delivered = traj.p_hes - traj.p0
        del traj, requests
        out = settle(bids[runs], sig, delivered, prices)
        scored = zip(out.score.tolist(), out.qualified.tolist(), out.payment.tolist())
        rows += [head + tail for head, tail in zip(heads[runs], scored)]
    return rows


def cmd_bid_sweep(args) -> int:
    cfg = _configure(args)
    stats = None if args.statistic == "all" else (args.statistic,)
    rows = bid_sweep_rows(cfg, args.days, args.eval_steps, stats)
    with _open_out(args.out) as fh:
        w = csv.writer(fh)
        w.writerow(_SWEEP_COLUMNS)
        for season, hour, stat, n, stat_mw, bid, score, qualified, pay in rows:
            w.writerow(
                (season, hour, stat, n, _fmt(stat_mw), _fmt(bid),
                 _fmt(score), "true" if qualified else "false", _fmt(pay))
            )
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key = value config file")
    common.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override one config key (repeatable)")
    common.add_argument("--scenario", choices=sorted(Scenario.__members__))
    common.add_argument("--capacity", type=float, help="regulation capacity bid, MW")
    common.add_argument("--hours", type=float, help="synthetic signal duration")
    common.add_argument("--seed", type=int, help="random seed for synthetic inputs")
    common.add_argument("--bias", type=float, help="synthetic signal bias in [-1, 1]")
    guard = common.add_mutually_exclusive_group()
    guard.add_argument("--guard", dest="guard", action="store_true", default=None,
                       help="enable the SoC guard band")
    guard.add_argument("--no-guard", dest="guard", action="store_false", default=None)
    common.add_argument("--out", help="output file (default: stdout)")

    parser = argparse.ArgumentParser(
        prog="hesflex",
        description="Real-time flexibility of a PV + battery + controllable-load plant.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("envelope", parents=[common],
                       help="flexibility envelope at one PV operating point")
    p.add_argument("--pv-mw", type=float, help="PV power (default: from irradiance)")
    p.set_defaults(func=cmd_envelope)

    p = sub.add_parser("track", parents=[common],
                       help="dispatch against a regulation signal and settle it")
    p.add_argument("--signal-csv", help="timestamp,r input (default: synthetic)")
    p.add_argument("--pv-csv", help="timestamp,ghi_wm2 input (default: constant)")
    p.add_argument("--trace", help="write the per-step dispatch trace CSV here")
    p.add_argument("--oracle", action="store_true",
                   help="also solve the offline optimal benchmark in the same scenario")
    p.set_defaults(func=cmd_track)

    p = sub.add_parser("bid-sweep", parents=[common],
                       help="seasonal/hourly capacity bids from PV statistics")
    p.add_argument("--days", type=int, default=365, help="synthetic PV days (default 365)")
    p.add_argument("--eval-steps", type=int, default=900,
                   help="evaluation signal length per bucket (default 900)")
    p.add_argument("--statistic", choices=STATISTICS + ("all",), default="all")
    p.set_defaults(func=cmd_bid_sweep)

    p = sub.add_parser("synth-signal", parents=[common],
                       help="write a synthetic regulation signal as CSV")
    p.add_argument("--steps", type=int, required=True, help="number of samples")
    p.set_defaults(func=cmd_synth_signal)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        for msg in exc.errors:
            print(f"error: {msg}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except MemoryError as exc:
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
