"""Command-line interface: exit codes, report shapes, determinism."""

import csv
import dataclasses
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from hesflex import RunConfig, build_fleet, pv_power
from hesflex import cli, config
from hesflex.config import _KEYS
from hesflex.cli import EXIT_CONFIG, EXIT_DATA, EXIT_OK, EXIT_RUNTIME, bid_sweep_rows, main


def _parse_report(text):
    out = {}
    for line in text.strip().splitlines():
        key, _, value = line.partition(" = ")
        out[key] = value
    return out


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_envelope_defaults(capsys):
    code, out, _ = _run(capsys, ["envelope", "--pv-mw", "2.0"])
    assert code == EXIT_OK
    rep = _parse_report(out)
    assert rep["scenario"] == "S1"
    assert float(rep["dp_hi_mw"]) == 6.5
    assert float(rep["p0_mw"]) == 0.5
    assert float(rep["width_mw"]) == 13.0


def test_envelope_scenario_flag(capsys):
    code, out, _ = _run(capsys, ["envelope", "--scenario", "S5", "--pv-mw", "3.0"])
    assert code == EXIT_OK
    rep = _parse_report(out)
    assert float(rep["dp_hi_mw"]) == 8.0
    assert float(rep["dp_lo_mw"]) == -8.0


def test_envelope_pv_from_irradiance(capsys):
    # without --pv-mw the PV operating point comes from the config irradiance
    code, out, _ = _run(capsys, ["envelope", "--set", "pv.irradiance_wm2=1000"])
    assert code == EXIT_OK
    assert float(_parse_report(out)["p_pv_mw"]) == 3.0


def test_synth_signal_writes_csv(tmp_path, capsys):
    path = tmp_path / "sig.csv"
    code, _, _ = _run(capsys, ["synth-signal", "--steps", "50", "--out", str(path)])
    assert code == EXIT_OK
    rows = list(csv.reader(path.open()))
    assert rows[0] == ["timestamp", "r"]
    assert len(rows) == 51


def test_track_synthetic_end_to_end(capsys):
    code, out, _ = _run(capsys, ["track", "--hours", "0.1", "--seed", "3"])
    assert code == EXIT_OK
    rep = _parse_report(out)
    assert rep["qualified"] == "true"
    assert float(rep["performance_score"]) > 0.9
    assert float(rep["max_balance_residual_mw"]) <= 1e-9
    assert int(rep["steps"]) == 180


def test_track_is_deterministic(capsys):
    argv = ["track", "--hours", "0.05", "--seed", "9"]
    _, first, _ = _run(capsys, argv)
    _, second, _ = _run(capsys, argv)
    assert first == second


def test_track_with_oracle(capsys):
    code, out, _ = _run(capsys, ["track", "--hours", "0.05", "--seed", "4", "--oracle"])
    assert code == EXIT_OK
    rep = _parse_report(out)
    assert float(rep["oracle_gap_mw"]) >= -1e-12
    assert float(rep["oracle_objective_mw"]) <= float(rep["rule_objective_mw"]) + 1e-12
    assert rep["oracle_certified"] == "true"


@pytest.mark.parametrize("scenario, argv, rule, oracle", [
    # the green-load band follows the PV; on this small pack the rule
    # leaves most of what could be tracked on the table
    ("S2", "--hours 2 --seed 5 --bias 0.3 --set battery.e_cap_mwh=1",
     "4755.14133031356", "1127.78351566093"),
    ("S5", "--hours 1 --seed 3 --bias 0.6 --capacity 8 --set battery.e_cap_mwh=0.5",
     "3353.06592555466", "2876.77013587277"),
], ids=["S2", "S5"])
def test_track_oracle_in_other_scenarios(capsys, scenario, argv, rule, oracle):
    code, out, _ = _run(capsys, ["track", "--scenario", scenario, "--oracle", "--no-guard",
                                 *argv.split()])
    assert code == EXIT_OK
    rep = _parse_report(out)
    assert (rep["scenario"], rep["rule_objective_mw"], rep["oracle_objective_mw"]) == (
        scenario, rule, oracle)
    assert rep["oracle_backend"] == "exact-dp"
    assert rep["oracle_certified"] == "true"
    assert float(rep["oracle_lower_bound_mw"]) <= float(oracle) * (1.0 + 1e-9)


def test_track_reads_signal_file(tmp_path, capsys):
    sig = tmp_path / "sig.csv"
    _run(capsys, ["synth-signal", "--steps", "90", "--out", str(sig)])
    code, out, _ = _run(capsys, ["track", "--signal-csv", str(sig)])
    assert code == EXIT_OK
    assert int(_parse_report(out)["steps"]) == 90


def test_track_writes_trace(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    code, _, _ = _run(capsys, ["track", "--hours", "0.05", "--trace", str(trace)])
    assert code == EXIT_OK
    k, t, r = np.loadtxt(trace, delimiter=",", skiprows=1, usecols=(0, 1, 2), unpack=True)
    np.testing.assert_array_equal(k, np.arange(90))
    np.testing.assert_array_equal(t, np.arange(0, 180, 2))
    assert np.max(np.abs(r)) <= 1.0


def test_bad_signal_file_is_a_data_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("timestamp,r\n0,2.5\n")
    code, _, err = _run(capsys, ["track", "--signal-csv", str(bad)])
    assert code == EXIT_DATA
    assert "bad.csv" in err


def test_missing_signal_file_is_a_data_error(tmp_path, capsys):
    code, _, _ = _run(capsys, ["track", "--signal-csv", str(tmp_path / "nope.csv")])
    assert code == EXIT_DATA


def test_unknown_config_key_is_a_config_error(capsys):
    code, _, err = _run(capsys, ["envelope", "--set", "battery.p_min_mw=1"])
    assert code == EXIT_CONFIG
    assert "battery.p_min_mw" in err


def test_market_statistic_is_not_a_config_key(capsys):
    # bid-sweep --statistic picks the statistic; the config key is gone
    code, _, err = _run(capsys, ["envelope", "--set", "market.statistic=p75"])
    assert code == EXIT_CONFIG
    assert "unknown key 'market.statistic'" in err


def test_config_errors_are_batched(capsys):
    code, _, err = _run(capsys, [
        "envelope",
        "--set", "battery.p_max_mw=-1",
        "--set", "nope=3",
    ])
    assert code == EXIT_CONFIG
    assert err.count("error:") >= 2


@pytest.mark.parametrize("argv, names", [
    ("track --set market.lambda_capacity=-1", "market.lambda_capacity must be >= 0"),
    ("track --set market.lambda_mileage=-0.5", "market.lambda_mileage must be >= 0"),
    ("envelope --set pv.irradiance_wm2=-1", "pv.irradiance_wm2 must be >= 0"),
    ("track --set battery.soc_min=0.6 --set battery.soc_max=0.6",
     "battery.soc_min < battery.soc_max"),
    ("track --guard --set guard.buffer=0.15", "guard.buffer must lie in"),
    ("track --guard --set guard.buffer=0", "guard.buffer must lie in"),
    ("track --seed -1", "signal.seed must be >= 0"),
    ("track --bias 1.000000001", "signal.bias must lie in [-1, 1]"),
    ("synth-signal --steps 3 --bias -1.000000001", "signal.bias must lie in [-1, 1]"),
    ("track --set signal.bias=1.7976931348623157e+308", "signal.bias must lie in [-1, 1]"),
    ("track --set signal.bias=-1.7976931348623157e+308", "signal.bias must lie in [-1, 1]"),
    ("track --set battery.eta_inv", "--set expects key=value, got 'battery.eta_inv'"),
])
def test_out_of_range_settings_are_config_errors(capsys, argv, names):
    code, _, err = _run(capsys, argv.split())
    assert code == EXIT_CONFIG
    assert names in err


def test_config_line_without_a_value_is_a_config_error(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("scenario = S1\nbattery.eta_inv 0.9\n")
    code, _, err = _run(capsys, ["track", "--config", str(cfgfile)])
    assert code == EXIT_CONFIG
    assert f"{cfgfile}:2: expected 'key = value'" in err


def test_unknown_bid_sweep_statistic_is_a_config_error():
    # the command line offers only the known ones; the library names the other
    with pytest.raises(config.ConfigError, match="unknown statistic 'p99'"):
        bid_sweep_rows(RunConfig(), 1, 40, statistics=["p50", "p99"])


def test_config_file_and_override(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(
        "# reference run\n"
        "market.capacity_mw = 5.0\n"
        "battery.p_max_mw = 4.0\n"
    )
    code, out, _ = _run(capsys, [
        "envelope", "--config", str(cfgfile), "--pv-mw", "2.0",
        "--set", "battery.p_max_mw=3.0",
    ])
    assert code == EXIT_OK
    # load half-width 1.5 on top of the overridden 3 MW battery
    assert float(_parse_report(out)["dp_hi_mw"]) == 4.5


def test_duplicate_config_key_is_reported(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("market.capacity_mw = 5\nmarket.capacity_mw = 6\n")
    code, _, err = _run(capsys, ["envelope", "--config", str(cfgfile)])
    assert code == EXIT_CONFIG
    assert "duplicate" in err


def test_guard_band_violation_is_a_config_error(capsys):
    # a run that would start outside the guard band is refused before it runs
    code, _, err = _run(capsys, ["track", "--hours", "0.01", "--set", "battery.soc0=0.35"])
    assert code == EXIT_CONFIG
    assert "battery.soc0" in err and "guard band" in err
    # the commands that run no guard take the same setting
    for argv in (["envelope"], ["bid-sweep", "--days", "1", "--eval-steps", "4"]):
        code, _, err = _run(capsys, argv + ["--set", "battery.soc0=0.35"])
        assert code == EXIT_OK, err


def test_no_guard_flag_disables_the_band(capsys):
    code, out, _ = _run(capsys, [
        "track", "--hours", "0.01", "--no-guard", "--set", "battery.soc0=0.35",
    ])
    assert code == EXIT_OK
    assert _parse_report(out)["guard.enabled"] == "false"


# Flags that a subcommand does not read: each once exited 0 with the output
# of the run without it (the bid-sweep CSV byte for byte).
@pytest.mark.parametrize("argv, flag", [
    ("bid-sweep --days 1 --scenario S4", "--scenario"),
    ("bid-sweep --days 1 --bias 0.5", "--bias"),
    ("bid-sweep --days 1 --hours 3", "--hours"),
    ("bid-sweep --days 1 --capacity 9", "--capacity"),
    ("bid-sweep --days 1 --guard", "--guard"),
    ("bid-sweep --days 1 --no-guard", "--no-guard"),
    ("envelope --pv-mw 2 --hours 3", "--hours"),
    ("envelope --pv-mw 2 --capacity 9", "--capacity"),
    ("envelope --pv-mw 2 --bias 1", "--bias"),
    ("envelope --pv-mw 2 --seed 4", "--seed"),
    ("envelope --pv-mw 2 --guard", "--guard"),
    ("envelope --pv-mw 2 --no-guard", "--no-guard"),
    ("synth-signal --steps 3 --scenario S1", "--scenario"),
    ("synth-signal --steps 3 --capacity 9", "--capacity"),
    ("synth-signal --steps 3 --hours 3", "--hours"),
    ("synth-signal --steps 3 --guard", "--guard"),
])
def test_a_subcommand_refuses_a_flag_it_does_not_read(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    assert exc.value.code == EXIT_CONFIG
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_the_flags_a_subcommand_reads_still_run(capsys):
    for argv in ("envelope --scenario S1 --pv-mw 2.0",
                 "synth-signal --steps 3 --seed 2 --bias 0.5",
                 "track --hours 0.01 --scenario S2 --capacity 2 --seed 3 --bias 0.1 --no-guard"):
        code, _, err = _run(capsys, argv.split())
        assert code == EXIT_OK, err
    code, out, err = _run(capsys, "bid-sweep --days 1 --eval-steps 4 --seed 3".split())
    assert code == EXIT_OK, err
    assert out != _run(capsys, "bid-sweep --days 1 --eval-steps 4 --seed 4".split())[1]


def test_bid_sweep_csv_shape_and_ordering(capsys):
    code, out, _ = _run(capsys, [
        "bid-sweep", "--days", "3", "--eval-steps", "40", "--seed", "1",
    ])
    assert code == EXIT_OK
    rows = list(csv.reader(out.strip().splitlines()))
    header, body = rows[0], rows[1:]
    assert header == ["season", "hour", "statistic", "n_samples", "pv_stat_mw",
                      "capacity_mw", "score", "qualified", "payment_usd"]
    assert body
    by_bucket = {}
    for row in body:
        by_bucket.setdefault((row[0], row[1]), {})[row[2]] = float(row[5])
    for caps in by_bucket.values():
        assert caps["p50"] <= caps["p75"] <= caps["p95"]


def test_bid_sweep_single_statistic(capsys):
    code, out, _ = _run(capsys, [
        "bid-sweep", "--days", "2", "--eval-steps", "40", "--statistic", "p75",
    ])
    assert code == EXIT_OK
    body = list(csv.reader(out.strip().splitlines()))[1:]
    assert {row[2] for row in body} == {"p75"}


def test_bid_sweep_validates_arguments(capsys):
    code, _, _ = _run(capsys, ["bid-sweep", "--days", "0"])
    assert code == EXIT_CONFIG
    code, _, _ = _run(capsys, ["bid-sweep", "--days", "1", "--eval-steps", "1"])
    assert code == EXIT_CONFIG


# Each of these would need terabytes, so a missing check would fail by
# running out of memory; the generators and the simulation are stubbed out.
def _no_allocation(*args, **kwargs):
    raise AssertionError("a run above the step limit reached the allocation")


@pytest.fixture
def _allocations_forbidden(monkeypatch):
    for name in ("synth_signal", "synth_irradiance", "simulate", "_hold"):
        monkeypatch.setattr(cli, name, _no_allocation)


@pytest.mark.parametrize("argv, names", [
    (["track", "--hours", "1e9"], "signal.hours / signal.dt_s gives 1.8e+12 steps"),
    (["track", "--hours", "1e300", "--set", "signal.dt_s=1"], "signal.hours / signal.dt_s"),
    (["synth-signal", "--steps", str(10**12)], "--steps = 1000000000000 is above"),
    (["bid-sweep", "--days", str(10**9)], "--days = 1000000000 gives 1,440,000,000,000"),
    (["bid-sweep", "--eval-steps", str(10**12)], "--eval-steps = 1000000000000 gives up to 96"),
])
@pytest.mark.usefixtures("_allocations_forbidden")
def test_runs_above_the_step_limit_are_config_errors(capsys, argv, names):
    code, _, err = _run(capsys, argv)
    assert code == EXIT_CONFIG
    assert names in err and "limit of 10,000,000" in err


@pytest.mark.usefixtures("_allocations_forbidden")
def test_signal_file_spanning_past_the_step_limit_is_a_data_error(tmp_path, capsys):
    sig = tmp_path / "sig.csv"
    sig.write_text(f"timestamp,r\n0,0.5\n{2**52},0.5\n")
    code, _, err = _run(capsys, ["track", "--signal-csv", str(sig)])
    assert code == EXIT_DATA
    assert f"sig.csv: spans {2**53} s, {2**52:,} steps of 2 s, above the limit" in err


def test_step_limit_is_inclusive():
    limit_hours = config._MAX_STEPS * 2.0 / 3600.0
    assert not config.validate(RunConfig(hours=limit_hours))
    assert config.validate(RunConfig(hours=limit_hours + 2.0 / 3600.0))


def test_bid_sweep_rows_do_not_depend_on_the_batch_size(monkeypatch):
    cfg = RunConfig(seed=4)
    monkeypatch.setattr(cli, "_SWEEP_BATCH_VALUES", 1 << 30)
    whole = bid_sweep_rows(cfg, 2, 40)
    batches = []
    simulate = cli.simulate

    def counting(fleet, scenario, dp_request, *args):
        batches.append(len(dp_request))
        return simulate(fleet, scenario, dp_request, *args)

    monkeypatch.setattr(cli, "simulate", counting)
    for per_batch in (1, 3, 5):  # 5 runs a batch splits a bucket's 4 statistics
        batches.clear()
        monkeypatch.setattr(cli, "_SWEEP_BATCH_VALUES", per_batch * 40)
        assert bid_sweep_rows(cfg, 2, 40) == whole, per_batch
        full, rest = divmod(len(whole), per_batch)
        assert batches == [per_batch] * full + [rest] * (rest > 0)


def test_a_year_sweep_stays_within_its_memory():
    # traced peak: 42.3 MB with the year's 384 runs as one batch, 26.3 MB in
    # blocks with each season's statistics in one call
    tracemalloc.start()
    try:
        bid_sweep_rows(RunConfig(), 365)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32e6, f"{peak / 1e6:.1f} MB"


def test_non_finite_signal_value_is_a_data_error(tmp_path, capsys):
    sig = tmp_path / "sig.csv"
    sig.write_text("timestamp,r\n0,0.1\n2,nan\n4,0.2\n")
    code, _, err = _run(capsys, ["track", "--signal-csv", str(sig)])
    assert code == EXIT_DATA
    assert "sig.csv:3" in err


def test_non_finite_irradiance_is_a_data_error(tmp_path, capsys):
    ghi = tmp_path / "ghi.csv"
    ghi.write_text("timestamp,ghi_wm2\n0,inf\n60,500\n")
    code, _, err = _run(capsys, ["track", "--hours", "0.01", "--pv-csv", str(ghi)])
    assert code == EXIT_DATA
    assert "ghi.csv:2" in err


def test_infinite_capacity_is_a_config_error(capsys):
    code, _, err = _run(capsys, ["track", "--hours", "0.01", "--capacity", "inf"])
    assert code == EXIT_CONFIG
    assert "market.capacity_mw must be finite" in err


def test_capacity_above_the_ceiling_is_a_config_error(capsys):
    # at 1e308 MW the score's sums overflow and the report would be NaN
    assert _run(capsys, ["track", "--hours", "0.01", "--capacity", "1e6"])[0] == EXIT_OK
    code, _, err = _run(capsys, ["track", "--hours", "0.01", "--capacity", "1e308"])
    assert code == EXIT_CONFIG
    assert "market.capacity_mw must be <= 1e+06 MW" in err


def test_capacity_below_the_floor_is_a_config_error(capsys):
    # at 5e-324 MW the score's C * sum |r| underflowed to 0: ZeroDivisionError
    assert _run(capsys, ["track", "--hours", "0.01", "--capacity", "1e-6"])[0] == EXIT_OK
    code, _, err = _run(capsys, ["track", "--hours", "0.01", "--capacity", "5e-324"])
    assert code == EXIT_CONFIG
    assert "market.capacity_mw must be >= 1e-06 MW" in err


@pytest.mark.parametrize("key", ["pv.rated_mw", "battery.p_max_mw", "load.p_max_mw"])
def test_rating_above_the_ceiling_is_a_config_error(capsys, key):
    # at 1.8e308 MW the envelope's width, the flex bid or the PV was inf or nan
    assert _run(capsys, ["envelope", "--set", f"{key}=1e6"])[0] == EXIT_OK
    code, _, err = _run(capsys, ["envelope", "--set", f"{key}=1.7976931348623157e308"])
    assert code == EXIT_CONFIG
    assert f"{key} must be <= 1e+06 MW" in err


def test_underflowing_score_scale_is_a_runtime_error(tmp_path, capsys):
    # 1e-6 MW times sum |r| = 1e-323 underflows to 0; it was a ZeroDivisionError
    path = tmp_path / "sig.csv"
    path.write_text("timestamp,r\n0,5e-324\n2,5e-324\n")
    code, _, err = _run(capsys, ["track", "--no-guard", "--capacity", "1e-6",
                                 "--signal-csv", str(path)])
    assert code == EXIT_RUNTIME
    assert err == "error: performance score undefined: capacity * sum |r| underflows to 0\n"


@pytest.mark.parametrize("key", ["market.lambda_capacity", "market.lambda_mileage"])
def test_price_above_the_ceiling_is_a_config_error(capsys, key):
    # at 1e308 USD/MW the payment overflowed to inf after the whole run
    assert _run(capsys, ["track", "--hours", "0.01", "--capacity", "1e6",
                         "--set", f"{key}=1e12"])[0] == EXIT_OK
    code, _, err = _run(capsys, ["track", "--hours", "0.01", "--set", f"{key}=1e308"])
    assert code == EXIT_CONFIG
    assert f"{key} must be <= 1e+12 USD/MW" in err


# A warning turned into an error escapes main as a traceback: numpy may not
# warn about the overflow on stderr ahead of the one error line.
@pytest.mark.filterwarnings("error")
def test_non_finite_report_value_is_a_runtime_error(monkeypatch, tmp_path, capsys):
    # no accepted price or capacity overflows the payment, so settle is
    # made to return an overflowed one
    settle = cli.settle
    monkeypatch.setattr(cli, "settle",
                        lambda *args: dataclasses.replace(settle(*args), payment=math.inf))
    trace = tmp_path / "trace.csv"
    code, out, err = _run(capsys, ["track", "--hours", "0.1", "--trace", str(trace)])
    assert code == EXIT_RUNTIME
    assert err == "error: report value payment_usd = inf is not finite\n"
    assert out == "" and not trace.exists()


def test_oracle_runs_above_their_step_limit_are_config_errors(monkeypatch, capsys):
    """The exact oracle needs ~0.9 KB a step on the default fleet, and more
    where its value functions have many breakpoints, so ``--oracle`` has its
    own step limit; a run above it is refused before anything is simulated."""
    monkeypatch.setattr(cli, "simulate", _no_allocation)
    monkeypatch.setattr(cli, "_MAX_ORACLE_STEPS", 17)
    code, _, err = _run(capsys, ["track", "--hours", "0.01", "--oracle"])  # 18 steps
    assert code == EXIT_CONFIG
    assert "--oracle on 18 steps is above its limit of 17" in err
    assert config._MAX_ORACLE_STEPS == 1_000_000


def test_out_of_memory_is_a_runtime_error(monkeypatch, capsys):
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 6.4 TiB for an array")

    monkeypatch.setattr(cli, "simulate", exhausted)
    code, _, err = _run(capsys, ["track", "--hours", "0.01"])
    assert code == EXIT_RUNTIME
    assert err == "error: out of memory: Unable to allocate 6.4 TiB for an array\n"


def test_nan_config_value_is_a_config_error(capsys):
    code, _, err = _run(capsys, ["track", "--hours", "0.01", "--set", "battery.e_cap_mwh=nan"])
    assert code == EXIT_CONFIG
    assert "battery.e_cap_mwh must be finite" in err


def _signal_and_ghi(tmp_path, ghi_start, ghi_step, ghi_values):
    sig = tmp_path / "sig.csv"
    sig.write_text("timestamp,r\n" + "".join(f"{2 * k},0.1\n" for k in range(30)))
    ghi = tmp_path / "ghi.csv"
    ghi.write_text("timestamp,ghi_wm2\n" + "".join(
        f"{ghi_start + ghi_step * k},{g}\n" for k, g in enumerate(ghi_values)))
    return sig, ghi


def test_pv_file_must_cover_the_signal_clock(tmp_path, capsys):
    sig, ghi = _signal_and_ghi(tmp_path, 10**6, 60, [800.0] * 10)
    code, _, err = _run(capsys, ["track", "--signal-csv", str(sig), "--pv-csv", str(ghi)])
    assert code == EXIT_DATA
    assert "signal timestamp 0" in err


def test_pv_is_looked_up_at_the_signal_timestamps(tmp_path, capsys):
    # a 1 s PV file against a 2 s signal: step k sees the sample at t = 2k
    sig, ghi = _signal_and_ghi(tmp_path, 0, 1, [10.0 * k for k in range(60)])
    trace = tmp_path / "trace.csv"
    code, _, _ = _run(capsys, ["track", "--signal-csv", str(sig), "--pv-csv", str(ghi),
                               "--trace", str(trace)])
    assert code == EXIT_OK
    rows = list(csv.DictReader(trace.read_text().splitlines()))
    fleet = build_fleet(RunConfig())
    expect = [pv_power(fleet.pv, 10.0 * float(row["t"])) for row in rows]
    np.testing.assert_allclose([float(row["p_pv"]) for row in rows], expect, rtol=1e-14)


def test_pv_without_a_signal_clock_is_read_at_the_run_step(tmp_path, capsys):
    # a 1 s PV ramp against a synthetic 2 s signal: step k sees the sample at t = 2k
    ghi = tmp_path / "ghi.csv"
    ghi.write_text("timestamp,ghi_wm2\n" + "".join(f"{k},{k / 4}\n" for k in range(3600)))
    trace = tmp_path / "trace.csv"
    code, _, _ = _run(capsys, ["track", "--hours", "1", "--no-guard", "--pv-csv", str(ghi),
                               "--trace", str(trace)])
    assert code == EXIT_OK
    rows = list(csv.DictReader(trace.read_text().splitlines()))
    assert len(rows) == 1800
    fleet = build_fleet(RunConfig())
    expect = [pv_power(fleet.pv, float(row["t"]) / 4) for row in rows]
    np.testing.assert_allclose([float(row["p_pv"]) for row in rows], expect, rtol=1e-14)


def test_trace_writes_times_past_10_to_the_15_whole(tmp_path, capsys):
    # 15 significant digits used to print t = 10**15 + 2k as 1e+15 and
    # 1.00000000000001e+15
    times = [10**15 + 2 * k for k in range(6)]
    sig = tmp_path / "sig.csv"
    sig.write_text("timestamp,r\n" + "".join(f"{t},0.1\n" for t in times))
    trace = tmp_path / "trace.csv"
    code, _, _ = _run(capsys, ["track", "--signal-csv", str(sig), "--trace", str(trace)])
    assert code == EXIT_OK
    assert [row["t"] for row in csv.DictReader(trace.read_text().splitlines())] == [
        str(t) for t in times]


def test_uneven_signal_timestamps_are_a_data_error(tmp_path, capsys):
    sig = tmp_path / "sig.csv"
    sig.write_text("timestamp,r\n" + "".join(f"{t},0.1\n" for t in (0, 2, 4, 102, 104)))
    code, _, err = _run(capsys, ["track", "--signal-csv", str(sig)])
    assert code == EXIT_DATA
    assert "sig.csv:5" in err


def test_guard_that_cannot_contain_the_step_is_a_config_error(capsys):
    # at 120 s one full-power step moves the SoC 1.75 buffers
    code, _, err = _run(capsys, ["track", "--guard", "--hours", "1",
                                 "--set", "signal.dt_s=120"])
    assert code == EXIT_CONFIG
    assert "signal.dt_s" in err and "guard.buffer" in err


def test_guard_on_an_underflowing_efficiency_is_a_config_error(capsys):
    # eta_inv * e_cap underflows to 0, so one discharge step is unbounded
    code, _, err = _run(capsys, ["track", "--hours", "0.01", "--set", "battery.eta_inv=5e-324",
                                 "--set", "battery.e_cap_mwh=0.5"])
    assert code == EXIT_CONFIG
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "battery.eta_inv" in err and "containment ratio inf" in err


_UNDERFLOW = "--set battery.eta_inv=5e-324"
_OVERFLOW = "--set battery.eta_inv=2.2250738585e-313 --set battery.e_cap_mwh=0.5"


@pytest.mark.parametrize("argv, fault", [
    (f"track --hours 0.1 --no-guard {_UNDERFLOW}", "underflows to 0"),
    (f"track --hours 0.1 --no-guard --oracle {_UNDERFLOW}", "underflows to 0"),
    (f"bid-sweep --days 1 {_UNDERFLOW}", "underflows to 0"),
    (f"track --hours 0.1 --no-guard {_OVERFLOW}", "overflows to inf"),
    (f"track --hours 0.1 --no-guard --oracle {_OVERFLOW}", "overflows to inf"),
    (f"bid-sweep --days 1 {_OVERFLOW}", "overflows to inf"),
    # guarded, and the guard contains the step: the fleet check still refuses it
    ("track --hours 0.01 --set signal.dt_s=1 --set battery.e_cap_mwh=1e308 "
     "--set battery.eta_inv=5e-13", "underflows to 0"),
])
def test_unusable_efficiency_is_a_config_error(capsys, argv, fault):
    # simulate would refuse the SoC move per MW of a step after the set-up
    code, _, err = _run(capsys, argv.split())
    assert code == EXIT_CONFIG
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "battery.eta_inv" in err and fault in err


def test_pv_rating_below_one_cell_is_a_config_error(capsys):
    # one cell gives ~1.6e-6 MW at 1000 W/m2, so no whole cell count reaches this
    code, _, err = _run(capsys, ["envelope", "--set", "pv.rated_mw=1e-300"])
    assert code == EXIT_CONFIG
    assert "pv.rated_mw" in err


def test_all_zero_signal_file_is_a_data_error(tmp_path, capsys):
    zero = tmp_path / "zero.csv"
    zero.write_text("timestamp,r\n0,0\n2,0\n4,0\n")
    code, _, err = _run(capsys, ["track", "--signal-csv", str(zero)])
    assert code == EXIT_DATA
    assert "zero.csv" in err


@pytest.mark.parametrize("argv, source", [
    ("envelope --scenario S2 --pv-mw 3.5", "--pv-mw"),
    ("envelope --scenario S2 --set pv.rated_mw=3.5", "pv.rated_mw"),
    ("track --scenario S2 --hours 0.01 --set pv.rated_mw=3.5", "pv.rated_mw"),
])
def test_green_load_pv_above_the_load_is_a_config_error(capsys, argv, source):
    code, _, err = _run(capsys, argv.split())
    assert code == EXIT_CONFIG
    assert source in err and "green-load" in err


def test_green_load_pv_rating_is_usable_below_full_sun(tmp_path, capsys):
    # the same 3.5 MW rating gives less than the 3 MW load at 500 W/m2
    argv = "track --scenario S2 --hours 0.01 --set pv.rated_mw=3.5".split()
    code, _, _ = _run(capsys, argv + ["--set", "pv.irradiance_wm2=500"])
    assert code == EXIT_OK
    # a PV file above the load is data the run reaches step by step
    ghi = tmp_path / "ghi.csv"
    ghi.write_text("timestamp,ghi_wm2\n0,1000\n60,1000\n")
    code, _, err = _run(capsys, argv + ["--pv-csv", str(ghi)])
    assert code == EXIT_RUNTIME
    assert "step 0: green-load" in err


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
def test_bad_pv_argument_is_a_config_error(capsys, value):
    code, _, err = _run(capsys, ["envelope", "--pv-mw", value])
    assert code == EXIT_CONFIG
    assert "--pv-mw" in err


def test_zero_signal_steps_is_a_config_error(capsys):
    code, _, err = _run(capsys, ["synth-signal", "--steps", "0"])
    assert code == EXIT_CONFIG
    assert "--steps" in err


def test_fractional_signal_step_is_a_config_error(tmp_path, capsys):
    # timestamps are whole seconds: a 2.5 s step would be written as 0, 2, 4, ...
    code, _, err = _run(capsys, ["track", "--hours", "0.01", "--set", "signal.dt_s=2.5",
                                 "--trace", str(tmp_path / "trace.csv")])
    assert code == EXIT_CONFIG
    assert "signal.dt_s" in err


def test_one_row_signal_file_is_a_data_error(tmp_path, capsys):
    # it used to read as a cadence of 0 s, "finer than the run step"
    sig = tmp_path / "sig.csv"
    sig.write_text("timestamp,r\n0,0.5\n")
    code, _, err = _run(capsys, ["track", "--signal-csv", str(sig)])
    assert code == EXIT_DATA
    assert err == f"error: {sig}: needs two data rows to set the cadence, got 1\n"


@pytest.mark.parametrize("rows", [("1e20", "2e20"), ("-1e19", "-9e18")])
@pytest.mark.parametrize("flag, column", [("--signal-csv", "r"), ("--pv-csv", "ghi_wm2")])
def test_timestamp_overflow_is_a_data_error(tmp_path, capsys, rows, flag, column):
    # these used to exit 1 with an OverflowError traceback
    path = tmp_path / "in.csv"
    path.write_text(f"timestamp,{column}\n" + "".join(f"{t},0.5\n" for t in rows))
    code, _, err = _run(capsys, ["track", "--hours", "0.01", flag, str(path)])
    assert code == EXIT_DATA
    assert err.startswith(f"error: {path}:2: timestamp {rows[0]} ") and err.count("\n") == 1


def test_step_above_one_day_is_a_config_error(capsys):
    code, _, err = _run(capsys, ["synth-signal", "--steps", "3", "--set", "signal.dt_s=1e300"])
    assert code == EXIT_CONFIG
    assert err == "error: <cli>: signal.dt_s must be <= 86400 s (one day)\n"


@pytest.mark.parametrize("argv", [
    ["envelope", "--set", "pv.irradiance_wm2=1e300"],
    ["track", "--hours", "0.01", "--set", "pv.irradiance_wm2=2000.5"],
])
def test_irradiance_above_the_pv_model_range_is_a_config_error(capsys, argv):
    code, _, err = _run(capsys, argv)
    assert code == EXIT_CONFIG
    assert err == "error: <cli>: pv.irradiance_wm2 must be <= 2000 W/m2\n"


def test_irradiance_above_the_pv_model_range_is_a_data_error(tmp_path, capsys):
    ghi = tmp_path / "ghi.csv"
    ghi.write_text("timestamp,ghi_wm2\n0,1e308\n60,500\n")
    code, _, err = _run(capsys, ["track", "--hours", "0.01", "--pv-csv", str(ghi)])
    assert code == EXIT_DATA
    assert "ghi.csv: row with timestamp 0 has irradiance 1e+308 W/m2" in err


# ---------------------------------------------------------------------------
# fuzz: whatever the files and settings, a documented exit code and at most
# one error line
# ---------------------------------------------------------------------------

_NUMBER = st.one_of(
    st.floats(),  # nan, +-inf and everything up to +-1.8e308
    st.floats(-1.5, 1.5),
    st.floats(0.0, 2500.0),
    st.integers(-(2**70), 2**70),
    st.sampled_from([0, -0.0, 5e-324, 1e300, 2**53, -(2**63), 10**20]),
)
_JUNK = st.sampled_from(["", " ", "abc", "1e", "0x10", "true"])


def _text(x) -> str:
    return repr(x) if isinstance(x, float) else str(x)


_SMALL = st.integers(-10**4, 10**4)
_T0 = st.shared(st.one_of(_SMALL, _SMALL, _NUMBER), key="t0")


@st.composite
def _csv(draw, header, value):
    """A header and up to eight rows at one cadence from a first
    timestamp that may be anything, often shared by the two files. The
    cadence is at most 120 s, so a file that reads is a short run (how
    many steps a long cadence expands to is not bounded yet, which is
    about memory, not exit codes). One row may be blank, off the cadence,
    have the wrong column count, or hold junk or any number, or the header
    may be wrong."""
    t0 = draw(st.one_of(_T0, _T0, _T0, _NUMBER))
    step = draw(st.one_of(st.sampled_from([2, 2, 2, 4, 60, 1, 0, -2, 2.5]),
                          st.integers(-3, 120)))
    broken = draw(st.one_of(st.none(), st.none(), st.integers(0, 7)))
    shape = draw(st.sampled_from(["value", "blank", "off", "one", "three", "junk", "header"]))
    lines = [header]
    for k in range(draw(st.one_of(st.integers(2, 8), st.integers(0, 8)))):
        try:
            t = t0 + k * step
        except OverflowError:  # an int beyond the float range plus a float
            t = t0
        cells = [_text(t), _text(draw(value))]
        if k != broken:
            pass
        elif shape == "value":
            cells[1] = _text(draw(_NUMBER))
        elif shape == "header":
            lines[0] = "time,value"
        elif shape == "blank":
            cells = [""]
        elif shape == "off":
            cells[0] = _text(draw(_NUMBER))
        elif shape == "one":
            cells = cells[:1]
        elif shape == "three":
            cells.append("1")
        else:
            cells[draw(st.integers(0, 1))] = draw(_JUNK)
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


_SET = st.tuples(
    # a long synthetic run (signal.hours) is left out for the same reason
    st.sampled_from(sorted(set(_KEYS) - {"signal.hours"}) + ["nope"]),
    st.one_of(_NUMBER.map(_text), _JUNK, st.sampled_from(["S3", "S9", "p95", "off"])),
).map(lambda kv: "=".join(kv))


@st.composite
def _argv(draw):
    """A command line; SIG and GHI stand for the two files."""
    command = draw(st.sampled_from(["track", "track", "track", "synth-signal", "envelope"]))
    argv = [command]
    if command == "track":
        for flag, path in draw(st.sampled_from([
                [("--signal-csv", "SIG")], [("--pv-csv", "GHI")],
                [("--signal-csv", "SIG"), ("--pv-csv", "GHI")]])):
            argv += [flag, path]
    elif command == "synth-signal":
        argv += ["--steps", str(draw(st.integers(-1, 40)))]
    elif draw(st.booleans()):
        argv.append(f"--pv-mw={_text(draw(_NUMBER))}")  # "-inf" is no option
    for item in draw(st.one_of(st.just([]), st.lists(_SET, max_size=2))):
        argv += ["--set", item]
    return argv


_OK_SIG = "timestamp,r\n0,0.5\n2,0.2\n"
_OK_GHI = "timestamp,ghi_wm2\n0,500\n60,600\n"


# Inputs that once exited 1 with an OverflowError traceback.
@example(sig="timestamp,r\n1e20,0.5\n2e20,0.2\n", ghi=_OK_GHI, argv=["track", "--signal-csv", "SIG"])
@example(sig=_OK_SIG, ghi="timestamp,ghi_wm2\n-1e19,500\n-9e18,500\n",
         argv=["track", "--pv-csv", "GHI"])
@example(sig=_OK_SIG, ghi=_OK_GHI, argv=["synth-signal", "--steps", "3", "--set", "signal.dt_s=1e300"])
@example(sig=_OK_SIG, ghi=_OK_GHI, argv=["envelope", "--set", "pv.irradiance_wm2=1e300"])
@example(sig=_OK_SIG, ghi="timestamp,ghi_wm2\n0,1e308\n2,500\n",
         argv=["track", "--signal-csv", "SIG", "--pv-csv", "GHI"])
@pytest.mark.filterwarnings("error::RuntimeWarning")  # numpy would warn ahead of the error line
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(sig=_csv("timestamp,r", st.floats(-1.0, 1.0)),
       ghi=_csv("timestamp,ghi_wm2", st.floats(0.0, 1500.0)), argv=_argv())
def test_malformed_input_exits_with_a_documented_code(tmp_path, capsys, sig, ghi, argv):
    files = {"SIG": tmp_path / "sig.csv", "GHI": tmp_path / "ghi.csv"}
    files["SIG"].write_text(sig)
    files["GHI"].write_text(ghi)
    argv = [str(files.get(arg, arg)) for arg in argv]
    code = main(argv + ["--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_DATA, EXIT_RUNTIME)
    assert (code == EXIT_OK) == (err == ""), err
    # config errors come batched, one line each; anything else is one line
    lines = err.splitlines(keepends=True)
    assert all(line.startswith("error: ") and line.endswith("\n") for line in lines), err
    assert len(lines) <= (len(argv) if code == EXIT_CONFIG else 1), err


# ---------------------------------------------------------------------------
# edges: well-formed settings at the ends of every validated range run, or
# are refused as a configuration, never a runtime failure
# ---------------------------------------------------------------------------

_TINY, _HUGE = 5e-324, sys.float_info.max
# per key: the values at the ends of its validated range; the SoC and guard
# keys, whose ranges hang on each other, are drawn in _edge_argv
_EDGES = {
    "scenario": ["S1", "S2", "S3", "S4", "S5"],
    "market.capacity_mw": [1e-6, 1e6],
    "market.lambda_capacity": [0.0, 1e12],
    "market.lambda_mileage": [0.0, 1e12],
    "signal.dt_s": [1.0, 86400.0],
    "signal.seed": [0, 2**128],
    "signal.bias": [-1.0, 1.0],
    "pv.rated_mw": [_TINY, 1e6],
    "pv.irradiance_wm2": [0.0, 2000.0],
    "battery.p_max_mw": [_TINY, 1e6],
    "battery.e_cap_mwh": [_TINY, _HUGE],
    "battery.eta_inv": [_TINY, 1.0],
    "load.p_max_mw": [_TINY, 1e6],
    "battery.soc_min": [0.0],
    "battery.soc_max": [1.0],
    "guard.enabled": [False],
}


@st.composite
def _edge_argv(draw):
    """A command and, per key, its default or, one time in three, an end of
    its validated range given the keys drawn before it: the SoC window
    inside [0, 1], the guard band inside the window, the buffer in (0,
    half the band], soc0 in the window or, with the guard on, on an edge
    of the band or of the window (a start outside the band is a
    configuration error). The run lasts 2 or
    3 steps or none (``signal.hours`` at its least), or a day of
    ``bid-sweep``."""
    command = draw(st.sampled_from(["track", "track --oracle", "envelope", "synth-signal",
                                    "bid-sweep"]))
    argv = command.split()
    defaults = RunConfig()

    def pick(key, edges):
        default = getattr(defaults, _KEYS[key][0])
        return draw(st.sampled_from(edges)) if draw(st.integers(0, 2)) == 0 else default

    cfg = {key: pick(key, edges) for key, edges in _EDGES.items()}
    lo, hi = cfg["battery.soc_min"], cfg["battery.soc_max"]
    if cfg["guard.enabled"]:
        cfg["guard.lower"] = lo = pick("guard.lower", [lo])
        cfg["guard.upper"] = hi = pick("guard.upper", [hi])
        cfg["guard.buffer"] = pick("guard.buffer", [_TINY, 0.5 * (hi - lo)])
        cfg["battery.soc0"] = draw(st.sampled_from([lo, hi, cfg["battery.soc_min"],
                                                     cfg["battery.soc_max"]]))
    else:
        cfg["battery.soc0"] = pick("battery.soc0", [lo, hi])
    steps = draw(st.sampled_from([0, 2, 3]))
    cfg["signal.hours"] = steps * float(cfg["signal.dt_s"]) / 3600.0 or _TINY
    if command == "synth-signal":
        argv += ["--steps", str(max(steps, 1))]
    elif command == "bid-sweep":
        argv += ["--days", "1", "--eval-steps", "4", "--statistic", "p50"]
    for key, value in cfg.items():
        argv += ["--set", f"{key}={_text(value) if isinstance(value, float) else value}"]
    return argv


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(argv=_edge_argv())
def test_settings_at_the_edges_of_their_ranges_run_or_are_config_errors(tmp_path, capsys, argv):
    """Well-formed settings run (exit 0) or are refused as a configuration
    (exit 2), never a runtime failure and never a traceback."""
    code = main(argv + ["--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code in (EXIT_OK, EXIT_CONFIG), err
    assert (code == EXIT_OK) == (err == ""), err
