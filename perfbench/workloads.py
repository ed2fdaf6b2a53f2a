"""Seeded inputs and CLI invocations for each benchmark workload.

Inputs are generated here, from the workload seed, with numpy only; the
program under test receives them as CSV files. Every workload is a closed
loop of one caller: a pass runs its invocations one after another through
``hesflex.cli.main``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# 2021-06-21T00:00:00Z: a June day, so the PV file has a long daylight span.
START_EPOCH = 1624233600
TRACK_DT_S = 2
TRACK_STEPS = 43_200  # 24 h at 2 s
IRR_DT_S = 60
SWEEP_DAYS = 365
LONG_STEPS = 7_200  # 4 h at 2 s
LONG_BIASES = (0.3, 0.6)
SHORT_DT_S = 900
SHORT_PER_BIAS = 3
SHORT_BIASES = (-0.5, -0.3, 0.0, 0.3, 0.5)
SHORT_HORIZONS = (20, 120)
SHORT_SOC0 = (0.2, 0.8)
SHORT_SETTINGS = ("battery.e_cap_mwh=2", f"signal.dt_s={SHORT_DT_S}")

WORKLOADS = ("track-day", "bid-sweep-year", "oracle-long", "oracle-short")


@dataclass
class Invocation:
    """One CLI call: its argv and the output files it must write."""

    argv: list[str]
    outputs: dict[str, Path]  # kind ("report", "trace", "sweep") -> path
    meta: dict = field(default_factory=dict)


def _fmt(x: float) -> str:
    return format(float(x), ".15g")


def regulation_signal(rng: np.random.Generator, n: int, bias: float = 0.0,
                      window: int = 450) -> np.ndarray:
    """Mean-reverting random walk reflected at +-1, demeaned per window,
    then shifted by ``bias`` and clipped to [-1, 1]."""
    eps = rng.normal(0.0, 0.05, n)
    x = np.empty(n)
    prev = 0.0
    for k in range(n):
        prev = 0.99 * prev + eps[k]
        if prev > 1.0:
            prev = 2.0 - prev
        elif prev < -1.0:
            prev = -2.0 - prev
        x[k] = prev
    for i in range(0, n, window):
        x[i:i + window] -= x[i:i + window].mean()
    return np.clip(x + bias, -1.0, 1.0)


def june_irradiance(rng: np.random.Generator, n: int) -> np.ndarray:
    """Clear-sky bell from 06:00 to 18:00 UTC times slow cloud noise, W/m2."""
    hod = np.arange(n) * IRR_DT_S / 3600.0
    elevation = np.clip(np.sin(np.pi * (hod - 6.0) / 12.0), 0.0, None)
    innov = rng.normal(0.0, 0.18, n)
    cloud = np.empty(n)
    y = 0.0
    for k in range(n):
        y = 0.995 * y + innov[k]
        cloud[k] = y
    cloud = np.clip(0.75 + 0.25 * cloud, 0.05, 1.0)
    return 1000.0 * elevation * cloud


def write_csv(path: Path, header: str, step_s: int, values) -> None:
    """``timestamp,<header>`` rows from START_EPOCH, no gaps."""
    lines = [f"timestamp,{header}"]
    lines.extend(f"{START_EPOCH + k * step_s},{_fmt(v)}" for k, v in enumerate(values))
    path.write_text("\n".join(lines) + "\n")


def _track_day(rng, work: Path) -> list[Invocation]:
    sig = work / "signal_2s.csv"
    ghi = work / "ghi_60s.csv"
    write_csv(sig, "r", TRACK_DT_S, regulation_signal(rng, TRACK_STEPS))
    n_irr = TRACK_STEPS * TRACK_DT_S // IRR_DT_S  # covers the whole signal
    write_csv(ghi, "ghi_wm2", IRR_DT_S, june_irradiance(rng, n_irr))
    report, trace = work / "track_day.txt", work / "track_day_trace.csv"
    argv = ["track", "--scenario", "S1", "--guard", "--signal-csv", str(sig),
            "--pv-csv", str(ghi), "--trace", str(trace), "--out", str(report)]
    return [Invocation(argv, {"report": report, "trace": trace},
                       {"steps": TRACK_STEPS, "dt_s": TRACK_DT_S, "e_cap_mwh": 5.0, "eta": 0.95,
                        "soc0": 0.5, "guard_band": (0.4, 0.6)})]


def _bid_sweep(seed: int, work: Path) -> list[Invocation]:
    # bid-sweep synthesizes its PV year itself; the seed is its only input.
    sweep = work / "sweep.csv"
    argv = ["bid-sweep", "--days", str(SWEEP_DAYS), "--statistic", "all", "--seed", str(seed),
            "--out", str(sweep)]
    return [Invocation(argv, {"sweep": sweep},
                       {"days": SWEEP_DAYS, "p_max_mw": 5.0,
                        "statistics": ("mean", "p50", "p75", "p95")})]


def _oracle_long(rng, work: Path) -> list[Invocation]:
    out = []
    for bias in LONG_BIASES:
        sig = work / f"signal_long_{bias}.csv"
        write_csv(sig, "r", TRACK_DT_S, regulation_signal(rng, LONG_STEPS, bias))
        report = work / f"oracle_long_{bias}.txt"
        argv = ["track", "--oracle", "--no-guard", "--signal-csv", str(sig),
                "--out", str(report)]
        out.append(Invocation(argv, {"report": report}, {"steps": LONG_STEPS}))
    return out


def _oracle_short(rng, work: Path) -> list[Invocation]:
    # A fixed design, three instances per bias, with the seed drawing the
    # signals. Horizons and soc0 sit at stratum midpoints of their ranges.
    # At the commit that defined the benchmark, which instances stop at the
    # branch-and-bound node limit follows from (bias, horizon, soc0) far
    # more than from the noise, so a fixed design keeps the work per pass
    # steady across seeds. The zero-bias instances take the shortest
    # horizons: whether their greedy pass certifies does depend on the
    # noise, and a short horizon keeps the cost of that switch small.
    biased = [b for b in SHORT_BIASES if b != 0.0]
    m = len(biased) * SHORT_PER_BIAS
    lo, hi = SHORT_HORIZONS
    cases = [(biased[i % len(biased)], lo + (i + 0.5) * (hi - lo) / m) for i in range(m)]
    zero_hi = lo + (hi - lo) / 5
    cases += [(0.0, lo + (i + 0.5) * (zero_hi - lo) / SHORT_PER_BIAS)
              for i in range(SHORT_PER_BIAS)]
    n_cases = len(cases)
    soc_lo, soc_hi = SHORT_SOC0
    out = []
    for i, (bias, horizon) in enumerate(cases):
        n = int(round(horizon))
        soc0 = soc_lo + ((7 * i) % n_cases + 0.5) * (soc_hi - soc_lo) / n_cases
        sig = work / f"signal_short_{i:02d}.csv"
        write_csv(sig, "r", SHORT_DT_S, regulation_signal(rng, n, bias))
        report = work / f"oracle_short_{i:02d}.txt"
        argv = ["track", "--oracle", "--no-guard"]
        for setting in SHORT_SETTINGS + (f"battery.soc0={soc0:.4f}",):
            argv += ["--set", setting]
        argv += ["--signal-csv", str(sig), "--out", str(report)]
        out.append(Invocation(argv, {"report": report}, {"steps": n}))
    return out


def prepare(workload: str, seed: int, work: Path) -> list[Invocation]:
    """Write the workload's input files into ``work``; return its invocations."""
    work.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "track-day":
        return _track_day(rng, work)
    if workload == "bid-sweep-year":
        return _bid_sweep(seed, work)
    if workload == "oracle-long":
        return _oracle_long(rng, work)
    if workload == "oracle-short":
        return _oracle_short(rng, work)
    raise ValueError(f"unknown workload {workload!r}")
