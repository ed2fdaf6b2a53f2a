#!/usr/bin/env python3
"""Benchmark of the hesflex command line, end to end and layer by layer.

    python3 perfbench/run.py --workload track-day --seed 1 --seconds 30 --trace 0

Run from the repository root. The package is imported from ``src/`` and
driven in-process through ``hesflex.cli.main``, one invocation at a time.

``--trace 0`` times passes of the workload with tracing off and reports the
end-to-end metrics (setup_s, wall_s, peak_rss_mb, success_rate); the times
are normalised to the host's speed (hostspeed.py). ``--trace 1``
times untraced and traced passes and reports the per-layer metrics (see
tracer.py). Units come from BENCHMARK.json. Every output is checked
(checks.py); the last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# Single-threaded numpy in this process and in every child it starts; set
# before the first numpy import below.
os.environ["OMP_NUM_THREADS"] = "1"
os.environ["OPENBLAS_NUM_THREADS"] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import hostspeed  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SETUP_REPEATS = 9
SETUP_EXPECT_S = 0.3  # sizes the calibration around the first fresh start
TRACE_MIN_PASSES = 2  # in each half of a traced run
CHILD_TIMEOUT_S = 150
SETUP_ARGV = ["envelope", "--scenario", "S1", "--pv-mw", "2.0"]
# S1 at 2 MW PV on the default fleet: p0 = 2 - 3/2, reach = 5 + 3/2.
SETUP_EXPECT = {"p0_mw": 0.5, "dp_lo_mw": -6.5, "dp_hi_mw": 6.5}
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); from hesflex.cli import main; "
    f"sys.exit(main({SETUP_ARGV!r}))"
)


def load_cli():
    """Import ``hesflex.cli`` from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "hesflex" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no hesflex package under {SRC}")
    sys.path.insert(0, str(SRC))
    import hesflex.cli

    if Path(hesflex.cli.__file__).resolve().parent != SRC / "hesflex":
        raise SystemExit(f"perfbench: imported hesflex from {hesflex.cli.__file__}")
    return hesflex.cli


def call_main(cli, argv: list[str]) -> int:
    """One CLI invocation; an exception is a failed operation, not a crash."""
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse rejected the arguments
        return exc.code if isinstance(exc.code, int) else 2
    except Exception:
        traceback.print_exc()
        return -1


def child(plan: Path) -> int:
    """Fresh-process pass: run the planned invocations, report peak RSS."""
    cli = load_cli()
    argvs = json.loads(plan.read_text())
    gc.collect()
    rcs, walls = [], []
    for argv in argvs:
        t0 = time.perf_counter()
        rcs.append(call_main(cli, argv))
        walls.append(time.perf_counter() - t0)
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"rcs": rcs, "maxrss_kb": maxrss_kb, "walls": walls}))
    return 0


class Outputs:
    """Checks every invocation's outputs and keeps the operation counts.

    The first successful pass of an invocation gets the full checks; later
    passes must reproduce its output bytes exactly.
    """

    def __init__(self, invs, refs: list[dict] | None):
        self.invs, self.refs = invs, refs
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.hashes: list[dict | None] = [None] * len(invs)
        self.oracle: dict[int, tuple[float, float, bool, str]] = {}

    def check(self, rcs: list[int], label: str) -> None:
        for i, (inv, rc) in enumerate(zip(self.invs, rcs)):
            self.attempted += 1
            bad = self._check_one(i, inv, rc)
            if bad:
                self.failed += 1
                self.problems.append(f"{label} invocation {i} ({' '.join(inv.argv[:2])}): "
                                     + "; ".join(bad))

    def _check_one(self, i: int, inv, rc: int) -> list[str]:
        if rc != 0:
            return [f"exit code {rc}"]
        missing = [str(p) for p in inv.outputs.values() if not p.is_file()]
        if missing:
            return [f"missing outputs {missing}"]
        hashes = {kind: checks.sha256(path) for kind, path in inv.outputs.items()}
        if self.hashes[i] is not None:
            return [] if hashes == self.hashes[i] else ["output bytes differ from the checked pass"]
        try:
            bad = self._full_check(i, inv)
        except (ValueError, TypeError, KeyError, IndexError) as exc:
            bad = [f"unreadable output: {exc!r}"]
        if not bad:
            self.hashes[i] = hashes
        return bad

    def _full_check(self, i: int, inv) -> list[str]:
        bad = []
        if "report" in inv.outputs:
            rep = checks.report_values(checks.parse_report(inv.outputs["report"]))
            oracle = "--oracle" in inv.argv
            bad += checks.check_report(rep, inv.meta["steps"], oracle)
            if oracle and not bad:
                self.oracle[i] = (rep["oracle_objective_mw"], rep["oracle_lower_bound_mw"],
                                  rep["oracle_certified"], str(rep["oracle_backend"]))
            if "trace" in inv.outputs and not bad:
                sig = Path(inv.argv[inv.argv.index("--signal-csv") + 1])
                band = inv.meta.get("guard_band")
                bad += checks.check_trace(inv.outputs["trace"], rep, sig, inv.meta, band)
        if "sweep" in inv.outputs:
            rows = checks.read_sweep(inv.outputs["sweep"])
            bad += checks.check_sweep(rows, inv.meta["days"], inv.meta["p_max_mw"],
                                      inv.meta["statistics"])
        if self.refs is not None:
            for kind, ref in self.refs[i].items():
                bad += [f"reference {kind}: {p}" for p in
                        checks.compare_reference(kind, inv.outputs[kind], ref)]
        return bad

    def quality(self) -> dict[str, float]:
        """Oracle results summed over the workload's instances."""
        solved = self.oracle.values()
        certified = sum(c for _, _, c, _ in solved)
        return {
            "oracle_objective_mw": float(sum(o for o, _, _, _ in solved)),
            "oracle_certified_ratio": certified / len(solved) if solved else 0.0,
            "oracle_bound_gap_mw": float(sum(o - b for o, b, _, _ in solved)),
        }


def run_pass(cli, invs, tracer: Tracer | None = None, cal=None, units=None) -> list[tuple]:
    """One pass; returns each invocation's (normalised time, wall time, exit
    code). The normalised time is measured only with ``cal``, a
    ``hostspeed.Calibrated``, and ``units``, the calibration units around
    each invocation; without them it is None."""
    for inv in invs:
        for path in inv.outputs.values():
            path.unlink(missing_ok=True)
    gc.collect()
    if tracer is not None:
        tracer.install()
    rows = []
    try:
        for i, inv in enumerate(invs):
            op = functools.partial(call_main, cli, inv.argv)
            if cal is not None:
                rows.append(cal.time(op, units[i]))
            else:
                t0 = time.perf_counter()
                rc = op()
                rows.append((None, time.perf_counter() - t0, rc))
    finally:
        if tracer is not None:
            tracer.uninstall()
    return rows


def timed_passes(cli, invs, outputs: Outputs, deadline: float, min_passes: int,
                 label: str, traced: bool = False, between=None, cal=None, units=None):
    """Passes until the next one would end after ``deadline``, a
    ``time.perf_counter()`` value (at least ``min_passes``). ``between``, if
    given, is called before each pass; ``cal`` and ``units`` go to
    run_pass. Returns each pass's run_pass rows and, if traced, the
    tracers."""
    passes, tracers, spent = [], [], []
    while True:
        if between is not None:
            between()
        tracer = Tracer() if traced else None
        t0 = time.perf_counter()
        rows = run_pass(cli, invs, tracer, cal, units)
        spent.append(time.perf_counter() - t0)
        outputs.check([rc for _, _, rc in rows], f"{label} pass {len(passes)}")
        passes.append(rows)
        if tracer is not None:
            tracers.append(tracer)
        if len(passes) >= min_passes and time.perf_counter() + statistics.median(spent) > deadline:
            return passes, tracers


def measure_setup(outputs: Outputs) -> None:
    """A fresh interpreter running ``hesflex envelope``; checks its output."""
    outputs.attempted += 1
    try:
        proc = subprocess.run([sys.executable, "-I", "-c", SETUP_CODE, str(SRC)], cwd=ROOT,
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        outputs.failed += 1
        outputs.problems.append(f"setup: no exit within {CHILD_TIMEOUT_S} s")
        return
    got = {}
    for line in proc.stdout.splitlines():
        key, _, value = line.partition(" = ")
        got[key] = value
    try:
        ok = proc.returncode == 0 and all(
            checks.close(float(got[key]), want) for key, want in SETUP_EXPECT.items()
        )
    except (KeyError, ValueError):
        ok = False
    if not ok:
        outputs.failed += 1
        outputs.problems.append(f"setup: exit {proc.returncode}, output {proc.stdout!r} "
                                f"{proc.stderr[-500:]!r}")


def fresh_pass(invs, outputs: Outputs, work: Path) -> tuple[float, list[float]]:
    """Peak RSS (MB) and per-invocation wall times (s) of one pass in a
    fresh process."""
    plan = work / "plan.json"
    plan.write_text(json.dumps([inv.argv for inv in invs]))
    failed = {"rcs": [-1] * len(invs), "maxrss_kb": 0, "walls": [math.inf] * len(invs)}
    try:
        proc = subprocess.run([sys.executable, "-I", str(HERE / "run.py"), "--child", str(plan)],
                              cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        result = json.loads(proc.stdout.splitlines()[-1])
    except subprocess.TimeoutExpired:
        result = failed
        print(f"perfbench: fresh-process pass ran over {CHILD_TIMEOUT_S} s", file=sys.stderr)
    except (IndexError, ValueError):
        result = failed
        print(proc.stderr[-2000:], file=sys.stderr)
    outputs.check(result["rcs"], "fresh process")
    return result["maxrss_kb"] * 1024 / 1e6, result["walls"]


def load_units() -> dict[str, str]:
    """Unit of every metric, as BENCHMARK.json lists it."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for kind in ("end_to_end", "per_layer") for m in spec[kind]}


def load_refs(workload: str, seed: int) -> list[dict] | None:
    path = HERE / "reference.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text())["workloads"].get(workload, {}).get(str(seed))


def _fmt(values) -> str:
    return " ".join(f"{v:.4f}" for v in values)


def end_to_end(cli, invs, outputs: Outputs, args, work: Path) -> dict[str, float]:
    start = time.perf_counter()
    cal = hostspeed.Calibrated()
    setups: list[tuple] = []

    def add_setup() -> None:
        expect = setups[-1][1] if setups else SETUP_EXPECT_S
        setups.append(cal.time(functools.partial(measure_setup, outputs),
                               cal.units_for(expect)))

    def setups_due() -> None:
        # Fresh starts spread evenly over the run, between passes.
        due = min(SETUP_REPEATS, 1 + int(SETUP_REPEATS * (time.perf_counter() - start)
                                         / args.seconds))
        while len(setups) < due:
            add_setup()

    setups_due()
    # The fresh-process pass gives peak RSS, and its times size the
    # calibration around each invocation; it is not one of the timed passes.
    rss_mb, fresh_walls = fresh_pass(invs, outputs, work)
    units = [cal.units_for(w if math.isfinite(w) else 1.0) for w in fresh_walls]
    passes, _ = timed_passes(cli, invs, outputs, start + args.seconds, 1, "timed",
                             between=setups_due, cal=cal, units=units)
    while len(setups) < SETUP_REPEATS:
        add_setup()
    # Each invocation's median normalised time over the passes, summed.
    wall = sum(statistics.median(p[i][0] for p in passes) for i in range(len(invs)))
    print(f"# wall time per pass (s): {_fmt(sum(r[1] for r in p) for p in passes)}")
    print(f"# normalised time per pass (s): {_fmt(sum(r[0] for r in p) for p in passes)}")
    print(f"# setup wall time per start (s): {_fmt(s[1] for s in setups)}")
    print(f"# setup normalised time per start (s): {_fmt(s[0] for s in setups)}")
    print(f"# calibration unit time (ms): median {1e3 * statistics.median(cal.unit_times):.4f}, "
          f"range {1e3 * min(cal.unit_times):.4f}-{1e3 * max(cal.unit_times):.4f}, "
          f"reference {1e3 * hostspeed.UNIT_REF_S:.4f}")
    return {
        "setup_s": statistics.median(s[0] for s in setups),
        "wall_s": wall,
        "peak_rss_mb": rss_mb,
        "success_rate": 1.0 - outputs.failed / outputs.attempted,
    }


def per_layer(cli, invs, outputs: Outputs, args) -> tuple[dict[str, float], list[str]]:
    half = args.seconds / 2.0
    untraced, _ = timed_passes(cli, invs, outputs, time.perf_counter() + half,
                               TRACE_MIN_PASSES, "untraced")
    traced, tracers = timed_passes(cli, invs, outputs, time.perf_counter() + half,
                                   TRACE_MIN_PASSES, "traced", traced=True)
    walls = [sum(r[1] for r in p) for p in untraced]
    traced_walls = [sum(r[1] for r in p) for p in traced]
    problems = []
    counts = [t.counts() for t in tracers]
    if any(c != counts[0] for c in counts[1:]):
        problems.append("per-layer counts differ between traced passes")
    if any(t.hook_errors for t in tracers):
        problems.append("a per-layer count hook failed")
    per_pass = [t.metrics() for t in tracers]
    metrics = {k: (counts[0][k] if k in counts[0] else statistics.median(m[k] for m in per_pass))
               for k in per_pass[0]}
    metrics["trace_overhead_ratio"] = statistics.median(traced_walls) / statistics.median(walls)
    for name in tracers[0].absent():
        print(f"# absent from the package: {name}")
    for backend, (calls, total) in tracers[0].backends().items():
        print(f"# oracle path {backend}: {calls} calls, {total:.4f} s")
    print(f"# untraced wall_s per pass: {' '.join(f'{w:.4f}' for w in walls)}")
    print(f"# traced wall_s per pass: {' '.join(f'{w:.4f}' for w in traced_walls)}")
    return metrics, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child is not None:
        return child(args.child)
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    cli = load_cli()
    units = load_units()
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        invs = workloads.prepare(args.workload, args.seed, work)
        refs = load_refs(args.workload, args.seed)
        outputs = Outputs(invs, refs)
        if args.trace:
            metrics, problems = per_layer(cli, invs, outputs, args)
        else:
            metrics, problems = end_to_end(cli, invs, outputs, args, work), []
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it, or it is already gone
    quality = outputs.quality()
    if args.trace:
        metrics.update(quality)
    print(f"# workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print(f"# reference outputs: {'compared' if refs is not None else 'none stored for this seed'}")
    for i, inv in enumerate(invs):
        for kind, digest in (outputs.hashes[i] or {}).items():
            print(f"# sha256 {inv.outputs[kind].name} {digest}")
    if outputs.oracle and not args.trace:
        for name, value in quality.items():
            print(f"{name} = {value:.10g} {units[name]}")
    if outputs.oracle:
        print(f"# oracle backends: {', '.join(o[3] for _, o in sorted(outputs.oracle.items()))}")
    print(f"error_rate = {outputs.failed / outputs.attempted:.6g} "
          f"({outputs.failed} of {outputs.attempted} operations failed)")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    for problem in outputs.problems[:20] + problems:
        print(f"# FAILED: {problem}")
    result = {
        "correct": outputs.failed == 0 and not problems,
        "attempted": outputs.attempted,
        "failed": outputs.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
