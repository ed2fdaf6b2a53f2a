"""Per-layer tracing installed from outside the package.

Every public function of every loaded ``hesflex.*`` module is replaced, at
each module attribute that names it, by a wrapper that records calls, busy
time and self time (busy time minus the busy time of wrapped callees). A
few functions also record work counts (rows, bytes, steps, samples) taken
from their arguments and results. Nothing inside ``src/`` is changed; the
original functions are restored by :meth:`Tracer.uninstall`.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from dataclasses import dataclass, field

# Layer name per module; the metric prefix may not start with "_".
LAYERS = ("cli", "config", "data_io", "assets", "flexibility", "dispatch",
          "soc_guard", "simulation", "market", "oracle", "pwl")

# Function -> the per-function metrics reported for it.
FUNCTIONS = {
    "cli.main": ("self_s",),
    "cli.cmd_track": ("self_s",),
    "cli.bid_sweep_rows": ("self_s",),
    "config.config_from_mapping": ("calls", "self_s"),
    "data_io.read_signal_csv": ("self_s", "rows", "bytes"),
    "data_io.read_irradiance_csv": ("self_s", "rows", "bytes"),
    "data_io.resample_zoh": ("self_s", "rows", "bytes"),
    "data_io.export_trace": ("self_s", "rows", "bytes"),
    "data_io.synth_signal": ("calls", "self_s"),
    "data_io.synth_irradiance": ("calls", "self_s"),
    "assets.pv_power": ("calls", "self_s"),
    "assets.pv_power_series": ("self_s", "distinct_ratio"),
    "assets.pv_power_interp": ("self_s",),
    "assets.battery_step": ("calls", "self_s"),
    "flexibility.envelope": ("calls", "self_s", "calls_per_step"),
    "dispatch.allocate": ("calls", "self_s"),
    "soc_guard.guard_power_cap": ("calls", "self_s"),
    "simulation.simulate": ("calls", "steps", "self_s"),
    "market.settle": ("calls", "self_s"),
    "market.group_by_season_hour": ("self_s", "samples"),
    "market.pv_statistic": ("self_s",),
    "oracle.solve": ("calls", "self_s", "horizon_steps", "uncertified_s"),
    "pwl.inf_convolve": ("calls", "self_s"),
    "pwl.from_points": ("calls", "self_s"),
    "pwl.clip": ("calls", "self_s"),
}

# Values of OracleSolution.backend at the time the benchmark was defined;
# any other backend is counted under "other" and itemised in the log.
ORACLE_PATHS = ("greedy-certificate", "warm-start-certificate", "branch-and-bound",
                "grid-dp", "other")

# Counts that must repeat exactly from pass to pass (no timings).
COUNT_KEYS = ("calls", "rows", "bytes", "steps", "samples", "horizon_steps",
              "distinct_ratio", "calls_per_step")


@dataclass
class Stat:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
    extra: dict = field(default_factory=dict)

    def add(self, key: str, value) -> None:
        self.extra[key] = self.extra.get(key, 0) + value


def _layer(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1].lstrip("_")


def _arg(args, kwargs, index: int, name: str):
    return kwargs[name] if name in kwargs else args[index]


class Tracer:
    """Wraps the package's public functions; one instance per traced pass."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.paths: dict[str, Stat] = {}
        self.hook_errors = 0
        self._stack: list[float] = []
        self._installed: list[tuple[object, str, object]] = []
        self._hooks = {
            "data_io.read_signal_csv": self._read_csv,
            "data_io.read_irradiance_csv": self._read_csv,
            "data_io.resample_zoh": self._resample,
            "data_io.export_trace": self._export_trace,
            "assets.pv_power_series": self._pv_series,
            "simulation.simulate": self._simulate,
            "market.group_by_season_hour": self._group,
            "oracle.solve": self._solve,
        }

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        wrappers: dict[int, object] = {}
        for mod_name, mod in sorted(sys.modules.items()):
            if mod is None or not (mod_name == "hesflex" or mod_name.startswith("hesflex.")):
                continue
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not callable(obj) or isinstance(obj, type):
                    continue
                owner = getattr(obj, "__module__", None) or ""
                if not owner.startswith("hesflex") or not hasattr(obj, "__code__"):
                    continue
                wrapper = wrappers.get(id(obj))
                if wrapper is None:
                    wrapper = self._wrap(obj, f"{_layer(owner)}.{obj.__name__}")
                    wrappers[id(obj)] = wrapper
                self._installed.append((mod, attr, obj))
                setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._installed):
            setattr(mod, attr, obj)
        self._installed.clear()

    def _wrap(self, fn, name: str):
        stat = self.stats.setdefault(name, Stat())
        stack = self._stack
        clock = time.perf_counter
        hook = self._hooks.get(name)
        mpp = name == "assets.pv_power_series"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = self._get("assets.pv_power").calls if mpp else 0
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                stat.calls += 1
                stat.busy_s += dt
                stat.self_s += dt - child
                if stack:
                    stack[-1] += dt
            if mpp:
                stat.add("mpp_solves", self._get("assets.pv_power").calls - before)
            if hook is not None:
                try:
                    hook(stat, args, kwargs, result, dt)
                except Exception as exc:  # a changed signature must not stop the run
                    self.hook_errors += 1
                    print(f"trace: count hook for {name} failed: {exc!r}", file=sys.stderr)
            return result

        return wrapper

    # -- work counts --------------------------------------------------------

    @staticmethod
    def _read_csv(stat, args, kwargs, result, dt):
        stat.add("rows", len(result.values))
        stat.add("bytes", os.path.getsize(_arg(args, kwargs, 0, "path")))

    @staticmethod
    def _resample(stat, args, kwargs, result, dt):
        stat.add("rows", len(result.values))
        stat.add("bytes", result.timestamps.nbytes + result.values.nbytes)

    @staticmethod
    def _export_trace(stat, args, kwargs, result, dt):
        stat.add("rows", len(_arg(args, kwargs, 0, "records")))
        stat.add("bytes", os.path.getsize(_arg(args, kwargs, 1, "path")))

    @staticmethod
    def _pv_series(stat, args, kwargs, result, dt):
        stat.add("samples", len(_arg(args, kwargs, 1, "irradiance_values")))

    @staticmethod
    def _simulate(stat, args, kwargs, result, dt):
        stat.add("steps", len(_arg(args, kwargs, 2, "dp_request")))

    @staticmethod
    def _group(stat, args, kwargs, result, dt):
        stat.add("samples", len(_arg(args, kwargs, 0, "timestamps")))

    def _solve(self, stat, args, kwargs, result, dt):
        stat.add("horizon_steps", _arg(args, kwargs, 0, "problem").horizon)
        if not result.certified_optimal:
            stat.add("uncertified_s", dt)
        path = self.paths.setdefault(result.backend, Stat())
        path.calls += 1
        path.busy_s += dt

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Flat per-layer metrics of everything recorded so far."""
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                s.self_s for name, s in self.stats.items() if name.split(".")[0] == layer
            )
        steps = self._get("simulation.simulate").extra.get("steps", 0)
        for name, keys in FUNCTIONS.items():
            s = self._get(name)
            for key in keys:
                if key == "calls":
                    value = s.calls
                elif key == "self_s":
                    value = s.self_s
                elif key == "distinct_ratio":
                    samples = s.extra.get("samples", 0)
                    value = s.extra.get("mpp_solves", 0) / samples if samples else 0.0
                elif key == "calls_per_step":
                    value = s.calls / steps if steps else 0.0
                else:
                    value = s.extra.get(key, 0)
                out[f"{name}.{key}"] = value
        sim = self._get("simulation.simulate")
        out["simulation.us_per_step"] = sim.busy_s / steps * 1e6 if steps else 0.0
        for path in ORACLE_PATHS:
            if path == "other":
                rest = [s for b, s in self.paths.items() if b not in ORACLE_PATHS]
                calls, total = sum(s.calls for s in rest), sum(s.busy_s for s in rest)
            else:
                s = self.paths.get(path, Stat())
                calls, total = s.calls, s.busy_s
            out[f"oracle.solve.path.{path}.calls"] = calls
            out[f"oracle.solve.path.{path}.total_s"] = total
        return out

    def counts(self) -> dict[str, float]:
        """The metrics that are counts, for the pass-to-pass repeat check."""
        return {k: v for k, v in self.metrics().items() if k.rsplit(".", 1)[-1] in COUNT_KEYS}

    def absent(self) -> list[str]:
        """Functions the benchmark reports on that the package no longer has."""
        return [name for name in FUNCTIONS if name not in self.stats]

    def backends(self) -> dict[str, tuple[int, float]]:
        return {b: (s.calls, s.busy_s) for b, s in sorted(self.paths.items())}

    def _get(self, name: str) -> Stat:
        return self.stats.get(name) or Stat()
