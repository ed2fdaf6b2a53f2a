"""Host-speed calibration for the end-to-end timings.

On a shared virtual machine the processor runs the same code up to 2x
slower for seconds to minutes at a time, and the two vCPUs do so
independently. A wall time then measures the host as much as the program.
Each timed operation is therefore bracketed by a fixed calibration kernel,
run for about half the operation's expected time right before it and again
right after it, and the operation is reported in kernel units: its wall time
over the kernel's time per unit around it. Multiplied by ``UNIT_REF_S`` this
reads as seconds on the host where the benchmark was defined, running fast.

The kernel lives here, not in the package, so a change to the program does
not change it. It mixes what the program does most: a per-step Python loop
of float arithmetic, a function call, a tuple and a dict update, then a few
small numpy operations.
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np

# A fixed scale near the kernel's time per unit when the 2-vCPU host where the
# benchmark was defined ran fast, so that normalised times read as seconds
# there.
UNIT_REF_S = 1.3e-3
_STEPS = 1500
_SIGNAL = [((k * 37) % 200 - 100) / 100.0 for k in range(_STEPS)]


def _step(soc: float, p: float, cap: float, eta: float) -> tuple[float, float]:
    e = p * eta if p >= 0.0 else p / eta
    return min(1.0, max(0.0, soc - e / cap)), e


def _unit() -> float:
    soc, socs, acc = 0.5, [], {}
    for k, r in enumerate(_SIGNAL):
        soc, e = _step(soc, 2.0 * r, 9000.0, 0.95)
        socs.append(soc)
        acc[k & 63] = acc.get(k & 63, 0.0) + e
    a = np.array(socs)
    for _ in range(20):
        a = np.clip(a * 1.001 + 1e-6, 0.0, 1.0)
    return float(a.sum()) + sum(acc.values())


def kernel(units: int) -> float:
    """Wall time of ``units`` kernel units."""
    t0 = time.perf_counter()
    for _ in range(units):
        _unit()
    return time.perf_counter() - t0


class Calibrated:
    """Times operations in kernel units, scaled by ``UNIT_REF_S``."""

    def __init__(self) -> None:
        self.unit_s = statistics.median(kernel(1) for _ in range(21))
        self.unit_times: list[float] = []

    def units_for(self, expect_s: float) -> int:
        """Kernel units for one side of the bracket around an operation
        expected to take ``expect_s`` seconds."""
        return max(1, round(0.5 * expect_s / self.unit_s))

    def time(self, op, units: int) -> tuple[float, float, object]:
        """Run ``op()`` between two runs of ``units`` kernel units, after a
        ``gc.collect()``. Returns its normalised time, its wall time and its
        result."""
        before = kernel(units)
        gc.collect()
        t0 = time.perf_counter()
        result = op()
        wall = time.perf_counter() - t0
        unit_s = (before + kernel(units)) / (2 * units)
        self.unit_times.append(unit_s)
        return wall / unit_s * UNIT_REF_S, wall, result
