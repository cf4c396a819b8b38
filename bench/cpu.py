"""CPU-speed calibration for the benchmark's timings.

The machines this benchmark runs on share their cores with other work, and
the speed one process gets drifts by up to 1.5x over tens of seconds.  Every
time the benchmark reports is therefore scaled by ``REFERENCE_S / c``, where
c is the time of a fixed pure-Python float loop measured right around the
timed call.  A reported time reads as the wall time on a CPU on which that
loop takes REFERENCE_S; the raw wall times are printed beside it.  Set-up
time is mostly the start-up cost of importing numpy, which the loop does not
track; setup_probe.py counts that part as NUMPY_IMPORT_REFERENCE_S.
"""

from __future__ import annotations

import math
import statistics
import time

# Loop time on an uncontended core of the 2-core x86-64 machine the bounds
# in BENCHMARK.json were measured on (CPython 3.11).
REFERENCE_S = 0.014

# ``import numpy`` in a fresh interpreter on that machine, bytecode cached.
NUMPY_IMPORT_REFERENCE_S = 0.13


def calibrate(repeats: int = 3) -> float:
    """Median seconds of the fixed loop over ``repeats`` tries."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(100_000):
            acc += math.sqrt(i * 1.0001) / (1.0 + i)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def scale(before: float, after: float) -> float:
    """Factor that converts a wall time bracketed by two calibrations."""
    return REFERENCE_S / (0.5 * (before + after))
