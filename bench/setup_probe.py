"""Set-up cost in a fresh interpreter: import harmonia and its CLI, parse a config.

Usage: python3 bench/setup_probe.py '<SweepConfig JSON>'

Prints the seconds from the first import to a validated ``SweepConfig``, raw
and scaled.  numpy is imported first and timed on its own: it is about three
quarters of the set-up, harmonia does not control it, and its start-up cost
drifts with the machine in ways the CPU loop of bench/cpu.py misses.  The
scaled value counts numpy as ``cpu.NUMPY_IMPORT_REFERENCE_S`` and scales the
rest, harmonia's own imports and the config parse, by the CPU loop.
"""

import time

t0 = time.perf_counter()

import numpy  # noqa: E402, F401

t_numpy = time.perf_counter() - t0

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import harmonia  # noqa: E402
import harmonia.cli  # noqa: E402, F401
import json  # noqa: E402

harmonia.SweepConfig.from_dict(json.loads(sys.argv[1]))
wall = time.perf_counter() - t0

from cpu import NUMPY_IMPORT_REFERENCE_S, calibrate, scale  # noqa: E402

after = calibrate()
scaled = NUMPY_IMPORT_REFERENCE_S + (wall - t_numpy) * scale(after, after)
print(json.dumps({"setup_wall_s": wall, "setup_s": scaled}))
