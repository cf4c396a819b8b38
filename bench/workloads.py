"""Workloads of the sweep benchmark and the facts its correctness gates pin.

BENCHMARK.json names the workloads and says why each was chosen.  Each
workload is a ``SweepConfig.from_dict`` payload plus the ``jobs`` value
passed explicitly to ``run_sweep``.  The benchmark's ``--seed`` becomes the
config's ``rng_seed``, so the same seed always yields the same instances.
"""

from __future__ import annotations

WORKLOADS: dict[str, dict] = {
    "sweep_default": {
        "config": {},
        "jobs": 1,
    },
    "sweep_default_j2": {
        "config": {},
        "jobs": 2,
    },
    "sweep_wide": {
        "config": {
            "samples": 120,
            "a_range": [0.05, 0.5],
            "b_minus_a_range": [1.0, 10.0],
            "q_values": [1.0, 2.0, 4.0, 8.0],
        },
        "jobs": 1,
    },
}

# Workloads whose every row must pass.  sweep_wide keeps the known B11
# cancellation false alarm; its failures are reported, never masked.
MUST_PASS = frozenset({"sweep_default", "sweep_default_j2"})

# The workload whose CSV a parallel workload must reproduce byte for byte.
SERIAL_TWIN = {"sweep_default_j2": "sweep_default"}

# harmonia.bounds.EXPECTED_COEFFICIENT_ERRATA as frozen when the benchmark was
# defined.  A change to the program's set fails the gate instead of silently
# widening what counts as an expected erratum.
FROZEN_ERRATA: frozenset[tuple[int, str]] = frozenset(
    {
        (2, "interior"),
        (3, "mu=0"),
        (3, "interior"),
        (3, "mu=1/2"),
        (5, "lambda=1"),
        (5, "interior"),
        (6, "interior"),
        (6, "lambda=1/2"),
        (8, "all"),
        (9, "all"),
        (12, "all"),
    }
)

# Rows one instance can produce at most: identity, 2 theorems x 4 triples,
# 12 crosschecks.  A sweep that raises counts this many rows per instance,
# plus the printed-deviation lock row, as failed.
MAX_ROWS_PER_INSTANCE = 21


def sweep_config(workload: str, seed: int) -> dict:
    """The ``SweepConfig.from_dict`` payload for one workload and seed."""
    return dict(WORKLOADS[workload]["config"], rng_seed=seed)
