"""The benchmark still fits the program it measures.

``bench/spans.py`` replaces module attributes by name (``harness.check_theorem``,
``bounds.kernel_oracle``, ...).  A refactor that renames or stops importing
one of them would break ``bench/run.py --trace 1`` without failing any other
test, so this file loads the tracer's tables and checks each entry.  In the
same way a config schema change could reject a workload of
``bench/workloads.py``, so each one is built here.  It only reads
``bench/``: the modules are compiled from source, no bytecode is written.
"""

from __future__ import annotations

import runpy
from pathlib import Path

import pytest

from harmonia import SweepConfig, harness

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
WORKLOADS = SPANS.with_name("workloads.py")


@pytest.fixture(scope="module")
def spans() -> dict:
    return runpy.run_path(str(SPANS))


def test_every_wrapped_binding_resolves(spans):
    bindings = [entry[:2] for entry in (*spans["_SPANNED"], *spans["_COUNTED"])]
    missing = [
        f"{module.__name__}.{attr}" for module, attr in bindings
        if not callable(getattr(module, attr, None))
    ]
    assert bindings and missing == []


def test_instance_rows_is_wrapped_in_place(spans):
    assert spans["_ORIGINAL_ROWS"] is harness._instance_rows
    assert callable(harness._instance_rows)


def test_every_workload_config_builds():
    workloads = runpy.run_path(str(WORKLOADS))
    for name, spec in workloads["WORKLOADS"].items():
        cfg = SweepConfig.from_dict(workloads["sweep_config"](name, 1))
        assert cfg.rng_seed == 1, name
        # run_sweep reads its jobs argument with this reader.
        assert harness._read_jobs(spec["jobs"], "jobs") == spec["jobs"], name
    assert workloads["WORKLOADS"]
