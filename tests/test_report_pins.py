"""Report pins: two small seeded sweeps, serial and on the process pool.

Each pin is the sha256 of the CSV report and of the JSON report with its
run-dependent keys (``generated_at``, ``wall_time``) and its ``config``
block left out, re-serialised with sorted keys.  A change that moves one
bit of a row, a summary value or an erratum entry fails here, while the
config block may follow the ``SweepConfig`` schema.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from harmonia import SweepConfig, emit_report, run_sweep

# Criterion 9's config, and ten instances on sweep_wide's ranges (q up to 8).
CONFIGS = {
    "criterion9": {"samples": 8, "rng_seed": 777, "q_values": [1.0, 2.0]},
    "wide10": {
        "samples": 10,
        "rng_seed": 3,
        "a_range": [0.05, 0.5],
        "b_minus_a_range": [1.0, 10.0],
        "q_values": [1.0, 2.0, 4.0, 8.0],
    },
}

# name -> (CSV sha256, JSON sha256 without generated_at, wall_time, config).
REPORT_PINS = {
    "criterion9": (
        "a087f62f90eec1046f9e4604acf29d2391185d4aeec1d1e8334c16934a4e5db7",
        "6f04bafbc2d99adb4aa301e0047061fcef7d0e9d359465c58f313ae8a2e49ea8",
    ),
    "wide10": (
        "2a72f2eb4887d8f75e772a6e670f0a3b30e9a6a46fdcef3a1c06b4905c708d23",
        "9475c24236428f5a05952a87180f2e0244786615033fd46b15e82bf79f6b0b58",
    ),
}


def _digests(report, tmp_path) -> tuple[str, str]:
    csv_path, json_path = tmp_path / "r.csv", tmp_path / "r.json"
    emit_report(report, "csv", str(csv_path))
    emit_report(report, "json", str(json_path))
    doc = json.loads(json_path.read_text(encoding="utf-8"))
    for key in ("generated_at", "wall_time", "config"):
        del doc[key]
    text = json.dumps(doc, sort_keys=True, allow_nan=False)
    return (
        hashlib.sha256(csv_path.read_bytes()).hexdigest(),
        hashlib.sha256(text.encode("utf-8")).hexdigest(),
    )


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_report_pinned(name, jobs, tmp_path):
    report = run_sweep(SweepConfig.from_dict(CONFIGS[name]), jobs=jobs)
    assert _digests(report, tmp_path) == REPORT_PINS[name]
