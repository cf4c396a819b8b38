"""One benchmark sample: a single sweep in a fresh interpreter.

Usage: python3 bench/worker.py '<request JSON>'

The request names the workload, seed, jobs, whether to trace, and the
directory for the reports.  The worker runs ``run_sweep`` once through the
public API, writes the report as CSV and JSON ``emit_repeats`` times, and
prints one JSON object with the timings (raw, and scaled to the reference
CPU speed, see bench/cpu.py), the facts the correctness gates need, its
peak memory and, when traced, the per-layer metrics.  A fresh
process per sample keeps state a sweep leaves behind (caches, node tables)
out of the next sample's timing and memory.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path.insert(0, str(SRC))

import harmonia  # noqa: E402
from harmonia import SweepConfig, emit_report, run_sweep  # noqa: E402
from harmonia.bounds import EXPECTED_COEFFICIENT_ERRATA  # noqa: E402

import spans  # noqa: E402
from cpu import calibrate, scale  # noqa: E402
from workloads import FROZEN_ERRATA  # noqa: E402


def _check_source() -> None:
    # Never benchmark an installed copy in place of the checkout's source.
    if Path(harmonia.__file__).resolve().parent != (SRC / "harmonia").resolve():
        raise SystemExit(f"harmonia imported from {harmonia.__file__}, not from {SRC}")


def _peak_rss_mb(pool_workers: int) -> float:
    """Peak RSS of this process plus pool_workers times the largest child's.

    RUSAGE_CHILDREN reports only the largest reaped child, so the sum is an
    upper bound on the workers' simultaneous total.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + pool_workers * child) / 1024.0


def _errata_facts(report) -> dict:
    flagged = [(e["index"], e["case"]) for e in report.errata]
    expected = [key for key, e in zip(flagged, report.errata) if e["expected"]]
    return {
        "errata_set_frozen": set(EXPECTED_COEFFICIENT_ERRATA) == set(FROZEN_ERRATA),
        "expected_outside_frozen": sum(1 for key in expected if key not in FROZEN_ERRATA),
        "frozen_not_marked": sum(
            1 for key, e in zip(flagged, report.errata)
            if key in FROZEN_ERRATA and not e["expected"]
        ),
    }


def main(request: dict) -> dict:
    _check_source()
    cfg = SweepConfig.from_dict(request["config"])
    jobs = request["jobs"]
    tracer = spans.install() if request["trace"] else None
    out: dict = {}
    before = calibrate()
    t0 = time.perf_counter()
    try:
        if tracer is None:
            report = run_sweep(cfg, jobs=jobs)
        else:
            report = tracer.call("harness.sweep", None, run_sweep, cfg, jobs=jobs)
    except Exception as exc:  # a raising sweep is a measured outcome, not a crash
        out["raised"] = f"{type(exc).__name__}: {exc}"
        return out
    out["sweep_wall_s"] = time.perf_counter() - t0
    after = calibrate()
    sweep_scale = scale(before, after)
    out["sweep_s"] = out["sweep_wall_s"] * sweep_scale

    # Each CSV + JSON write is scaled by the calibrations on either side of it.
    outdir = Path(request["outdir"])
    csv_path = outdir / f"report-{os.getpid()}.csv"
    json_path = outdir / f"report-{os.getpid()}.json"
    out["emit_wall_s"], out["emit_csv_s"], out["emit_json_s"] = [], [], []
    for _ in range(request["emit_repeats"]):
        t0 = time.perf_counter()
        emit_report(report, "csv", str(csv_path))
        t1 = time.perf_counter()
        emit_report(report, "json", str(json_path))
        t2 = time.perf_counter()
        before, after = after, calibrate()
        k = scale(before, after)
        out["emit_wall_s"].append(t2 - t0)
        out["emit_csv_s"].append((t1 - t0) * k)
        out["emit_json_s"].append((t2 - t1) * k)
    out["report_bytes"] = csv_path.stat().st_size + json_path.stat().st_size
    out["csv_sha256"] = hashlib.sha256(csv_path.read_bytes()).hexdigest()
    csv_path.unlink()
    json_path.unlink()

    out.update(
        rows=len(report.rows),
        failures=report.failures,
        all_pass=report.all_pass,
        unexpected_errata=report.unexpected_errata,
        **_errata_facts(report),
    )
    out["peak_rss_mb"] = _peak_rss_mb(jobs if jobs > 1 else 0)
    if tracer is not None:
        out["layers"] = spans.layer_metrics(
            tracer, report.instances, report.discarded, sweep_scale)
    return out


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
