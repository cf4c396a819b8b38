"""The sweep benchmark: one workload, one seed, end-to-end or per-layer metrics.

Usage (from the repository root):

    python3 bench/run.py --workload sweep_default --seed 1 --seconds 40 --trace 0

Workloads, metric names, units and bounds are declared in BENCHMARK.json at
the repository root; the instance configs are in bench/workloads.py.

--trace 0 runs the workload's sweep again and again through the public API
(``SweepConfig.from_dict`` -> ``run_sweep(cfg, jobs=...)`` -> ``emit_report``),
each time in a fresh interpreter, until --seconds have passed, with
set-up probes in between.  It reports the end-to-end metrics.  --trace 1
alternates untraced and traced sweeps and reports the per-layer metrics from
the spans (bench/spans.py) plus the tracing overhead.

Every sweep's outputs go through the correctness gates: the CSV is
byte-identical across repeats and equal to the serial twin's for a parallel
workload, every row passes where the workload requires it, flagged expected
errata lie in the frozen set, and traced counters repeat exactly.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted`` (rows of the seed's report), ``failed`` (its failed rows) and
``metrics``; the exit code is 1
when a gate fails and 2 when the benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

from workloads import (  # noqa: E402
    MAX_ROWS_PER_INSTANCE,
    MUST_PASS,
    SERIAL_TWIN,
    WORKLOADS,
    sweep_config,
)

MIN_SWEEPS = 3          # timed sweeps per untraced run, even past --seconds
MIN_TRACED = 2          # traced sweeps per traced run: counters must repeat
PROBES_PER_SWEEP = 2    # set-up probes after each timed sweep
EMIT_REPEATS = 4        # CSV + JSON writes timed per sweep
RUN_LIMIT_S = 170.0     # the whole run must end within 180 s
OUTDIR = BENCH / ".run"  # reports written during the run; removed at its end
TIME_UNITS = ("s", "ms")


class BenchError(Exception):
    """The benchmark itself could not run (as opposed to a failed gate)."""


def _child_env() -> dict[str, str]:
    # Set-up is timed as users meet it, with bytecode cached (by the warm-up
    # probe), whatever the caller's environment says; the cache lives in
    # OUTDIR so the checkout stays clean.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPYCACHEPREFIX"] = str(OUTDIR / "pycache")
    return env


def _child(argv: list[str], deadline: float) -> str:
    """Run a child in its own session; kill the whole group on timeout."""
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.Popen(
        [sys.executable, *argv], cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{argv[0]} exceeded the run's time limit") from None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"{argv[0]} exited {proc.returncode}: {err.strip()[-2000:]}")
    return out.strip().splitlines()[-1]


class Run:
    """Starts the samples of one workload and seed, each in a fresh interpreter."""

    def __init__(self, workload: str, seed: int, limit: float) -> None:
        self.config = sweep_config(workload, seed)
        self.jobs = WORKLOADS[workload]["jobs"]
        self.limit = limit

    def sweep(self, trace: bool, jobs: int | None = None) -> dict:
        request = {
            "config": self.config, "jobs": self.jobs if jobs is None else jobs,
            "trace": trace, "outdir": str(OUTDIR), "emit_repeats": EMIT_REPEATS,
        }
        return json.loads(_child([str(BENCH / "worker.py"), json.dumps(request)], self.limit))

    def probe(self) -> dict:
        return json.loads(_child([str(BENCH / "setup_probe.py"), json.dumps(self.config)], self.limit))


def _completed(results: list[dict]) -> list[dict]:
    return [r for r in results if "raised" not in r]


def _rows(result: dict, rows_if_raised: int) -> tuple[int, int]:
    """(attempted, failed) rows; a sweep that raised fails all of its rows."""
    if "raised" in result:
        return rows_if_raised, rows_if_raised
    return result["rows"], result["failures"]


def _gates(workload: str, results: list[dict], reference: dict | None) -> list[str]:
    problems = []
    done = _completed(results)
    raised = [r["raised"] for r in results if "raised" in r]
    if raised and (workload in MUST_PASS or not done):
        problems.append(f"sweep raised: {raised[0]}")
    hashes = {r["csv_sha256"] for r in done}
    if len(hashes) > 1:
        problems.append("CSV report differs between repeats of one config")
    if reference is not None and hashes != {reference.get("csv_sha256")}:
        problems.append(f"CSV report differs from the serial {SERIAL_TWIN[workload]} report")
    for r in done + _completed([reference] if reference is not None else []):
        if not r["errata_set_frozen"]:
            problems.append("EXPECTED_COEFFICIENT_ERRATA differs from the frozen set")
        if r["expected_outside_frozen"] or r["frozen_not_marked"]:
            problems.append("an erratum's expected flag disagrees with the frozen set")
        if workload in MUST_PASS and not (r["all_pass"] and r["unexpected_errata"] == 0):
            problems.append(
                f"{r['failures']} failed rows, {r['unexpected_errata']} unexpected errata"
            )
    return sorted(set(problems))


def _counter_gate(traced: list[dict], units: dict[str, str]) -> list[str]:
    """Counters (every layer metric not in a time unit) must repeat exactly."""
    first = traced[0]["layers"]
    for other in traced[1:]:
        for name, value in first.items():
            if units[name] not in TIME_UNITS and other["layers"][name] != value:
                return [f"counter {name} did not repeat: {value} vs {other['layers'][name]}"]
    return []


def measure(workload: str, seed: int, seconds: int, units: dict[str, str], trace: bool) -> dict:
    start = time.monotonic()
    run = Run(workload, seed, start + RUN_LIMIT_S)
    run.probe()  # warm-up: the first import compiles bytecode
    reference = None
    if workload in SERIAL_TWIN:
        reference = run.sweep(trace=False, jobs=1)
    deadline = time.monotonic() + seconds
    plain: list[dict] = []
    traced: list[dict] = []
    probes: list[dict] = []
    while True:
        t0 = time.monotonic()
        plain.append(run.sweep(trace=False))
        if trace:
            traced.append(run.sweep(trace=True))
        else:
            probes.extend(run.probe() for _ in range(PROBES_PER_SWEEP))
        step = time.monotonic() - t0
        enough = len(traced) >= MIN_TRACED if trace else len(plain) >= MIN_SWEEPS
        if enough and time.monotonic() + step > deadline:
            break

    plain_ok, traced_ok = _completed(plain), _completed(traced)
    problems = _gates(workload, plain + traced, reference)
    if not plain_ok or (trace and not traced_ok):
        raise BenchError(f"no sweep of {workload} completed: {problems}")
    if trace:
        problems += _counter_gate(traced_ok, units)

    # The operations are the rows of the seed's report.  Repeats must give the
    # same report (the CSV gate), so it is counted once: attempted and failed
    # then depend on the seed alone, not on how many repeats fit the run.
    everything = plain + traced + ([reference] if reference is not None else [])
    rows_if_raised = max(
        (r["rows"] for r in _completed(everything)),
        default=run.config.get("samples", 200) * MAX_ROWS_PER_INSTANCE + 1,
    )
    counts = [_rows(r, rows_if_raised) for r in everything]
    attempted = max(a for a, _ in counts)
    failed = max(f for _, f in counts)

    def med(key: str, source: list[dict]) -> float:
        return statistics.median(r[key] for r in source)

    def emits(key: str) -> list[float]:
        return [x for r in plain_ok for x in r[key]]

    wall: dict[str, float] = {}
    if trace:
        metrics = {}
        for name in traced_ok[0]["layers"]:
            values = [r["layers"][name] for r in traced_ok]
            metrics[name] = statistics.median(values) if units[name] in TIME_UNITS else values[0]
        untraced_s, traced_s = med("sweep_s", plain_ok), med("sweep_s", traced_ok)
        metrics.update({
            "harness.emit_csv_s": statistics.median(emits("emit_csv_s")),
            "harness.emit_json_s": statistics.median(emits("emit_json_s")),
            "harness.report_bytes": med("report_bytes", plain_ok),
            "trace.untraced_sweep_s": untraced_s,
            "trace.traced_sweep_s": traced_s,
            "trace.overhead_s": traced_s - untraced_s,
            "trace.overhead_frac": (traced_s - untraced_s) / untraced_s,
        })
    else:
        reports = [c + j for c, j in zip(emits("emit_csv_s"), emits("emit_json_s"))]
        metrics = {
            "sweep_s": med("sweep_s", plain_ok),
            "report_s": statistics.median(reports),
            "setup_s": med("setup_s", probes),
            "peak_rss_mb": med("peak_rss_mb", plain_ok),
            "rows_passed_frac": 1.0 - failed / attempted,
        }
        wall = {
            "sweep_s": med("sweep_wall_s", plain_ok),
            "report_s": statistics.median(emits("emit_wall_s")),
            "setup_s": med("setup_wall_s", probes),
        }
    return {
        "correct": not problems, "problems": problems, "attempted": attempted,
        "failed": failed, "metrics": metrics, "wall": wall,
        "samples": len(plain) + len(traced), "probes": len(probes),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "harmonia" / "__init__.py").is_file():
        print(f"bench: no harmonia source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}

    OUTDIR.mkdir(exist_ok=True)
    try:
        result = measure(args.workload, args.seed, args.seconds, units, bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(OUTDIR, ignore_errors=True)

    metrics = result["metrics"]
    if set(metrics) != set(units):
        print(f"bench: metrics {sorted(set(metrics) ^ set(units))} disagree with "
              "BENCHMARK.json", file=sys.stderr)
        return 2
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"sweeps {result['samples']}  setup probes {result['probes']}")
    for name in sorted(metrics):
        raw = result["wall"].get(name)
        note = "" if raw is None else f"  (wall {raw:.6g} s before scaling)"
        print(f"  {name:34s} {metrics[name]:.6g} {units[name]}{note}")
    print(f"  {'rows_failed_frac':34s} {result['failed'] / result['attempted']:.6g} ratio"
          f"  ({result['failed']} of {result['attempted']} rows)")
    for problem in result["problems"]:
        print(f"  GATE FAILED: {problem}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
