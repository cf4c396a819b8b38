"""Run the benchmark over several seeds and summarise each metric's spread.

Usage (from the repository root):

    python3 bench/spread.py --workloads sweep_default,sweep_wide --seeds 1-10 \
        --trace 0 --out baseline-trace0.json

For every workload and metric it records the value of each seed's run, their
median, first and third quartiles (``statistics.quantiles(n=4)``) and the
spread (q3 - q1) / median, which must stay within the metric's bound in
BENCHMARK.json.  With --trace 1 the counters differ between seeds because
the instances do; within one run they must repeat exactly.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {
        "median": med, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / med if med else None, "values": values,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or declared["run_seconds"]
    summary: dict = {"seconds": seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in _seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=200,
            )
            line = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
            result = json.loads(line) if line.startswith("{") else {}
            result.update(seed=seed, exit=proc.returncode)
            runs.append(result)
            print(f"{workload} seed {seed} exit {proc.returncode} correct "
                  f"{result.get('correct')}", file=sys.stderr, flush=True)
        names = runs[0].get("metrics", {})
        summary["workloads"][workload] = {
            "correct": all(r.get("correct") for r in runs),
            "exit_codes": [r["exit"] for r in runs],
            "rows_failed": [r.get("failed") for r in runs],
            "rows_attempted": [r.get("attempted") for r in runs],
            "metrics": {
                name: summarise([r["metrics"][name]["value"] for r in runs])
                for name in names
            },
        }
    Path(args.out).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    for workload, s in summary["workloads"].items():
        for name, m in s["metrics"].items():
            spread = "n/a" if m["spread"] is None else f"{m['spread']:.4f}"
            print(f"{workload:18s} {name:34s} median {m['median']:.6g}  spread {spread}")
        failed, attempted = sum(s["rows_failed"]), sum(s["rows_attempted"])
        print(f"{workload:18s} {'rows_failed_frac':34s} {failed / attempted:.6g} "
              f"({failed} of {attempted} rows over all seeds)")
    return 0 if all(s["correct"] for s in summary["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
