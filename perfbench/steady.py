"""Steadiness proof: run one workload on several seeds and print the
spread of every end-to-end metric.

    python3 perfbench/steady.py --workload detail --runs 10

Each run is ``perfbench/run.py`` with the next seed, for
``run_seconds`` from ``BENCHMARK.json``. For every metric
the script prints the median, quartiles (``statistics.quantiles``,
n=4), min and max of the runs, and the spread: the distance between the
quartiles as a share of the median. A metric is steady when its spread
stays below a third of its bound in ``BENCHMARK.json``; the bounds were
set from this output.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    declared = {m["name"]: m for m in spec["end_to_end"]}
    results = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [sys.executable, str(ROOT / spec["command"][1]),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}",
                  file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        results.append(result)
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']}",
              flush=True)

    print(f"\n{args.workload}: {len(results)} runs of {seconds}s")
    print(f"{'metric':34s} {'median':>11s} {'q1':>11s} {'q3':>11s} "
          f"{'min':>11s} {'max':>11s} {'spread':>7s} {'bound':>6s}")
    steady = True
    for name, meta in declared.items():
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4) \
            if len(values) > 1 else (values[0],) * 3
        spread = (q3 - q1) / med if med else float("nan")
        bound = meta["bound"]
        ok = spread < bound / 3
        steady &= ok
        print(f"{name:34s} {med:11.5g} {q1:11.5g} {q3:11.5g} "
              f"{min(values):11.5g} {max(values):11.5g} {spread:7.1%} "
              f"{bound:6.2f} {'ok' if ok else 'WIDE'}")
    return 0 if steady else 3


if __name__ == "__main__":
    sys.exit(main())
