"""Benchmark entry point.

    python3 perfbench/run.py --workload {detail,sampled,service} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout. ``--trace 0`` measures and prints the
end-to-end metrics declared in ``BENCHMARK.json``; ``--trace 1`` runs
the traced pass and prints the per-layer metrics. Either way the last
line on stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; human-readable lines go to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import common  # noqa: E402

WORKLOADS = ("detail", "sampled", "service")


def declared(kind: str):
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    common.require_source()
    units = declared("per_layer" if args.trace else "end_to_end")
    common.warm_bytecode()
    common.SCRATCH_ROOT.mkdir(exist_ok=True)
    os.environ["REPRO_CACHE_DIR"] = str(common.scratch_dir("home"))

    if args.trace:
        from perfbench import traced
        outcome = traced.run(args.workload, args.seed, args.seconds,
                             units)
    else:
        import importlib
        module = importlib.import_module(f"perfbench.wl_{args.workload}")
        outcome = module.run(args.seed, args.seconds)
    metrics, attempted, failed, notes = outcome
    common.check_metrics(metrics, list(units))
    for name, (value, unit) in metrics.items():
        if unit != units[name]:
            raise RuntimeError(f"{name}: unit {unit!r}, declared "
                               f"{units[name]!r}")
    common.emit(failed == 0, attempted, failed, metrics, notes)
    return 0


if __name__ == "__main__":
    try:
        code = main()
    except Exception:                       # noqa: BLE001
        traceback.print_exc()
        code = 1
    finally:
        common.cleanup()
    sys.exit(code)
