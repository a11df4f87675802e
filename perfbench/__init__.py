"""End-to-end and per-layer benchmark of the MSP reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload detail --seed 1 --seconds 30 --trace 0

See ``perfbench/NOTES.md`` for the workloads, the metrics and how to
read them.
"""
