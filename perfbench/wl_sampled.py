"""``sampled``: a sampled figure grid through the campaign pool.

Every round runs {gzip, mcf} x {baseline, CPR-192, 16-SP} x
{periodic, simpoint} through ``run_jobs(workers=nproc)`` into a fresh
cache directory with the checkpoint store on (the default), the way
``repro experiment ... --sample --jobs N`` runs a grid, then re-requests
the completed grid (result store reads only).
"""

from __future__ import annotations

import os
import gc
import time
from contextlib import nullcontext
from typing import Dict, List, Tuple

from perfbench import common, spans
from perfbench.common import MACHINES, PROGRAMS

#: Represented instructions per cell (the default sampled budget,
#: 30 x the 3000-instruction full-detail default).
BUDGET = 90_000
MODES = ("periodic", "simpoint")
CACHED_PER_ROUND = 8
SETUP_SAMPLES = 7
WORKERS = len(os.sched_getaffinity(0))

perf = time.perf_counter


def grid_jobs(seed: int, budget: int = BUDGET):
    from repro.sim.campaign import Job
    from repro.sim.config import SimConfig
    from repro.sim.sampling import SamplingParams
    return [Job(name, SamplingParams(mode=mode).apply(
                SimConfig.from_token(MACHINES[tag])), budget, seed)
            for name in PROGRAMS for tag in MACHINES for mode in MODES]


def tag_of(job) -> str:
    return spans.machine_tag(job.config)


def grid(jobs, cache_dir) -> Tuple[float, object]:
    """Time one ``run_jobs`` call over the grid (cold, or a cached
    re-request when ``cache_dir`` already holds the results)."""
    from repro.sim.campaign import run_jobs
    gc.collect()
    t0 = perf()
    report = run_jobs(jobs, workers=WORKERS, cache_dir=cache_dir,
                      use_cache=True, checkpoints=True,
                      raise_on_error=False)
    return perf() - t0, report


def cell_failures(jobs, report, budget: int = BUDGET) -> int:
    """Cells that did not settle ok (failed or quarantined) or do not
    cover their represented budget."""
    failed = 0
    for job in jobs:
        stats = report.results.get(job.cache_key())
        if stats is None or job.label in report.failures \
                or stats.committed < budget:
            failed += 1
    return failed


def mismatches(jobs, cold, cached) -> int:
    """Cells whose cached re-read differs from the cold result."""
    def stats(report, job):
        found = report.results.get(job.cache_key())
        return None if found is None else found.to_dict()
    return sum(1 for job in jobs
               if stats(cached, job) is None
               or stats(cached, job) != stats(cold, job))


class Tally:
    def __init__(self) -> None:
        self.grid_s: List[float] = []
        self.cached: List[float] = []
        self.setup: List[float] = []
        #: Per grid: represented k-instructions per second, overall and
        #: per machine (over that machine's in-worker cell seconds).
        self.grid_kips: List[float] = []
        self.machine_kips: Dict[str, List[float]] = {t: [] for t in MACHINES}
        self.attempted = 0
        self.failed = 0


def cell_seconds(trace) -> Dict[str, float]:
    """In-worker seconds per cell request id (``spans.cell_rid``).
    The pool's receipts include queue wait, so cells are timed inside
    the workers instead."""
    out: Dict[str, float] = {}
    for rec in trace.spans:
        if rec[spans.NAME] == "campaign.cell":
            out[rec[spans.RID]] = (out.get(rec[spans.RID], 0.0)
                                   + rec[spans.END] - rec[spans.START])
    return out


def do_round(jobs, tally: Tally, tracer: spans.Tracer,
             budget: int = BUDGET, traced: bool = False):
    """One cold grid into a fresh cache dir, then ``CACHED_PER_ROUND``
    re-requests of it. Returns (trace, grid seconds, cold report); the
    trace holds cell spans only unless the full tracer is installed."""
    cache_dir = common.scratch_dir("sampled")
    span = tracer.span if traced else (lambda *a: nullcontext())
    try:
        with span("campaign.run_jobs"):
            wall, cold = grid(jobs, cache_dir)
        trace = tracer.collect()
        per_cell = cell_seconds(trace)
        tally.grid_s.append(wall)
        tally.attempted += len(jobs)
        tally.failed += cell_failures(jobs, cold, budget)
        busy = {tag: 0.0 for tag in MACHINES}
        inst = {tag: 0 for tag in MACHINES}
        for job in jobs:
            stats = cold.results.get(job.cache_key())
            if stats is None:
                continue
            rid = spans.cell_rid(job.workload, job.config, job.instructions)
            busy[tag_of(job)] += per_cell.get(rid, 0.0)
            inst[tag_of(job)] += stats.committed
        tally.grid_kips.append(sum(inst.values()) / wall / 1000.0)
        for tag in MACHINES:
            if busy[tag]:
                tally.machine_kips[tag].append(inst[tag] / busy[tag]
                                               / 1000.0)
        for _ in range(CACHED_PER_ROUND):
            with span("campaign.cached_rerun"):
                seconds, again = grid(jobs, cache_dir)
            tally.cached.append(seconds)
            tally.attempted += 1
            with span("bench.oracle"):
                if again.simulated or mismatches(jobs, cold, again):
                    tally.failed += 1
        trace.extend(tracer.collect())
        return trace, wall, cold
    finally:
        common.remove_tree(cache_dir)


def measure(seed: int, seconds: float) -> Tally:
    import repro.workloads as workloads
    for name in PROGRAMS:
        workloads.get_program(name, seed)   # forked workers share these
    jobs = grid_jobs(seed)
    tracer = spans.Tracer(common.scratch_dir("cells"))
    spans.install_cell_timer(tracer)
    try:
        do_round(grid_jobs(seed, BUDGET // 6), Tally(), tracer,
                 budget=BUDGET // 6)
        tally = Tally()
        pacer = common.Pacer(seconds, SETUP_SAMPLES)
        while not pacer.done():
            if pacer.probe_due():
                tally.setup.append(common.setup_probe("sampled", seed))
                pacer.taken += 1
                continue
            if pacer.elapsed() < seconds:
                do_round(jobs, tally, tracer)
        return tally
    finally:
        tracer.restore()


def end_to_end(tally: Tally):
    fresh_tail, fresh_pct, fresh_n = common.tail(tally.grid_s)
    cached_tail, cached_pct, cached_n = common.tail(tally.cached)
    metrics = {
        "setup_s": (common.median(tally.setup), "s"),
        "represented_kips": (common.median(tally.grid_kips), "kinst/s"),
        "fresh_p50_s": (common.median(tally.grid_s), "s"),
        "fresh_tail_s": (fresh_tail, "s"),
        "cached_p50_s": (common.median(tally.cached), "s"),
        "peak_rss_mb": (common.peak_rss_mb(), "MB"),
    }
    for tag in MACHINES:
        metrics[f"{tag}_kips"] = (common.median(tally.machine_kips[tag]),
                                  "kinst/s")
    notes = {"fresh_tail": f"p{fresh_pct:.0f} of {fresh_n} grids",
             "cached_tail (not gated)": f"{cached_tail:.4g} s, "
                                        f"p{cached_pct:.0f} of {cached_n}",
             "setup_samples": len(tally.setup),
             "workers": WORKERS}
    return metrics, notes


def run(seed: int, seconds: float):
    tally = measure(seed, seconds)
    metrics, notes = end_to_end(tally)
    return metrics, tally.attempted, tally.failed, notes
