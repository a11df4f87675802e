"""``detail``: full-detail simulation, serial in one process.

Every round simulates {gzip, mcf} x {baseline, CPR-192, 16-SP} with
TAGE, each cell on a freshly built core (the modelled caches start
empty), then re-requests the round's table from the result store.
"""

from __future__ import annotations

import gc
import time
from contextlib import nullcontext
from typing import Dict, List, Tuple

from perfbench import common
from perfbench.common import MACHINES, PROGRAMS

#: Committed instructions per timed cell.
BUDGET = 10_000
#: Cached re-requests of each round's table.
CACHED_PER_ROUND = 6
#: Fresh-interpreter set-up samples per run.
SETUP_SAMPLES = 5

perf = time.perf_counter


class Cell:
    def __init__(self, program_name: str, tag: str, seed: int) -> None:
        import repro.workloads as workloads
        from repro.sim.config import SimConfig
        self.program_name = program_name
        self.tag = tag
        self.seed = seed
        self.program = workloads.get_program(program_name, seed)
        self.config = SimConfig.from_token(MACHINES[tag])

    def job(self, budget: int):
        """The campaign job naming this cell in the result store."""
        from repro.sim.campaign import Job
        return Job(self.program_name, self.config, budget, self.seed)


def cells_for(seed: int) -> List[Cell]:
    return [Cell(name, tag, seed) for name in PROGRAMS for tag in MACHINES]


def run_cell(cell: Cell, budget: int = BUDGET):
    """Build a fresh core and simulate ``budget`` instructions.
    Returns (core, stats, build seconds, run seconds)."""
    import repro.sim.runner as runner
    gc.collect()            # the last cell's garbage, off this cell's clock
    t0 = perf()
    core = runner.build_core(cell.program, cell.config)
    core.run(max_instructions=0)            # codegen: part of the build
    t1 = perf()
    stats = core.run(max_instructions=budget)
    t2 = perf()
    return core, stats, t1 - t0, t2 - t1


def oracle_ok(cell: Cell, core, stats, budget: int = BUDGET) -> bool:
    """The integration oracle: enough commits, and final memory equal
    to the functional emulator's after the same instruction count."""
    from repro.isa.emulator import Emulator
    if stats.committed < budget:
        return False
    emulator = Emulator(cell.program)
    emulator.run_fast(stats.committed)
    touched = set(core.memory) | set(emulator.memory)
    return all(core.memory.get(addr, 0) == emulator.memory.get(addr, 0)
               for addr in touched)


def cached_request(jobs, cache_dir, expected) -> Tuple[float, bool]:
    """Re-request a completed table through the campaign path (result
    store reads only). Returns (seconds, outputs match)."""
    from repro.sim.campaign import run_jobs
    gc.collect()
    t0 = perf()
    report = run_jobs(jobs, workers=1, cache_dir=cache_dir, use_cache=True)
    elapsed = perf() - t0
    ok = (report.hits == len(jobs) and report.simulated == 0
          and all(report.results[key].to_dict() == stats
                  for key, stats in expected.items()))
    return elapsed, ok


class Tally:
    def __init__(self) -> None:
        self.run_s: Dict[Tuple[str, str], List[float]] = {}
        self.committed: Dict[Tuple[str, str], int] = {}
        self.fresh: List[float] = []
        self.cached: List[float] = []
        self.setup: List[float] = []
        self.attempted = 0
        self.failed = 0


def do_round(cells: List[Cell], cache_dir, tally: Tally,
             budget: int = BUDGET, tracer=None) -> None:
    """One table: every cell fresh, checked, stored; then
    ``CACHED_PER_ROUND`` re-requests. With a ``tracer``, the cells and
    requests are spans and the oracle runs on the unwrapped functions."""
    from repro.sim.campaign import ResultStore
    span = tracer.span if tracer else (lambda *_: nullcontext())
    paused = tracer.paused if tracer else nullcontext
    store = ResultStore(cache_dir)
    store.clear()
    jobs = [cell.job(budget) for cell in cells]
    expected = {}
    fresh = 0.0
    for cell, job in zip(cells, jobs):
        with span("bench.cell", job.label):
            core, stats, build_s, run_s = run_cell(cell, budget)
        fresh += build_s + run_s
        key = (cell.program_name, cell.tag)
        tally.run_s.setdefault(key, []).append(run_s)
        tally.committed[key] = stats.committed
        tally.attempted += 1
        with span("bench.oracle"), paused():
            if not oracle_ok(cell, core, stats, budget):
                tally.failed += 1
        store.put(job.cache_key(), stats, meta=job.to_dict())
        expected[job.cache_key()] = stats.to_dict()
        del core
    tally.fresh.append(fresh)
    for _ in range(CACHED_PER_ROUND):
        with span("campaign.cached_rerun"):
            seconds, ok = cached_request(jobs, cache_dir, expected)
        tally.cached.append(seconds)
        tally.attempted += 1
        tally.failed += 0 if ok else 1


def kips(tally: Tally, tags) -> float:
    """k committed instructions per host second over both programs,
    each (program, machine) cell at its median run time."""
    keys = [key for key in tally.run_s if key[1] in tags]
    instructions = sum(tally.committed[key] for key in keys)
    seconds = sum(common.median(tally.run_s[key]) for key in keys)
    return instructions / seconds / 1000.0


def measure(seed: int, seconds: float):
    cache_dir = common.scratch_dir("detail")
    try:
        cells = cells_for(seed)
        # Untimed priming: codegen caches, the code fingerprint and the
        # interpreter's specialisation all warm up before any clock.
        do_round(cells, cache_dir, Tally(), budget=BUDGET // 4)
        tally = Tally()
        pacer = common.Pacer(seconds, SETUP_SAMPLES)
        while not pacer.done():
            if pacer.probe_due():
                tally.setup.append(common.setup_probe("detail", seed))
                pacer.taken += 1
                continue
            if pacer.elapsed() < seconds:
                do_round(cells, cache_dir, tally)
        return tally
    finally:
        common.remove_tree(cache_dir)


def end_to_end(tally: Tally):
    fresh_tail, fresh_pct, fresh_n = common.tail(tally.fresh)
    cached_tail, cached_pct, cached_n = common.tail(tally.cached)
    metrics = {
        "setup_s": (common.median(tally.setup), "s"),
        "represented_kips": (kips(tally, MACHINES), "kinst/s"),
        "fresh_p50_s": (common.median(tally.fresh), "s"),
        "fresh_tail_s": (fresh_tail, "s"),
        "cached_p50_s": (common.median(tally.cached), "s"),
        "peak_rss_mb": (common.peak_rss_mb(), "MB"),
    }
    for tag in MACHINES:
        metrics[f"{tag}_kips"] = (kips(tally, (tag,)), "kinst/s")
    notes = {"fresh_tail": f"p{fresh_pct:.0f} of {fresh_n} tables",
             "cached_tail (not gated)": f"{cached_tail:.4g} s, "
                                        f"p{cached_pct:.0f} of {cached_n}",
             "setup_samples": len(tally.setup)}
    return metrics, notes


def run(seed: int, seconds: float):
    tally = measure(seed, seconds)
    metrics, notes = end_to_end(tally)
    return metrics, tally.attempted, tally.failed, notes
