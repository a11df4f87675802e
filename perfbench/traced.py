"""The traced run (``--trace 1``): per-layer metrics for one workload.

Each workload alternates untraced and traced units of the same work
(a detail table, a sampled grid, a block of service requests) until
``--seconds`` have passed, so the tracing overhead is measured against
the same host conditions. Per-layer seconds are totals per traced unit
(per table, per grid, per fresh request); counts are exact. Layers a
workload never calls read 0.
"""

from __future__ import annotations

import json
import gc
import time
from typing import Dict, List, Tuple

from perfbench import common, spans
from perfbench.common import MACHINES, PROGRAMS

perf = time.perf_counter

#: per-layer metric -> span or hot name whose self seconds it reports.
SELF = {
    "workloads.get_program_s": "workloads.get_program",
    "runner.build_core_s": "runner.build_core",
    "isa.run_fast_s": "isa.run_fast",
    "sampling.ff_warmup_s": "sampling.ff_warmup",
    "sampling.bbv_profile_s": "sampling.bbv_profile",
    "sampling.plan_s": "sampling.plan",
    "artifacts.get_s": "artifacts.get",
    "artifacts.put_s": "artifacts.put",
    "campaign.run_jobs_s": "campaign.run_jobs",
    "campaign.store_put_s": "campaign.store_put",
    "campaign.journal_s": "campaign.journal",
    "bench.oracle_s": "bench.oracle",
}
SELF.update({f"pipeline.{tag}.{stage}_s": f"pipeline.{tag}.{stage}"
             for tag in ("cpr", "msp16") for stage in spans.STAGES})
#: Machine layers: metric prefix of the run span and its cycle count.
RUN_LAYERS = ("baseline", "cpr", "core")
#: Spans of the benchmark's own units; their self time is the part of
#: a unit no layer accounts for.
UNIT_SPANS = ("bench.round", "bench.cell", "bench.request")


def layer_metrics(trace: spans.Trace, units: int) -> Dict[str, float]:
    """Seconds per traced unit for every layer the trace saw."""
    selfs = trace.self_by_name()
    out = {metric: selfs.get(name, 0.0) / units
           for metric, name in SELF.items()}
    for layer in RUN_LAYERS:
        inclusive = trace.inclusive(f"{layer}.run")
        cycles = trace.counts.get(f"{layer}.cycles", 0)
        out[f"{layer}.run_s"] = inclusive / units
        out[f"{layer}.us_per_cycle"] = (inclusive / cycles * 1e6
                                        if cycles else 0.0)
    out["trace_unattributed_s"] = sum(selfs.get(name, 0.0)
                                      for name in UNIT_SPANS) / units
    out["trace_wall_s"] = sum(trace.inclusive(name)
                              for name in ("bench.round",
                                           "bench.request")) / units
    return out


def self_sum(trace: spans.Trace) -> float:
    """Every span's and hot call's self seconds: equals the traced wall
    when one process did the work (checks the accounting)."""
    return sum(trace.self_by_name().values())


def with_units(values: Dict[str, float], units: Dict[str, str]
               ) -> Dict[str, Tuple[float, str]]:
    """Every declared per-layer metric, 0 where the workload never
    reached the layer."""
    undeclared = sorted(set(values) - set(units))
    if undeclared:
        raise RuntimeError(f"undeclared per-layer metrics {undeclared}")
    return {name: (float(values.get(name, 0.0)), unit)
            for name, unit in units.items()}


def overhead_pct(traced: List[float], untraced: List[float]) -> float:
    return (sum(traced) / sum(untraced) - 1.0) * 100.0


# --------------------------------------------------------------------- #
# detail
# --------------------------------------------------------------------- #

def count_lcs_calls(tracer: spans.Tracer, cells) -> Dict[str, float]:
    """Counting pass over the MSP cells: ``RegisterBank`` calls per
    simulated (non-skipped) cycle."""
    from perfbench import wl_detail
    tracer.restore()
    spans.install_counters(tracer)
    try:
        for cell in cells:
            if cell.tag == "msp16":
                wl_detail.run_cell(cell)
    finally:
        tracer.restore()
    counts = tracer.collect().counts
    cycles = counts["core.cycles"]
    return {"core.lcs_candidate_per_cycle":
            counts["core.lcs_candidate"] / cycles,
            "core.advance_rel_per_cycle":
            counts["core.advance_rel"] / cycles}


def traced_detail(tracer, seed: int, seconds: float):
    from perfbench import wl_detail
    spans.install(tracer)
    cache_dir = common.scratch_dir("detail-trace")
    with tracer.span("bench.setup"):
        cells = wl_detail.cells_for(seed)
        for cell in cells:
            wl_detail.run_cell(cell, 0)
    setup = tracer.collect()
    tally = wl_detail.Tally()
    trace = spans.Trace.empty()
    walls = {True: [], False: []}
    start = perf()
    while not walls[True] or perf() - start < seconds:
        for traced in (False, True):
            gc.collect()
            t0 = perf()
            if traced:
                with tracer.span("bench.round"):
                    wl_detail.do_round(cells, cache_dir, tally,
                                       tracer=tracer)
            else:
                with tracer.paused():
                    wl_detail.do_round(cells, cache_dir, tally)
            walls[traced].append(perf() - t0)
            trace.extend(tracer.collect())
    units = len(walls[True])
    values = layer_metrics(trace, units)
    # Programs are built once per process: a round only hits the cache,
    # so the build is taken on the traced set-up.
    values["workloads.get_program_s"] = setup.self_by_name().get(
        "workloads.get_program", 0.0)
    values["campaign.cached_rerun_s"] = common.median(
        trace.durations("campaign.cached_rerun"))
    values.update(count_lcs_calls(tracer, cells))
    values["trace_overhead_pct"] = overhead_pct(walls[True], walls[False])
    notes = {"traced_tables": units,
             "self_time_sum_s": round(self_sum(trace) / units, 4),
             "setup_s (traced, in-process)": round(
                 setup.inclusive("bench.setup"), 4)}
    return values, tally.attempted, tally.failed, notes


# --------------------------------------------------------------------- #
# sampled
# --------------------------------------------------------------------- #

def reference_cpi(jobs) -> Dict[Tuple[str, str], float]:
    """Full-detail CPI of every (workload, machine) at the grid's
    budget, from a result store under ``REFERENCE_CACHE`` keyed by the
    source-fingerprinted cache key (computed once, untimed)."""
    from repro.sim.campaign import Job, run_jobs
    from repro.sim.config import SimConfig
    from perfbench import wl_sampled
    full = {}
    for job in jobs:
        tag = spans.machine_tag(job.config)
        full[(job.workload, tag)] = Job(
            job.workload, SimConfig.from_token(MACHINES[tag]),
            job.instructions, job.seed)
    common.REFERENCE_CACHE.mkdir(parents=True, exist_ok=True)
    report = run_jobs(list(full.values()), workers=wl_sampled.WORKERS,
                      cache_dir=common.REFERENCE_CACHE, use_cache=True,
                      checkpoints=False)
    return {key: report.results[job.cache_key()].cycles
            / report.results[job.cache_key()].committed
            for key, job in full.items()}


def interval_misses(cpi: float, half_width: float, ref: float) -> bool:
    """Whether the reported 95% interval excludes the reference CPI.
    ``half_width`` is relative to the sampled CPI
    (``SimStats.sampling_error``), so the interval is
    ``cpi * (1 +- half_width)``; a reported +-0 misses unless the
    estimate is exact."""
    return abs(cpi - ref) > half_width * cpi


def accuracy(jobs, report, reference) -> Dict[str, float]:
    """Largest |sampled - reference| / reference CPI, in percent, and
    the cells whose reported 95% interval misses the reference."""
    worst, misses = 0.0, 0
    for job in jobs:
        stats = report.results[job.cache_key()]
        ref = reference[(job.workload, spans.machine_tag(job.config))]
        cpi = stats.cycles / stats.committed
        worst = max(worst, abs(cpi - ref) / ref)
        if interval_misses(cpi, stats.sampling_error, ref):
            misses += 1
    return {"sampling.cpi_err_max_pct": worst * 100.0,
            "sampling.ci_miss": float(misses)}


def ff_dup_ratio(jobs, report) -> float:
    """Fast-forward instructions executed by the grid over the work of
    one recording per (workload, schedule); 1.0 means no duplicate."""
    executed = 0
    needed: Dict[Tuple[str, str], int] = {}
    for job in jobs:
        stats = report.results[job.cache_key()]
        executed += stats.ff_executed_instructions
        key = (job.workload, job.config.sample_mode)
        needed[key] = max(needed.get(key, 0),
                          stats.ff_executed_instructions)
    return executed / sum(needed.values()) if sum(needed.values()) else 0.0


def traced_sampled(tracer, seed: int, seconds: float):
    from perfbench import wl_sampled
    spans.install(tracer)
    jobs = wl_sampled.grid_jobs(seed)
    with tracer.span("bench.setup"):
        import repro.workloads as workloads
        for name in PROGRAMS:
            workloads.get_program(name, seed)
    setup = tracer.collect()
    tally = wl_sampled.Tally()
    trace = spans.Trace.empty()
    walls = {True: [], False: []}
    grids = []                  # (grid seconds, cold report) per traced grid
    start = perf()
    while not walls[True] or perf() - start < seconds:
        for traced in (False, True):
            gc.collect()
            t0 = perf()
            if traced:
                with tracer.span("bench.round"):
                    rnd, wall, report = wl_sampled.do_round(
                        jobs, tally, tracer, traced=True)
                rnd.extend(tracer.collect())
                trace.extend(rnd)
                grids.append((wall, report))
            else:
                with tracer.paused():
                    wl_sampled.do_round(jobs, tally, tracer)
            walls[traced].append(perf() - t0)
    units = len(walls[True])
    values = layer_metrics(trace, units)
    values["workloads.get_program_s"] = setup.self_by_name().get(
        "workloads.get_program", 0.0)
    cells = trace.durations("campaign.cell")
    values["campaign.cell_p50_s"] = common.median(cells)
    values["campaign.pool_idle_s"] = (
        sum(wall for wall, _ in grids) * wl_sampled.WORKERS
        - sum(cells)) / units
    values["campaign.cached_rerun_s"] = common.median(
        trace.durations("campaign.cached_rerun"))
    values["sampling.window_s"] = sum(
        trace.inclusive(f"{layer}.run") for layer in RUN_LAYERS) / units
    wall, report = grids[-1]
    values["sampling.detail_instructions"] = float(sum(
        report.results[job.cache_key()].detail_instructions
        for job in jobs))
    values["artifacts.ff_dup_ratio"] = common.median(
        [ff_dup_ratio(jobs, r) for _, r in grids])
    with tracer.paused():
        values.update(accuracy(jobs, report, reference_cpi(jobs)))
    values["trace_overhead_pct"] = overhead_pct(walls[True], walls[False])
    receipts = [r.wall_seconds for r in report.receipts.values()]
    notes = {"traced_grids": units, "workers": wl_sampled.WORKERS,
             "self_time_sum_s": round(self_sum(trace) / units, 4),
             # Receipts count pool queue wait; in-worker spans do not.
             "receipt_wall_sum_s": round(sum(receipts), 3),
             "receipt_wall_p50_s": round(common.median(receipts), 3),
             "cell_sum_s": round(sum(cells) / units, 3),
             "grid_wall_s": round(wall, 3),
             "ff_executed": report.ff_executed}
    return values, tally.attempted, tally.failed, notes


# --------------------------------------------------------------------- #
# service
# --------------------------------------------------------------------- #

#: Requests per untraced or traced block (every machine's fresh request
#: and its cached followers, so both halves see the same mix).
BLOCK = len(MACHINES)


def journal_receipts(cache_dir) -> List[dict]:
    path = cache_dir / "journal.jsonl"
    if not path.exists():
        return []
    with path.open("r", encoding="utf-8") as fh:
        return [event for event in map(json.loads, filter(str.strip, fh))
                if event.get("event") == "receipt"]


def traced_service(tracer, seed: int, seconds: float):
    from perfbench import wl_service as svc
    spans.install(tracer)
    cache_dir = common.scratch_dir("serve-trace")
    daemon = svc.Daemon(cache_dir)
    session = svc.Session(seed)
    traced_flags: List[bool] = []

    def timed(name, fn):
        with tracer.span(f"service.{name[:-2]}"):      # "post_s" -> post
            return fn()

    try:
        stream = svc.traffic(seed)
        svc.prime(daemon, session)
        start = perf()
        while perf() - start < seconds or not any(traced_flags):
            for traced in (False, True):
                for _ in range(BLOCK * (1 + svc.CACHED_PER_FRESH)):
                    kind, spec = svc.next_request(session, stream)
                    if traced:
                        with tracer.span("bench.request"):
                            session.send(daemon, kind, spec, timed)
                    else:
                        session.send(daemon, kind, spec)
                    traced_flags.append(traced)
    finally:
        daemon.stop()
    receipts = journal_receipts(cache_dir)
    client = tracer.collect()
    # Cached requests also repeat the untimed priming grids; their
    # oracle runs untraced, so the execution spans cover fresh cells.
    with tracer.paused():
        primed = {svc.spec_key(spec): svc.expected_stats(seed, spec)
                  for spec in session.primed}
    # Execution: the same fresh cells through in-process ``simulate``
    # (also the outputs' oracle).
    failed = svc.check(session, primed)
    exec_trace = tracer.collect()

    outcomes = session.outcomes
    traced_out = [o for o, t in zip(outcomes, traced_flags) if t]
    plain_out = [o for o, t in zip(outcomes, traced_flags) if not t]
    fresh = [o for o in outcomes if o.kind == "fresh" and o.ok]
    values = layer_metrics(exec_trace, max(1, len(fresh)))
    values.pop("trace_wall_s")
    client_self = client.self_by_name()
    n_traced = max(1, len(traced_out))
    values["trace_wall_s"] = client.inclusive("bench.request") / n_traced
    values["trace_unattributed_s"] = client_self.get("bench.request",
                                                     0.0) / n_traced
    for name in ("post", "status", "results"):
        durations = client.durations(f"service.{name}")
        values[f"service.{name}_s"] = (common.median(durations)
                                       if durations else 0.0)
    exec_by_cell = {}
    for rec in exec_trace.spans:
        if rec[spans.NAME] == "campaign.cell":
            exec_by_cell[rec[spans.RID]] = rec[spans.END] - rec[spans.START]
    execs, waits = [], []
    for out in fresh:
        cells = [exec_by_cell.get(spans.cell_rid(
            w, _config(out.spec["machines"][0]), out.spec["instructions"]),
            0.0) for w in out.spec["workloads"]]
        # Cells of one request run side by side on the daemon's workers.
        exec_s = max(cells) if len(cells) <= svc.WORKERS else sum(cells)
        execs.append(exec_s)
        waits.append(out.latency - out.post_s - out.results_s - exec_s)
    values["service.exec_s"] = common.median(execs)
    values["service.settle_wait_s"] = common.median(waits)
    walls = [r["wall_seconds"] for r in receipts]
    values["service.job_wall_s"] = common.median(walls) if walls else 0.0
    values["service.retried"] = float(sum(1 for r in receipts
                                          if r.get("attempts", 1) > 1))
    values["service.refused"] = float(sum(
        1 for o in outcomes for status in o.statuses
        if common.is_failure_status(status)))
    values["service.polls_per_campaign"] = (
        sum(o.polls for o in outcomes) / len(outcomes))
    values["trace_overhead_pct"] = overhead_pct(
        [o.latency for o in traced_out], [o.latency for o in plain_out])
    notes = {"requests": len(outcomes), "traced_requests": len(traced_out),
             "self_time_sum_s": round(self_sum(client) / n_traced, 4),
             "fresh_ok": len(fresh), "receipts": len(receipts)}
    return values, len(outcomes), failed, notes


def _config(token: str):
    from repro.sim.config import SimConfig
    return SimConfig.from_token(token)


def run(workload: str, seed: int, seconds: float,
        units: Dict[str, str]):
    tracer = spans.Tracer(common.scratch_dir("spans"))
    body = {"detail": traced_detail, "sampled": traced_sampled,
            "service": traced_service}[workload]
    try:
        values, attempted, failed, notes = body(tracer, seed, seconds)
    finally:
        tracer.restore()
    return with_units(values, units), attempted, failed, notes
