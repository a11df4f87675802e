"""Spans for the traced run, recorded from the benchmark's own files.

Nothing inside ``src/`` is instrumented. :func:`install` replaces the
public functions of each layer, at class or module level where their
callers look them up, with wrappers that record a span: name, start,
end, parent span and a request id (the cell label). It must run before
any core or worker pool exists; forked workers inherit the wrappers,
record into their own copy of the tracer and append their spans to a
per-process file that :meth:`Tracer.collect` merges.

Per-cycle pipeline stages are far too frequent to keep one span each.
Their wrappers add their elapsed time to a per-name total and to the
enclosing span's "hot child" time, so self times still subtract them.
Call counts (``RegisterBank``) are taken in a separate counting pass,
because a counting wrapper on a call made 64 times a cycle would
distort the timings of the pass it ran in.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

perf = time.perf_counter

# Span record layout (a list, mutated in place while the span is open).
SID, NAME, START, END, PARENT, RID, HOT = range(7)

STAGES = ("commit", "writeback", "issue", "dispatch", "fetch")
_STAGE_METHODS = {"commit": "commit_stage", "writeback": "writeback_stage",
                  "issue": "issue_stage", "dispatch": "dispatch_stage"}


class Tracer:
    """In-memory span recorder for one process (and its forked
    children, each of which starts with an empty record set but keeps
    the open spans as parents)."""

    def __init__(self, out_dir: Path) -> None:
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.main_pid = os.getpid()
        self.pid = self.main_pid
        self.seq = 0
        self.spans: List[list] = []
        self.stack: List[list] = []
        self.hot: Dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        #: Hot-name of the fetch stage of the machine whose run is open.
        self.fetch_name: Optional[str] = None
        self._patches: List[Tuple[object, str, bool, object, object]] = []
        global _CURRENT
        _CURRENT = self

    # -- recording ------------------------------------------------------ #

    def open(self, name: str, rid: Optional[str] = None) -> list:
        self.seq += 1
        parent = self.stack[-1] if self.stack else None
        rec = [f"{self.pid}.{self.seq}", name, perf(), 0.0,
               parent[SID] if parent else None,
               rid if rid is not None else (parent[RID] if parent
                                            else None),
               0.0]
        self.stack.append(rec)
        return rec

    def close(self, rec: list) -> None:
        rec[END] = perf()
        if self.stack and self.stack[-1] is rec:
            self.stack.pop()
        self.spans.append(rec)

    @contextmanager
    def span(self, name: str, rid: Optional[str] = None):
        rec = self.open(name, rid)
        try:
            yield rec
        finally:
            self.close(rec)

    def reset(self) -> None:
        """Drop finished records (open spans stay as parents). The
        dicts are cleared in place: wrappers hold references to them."""
        self.spans = []
        self.hot.clear()
        self.counts.clear()

    def _after_fork(self) -> None:
        self.pid = os.getpid()
        self.seq = 0
        self.reset()

    # -- cross-process transport ---------------------------------------- #

    def flush(self) -> None:
        """Append this process's records to its spans file and forget
        them (workers call this after every cell)."""
        if not (self.spans or self.hot or self.counts):
            return
        path = self.out_dir / f"spans-{self.pid}.jsonl"
        with path.open("a", encoding="utf-8") as fh:
            fh.write(json.dumps({"spans": self.spans,
                                 "hot": dict(self.hot),
                                 "counts": dict(self.counts)}) + "\n")
        self.reset()

    def collect(self) -> "Trace":
        """Merge this process's records with every worker's file."""
        trace = Trace(list(self.spans), Counter(self.hot),
                      Counter(self.counts))
        for path in sorted(self.out_dir.glob("spans-*.jsonl")):
            with path.open("r", encoding="utf-8") as fh:
                for line in fh:
                    record = json.loads(line)
                    trace.spans.extend(record["spans"])
                    trace.hot.update(record["hot"])
                    trace.counts.update(record["counts"])
            path.unlink()
        self.reset()
        return trace

    # -- patching ------------------------------------------------------- #

    def patch(self, owner, attr: str, wrapper) -> None:
        had = attr in vars(owner)
        self._patches.append((owner, attr, had, vars(owner).get(attr),
                              wrapper))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Put every patched attribute back as it was."""
        for owner, attr, had, original, _ in reversed(self._patches):
            if had:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()

    @contextmanager
    def paused(self):
        """Run the body on the unwrapped functions (oracle work and
        untraced passes must not record spans)."""
        patches = list(self._patches)
        self.restore()
        try:
            yield
        finally:
            for owner, attr, _, _, wrapper in patches:
                self.patch(owner, attr, wrapper)


_CURRENT: Optional[Tracer] = None


def _reset_in_child() -> None:
    if _CURRENT is not None:
        _CURRENT._after_fork()


os.register_at_fork(after_in_child=_reset_in_child)


# --------------------------------------------------------------------- #
# Analysis.
# --------------------------------------------------------------------- #

class Trace:
    """Every span, hot total and count of one traced pass."""

    def __init__(self, spans: List[list], hot: Counter,
                 counts: Counter) -> None:
        self.spans = spans
        self.hot = hot
        self.counts = counts

    @classmethod
    def empty(cls) -> "Trace":
        return cls([], Counter(), Counter())

    def extend(self, other: "Trace") -> None:
        self.spans.extend(other.spans)
        self.hot.update(other.hot)
        self.counts.update(other.counts)

    def self_times(self) -> Dict[str, float]:
        """Self seconds per span id: duration minus the union of its
        children's intervals (children from parallel workers overlap)
        minus the hot-call time recorded directly under it."""
        children: Dict[str, List[Tuple[float, float]]] = defaultdict(list)
        for rec in self.spans:
            if rec[PARENT] is not None:
                children[rec[PARENT]].append((rec[START], rec[END]))
        return {rec[SID]: self_time(rec[START], rec[END],
                                    children.get(rec[SID], ()), rec[HOT])
                for rec in self.spans}

    def self_by_name(self) -> Dict[str, float]:
        """Self seconds per span name, plus every hot total."""
        selfs = self.self_times()
        out: Dict[str, float] = defaultdict(float)
        for rec in self.spans:
            out[rec[NAME]] += selfs[rec[SID]]
        for name, seconds in self.hot.items():
            out[name] += seconds
        return dict(out)

    def inclusive(self, name: str) -> float:
        return sum(rec[END] - rec[START] for rec in self.spans
                   if rec[NAME] == name)

    def durations(self, name: str) -> List[float]:
        return [rec[END] - rec[START] for rec in self.spans
                if rec[NAME] == name]


def union_length(intervals: Iterable[Tuple[float, float]],
                 lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(start: float, end: float,
              children: Iterable[Tuple[float, float]],
              hot: float = 0.0) -> float:
    return max(0.0, (end - start) - union_length(children, start, end)
               - hot)


# --------------------------------------------------------------------- #
# Wrappers.
# --------------------------------------------------------------------- #

def machine_tag(config) -> str:
    if config.arch == "msp":
        return f"msp{config.bank_size}"
    return config.arch


def cell_rid(program, config, budget) -> str:
    name = program if isinstance(program, str) else program.name
    return f"{name}/{machine_tag(config)}/{config.sample_mode}@{budget}"


def _spanned(tracer: Tracer, name: str, fn):
    def wrapper(*args, **kwargs):
        rec = tracer.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(rec)
    wrapper.__wrapped__ = fn
    return wrapper


def _simulate_wrapper(tracer: Tracer, fn):
    def simulate(program, config, max_instructions=None, *args, **kwargs):
        rec = tracer.open("campaign.cell",
                          cell_rid(program, config, max_instructions))
        try:
            return fn(program, config, max_instructions, *args, **kwargs)
        finally:
            tracer.close(rec)
            if os.getpid() != tracer.main_pid:
                tracer.flush()
    simulate.__wrapped__ = fn
    return simulate


def _run_wrapper(tracer: Tracer, layer: str, fn):
    def run(self, *args, **kwargs):
        tag = machine_tag(self.config)
        previous = tracer.fetch_name
        tracer.fetch_name = (None if tag == "baseline"
                             else f"pipeline.{tag}.fetch")
        simulated = self.stats.cycles - self.skipped_cycles
        budget = kwargs.get("max_instructions", args[0] if args else None)
        # A zero-instruction run only builds the codegen: core set-up.
        rec = tracer.open("runner.build_core" if budget == 0
                          else f"{layer}.run")
        try:
            return fn(self, *args, **kwargs)
        finally:
            tracer.close(rec)
            tracer.fetch_name = previous
            tracer.counts[f"{layer}.cycles"] += (
                self.stats.cycles - self.skipped_cycles - simulated)
    run.__wrapped__ = fn
    return run


def _stage_wrapper(tracer: Tracer, name: str, fn):
    hot = tracer.hot

    def stage(self, now):
        t0 = perf()
        fn(self, now)
        dt = perf() - t0
        hot[name] += dt
        tracer.stack[-1][HOT] += dt
    stage.__wrapped__ = fn
    return stage


def _fetch_wrapper(tracer: Tracer, fn):
    def cycle(self, now):
        name = tracer.fetch_name
        if name is None:
            return fn(self, now)
        t0 = perf()
        fn(self, now)
        dt = perf() - t0
        tracer.hot[name] += dt
        tracer.stack[-1][HOT] += dt
    cycle.__wrapped__ = fn
    return cycle


def _run_fast_wrapper(tracer: Tracer, fn):
    def run_fast(self, *args, **kwargs):
        if kwargs.get("warmup") is not None or len(args) > 1 \
                and args[1] is not None:
            name = "sampling.ff_warmup"
        elif kwargs.get("bbv") is not None or len(args) > 2 \
                and args[2] is not None:
            name = "sampling.bbv_profile"
        else:
            name = "isa.run_fast"
        rec = tracer.open(name)
        try:
            return fn(self, *args, **kwargs)
        finally:
            tracer.close(rec)
    run_fast.__wrapped__ = fn
    return run_fast


def _counted(tracer: Tracer, name: str, fn):
    counts = tracer.counts

    def counted(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)
    counted.__wrapped__ = fn
    return counted


def install_cell_timer(tracer: Tracer) -> None:
    """Wrap ``simulate`` only: one ``campaign.cell`` span per cell, from
    the pool workers too (the untraced ``sampled`` run times cells so)."""
    import repro.sim.runner as runner
    tracer.patch(runner, "simulate",
                 _simulate_wrapper(tracer, runner.simulate))


def install(tracer: Tracer) -> None:
    """Wrap every layer's public entry points (timed spans)."""
    import repro.sim.runner as runner
    import repro.sim.sampling.simpoint as simpoint
    import repro.workloads as workloads
    from repro.baseline import BaselineProcessor
    from repro.core import MSPProcessor
    from repro.cpr import CPRProcessor
    from repro.isa.emulator import Emulator
    from repro.pipeline.core_base import OutOfOrderCore
    from repro.pipeline.fetch import FetchEngine
    from repro.sim.artifacts import ArtifactStore
    from repro.sim.campaign.journal import CampaignJournal
    from repro.sim.campaign.store import ResultStore

    tracer.patch(workloads, "get_program",
                 _spanned(tracer, "workloads.get_program",
                          workloads.get_program))
    tracer.patch(runner, "build_core",
                 _spanned(tracer, "runner.build_core", runner.build_core))
    install_cell_timer(tracer)
    tracer.patch(BaselineProcessor, "run",
                 _run_wrapper(tracer, "baseline", BaselineProcessor.run))
    for cls, layer, tag in ((CPRProcessor, "cpr", "cpr"),
                            (MSPProcessor, "core", "msp16")):
        tracer.patch(cls, "run",
                     _run_wrapper(tracer, layer, OutOfOrderCore.run))
        for stage, method in _STAGE_METHODS.items():
            tracer.patch(cls, method, _stage_wrapper(
                tracer, f"pipeline.{tag}.{stage}", getattr(cls, method)))
    tracer.patch(FetchEngine, "cycle",
                 _fetch_wrapper(tracer, FetchEngine.cycle))
    tracer.patch(Emulator, "run_fast",
                 _run_fast_wrapper(tracer, Emulator.run_fast))
    tracer.patch(simpoint, "plan_simpoints",
                 _spanned(tracer, "sampling.plan", simpoint.plan_simpoints))
    tracer.patch(ArtifactStore, "get",
                 _spanned(tracer, "artifacts.get", ArtifactStore.get))
    tracer.patch(ArtifactStore, "put",
                 _spanned(tracer, "artifacts.put", ArtifactStore.put))
    tracer.patch(ResultStore, "put",
                 _spanned(tracer, "campaign.store_put", ResultStore.put))
    tracer.patch(CampaignJournal, "record",
                 _spanned(tracer, "campaign.journal",
                          CampaignJournal.record))


def install_counters(tracer: Tracer) -> None:
    """Count ``RegisterBank`` LCS calls and the cycles they ran in."""
    from repro.core import MSPProcessor
    from repro.core.sct import RegisterBank
    from repro.pipeline.core_base import OutOfOrderCore

    tracer.patch(RegisterBank, "lcs_candidate",
                 _counted(tracer, "core.lcs_candidate",
                          RegisterBank.lcs_candidate))
    tracer.patch(RegisterBank, "advance_rel",
                 _counted(tracer, "core.advance_rel",
                          RegisterBank.advance_rel))
    tracer.patch(MSPProcessor, "run",
                 _run_wrapper(tracer, "core", OutOfOrderCore.run))
