"""Shared out-of-order core engine.

The three machines (baseline ROB, CPR, MSP) share this cycle-level engine:
fetch, dispatch, operand wakeup, issue with functional-unit limits,
execution with real data values (execution-driven, including wrong paths),
store-queue forwarding and squash bookkeeping. Subclasses plug in exactly
the parts the paper says differ:

* renaming / resource allocation (``rename``, which also reports the
  stall reason that keeps an instruction from dispatching),
* commit (``commit_stage``),
* recovery (``recover_from_branch`` / ``take_exception``),
* physical-register storage (``handle_ready`` / ``read_operand`` /
  ``write_result``),
* write-port arbitration (``filter_writebacks``).

In-flight state is structure-of-arrays: one :class:`InflightWindow`
column per field, indexed by ``seq & mask`` (see
:mod:`repro.pipeline.window`).  Static per-PC metadata (kind, FU code,
latency, sources, semantics fn) comes from the program's predecoded
columns, so the hot loops never touch an ``Instruction`` object.  All
engine-to-architecture hooks identify an instruction by ``(seq, slot)``.

Stage evaluation order within a cycle is commit -> writeback -> issue ->
dispatch -> fetch, so results written back in cycle *t* can wake a
consumer that issues in *t* (standard back-to-back scheduling) while
newly dispatched instructions first become issue-eligible in *t+1*
(*t+2* with the MSP arbitration stage).

Two interchangeable backend schedulers drive issue/wakeup
(``SimConfig.scheduler``):

* ``"scan"`` — the original per-cycle loop over the stage methods
  (``commit_stage`` ... ``fetch.cycle``): every ready candidate is
  heap-popped, examined and re-pushed each cycle, completion buckets
  are filtered lazily, and every cycle is simulated even when nothing
  can happen.  Kept as the reference oracle.
* ``"event"`` (default) — one cycle loop for every machine
  (:meth:`OutOfOrderCore._run_event`) with the stages inline.  The
  ready window is ONE sorted-by-seq list that each candidate enters
  exactly once (at dispatch, or when its last operand arrives); the
  per-cycle walk examines the front of the window in place with no
  heap churn, squash unlinks waiters from the wakeup map and purges
  stale completion events instead of leaving zombies, and provably
  idle stretches (no completions due, fetch stalled, dispatch blocked,
  nothing issuable) are skipped in one jump to the next event time
  while the per-cycle stall accounting is replayed in bulk.

Both schedulers produce bit-identical :class:`SimStats` — the event
walk examines candidates in the same seq order, consumes the same
``max_issue_scan`` budget (including for blocked, not-yet-eligible and
stale entries) and defers for the same reasons; the idle skip engages
only after a cycle whose observed effect was provably nothing but
counter ticks.

Stale seq references (scan-heap zombies, waiting-list leftovers,
completion-bucket entries) are detected by slot ownership:
``window.sq[s & mask] != s`` means the slot was recycled, which can
only happen after ``s`` was squashed or committed — semantically the
old ``di.squashed`` test.
"""

from __future__ import annotations

import sys
from abc import ABC, abstractmethod
from bisect import insort
from collections import deque
from heapq import heappush, heappop
from typing import Any, Deque, Dict, List, Optional

#: Unsigned 64-bit mask — ``effective_address`` fast path for int bases
#: (``wrap_int(base + imm) & mask`` equals ``(base + imm) & mask``).
_ADDR_MASK = (1 << 64) - 1

from repro.branch import BranchTargetBuffer, make_predictor
from repro.branch.base import Prediction
from repro.branch.gshare import GsharePredictor
from repro.branch.tage import TagePredictor
from repro.isa.opcodes import Op
from repro.isa.program import Program
from repro.isa.registers import NUM_INT_REGS
from repro.isa.semantics import effective_address
from repro.memory.cache import MemoryHierarchy
from repro.pipeline.fetch import FetchEngine
from repro.pipeline.resources import FunctionalUnitPool, LoadBuffer
from repro.pipeline.stats import SimStats
from repro.pipeline.window import (COMPLETED, ISSUED, MISPRED, SQUASHED,
                                   InflightWindow)
from repro.storequeue.queue import StoreQueue

_HALT = Op.HALT.value
_FLD = Op.FLD.value

#: fault_seq sentinel for exceptions: every squashed executed instruction
#: is on the correct path (will be re-fetched identically).
FAULT_NONE = 1 << 62

_STATUS_BITS = ((ISSUED, "issued"), (COMPLETED, "completed"),
                (SQUASHED, "squashed"), (MISPRED, "mispredicted"))


class SimulationStalled(RuntimeError):
    """A run reached its default cycle cap before its instruction
    budget or a HALT: the machine stopped making progress.  A permanent
    failure — re-running the same deterministic cell stalls again."""


class OutOfOrderCore(ABC):
    """Cycle-level execution-driven out-of-order core."""

    #: Extra pipe stages between rename and first issue eligibility
    #: (the MSP arbitration stage sets this to 1).
    extra_dispatch_delay = 0

    #: True for the baseline ROB machine: the event loop then retires
    #: and renames inline instead of calling ``commit_stage`` /
    #: ``rename`` (while no exception plan or telemetry is armed).
    _rob_inline = False

    #: Initial in-flight ring capacity.  The baseline ROB bounds its
    #: window structurally; CPR/MSP can keep more in flight, so they
    #: start bigger.  Either way :class:`InflightWindow` grows on
    #: demand — this is a starting point, not a limit.
    window_capacity = 1024

    def __init__(self, program: Program, config) -> None:
        self.program = program
        self.config = config
        self.stats = SimStats()

        #: Structure-of-arrays in-flight state, shared with fetch.
        self.w = InflightWindow(self.window_capacity)
        self._dec = program.decoded

        self.hierarchy = MemoryHierarchy.from_config(config)
        if config.warm_caches:
            self.hierarchy.warm(range(len(program)),
                                program.memory_line_addrs)
        self.predictor = make_predictor(config.predictor,
                                        **config.predictor_kwargs)
        self.btb = BranchTargetBuffer()
        self.fetch = FetchEngine(program, self.hierarchy, self.predictor,
                                 self.btb, width=config.fetch_width,
                                 window=self.w)
        self.fetch.oldest_live = self._oldest_live
        self.fus = FunctionalUnitPool(config.int_units, config.fp_units,
                                      config.ldst_units, config.issue_width)
        self.load_buffer = LoadBuffer(config.load_buffer)
        self.sq = StoreQueue(config.sq_l1, config.sq_l2,
                             config.l2_forward_penalty)

        #: Committed architectural memory state.
        self.memory: Dict[int, Any] = dict(program.initial_memory)

        self.now = 0
        self.done = False
        #: Dispatched, uncommitted seqs, oldest first (the ROB view).
        self.in_flight: Deque[int] = deque()
        self.iq_count = 0
        scheduler = getattr(config, "scheduler", "event")
        if scheduler not in ("event", "scan"):
            raise ValueError(f"unknown scheduler {scheduler!r}; "
                             f"choose 'event' or 'scan'")
        #: True for the event-driven scheduler, False for the reference
        #: per-cycle scan loop.
        self._sched_event = scheduler == "event"
        self._ready: List[int] = []                # scan: heap of seqs
        #: Event scheduler's ready window: seqs sorted ascending.  An
        #: instruction enters exactly once — at dispatch when all
        #: operands are ready, else when its last operand writes back.
        self._ready_list: List[int] = []
        self._waiting: Dict[Any, List[int]] = {}
        self._completions: Dict[int, List[int]] = {}
        # Stores waiting for their address operand (early AGU).
        self._addr_watch: Dict[Any, List[int]] = {}

        #: Cycles elided by the idle skip (diagnostics; included in
        #: ``stats.cycles`` — the skip is accounting-exact).
        self.skipped_cycles = 0
        #: Reason of the last cycle whose whole dispatch group stalled
        #: (named by :class:`SimulationStalled`).
        self._stall_reason: Optional[str] = None

        # Direct register-file tables for the event loop, published by
        # subclasses whose register file is a flat int-indexed (value,
        # ready) list pair so the loop can index it instead of paying
        # a method call per operand.  None of this changes behaviour —
        # the scan oracle always goes through the virtual calls.
        #: ``phys_ready`` list for direct ``handle_ready`` indexing
        #: (baseline and CPR publish it), or None.
        self._ready_table: Optional[List[bool]] = None
        #: ``phys_value`` list for direct side-effect-free peeks and
        #: result writes (baseline and CPR — both store values in a flat
        #: list and mark ready on writeback), or None.  MSP keeps the
        #: virtual calls (banked storage).
        self._value_table: Optional[List] = None
        #: True when ``read_operand`` is a pure table read (baseline;
        #: CPR reads must release reader reference counts).
        self._read_direct = False

        #: Observability hook slots (``repro.obs``), pre-bound to None
        #: so every emission site is a single attribute test when
        #: telemetry is off.  Armed via :meth:`attach_tracer` /
        #: :meth:`attach_metrics`; the event loop keeps the baseline's
        #: ROB retire out of line while either is armed.
        self.tracer = None
        self._metrics = None

        self.commit_ordinal = 0
        self.exception_plan = set(config.exception_ordinals)
        self._exceptions_taken: set = set()
        #: PCs of committed instructions, in order (when record_commits).
        self.commit_trace: Optional[List[int]] = (
            [] if config.record_commits else None)

    def _oldest_live(self) -> int:
        """Oldest seq whose window slot must stay intact (ring growth)."""
        if self.in_flight:
            return self.in_flight[0]
        buffer = self.fetch.buffer
        return buffer[0] if buffer else self.fetch.next_seq

    # ------------------------------------------------------------------ #
    # Checkpoint seeding and warm-state injection (sampled simulation).
    # ------------------------------------------------------------------ #

    def seed_architectural_state(self, state) -> None:
        """Start this (fresh) core from an architectural checkpoint
        (:class:`~repro.isa.emulator.EmulatorState`) instead of the
        program entry: PC, committed memory and every logical register
        take the checkpoint's values. Must be called before the first
        cycle — the identity rename mappings set up at construction are
        what make per-logical-register seeding sufficient.

        The memory copy below is load-bearing: the sampled engine
        hands out copy-on-write checkpoints that alias the emulator's
        live dict (``Emulator.snapshot(share=True)``), so the core must
        never write through ``state.memory``."""
        if self.now or self.stats.cycles or self.fetch.fetched:
            raise RuntimeError("seed_architectural_state requires a "
                               "fresh core (no cycles simulated yet)")
        self.fetch.pc = state.pc
        self.memory = dict(state.memory)
        for logical, value in enumerate(state.regs):
            self.seed_register(logical, value)
        self.on_seeded(state.pc)

    def seed_register(self, logical: int, value) -> None:
        """Set the initial architectural value of ``logical`` (each
        machine stores it in its own register organisation)."""
        raise NotImplementedError

    def on_seeded(self, pc: int) -> None:
        """Architecture hook after checkpoint seeding (CPR re-anchors
        its initial checkpoint here)."""

    def install_warm_state(self, predictor=None, btb=None,
                           hierarchy=None, confidence=None) -> None:
        """Replace branch predictor / BTB / cache hierarchy with
        pre-warmed instances (the sampling engine's functional warm-up
        trains them on the fast-forwarded stream). ``confidence`` is
        accepted for CPR's estimator and ignored elsewhere."""
        if predictor is not None:
            self.predictor = predictor
            self.fetch.predictor = predictor
        if btb is not None:
            self.btb = btb
            self.fetch.btb = btb
        if hierarchy is not None:
            self.hierarchy = hierarchy
            self.fetch.hierarchy = hierarchy

    # ------------------------------------------------------------------ #
    # Observability (repro.obs).
    # ------------------------------------------------------------------ #

    def attach_tracer(self, tracer) -> None:
        """Arm pipeline lifecycle tracing
        (:class:`repro.obs.PipelineTracer`)."""
        self.tracer = tracer
        self.fetch.tracer = tracer

    def attach_metrics(self, recorder) -> None:
        """Arm interval metrics sampling
        (:class:`repro.obs.IntervalRecorder`)."""
        recorder.bind(self)
        self._metrics = recorder

    # ------------------------------------------------------------------ #
    # Top level.
    # ------------------------------------------------------------------ #

    def run(self, max_instructions: int = 50_000,
            max_cycles: Optional[int] = None) -> SimStats:
        """Simulate until ``max_instructions`` commit, HALT, or the cycle
        cap.  Without a caller ``max_cycles`` the cap is 200 cycles per
        budgeted instruction plus 100k, and a run that reaches it before
        its budget or a HALT raises :class:`SimulationStalled`."""
        cycle_cap = max_cycles if max_cycles is not None \
            else max_instructions * 200 + 100_000
        stats = self.stats
        if self._sched_event:
            self._run_event(max_instructions, cycle_cap)
        else:
            while (not self.done and stats.committed < max_instructions
                   and stats.cycles < cycle_cap):
                self.cycle()
        if (max_cycles is None and not self.done
                and stats.committed < max_instructions):
            raise self._stalled()
        return stats

    def cycle(self) -> None:
        """Simulate exactly one cycle (an event core runs its loop with
        a one-cycle cap, so the idle skip never engages)."""
        if self._sched_event:
            self._run_event(sys.maxsize, self.stats.cycles + 1)
            return
        now = self.now
        self.stats.cycles += 1
        self.commit_stage(now)
        if not self.done:
            self.writeback_stage(now)
            self.issue_stage(now)
            self.dispatch_stage(now)
            self.fetch.cycle(now)
        self.now = now + 1

    def _stalled(self) -> SimulationStalled:
        """The error for a run that reached its default cycle cap."""
        w = self.w
        if self.in_flight:
            seq = self.in_flight[0]
            slot = seq & w.mask
            st = w.st[slot]
            status = "|".join(name for bit, name in _STATUS_BITS
                              if st & bit) or "waiting"
            head = f"in-flight head seq {seq} pc {w.pc[slot]} ({status})"
        else:
            head = (f"nothing in flight (fetch pc {self.fetch.pc}, "
                    f"{len(self.fetch.buffer)} buffered)")
        return SimulationStalled(
            f"{self.config.label}: no HALT and only "
            f"{self.stats.committed} committed by cycle "
            f"{self.stats.cycles}; {head}; last dispatch stall: "
            f"{self._stall_reason}{self.describe_stall()}")

    def describe_stall(self) -> str:
        """Machine detail appended to a :class:`SimulationStalled`
        message (the MSP names the bank that blocked dispatch)."""
        return ""

    def _hook(self, name: str):
        """The bound hook ``name``, or None while it is still the base
        class's no-op (the cycle loop then skips the call)."""
        if getattr(type(self), name) is getattr(OutOfOrderCore, name):
            return None
        return getattr(self, name)

    def _run_event(self, max_instructions: int, cycle_cap: int) -> None:
        """The event scheduler's cycle loop, one for every machine:
        commit -> writeback -> issue -> dispatch -> fetch, then the
        idle skip.

        Writeback, the issue walk (which evaluates through the shared
        ``_execute``), dependency wiring, fetch and the skip are inline
        with the window columns bound as locals.  Each machine's
        differences go through its hooks, bound once per call and
        skipped while still the base no-op.  The baseline's ROB retire
        and RAT rename are inline too (``_rob_inline``) unless an
        exception plan or telemetry is armed; telemetry sites are
        None-checked, so armed runs take this same loop.  Behaviour is
        bit-identical to the scan oracle's stage methods: the
        scheduler-equivalence tests compare the two cell by cell.

        A *quiet* cycle changed no machine state: nothing committed,
        wrote back, issued, dispatched or fetched, no recovery or
        checkpoint happened and the ready window kept every entry.
        Re-simulating such cycles until the next event only ticks the
        same counters, so the loop jumps straight to the earliest cycle
        at which anything can happen (a completion, the end of a fetch
        stall, an instruction becoming issue-eligible) and replays the
        per-cycle stall accounting in bulk.
        """
        stats = self.stats
        config = self.config
        tracer = self.tracer
        rob = (self._rob_inline and not self.exception_plan
               and tracer is None and self._metrics is None)
        hook = self._hook
        commit_stage = self.commit_stage
        rename = self.rename
        wb_filter = hook("filter_writebacks")
        on_complete = hook("on_complete")
        on_branch = hook("on_branch_resolved")
        on_stall = hook("on_dispatch_stall")
        stall_bulk = hook("on_dispatch_stall_bulk")
        state_tag = hook("assign_state_tag")
        begin_dispatch = hook("begin_dispatch_cycle")
        settled = hook("commit_settled")
        execute = self._execute
        resolve_control = self._resolve_control
        recover_from_branch = self.recover_from_branch
        values = self._value_table
        ready_table = self._ready_table
        read_direct = self._read_direct
        read_operand = self.read_operand
        write_result = self.write_result
        # Side-effect-free register reads (readiness, early address
        # values): the flat tables' item getters where published.
        ready_of = (ready_table.__getitem__ if ready_table is not None
                    else self.handle_ready)
        peek = (values.__getitem__ if values is not None
                else self.peek_operand)
        commit_trace = self.commit_trace
        if rob:
            rat, arch_rat = self.rat, self.arch_rat
            int_free, fp_free = self.int_free, self.fp_free
            rob_size = config.rob_size
        fetch = self.fetch
        buffer = fetch.buffer
        in_flight = self.in_flight
        window = self._ready_list
        completions = self._completions
        waiting = self._waiting
        addr_watch = self._addr_watch
        sq = self.sq
        sq_unknown = sq._unknown_addr
        sq_pending = sq._pending_data
        lb = self.load_buffer
        fus = self.fus
        fu_used = fus._used
        fu_limits = fus._limits
        issue_width = fus.issue_width
        retire_width = config.retire_width
        rename_width = config.rename_width
        iq_size = config.iq_size
        budget = config.max_issue_scan
        eic_delay = 1 + self.extra_dispatch_delay
        commit_up_to = sq.commit_up_to
        commit_store_write = self.commit_store_write
        sq_execute = sq.execute
        sq_allocate = sq.allocate
        sq_set_address = sq.set_address
        sq_is_full = sq.is_full
        predictor = self.predictor
        predictor_predict = predictor.predict
        predictor_update = predictor.update
        predictor_restore = predictor.restore
        predictor_history = predictor.get_history
        # Inline-predict fast path for the stock gshare front end (a
        # subclass could override predict, so match the exact type).
        if type(predictor) is GsharePredictor:
            gs_pht = predictor.pht
            gs_imask = predictor.index_mask
            gs_hmask = predictor.history_mask
        else:
            gs_pht = gs_imask = gs_hmask = None
        # TAGE exposes its raw (train-path possibly unmasked) ghr;
        # an attribute read + mask beats a get_history call in fetch.
        if type(predictor) is TagePredictor:
            tage_hmask = predictor.history_mask
        else:
            tage_hmask = None
        btb_predict = self.btb.predict
        instruction_latency = self.hierarchy.instruction_latency
        icache = self.hierarchy.icache
        ic_sets = icache._sets
        ic_line_shift = icache._line_shift
        ic_set_mask = icache.set_mask
        ic_set_bits = icache._set_bits
        icache_hit_cycles = self.hierarchy.icache_hit
        fetch_width = fetch.width
        buffer_capacity = fetch.buffer_capacity

        # Static program columns (indexed by PC).
        dec = self._dec
        P_size = dec.size
        P_kind = dec.kind
        P_code = dec.code
        P_insts = dec.insts
        P_s0, P_s1, P_nsrc = dec.s0, dec.s1, dec.nsrc
        P_dest, P_wreg = dec.dest, dec.wreg
        P_imm, P_target = dec.imm, dec.target
        P_fu = dec.fu

        # In-flight columns (indexed by seq & mask; the column *lists*
        # are stable across window growth — only the mask changes).
        w = self.w
        mask = w.mask
        W_sq, W_pc, W_st = w.sq, w.pc, w.st
        W_h0, W_h1, W_wc = w.h0, w.h1, w.wc
        W_dest, W_res, W_sval = w.dest, w.res, w.sval
        W_eic, W_pred, W_ptk, W_ptg = w.eic, w.pred, w.ptk, w.ptg
        W_atk, W_ma, W_se = w.atk, w.ma, w.se
        W_fin = w.fin
        W_tag, W_ghr = w.tag, w.ghr
        oldest_live = self._oldest_live

        now = self.now
        cycles = stats.cycles
        while (not self.done and stats.committed < max_instructions
               and cycles < cycle_cap):
            stats.cycles = cycles = cycles + 1
            recoveries_before = stats.recoveries
            checkpoints_before = stats.checkpoints_created

            # ---------------- commit ---------------------------------- #
            if rob:
                # Baseline ROB retire, inline (BaselineProcessor.
                # commit_stage without exceptions or telemetry).
                commits = 0
                if in_flight and W_st[in_flight[0] & mask] & 2:
                    ordinal = self.commit_ordinal
                    while commits < retire_width and in_flight:
                        s = in_flight[0]
                        slot = s & mask
                        if not W_st[slot] & 2:
                            break
                        ordinal += 1
                        pc = W_pc[slot]
                        if commit_trace is not None:
                            commit_trace.append(pc)
                        kind = P_kind[pc]
                        if kind == 4:
                            lb.occupied -= 1
                        elif P_code[pc] == _HALT:
                            self.done = True
                        in_flight.popleft()
                        if P_wreg[pc]:
                            dest = P_dest[pc]
                            previous = arch_rat[dest]
                            arch_rat[dest] = W_dest[slot]
                            if dest < NUM_INT_REGS:
                                int_free.append(previous)
                            else:
                                fp_free.append(previous)
                        elif kind == 5:
                            commit_up_to(s, commit_store_write)
                        commits += 1
                        if self.done:
                            break
                    self.commit_ordinal = ordinal
                    stats.committed += commits
            else:
                commits = stats.committed
                commit_stage(now)
                commits = stats.committed - commits
            if self.done:
                now += 1
                break

            # ---------------- writeback ------------------------------- #
            wb_live = False
            bucket = completions.pop(now, None)
            if bucket:
                if len(bucket) > 1:
                    bucket.sort()
                if wb_filter is not None:
                    live = [s for s in bucket if W_sq[s & mask] == s
                            and not W_st[s & mask] & 4]
                    if live:
                        wb_live = True
                        bucket, deferred = wb_filter(live, now)
                        for s in deferred:
                            completions.setdefault(now + 1, []).append(s)
                for s in bucket:
                    slot = s & mask
                    st = W_st[slot]
                    # Stale (slot recycled), pre-squashed and
                    # mid-bucket-recovered entries all fail here.
                    if W_sq[slot] != s or st & 4:
                        continue
                    wb_live = True
                    W_st[slot] = st | 2
                    if tracer is not None:
                        tracer.writeback(s, now)
                    pc = W_pc[slot]
                    kind = P_kind[pc]
                    if P_wreg[pc]:
                        dest = W_dest[slot]
                        result = W_res[slot]
                        if values is not None:
                            values[dest] = result
                            ready_table[dest] = True
                        else:
                            write_result(slot)
                        waiters = waiting.pop(dest, None)
                        if waiters:
                            for ws in waiters:
                                wslot = ws & mask
                                if (W_sq[wslot] != ws
                                        or W_st[wslot] & 4):
                                    continue
                                count = W_wc[wslot] - 1
                                W_wc[wslot] = count
                                if count == 0:
                                    if (not window
                                            or window[-1] < ws):
                                        window.append(ws)
                                    else:
                                        insort(window, ws)
                        watchers = (addr_watch.pop(dest, None)
                                    if addr_watch else None)
                        if watchers:
                            for ws in watchers:
                                wslot = ws & mask
                                if (W_sq[wslot] == ws
                                        and not W_st[wslot] & 4):
                                    imm = P_imm[W_pc[wslot]]
                                    if type(result) is int:
                                        addr = ((result + imm)
                                                & _ADDR_MASK)
                                    else:
                                        addr = effective_address(
                                            result, imm)
                                    sq_set_address(W_se[wslot], addr)
                    elif kind == 5:
                        sq_execute(W_se[slot], W_ma[slot],
                                   W_sval[slot])
                    if on_complete is not None:
                        on_complete(s, slot)
                    if kind == 1:
                        # _resolve_control's conditional-branch body.
                        stats.branches += 1
                        taken = W_atk[slot]
                        prediction = W_pred[slot]
                        predictor_update(prediction, taken)
                        mispredicted = taken != W_ptk[slot]
                        if on_branch is not None:
                            on_branch(slot, mispredicted)
                        if mispredicted:
                            stats.branch_mispredictions += 1
                            prediction.taken = taken
                            predictor_restore(prediction)
                            W_st[slot] |= 8
                            stats.recoveries += 1
                            recover_from_branch(s, slot, now)
                    elif kind == 3:
                        # BTB-indirect resolution stays out of line
                        # (kind 2 direct jumps never mispredict).
                        resolve_control(s, slot, pc, kind, now)

            # ---------------- issue (event window walk) --------------- #
            # The front of the sorted ready window is examined in place,
            # in the scan loop's candidate order and ``max_issue_scan``
            # budget (stale and not-yet-eligible entries consume it too);
            # blocked candidates stay put, issued and stale ones are
            # compacted out.
            issued = 0
            dropped = False
            next_timed = None
            n = len(window)
            if n:
                fu_used[0] = fu_used[1] = fu_used[2] = fu_used[3] = 0
                slots = issue_width
                if budget < n:
                    n = budget
                # The SQ only changes between walks (dispatch allocates,
                # writeback resolves), and unresolved-address seqs
                # iterate in ascending order, so "any older store with
                # unknown address" is one compare against the first key.
                sq_oldest_unknown = -1
                for _q in sq_unknown:
                    sq_oldest_unknown = _q
                    break
                read = 0
                write = 0
                while read < n:
                    s = window[read]
                    read += 1
                    slot = s & mask
                    st = W_st[slot]
                    if W_sq[slot] != s or st & 5:
                        dropped = True
                        continue
                    eic = W_eic[slot]
                    if eic > now:
                        if next_timed is None or eic < next_timed:
                            next_timed = eic
                        window[write] = s
                        write += 1
                        continue
                    pc = W_pc[slot]
                    kind = P_kind[pc]
                    if kind == 4:
                        # The base register cannot be freed or rewritten
                        # while the load is in flight (commit is in
                        # order), so the effective address is computed
                        # once and memoised in the ``ma`` column across
                        # blocked re-visits.
                        addr = W_ma[slot]
                        if addr < 0:
                            base = peek(W_h0[slot])
                            if type(base) is int:
                                addr = (base + P_imm[pc]) & _ADDR_MASK
                            else:
                                addr = effective_address(base, P_imm[pc])
                            W_ma[slot] = addr
                        # StoreQueue.load_blocked, inline.
                        if -1 < sq_oldest_unknown < s:
                            window[write] = s
                            write += 1
                            continue
                        if sq_pending:
                            pend = sq_pending.get(addr)
                            if pend is not None:
                                blocked = False
                                for _e in pend:
                                    if _e.seq < s:
                                        blocked = True
                                        break
                                if blocked:
                                    window[write] = s
                                    write += 1
                                    continue
                    code = P_fu[pc]
                    if fu_used[code] >= fu_limits[code]:
                        window[write] = s
                        write += 1
                        continue
                    # -------- issue + execute ------------------------- #
                    W_st[slot] = st | 1
                    if tracer is not None:
                        tracer.issue(s, now)
                    issued += 1
                    fu_used[code] = fu_used[code] + 1
                    nsrc = P_nsrc[pc]
                    if read_direct:
                        finish = now + execute(
                            s, slot, pc, kind,
                            values[W_h0[slot]] if nsrc else None,
                            values[W_h1[slot]] if nsrc == 2 else None)
                    else:
                        finish = now + execute(
                            s, slot, pc, kind,
                            read_operand(W_h0[slot]) if nsrc else None,
                            read_operand(W_h1[slot]) if nsrc == 2 else None)
                    W_fin[slot] = finish
                    fbucket = completions.get(finish)
                    if fbucket is None:
                        completions[finish] = [s]
                    else:
                        fbucket.append(s)
                    slots -= 1
                    if slots <= 0:
                        break
                if write != read:
                    del window[write:read]
                if issued:
                    stats.issued += issued
                    self.iq_count -= issued

            # ---------------- dispatch (rename + allocate) ------------ #
            moved = 0
            stall_reason = None
            if buffer:
                if begin_dispatch is not None:
                    begin_dispatch()
                iq_count = self.iq_count
                # Consume the buffer through a read index; one slice
                # delete at the end instead of a left shift per pop.
                rd = 0
                blen = len(buffer)
                while moved < rename_width and rd < blen:
                    s = buffer[rd]
                    slot = s & mask
                    pc = W_pc[slot]
                    kind = P_kind[pc]
                    if kind == 6:            # NOP/HALT
                        rd += 1
                        W_st[slot] |= 2
                        if state_tag is not None:
                            state_tag(slot)
                        in_flight.append(s)
                        moved += 1
                        continue
                    if iq_count >= iq_size:
                        stall_reason = "iq_full"
                        break
                    if kind == 4:
                        if lb.occupied >= lb.capacity:
                            stall_reason = "load_buffer_full"
                            break
                    elif kind == 5 and sq_is_full():
                        stall_reason = "store_queue_full"
                        break
                    nsrc = P_nsrc[pc]
                    wait_count = 0
                    if rob:
                        # BaselineProcessor.rename + wiring, inline.
                        if len(in_flight) >= rob_size:
                            stall_reason = "rob_full"
                            break
                        writes = P_wreg[pc]
                        if writes:
                            free = (int_free if P_dest[pc] < NUM_INT_REGS
                                    else fp_free)
                            if not free:
                                stall_reason = "registers_full"
                                break
                        rd += 1
                        if nsrc:
                            W_h0[slot] = h0 = rat[P_s0[pc]]
                            if not ready_table[h0]:
                                wait_count = 1
                                lst = waiting.get(h0)
                                if lst is None:
                                    waiting[h0] = [s]
                                else:
                                    lst.append(s)
                            if nsrc == 2:
                                W_h1[slot] = h1 = rat[P_s1[pc]]
                                if not ready_table[h1]:
                                    wait_count += 1
                                    lst = waiting.get(h1)
                                    if lst is None:
                                        waiting[h1] = [s]
                                    else:
                                        lst.append(s)
                        if writes:
                            new = free.pop()
                            ready_table[new] = False
                            W_dest[slot] = new
                            rat[P_dest[pc]] = new
                        if kind == 1 or kind == 2 or kind == 3:
                            W_tag[slot] = list(rat)  # recovery snapshot
                    else:
                        stall_reason = rename(s, slot, pc)
                        if stall_reason is not None:
                            break
                        rd += 1
                        if nsrc:
                            h0 = W_h0[slot]
                            if not ready_of(h0):
                                wait_count = 1
                                lst = waiting.get(h0)
                                if lst is None:
                                    waiting[h0] = [s]
                                else:
                                    lst.append(s)
                            if nsrc == 2:
                                h1 = W_h1[slot]
                                if not ready_of(h1):
                                    wait_count += 1
                                    lst = waiting.get(h1)
                                    if lst is None:
                                        waiting[h1] = [s]
                                    else:
                                        lst.append(s)
                    W_wc[slot] = wait_count
                    W_eic[slot] = now + eic_delay
                    if kind == 5:
                        W_se[slot] = entry = sq_allocate(s)
                        # Early AGU: resolve the address as soon as the
                        # base operand (h1) is available, possibly long
                        # before the store issues.
                        if ready_of(h1):
                            base = peek(h1)
                            if type(base) is int:
                                addr = (base + P_imm[pc]) & _ADDR_MASK
                            else:
                                addr = effective_address(base, P_imm[pc])
                            sq_set_address(entry, addr)
                        else:
                            lst = addr_watch.get(h1)
                            if lst is None:
                                addr_watch[h1] = [s]
                            else:
                                lst.append(s)
                    elif kind == 4:
                        W_ma[slot] = -1      # address memo for the walk
                        lb.occupied += 1
                    in_flight.append(s)
                    iq_count += 1
                    moved += 1
                    # A freshly dispatched instruction is the youngest
                    # in the machine: the window admits it with an append.
                    if wait_count == 0:
                        window.append(s)
                if rd:
                    if tracer is not None:
                        for q in buffer[:rd]:
                            tracer.dispatch(q, now)
                    del buffer[:rd]
                self.iq_count = iq_count
                stats.dispatched += moved
                if moved == 0 and stall_reason is not None:
                    stats.dispatch_stall_cycles[stall_reason] += 1
                    self._stall_reason = stall_reason
                    if tracer is not None:
                        tracer.stall(buffer[0], now, stall_reason)
                    if on_stall is not None:
                        on_stall(stall_reason)
                else:
                    stall_reason = None

            # ---------------- fetch (FetchEngine.cycle, inline) ------- #
            fetched = 0
            if not fetch.halted:
                if now < fetch.stalled_until:
                    fetch.icache_stall_cycles += 1
                elif len(buffer) < buffer_capacity:
                    pc = fetch.pc
                    # I-cache hit path, inline (instruction_latency /
                    # Cache.access; instructions sit at 1 << 40 + pc).
                    line = (((1 << 40) + pc) << 3) >> ic_line_shift
                    tag = line >> ic_set_bits
                    lines = ic_sets[line & ic_set_mask]
                    if tag in lines:
                        icache.hits += 1
                        lines.move_to_end(tag)
                        latency = icache_hit_cycles
                    else:
                        latency = instruction_latency(pc)
                    if latency > 1:
                        fetch.stalled_until = now + latency
                        fetch.icache_stall_cycles += 1
                    else:
                        next_seq = fetch.next_seq
                        if next_seq + fetch_width > w.grow_barrier:
                            w.ensure_room(oldest_live(),
                                          next_seq + fetch_width)
                            mask = w.mask
                        # History only moves when a branch is predicted,
                        # so read it once per group and refresh after
                        # each (not-taken) prediction.
                        if tage_hmask is not None:
                            ghr_now = predictor.ghr & tage_hmask
                        else:
                            ghr_now = predictor_history()
                        for _ in range(fetch_width):
                            if len(buffer) >= buffer_capacity:
                                break
                            if pc < 0 or pc >= P_size:
                                # Wrong-path PC fell off the program.
                                fetch.halted = True
                                break
                            slot = next_seq & mask
                            W_sq[slot] = next_seq
                            W_pc[slot] = pc
                            W_st[slot] = 0
                            W_ghr[slot] = ghr_now
                            buffer.append(next_seq)
                            next_seq += 1
                            fetched += 1
                            kind = P_kind[pc]
                            if kind >= 6:
                                if P_code[pc] == _HALT:
                                    fetch.halted = True
                                    break
                                pc += 1
                                continue
                            if kind == 1:
                                if gs_pht is not None:
                                    # gshare predict, inline.
                                    index = (pc ^ ghr_now) & gs_imask
                                    taken = gs_pht[index] >= 2
                                    prediction = Prediction(
                                        pc, taken, meta=(ghr_now, index))
                                    ghr_now = (((ghr_now << 1)
                                                | (1 if taken else 0))
                                               & gs_hmask)
                                    predictor.ghr = ghr_now
                                else:
                                    prediction = predictor_predict(pc)
                                    taken = prediction.taken
                                    if tage_hmask is not None:
                                        # Specialised predict just
                                        # masked and stored the ghr.
                                        ghr_now = predictor.ghr
                                    else:
                                        ghr_now = predictor_history()
                                W_pred[slot] = prediction
                                W_ptk[slot] = taken
                                if taken:
                                    W_ptg[slot] = pc = P_target[pc]
                                    break
                                W_ptg[slot] = pc + 1
                            elif kind == 2:
                                W_ptk[slot] = True
                                W_ptg[slot] = pc = P_target[pc]
                                break
                            elif kind == 3:
                                W_ptk[slot] = True
                                predicted = btb_predict(pc)
                                # BTB miss: fall through (will recover).
                                W_ptg[slot] = pc = (
                                    predicted if predicted is not None
                                    else pc + 1)
                                break
                            pc += 1
                        fetch.pc = pc
                        fetch.next_seq = next_seq
                        fetch.fetched += fetched
                        if tracer is not None:
                            for q in buffer[len(buffer) - fetched:]:
                                qpc = W_pc[q & mask]
                                tracer.fetch(q, qpc, P_insts[qpc], now)

            self.now = now = now + 1

            # ---------------- idle skip ------------------------------- #
            if (commits == 0 and not wb_live and not issued
                    and not moved and not dropped and not fetched
                    and stats.recoveries == recoveries_before
                    and stats.checkpoints_created == checkpoints_before
                    and (settled is None or settled())):
                bound = min(completions) if completions else None
                if (not fetch.halted
                        and len(buffer) < buffer_capacity):
                    resume = fetch.stalled_until
                    if bound is None or resume < bound:
                        bound = resume
                if next_timed is not None and (bound is None
                                               or next_timed < bound):
                    bound = next_timed
                horizon = now + (cycle_cap - cycles)
                if bound is None or bound > horizon:
                    bound = horizon
                if bound > now:
                    count = bound - now
                    stats.cycles = cycles = cycles + count
                    self.skipped_cycles += count
                    if stall_reason is not None:
                        stats.dispatch_stall_cycles[stall_reason] += count
                        if stall_bulk is not None:
                            stall_bulk(stall_reason, count)
                    fetch.skip_cycles(now, count)
                    self.now = now = now + count
        self.now = now

    # ------------------------------------------------------------------ #
    # Scan oracle stages (``cycle`` on a scan core): every ready
    # candidate is heap-popped and re-pushed each cycle, completion
    # buckets are filtered lazily and every cycle is simulated.
    # ------------------------------------------------------------------ #

    def writeback_stage(self, now: int) -> None:
        completed = self._completions.pop(now, None)
        if not completed:
            return
        # Resolve strictly oldest-first.  Buckets accumulate in issue
        # order, so a younger long-latency branch could otherwise be
        # examined before an older same-cycle mispredict: it would train
        # the predictor, repair history and trigger a recovery of its
        # own even though the older branch's squash is about to prove it
        # wrong-path — re-repairing history and double-squashing state.
        # Age order makes the older squash land first, and the squashed
        # younger completions below are simply dropped.
        if len(completed) > 1:
            completed.sort()
        w = self.w
        mask = w.mask
        w_sq, w_st = w.sq, w.st
        live = [s for s in completed
                if w_sq[s & mask] == s and not w_st[s & mask] & SQUASHED]
        if not live:
            return
        accepted, deferred = self.filter_writebacks(live, now)
        for s in deferred:
            self._completions.setdefault(now + 1, []).append(s)
        complete = self._complete
        for s in accepted:
            slot = s & mask
            if w_st[slot] & SQUASHED:
                continue  # an earlier completion this cycle recovered
            complete(s, slot, now)

    def _complete(self, seq: int, slot: int, now: int) -> None:
        w = self.w
        w.st[slot] |= COMPLETED
        if self.tracer is not None:
            self.tracer.writeback(seq, now)
        pc = w.pc[slot]
        dec = self._dec
        kind = dec.kind[pc]
        if dec.wreg[pc]:
            dest = w.dest[slot]
            result = w.res[slot]
            self.write_result(slot)
            waiters = self._waiting.pop(dest, None)
            if waiters:
                mask = w.mask
                w_sq, w_st, w_wc = w.sq, w.st, w.wc
                for ws in waiters:
                    wslot = ws & mask
                    if w_sq[wslot] != ws or w_st[wslot] & SQUASHED:
                        continue
                    count = w_wc[wslot] - 1
                    w_wc[wslot] = count
                    if count == 0:
                        heappush(self._ready, ws)
            watchers = self._addr_watch.pop(dest, None)
            if watchers:
                mask = w.mask
                w_sq, w_st = w.sq, w.st
                imms = dec.imm
                for ws in watchers:
                    wslot = ws & mask
                    if w_sq[wslot] == ws and not w_st[wslot] & SQUASHED:
                        addr = effective_address(result,
                                                 imms[w.pc[wslot]])
                        self.sq.set_address(w.se[wslot], addr)
        elif kind == 5:                  # store
            self.sq.execute(w.se[slot], w.ma[slot], w.sval[slot])
        self.on_complete(seq, slot)
        if kind == 1 or kind == 2 or kind == 3:
            self._resolve_control(seq, slot, pc, kind, now)

    def _resolve_control(self, seq: int, slot: int, pc: int, kind: int,
                         now: int) -> None:
        w = self.w
        mispredicted = False
        if kind == 1:                    # conditional branch
            self.stats.branches += 1
            taken = w.atk[slot]
            prediction = w.pred[slot]
            self.predictor.update(prediction, taken)
            mispredicted = taken != w.ptk[slot]
            self.on_branch_resolved(slot, mispredicted)
            if mispredicted:
                self.stats.branch_mispredictions += 1
                # Repair speculative global history with the real outcome.
                prediction.taken = taken
                self.predictor.restore(prediction)
        elif kind == 3:                  # indirect jump
            target = w.atg[slot]
            correct = target == w.ptg[slot]
            self.btb.update(pc, target, correct)
            self.on_branch_resolved(slot, not correct)
            mispredicted = not correct
            ghr = w.ghr[slot]
            if mispredicted and ghr is not None:
                # Wipe squashed younger branches' speculative history
                # (an indirect jump shifts no direction history itself).
                self.predictor.set_history(ghr)
        if mispredicted:
            w.st[slot] |= MISPRED
            self.stats.recoveries += 1
            self.recover_from_branch(seq, slot, now)

    def issue_stage(self, now: int) -> None:
        """Pop every candidate from the ready heap, re-pushing the ones
        that cannot issue this cycle."""
        self.fus.new_cycle()
        deferred: List[int] = []
        scanned = 0
        w = self.w
        mask = w.mask
        w_sq, w_st, w_eic, w_pc = w.sq, w.st, w.eic, w.pc
        dec = self._dec
        while (self._ready and self.fus.slots_left > 0
               and scanned < self.config.max_issue_scan):
            s = heappop(self._ready)
            scanned += 1
            slot = s & mask
            if w_sq[slot] != s or w_st[slot] & (SQUASHED | ISSUED):
                continue
            if w_eic[slot] > now:
                deferred.append(s)
                continue
            pc = w_pc[slot]
            kind = dec.kind[pc]
            if kind == 4:                # load
                addr = effective_address(
                    self.peek_operand(w.h0[slot]), dec.imm[pc])
                if self.sq.load_blocked(addr, s):
                    deferred.append(s)   # unresolved/conflicting store
                    continue
            if not self.fus.can_issue_code(dec.fu[pc]):
                deferred.append(s)
                continue
            self._issue(s, slot, pc, kind, now)
        for s in deferred:
            heappush(self._ready, s)

    def _issue(self, seq: int, slot: int, pc: int, kind: int,
               now: int) -> None:
        w = self.w
        w.st[slot] |= ISSUED
        if self.tracer is not None:
            self.tracer.issue(seq, now)
        dec = self._dec
        self.stats.issued += 1
        self.fus.issue_code(dec.fu[pc])
        self.iq_count -= 1
        nsrc = dec.nsrc[pc]
        v0 = v1 = None
        if nsrc:
            v0 = self.read_operand(w.h0[slot])
            if nsrc > 1:
                v1 = self.read_operand(w.h1[slot])
        latency = self._execute(seq, slot, pc, kind, v0, v1)
        completions = self._completions
        finish = now + latency
        w.fin[slot] = finish
        bucket = completions.get(finish)
        if bucket is None:
            completions[finish] = [seq]
        else:
            bucket.append(seq)

    def _execute(self, seq: int, slot: int, pc: int, kind: int,
                 v0, v1) -> int:
        """Functional execution; returns result latency in cycles.

        The only code in the timing cores that evaluates an instruction:
        the scan oracle reaches it through :meth:`_issue`, and the event
        loop's issue walk calls it directly."""
        w = self.w
        dec = self._dec
        if kind == 0:                        # plain register-writing op
            srcs = (v0, v1) if dec.nsrc[pc] > 1 \
                else ((v0,) if dec.nsrc[pc] else ())
            w.res[slot] = dec.evalf[pc](srcs, dec.imm[pc])
            return dec.lat[pc]
        if kind == 1:                        # conditional branch
            srcs = (v0, v1) if dec.nsrc[pc] > 1 else (v0,)
            w.atk[slot] = taken = dec.branchf[pc](srcs)
            w.atg[slot] = dec.target[pc] if taken else pc + 1
            return dec.lat[pc]
        if kind == 4:                        # load
            imm = dec.imm[pc]
            if type(v0) is int:
                addr = (v0 + imm) & _ADDR_MASK
            else:
                addr = effective_address(v0, imm)
            w.ma[slot] = addr
            forwarded, penalty = self.sq.forward(addr, seq)
            is_fld = dec.code[pc] == _FLD
            if forwarded is not None:
                w.res[slot] = float(forwarded) if is_fld else forwarded
                return 1 + penalty
            value = self.memory.get(addr, 0)
            w.res[slot] = float(value) if is_fld else value
            return self.hierarchy.load_latency(addr)
        if kind == 5:                        # store
            imm = dec.imm[pc]
            w.sval[slot] = v0
            if type(v1) is int:
                w.ma[slot] = (v1 + imm) & _ADDR_MASK
            else:
                w.ma[slot] = effective_address(v1, imm)
            return 1
        if kind == 2:                        # direct jump
            w.atk[slot] = True
            w.atg[slot] = dec.target[pc]
            return dec.lat[pc]
        if kind == 3:                        # indirect jump
            w.atk[slot] = True
            w.atg[slot] = int(v0)
            return dec.lat[pc]
        raise AssertionError(f"kind {kind} reached execute")

    # ------------------------------------------------------------------ #
    # Dispatch (rename + allocate).
    # ------------------------------------------------------------------ #

    def dispatch_stage(self, now: int) -> None:
        buffer = self.fetch.buffer
        if not buffer:
            return
        self.begin_dispatch_cycle()
        rename_width = self.config.rename_width
        iq_size = self.config.iq_size
        w = self.w
        mask = w.mask
        dec = self._dec
        moved = 0
        stall_reason: Optional[str] = None
        while moved < rename_width and buffer:
            s = buffer[0]
            slot = s & mask
            pc = w.pc[slot]
            kind = dec.kind[pc]
            if kind == 6:                # NOP/HALT
                buffer.pop(0)
                w.st[slot] |= COMPLETED
                self.assign_state_tag(slot)
                self.in_flight.append(s)
                self.stats.dispatched += 1
                if self.tracer is not None:
                    self.tracer.dispatch(s, now)
                moved += 1
                continue

            if self.iq_count >= iq_size:
                stall_reason = "iq_full"
                break
            if kind == 4 and self.load_buffer.is_full():
                stall_reason = "load_buffer_full"
                break
            if kind == 5 and self.sq.is_full():
                stall_reason = "store_queue_full"
                break
            stall_reason = self.rename(s, slot, pc)
            if stall_reason is not None:
                break

            buffer.pop(0)
            self._wire_dependencies(s, slot, pc, kind, now)
            if self.tracer is not None:
                self.tracer.dispatch(s, now)
            moved += 1

        if moved == 0 and stall_reason is not None:
            self._stall_reason = stall_reason
            self.stats.dispatch_stall_cycles[stall_reason] += 1
            if self.tracer is not None:
                self.tracer.stall(buffer[0], now, stall_reason)
            self.on_dispatch_stall(stall_reason)

    def _wire_dependencies(self, seq: int, slot: int, pc: int, kind: int,
                           now: int) -> None:
        waiting = self._waiting
        w = self.w
        dec = self._dec
        nsrc = dec.nsrc[pc]
        wait_count = 0
        for i in range(nsrc):
            handle = w.h0[slot] if i == 0 else w.h1[slot]
            if not self.handle_ready(handle):
                wait_count += 1
                lst = waiting.get(handle)
                if lst is None:
                    waiting[handle] = [seq]
                else:
                    lst.append(seq)
        w.wc[slot] = wait_count
        w.eic[slot] = now + 1 + self.extra_dispatch_delay
        if kind == 5:                    # store
            w.se[slot] = self.sq.allocate(seq)
            # Early AGU: resolve the address as soon as the base operand
            # is available, possibly long before the store issues.
            base = w.h1[slot]
            if self.handle_ready(base):
                addr = effective_address(self.peek_operand(base),
                                         dec.imm[pc])
                self.sq.set_address(w.se[slot], addr)
            else:
                self._addr_watch.setdefault(base, []).append(seq)
        elif kind == 4:                  # load
            w.ma[slot] = -1
            self.load_buffer.allocate()
        self.in_flight.append(seq)
        self.iq_count += 1
        self.stats.dispatched += 1
        if wait_count == 0:
            heappush(self._ready, seq)

    # ------------------------------------------------------------------ #
    # Commit helpers.
    # ------------------------------------------------------------------ #

    def commit_one(self, seq: int, slot: int, now: int) -> bool:
        """Commit the in-flight head; False if an exception interrupted."""
        ordinal = self.commit_ordinal
        if (ordinal in self.exception_plan
                and ordinal not in self._exceptions_taken):
            self._exceptions_taken.add(ordinal)
            self.stats.exceptions_taken += 1
            self.stats.recoveries += 1
            self.take_exception(seq, slot, now)
            return False
        self.commit_ordinal += 1
        self.stats.committed += 1
        if self.tracer is not None:
            self.tracer.commit(seq, now, ordinal)
        metrics = self._metrics
        if metrics is not None \
                and self.stats.committed % metrics.interval == 0:
            metrics.sample(self)
        pc = self.w.pc[slot]
        if self.commit_trace is not None:
            self.commit_trace.append(pc)
        code = self._dec.code[pc]
        if self._dec.kind[pc] == 4:
            self.load_buffer.release()
        elif code == _HALT:
            self.done = True
        return True

    def pending_exception_offset(self, count: int) -> Optional[int]:
        """Offset (< count) of the first planned exception among the next
        ``count`` commit ordinals, or None. Used by CPR's bulk commit to
        pre-scan an interval before committing any of it."""
        if not self.exception_plan:
            return None
        for offset in range(count):
            ordinal = self.commit_ordinal + offset
            if (ordinal in self.exception_plan
                    and ordinal not in self._exceptions_taken):
                return offset
        return None

    def commit_store_write(self, addr: int, value) -> None:
        self.memory[addr] = value
        self.hierarchy.store_commit(addr)

    def repair_history_at(self, slot: int) -> None:
        """Restore predictor history to the point just before this
        instruction was fetched (exception recovery re-fetches its PC)."""
        ghr = self.w.ghr[slot]
        if ghr is not None:
            self.predictor.set_history(ghr)

    # ------------------------------------------------------------------ #
    # Squash.
    # ------------------------------------------------------------------ #

    def squash_after(self, boundary_seq: int,
                     fault_seq: int) -> List[int]:
        """Remove every in-flight instruction with ``seq > boundary_seq``.

        ``fault_seq`` classifies the Fig. 9 accounting: squashed *issued*
        instructions with ``seq > fault_seq`` were wrong-path; the rest
        were correct-path work that will be re-executed (CPR rollback past
        a checkpoint, or an exception replay).

        Returns the squashed seqs, youngest first, so the architecture
        can undo its own state for them (their window slots stay owned
        until fetch recycles them, so columns remain readable).

        The event scheduler additionally unlinks each squashed waiter
        from the per-operand wakeup map and purges the squashed
        instructions' pending completion events, so a producer that
        later reuses a freed register handle never walks zombie waiter
        lists and the completion wheel holds no stale wakeup times (the
        idle skip keys its next-event bound off that wheel).  Entries
        already admitted to the ready window are left to be dropped by
        the next walk — exactly when the reference scan loop would pop
        and discard them, so the shared ``max_issue_scan`` budget
        accounting stays bit-identical.
        """
        squashed: List[int] = []
        purge = self._sched_event
        waiting = self._waiting
        addr_watch = self._addr_watch
        tracer = self.tracer
        in_flight = self.in_flight
        w = self.w
        mask = w.mask
        w_st = w.st
        dec = self._dec
        stats = self.stats
        while in_flight and in_flight[-1] > boundary_seq:
            s = in_flight.pop()
            slot = s & mask
            st = w_st[slot]
            w_st[slot] = st | SQUASHED
            squashed.append(s)
            if tracer is not None:
                tracer.squash(s, self.now)
            stats.squashed += 1
            pc = w.pc[slot]
            kind = dec.kind[pc]
            if st & ISSUED:
                if s > fault_seq:
                    stats.wrong_path_executed += 1
                else:
                    stats.correct_path_reexecuted += 1
            elif not st & COMPLETED:
                self.iq_count -= 1
                if purge:
                    if w.wc[slot]:
                        for i in range(dec.nsrc[pc]):
                            handle = w.h0[slot] if i == 0 else w.h1[slot]
                            lst = waiting.get(handle)
                            if lst is not None:
                                try:
                                    lst.remove(s)
                                except ValueError:
                                    pass
                    if kind == 5:
                        lst = addr_watch.get(w.h1[slot])
                        if lst is not None:
                            try:
                                lst.remove(s)
                            except ValueError:
                                pass
            if kind == 4:
                self.load_buffer.release()
        if purge and squashed:
            # Targeted purge: an issued-but-incomplete instruction has
            # exactly one pending completion event, at the cycle the
            # ``fin`` column recorded at issue.  (A bucket already
            # popped by this cycle's writeback is simply absent — its
            # in-loop ownership recheck drops the squashed entry.)
            completions = self._completions
            w_fin = w.fin
            for s in squashed:
                slot = s & mask
                st = w_st[slot]
                if st & ISSUED and not st & COMPLETED:
                    finish = w_fin[slot]
                    bucket = completions.get(finish)
                    if bucket is not None:
                        try:
                            bucket.remove(s)
                        except ValueError:
                            pass
                        if not bucket:
                            del completions[finish]
        self.sq.squash_after(boundary_seq)
        if tracer is not None:
            # Buffered (fetched, never dispatched) younger instructions
            # are dropped by the fetch engine below; trace them too so
            # the viewer closes their fetch stage.
            for s in self.fetch.buffer:
                if s > boundary_seq:
                    tracer.squash(s, self.now)
        self.fetch.squash_after(boundary_seq)
        return squashed

    # ------------------------------------------------------------------ #
    # Architecture hooks.  Instructions are identified by (seq, slot);
    # ``slot`` is ``seq & window.mask`` at call time (growth can only
    # happen at a fetch-group boundary, never between the computation of
    # a slot and the hook call that consumes it).
    # ------------------------------------------------------------------ #

    @abstractmethod
    def commit_stage(self, now: int) -> None:
        """Retire completed instructions per the machine's commit rules."""

    @abstractmethod
    def rename(self, seq: int, slot: int, pc: int) -> Optional[str]:
        """Rename sources, allocate the destination and fill
        h0/h1/dest; or return the stall reason that keeps this
        instruction from dispatching (and change nothing)."""

    @abstractmethod
    def recover_from_branch(self, seq: int, slot: int, now: int) -> None:
        """Squash and restore state for the mispredicted instruction."""

    @abstractmethod
    def take_exception(self, seq: int, slot: int, now: int) -> None:
        """Recover for an exception raised by a committable instruction."""

    @abstractmethod
    def handle_ready(self, handle: Any) -> bool:
        """Is the physical register behind ``handle`` ready to read?"""

    @abstractmethod
    def read_operand(self, handle: Any):
        """Read a (ready) physical register value."""

    @abstractmethod
    def peek_operand(self, handle: Any):
        """Read a ready value with *no* side effects (no use-bit clear,
        no reference-count release) — used by the early AGU and the
        load disambiguation check."""

    @abstractmethod
    def write_result(self, slot: int) -> None:
        """Write ``w.res[slot]`` to its destination register, mark ready."""

    def assign_state_tag(self, slot: int) -> None:
        """Tag NOP/HALT with the current state (MSP overrides)."""

    def begin_dispatch_cycle(self) -> None:
        """Per-cycle dispatch-group state reset (MSP rename limits)."""

    def filter_writebacks(self, completed: List[int], now: int):
        """Split completions into (accepted, deferred) per write ports."""
        return completed, []

    def on_complete(self, seq: int, slot: int) -> None:
        """Architecture bookkeeping when an instruction finishes."""

    def commit_settled(self) -> bool:
        """True when re-running the commit stage against frozen machine
        state is a provable no-op, so quiet cycles may be skipped in
        bulk (MSP requires its pipelined LCS min-tree to have drained
        to a fixpoint)."""
        return True

    def on_branch_resolved(self, slot: int, mispredicted: bool) -> None:
        """CPR trains its confidence estimator here."""

    def on_dispatch_stall(self, reason: str) -> None:
        """Called when a whole dispatch cycle stalled (MSP attributes
        bank-full stalls to the blocking logical register here)."""

    def on_dispatch_stall_bulk(self, reason: str, count: int) -> None:
        """Replay ``count`` per-cycle :meth:`on_dispatch_stall` calls
        during the idle skip.  Machine state is frozen across the
        skipped cycles, and the quiet cycle before them already ran the
        per-cycle hook without changing anything, so only a hook that
        counts cycles has work here (MSP overrides this with a bulk
        add)."""
