"""Front end: fetch, branch prediction, fetch-buffer decoupling.

All four machines share this front end (fetch width 3, Table I). Each
cycle it fetches up to ``width`` sequential instructions from the I-cache,
predicting conditional branches (direction predictor) and indirect jumps
(BTB), and stops the group at the first predicted-taken control transfer.
Fetched instructions wait in a small decoupling buffer until the dispatch
stage pulls them.

Fetched state lives in the core's :class:`~repro.pipeline.window.
InflightWindow` columns; the buffer itself is a plain list of sequence
numbers.  On an I-cache miss the front end stalls for the miss latency.
On a misprediction the core calls :meth:`redirect`, which also discards
the buffer (those are wrong-path instructions by definition).
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.branch.base import BranchPredictor
from repro.branch.btb import BranchTargetBuffer
from repro.isa.opcodes import KIND_BRANCH, KIND_JMP, KIND_JR, Op
from repro.isa.program import Program
from repro.memory.cache import MemoryHierarchy
from repro.pipeline.window import InflightWindow

_HALT = Op.HALT.value


class FetchEngine:
    """Decoupled front end shared by all cores."""

    def __init__(
        self,
        program: Program,
        hierarchy: MemoryHierarchy,
        predictor: BranchPredictor,
        btb: Optional[BranchTargetBuffer] = None,
        width: int = 3,
        buffer_capacity: int = 16,
        window: Optional[InflightWindow] = None,
    ) -> None:
        self.program = program
        self.decoded = program.decoded
        self.hierarchy = hierarchy
        self.predictor = predictor
        self.btb = btb or BranchTargetBuffer()
        self.width = width
        self.buffer_capacity = buffer_capacity
        self.window = window if window is not None else InflightWindow(64)

        #: Observability hook slot (armed by ``core.attach_tracer``);
        #: None-checked at every emission site, zero-overhead when off.
        self.tracer = None

        #: Oldest live seq supplier for the window growth check; the
        #: core overrides this with one that also consults its ROB.
        self.oldest_live: Callable[[], int] = (
            lambda: self.buffer[0] if self.buffer else self.next_seq)

        self.pc = program.entry
        self.buffer: List[int] = []
        self.next_seq = 0
        self.halted = False          # saw HALT; wait for redirect
        self.stalled_until = 0       # I-cache miss in progress
        self.fetched = 0
        self.icache_stall_cycles = 0

    # ------------------------------------------------------------------ #

    def redirect(self, target: int, now: int) -> None:
        """Recovery: discard the buffer and restart fetch at ``target``."""
        if self.tracer is not None:
            # Normally the core's squash_after has already traced (and
            # dropped) buffered wrong-path instructions; anything still
            # here is discarded by the redirect itself.
            for seq in self.buffer:
                self.tracer.squash(seq, now)
        self.buffer.clear()
        self.pc = target
        self.halted = False
        # The redirected fetch starts next cycle.
        self.stalled_until = now + 1

    def squash_after(self, seq: int) -> None:
        """Drop buffered instructions younger than ``seq``."""
        self.buffer[:] = [s for s in self.buffer if s <= seq]

    # ------------------------------------------------------------------ #

    def cycle(self, now: int) -> None:
        """Fetch up to ``width`` instructions into the buffer."""
        if self.halted:
            return
        if now < self.stalled_until:
            self.icache_stall_cycles += 1
            return
        buffer = self.buffer
        capacity = self.buffer_capacity
        if len(buffer) >= capacity:
            return

        pc = self.pc
        latency = self.hierarchy.instruction_latency(pc)
        if latency > 1:
            self.stalled_until = now + latency
            self.icache_stall_cycles += 1
            return

        w = self.window
        next_seq = self.next_seq
        if next_seq + self.width > w.grow_barrier:
            w.ensure_room(self.oldest_live(), next_seq + self.width)
        mask = w.mask
        w_sq, w_pc, w_st = w.sq, w.pc, w.st
        w_ghr = w.ghr
        dec = self.decoded
        size = dec.size
        kinds, codes, targets = dec.kind, dec.code, dec.target
        predictor = self.predictor
        tracer = self.tracer
        fetched = 0
        for _ in range(self.width):
            if len(buffer) >= capacity:
                break
            if pc < 0 or pc >= size:
                # Wrong-path PC fell off the program: nothing to fetch
                # until a recovery redirects us.
                self.halted = True
                break

            slot = next_seq & mask
            w_sq[slot] = next_seq
            w_pc[slot] = pc
            w_st[slot] = 0
            w_ghr[slot] = predictor.get_history()
            seq = next_seq
            next_seq += 1
            fetched += 1
            buffer.append(seq)
            if tracer is not None:
                tracer.fetch(seq, pc, dec.insts[pc], now)

            kind = kinds[pc]
            if kind >= 6:            # KIND_NONE: NOP or HALT
                if codes[pc] == _HALT:
                    self.halted = True
                    break
                pc += 1
                continue

            next_pc = pc + 1
            stop_group = False
            if kind == KIND_BRANCH:
                prediction = predictor.predict(pc)
                w.pred[slot] = prediction
                taken = prediction.taken
                w.ptk[slot] = taken
                if taken:
                    next_pc = targets[pc]
                    w.ptg[slot] = next_pc
                    stop_group = True
                else:
                    w.ptg[slot] = pc + 1
            elif kind == KIND_JMP:
                w.ptk[slot] = True
                next_pc = targets[pc]
                w.ptg[slot] = next_pc
                stop_group = True
            elif kind == KIND_JR:
                w.ptk[slot] = True
                predicted = self.btb.predict(pc)
                # On a BTB miss, fall through (will mispredict and recover).
                next_pc = predicted if predicted is not None else pc + 1
                w.ptg[slot] = next_pc
                stop_group = True

            pc = next_pc
            if stop_group:
                break
        self.pc = pc
        self.next_seq = next_seq
        self.fetched += fetched

    def skip_cycles(self, start: int, count: int) -> None:
        """Replicate the per-cycle accounting of ``count`` consecutive
        cycles ``[start, start + count)`` during which the core proved
        fetch cannot make progress (event-scheduler idle skip): every
        such cycle that is still inside an I-cache stall counts a stall
        cycle, exactly as :meth:`cycle` would have."""
        if self.halted:
            return
        stalled = self.stalled_until - start
        if stalled > 0:
            self.icache_stall_cycles += stalled if stalled < count else count
