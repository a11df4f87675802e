"""Baseline out-of-order processor.

Table I column 1: a "reasonably standard out-of-order, single-thread,
superscalar processor" — 128-entry ROB, 48-entry IQ, 96 int + 96 fp
physical registers managed with a RAT and a free list, retire width 3,
single-level store queue. Branch recovery restores a RAT snapshot taken
when the branch dispatched; exceptions recover precisely from the
architectural RAT at the ROB head.

In-flight state is the shared structure-of-arrays window
(``self.w``).  The event loop (``OutOfOrderCore._run_event``) retires
and renames this machine inline (``_rob_inline``); ``commit_stage`` and
``rename`` below are the same logic for the scan oracle and for runs
with an exception plan or telemetry armed.
"""

from __future__ import annotations

from typing import List, Optional

from repro.isa.registers import NUM_INT_REGS, NUM_LOGICAL_REGS, is_int_reg
from repro.pipeline.core_base import FAULT_NONE, OutOfOrderCore


class BaselineProcessor(OutOfOrderCore):
    """ROB-based precise out-of-order core."""

    #: ROB 128 + fetch buffer 16 + fetch width bounds the live seq span,
    #: so a small ring suffices (it grows on demand regardless).
    window_capacity = 256

    _rob_inline = True

    def __init__(self, program, config) -> None:
        super().__init__(program, config)
        num_phys = config.phys_int + config.phys_fp
        self.num_phys = num_phys
        self.phys_value: List = [0] * num_phys
        self.phys_ready: List[bool] = [True] * num_phys

        # Identity initial mapping: logical int i -> phys i, logical fp j
        # -> phys_int + j.
        self.rat: List[int] = [0] * NUM_LOGICAL_REGS
        for lr in range(NUM_LOGICAL_REGS):
            if is_int_reg(lr):
                self.rat[lr] = lr
            else:
                self.rat[lr] = config.phys_int + (lr - NUM_INT_REGS)
                self.phys_value[self.rat[lr]] = 0.0
        self.arch_rat: List[int] = list(self.rat)

        self.int_free: List[int] = list(
            range(NUM_INT_REGS, config.phys_int))
        self.fp_free: List[int] = list(
            range(config.phys_int + NUM_INT_REGS, num_phys))

        if self._sched_event:
            # Publish the flat register file to the event scheduler's
            # direct operand paths (handles are plain ints; reads have
            # no side effects).
            self._ready_table = self.phys_ready
            self._value_table = self.phys_value
            self._read_direct = True

    # ------------------------------------------------------------------ #
    # Registers.
    # ------------------------------------------------------------------ #

    def handle_ready(self, handle: int) -> bool:
        return self.phys_ready[handle]

    def seed_register(self, logical: int, value) -> None:
        # Identity initial mapping: the checkpointed architectural value
        # lands directly in the currently mapped physical register.
        self.phys_value[self.rat[logical]] = value

    def read_operand(self, handle: int):
        return self.phys_value[handle]

    def peek_operand(self, handle: int):
        return self.phys_value[handle]

    def write_result(self, slot: int) -> None:
        w = self.w
        self.phys_value[w.dest[slot]] = w.res[slot]
        self.phys_ready[w.dest[slot]] = True

    def _free_list_for(self, logical: int) -> List[int]:
        return self.int_free if is_int_reg(logical) else self.fp_free

    # ------------------------------------------------------------------ #
    # Dispatch.
    # ------------------------------------------------------------------ #

    def rename(self, seq: int, slot: int, pc: int) -> Optional[str]:
        if len(self.in_flight) >= self.config.rob_size:
            return "rob_full"
        dec = self._dec
        if dec.wreg[pc]:
            free = (self.int_free if dec.dest[pc] < NUM_INT_REGS
                    else self.fp_free)
            if not free:
                return "registers_full"
        rat = self.rat
        w = self.w
        nsrc = dec.nsrc[pc]
        if nsrc:
            w.h0[slot] = rat[dec.s0[pc]]
            if nsrc > 1:
                w.h1[slot] = rat[dec.s1[pc]]
        if dec.wreg[pc]:
            dest = dec.dest[pc]
            new = free.pop()
            self.phys_ready[new] = False
            w.dest[slot] = new
            rat[dest] = new
        kind = dec.kind[pc]
        if kind == 1 or kind == 2 or kind == 3:
            # Snapshot for precise branch recovery.
            w.tag[slot] = list(rat)
        return None

    # ------------------------------------------------------------------ #
    # Commit: in order from the ROB head, up to retire_width per cycle.
    # ------------------------------------------------------------------ #

    def commit_stage(self, now: int) -> None:
        in_flight = self.in_flight
        w = self.w
        mask = w.mask
        w_st = w.st
        if not in_flight or not w_st[in_flight[0] & mask] & 2:
            return
        dec = self._dec
        arch_rat = self.arch_rat
        retired = 0
        retire_width = self.config.retire_width
        while retired < retire_width and in_flight:
            s = in_flight[0]
            slot = s & mask
            if not w_st[slot] & 2:
                break
            if not self.commit_one(s, slot, now):
                return  # exception recovery took over
            in_flight.popleft()
            pc = w.pc[slot]
            if dec.wreg[pc]:
                dest = dec.dest[pc]
                previous = arch_rat[dest]
                arch_rat[dest] = w.dest[slot]
                if dest < NUM_INT_REGS:
                    self.int_free.append(previous)
                else:
                    self.fp_free.append(previous)
            elif dec.kind[pc] == 5:
                self.sq.commit_up_to(s, self.commit_store_write)
            retired += 1
            if self.done:
                return

    # ------------------------------------------------------------------ #
    # Recovery.
    # ------------------------------------------------------------------ #

    def _release_squashed(self, squashed: List[int]) -> None:
        w = self.w
        mask = w.mask
        dec = self._dec
        for s in squashed:
            slot = s & mask
            pc = w.pc[slot]
            if dec.wreg[pc]:
                self._free_list_for(dec.dest[pc]).append(w.dest[slot])

    def recover_from_branch(self, seq: int, slot: int, now: int) -> None:
        w = self.w
        target = w.atg[slot]
        squashed = self.squash_after(seq, seq)
        self._release_squashed(squashed)
        self.rat[:] = w.tag[slot]
        self.fetch.redirect(target, now)

    def take_exception(self, seq: int, slot: int, now: int) -> None:
        # This is the ROB head: everything older has committed, so the
        # architectural RAT is exactly the precise recovery state.
        pc = self.w.pc[slot]
        squashed = self.squash_after(seq - 1, FAULT_NONE)
        self._release_squashed(squashed)
        self.rat[:] = self.arch_rat
        self.repair_history_at(slot)
        self.fetch.redirect(pc, now)
