"""CPR: Checkpoint Processing and Recovery (Akkary, Rajwar, Srinivasan).

The paper's main comparator (Table I column 2): a ROB-free machine with

* up to 8 checkpoints allocated at low-confidence branches (JRS
  estimator) plus an interval guard,
* 192 + 192 physical registers released aggressively through reference
  counters (a register frees as soon as it has been superseded, its value
  consumed by every reader, and its writer has completed — possibly long
  before the writer commits),
* bulk commit of whole checkpoint intervals (no retire-width limit),
* **imprecise recovery**: a mispredicted branch or exception rolls back
  to the youngest checkpoint at or before the faulting instruction,
  squashing and later re-executing any correct-path instructions between
  the checkpoint and the fault — the cost MSP eliminates,
* the hierarchical store queue, whose L2 must be scanned on rollback
  (modelled as an extra redirect delay when the L2 holds squashed
  entries).

Reference-count holds on a physical register P:

1. mapping hold — the RAT currently maps some logical register to P;
2. checkpoint holds — one per live checkpoint whose snapshot maps P;
3. reader holds — one per dispatched, not-yet-issued reader of P;
4. writer hold — P's producer has dispatched but not completed.

Rollback rebuilds all counts from those rules over the surviving state,
which keeps recovery correct without shadow free-list machinery.

Per-instruction state lives in the shared in-flight window columns; the
``tag`` column holds each renamed instruction's owner
:class:`Checkpoint`.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.branch.confidence import ConfidenceEstimator
from repro.cpr.checkpoint import Checkpoint
from repro.isa.registers import NUM_INT_REGS, NUM_LOGICAL_REGS, is_int_reg
from repro.pipeline.core_base import FAULT_NONE, OutOfOrderCore


class CPRProcessor(OutOfOrderCore):
    """Checkpoint Processing and Recovery machine."""

    #: No ROB bound: in-flight count is limited only by registers and
    #: checkpoints, so start the ring larger (it still grows on demand).
    window_capacity = 2048

    def __init__(self, program, config) -> None:
        super().__init__(program, config)
        num_phys = config.phys_int + config.phys_fp
        self.num_phys = num_phys
        self.phys_value: List = [0] * num_phys
        self.phys_ready: List[bool] = [True] * num_phys
        self.refcount: List[int] = [0] * num_phys

        self.rat: List[int] = [0] * NUM_LOGICAL_REGS
        for lr in range(NUM_LOGICAL_REGS):
            if is_int_reg(lr):
                self.rat[lr] = lr
            else:
                self.rat[lr] = config.phys_int + (lr - NUM_INT_REGS)
                self.phys_value[self.rat[lr]] = 0.0
            self.refcount[self.rat[lr]] += 1  # mapping hold

        self.int_free: List[int] = list(
            range(NUM_INT_REGS, config.phys_int))
        self.fp_free: List[int] = list(
            range(config.phys_int + NUM_INT_REGS, num_phys))

        self.confidence = ConfidenceEstimator(
            threshold=config.confidence_threshold)

        if self._sched_event:
            # Direct tables for the event scheduler: readiness checks,
            # side-effect-free peeks and result writes all index the
            # flat register file.  ``read_operand`` stays virtual — it
            # releases the reader's reference count.
            self._ready_table = self.phys_ready
            self._value_table = self.phys_value

        # Initial checkpoint covers the start of the program.
        initial = Checkpoint(seq=-1, resume_pc=program.entry,
                             rat_snapshot=list(self.rat))
        self._hold_snapshot(initial.rat_snapshot)
        self.checkpoints: List[Checkpoint] = [initial]
        self._since_checkpoint = 0
        #: (seq, decision) of the last checkpoint decision: a stalled
        #: buffer head retries rename every cycle, and its decision is
        #: the one taken at its first attempt (seqs are never reused).
        self._decided = (-1, False)
        #: live checkpoints sitting at a conditional branch, by the
        #: branch's seq — so resolution can stamp the real outcome.
        self._cp_at_branch: Dict[int, Checkpoint] = {}
        #: low-confidence branches left uncovered because all checkpoints
        #: were in use.
        self.checkpoints_missed = 0

    # ------------------------------------------------------------------ #
    # Reference counting.
    # ------------------------------------------------------------------ #

    def _hold_snapshot(self, snapshot: List[int]) -> None:
        for handle in snapshot:
            self.refcount[handle] += 1

    def _release(self, handle: int) -> None:
        count = self.refcount[handle] - 1
        if count < 0:
            raise AssertionError(f"refcount underflow on phys {handle}")
        self.refcount[handle] = count
        if count == 0:
            self._free_list_for_handle(handle).append(handle)

    def _free_list_for_handle(self, handle: int) -> List[int]:
        return (self.int_free if handle < self.config.phys_int
                else self.fp_free)

    def _free_list_for_logical(self, logical: int) -> List[int]:
        return self.int_free if is_int_reg(logical) else self.fp_free

    # ------------------------------------------------------------------ #
    # Registers.
    # ------------------------------------------------------------------ #

    def handle_ready(self, handle: int) -> bool:
        return self.phys_ready[handle]

    def seed_register(self, logical: int, value) -> None:
        # Identity initial mapping (refcounts unaffected: the mapping
        # and initial-checkpoint holds were taken at construction).
        self.phys_value[self.rat[logical]] = value

    def on_seeded(self, pc: int) -> None:
        # The initial checkpoint must resume at the checkpointed PC,
        # not the program entry, if a rollback reaches it.
        self.checkpoints[0].resume_pc = pc

    def install_warm_state(self, predictor=None, btb=None,
                           hierarchy=None, confidence=None) -> None:
        super().install_warm_state(predictor, btb, hierarchy)
        if confidence is not None:
            confidence.threshold = self.config.confidence_threshold
            self.confidence = confidence

    def read_operand(self, handle: int):
        value = self.phys_value[handle]
        self._release(handle)  # reader hold consumed at issue
        return value

    def peek_operand(self, handle: int):
        return self.phys_value[handle]

    def write_result(self, slot: int) -> None:
        w = self.w
        self.phys_value[w.dest[slot]] = w.res[slot]
        self.phys_ready[w.dest[slot]] = True

    def on_complete(self, seq: int, slot: int) -> None:
        w = self.w
        if self._dec.wreg[w.pc[slot]]:
            self._release(w.dest[slot])  # writer hold
        owner = w.tag[slot]
        if owner is not None and owner.alive:
            owner.outstanding -= 1

    # ------------------------------------------------------------------ #
    # Checkpoint placement.
    # ------------------------------------------------------------------ #

    def _needs_checkpoint(self, pc: int) -> bool:
        kind = self._dec.kind[pc]
        if kind == 1 or kind == 3:       # conditional branch or JR
            return not self.confidence.is_confident(pc)
        return self._since_checkpoint >= self.config.checkpoint_max_interval

    def on_branch_resolved(self, slot: int, mispredicted: bool) -> None:
        w = self.w
        taken = w.atk[slot]
        self.confidence.update(w.pc[slot], correct=not mispredicted,
                               taken=taken)
        if self._cp_at_branch:
            checkpoint = self._cp_at_branch.pop(w.sq[slot], None)
            if checkpoint is not None:
                checkpoint.branch_taken = taken

    # ------------------------------------------------------------------ #
    # Dispatch.
    # ------------------------------------------------------------------ #

    def rename(self, seq: int, slot: int, pc: int) -> Optional[str]:
        # Memoise the checkpoint decision across stalled retries so the
        # confidence estimator is queried once per dynamic branch.
        decided_seq, needs_checkpoint = self._decided
        if decided_seq != seq:
            needs_checkpoint = self._needs_checkpoint(pc)
            self._decided = (seq, needs_checkpoint)
        dec = self._dec
        writes = dec.wreg[pc]
        if writes:
            free = self._free_list_for_logical(dec.dest[pc])
            if not free:
                return "registers_full"
        self._since_checkpoint += 1
        if needs_checkpoint:
            # Best effort: with all 8 checkpoints live the instruction
            # proceeds uncovered and a misprediction simply rolls back
            # further (CPR's fundamental imprecision).
            if len(self.checkpoints) < self.config.checkpoints:
                self._create_checkpoint(seq, slot, pc)
            else:
                self.checkpoints_missed += 1

        owner = self._owner_checkpoint(seq)
        w = self.w
        w.tag[slot] = owner
        owner.outstanding += 1

        rat = self.rat
        refcount = self.refcount
        nsrc = dec.nsrc[pc]
        if nsrc:
            h0 = rat[dec.s0[pc]]
            w.h0[slot] = h0
            refcount[h0] += 1            # reader hold
            if nsrc > 1:
                h1 = rat[dec.s1[pc]]
                w.h1[slot] = h1
                refcount[h1] += 1
        if writes:
            dest = dec.dest[pc]
            new = free.pop()
            self.phys_ready[new] = False
            refcount[new] = 2            # mapping + writer holds
            old = rat[dest]
            rat[dest] = new
            w.dest[slot] = new
            self._release(old)           # superseded mapping
        return None

    def _create_checkpoint(self, seq: int, slot: int, pc: int) -> None:
        w = self.w
        kind = self._dec.kind[pc]
        if kind == 1 or kind == 2 or kind == 3:
            checkpoint = Checkpoint(seq=seq,
                                    resume_pc=w.ptg[slot],
                                    rat_snapshot=list(self.rat),
                                    at_branch=True,
                                    history_base=w.ghr[slot])
            if kind == 1:
                checkpoint.branch_seq = seq
                checkpoint.predicted_taken = w.ptk[slot]
                self._cp_at_branch[seq] = checkpoint
        else:
            checkpoint = Checkpoint(seq=seq - 1, resume_pc=pc,
                                    rat_snapshot=list(self.rat),
                                    history_base=w.ghr[slot])
        self._hold_snapshot(checkpoint.rat_snapshot)
        self.checkpoints.append(checkpoint)
        self.stats.checkpoints_created += 1
        self._since_checkpoint = 0

    def _owner_checkpoint(self, seq: int) -> Checkpoint:
        for checkpoint in reversed(self.checkpoints):
            if checkpoint.seq < seq:
                return checkpoint
        raise AssertionError("no covering checkpoint")

    def _forget(self, checkpoint: Checkpoint) -> None:
        """Drop a retired/killed checkpoint's branch-stamp registration."""
        if checkpoint.branch_seq is not None:
            self._cp_at_branch.pop(checkpoint.branch_seq, None)

    def on_dispatch_stall(self, reason: str) -> None:
        """Forward-progress guard: if dispatch is blocked on a full
        resource while the open interval (past the youngest checkpoint)
        holds everything in flight, nothing can ever commit — close the
        interval with a checkpoint at the stall point."""
        if len(self.checkpoints) >= self.config.checkpoints:
            return
        if not self.fetch.buffer:
            return
        head = self.fetch.buffer[0]
        youngest = self.checkpoints[-1]
        if youngest.seq >= head - 1:
            return  # interval already closed here
        w = self.w
        slot = head & w.mask
        checkpoint = Checkpoint(seq=head - 1, resume_pc=w.pc[slot],
                                rat_snapshot=list(self.rat),
                                history_base=w.ghr[slot])
        self._hold_snapshot(checkpoint.rat_snapshot)
        self.checkpoints.append(checkpoint)
        self.stats.checkpoints_created += 1
        self._since_checkpoint = 0

    # NOP/HALT get no owner: they never execute, so they do not join an
    # outstanding count and bulk-commit with whatever interval contains
    # them — the base ``assign_state_tag`` no-op is exactly right.

    # ------------------------------------------------------------------ #
    # Commit: bulk, one whole checkpoint interval at a time.
    # ------------------------------------------------------------------ #

    def commit_stage(self, now: int) -> None:
        checkpoints = self.checkpoints
        while len(checkpoints) >= 2:
            oldest, closing = checkpoints[0], checkpoints[1]
            if oldest.outstanding != 0:
                return
            if not self._commit_interval(closing.seq, now):
                return
            # Release the oldest checkpoint: one hold per snapshot entry
            # (``_release``, inline — 64 calls per retired checkpoint).
            checkpoints.pop(0)
            oldest.alive = False
            self._forget(oldest)
            refcount = self.refcount
            phys_int = self.config.phys_int
            for handle in oldest.rat_snapshot:
                count = refcount[handle] - 1
                if count < 0:
                    raise AssertionError(
                        f"refcount underflow on phys {handle}")
                refcount[handle] = count
                if count == 0:
                    (self.int_free if handle < phys_int
                     else self.fp_free).append(handle)
        self._drain_if_halted(now)

    def _commit_interval(self, seq_bound: int, now: int) -> bool:
        """Commit every in-flight instruction with seq <= seq_bound.

        Pre-scans for planned exceptions: CPR takes an exception only via
        rollback to the preceding checkpoint, so nothing in the interval
        may commit if it contains one.
        """
        in_flight = self.in_flight
        mask = self.w.mask
        count = 0
        for s in in_flight:
            if s > seq_bound:
                break
            count += 1
        offset = self.pending_exception_offset(count)
        if offset is not None:
            victim = in_flight[offset]
            ordinal = self.commit_ordinal + offset
            self._exceptions_taken.add(ordinal)
            self.stats.exceptions_taken += 1
            self.stats.recoveries += 1
            self.take_exception(victim, victim & mask, now)
            return False
        for _ in range(count):
            s = in_flight.popleft()
            self.commit_one(s, s & mask, now)
            if self.done:
                break
        self.sq.commit_up_to(seq_bound, self.commit_store_write)
        return not self.done

    def _drain_if_halted(self, now: int) -> None:
        """Commit the open interval past the youngest checkpoint once the
        program has halted and everything in flight has executed."""
        in_flight = self.in_flight
        if not (self.fetch.halted and not self.fetch.buffer and in_flight):
            return
        w_st = self.w.st
        mask = self.w.mask
        if any(not w_st[s & mask] & 2 for s in in_flight):
            return
        last_seq = in_flight[-1]
        if self._commit_interval(last_seq, now):
            while len(self.checkpoints) > 1:
                stale = self.checkpoints.pop(0)
                stale.alive = False
                self._forget(stale)
                for handle in stale.rat_snapshot:
                    self._release(handle)

    # ------------------------------------------------------------------ #
    # Recovery: roll back to a checkpoint (imprecise).
    # ------------------------------------------------------------------ #

    def recover_from_branch(self, seq: int, slot: int, now: int) -> None:
        target = self._youngest_checkpoint_at_or_before(seq)
        if target.seq == seq:
            # Checkpoint at this very branch: resume at the resolved
            # target, and make that the checkpoint's resume PC — the
            # branch itself survives the rollback, so any later rollback
            # to this checkpoint must follow the now-architectural
            # outcome, not the disproven prediction.
            resume_pc = self.w.atg[slot]
            target.resume_pc = resume_pc
        else:
            resume_pc = target.resume_pc
        self._rollback(target, fault_seq=seq, resume_pc=resume_pc, now=now)

    def take_exception(self, seq: int, slot: int, now: int) -> None:
        target = self._youngest_checkpoint_strictly_before(seq)
        self._rollback(target, fault_seq=FAULT_NONE,
                       resume_pc=target.resume_pc, now=now)

    def _youngest_checkpoint_at_or_before(self, seq: int) -> Checkpoint:
        for checkpoint in reversed(self.checkpoints):
            if checkpoint.seq <= seq:
                return checkpoint
        raise AssertionError("no covering checkpoint")

    def _youngest_checkpoint_strictly_before(self, seq: int) -> Checkpoint:
        for checkpoint in reversed(self.checkpoints):
            if checkpoint.seq < seq:
                return checkpoint
        raise AssertionError("no covering checkpoint")

    def _rollback(self, target: Checkpoint, fault_seq: int,
                  resume_pc: int, now: int) -> None:
        # The L2 store-queue scan cost: squashing while stores overflowed
        # into the second level delays the redirect.
        l2_occupied = (self.sq.l1_capacity is not None
                       and len(self.sq) > self.sq.l1_capacity)
        penalty = self.config.l2sq_squash_penalty if l2_occupied else 0

        while self.checkpoints and self.checkpoints[-1].seq > target.seq:
            dead = self.checkpoints.pop()
            dead.alive = False
            self._forget(dead)

        squashed = self.squash_after(target.seq, fault_seq)
        w = self.w
        mask = w.mask
        w_st, w_tag = w.st, w.tag
        for s in squashed:
            slot = s & mask
            if not w_st[slot] & 2:       # renamed, so tag is its owner
                owner = w_tag[slot]
                if owner.alive:
                    owner.outstanding -= 1

        self.rat[:] = target.rat_snapshot
        self._rebuild_refcounts()
        self._restore_history(target)
        self.fetch.redirect(resume_pc, now + penalty)

    def _restore_history(self, target: Checkpoint) -> None:
        """Restore predictor global history to the rollback point."""
        if target.history_base is None:
            return
        if target.branch_seq is not None:
            # Checkpoint at a conditional branch: append its best-known
            # outcome (resolved if it executed, else still the
            # prediction) on top of the fetch-time base.
            taken = (target.branch_taken
                     if target.branch_taken is not None
                     else target.predicted_taken)
            self.predictor.set_history_appended(target.history_base, taken)
        else:
            self.predictor.set_history(target.history_base)

    def _rebuild_refcounts(self) -> None:
        """Recompute every hold from rules 1-4 over surviving state."""
        counts = self.refcount
        counts[:] = [0] * self.num_phys
        for handle in self.rat:
            counts[handle] += 1
        for checkpoint in self.checkpoints:
            for handle in checkpoint.rat_snapshot:
                counts[handle] += 1
        w = self.w
        mask = w.mask
        dec = self._dec
        for s in self.in_flight:
            slot = s & mask
            st = w.st[slot]
            pc = w.pc[slot]
            if not st & 1:               # not issued: reader holds live
                nsrc = dec.nsrc[pc]
                if nsrc:
                    counts[w.h0[slot]] += 1
                    if nsrc > 1:
                        counts[w.h1[slot]] += 1
            if dec.wreg[pc] and not st & 2:
                counts[w.dest[slot]] += 1
        self.int_free[:] = [h for h in range(self.config.phys_int)
                            if counts[h] == 0]
        self.fp_free[:] = [h for h in range(self.config.phys_int,
                                            self.num_phys)
                           if counts[h] == 0]
