"""The Multi-State Processor (Sec. 3) — the paper's contribution.

No ROB, no checkpoints, no RAT, no global free list. Instead:

* every register-writing instruction allocates a new **state** (StateId
  from the global State Counter);
* each logical register owns a :class:`~repro.core.sct.RegisterBank`
  (SCT + in-order circular allocation) — renaming is just advancing that
  bank's RenP, source lookup is reading it;
* commit is the global **LCS** min-reduction over bank RelP StateIds
  (with the Table I propagation delay), bulk-committing every older
  state each cycle; only banks marked dirty recompute their input;
* recovery is **precise**: broadcast the Recovery StateId, squash every
  younger instruction, roll every bank back past entries with a younger
  Lower StateId (Sec. 3.5) — no correct-path work is ever discarded;
* the register file is banked 1R/1W (Sec. 5.1): an extra arbitration
  pipeline stage, at most one (slot) read and one write per bank per
  cycle — the ideal MSP drops all of this;
* renaming bandwidth follows Sec. 3.3: up to 4 destinations per cycle,
  at most 2 of them in the same bank (both limits configurable for the
  ablation benches).

Per-instruction state lives in the shared in-flight window columns:
``h0``/``h1``/``dest`` hold ``(logical, mono)`` bank handles here and
``sid`` the instruction's StateId.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.core.lcs import LCSUnit
from repro.core.sct import RegisterBank
from repro.core.stateid import StateIdAllocator
from repro.isa.registers import NUM_LOGICAL_REGS, is_fp_reg
from repro.pipeline.core_base import FAULT_NONE, OutOfOrderCore

Handle = Tuple[int, int]   # (logical register, bank allocation counter)


class MSPProcessor(OutOfOrderCore):
    """Multi-State Processor core."""

    #: No ROB bound: in-flight count is limited only by bank capacity,
    #: so start the ring larger (it still grows on demand).
    window_capacity = 2048

    def __init__(self, program, config) -> None:
        super().__init__(program, config)
        self.extra_dispatch_delay = 1 if config.arbitration else 0
        self._arbitration = config.arbitration
        self._max_renames = config.max_renames_per_cycle
        self._max_same_reg_renames = config.max_same_reg_renames

        #: Banks whose LCS input may have moved (all, at first).
        self._dirty: Set[int] = set()
        self.banks: List[RegisterBank] = [
            RegisterBank(lr, config.bank_size,
                         initial_value=0.0 if is_fp_reg(lr) else 0,
                         dirty=self._dirty)
            for lr in range(NUM_LOGICAL_REGS)
        ]
        self.sc = StateIdAllocator()
        self.lcs = LCSUnit(delay=config.lcs_delay, banks=NUM_LOGICAL_REGS)
        #: outstanding same-state instructions that do not assign a
        #: register (the pipelined-instruction tracking of Fig. 3).
        self.state_outstanding: Dict[int, int] = {}
        #: Bank holding each state in ``state_outstanding`` (-1: state 0,
        #: in every bank), and the bank holding ``sc.current``.
        self._holder: Dict[int, int] = {}
        self._current_holder = -1
        self._committed_stateid = 0
        self._last_committed_seq = -1

        # Per-cycle rename and port-arbitration state. Read ports are
        # arbitrated in the dispatch-side arbitration stage (Fig. 3):
        # operands that are ready at rename read their bank there; the
        # rest capture from the result bypass at wakeup, so issue needs
        # no register-file access.
        self._renames_this_cycle = 0
        self._bank_renames: Dict[int, int] = {}
        self._dispatch_read_ports: Dict[int, int] = {}
        self._last_bank_blocked: Optional[int] = None

        self.read_port_conflicts = 0
        self.write_port_conflicts = 0

    # ------------------------------------------------------------------ #
    # Registers.
    # ------------------------------------------------------------------ #

    def handle_ready(self, handle: Handle) -> bool:
        logical, mono = handle
        bank = self.banks[logical]
        return bank.ready[mono & bank.mask]

    def seed_register(self, logical: int, value) -> None:
        # Slot 0 of each bank holds the initial architectural value at
        # state 0 (already marked ready at construction).
        self.banks[logical].write(0, value)

    def read_operand(self, handle: Handle):
        logical, mono = handle
        bank = self.banks[logical]
        bank.consume(mono)
        return bank.read(mono)

    def peek_operand(self, handle: Handle):
        logical, mono = handle
        return self.banks[logical].read(mono)

    def write_result(self, slot: int) -> None:
        w = self.w
        logical, mono = w.dest[slot]
        self.banks[logical].write(mono, w.res[slot])

    def on_complete(self, seq: int, slot: int) -> None:
        w = self.w
        if not self._dec.wreg[w.pc[slot]]:
            self._dec_outstanding(w.sid[slot])

    def _dec_outstanding(self, stateid: int) -> None:
        count = self.state_outstanding.get(stateid, 0) - 1
        if count < 0:
            raise AssertionError(f"state {stateid} outstanding underflow")
        if count:
            self.state_outstanding[stateid] = count
        else:
            del self.state_outstanding[stateid]
            self._touch_holder(self._holder.pop(stateid))

    def _touch_holder(self, holder: int) -> None:
        # A state's outstanding count left or reached 0.
        if holder < 0:
            self._dirty.update(range(NUM_LOGICAL_REGS))
        else:
            self._dirty.add(holder)

    # ------------------------------------------------------------------ #
    # Dispatch / distributed renaming (Secs. 3.2.1, 3.3).
    # ------------------------------------------------------------------ #

    def begin_dispatch_cycle(self) -> None:
        self._renames_this_cycle = 0
        self._bank_renames.clear()
        self._dispatch_read_ports.clear()

    def rename(self, seq: int, slot: int, pc: int) -> Optional[str]:
        dec = self._dec
        if dec.wreg[pc]:
            dest = dec.dest[pc]
            bank = self.banks[dest]
            if bank.alloc - bank.freed >= bank.limit:
                self._last_bank_blocked = dest
                return "bank_full"
            if self._renames_this_cycle >= self._max_renames:
                return "rename_ports"
            if (self._bank_renames.get(dest, 0)
                    >= self._max_same_reg_renames):
                return "sct_write_ports"
        if self._arbitration and not self._claimable_read_ports(pc):
            self.read_port_conflicts += 1
            return "read_port_conflict"
        w = self.w
        # Source lookup: each source is the latest renaming in its bank
        # (RenP); the use bit is set in the bank's RelIQ sub-matrix.
        # Sequential processing within the cycle resolves same-cycle RAW
        # dependences, like the pointer-increment chain of Fig. 5.
        nsrc = dec.nsrc[pc]
        arbitration = self._arbitration
        ports = self._dispatch_read_ports
        banks = self.banks
        for i in range(nsrc):
            src = dec.s0[pc] if i == 0 else dec.s1[pc]
            bank = banks[src]
            mono = bank.alloc - 1
            idx = mono & bank.mask
            bank.uses[idx] += 1          # RelIQ use bit (add_use)
            if i == 0:
                w.h0[slot] = (src, mono)
            else:
                w.h1[slot] = (src, mono)
            if arbitration and bank.ready[idx]:
                ports[src] = mono

        if dec.wreg[pc]:
            stateid = self.sc.next()
            w.sid[slot] = stateid
            dest = dec.dest[pc]
            mono = banks[dest].allocate(stateid)
            w.dest[slot] = (dest, mono)
            self._current_holder = dest
            self._renames_this_cycle += 1
            self._bank_renames[dest] = self._bank_renames.get(dest, 0) + 1
        else:
            # Branches, stores and jumps belong to the current state.
            stateid = self.sc.current
            w.sid[slot] = stateid
            outstanding = self.state_outstanding
            count = outstanding.get(stateid, 0)
            outstanding[stateid] = count + 1
            if not count:
                holder = self._holder[stateid] = self._current_holder
                self._touch_holder(holder)
        return None

    def _claimable_read_ports(self, pc: int) -> bool:
        """Can this instruction's ready operands all get their bank read
        port this cycle? Reads of the *same* entry share a port."""
        dec = self._dec
        nsrc = dec.nsrc[pc]
        group: Dict[int, int] = {}
        for i in range(nsrc):
            src = dec.s0[pc] if i == 0 else dec.s1[pc]
            bank = self.banks[src]
            mono = bank.alloc - 1
            if not bank.ready[mono & bank.mask]:
                continue  # captured from the bypass at wakeup
            previous = self._dispatch_read_ports.get(src, group.get(src))
            if previous is not None and previous != mono:
                return False
            group[src] = mono
        return True

    def on_dispatch_stall(self, reason: str) -> None:
        if reason == "bank_full" and self._last_bank_blocked is not None:
            self.stats.bank_stall_cycles[self._last_bank_blocked] += 1

    def on_dispatch_stall_bulk(self, reason: str, count: int) -> None:
        # Per-cycle counter attribution, added in one go for the idle
        # skip (the blocking register cannot change while state is
        # frozen).
        if reason == "bank_full" and self._last_bank_blocked is not None:
            self.stats.bank_stall_cycles[self._last_bank_blocked] += count

    def describe_stall(self) -> str:
        if self._last_bank_blocked is None:
            return ""
        bank = self.banks[self._last_bank_blocked]
        return (f"; last bank_full on logical register "
                f"{self._last_bank_blocked} ({bank.alloc - bank.freed}"
                f"/{bank.limit} entries live)")

    def assign_state_tag(self, slot: int) -> None:
        # NOP/HALT never execute; they carry the current state and commit
        # with it, but do not gate its completion.
        self.w.sid[slot] = self.sc.current

    # ------------------------------------------------------------------ #
    # Port arbitration (Sec. 5.1): 1R/1W per bank.
    # ------------------------------------------------------------------ #

    def filter_writebacks(self, completed: List[int], now: int):
        if not self.config.arbitration:
            return completed, []
        w = self.w
        mask = w.mask
        wreg = self._dec.wreg
        written: Dict[int, int] = {}
        accepted: List[int] = []
        deferred: List[int] = []
        for s in completed:
            slot = s & mask
            if wreg[w.pc[slot]]:
                logical, mono = w.dest[slot]
                if logical in written and written[logical] != mono:
                    self.write_port_conflicts += 1
                    deferred.append(s)
                    continue
                written[logical] = mono
            accepted.append(s)
        return accepted, deferred

    # ------------------------------------------------------------------ #
    # Commit: LCS-driven bulk commit (Sec. 3.2.2).
    # ------------------------------------------------------------------ #

    def commit_stage(self, now: int) -> None:
        dirty = self._dirty
        if dirty:                        # clean banks keep their leaf
            outstanding = self.state_outstanding
            banks = self.banks
            leaves = self.lcs.leaves
            for logical in dirty:
                bank = banks[logical]
                bank.advance_rel(outstanding)
                leaves[logical] = bank.lcs_candidate(outstanding)
            dirty.clear()
        effective_lcs = self.lcs.step(self.sc.current + 1)

        in_flight = self.in_flight
        w = self.w
        mask = w.mask
        w_st, w_sid = w.st, w.sid
        committed_any = False
        while in_flight:
            s = in_flight[0]
            slot = s & mask
            if not w_st[slot] & 2 or w_sid[slot] >= effective_lcs:
                break
            if not self.commit_one(s, slot, now):
                return  # exception recovery took over
            in_flight.popleft()
            committed_any = True
            stateid = w_sid[slot]
            if stateid > self._committed_stateid:
                self._committed_stateid = stateid
            self._last_committed_seq = s
            if self.done:
                break
        if committed_any:
            self.sq.commit_up_to(self._last_committed_seq,
                                 self.commit_store_write)
            committed = self._committed_stateid
            for bank in self.banks:
                if bank.freed < bank.rel:
                    bank.free_up_to(committed)

    def commit_settled(self) -> bool:
        # The idle skip may elide MSP cycles only once the pipelined LCS
        # min-tree has drained to a fixpoint: until then each elided
        # cycle would have shifted a different effective LCS out of the
        # pipe and could have unlocked a commit.  ``advance_rel`` runs
        # to fixpoint within a single commit stage, so bank state needs
        # no extra settling condition.
        return self.lcs.settled

    # ------------------------------------------------------------------ #
    # Precise recovery (Sec. 3.5).
    # ------------------------------------------------------------------ #

    def recover_from_branch(self, seq: int, slot: int, now: int) -> None:
        w = self.w
        self._recover(boundary_seq=seq, fault_seq=seq,
                      recovery_stateid=w.sid[slot],
                      resume_pc=w.atg[slot], now=now)

    def take_exception(self, seq: int, slot: int, now: int) -> None:
        # Recovery StateId is the excepting instruction's state, or the
        # previous one if it produced a new state (Sec. 3.5): the
        # instruction itself is squashed and re-fetched.
        w = self.w
        pc = w.pc[slot]
        stateid = w.sid[slot]
        recovery = stateid - 1 if self._dec.wreg[pc] else stateid
        self.repair_history_at(slot)
        self._recover(boundary_seq=seq - 1, fault_seq=FAULT_NONE,
                      recovery_stateid=recovery, resume_pc=pc, now=now)

    def _recover(self, boundary_seq: int, fault_seq: int,
                 recovery_stateid: int, resume_pc: int, now: int) -> None:
        squashed = self.squash_after(boundary_seq, fault_seq)
        w = self.w
        mask = w.mask
        dec = self._dec
        banks = self.banks
        for s in squashed:
            slot = s & mask
            st = w.st[slot]
            pc = w.pc[slot]
            if not st & 3:               # neither issued nor completed
                # Clear the cancelled instruction's RelIQ column.
                nsrc = dec.nsrc[pc]
                if nsrc:
                    logical, mono = w.h0[slot]
                    banks[logical].consume(mono)
                    if nsrc > 1:
                        logical, mono = w.h1[slot]
                        banks[logical].consume(mono)
            if not dec.wreg[pc] and not st & 2:
                # NOP/HALT complete at dispatch and are never counted.
                self._dec_outstanding(w.sid[slot])
        # Broadcast the Recovery StateId: release younger entries.
        holder = -1
        for bank in banks:
            bank.rollback(recovery_stateid)
            if bank.stateid[(bank.alloc - 1) & bank.mask] == recovery_stateid:
                holder = bank.logical
        self._current_holder = holder if recovery_stateid else -1
        self.sc.reset_to(recovery_stateid)
        self.fetch.redirect(resume_pc, now)
