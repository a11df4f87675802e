"""Baseline out-of-order processor.

Table I column 1: a "reasonably standard out-of-order, single-thread,
superscalar processor" — 128-entry ROB, 48-entry IQ, 96 int + 96 fp
physical registers managed with a RAT and a free list, retire width 3,
single-level store queue. Branch recovery restores a RAT snapshot taken
when the branch dispatched; exceptions recover precisely from the
architectural RAT at the ROB head.

In-flight state is the shared structure-of-arrays window
(``self.w``); the fused run loop binds the columns as locals and
never touches a per-instruction object.
"""

from __future__ import annotations

from bisect import insort
from typing import List, Optional

from repro.branch.base import Prediction
from repro.branch.gshare import GsharePredictor
from repro.branch.tage import TagePredictor
from repro.isa.registers import NUM_INT_REGS, NUM_LOGICAL_REGS, is_int_reg
from repro.isa.semantics import effective_address
from repro.pipeline.core_base import FAULT_NONE, OutOfOrderCore, \
    _ADDR_MASK, _HALT
from repro.pipeline.stats import SimStats


class BaselineProcessor(OutOfOrderCore):
    """ROB-based precise out-of-order core."""

    #: ROB 128 + fetch buffer 16 + fetch width bounds the live seq span,
    #: so a small ring suffices (it grows on demand regardless).
    window_capacity = 256

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

    def dispatch_blocked(self, seq: int, slot: int, pc: int,
                         moved: int) -> Optional[str]:
        if len(self.in_flight) >= self.config.rob_size:
            return "rob_full"
        dec = self._dec
        if dec.wreg[pc] and not (self.int_free
                                 if dec.dest[pc] < NUM_INT_REGS
                                 else self.fp_free):
            return "registers_full"
        return None

    def rename(self, seq: int, slot: int, pc: int) -> None:
        dec = self._dec
        rat = self.rat
        w = self.w
        nsrc = dec.nsrc[pc]
        if nsrc:
            w.h0[slot] = rat[dec.s0[pc]]
            if nsrc > 1:
                w.h1[slot] = rat[dec.s1[pc]]
        if dec.wreg[pc]:
            dest = dec.dest[pc]
            free = self.int_free if dest < NUM_INT_REGS else self.fp_free
            new = free.pop()
            self.phys_ready[new] = False
            w.dest[slot] = new
            rat[dest] = new
        kind = dec.kind[pc]
        if kind == 1 or kind == 2 or kind == 3:
            # Snapshot for precise branch recovery.
            w.tag[slot] = list(rat)

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
    # Fused event-scheduler run loop.
    # ------------------------------------------------------------------ #

    def run(self, max_instructions: int = 50_000,
            max_cycles: Optional[int] = None) -> SimStats:
        # The fused loop inlines the common per-cycle path; runs that
        # need the rare machinery (exception injection, telemetry
        # hooks) or the scan oracle take the generic stage-method loop.
        if (not self._sched_event or self.exception_plan
                or self.tracer is not None
                or self._metrics is not None):
            return super().run(max_instructions, max_cycles)
        return self._run_fused(max_instructions, max_cycles)

    def _run_fused(self, max_instructions: int,
                   max_cycles: Optional[int]) -> SimStats:
        """Event-scheduler cycle loop with the baseline machine's stage
        bodies inlined (commit -> writeback -> issue -> dispatch ->
        fetch, then the idle skip).

        This is a line-for-line transcription of
        ``OutOfOrderCore.cycle`` + the baseline ``commit_stage`` /
        ``rename`` specialised for this machine's flat register file,
        with the per-instruction virtual calls flattened into plain
        column indexing — the same fused-hot-loop treatment the
        emulator's ``run_fast`` got.  Instructions execute through the
        shared ``_execute``.  Behaviour must stay bit-identical to the
        generic loop: the scheduler-equivalence tests run this exact
        path against the scan oracle, and the emulator-oracle tests
        compare its ``commit_trace``.
        """
        cycle_cap = max_cycles if max_cycles is not None \
            else max_instructions * 200 + 100_000
        stats = self.stats
        execute = self._execute
        commit_trace = self.commit_trace
        fetch = self.fetch
        buffer = fetch.buffer
        in_flight = self.in_flight
        window = self._ready_list
        completions = self._completions
        waiting = self._waiting
        addr_watch = self._addr_watch
        phys_value = self.phys_value
        phys_ready = self.phys_ready
        arch_rat = self.arch_rat
        int_free = self.int_free
        fp_free = self.fp_free
        sq = self.sq
        sq_unknown = sq._unknown_addr
        sq_pending = sq._pending_data
        lb = self.load_buffer
        fus = self.fus
        fu_used = fus._used
        fu_limits = fus._limits
        issue_width = fus.issue_width
        config = self.config
        retire_width = config.retire_width
        rename_width = config.rename_width
        iq_size = config.iq_size
        rob_size = config.rob_size
        budget = config.max_issue_scan
        commit_up_to = sq.commit_up_to
        commit_store_write = self.commit_store_write
        sq_execute = sq.execute
        sq_allocate = sq.allocate
        sq_set_address = sq.set_address
        sq_is_full = sq.is_full
        resolve_control = self._resolve_control
        recover_from_branch = self.recover_from_branch
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
        # Hot counters as locals; flushed back to stats after the loop.
        cycles = stats.cycles
        committed = stats.committed
        while (not self.done and committed < max_instructions
               and cycles < cycle_cap):
            cycles += 1
            recoveries_before = stats.recoveries

            # ---------------- commit (baseline ROB retire) ------------ #
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
                committed += commits
                if self.done:
                    now += 1
                    break

            # ---------------- writeback ------------------------------- #
            wb_live = False
            bucket = completions.pop(now, None)
            if bucket:
                if len(bucket) > 1:
                    bucket.sort()
                for s in bucket:
                    slot = s & mask
                    st = W_st[slot]
                    # One pass: stale (slot recycled), pre-squashed and
                    # mid-bucket-recovered entries all fail here, exactly
                    # like the old prefilter + recheck pair.
                    if W_sq[slot] != s or st & 4:
                        continue
                    wb_live = True
                    W_st[slot] = st | 2
                    pc = W_pc[slot]
                    kind = P_kind[pc]
                    if P_wreg[pc]:
                        dest = W_dest[slot]
                        result = W_res[slot]
                        phys_value[dest] = result
                        phys_ready[dest] = True
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
                    if kind == 1:
                        # _resolve_control's conditional-branch body,
                        # inline (the baseline's on_branch_resolved hook
                        # is the base no-op).
                        stats.branches += 1
                        taken = W_atk[slot]
                        prediction = W_pred[slot]
                        predictor_update(prediction, taken)
                        if taken != W_ptk[slot]:
                            stats.branch_mispredictions += 1
                            prediction.taken = taken
                            predictor_restore(prediction)
                            W_st[slot] |= 8
                            stats.recoveries += 1
                            recover_from_branch(s, slot, now)
                    elif kind == 3:
                        # BTB-indirect resolution stays out of line
                        # (kind 2 direct jumps never mispredict: the
                        # generic resolve is a no-op for them).
                        resolve_control(s, slot, pc, kind, now)

            # ---------------- issue (event window walk) --------------- #
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
                        # Address memo (see _issue_stage_event): computed
                        # once, reused across blocked re-visits.
                        addr = W_ma[slot]
                        if addr < 0:
                            base = phys_value[W_h0[slot]]
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
                    issued += 1
                    fu_used[code] = fu_used[code] + 1
                    nsrc = P_nsrc[pc]
                    finish = now + execute(
                        s, slot, pc, kind,
                        phys_value[W_h0[slot]] if nsrc else None,
                        phys_value[W_h1[slot]] if nsrc == 2 else None)
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
                fus._issued_total = issue_width - slots
                if issued:
                    stats.issued += issued
                    self.iq_count -= issued

            # ---------------- dispatch (rename + allocate) ------------ #
            moved = 0
            dispatched = 0
            stall_reason = None
            if buffer:
                rat = self.rat
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
                        in_flight.append(s)
                        dispatched += 1
                        moved += 1
                        continue
                    if iq_count >= iq_size:
                        stall_reason = "iq_full"
                        break
                    writes = P_wreg[pc]
                    if kind == 4:
                        if lb.occupied >= lb.capacity:
                            stall_reason = "load_buffer_full"
                            break
                    elif kind == 5 and sq_is_full():
                        stall_reason = "store_queue_full"
                        break
                    if len(in_flight) >= rob_size:
                        stall_reason = "rob_full"
                        break
                    if writes:
                        free = (int_free if P_dest[pc] < NUM_INT_REGS
                                else fp_free)
                        if not free:
                            stall_reason = "registers_full"
                            break
                    rd += 1
                    # ------ rename + wire, inline and unrolled -------- #
                    nsrc = P_nsrc[pc]
                    wait_count = 0
                    if nsrc == 2:
                        h0 = rat[P_s0[pc]]
                        h1 = rat[P_s1[pc]]
                        W_h0[slot] = h0
                        W_h1[slot] = h1
                        if not phys_ready[h0]:
                            wait_count = 1
                            lst = waiting.get(h0)
                            if lst is None:
                                waiting[h0] = [s]
                            else:
                                lst.append(s)
                        if not phys_ready[h1]:
                            wait_count += 1
                            lst = waiting.get(h1)
                            if lst is None:
                                waiting[h1] = [s]
                            else:
                                lst.append(s)
                    elif nsrc:
                        h1 = None
                        h0 = rat[P_s0[pc]]
                        W_h0[slot] = h0
                        if not phys_ready[h0]:
                            wait_count = 1
                            lst = waiting.get(h0)
                            if lst is None:
                                waiting[h0] = [s]
                            else:
                                lst.append(s)
                    else:
                        h1 = None
                    if writes:
                        new = free.pop()
                        phys_ready[new] = False
                        W_dest[slot] = new
                        rat[P_dest[pc]] = new
                    if kind == 1 or kind == 2 or kind == 3:
                        W_tag[slot] = list(rat)  # precise-recovery snapshot
                    W_wc[slot] = wait_count
                    W_eic[slot] = now + 1
                    if kind == 5:
                        W_se[slot] = entry = sq_allocate(s)
                        if phys_ready[h1]:
                            base = phys_value[h1]
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
                        W_ma[slot] = -1   # address memo for the walk
                        lb.occupied += 1
                    in_flight.append(s)
                    iq_count += 1
                    dispatched += 1
                    if wait_count == 0:
                        window.append(s)
                    moved += 1
                if rd:
                    del buffer[:rd]
                self.iq_count = iq_count
                stats.dispatched += dispatched
                if moved == 0 and stall_reason is not None:
                    stats.dispatch_stall_cycles[stall_reason] += 1
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

            self.now = now = now + 1

            # ---------------- idle skip ------------------------------- #
            # (baseline ``commit_settled``/``on_dispatch_stall`` are the
            # base no-ops, so the skip needs no arch hooks here.)
            if (commits == 0 and not wb_live and not issued
                    and not dispatched and not dropped and not fetched
                    and stats.recoveries == recoveries_before):
                bound = min(completions) if completions else None
                if (not fetch.halted
                        and len(buffer) < fetch.buffer_capacity):
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
                    cycles += count
                    self.skipped_cycles += count
                    if stall_reason is not None:
                        stats.dispatch_stall_cycles[stall_reason] += count
                    fetch.skip_cycles(now, count)
                    self.now = now = now + count
        self.now = now
        stats.cycles = cycles
        stats.committed = committed
        return stats

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
