"""MSP processor behaviour tests (precise recovery, banks, commit)."""

from repro.core import RegisterBank
from repro.core.sct import UNBOUNDED_INITIAL_SIZE
from repro.isa import Emulator, ProgramBuilder, int_reg
from repro.sim import SimConfig, build_core
from repro.workloads import get_program


def run_msp(program, budget=600, **overrides):
    config = SimConfig.msp(16, predictor="gshare").with_(
        record_commits=True, **overrides)
    core = build_core(program, config)
    stats = core.run(max_instructions=budget)
    return core, stats


def test_commit_trace_matches_emulator(branchy_program):
    core, stats = run_msp(branchy_program)
    emulator = Emulator(branchy_program, trace_pcs=True)
    reference = emulator.run(max_instructions=stats.committed)
    assert core.commit_trace == reference.pc_trace


def test_precise_recovery_never_reexecutes(branchy_program):
    _, stats = run_msp(branchy_program)
    assert stats.branch_mispredictions > 0
    assert stats.correct_path_reexecuted == 0


def test_wrong_path_work_counted(branchy_program):
    _, stats = run_msp(branchy_program)
    assert stats.wrong_path_executed > 0
    assert stats.total_executed > stats.committed


def test_bank_stall_attribution():
    """A loop hammering one register must stall on exactly that bank."""
    b = ProgramBuilder("hammer")
    data = b.data_region(list(range(512)))
    r_i, r_base, r_t = int_reg(1), int_reg(2), int_reg(3)
    b.li(r_base, data)
    b.li(r_i, 0)
    b.label("loop")
    for _ in range(6):
        b.add(r_t, r_base, r_i)    # six renames of r3 per iteration
        b.ld(r_t, r_t, 0)
    b.addi(r_i, r_i, 1)
    b.jmp("loop")
    core, stats = run_msp(b.build(), budget=400)
    top = stats.top_bank_stalls(1)
    assert top and top[0][0] == int_reg(3)
    del core


def test_ideal_msp_has_no_bank_stalls(fp_chain_program):
    config = SimConfig.msp_ideal()
    core = build_core(fp_chain_program, config)
    stats = core.run(max_instructions=500)
    assert not stats.bank_stall_cycles
    assert stats.dispatch_stall_cycles.get("bank_full", 0) == 0


def test_ideal_bank_storage_tracks_peak_live_entries(monkeypatch):
    """Unbounded banks are rings that double on demand, so storage stays
    within 2x each bank's peak live entries instead of growing by one
    slot per allocation."""
    peak = {}
    allocate = RegisterBank.allocate

    def tracked(bank, stateid):
        mono = allocate(bank, stateid)
        peak[bank.logical] = max(peak.get(bank.logical, 1),
                                 bank.live_entries)
        return mono

    monkeypatch.setattr(RegisterBank, "allocate", tracked)
    core = build_core(get_program("gzip"), SimConfig.msp_ideal())
    stats = core.run(max_instructions=20_000)
    assert stats.committed >= 20_000
    assert any(bank.alloc > len(bank.stateid) for bank in core.banks)
    for bank in core.banks:
        assert len(bank.stateid) <= max(UNBOUNDED_INITIAL_SIZE,
                                        2 * peak.get(bank.logical, 1))


def test_arbitration_stage_costs_cycles(sum_loop_program):
    with_arb = build_core(sum_loop_program,
                          SimConfig.msp(64, arbitration=True)).run(600)
    without = build_core(sum_loop_program,
                         SimConfig.msp(64, arbitration=False)).run(600)
    assert without.ipc >= with_arb.ipc


def test_state_outstanding_drains(sum_loop_program):
    core, stats = run_msp(sum_loop_program, budget=500)
    # After a run every remaining outstanding count belongs to the
    # still-in-flight window, never to committed states.
    committed_states = core._committed_stateid
    for stateid, count in core.state_outstanding.items():
        assert count > 0
        assert stateid > committed_states


def test_sc_resets_on_recovery(branchy_program):
    core, stats = run_msp(branchy_program, budget=400)
    assert stats.recoveries > 0
    # StateIds stay consistent: in-flight stateids are monotone in seq.
    w, mask = core.w, core.w.mask
    ids = [w.sid[s & mask] for s in core.in_flight]
    assert ids == sorted(ids)


def test_halting_program_commits_fully(halting_program):
    core, stats = run_msp(halting_program, budget=100)
    assert core.done
    assert stats.committed == 6  # includes HALT
    assert core.memory[halting_program.out_addr] == 42


def test_lcs_delay_zero_at_least_as_fast(sum_loop_program):
    fast = build_core(sum_loop_program,
                      SimConfig.msp(32, lcs_delay=0)).run(600)
    slow = build_core(sum_loop_program,
                      SimConfig.msp(32, lcs_delay=4)).run(600)
    assert fast.cycles <= slow.cycles


def test_rename_limit_one_hurts(sum_loop_program):
    narrow = build_core(sum_loop_program,
                        SimConfig.msp(32, max_same_reg_renames=1)).run(600)
    wide = build_core(sum_loop_program,
                      SimConfig.msp(32, max_same_reg_renames=2)).run(600)
    assert wide.ipc >= narrow.ipc
