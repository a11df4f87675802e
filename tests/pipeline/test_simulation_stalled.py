"""Loud truncation: a run that reaches its default cycle cap before its
budget or a HALT raises :class:`SimulationStalled` instead of returning
normal-looking statistics, and a campaign quarantines such a cell as a
permanent failure that the result store never holds."""

from __future__ import annotations

import pytest

from repro.cpr import CPRProcessor
from repro.isa import ProgramBuilder, int_reg
from repro.pipeline.core_base import SimulationStalled
from repro.sim import SimConfig, build_core
from repro.sim.campaign import Job, ResultStore, run_jobs
from repro.sim.campaign.executor import classify_error
from repro.workloads import get_program


def _counter_program():
    """Thirty increments of r1, then HALT: no branches, so a core that
    never commits goes idle instead of recovering forever."""
    builder = ProgramBuilder("counter")
    r1 = int_reg(1)
    builder.li(r1, 0)
    for _ in range(30):
        builder.addi(r1, r1, 1)
    builder.halt()
    return builder.build()


def _never_commits(config):
    core = build_core(_counter_program(), config)
    core.commit_stage = lambda now: None
    return core


@pytest.mark.parametrize("scheduler", ["event", "scan"])
@pytest.mark.parametrize("make", [SimConfig.cpr, lambda **kw:
                                  SimConfig.msp(8, **kw)],
                         ids=["cpr", "msp8"])
def test_core_that_never_commits_raises(make, scheduler):
    core = _never_commits(make(scheduler=scheduler))
    with pytest.raises(SimulationStalled) as caught:
        core.run(max_instructions=20)
    message = str(caught.value)
    assert core.stats.cycles == 20 * 200 + 100_000
    assert f"cycle {core.stats.cycles}" in message
    head = core.in_flight[0]
    assert f"head seq {head} pc {core.w.pc[head & core.w.mask]}" in message
    assert "last dispatch stall: " in message
    assert classify_error(caught.value) == "permanent"


def test_msp_stall_names_the_blocked_bank():
    core = _never_commits(SimConfig.msp(8))
    with pytest.raises(SimulationStalled,
                       match=r"last dispatch stall: bank_full; last "
                             r"bank_full on logical register 1 "
                             r"\(8/8 entries live\)"):
        core.run(max_instructions=20)


def test_explicit_cycle_cap_truncates_quietly():
    core = _never_commits(SimConfig.cpr())
    stats = core.run(max_instructions=20, max_cycles=500)
    assert stats.cycles == 500 and stats.committed == 0


def test_budget_zero_run_is_a_no_op():
    core = build_core(get_program("gzip"), SimConfig.cpr())
    stats = core.run(max_instructions=0)
    assert stats.cycles == 0 and stats.committed == 0


def test_campaign_quarantines_stalled_cell_and_never_stores_it(
        tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0")
    # Nothing ever dispatches, so the CPR cell idles to its cycle cap.
    monkeypatch.setattr(CPRProcessor, "rename",
                        lambda self, seq, slot, pc: "registers_full")
    stalled = Job("gzip", SimConfig.cpr(), 40)
    healthy = Job("gzip", SimConfig.baseline(), 40)
    report = run_jobs([stalled, healthy], workers=1, cache_dir=tmp_path,
                      retries=2, raise_on_error=False)
    receipt = report.receipts[stalled.cache_key()]
    assert receipt.outcome == "quarantined"
    assert receipt.attempts == 1                 # permanent: no retry
    assert receipt.error_class == "SimulationStalled"
    assert report.quarantined == 1
    assert healthy.cache_key() in report.results
    store = ResultStore(tmp_path)
    assert stalled.cache_key() not in store
    assert healthy.cache_key() in store
