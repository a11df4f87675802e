"""The incremental LCS against the full recomputation it replaced.

The MSP commit stage re-runs ``advance_rel`` + ``lcs_candidate`` only on
banks marked dirty and keeps every other bank's LCS input cached. Here
each ``commit_stage`` call is wrapped: before and after it, every bank
*not* marked dirty must hold the RelP and LCS leaf that a fresh
``advance_rel`` + ``lcs_candidate`` run on a copy of it produces, and the
LCS fed into the pipe must equal the old all-bank scan over fresh
copies.
"""

from __future__ import annotations

import copy

import pytest

from repro.core.lcs import EXCLUDED
from repro.sim import SimConfig, build_core
from repro.workloads import SPECINT, get_program

BUDGET = 1000

MACHINES = {
    "msp8": lambda: SimConfig.msp(8),
    "msp16-lcs4": lambda: SimConfig.msp(16, lcs_delay=4),
    "ideal": SimConfig.msp_ideal,
    "msp16-exc": lambda: SimConfig.msp(16).with_(
        exception_ordinals=frozenset(range(50, BUDGET, 97))),
}


def recompute(core):
    """(RelP, LCS input) of every bank, from a fresh ``advance_rel`` +
    ``lcs_candidate`` run on a copy of it."""
    outstanding = core.state_outstanding
    fresh = []
    for bank in core.banks:
        clone = copy.copy(bank)
        clone.advance_rel(outstanding)
        fresh.append((clone.rel, clone.lcs_candidate(outstanding)))
    return fresh


def assert_clean_banks_match(core, fresh) -> None:
    leaves = core.lcs.leaves
    for bank, expected in zip(core.banks, fresh):
        if bank.logical not in core._dirty:
            assert (bank.rel, leaves[bank.logical]) == expected, bank


def run_checked(workload: str, config) -> int:
    """Simulate with every commit stage checked; returns the number of
    commit stages checked."""
    core = build_core(get_program(workload), config)
    commit_stage = core.commit_stage
    checked = 0

    def checked_commit_stage(now: int) -> None:
        nonlocal checked
        fresh = recompute(core)
        assert_clean_banks_match(core, fresh)
        full_scan = min(candidate for _, candidate in fresh)
        if full_scan == EXCLUDED:
            full_scan = core.sc.current + 1
        commit_stage(now)
        assert core.lcs._last_input == full_scan
        assert_clean_banks_match(core, recompute(core))
        checked += 1

    core.commit_stage = checked_commit_stage
    stats = core.run(max_instructions=BUDGET)
    assert stats.committed >= BUDGET
    return checked


@pytest.mark.parametrize("machine", sorted(MACHINES))
@pytest.mark.parametrize("workload", SPECINT[::3])
def test_cached_leaves_match_full_recomputation(workload, machine):
    assert run_checked(workload, MACHINES[machine]()) > 0


def test_exception_cell_takes_exceptions():
    config = MACHINES["msp16-exc"]()
    stats = build_core(get_program("gzip"), config).run(BUDGET)
    assert stats.exceptions_taken > 0
