"""Scheduler equivalence: the event-driven issue/wakeup scheduler must
be bit-identical to the retained scan-loop reference oracle.

The event scheduler (``SimConfig.scheduler == "event"``, the default)
replaces the per-cycle heap pop/re-push loop with a sorted ready window,
purges waiter lists and completion events on squash, runs one cycle
loop with the stages inline for every machine and skips provably idle
cycles in bulk.  None
of that may perturb a single counter: every cell of the quick SPECint
grid x {baseline, cpr, msp16}, full detail and sampled, must produce a
``SimStats`` equal field-for-field to the scan scheduler's.
"""

from __future__ import annotations

import pytest

from repro.sim.config import SimConfig
from repro.sim.runner import build_core, simulate
from repro.workloads import get_program

#: The quick SPECint grid (``REPRO_BENCHSET=quick`` — SPECINT[::3]).
QUICK_GRID = ["gzip", "mcf", "eon", "vortex"]

MACHINES = {
    "baseline": lambda **kw: SimConfig.baseline(**kw),
    "cpr": lambda **kw: SimConfig.cpr(**kw),
    "msp16": lambda **kw: SimConfig.msp(16, **kw),
}


def _diff(a: dict, b: dict) -> dict:
    return {key: (a[key], b[key]) for key in a if a[key] != b[key]}


@pytest.mark.parametrize("workload", QUICK_GRID)
@pytest.mark.parametrize("machine", sorted(MACHINES))
def test_full_detail_bit_identical(workload, machine):
    program = get_program(workload)
    make = MACHINES[machine]
    scan = simulate(program, make(scheduler="scan"),
                    max_instructions=2000).to_dict()
    event = simulate(program, make(scheduler="event"),
                     max_instructions=2000).to_dict()
    assert scan == event, _diff(scan, event)


@pytest.mark.parametrize("workload", QUICK_GRID)
@pytest.mark.parametrize("machine", sorted(MACHINES))
def test_sampled_bit_identical(workload, machine):
    program = get_program(workload)
    make = MACHINES[machine]
    # artifacts=False: the checkpoint store keys traces workload-side,
    # so the second run would replay the first's checkpoints and the
    # provenance counters (not the represented statistics) would
    # differ. This test compares schedulers, so both runs must execute.
    scan = simulate(program, make(scheduler="scan"),
                    max_instructions=20_000, sampling=True,
                    artifacts=False).to_dict()
    event = simulate(program, make(scheduler="event"),
                     max_instructions=20_000, sampling=True,
                     artifacts=False).to_dict()
    assert scan == event, _diff(scan, event)


#: One figure cell per shape the MSP idle skip once took (3k
#: instructions, against scan): parser on the 8-SP livelocked to its
#: cycle cap; the SPECfp cells drifted in cycles, commits or stall
#: counters.  ``benchmarks/bench_scheduler_equivalence.py`` sweeps all
#: 352 figure cells.
IDLE_SKIP_SHAPES = [
    ("parser", 8, "gshare"), ("parser", 8, "tage"),
    ("ammp", 16, "tage"), ("art", 8, "tage"), ("equake", 32, "tage"),
    ("mgrid", 64, "tage"), ("applu", 8, "tage"), ("applu", 32, "tage"),
    ("swim", 32, "tage"),
]


@pytest.mark.parametrize("workload,banks,predictor", IDLE_SKIP_SHAPES)
def test_msp_idle_skip_shapes_bit_identical(workload, banks, predictor):
    config = SimConfig.msp(banks, predictor=predictor)
    scan = simulate(get_program(workload), config.with_(scheduler="scan"),
                    max_instructions=3000).to_dict()
    event = simulate(get_program(workload), config,
                     max_instructions=3000).to_dict()
    assert scan == event, _diff(scan, event)


def test_tage_baseline_bit_identical():
    """The throughput-bench cell (gzip, TAGE, baseline) exercises the
    inline ROB retire/rename + the TAGE fast paths together."""
    program = get_program("gzip")
    scan = simulate(program, SimConfig.baseline(predictor="tage",
                                                scheduler="scan"),
                    max_instructions=5000).to_dict()
    event = simulate(program, SimConfig.baseline(predictor="tage",
                                                 scheduler="event"),
                     max_instructions=5000).to_dict()
    assert scan == event, _diff(scan, event)


def test_exception_injection_bit_identical():
    """Exception recovery (for which the event loop routes the
    baseline's commit and rename through its hooks) must match the
    oracle too."""
    for machine in sorted(MACHINES):
        make = MACHINES[machine]
        kwargs = {"exception_ordinals": frozenset([57, 400])}
        scan = simulate(get_program("gzip"),
                        make(scheduler="scan", **kwargs),
                        max_instructions=1500).to_dict()
        event = simulate(get_program("gzip"),
                         make(scheduler="event", **kwargs),
                         max_instructions=1500).to_dict()
        assert scan == event, (machine, _diff(scan, event))


def test_idle_skip_engages_and_stays_exact():
    """On a memory-latency-bound run the event scheduler must actually
    elide idle cycles — and still count them all."""
    config = SimConfig.baseline(warm_caches=False, memory_latency=700)
    core = build_core(get_program("mcf"), config)
    stats = core.run(max_instructions=2000)
    assert core.skipped_cycles > 0
    reference = simulate(get_program("mcf"),
                         config.with_(scheduler="scan"),
                         max_instructions=2000)
    assert stats.to_dict() == reference.to_dict()
    assert stats.cycles == reference.cycles


def test_skip_respects_cycle_cap():
    """Bulk-skipped cycles may never overshoot an explicit cycle cap."""
    config = SimConfig.baseline(warm_caches=False, memory_latency=900)
    for cap in (50, 173, 800):
        event = simulate(get_program("mcf"), config,
                         max_instructions=2000, max_cycles=cap)
        scan = simulate(get_program("mcf"), config.with_(scheduler="scan"),
                        max_instructions=2000, max_cycles=cap)
        assert event.cycles <= cap
        assert event.to_dict() == scan.to_dict()


def test_unknown_scheduler_rejected():
    with pytest.raises(ValueError, match="scheduler"):
        build_core(get_program("gzip"),
                   SimConfig.baseline(scheduler="turbo"))


def test_squash_purges_waiter_and_completion_maps():
    """After a run with plenty of recoveries the event scheduler's
    wakeup map and completion wheel must hold no squashed zombies."""
    core = build_core(get_program("gzip"), SimConfig.baseline())
    core.run(max_instructions=3000)
    w, mask = core.w, core.w.mask
    for waiters in core._waiting.values():
        assert all(w.sq[s & mask] == s and not w.st[s & mask] & 4
                   for s in waiters)
    for bucket in core._completions.values():
        assert all(w.sq[s & mask] == s and not w.st[s & mask] & 4
                   for s in bucket)


def test_direct_operand_tables_alias_register_file():
    """The event scheduler's direct operand tables must be the live
    register-file lists, not copies (they are read on every wakeup)."""
    for machine, expect_read_direct in (("baseline", True), ("cpr", False)):
        core = build_core(get_program("gzip"),
                          MACHINES[machine](scheduler="event"))
        assert core._ready_table is core.phys_ready
        assert core._value_table is core.phys_value
        assert core._read_direct is expect_read_direct
        scan_core = build_core(get_program("gzip"),
                               MACHINES[machine](scheduler="scan"))
        assert scan_core._ready_table is None
        assert scan_core._value_table is None
