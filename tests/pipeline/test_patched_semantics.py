"""Replaced semantics reach every timing core.

Instructions snapshot their semantics fn at decode
(``Instruction.eval_fn``), and ``OutOfOrderCore._execute`` is the only
code in the timing cores that calls it.  So a program built after an
experiment monkeypatches ``EVAL_FNS`` must run the replacement on all
three machines under both schedulers, including the event scheduler's
cycle loop, which every machine runs.
"""

from __future__ import annotations

from repro.isa.opcodes import Op
from repro.isa.program import ProgramBuilder
from repro.isa.semantics import EVAL_FNS
from repro.pipeline.core_base import OutOfOrderCore
from repro.sim import SimConfig, build_core

MACHINES = {
    "baseline": SimConfig.baseline,
    "cpr": SimConfig.cpr,
    "msp16": lambda: SimConfig.msp(16),
}


def _add_and_store():
    """``mem[out] = 5 + 9``, then HALT; returns (program, out)."""
    builder = ProgramBuilder("patched-add")
    out = builder.reserve(1)
    builder.li(1, 5)
    builder.li(2, 9)
    builder.add(3, 1, 2)
    builder.li(4, out)
    builder.st(3, 4)
    builder.halt()
    return builder.build(), out


def test_patched_add_runs_on_every_machine_and_scheduler(monkeypatch):
    monkeypatch.setitem(EVAL_FNS, Op.ADD, lambda srcs, imm: 777)
    loop_runs = []
    run_event = OutOfOrderCore._run_event

    def spy(self, *args):
        loop_runs.append((self.config.arch, self.config.scheduler))
        return run_event(self, *args)

    monkeypatch.setattr(OutOfOrderCore, "_run_event", spy)
    program, out = _add_and_store()
    for machine, make in MACHINES.items():
        for scheduler in ("event", "scan"):
            core = build_core(program, make().with_(scheduler=scheduler))
            core.run(max_instructions=100)
            assert core.done, (machine, scheduler)
            assert core.memory[out] == 777, (machine, scheduler)
    assert loop_runs == [("baseline", "event"), ("cpr", "event"),
                         ("msp", "event")]

