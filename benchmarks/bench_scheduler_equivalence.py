"""Scheduler equivalence over every figure cell: the event scheduler
against the scan oracle.

Not a paper figure — this is the full sweep behind the tier-1
equivalence test (``tests/pipeline/test_event_scheduler.py``), which
pins one cell per known failure shape.  Every cell of SPECint + SPECfp
x {Baseline, CPR-192, 8/16/32/64/128-SP, ideal MSP} x {gshare, TAGE}
(22 x 8 x 2 = 352 cells) runs 3000 instructions under both schedulers,
and the two ``SimStats`` must be equal field for field.  The event
scheduler's idle skip once elided MSP commits here (parser on the 8-SP
livelocked to its cycle cap; bank-stall-heavy SPECfp codes drifted in
cycles and stall counters), which the narrower tier-1 grid missed.

Run it by name (pytest collects ``bench_*.py`` only when named)::

    PYTHONPATH=src python -m pytest -q benchmarks/bench_scheduler_equivalence.py
"""

from __future__ import annotations

import pytest

from repro.sim.config import SimConfig
from repro.sim.runner import build_core
from repro.workloads import SPECFP, SPECINT, get_program

INSTRUCTIONS = 3000

MACHINES = {
    "baseline": lambda p: SimConfig.baseline(predictor=p),
    "cpr": lambda p: SimConfig.cpr(predictor=p),
    **{f"msp{n}": (lambda n: lambda p: SimConfig.msp(n, predictor=p))(n)
       for n in (8, 16, 32, 64, 128)},
    "ideal": lambda p: SimConfig.msp_ideal(predictor=p),
}


def _stats(workload: str, config: SimConfig) -> dict:
    core = build_core(get_program(workload), config)
    return core.run(max_instructions=INSTRUCTIONS).to_dict()


@pytest.mark.parametrize("machine", list(MACHINES))
@pytest.mark.parametrize("predictor", ["gshare", "tage"])
@pytest.mark.parametrize("workload", list(SPECINT) + list(SPECFP))
def test_event_matches_scan(workload, predictor, machine):
    config = MACHINES[machine](predictor)
    scan = _stats(workload, config.with_(scheduler="scan"))
    event = _stats(workload, config.with_(scheduler="event"))
    diff = {key: (scan[key], event[key]) for key in scan
            if scan[key] != event[key]}
    assert not diff, f"scan vs event: {diff}"
