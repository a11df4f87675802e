"""MSP statistics are bit-identical to pins taken before the commit
stage became incremental.

``msp_pinned_stats.json`` holds ``SimStats.to_dict()`` payloads for the
MSP configurations whose commit path (LCS reduction, RelP advance,
bank release and rollback) the incremental LCS touches: bounded and
unbounded banks, a pipelined LCS, injected exceptions and a sampled
run.  Any drift means the dirty-bank bookkeeping changed behaviour.

Regenerate (only when a change is *meant* to alter MSP results) with
``PYTHONPATH=src python tests/obs/test_msp_pinned_stats.py``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.sim.config import SimConfig
from repro.sim.runner import simulate
from repro.workloads import get_program

FIXTURE = Path(__file__).parent / "msp_pinned_stats.json"

CONFIGS = {
    "msp8": lambda: SimConfig.msp(8),
    "msp16": lambda: SimConfig.msp(16),
    "msp16-lcs4": lambda: SimConfig.msp(16, lcs_delay=4),
    "ideal": lambda: SimConfig.msp_ideal(),
    "msp16-exc": lambda: SimConfig.msp(16).with_(
        exception_ordinals=frozenset({57, 400, 1234, 3000})),
}

KEYS = ([f"{workload}/{machine}/full5000"
         for workload in ("gzip", "mcf")
         for machine in ("msp8", "msp16", "msp16-lcs4", "ideal")]
        + ["gzip/msp16-exc/full5000", "mcf/msp16/sampled20000"])


def _run(key: str) -> dict:
    workload, machine, mode = key.split("/")
    program = get_program(workload)
    config = CONFIGS[machine]()
    if mode == "full5000":
        stats = simulate(program, config, max_instructions=5000)
    elif mode == "sampled20000":
        stats = simulate(program, config, max_instructions=20_000,
                         sampling=True, artifacts=False)
    else:
        raise AssertionError(f"unknown pin mode {mode!r}")
    return json.loads(json.dumps(stats.to_dict()))


@pytest.mark.parametrize("key", KEYS)
def test_msp_stats_bit_identical_to_pin(key):
    assert _run(key) == json.loads(FIXTURE.read_text())[key]


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps({key: _run(key) for key in KEYS},
                                  indent=1, sort_keys=True) + "\n")
