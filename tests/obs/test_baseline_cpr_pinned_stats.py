"""Baseline and CPR statistics are bit-identical to pins taken before
the timing cores shared one execute implementation.

``baseline_cpr_pinned_stats.json`` holds ``SimStats.to_dict()``
payloads for the two machines whose issue paths evaluate instructions:
both predictors (the event loop inlines gshare predict and reads
TAGE's history directly), a memory-bound and a front-end-bound
workload, injected exceptions (which route the baseline's commit and
rename through its hooks) and a forced four-entry in-flight ring,
which makes the loop's window grow mid-run.  Any drift means execution changed behaviour.

Regenerate (only when a change is *meant* to alter results) with
``PYTHONPATH=src python tests/obs/test_baseline_cpr_pinned_stats.py``.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.sim.config import SimConfig
from repro.sim.runner import build_core
from repro.workloads import get_program

FIXTURE = Path(__file__).parent / "baseline_cpr_pinned_stats.json"

EXCEPTIONS = frozenset({57, 400, 1234, 3000})

CONFIGS = {
    "baseline-gshare": lambda: SimConfig.baseline(),
    "baseline-tage": lambda: SimConfig.baseline(predictor="tage"),
    "cpr-gshare": lambda: SimConfig.cpr(),
    "cpr-tage": lambda: SimConfig.cpr(predictor="tage"),
    "baseline-exc": lambda: SimConfig.baseline().with_(
        exception_ordinals=EXCEPTIONS),
    "cpr-exc": lambda: SimConfig.cpr().with_(
        exception_ordinals=EXCEPTIONS),
}

#: ``full5000-cap4`` runs with ``REPRO_WINDOW_CAP=4``; the ring then
#: doubles this many times (4 -> 128 slots).
CAP4_GROWS = 5

KEYS = ([f"{workload}/{machine}/full5000"
         for workload in ("gzip", "mcf")
         for machine in ("baseline-gshare", "baseline-tage",
                         "cpr-gshare", "cpr-tage")]
        + ["gzip/baseline-exc/full5000", "gzip/cpr-exc/full5000",
           "gzip/baseline-tage/full5000-cap4"])


def _run(key: str):
    """(stats dict, window growth count) for one pinned cell."""
    workload, machine, mode = key.split("/")
    core = build_core(get_program(workload), CONFIGS[machine]())
    stats = core.run(max_instructions=5000)
    return json.loads(json.dumps(stats.to_dict())), core.w.grows


@pytest.mark.parametrize("key", KEYS)
def test_stats_bit_identical_to_pin(key, monkeypatch):
    if key.endswith("-cap4"):
        monkeypatch.setenv("REPRO_WINDOW_CAP", "4")
    stats, grows = _run(key)
    assert stats == json.loads(FIXTURE.read_text())[key]
    if key.endswith("-cap4"):
        assert grows == CAP4_GROWS


if __name__ == "__main__":
    pins = {}
    for key in KEYS:
        if key.endswith("-cap4"):
            os.environ["REPRO_WINDOW_CAP"] = "4"
        pins[key] = _run(key)[0]
        os.environ.pop("REPRO_WINDOW_CAP", None)
    FIXTURE.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
