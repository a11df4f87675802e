"""Observability: pipeline tracing, interval metrics, phase profiling.

Three pillars, all strictly zero-overhead when disabled:

* :mod:`repro.obs.trace` — per-DynInst lifecycle events from both
  detailed-core schedulers, serialized to the Kanata pipeline-viewer
  text format (``repro trace``).  Scan-vs-event stream equality doubles
  as a correctness oracle.
* :mod:`repro.obs.metrics` — per-N-instruction IPC / MPKI / occupancy
  time series threaded through ``runner.simulate`` and the sampling
  engine (``repro run --metrics out.jsonl``).
* :mod:`repro.obs.profile` — structured span timing (ff / bbv-profile /
  warmup / detail / replay / store-read / store-write / queue-wait)
  aggregated into campaign reports and the bench table.

The gating idiom everywhere is a ``None``-check on a pre-bound hook
slot (``core.tracer``, ``core._metrics``, a ``profile`` argument) —
the same pattern as ``run_fast``'s observer fallback — so a disabled
telemetry path costs one attribute test per emission site, in the
event scheduler's cycle loop as everywhere else.  SimStats stays bit-identical with telemetry
off: telemetry attaches its output as *dynamic* stats attributes only
when enabled.
"""

from repro.obs.log import human_bytes, log, log_level
from repro.obs.metrics import (IntervalRecorder, default_metrics_interval,
                               window_counters, window_row)
from repro.obs.profile import PhaseProfile, profile_enabled, span
from repro.obs.trace import (KANATA_HEADER, PipelineTracer, to_kanata,
                             trace_limit)

__all__ = [
    "IntervalRecorder",
    "KANATA_HEADER",
    "PhaseProfile",
    "PipelineTracer",
    "default_metrics_interval",
    "human_bytes",
    "log",
    "log_level",
    "profile_enabled",
    "span",
    "to_kanata",
    "trace_limit",
    "window_counters",
    "window_row",
]
