"""Interval time-series metrics (per-N-instruction IPC, MPKI, ...).

:class:`IntervalRecorder` is the hook object a detailed core arms via
``core.attach_metrics``; ``commit_one`` samples it every ``interval``
committed instructions through a ``None``-checked slot, so a disabled
recorder costs one attribute test per commit (the event loop retires
the baseline through ``commit_one`` only while one is armed).

Both detailed-core schedulers produce identical series: commits happen
only on simulated cycles, and the event scheduler's idle skip is
accounting-exact, so ``stats.cycles`` at each sampling point matches
the scan oracle's.

For sampled simulation the natural interval is the measurement window
itself — :func:`window_row` builds one row per detail window from the
stitch delta plus cache/confidence counters snapshotted around the
measured segment (:func:`window_counters`).

Rows share one schema either way::

    {"pos": ..., "instructions": ..., "cycles": ..., "ipc": ...,
     "branch_mpki": ..., "dcache_mpki": ..., "icache_mpki": ...,
     "occupancy": ...[, "low_confidence": ...][, "represents": ...]}

``pos`` is the committed-instruction position where the interval
starts, ``occupancy`` is the in-flight window population sampled at
the interval boundary, and ``low_confidence`` appears only on machines
with a confidence estimator (CPR).  The finished series is attached to
``SimStats`` as a *dynamic* attribute (``stats.interval_metrics``) —
``to_dict`` iterates ``vars()`` so it serializes (and survives the
campaign result store) automatically, while telemetry-off runs stay
bit-identical to the pre-telemetry stats dicts.
"""

from __future__ import annotations

from typing import List, Optional, Tuple


def default_metrics_interval(budget: int) -> int:
    """Interval for a full-detail run: ~50 points across the budget,
    never finer than 50 instructions."""
    return max(50, budget // 50)


def _row(pos: int, instructions: int, cycles: int, mispredictions: int,
         dcache_misses: int, icache_misses: int, occupancy: int,
         low_confidence: Optional[int]) -> dict:
    row = {
        "pos": pos,
        "instructions": instructions,
        "cycles": cycles,
        "ipc": instructions / cycles if cycles else 0.0,
        "branch_mpki": 1000.0 * mispredictions / instructions,
        "dcache_mpki": 1000.0 * dcache_misses / instructions,
        "icache_mpki": 1000.0 * icache_misses / instructions,
        "occupancy": occupancy,
    }
    if low_confidence is not None:
        row["low_confidence"] = low_confidence
    return row


def _counters(core) -> Tuple:
    """Cumulative counter snapshot used to difference intervals."""
    stats = core.stats
    hierarchy = core.hierarchy
    confidence = getattr(core, "confidence", None)
    return (stats.committed, stats.cycles, stats.branch_mispredictions,
            hierarchy.dcache.misses, hierarchy.icache.misses,
            len(core.in_flight),
            confidence.low_confidence if confidence is not None else None)


class IntervalRecorder:
    """Per-``interval``-committed-instruction time series for one core."""

    __slots__ = ("interval", "_snaps")

    def __init__(self, interval: int) -> None:
        interval = int(interval)
        if interval <= 0:
            raise ValueError(f"metrics interval must be positive, "
                             f"got {interval}")
        self.interval = interval
        self._snaps: List[Tuple] = []

    def bind(self, core) -> None:
        """Take the baseline snapshot (``attach_metrics`` calls this)."""
        self._snaps = [_counters(core)]

    def sample(self, core) -> None:
        """Called by ``commit_one`` at each interval boundary."""
        self._snaps.append(_counters(core))

    def rows(self, core=None) -> List[dict]:
        """Difference consecutive snapshots into metric rows.  Passing
        the core appends a trailing partial-interval sample first."""
        snaps = self._snaps
        if core is not None:
            tail = _counters(core)
            if snaps and tail[0] > snaps[-1][0]:
                snaps = snaps + [tail]
        out = []
        for before, after in zip(snaps, snaps[1:]):
            instructions = after[0] - before[0]
            if instructions <= 0:
                continue
            low = None
            if after[6] is not None and before[6] is not None:
                low = after[6] - before[6]
            out.append(_row(before[0], instructions, after[1] - before[1],
                            after[2] - before[2], after[3] - before[3],
                            after[4] - before[4], after[5], low))
        return out


def window_counters(core) -> Tuple:
    """Snapshot the counters :func:`window_row` differences that are
    *not* part of the per-window stats delta (cache and confidence
    state persists across windows via the warm hierarchy)."""
    hierarchy = core.hierarchy
    confidence = getattr(core, "confidence", None)
    return (hierarchy.dcache.misses, hierarchy.icache.misses,
            confidence.low_confidence if confidence is not None else None)


def window_row(stats, before: Tuple, core) -> Optional[dict]:
    """One metric row for a sampled measurement window. ``stats`` is
    the window's stitch delta, ``before`` a :func:`window_counters`
    snapshot taken just before the measured segment.  The caller fills
    in ``pos`` / ``represents``."""
    if stats.committed <= 0:
        return None
    d1, i1, c1 = window_counters(core)
    low = c1 - before[2] if c1 is not None and before[2] is not None else None
    return _row(0, stats.committed, stats.cycles,
                stats.branch_mispredictions, d1 - before[0], i1 - before[1],
                len(core.in_flight), low)
