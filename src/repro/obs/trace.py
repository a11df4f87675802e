"""Pipeline lifecycle tracing in the Kanata/Onikiri viewer format.

:class:`PipelineTracer` is the hook object the detailed cores arm via
``core.attach_tracer``.  Every emission site in the core is guarded by
``if self.tracer is not None`` on a slot pre-bound to ``None`` in
``__init__`` — with tracing off the cost is one attribute test per
site, in the event scheduler's cycle loop as in the scan oracle's
stage methods.

Scheduler equality
------------------

The event scheduler skips provably idle cycles in bulk while the scan
oracle simulates every one of them, so a naive per-cycle stall event
would make the two streams diverge.  The tracer therefore dedups
*consecutive identical* ``(head_seq, reason)`` dispatch-stall events:
during a quiet stretch the machine state is frozen, so the scan loop
re-emits the exact same stall every cycle (suppressed) and the event
scheduler emits nothing (it never runs those cycles) — both streams
keep exactly the first occurrence.  Every other event happens only on
a simulated, state-changing cycle, which both schedulers execute with
identical cycle numbers (the idle skip is accounting-exact), so the
serialized streams are byte-identical.  ``tests/obs`` enforces this as
a correctness oracle across the quick SPECint grid.

Kanata text format (as understood by the Konata viewer):

==========================  ========================================
``Kanata\\t0004``            header
``C=\\t<cycle>``             set absolute current cycle
``C\\t<delta>``              advance current cycle
``I\\t<id>\\t<inst>\\t<tid>``  introduce instruction
``L\\t<id>\\t<type>\\t<txt>``  label (0 = left pane, 1 = hover text)
``S\\t<id>\\t<lane>\\t<st>``   stage start
``E\\t<id>\\t<lane>\\t<st>``   stage end
``R\\t<id>\\t<rid>\\t<type>``  retire (0 = commit, 1 = flush)
==========================  ========================================
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.defaults import env_int

KANATA_HEADER = "Kanata\t0004"

#: Default cap on recorded events; ~2M events is roughly a 50k-commit
#: gzip run and keeps worst-case memory for a forgotten knob bounded.
DEFAULT_TRACE_LIMIT = 2_000_000

#: Pipeline stage names as shown in the viewer, per lifecycle event.
STAGE_FETCH = "F"
STAGE_DISPATCH = "Ds"
STAGE_ISSUE = "Is"
STAGE_WRITEBACK = "Wb"


def trace_limit() -> int:
    """Event cap from ``REPRO_TRACE_LIMIT`` (default 2M)."""
    value = env_int("REPRO_TRACE_LIMIT", DEFAULT_TRACE_LIMIT)
    if value <= 0:
        from repro.defaults import EnvConfigError
        raise EnvConfigError(
            f"REPRO_TRACE_LIMIT must be positive, got {value}")
    return value


class PipelineTracer:
    """Records per-DynInst lifecycle events keyed by fetch ``seq``.

    Events are appended in simulation order, so the list is naturally
    sorted by cycle; :func:`to_kanata` serializes it in one pass.
    """

    __slots__ = ("events", "limit", "dropped", "_last_stall")

    def __init__(self, limit: Optional[int] = None) -> None:
        #: Event tuples ``(kind, cycle, seq, ...)``; kinds are
        #: F(etch), D(ispatch), T(stall), I(ssue), W(riteback),
        #: C(ommit), Q(squash).
        self.events: List[Tuple] = []
        self.limit = trace_limit() if limit is None else limit
        #: Events discarded after :attr:`limit` was reached.
        self.dropped = 0
        self._last_stall: Optional[Tuple[int, str]] = None

    # -- emission hooks (called from the core hot paths) --------------- #

    def _add(self, event: Tuple) -> None:
        if len(self.events) < self.limit:
            self.events.append(event)
        else:
            self.dropped += 1

    def fetch(self, seq: int, pc: int, inst, now: int) -> None:
        self._add(("F", now, seq, pc, repr(inst)))

    def dispatch(self, seq: int, now: int) -> None:
        self._add(("D", now, seq))

    def stall(self, seq: int, now: int, reason: str) -> None:
        """Dispatch stalled this cycle with ``seq`` at the head.  Dedup
        consecutive identical stalls (see module docstring)."""
        key = (seq, reason)
        if key == self._last_stall:
            return
        self._last_stall = key
        self._add(("T", now, seq, reason))

    def issue(self, seq: int, now: int) -> None:
        self._add(("I", now, seq))

    def writeback(self, seq: int, now: int) -> None:
        self._add(("W", now, seq))

    def commit(self, seq: int, now: int, ordinal: int) -> None:
        self._add(("C", now, seq, ordinal))

    def squash(self, seq: int, now: int) -> None:
        self._add(("Q", now, seq))


def to_kanata(events: List[Tuple]) -> str:
    """Serialize a tracer's event list to Kanata text."""
    out = [KANATA_HEADER]
    append = out.append
    current: Optional[int] = None
    #: seq -> currently open stage name (closed on transition/retire).
    stage = {}
    for event in events:
        kind = event[0]
        cycle = event[1]
        seq = event[2]
        if cycle != current:
            if current is None:
                append(f"C=\t{cycle}")
            else:
                append(f"C\t{cycle - current}")
            current = cycle
        if kind == "F":
            text = event[4].replace("\t", " ")
            append(f"I\t{seq}\t{seq}\t0")
            append(f"L\t{seq}\t0\t{event[3]}: {text}")
            append(f"S\t{seq}\t0\t{STAGE_FETCH}")
            stage[seq] = STAGE_FETCH
        elif kind == "D":
            _transition(append, stage, seq, STAGE_DISPATCH)
        elif kind == "I":
            _transition(append, stage, seq, STAGE_ISSUE)
        elif kind == "W":
            _transition(append, stage, seq, STAGE_WRITEBACK)
        elif kind == "T":
            append(f"L\t{seq}\t1\tstall: {event[3]}")
        elif kind == "C":
            _close(append, stage, seq)
            append(f"R\t{seq}\t{event[3]}\t0")
        elif kind == "Q":
            _close(append, stage, seq)
            append(f"R\t{seq}\t{seq}\t1")
        else:
            raise AssertionError(f"unknown trace event kind {kind!r}")
    append("")
    return "\n".join(out)


def _transition(append, stage, seq: int, name: str) -> None:
    previous = stage.get(seq)
    if previous is not None:
        append(f"E\t{seq}\t0\t{previous}")
    append(f"S\t{seq}\t0\t{name}")
    stage[seq] = name


def _close(append, stage, seq: int) -> None:
    previous = stage.pop(seq, None)
    if previous is not None:
        append(f"E\t{seq}\t0\t{previous}")
