"""State Control Table: per-logical-register bank management (Sec. 3.2.1).

Each logical register owns a fixed bank of ``n`` physical registers,
allocated and released strictly in order — the two constraints (a) and
(b) of Sec. 3.1 that make MSP register management distributed. The bank
couples the SCT (one descriptor per physical register, holding the Lower
StateId; the Upper StateId is implicit in the next entry) with the value
storage and the use tracking that in hardware lives in the RelIQ matrix.

Pointers are kept as *monotonic* allocation counters (``slot index =
counter & mask``), which makes the circular one-hot shift registers of
the paper trivially correct to model:

* ``alloc`` — one past the last allocated entry; ``alloc - 1`` is RenP,
  the current renaming;
* ``rel``   — RelP, the first entry that cannot yet be released (value
  not produced, uses outstanding, or same-state instructions pending);
* ``freed`` — one past the last entry actually reclaimed on commit.

Invariant: ``freed <= rel < alloc`` and ``alloc - freed <= limit``.
Entries live in parallel columns over a power-of-two ring (capacity
rounded up; an unbounded bank doubles it when full, like
:mod:`repro.pipeline.window`).

A handle for a physical register in this bank is the pair
``(logical, mono)`` where ``mono`` is the allocation counter value — it
is unique for the lifetime of the simulation, so stale wakeup lists can
never alias a recycled slot.

A mutation that can move RelP or the LCS input (allocate while RenP ==
RelP, write or last consume at RelP, rollback) adds the bank to the
shared ``dirty`` set, the banks the commit stage recomputes.
"""

from __future__ import annotations

import sys
from typing import Dict, Optional, Set

from repro.core.lcs import EXCLUDED

UNBOUNDED_INITIAL_SIZE = 16     # ring slots before the first doubling


class RegisterBank:
    """One logical register's bank: SCT entries + values + use tracking."""

    def __init__(self, logical: int, capacity: Optional[int],
                 initial_value=0, dirty: Optional[Set[int]] = None) -> None:
        self.logical = logical
        #: Most live entries; an unbounded bank never fills.
        self.limit = capacity if capacity is not None else sys.maxsize
        size = (UNBOUNDED_INITIAL_SIZE if capacity is None
                else 1 << (capacity - 1).bit_length())
        self.mask = size - 1
        self.stateid = [0] * size
        self.value = [initial_value] * size
        self.ready = [False] * size
        self.uses = [0] * size

        # Slot 0 holds the initial architectural value at state 0.
        self.ready[0] = True
        self.alloc = 1
        self.rel = 0
        self.freed = 0
        self.dirty: Set[int] = dirty if dirty is not None else set()
        self.dirty.add(logical)

    # ------------------------------------------------------------------ #
    # Allocation / renaming.
    # ------------------------------------------------------------------ #

    @property
    def live_entries(self) -> int:
        return self.alloc - self.freed

    def is_full(self) -> bool:
        return self.alloc - self.freed >= self.limit

    def current_mono(self) -> int:
        """RenP: the most recent renaming of this logical register."""
        return self.alloc - 1

    def allocate(self, stateid: int) -> int:
        """Allocate the next physical register for a new renaming."""
        mono = self.alloc
        live = mono - self.freed
        if live >= self.limit:
            raise RuntimeError(f"bank r{self.logical} full; "
                               "check is_full() first")
        if live > self.mask:
            self._grow()
        idx = mono & self.mask
        self.stateid[idx] = stateid
        self.ready[idx] = False
        self.uses[idx] = 0
        self.value[idx] = None
        self.alloc = mono + 1
        if self.rel == mono - 1:
            self.dirty.add(self.logical)
        return mono

    def _grow(self) -> None:
        """Double an unbounded bank's ring, re-placing the live entries
        at ``mono & new_mask`` in place."""
        old = self.mask
        new = 2 * old + 1
        for col in (self.stateid, self.value, self.ready, self.uses):
            fresh = col * 2
            for mono in range(self.freed, self.alloc):
                fresh[mono & new] = col[mono & old]
            col[:] = fresh
        self.mask = new

    # ------------------------------------------------------------------ #
    # Value / use tracking.
    # ------------------------------------------------------------------ #

    def is_ready(self, mono: int) -> bool:
        return self.ready[mono & self.mask]

    def read(self, mono: int):
        return self.value[mono & self.mask]

    def write(self, mono: int, value) -> None:
        idx = mono & self.mask
        self.value[idx] = value
        self.ready[idx] = True
        if mono == self.rel:
            self.dirty.add(self.logical)

    def add_use(self, mono: int) -> None:
        """A dependent instruction dispatched (sets its RelIQ use bit)."""
        self.uses[mono & self.mask] += 1

    def consume(self, mono: int) -> None:
        """A dependent read the value (clears its use bit)."""
        idx = mono & self.mask
        uses = self.uses[idx] - 1
        if uses < 0:
            raise AssertionError(
                f"use-count underflow on r{self.logical}.{mono}")
        self.uses[idx] = uses
        if not uses and mono == self.rel:
            self.dirty.add(self.logical)

    # ------------------------------------------------------------------ #
    # RelP advance and the LCS contribution (Sec. 3.2.2).
    # ------------------------------------------------------------------ #

    def advance_rel(self, outstanding: Dict[int, int]) -> None:
        """Move RelP to the first entry that cannot be released."""
        rel, last, mask = self.rel, self.alloc - 1, self.mask
        stateid, ready, uses = self.stateid, self.ready, self.uses
        while rel < last:
            idx = rel & mask
            if not ready[idx] or uses[idx] or outstanding.get(stateid[idx]):
                break
            rel += 1
        self.rel = rel

    def lcs_candidate(self, outstanding: Dict[int, int]) -> int:
        """This bank's input to the LCS min-tree: the StateId at RelP,
        or :data:`~repro.core.lcs.EXCLUDED`.

        The special condition of Sec. 3.2.2: when RenP == RelP the bank
        is excluded from the LCS computation once the entry's value has
        been produced and every same-state instruction has executed — an
        idle logical register must not hold back commit.

        Interpretation note: the paper states the condition as
        "RelIQ[RenP] = 0", which literally would also wait for all
        *readers* of the current mapping to issue. Pending reads of the
        last renaming impose no release hazard (the last entry is never
        released while current), and including them makes any
        loop-invariant register — a base pointer or threshold read by
        every iteration — gate the LCS at its ancient allocation state,
        throttling commit to rare all-readers-issued windows. We
        therefore gate the exclusion only on the signals that protect the
        entry's own state: value produced and same-state instructions
        complete.
        """
        rel = self.rel
        idx = rel & self.mask
        stateid = self.stateid[idx]
        if (rel == self.alloc - 1 and self.ready[idx]
                and not outstanding.get(stateid)):
            return EXCLUDED
        return stateid

    # ------------------------------------------------------------------ #
    # Commit-time release and recovery (Secs. 3.2.1, 3.5).
    # ------------------------------------------------------------------ #

    def free_up_to(self, committed_stateid: int) -> int:
        """Reclaim entries whose successor's state has committed.

        An entry is dead once the *next* renaming's state is committed:
        its StateId range then lies entirely in committed history, so no
        recovery can ever make it the current mapping again. This is the
        "release if StateId < LCS unless it is the last such register"
        rule, stated in terms of the implicit Upper StateId.
        """
        start = freed = self.freed
        rel, mask, stateid = self.rel, self.mask, self.stateid
        while freed < rel and stateid[(freed + 1) & mask] <= committed_stateid:
            freed += 1
        self.freed = freed
        return freed - start

    def rollback(self, recovery_stateid: int) -> int:
        """Release every entry with Lower StateId > the Recovery StateId
        (Sec. 3.5) and restore RenP to the surviving mapping."""
        start = alloc = self.alloc
        mask, stateid = self.mask, self.stateid
        while alloc > self.freed and stateid[(alloc - 1) & mask] \
                > recovery_stateid:
            alloc -= 1
        if alloc == self.freed:
            raise AssertionError(
                f"bank r{self.logical} emptied by rollback to state "
                f"{recovery_stateid}; release rule violated")
        self.alloc = alloc
        if self.rel > alloc - 1:
            self.rel = alloc - 1
        self.dirty.add(self.logical)
        return start - alloc

    def __repr__(self) -> str:
        return (f"RegisterBank(r{self.logical}, live={self.live_entries}, "
                f"alloc={self.alloc}, rel={self.rel}, freed={self.freed})")
