"""Last Committed StateId (LCS) unit (Sec. 3.2.2).

Every cycle the global control computes ``LCS = min over banks of
StateId[RelP]`` (banks whose RelP entry is quiescent are excluded; if all
banks are quiescent the whole window is committable). The hardware is a
binary tree of comparators — five levels for 32 SCTs — and the paper
notes the computation can be pipelined: "even a 4-cycle LCS computation
degrades performance by less than 1%". ``LCSUnit`` models that
propagation delay with a shift pipe; the n-SP uses 1 cycle and the ideal
MSP 0 (Table I). The tree's leaves are one cached input per bank; the
core rewrites only the leaves of banks that changed.
"""

from __future__ import annotations

import sys
from collections import deque
from typing import Deque, Optional

#: Leaf value of a bank excluded from the min-tree (Sec. 3.2.2's special
#: condition); larger than any StateId.
EXCLUDED = sys.maxsize


class LCSUnit:
    """Pipelined min-reduction over the banks' RelP StateIds."""

    def __init__(self, delay: int = 1, banks: int = 64) -> None:
        if delay < 0:
            raise ValueError("delay must be >= 0")
        self.delay = delay
        #: One input per bank: its RelP StateId, or ``EXCLUDED``.
        self.leaves = [EXCLUDED] * banks
        self._pipe: Deque[int] = deque([0] * delay)
        self._last_input: Optional[int] = None
        self._last_output: Optional[int] = None

    def step(self, all_quiescent_value: int) -> int:
        """Reduce this cycle's leaves; return the *effective* LCS (the
        value that entered the pipe ``delay`` cycles ago).

        ``all_quiescent_value`` is used when every bank is excluded: the
        current SC + 1, meaning every state in flight is committable.
        """
        lcs = min(self.leaves)
        if lcs == EXCLUDED:
            lcs = all_quiescent_value
        self._last_input = lcs
        if self.delay == 0:
            self._last_output = lcs
            return lcs
        self._pipe.append(lcs)
        self._last_output = out = self._pipe.popleft()
        return out

    @property
    def settled(self) -> bool:
        """True when stepping with unchanged bank state is a provable
        no-op: the last step already returned the value it fed and
        every pipe stage holds that value, so the effective LCS is
        constant and the shift leaves the pipe untouched.  (Right after
        a new value enters a 1-cycle pipe, the pipe holds only that
        value, but the step returned the old one: the commit the new
        value allows is still to come.)  The event scheduler's idle
        skip requires this before eliding MSP cycles in bulk."""
        last = self._last_input
        if last is None:
            return self.delay == 0
        return (self._last_output == last
                and all(stage == last for stage in self._pipe))
