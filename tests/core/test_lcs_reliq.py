"""LCS unit and RelIQ matrix tests."""

import pytest
from hypothesis import given, strategies as st

from repro.core import LCSUnit, RelIQMatrix
from repro.core.lcs import EXCLUDED


def lcs_unit(delay, leaves):
    """An LCS unit whose per-bank leaves hold ``leaves``."""
    lcs = LCSUnit(delay=delay, banks=len(leaves))
    lcs.leaves[:] = leaves
    return lcs


def test_lcs_zero_delay_passes_through():
    lcs = lcs_unit(0, [5, 3, 7])
    assert lcs.step(all_quiescent_value=99) == 3


def test_lcs_excludes_excluded_leaves():
    lcs = lcs_unit(0, [EXCLUDED, 4, EXCLUDED])
    assert lcs.step(all_quiescent_value=99) == 4


def test_lcs_all_quiescent_uses_fallback():
    lcs = lcs_unit(0, [EXCLUDED, EXCLUDED])
    assert lcs.step(all_quiescent_value=42) == 42


def test_lcs_delay_pipeline():
    lcs = lcs_unit(2, [10])
    assert lcs.step(0) == 0          # pipe priming
    lcs.leaves[0] = 20
    assert lcs.step(0) == 0
    lcs.leaves[0] = 30
    assert lcs.step(0) == 10         # first real value emerges
    lcs.leaves[0] = 40
    assert lcs.step(0) == 20


def test_lcs_new_value_not_settled_until_returned():
    """A 1-cycle pipe that has just taken a new value holds only that
    value, yet the step returned the old one: stepping again with
    unchanged leaves is not a no-op, so the pipe is not settled."""
    lcs = lcs_unit(1, [10])
    lcs.step(0)                      # returns the primed 0, feeds 10
    assert not lcs.settled
    assert lcs.step(0) == 10         # the new value emerges
    assert lcs.settled
    lcs.leaves[0] = 20
    assert lcs.step(0) == 10         # feeds 20, still returns 10
    assert not lcs.settled
    assert lcs.step(0) == 20
    assert lcs.settled


def test_lcs_leaves_start_excluded():
    lcs = LCSUnit(delay=0, banks=64)
    assert lcs.leaves == [EXCLUDED] * 64
    assert lcs.step(all_quiescent_value=7) == 7


def test_lcs_rejects_negative_delay():
    with pytest.raises(ValueError):
        LCSUnit(delay=-1)


# --------------------------------------------------------------------- #


def test_reliq_set_clear_and_or_output():
    matrix = RelIQMatrix(iq_size=8)
    assert not matrix.reliq(0)
    matrix.set_use(0, 3)
    matrix.set_use(0, 5)
    assert matrix.reliq(0)
    assert matrix.use_count(0) == 2
    matrix.clear_use(0, 3)
    assert matrix.reliq(0)
    matrix.clear_use(0, 5)
    assert not matrix.reliq(0)


def test_reliq_clear_column_on_recovery():
    matrix = RelIQMatrix(iq_size=8)
    matrix.set_use(0, 2)
    matrix.set_use(1, 2)
    matrix.set_use(1, 4)
    assert matrix.clear_column(2) == 2
    assert not matrix.reliq(0)
    assert matrix.use_count(1) == 1


def test_reliq_rejects_bad_slot():
    matrix = RelIQMatrix(iq_size=4)
    with pytest.raises(ValueError):
        matrix.set_use(0, 4)


def test_reliq_double_clear_raises():
    matrix = RelIQMatrix(iq_size=4)
    matrix.set_use(0, 1)
    matrix.clear_use(0, 1)
    with pytest.raises(AssertionError):
        matrix.clear_use(0, 1)


@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 15)),
                min_size=1, max_size=60, unique=True))
def test_reliq_count_equals_counter_model(pairs):
    """Property: the matrix row popcount equals an independent counter —
    the equivalence the simulator's hot path relies on."""
    matrix = RelIQMatrix(iq_size=16)
    counters = {}
    for entry, slot in pairs:
        matrix.set_use(entry, slot)
        counters[entry] = counters.get(entry, 0) + 1
    for entry, count in counters.items():
        assert matrix.use_count(entry) == count
        assert matrix.reliq(entry) == (count > 0)
    total = sum(counters.values())
    assert matrix.storage_bits == total
