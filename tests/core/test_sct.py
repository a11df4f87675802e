"""RegisterBank (SCT) tests: allocation, RelP, release, rollback."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import RegisterBank
from repro.core.lcs import EXCLUDED


def make_bank(capacity=4):
    return RegisterBank(logical=1, capacity=capacity, initial_value=0)


def test_initial_state_is_architectural_copy():
    bank = make_bank()
    assert bank.live_entries == 1
    assert bank.current_mono() == 0
    assert bank.is_ready(0)
    assert bank.read(0) == 0


def test_allocate_advances_renp():
    bank = make_bank()
    mono = bank.allocate(stateid=1)
    assert mono == 1
    assert bank.current_mono() == 1
    assert not bank.is_ready(mono)
    bank.write(mono, 42)
    assert bank.is_ready(mono)
    assert bank.read(mono) == 42


def test_full_bank_rejects_allocation():
    bank = make_bank(capacity=2)
    bank.allocate(1)
    assert bank.is_full()
    with pytest.raises(RuntimeError):
        bank.allocate(2)


def test_use_tracking_and_underflow_guard():
    bank = make_bank()
    mono = bank.allocate(1)
    bank.add_use(mono)
    bank.add_use(mono)
    bank.consume(mono)
    bank.consume(mono)
    with pytest.raises(AssertionError):
        bank.consume(mono)


def test_relp_stops_at_unconsumed_entry():
    bank = make_bank(capacity=4)
    m1 = bank.allocate(1)
    bank.allocate(2)
    bank.write(m1, 5)
    bank.add_use(m1)
    bank.advance_rel({})
    # Entry 0 (initial, quiescent) releasable; m1 has a pending use.
    assert bank.rel == m1
    bank.consume(m1)
    bank.advance_rel({})
    assert bank.rel == 2  # stops at RenP


def test_relp_stops_on_outstanding_state_instructions():
    bank = make_bank(capacity=4)
    m1 = bank.allocate(1)
    bank.allocate(2)
    bank.write(m1, 5)
    bank.advance_rel({1: 1})      # a branch/store of state 1 in flight
    assert bank.rel == m1
    bank.advance_rel({})
    assert bank.rel == 2


def test_lcs_candidate_excludes_quiescent_bank():
    bank = make_bank()
    assert bank.lcs_candidate({}) == EXCLUDED      # idle initial bank
    mono = bank.allocate(7)
    assert bank.lcs_candidate({}) == 0             # rel still at entry 0
    bank.advance_rel({})
    assert bank.lcs_candidate({}) == 7             # value unproduced
    bank.write(mono, 1)
    assert bank.lcs_candidate({}) == EXCLUDED      # produced + complete
    assert bank.lcs_candidate({7: 2}) == 7         # same-state pending


def test_lcs_candidate_ignores_reader_uses_on_last_entry():
    # The loop-invariant case: pending reads of the current mapping must
    # not gate the LCS (interpretation note in lcs_candidate).
    bank = make_bank()
    mono = bank.allocate(3)
    bank.write(mono, 9)
    bank.advance_rel({})
    bank.add_use(mono)
    assert bank.lcs_candidate({}) == EXCLUDED


def test_free_up_to_respects_successor_commit():
    bank = make_bank(capacity=4)
    m1 = bank.allocate(1)
    m2 = bank.allocate(2)
    bank.write(m1, 1)
    bank.write(m2, 2)
    bank.advance_rel({})
    # Entry 0's successor (state 1) not committed yet: nothing frees.
    assert bank.free_up_to(0) == 0
    assert bank.free_up_to(1) == 1          # frees initial entry
    assert bank.live_entries == 2
    # m1 frees only once state 2 commits.
    assert bank.free_up_to(2) == 1
    assert bank.live_entries == 1


def test_last_renaming_never_freed():
    bank = make_bank(capacity=4)
    mono = bank.allocate(1)
    bank.write(mono, 3)
    bank.advance_rel({})
    bank.free_up_to(100)
    assert bank.live_entries >= 1
    assert bank.current_mono() == mono


def test_rollback_releases_younger_entries():
    bank = make_bank(capacity=8)
    m1 = bank.allocate(1)
    m2 = bank.allocate(5)
    m3 = bank.allocate(9)
    assert bank.rollback(recovery_stateid=5) == 1
    assert bank.current_mono() == m2
    assert bank.rollback(recovery_stateid=0) == 2
    assert bank.current_mono() == 0
    del m1, m3


def test_rollback_clamps_relp():
    bank = make_bank(capacity=8)
    m1 = bank.allocate(1)
    bank.write(m1, 1)
    m2 = bank.allocate(2)
    bank.write(m2, 2)
    bank.allocate(3)
    bank.advance_rel({})
    assert bank.rel == 3  # reached RenP
    bank.rollback(recovery_stateid=1)
    assert bank.rel <= bank.current_mono()


def test_slot_reuse_after_free():
    bank = make_bank(capacity=2)
    m1 = bank.allocate(1)
    bank.write(m1, 10)
    bank.advance_rel({})
    bank.free_up_to(1)
    m2 = bank.allocate(2)     # reuses the initial entry's slot
    assert m2 == 2
    bank.write(m2, 20)
    assert bank.read(m1) == 10
    assert bank.read(m2) == 20


def test_unbounded_bank_grows():
    bank = RegisterBank(logical=0, capacity=None)
    for stateid in range(1, 100):
        mono = bank.allocate(stateid)
        bank.write(mono, stateid)
    assert not bank.is_full()
    assert bank.read(50) == 50


def test_unbounded_ring_regrows_across_wrapped_entries():
    bank = RegisterBank(logical=0, capacity=None)
    # Retire-and-refill so live monos wrap the 16-slot ring, then grow
    # it with the wrapped entries live.
    for stateid in range(1, 30):
        mono = bank.allocate(stateid)
        bank.write(mono, stateid * 10)
        bank.advance_rel({})
        bank.free_up_to(stateid - 1)
    assert bank.mask == 15
    live = range(bank.freed, bank.alloc)
    for stateid in range(30, 50):
        bank.write(bank.allocate(stateid), stateid * 10)
    assert bank.mask == 31 and bank.live_entries == 22
    for mono in range(live[0], bank.alloc):
        assert bank.read(mono) == mono * 10


# --------------------------------------------------------------------- #
# Dirty marking: the mutations that can move RelP or the LCS input.
# --------------------------------------------------------------------- #


def clean_bank(capacity=4):
    bank = make_bank(capacity)
    bank.dirty.clear()
    return bank


def test_new_bank_starts_dirty():
    shared = set()
    RegisterBank(logical=5, capacity=4, dirty=shared)
    assert shared == {5}


def test_allocate_marks_dirty_only_when_renp_is_relp():
    bank = clean_bank()
    bank.allocate(1)                 # RenP == RelP == 0 before
    assert bank.dirty == {1}
    bank.dirty.clear()
    bank.allocate(2)                 # RelP (0) already behind RenP (1)
    assert not bank.dirty


def test_write_marks_dirty_only_at_relp():
    bank = make_bank()
    m1 = bank.allocate(1)
    m2 = bank.allocate(2)
    bank.advance_rel({})             # entry 0 released; RelP stops at m1
    assert bank.rel == m1
    bank.dirty.clear()
    bank.write(m2, 7)
    assert not bank.dirty
    bank.write(m1, 5)
    assert bank.dirty == {1}


def test_last_consume_at_relp_marks_dirty():
    bank = make_bank()
    m1 = bank.allocate(1)
    bank.allocate(2)
    bank.write(m1, 5)
    bank.add_use(m1)
    bank.add_use(m1)
    bank.advance_rel({})
    assert bank.rel == m1            # uses pending
    bank.dirty.clear()
    bank.consume(m1)
    assert not bank.dirty            # one use still pending
    bank.consume(m1)
    assert bank.dirty == {1}
    bank.advance_rel({})
    assert bank.rel == 2


def test_rollback_marks_dirty():
    bank = make_bank(capacity=8)
    bank.allocate(1)
    bank.dirty.clear()
    bank.rollback(recovery_stateid=1)    # drops nothing
    assert bank.dirty == {1}


@settings(max_examples=60)
@given(st.lists(st.sampled_from(["alloc", "complete", "commit"]),
                min_size=1, max_size=120),
       st.integers(min_value=2, max_value=8))
def test_bank_invariants_under_random_traffic(ops, capacity):
    """Property: freed <= rel < alloc and live count within capacity,
    under any interleaving of allocation, completion and commit."""
    bank = RegisterBank(logical=2, capacity=capacity)
    next_state = 0
    committed = 0
    pending = []
    for op in ops:
        if op == "alloc" and not bank.is_full():
            next_state += 1
            pending.append((bank.allocate(next_state), next_state))
        elif op == "complete" and pending:
            mono, _ = pending.pop(0)
            bank.write(mono, mono)
        elif op == "commit":
            committed = next_state - 1 if next_state else 0
            bank.advance_rel({})
            bank.free_up_to(committed)
        assert bank.freed <= bank.rel < bank.alloc
        assert 1 <= bank.live_entries <= capacity
