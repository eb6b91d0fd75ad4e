"""Unit and property tests for the owner record (frames, page table),
twins, and diffs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DataRaceError, ProtocolError
from repro.vm.diffs import (Diff, apply_diff, flush_update, incoming_diff,
                            make_twin, outgoing_diff)
from repro.vm.page import Owner, Perm


class TestPerm:
    def test_ordering(self):
        assert Perm.INVALID < Perm.READ < Perm.WRITE

    def test_loosest(self):
        # The directory word rule: a node's word holds the loosest
        # permission of its processors, which the ordering makes max().
        assert max([Perm.INVALID, Perm.WRITE, Perm.READ]) == Perm.WRITE
        assert max([int(Perm.READ), int(Perm.INVALID)]) == Perm.READ


class TestFrameStore:
    """An owner record's frames and memory (the class keeps the name of
    the store the record replaced, so its test ids stay stable)."""

    def test_lazy_map_and_read(self):
        o = Owner(4, 8, 1)
        assert 1 not in o.frames
        frame = o.map(1)
        assert o.frames[1] is frame
        assert frame.shape == (8,)
        assert (frame == 0).all()

    def test_map_with_contents_copies(self):
        o = Owner(4, 4, 1)
        src = np.arange(4.0)
        frame = o.map(0, src)
        src[0] = 99.0
        assert frame[0] == 0.0  # independent copy

    def test_remap_overwrites_in_place(self):
        o = Owner(1, 4, 1)
        f1 = o.map(0)
        f2 = o.map(0, np.ones(4))
        assert f1 is f2  # same physical frame
        assert (f1 == 1).all()

    def test_missing_frame_raises(self):
        o = Owner(1, 4, 1)
        with pytest.raises(KeyError):
            o.frames[0]

    def test_unmap(self):
        o = Owner(2, 4, 1)
        o.map(1)
        o.twins[1] = np.zeros(4)
        o.unmap(1)
        assert 1 not in o.frames and 1 not in o.twins
        o.unmap(1)  # idempotent

    def test_degenerate_geometry_rejected(self):
        for geometry in [(0, 1, 1), (1, 0, 1), (1, 1, 0)]:
            with pytest.raises(ProtocolError):
                Owner(*geometry)

    def test_frame_is_its_owners_slot(self):
        o = Owner(4, 8, 1)
        assert o.backing.shape == (32,)
        frame = o.map(2)
        assert frame.base is o.backing
        frame[:] = np.arange(8.0)
        np.testing.assert_array_equal(o.backing[16:24], np.arange(8.0))
        assert not o.backing[:16].any() and not o.backing[24:].any()

    def test_remap_reads_zeros_or_exactly_the_contents(self):
        o = Owner(2, 4, 1)
        o.map(1, np.full(4, 7.0))
        o.unmap(1)
        np.testing.assert_array_equal(o.map(1), np.zeros(4))
        o.frames[1][:] = 3.0
        o.unmap(1)
        np.testing.assert_array_equal(o.map(1, np.arange(4.0)),
                                      np.arange(4.0))

    def test_owners_slots_are_independent(self):
        a_owner, b_owner = Owner(2, 4, 1), Owner(2, 4, 1)
        a = a_owner.map(1, np.ones(4))
        b = b_owner.map(1)
        assert not np.shares_memory(a, b)
        b[:] = 5.0
        np.testing.assert_array_equal(a_owner.frames[1], np.ones(4))
        assert not a_owner.backing[:4].any()

    def test_alias_maps_the_given_frame_until_unmapped(self):
        o = Owner(2, 4, 1)
        master = np.full(4, 2.0)
        o.alias(1, master)
        assert o.frames[1] is master
        o.unmap(1)
        frame = o.map(1, np.ones(4))
        assert frame.base is o.backing and o.frames[1] is frame
        np.testing.assert_array_equal(master, np.full(4, 2.0))


class TestPageTable:
    """An owner record's page-table rows and software-TLB eviction (named
    after the table the record replaced, for stable test ids)."""

    def test_default_invalid(self):
        o = Owner(4, 1, 2)
        assert o.rows[0][0] == Perm.INVALID
        assert max(o.rows[0]) == Perm.INVALID

    def test_set_and_query(self):
        o = Owner(4, 1, 3)
        o.set_perm(1, 0, Perm.READ)
        o.set_perm(1, 2, Perm.WRITE)
        assert max(o.rows[1]) == Perm.WRITE
        assert o.mapped(1) == [0, 2]
        assert o.writers(1) == [2]

    def test_evict_drops_one_processors_mappings(self):
        o = Owner(2, 4, 2)
        frame = o.map(0)
        for p in range(2):
            o.set_perm(0, p, Perm.WRITE)
            o.rmaps[p][0] = frame
            o.wmaps[p][0] = memoryview(frame)
        o.set_perm(0, 1, Perm.INVALID)
        assert 0 in o.rmaps[0] and 0 in o.wmaps[0]
        assert 0 not in o.rmaps[1] and 0 not in o.wmaps[1]

    def test_evict_all_drops_every_processors_mappings(self):
        o = Owner(2, 4, 2)
        for evict in (o.unmap, lambda page: o.alias(page, np.zeros(4))):
            for p in range(2):
                o.rmaps[p][0] = o.map(0)
                o.rmaps[p][1] = o.map(1)
            evict(0)
            assert all(list(m) == [1] for m in o.rmaps)
        o.unmap(0)
        o.unmap(0)  # idempotent


class TestDiffs:
    def test_outgoing_diff_finds_changes(self):
        page = np.zeros(8)
        twin = make_twin(page)
        page[3] = 1.5
        page[7] = -2.0
        diff = outgoing_diff(page, twin)
        assert list(diff.indices) == [3, 7]
        assert list(diff.values) == [1.5, -2.0]
        assert diff.nbytes == 2 * 2 * 8

    def test_empty_diff(self):
        page = np.ones(4)
        diff = outgoing_diff(page, make_twin(page))
        assert len(diff) == 0
        assert diff.nbytes == 0

    def test_apply_diff(self):
        master = np.zeros(8)
        apply_diff(master, Diff(np.array([1, 2]), np.array([5.0, 6.0])))
        assert master[1] == 5.0 and master[2] == 6.0

    def test_flush_update_updates_home_and_twin(self):
        page = np.zeros(8)
        twin = make_twin(page)
        master = np.zeros(8)
        page[2] = 3.0
        flush_update(page, twin, master)
        assert master[2] == 3.0
        assert twin[2] == 3.0
        # Second flush finds nothing new.
        assert len(flush_update(page, twin, master)) == 0

    def test_incoming_diff_merges_remote_only(self):
        # Local writer modified word 0; remote modified word 3.
        twin = np.zeros(8)
        page = twin.copy()
        page[0] = 1.0           # local, unflushed
        fetched = np.zeros(8)
        fetched[3] = 9.0        # remote modification in the master
        diff = incoming_diff(fetched, page, twin)
        assert page[0] == 1.0   # local change preserved
        assert page[3] == 9.0   # remote change applied
        assert twin[3] == 9.0   # twin tracks the master view
        assert twin[0] == 0.0   # local change NOT in twin
        assert len(diff) == 1

    def test_incoming_diff_detects_race(self):
        twin = np.zeros(4)
        page = twin.copy()
        page[1] = 1.0           # local dirty
        fetched = np.zeros(4)
        fetched[1] = 2.0        # remote wrote the same word: a data race
        with pytest.raises(DataRaceError):
            incoming_diff(fetched, page, twin)

    def test_incoming_diff_race_check_can_be_disabled(self):
        twin = np.zeros(4)
        page = twin.copy()
        page[1] = 1.0
        fetched = np.zeros(4)
        fetched[1] = 2.0
        incoming_diff(fetched, page, twin, check_races=False)
        assert page[1] == 2.0


# --- property-based tests ---------------------------------------------------

words = st.integers(min_value=0, max_value=31)
values = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(words, values, max_size=16))
def test_outgoing_diff_roundtrip(changes):
    """Applying an outgoing diff to a copy of the twin reproduces the page."""
    twin = np.arange(32.0)
    page = twin.copy()
    for i, v in changes.items():
        page[i] = v
    diff = outgoing_diff(page, twin)
    rebuilt = twin.copy()
    apply_diff(rebuilt, diff)
    assert (rebuilt == page).all()


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(words, values, max_size=8),
       st.dictionaries(words, values, max_size=8))
def test_two_way_diffing_merges_disjoint_writers(local, remote):
    """The core two-way-diffing property: disjoint local and remote writes
    merge losslessly through the twin, in either flush order."""
    remote = {i: v for i, v in remote.items() if i not in local}
    base = np.zeros(32)
    master = base.copy()
    twin = base.copy()
    page = base.copy()
    for i, v in local.items():
        page[i] = v          # local writes (unflushed)
    for i, v in remote.items():
        master[i] = v        # remote node's flushed writes

    incoming_diff(master.copy(), page, twin)
    for i in range(32):
        assert page[i] == local.get(i, remote.get(i, 0.0))

    # Now the local release flushes: the master must contain both sets.
    flush_update(page, twin, master)
    for i in range(32):
        assert master[i] == local.get(i, remote.get(i, 0.0))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(words, values), max_size=20))
def test_flush_update_idempotent_after_flush(writes):
    page = np.zeros(32)
    twin = make_twin(page)
    master = np.zeros(32)
    for i, v in writes:
        page[i] = v
    flush_update(page, twin, master)
    assert (master == page).all()
    assert len(flush_update(page, twin, master)) == 0
