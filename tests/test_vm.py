"""Unit and property tests for frames, page tables, twins, and diffs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DataRaceError, ProtocolError
from repro.vm.diffs import (Diff, apply_diff, flush_update, incoming_diff,
                            make_twin, outgoing_diff)
from repro.vm.page import FrameStore, Perm
from repro.vm.pagetable import PageTable


class TestPerm:
    def test_ordering(self):
        assert Perm.INVALID < Perm.READ < Perm.WRITE

    def test_loosest(self):
        # The directory word rule: a node's word holds the loosest
        # permission of its processors, which the ordering makes max().
        assert max([Perm.INVALID, Perm.WRITE, Perm.READ]) == Perm.WRITE
        assert max([int(Perm.READ), int(Perm.INVALID)]) == Perm.READ


class TestFrameStore:
    def test_lazy_map_and_read(self):
        fs = FrameStore(2, 4, 8)
        assert not fs.has_frame(0, 1)
        frame = fs.map_frame(0, 1)
        assert fs.has_frame(0, 1)
        assert frame.shape == (8,)
        assert (frame == 0).all()

    def test_map_with_contents_copies(self):
        fs = FrameStore(2, 4, 4)
        src = np.arange(4.0)
        frame = fs.map_frame(0, 0, src)
        src[0] = 99.0
        assert frame[0] == 0.0  # independent copy

    def test_remap_overwrites_in_place(self):
        fs = FrameStore(1, 1, 4)
        f1 = fs.map_frame(0, 0)
        f2 = fs.map_frame(0, 0, np.ones(4))
        assert f1 is f2  # same physical frame
        assert (f1 == 1).all()

    def test_missing_frame_raises(self):
        fs = FrameStore(1, 1, 4)
        with pytest.raises(ProtocolError):
            fs.frame(0, 0)

    def test_unmap(self):
        fs = FrameStore(1, 2, 4)
        fs.map_frame(0, 1)
        fs.unmap_frame(0, 1)
        assert not fs.has_frame(0, 1)
        fs.unmap_frame(0, 1)  # idempotent

    def test_degenerate_geometry_rejected(self):
        with pytest.raises(ProtocolError):
            FrameStore(0, 1, 1)

    def test_frame_is_its_owners_slot(self):
        fs = FrameStore(2, 4, 8)
        assert [b.shape for b in fs.backings] == [(32,), (32,)]
        frame = fs.map_frame(1, 2)
        assert frame.base is fs.backings[1]
        frame[:] = np.arange(8.0)
        np.testing.assert_array_equal(fs.backings[1][16:24], np.arange(8.0))
        assert not fs.backings[1][:16].any() and not fs.backings[1][24:].any()

    def test_remap_reads_zeros_or_exactly_the_contents(self):
        fs = FrameStore(1, 2, 4)
        fs.map_frame(0, 1, np.full(4, 7.0))
        fs.unmap_frame(0, 1)
        np.testing.assert_array_equal(fs.map_frame(0, 1), np.zeros(4))
        fs.frame(0, 1)[:] = 3.0
        fs.unmap_frame(0, 1)
        np.testing.assert_array_equal(fs.map_frame(0, 1, np.arange(4.0)),
                                      np.arange(4.0))

    def test_owners_slots_are_independent(self):
        fs = FrameStore(2, 2, 4)
        a = fs.map_frame(0, 1, np.ones(4))
        b = fs.map_frame(1, 1)
        assert not np.shares_memory(a, b)
        b[:] = 5.0
        np.testing.assert_array_equal(fs.frame(0, 1), np.ones(4))
        assert not fs.backings[0][:4].any()


class TestPageTable:
    def test_default_invalid(self):
        t = PageTable(4, 2)
        assert t.perm(0, 0) == Perm.INVALID
        assert max(t.rows[0]) == Perm.INVALID

    def test_set_and_query(self):
        t = PageTable(4, 3)
        t.set_perm(1, 0, Perm.READ)
        t.set_perm(1, 2, Perm.WRITE)
        assert max(t.rows[1]) == Perm.WRITE
        assert t.mapped(1) == [0, 2]
        assert t.writers(1) == [2]

    def test_evict_drops_one_processors_mappings(self):
        t = PageTable(2, 2)
        frame = np.zeros(4)
        for p in range(2):
            t.rmaps[p][0] = frame
            t.wmaps[p][0] = memoryview(frame)
        t.evict(0, 1)
        assert 0 in t.rmaps[0] and 0 in t.wmaps[0]
        assert 0 not in t.rmaps[1] and 0 not in t.wmaps[1]

    def test_evict_all_drops_every_processors_mappings(self):
        t = PageTable(2, 2)
        for p in range(2):
            t.rmaps[p][0] = t.rmaps[p][1] = np.zeros(4)
        t.evict_all(0)
        assert all(list(m) == [1] for m in t.rmaps)
        t.evict_all(0)  # idempotent


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
