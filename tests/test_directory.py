"""Unit tests for the global directory and write-notice structures.

The simulator's directory entry is the sparse :class:`DirEntry`
(O(sharers), DESIGN.md §15). ``tests/dense_directory.py`` keeps the
paper's literal one-word-per-owner layout as a differential reference:
the hypothesis test at the bottom drives both through randomized update
sequences and asserts they agree on every observable.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster.machine import Cluster
from repro.config import MachineConfig
from repro.errors import ProtocolError
from repro.protocol import make_protocol
from repro.protocol.directory import (NO_HOLDER, DirectoryLockModel,
                                      DirEntry, GlobalDirectory, PageMeta)
from repro.protocol.writenotice import NoticeBoard
from repro.vm.page import Perm

from .dense_directory import (DenseDirEntry, DirWord, occupancy_into,
                              rescan_occupancy)


def small_config(**kw):
    kw.setdefault("nodes", 4)
    kw.setdefault("procs_per_node", 1)
    kw.setdefault("page_bytes", 512)
    kw.setdefault("shared_bytes", 512 * 16)
    return MachineConfig(**kw)


def sparse_entry(num_owners=4):
    """A fresh sparse entry with occupancy totals of its own."""
    return DirEntry(0, [0] * num_owners, [0, 0, 0, 0])


def entry_pair(num_owners=4):
    """A fresh (sparse, dense) entry pair over the same owner space."""
    return (sparse_entry(num_owners),
            DenseDirEntry(home_owner=0, num_owners=num_owners))


class TestDirEntry:
    def test_sharers(self):
        entry = sparse_entry()
        entry.set_perm(2, Perm.WRITE)
        entry.set_perm(0, Perm.READ)
        assert entry.sharers() == [0, 2]

    def test_set_perm_invalid_unshares(self):
        entry = sparse_entry()
        entry.set_perm(1, Perm.READ)
        entry.set_perm(1, Perm.INVALID)
        assert entry.sharers() == []
        assert entry.perm_of(1) is Perm.INVALID

    def test_single_exclusive_holder(self):
        entry = sparse_entry()
        entry.set_perm(1, Perm.WRITE)
        entry.set_excl(1, 5)
        assert entry.excl == (1, 5)
        assert entry.excl_of(1) == 5
        assert entry.excl_of(0) == NO_HOLDER

    def test_no_holder(self):
        entry = sparse_entry()
        assert entry.excl is None

    def test_two_holders_is_corruption(self):
        entry = sparse_entry()
        entry.set_excl(1, 1)
        with pytest.raises(ProtocolError, match="corrupt"):
            entry.set_excl(2, 2)

    def test_dense_preset_words_corruption(self):
        entry = DenseDirEntry(home_owner=0,
                              words=[DirWord(Perm.WRITE, 1),
                                     DirWord(Perm.WRITE, 2)])
        with pytest.raises(ProtocolError, match="corrupt"):
            entry.excl

    def test_clear_excl_wrong_owner_is_noop(self):
        for entry in entry_pair():
            entry.set_excl(1, 7)
            entry.clear_excl(0)
            assert entry.excl == (1, 7)
            entry.clear_excl(1)
            assert entry.excl is None


class TestGlobalDirectory:
    def test_round_robin_home_per_superpage(self):
        cfg = small_config(superpage_pages=2)
        d = GlobalDirectory(cfg, num_owners=4)
        homes = [d.home(p) for p in range(cfg.num_pages)]
        # pages 0,1 -> owner 0; 2,3 -> owner 1; ...
        assert homes[:8] == [0, 0, 1, 1, 2, 2, 3, 3]

    def test_lock_free_update_cost_constant(self):
        # BaseProtocol._dir_word is the one place a word change is priced.
        cluster = Cluster(small_config())
        proto = make_protocol("2L", cluster)
        counters = cluster.processors[0].stats.counters
        costs = cluster.config.costs
        assert proto._dir_word(counters, 0.0) == costs.dir_update
        assert proto._dir_word(counters, 0.0) == costs.dir_update
        assert counters["directory_updates"] == 2
        assert cluster.mc.traffic["directory"] == 2 * 4 * proto.num_owners

    def test_global_lock_model_serializes(self):
        cfg = small_config()
        model = DirectoryLockModel(cfg)
        c1 = model.update_cost(0.0)
        c2 = model.update_cost(0.0)  # queued behind the first
        assert c1 == pytest.approx(16.0)
        assert c2 == pytest.approx(32.0)

    def test_broadcast_bytes(self):
        cfg = small_config()
        assert GlobalDirectory(cfg, 8).broadcast_bytes() == 32

    @pytest.mark.parametrize("rescan", [False, True])
    def test_occupancy(self, rescan):
        cfg = small_config()
        d = GlobalDirectory(cfg, 4)
        d.entries[0].set_perm(1, Perm.READ)
        d.entries[0].set_perm(2, Perm.READ)
        d.entries[1].set_perm(3, Perm.WRITE)
        d.entries[2].set_perm(0, Perm.WRITE)
        d.entries[2].set_excl(0, 0)
        # The kept totals, or the same answer by walking every entry.
        per_owner, histogram = (rescan_occupancy(d.entries, 4) if rescan
                                else d.occupancy())
        assert per_owner == [1, 1, 1, 1]
        assert histogram == [cfg.num_pages - 3, 1, 1, 1]

    def test_occupancy_returns_copies(self):
        d = GlobalDirectory(small_config(), 4)
        per_owner, histogram = d.occupancy()
        per_owner[0] += 5
        histogram[1] += 5
        assert d.occupancy() == ([0] * 4, [d.config.num_pages, 0, 0, 0])


@pytest.mark.parametrize("num_owners", [8, 64, 512])
def test_entry_size_is_flat_in_cluster_size(num_owners):
    """The directory op mix of one coherence transition, with at most 4
    sharers per page at any cluster size (Table 3's applications average
    about 2), spread across the whole owner space: every entry stays
    sized by its sharers, and the only ``num_owners``-sized structures
    are the directory's own totals, which every entry shares rather
    than copies."""
    pages, sharers = 64, 4
    cfg = MachineConfig(nodes=2, procs_per_node=2, page_bytes=512,
                        shared_bytes=512 * pages)
    d = GlobalDirectory(cfg, num_owners)
    stride = num_owners // sharers
    for i in range(4000):
        entry = d.entries[i % pages]
        owner = (i * 7 + i // pages) % sharers * stride
        entry.set_perm(owner, Perm.READ if i & 1 else Perm.WRITE)
        entry.perm_of(owner)
        entry.sharers()
        entry.has_other_sharer(owner)
        if i & 7 == 0:
            entry.set_perm(owner, Perm.INVALID)
    assert sum(d.occupancy()[0]) == sum(len(e.perms) for e in d.entries)
    assert max(len(e.perms) for e in d.entries) == sharers
    for entry in d.entries:
        assert len(entry.perms) <= sharers
        assert entry.per_owner is d.per_owner
        assert entry.histogram is d.histogram


# ---------------------------------------------------------------------------
# Differential property: sparse vs dense across random update sequences.
# ---------------------------------------------------------------------------

N_OWNERS = 6

_ops = st.one_of(
    st.tuples(st.just("set_perm"), st.integers(0, N_OWNERS - 1),
              st.sampled_from([Perm.INVALID, Perm.READ, Perm.WRITE])),
    st.tuples(st.just("set_excl"), st.integers(0, N_OWNERS - 1),
              st.integers(0, 23)),
    st.tuples(st.just("clear_excl"), st.integers(0, N_OWNERS - 1),
              st.just(0)),
)


def _observe(entry):
    return {
        "perms": [int(entry.perm_of(o)) for o in range(N_OWNERS)],
        "sharers": entry.sharers(),
        "other": [entry.has_other_sharer(o) for o in range(N_OWNERS)],
        "holder": entry.excl,
        "excl_of": [entry.excl_of(o) for o in range(N_OWNERS)],
        "state": entry.state_tuple(),
    }


@settings(max_examples=200, deadline=None)
@given(st.lists(_ops, max_size=40))
def test_sparse_and_dense_entries_agree(ops):
    """Any update sequence leaves the two forms indistinguishable: same
    permissions, sharer sets, holders, occupancy, and state digests —
    including raising corruption errors at exactly the same step."""
    sparse = sparse_entry(N_OWNERS)
    dense = DenseDirEntry(home_owner=0, num_owners=N_OWNERS)
    for op, owner, arg in ops:
        results = []
        for entry in (sparse, dense):
            try:
                getattr(entry, op)(*((owner, arg) if op != "clear_excl"
                                     else (owner,)))
                results.append(None)
            except ProtocolError:
                results.append("corrupt")
        assert results[0] == results[1]
        assert _observe(sparse) == _observe(dense)
    per_s, hist_s = [0] * N_OWNERS, [0, 0, 0, 0]
    per_d, hist_d = [0] * N_OWNERS, [0, 0, 0, 0]
    hist_s[occupancy_into(sparse, per_s)] += 1
    hist_d[dense.occupancy_into(per_d)] += 1
    assert (per_s, hist_s) == (per_d, hist_d)


N_PAGES = 4


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, N_PAGES - 1), _ops), max_size=60))
@example([(1, ("set_perm", 2, Perm.WRITE)), (1, ("set_excl", 2, 5)),
          (1, ("set_excl", 3, 7)), (1, ("clear_excl", 2, 0))])
def test_kept_occupancy_equals_dense_rescan(steps):
    """The directory's kept totals equal a rescan of the dense reference
    after every ``set_perm``/``set_excl``/``clear_excl`` on any page,
    including a ``set_excl`` that raises the corruption error (which
    must leave the totals untouched)."""
    cfg = small_config(nodes=N_OWNERS, shared_bytes=512 * N_PAGES,
                       superpage_pages=1)
    d = GlobalDirectory(cfg, N_OWNERS)
    dense = [DenseDirEntry(e.home_owner, num_owners=N_OWNERS)
             for e in d.entries]
    assert d.occupancy() == rescan_occupancy(dense, N_OWNERS)
    for page, (op, owner, arg) in steps:
        args = (owner, arg) if op != "clear_excl" else (owner,)
        raised = []
        for entry in (d.entries[page], dense[page]):
            try:
                getattr(entry, op)(*args)
                raised.append(False)
            except ProtocolError:
                raised.append(True)
        assert raised[0] == raised[1]
        assert d.occupancy() == rescan_occupancy(dense, N_OWNERS) \
            == rescan_occupancy(d.entries, N_OWNERS)


class TestNoticeBoard:
    def test_post_and_collect_respects_visibility(self):
        board = NoticeBoard(4)
        board.post(1, page=7, visible_at=10.0)
        board.post(1, page=8, visible_at=20.0)
        got = board.collect(upto=15.0)
        assert [n.page for n in got] == [7]
        assert board.pending() == 1
        got = board.collect(upto=25.0)
        assert [n.page for n in got] == [8]

    def test_bins_consumed_in_order(self):
        board = NoticeBoard(3)
        board.post(1, 1, 5.0)
        board.post(2, 2, 3.0)
        got = board.collect(10.0)
        assert [(n.from_owner, n.page) for n in got] == [(1, 1), (2, 2)]

    def test_visible_notice_behind_late_head_still_delivered(self):
        # Distinct processors of one node post to the same bin at
        # unordered simulated clocks; MC write ordering is per source
        # processor, not per node, so a visible notice parked behind a
        # not-yet-visible head must still come out (missing it lets the
        # poster's lock successor read a stale page).
        board = NoticeBoard(2)
        board.post(1, 1, 20.0)
        board.post(1, 2, 10.0)
        got = board.collect(15.0)
        assert [(n.page, n.visible_at) for n in got] == [(2, 10.0)]
        assert board.pending() == 1
        got = board.collect(25.0)
        assert [(n.page, n.visible_at) for n in got] == [(1, 20.0)]
        assert board.pending() == 0

    def test_pending_matches_bin_lengths(self):
        """``pending()`` is kept as ``posted - consumed``; after any mix
        of posts and (partial) collects it equals what sits in the bins."""
        board = NoticeBoard(4)

        def queued():
            return sum(len(b) for b in board.bins)

        assert board.pending() == queued() == 0
        for i in range(12):
            board.post(1 + i % 3, page=i, visible_at=float(30 - 2 * i))
        assert board.pending() == queued() == 12
        assert len(board.collect(9.0)) == 1      # only the last post
        assert board.pending() == queued() == 11
        board.post(2, page=99, visible_at=5.0)
        assert board.pending() == queued() == 12
        board.collect(20.0)                       # a non-prefix subset
        assert 0 < board.pending() == queued() < 12
        assert board.collect(1.0) == []           # nothing newly visible
        board.collect(1e9)
        assert board.pending() == queued() == 0


class TestPageMeta:
    def test_defaults(self):
        meta = PageMeta()
        assert meta.flush_ts == -1
        assert meta.update_ts == -1
        assert meta.wn_ts == -1
