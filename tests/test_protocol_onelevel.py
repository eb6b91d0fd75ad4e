"""Scenario tests for the one-level protocols (1LD, 1L) and the
home-node optimization."""

import numpy as np
import pytest

from repro.cluster.machine import Cluster
from repro.config import MachineConfig
from repro.errors import ProtocolError
from repro.protocol import invariants, make_protocol
from repro.sim.process import Compute, ProcessGroup
from repro.vm.page import Perm

from .test_protocol_2l import the_break_word, watch_breaks


def make(nodes=2, ppn=2, protocol="1LD", pages=8, home_opt=False,
         lock_free=True, **kw):
    kw.setdefault("superpage_pages", 2)
    cfg = MachineConfig(nodes=nodes, procs_per_node=ppn, page_bytes=512,
                        shared_bytes=512 * pages, **kw)
    cluster = Cluster(cfg)
    proto = make_protocol(protocol, cluster, home_opt=home_opt,
                          lock_free=lock_free)
    return cluster, proto


def run_scripts(cluster, scripts):
    group = ProcessGroup(cluster.sim)

    def idle():
        yield Compute(0.1)

    for i, proc in enumerate(cluster.processors):
        gen = scripts[i]() if i < len(scripts) and scripts[i] else idle()
        group.spawn(proc, gen, f"p{i}")
    group.run()


class TestOwnersAreProcessors:
    def test_owner_space(self):
        cluster, proto = make(nodes=2, ppn=2)
        assert proto.num_owners == 4
        for proc in cluster.processors:
            assert proto.owner_of(proc) == proc.global_id

    def test_separate_frames_per_processor(self):
        # Two processors of the same node keep independent copies.
        cluster, proto = make(nodes=1, ppn=2)
        p0, p1 = cluster.processors[0], cluster.processors[1]

        def w0():
            proto.store(p0, 2, 0, 1.0)
            yield Compute(1.0)

        def w1():
            yield Compute(50.0)
            proto.load(p1, 2, 0)
            yield Compute(1.0)

        run_scripts(cluster, [w0, w1])
        f0 = proto.owners[0].frames[2]
        f1 = proto.owners[1].frames[2]
        assert f0 is not f1

    def test_master_is_separate_from_home_frame(self):
        # Even the home processor's working copy is distinct from the
        # master region (Section 2.6 / Table 1 "local" transfers).
        cluster, proto = make(nodes=2, ppn=1)
        p0 = cluster.processors[0]
        page = 0
        assert proto.directory.home(page) == 0

        def w0():
            proto.store(p0, page, 0, 5.0)
            yield Compute(1.0)

        run_scripts(cluster, [w0])
        assert proto.owners[0].frames[page] is not proto.master(page)


class TestDiffingVsWriteThrough:
    def test_1ld_merges_at_release(self):
        cluster, proto = make(nodes=2, ppn=1, protocol="1LD")
        p0 = cluster.processors[0]
        page = 2  # home = owner 1

        def w0():
            proto.load(p0, page, 0)
            proto.store(p0, page, 3, 9.0)
            assert proto.master(page)[3] == 0.0  # not yet released
            yield Compute(1.0)
            proto.release_sync(p0)
            assert proto.master(page)[3] == 9.0
            yield Compute(1.0)

        run_scripts(cluster, [w0])
        assert p0.stats.counters["twin_creations"] == 1

    def test_1l_writes_through_immediately(self):
        cluster, proto = make(nodes=2, ppn=1, protocol="1L")
        p0 = cluster.processors[0]
        page = 2

        def w0():
            proto.store(p0, page, 3, 9.0)
            assert proto.master(page)[3] == 9.0  # doubled on the fly
            yield Compute(1.0)

        run_scripts(cluster, [w0])
        assert p0.stats.counters["twin_creations"] == 0
        assert p0.stats.buckets["write_double"] > 0

    def test_1l_store_range_doubles_vectorized(self):
        cluster, proto = make(nodes=2, ppn=1, protocol="1L")
        p0 = cluster.processors[0]
        page = 2

        def w0():
            proto.store_range(p0, page, 4, np.array([1.0, 2.0, 3.0]))
            yield Compute(1.0)

        run_scripts(cluster, [w0])
        assert list(proto.master(page)[4:7]) == [1.0, 2.0, 3.0]

    def test_1l_doubling_follows_a_relocated_home(self):
        # Write doubling binds "is the home on my node?" at the write
        # fault. A processor holding a page exclusively keeps its write
        # mapping when first-touch relocation makes it the page's home,
        # so its next store must double over the local bus, not the MC.
        cluster, proto = make(nodes=2, ppn=1, protocol="1L")
        p0 = cluster.processors[0]
        page = 2  # superpage {2, 3}, home processor 1 on the other node
        traffic = proto.mc.traffic

        def w0():
            proto.store(p0, page, 0, 1.0)
            yield Compute(5.0)
            proto.release_sync(p0)  # no sharers -> exclusive, still WRITE
            proto.end_initialization()
            proto.load(p0, page + 1, 0)  # first touch: p0 becomes home
            assert proto.directory.home(page) == 0
            assert proto.owners[0].rows[page][0] == Perm.WRITE
            remote = traffic["write_double"]
            proto.store(p0, page, 1, 2.0)
            assert traffic["write_double"] == remote
            assert "write_double_local" in traffic
            yield Compute(1.0)

        run_scripts(cluster, [w0])
        assert proto.master(page)[1] == 2.0


class TestOneLevelAcquireRelease:
    def test_acquire_invalidates_all_noticed_pages(self):
        cluster, proto = make(nodes=2, ppn=1, protocol="1LD")
        p0, p1 = cluster.processors[0], cluster.processors[1]
        page = 2

        def w0():
            proto.load(p0, page, 0)
            yield Compute(5000.0)
            proto.acquire_sync(p0)
            # invalidated: no longer in the sharing set
            assert 0 not in proto.directory.entries[page].sharers()
            yield Compute(1.0)

        def w1():
            yield Compute(1000.0)
            proto.load(p1, page, 0)
            proto.store(p1, page, 1, 4.0)
            yield Compute(20.0)
            proto.release_sync(p1)
            yield Compute(1.0)

        run_scripts(cluster, [w0, w1])

    def test_exclusive_entered_at_release_without_sharers(self):
        cluster, proto = make(nodes=2, ppn=1, protocol="1LD")
        p0 = cluster.processors[0]
        page = 2

        def w0():
            proto.store(p0, page, 0, 1.0)
            yield Compute(5.0)
            proto.release_sync(p0)
            yield Compute(1.0)

        run_scripts(cluster, [w0])
        assert proto.directory.entries[page].excl == (0, 0)
        # Write permission retained: no fault on the next write.
        assert proto.owners[0].rows[page][0] == Perm.WRITE

    def test_break_exclusive_fetches_latest(self):
        cluster, proto = make(nodes=2, ppn=1, protocol="1LD")
        p0, p1 = cluster.processors[0], cluster.processors[1]
        page = 2

        def w0():
            proto.store(p0, page, 0, 1.0)  # includes a ~1 ms fetch
            yield Compute(5.0)
            proto.release_sync(p0)  # -> exclusive
            proto.store(p0, page, 1, 2.0)  # untracked exclusive write
            yield Compute(50.0)

        def w1():
            yield Compute(5000.0)  # well after w0's release
            assert proto.load(p1, page, 1) == 2.0
            yield Compute(1.0)

        run_scripts(cluster, [w0, w1])
        assert proto.directory.entries[page].excl is None


class TestBreakBooksOneDirectoryWord:
    """As under 2L (``tests/test_protocol_2l.py``): the break clears the
    holder's word through ``BaseProtocol._dir_word`` on the serving
    processor, at the service start."""

    def run_break(self, lock_held=None, **kw):
        """Break p0's exclusive hold from the home, p1; ``lock_held``
        books the ablation's global directory lock over ``(start,
        duration)`` first. Returns the protocol and the one break."""
        cluster, proto = make(nodes=2, ppn=1, protocol="1LD", **kw)
        if lock_held is not None:
            proto.directory.lock_model.lock.acquire(*lock_held)
        p0, p1 = cluster.processors[0], cluster.processors[1]
        page = 2

        def w0():
            proto.store(p0, page, 0, 1.0)
            yield Compute(5.0)
            proto.release_sync(p0)  # -> exclusive
            yield Compute(50.0)

        def w1():
            yield Compute(5000.0)  # far ahead of the server's clock
            assert proto.load(p1, page, 0) == 1.0  # breaks p0's hold
            yield Compute(1.0)

        breaks = watch_breaks(proto)
        run_scripts(cluster, [w0, w1])
        [brk] = breaks
        assert brk["server"] is p0
        return proto, brk

    def test_lock_free_word_costs_dir_update(self):
        proto, brk = self.run_break()
        us = the_break_word(proto, brk)
        assert us == proto.costs.dir_update
        # The flush's page copy, the word, then the holder's downgrade.
        assert brk["cost"] == proto.config.page_copy_cost() + us \
            + proto.costs.mprotect

    def test_locked_word_is_priced_at_the_service_start(self):
        proto, brk = self.run_break(lock_held=(5000.0, 400.0),
                                    lock_free=False)
        us = the_break_word(proto, brk)
        assert brk["server"].clock < 5000.0 < brk["at"] < 5400.0
        # Queued behind the held lock, then the 16 us locked update;
        # priced at the server's clock (before 5000) it would cost 16 us.
        assert us == 5400.0 + proto.costs.dir_update_locked - brk["at"]
        assert us == pytest.approx(183.094999, abs=1e-9)
        assert brk["cost"] == proto.config.page_copy_cost() + us \
            + proto.costs.mprotect


class TestHomeNodeOptimization:
    def test_home_node_procs_share_master_frame(self):
        cluster, proto = make(nodes=2, ppn=2, protocol="1LD", home_opt=True)
        p0, p1 = cluster.processors[0], cluster.processors[1]
        page = 0  # home = proc 0, node 0

        def w0():
            proto.store(p0, page, 0, 3.0)
            yield Compute(1.0)

        def w1():
            yield Compute(10.0)
            # p1 is on the home node: reads the master directly, sees the
            # write through hardware coherence without any transfer.
            assert proto.load(p1, page, 0) == 3.0
            yield Compute(1.0)

        run_scripts(cluster, [w0, w1])
        assert proto.owners[0].frames[page] is proto.master(page)
        assert proto.owners[1].frames[page] is proto.master(page)
        transfers = sum(p.stats.counters["page_transfers"]
                        for p in cluster.processors)
        assert transfers == 0

    def test_home_opt_skips_twins(self):
        cluster, proto = make(nodes=2, ppn=2, protocol="1LD", home_opt=True)
        p0 = cluster.processors[0]

        def w0():
            proto.store(p0, 0, 0, 1.0)
            yield Compute(1.0)
            proto.release_sync(p0)
            yield Compute(1.0)

        run_scripts(cluster, [w0])
        assert p0.stats.counters["twin_creations"] == 0

    def test_off_node_procs_still_fetch(self):
        cluster, proto = make(nodes=2, ppn=2, protocol="1LD", home_opt=True)
        p0 = cluster.processors[0]
        p2 = cluster.processors[2]  # node 1

        def w0():
            proto.store(p0, 0, 0, 7.0)
            yield Compute(5.0)
            proto.release_sync(p0)
            yield Compute(1.0)

        def w2():
            yield Compute(100.0)
            assert proto.load(p2, 0, 0) == 7.0
            yield Compute(1.0)

        run_scripts(cluster, [w0, None, w2])
        assert p2.stats.counters["page_transfers"] == 1

    @pytest.mark.xfail(strict=True, raises=ProtocolError, reason=(
        "OneLevelProtocol._after_relocation drops a master-mapping "
        "processor's frame and row when the home leaves its node, but "
        "not its directory word (perm-has-frame fails)"))
    def test_relocation_off_the_home_node_clears_directory_words(self):
        cluster, proto = make(nodes=2, ppn=2, protocol="1LD", home_opt=True,
                              superpage_pages=1)
        p1, p2 = cluster.processors[1], cluster.processors[2]
        page = 0  # home = proc 0, node 0
        assert proto.directory.home(page) == 0

        def w1():
            proto.load(p1, page, 0)  # maps the master: same node as home
            yield Compute(1.0)
            proto.end_initialization()

        def w2():
            yield Compute(1000.0)  # after w1's end of initialization
            proto.load(p2, page, 0)  # first touch moves the home to node 1
            yield Compute(1.0)

        run_scripts(cluster, [None, w1, w2])
        assert proto.directory.home(page) == 2
        invariants.check(proto, quiescent=True)
