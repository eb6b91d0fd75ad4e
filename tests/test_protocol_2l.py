"""Scenario tests for the Cashmere-2L protocol (and 2LS) using scripted
workers on small clusters.

These exercise the protocol mechanisms directly: twins, incoming and
outgoing diffs, exclusive mode, no-longer-exclusive lists, directory
maintenance, timestamps, and first-touch home relocation.
"""

import pytest

from repro.cluster.machine import Cluster
from repro.config import MachineConfig
from repro.protocol import make_protocol
from repro.protocol.invariants import check
from repro.sim.process import Compute, ProcessGroup
from repro.sync import Barrier


def make(nodes=2, ppn=2, protocol="2L", pages=8, lock_free=True, **kw):
    kw.setdefault("superpage_pages", 2)
    cfg = MachineConfig(nodes=nodes, procs_per_node=ppn, page_bytes=512,
                        shared_bytes=512 * pages, **kw)
    cluster = Cluster(cfg)
    proto = make_protocol(protocol, cluster, lock_free=lock_free)
    return cluster, proto


def watch_breaks(proto):
    """Record every exclusive-break handler the request engine serves:
    the server, the service start ``at``, the handler's cost, each
    ``_dir_word`` call made inside it as ``(counters, clock, us)``, and
    the ``directory_updates`` count and ``directory`` traffic bytes the
    handler added to the server and the Memory Channel."""
    breaks, words = [], []
    fetch_page, dir_word = proto.requests.fetch_page, proto._dir_word

    def watched_dir_word(counters, clock):
        us = dir_word(counters, clock)
        words.append((counters, clock, us))
        return us

    def watched_fetch_page(requester, node, *args, handler=None, **kw):
        if handler is not None:
            inner = handler

            def handler(server, at):
                counters, traffic = server.stats.counters, proto.mc.traffic
                count, nbytes = (counters["directory_updates"],
                                 traffic.get("directory", 0))
                first = len(words)
                payload, cost, reply = inner(server, at)
                breaks.append(dict(
                    server=server, at=at, cost=cost, words=words[first:],
                    count=counters["directory_updates"] - count,
                    bytes=traffic.get("directory", 0) - nbytes))
                return payload, cost, reply
        return fetch_page(requester, node, *args, handler=handler, **kw)

    proto._dir_word = watched_dir_word
    proto.requests.fetch_page = watched_fetch_page
    return breaks


def the_break_word(proto, brk):
    """The one directory word an exclusive break booked, checked to be
    booked on the server at the service start; returns its cost."""
    [(counters, clock, us)] = brk["words"]
    assert counters is brk["server"].stats.counters
    assert clock == brk["at"]
    assert brk["count"] == 1
    assert brk["bytes"] == proto.directory.broadcast_bytes() \
        == 4 * proto.num_owners
    return us


def run_scripts(cluster, scripts):
    """Run one generator per processor (padding with idlers)."""
    group = ProcessGroup(cluster.sim)

    def idle():
        yield Compute(0.1)

    for i, proc in enumerate(cluster.processors):
        gen = scripts[i]() if i < len(scripts) and scripts[i] else idle()
        group.spawn(proc, gen, f"p{i}")
    group.run()


class TestExclusiveMode:
    def test_sole_writer_enters_exclusive(self):
        cluster, proto = make()
        p0 = cluster.processors[0]

        def w0():
            proto.store(p0, 4, 0, 1.0)
            yield Compute(1.0)

        run_scripts(cluster, [w0])
        entry = proto.directory.entries[4]
        assert entry.excl == (0, 0)
        assert p0.stats.counters["excl_transitions"] == 1
        # Exclusive pages have no twin and are not dirty.
        assert 4 not in proto.owners[0].twins
        assert 4 not in proto.proc_state(p0).dirty

    def test_remote_read_breaks_exclusive(self):
        cluster, proto = make()
        p0 = cluster.processors[0]
        p2 = cluster.processors[2]  # node 1

        def w0():
            proto.store(p0, 4, 3, 7.5)
            yield Compute(50.0)

        def w2():
            yield Compute(100.0)
            assert proto.load(p2, 4, 3) == 7.5

        run_scripts(cluster, [w0, None, w2])
        entry = proto.directory.entries[4]
        assert entry.excl is None
        # The flush reached the home master.
        assert proto.master(4)[3] == 7.5

    def test_break_gives_nle_entries_to_other_local_writers(self):
        cluster, proto = make()
        p0, p1 = cluster.processors[0], cluster.processors[1]
        p2 = cluster.processors[2]
        page = 2  # superpage 1 -> home owner 1: NOT node 0, so twins apply
        assert proto.directory.home(page) != 0

        def w0():
            proto.store(p0, page, 0, 1.0)  # exclusive
            yield Compute(10.0)

        def w1():
            yield Compute(5.0)
            proto.store(p1, page, 1, 2.0)  # joins while exclusive
            yield Compute(100.0)

        def w2():
            yield Compute(50.0)
            proto.load(p2, page, 0)  # break from node 1
            yield Compute(1.0)

        run_scripts(cluster, [w0, w1, w2])
        st1 = proto.proc_state(p1)
        # p1 (still holding a write mapping) got a no-longer-exclusive entry
        # and the node now has a twin.
        assert page in st1.nle or page in st1.dirty
        assert page in proto.owners[0].twins

    def test_exclusive_page_needs_no_flush(self):
        cluster, proto = make()
        p0 = cluster.processors[0]

        def w0():
            proto.store(p0, 4, 0, 1.0)
            proto.release_sync(p0)
            yield Compute(1.0)

        run_scripts(cluster, [w0])
        assert p0.stats.counters["write_notices"] == 0


class TestBreakBooksOneDirectoryWord:
    """The break clears the holder's word through
    ``BaseProtocol._dir_word`` on the serving processor, at the service
    start: one count, one broadcast of a word per replica, one cost."""

    def run_break(self, lock_held=None, **kw):
        """Break p0's exclusive hold from node 1; ``lock_held`` books
        the ablation's global directory lock over ``(start, duration)``
        first. Returns the protocol and the one break."""
        cluster, proto = make(**kw)
        if lock_held is not None:
            proto.directory.lock_model.lock.acquire(*lock_held)
        p0, p2 = cluster.processors[0], cluster.processors[2]
        page = 4  # home node 0: the holder's own node, so no page copy
        assert proto.directory.home(page) == 0

        def w0():
            proto.store(p0, page, 3, 7.5)  # exclusive
            yield Compute(2000.0)  # the server's clock runs far ahead

        def w2():
            yield Compute(100.0)
            assert proto.load(p2, page, 3) == 7.5  # breaks p0's hold
            yield Compute(1.0)

        breaks = watch_breaks(proto)
        run_scripts(cluster, [w0, None, w2])
        [brk] = breaks
        assert brk["server"] is p0
        return proto, brk

    def test_lock_free_word_costs_dir_update(self):
        proto, brk = self.run_break()
        us = the_break_word(proto, brk)
        assert us == proto.costs.dir_update
        # The word, then the holder's own downgrade (no twin: no other
        # local writer).
        assert brk["cost"] == 0.0 + us + proto.costs.mprotect

    def test_locked_word_is_priced_at_the_service_start(self):
        # Section 3.3.5 ablation: hold the global directory lock over the
        # break's service start, long before the server's own clock.
        proto, brk = self.run_break(lock_held=(350.0, 40.0),
                                    lock_free=False)
        us = the_break_word(proto, brk)
        assert 350.0 < brk["at"] < 390.0 < brk["server"].clock
        # Queued behind the held lock, then the 16 us locked update;
        # priced at the server's clock (past 390) it would cost 16 us.
        assert us == 390.0 + proto.costs.dir_update_locked - brk["at"]
        assert us == pytest.approx(39.719999, abs=1e-9)
        assert brk["cost"] == 0.0 + us + proto.costs.mprotect


class TestTwoWayDiffing:
    def test_concurrent_writers_merge_through_home(self):
        # Nodes 0 and 1 write disjoint words of one page; both releases
        # must merge at the home without losing either.
        cluster, proto = make(nodes=3, ppn=1)
        p0, p1 = cluster.processors[0], cluster.processors[1]
        page = proto.config.superpage_pages * 2  # home = node 2 (neither)
        assert proto.directory.home(page) == 2

        def w0():
            proto.store(p0, page, 0, 10.0)
            yield Compute(5.0)
            proto.release_sync(p0)
            yield Compute(1.0)

        def w1():
            proto.store(p1, page, 1, 20.0)
            yield Compute(8.0)
            proto.release_sync(p1)
            yield Compute(1.0)

        run_scripts(cluster, [w0, w1])
        master = proto.master(page)
        assert master[0] == 10.0
        assert master[1] == 20.0

    def test_incoming_diff_preserves_local_writes(self):
        cluster, proto = make(nodes=3, ppn=1)
        p0, p1 = cluster.processors[0], cluster.processors[1]
        page = proto.config.superpage_pages * 2

        def w1():
            proto.load(p1, page, 0)  # become a sharer (prevents exclusive)
            yield Compute(30.0)
            proto.store(p1, page, 5, 55.0)
            yield Compute(50.0)
            proto.release_sync(p1)
            yield Compute(1.0)

        def w0():
            yield Compute(20.0)
            proto.store(p0, page, 3, 33.0)  # local dirty, twin exists
            yield Compute(300.0)
            proto.acquire_sync(p0)          # sees the notice, invalidates
            # refault: incoming diff merges word 5, preserves word 3
            assert proto.load(p0, page, 5) == 55.0
            assert proto.load(p0, page, 3) == 33.0
            yield Compute(1.0)

        run_scripts(cluster, [w0, w1])
        assert p0.stats.counters["incoming_diffs"] >= 1

    def test_flush_update_counted_with_concurrent_local_writers(self):
        cluster, proto = make(nodes=2, ppn=2)
        p0, p1 = cluster.processors[0], cluster.processors[1]
        p2 = cluster.processors[2]
        page = proto.config.superpage_pages  # home = node 1
        assert proto.directory.home(page) == 1

        def w2():
            proto.load(p2, page, 0)  # home-node sharer prevents exclusive
            yield Compute(1.0)

        def w0():
            yield Compute(5.0)
            proto.store(p0, page, 0, 1.0)
            yield Compute(10.0)
            proto.release_sync(p0)  # p1 still holds a write mapping
            yield Compute(1.0)

        def w1():
            yield Compute(7.0)
            proto.store(p1, page, 1, 2.0)
            yield Compute(200.0)
            proto.release_sync(p1)
            yield Compute(1.0)

        run_scripts(cluster, [w0, w1, w2])
        total_fu = sum(p.stats.counters["flush_updates"]
                       for p in cluster.processors)
        assert total_fu >= 1
        assert proto.master(page)[0] == 1.0
        assert proto.master(page)[1] == 2.0


class TestShootdownVariant:
    def test_2ls_shoots_down_on_release_with_writers(self):
        cluster, proto = make(nodes=2, ppn=2, protocol="2LS")
        p0, p1 = cluster.processors[0], cluster.processors[1]
        p2 = cluster.processors[2]
        page = proto.config.superpage_pages

        def w2():
            proto.load(p2, page, 0)  # home-node sharer prevents exclusive
            yield Compute(1.0)

        def w0():
            yield Compute(5.0)
            proto.store(p0, page, 0, 1.0)
            yield Compute(10.0)
            proto.release_sync(p0)
            yield Compute(1.0)

        def w1():
            yield Compute(7.0)
            proto.store(p1, page, 1, 2.0)
            yield Compute(200.0)
            proto.release_sync(p1)
            yield Compute(1.0)

        run_scripts(cluster, [w0, w1, w2])
        shoots = sum(p.stats.counters["shootdowns"]
                     for p in cluster.processors)
        assert shoots >= 1
        # The shootdown downgraded p1's mapping; data still merged.
        assert proto.master(page)[0] == 1.0
        assert proto.master(page)[1] == 2.0
        # 2LS never uses flush-updates or incoming diffs.
        assert sum(p.stats.counters["flush_updates"]
                   for p in cluster.processors) == 0
        assert sum(p.stats.counters["incoming_diffs"]
                   for p in cluster.processors) == 0


class TestTimestampCoalescing:
    def test_second_local_fault_skips_fetch(self):
        # One fetch serves both processors of a node (the key two-level
        # optimization).
        cluster, proto = make(nodes=2, ppn=2)
        p0, p1 = cluster.processors[0], cluster.processors[1]
        page = proto.config.superpage_pages  # home = node 1

        def w0():
            proto.load(p0, page, 0)
            yield Compute(1.0)

        def w1():
            yield Compute(500.0)  # after p0's fetch completes
            proto.load(p1, page, 0)
            yield Compute(1.0)

        run_scripts(cluster, [w0, w1])
        transfers = sum(p.stats.counters["page_transfers"]
                        for p in cluster.processors)
        assert transfers == 1
        faults = sum(p.stats.counters["read_faults"]
                     for p in cluster.processors)
        assert faults == 2


class TestSecondLevelNotices:
    def test_redundant_notices_queue_a_page_once(self):
        # Two remote nodes' notices for one page reach node 0 at one
        # acquire: each local processor that maps the page queues it
        # once, and the acquire pays one ll/sc lock per newly queued
        # page plus one for draining its own (empty) list.
        cluster, proto = make(nodes=3, ppn=3)
        p0, p1, p2 = cluster.processors[:3]
        page = proto.config.superpage_pages  # home = node 1

        def reader(proc):
            def script():
                proto.load(proc, page, 0)
                yield Compute(1.0)
            return script

        run_scripts(cluster, [None, reader(p1), reader(p2)])
        assert proto.owners[0].rows[page] == [0, 1, 1]
        llsc = proto.costs.llsc_lock
        assert llsc > 0

        def protocol_time_after(locks):
            """Run one acquire on p0; return its protocol bucket, and the
            old bucket plus ``locks`` ll/sc charges, added one by one."""
            expected = p0.stats.buckets["protocol"]
            proto.acquire_sync(p0)
            for _ in range(locks):
                expected += llsc
            return p0.stats.buckets["protocol"], expected

        proto.owners[0].board.post(1, page, 0.0)
        proto.owners[0].board.post(2, page, 0.0)
        # p1 and p2 each queue the page once; p0 drains its empty list.
        got, expected = protocol_time_after(3)
        assert got == expected
        assert list(proto.proc_state(p1).notices) == [page]
        assert list(proto.proc_state(p2).notices) == [page]
        assert not proto.proc_state(p0).notices
        assert proto.owners[0].meta[page].wn_ts \
            == proto.proc_state(p0).acquire_ts

        # A later notice finds the page still queued: only the drain.
        proto.owners[0].board.post(1, page, 0.0)
        got, expected = protocol_time_after(1)
        assert got == expected
        assert list(proto.proc_state(p1).notices) == [page]
        assert list(proto.proc_state(p2).notices) == [page]


class TestHomeRelocation:
    def test_first_touch_moves_home(self):
        cluster, proto = make(nodes=2, ppn=1)
        p1 = cluster.processors[1]
        page = 0
        assert proto.directory.home(page) == 0

        def w1():
            yield Compute(1.0)
            proto.store(p1, page, 0, 9.0)
            yield Compute(1.0)

        proto.end_initialization()
        run_scripts(cluster, [None, w1])
        assert proto.directory.home(page) == 1
        assert proto._home_settled[page]
        assert proto.master(page)[0] == 9.0
        assert p1.stats.counters["home_relocations"] == 1

    def test_whole_superpage_moves_together(self):
        cluster, proto = make(nodes=2, ppn=1)
        p1 = cluster.processors[1]
        sp = proto.config.superpage_pages

        def w1():
            yield Compute(1.0)
            proto.store(p1, 0, 0, 1.0)
            yield Compute(1.0)

        proto.end_initialization()
        run_scripts(cluster, [None, w1])
        for page in range(min(sp, proto.config.num_pages)):
            assert proto.directory.home(page) == 1

    def test_old_home_writer_gets_twin_on_relocation(self):
        # Node 0 (the default home) holds the page exclusive with a second
        # local writer; a first touch from node 1 breaks the holding and
        # moves the home, and node 0's remaining writer must now twin its
        # frame so its next flush diffs against the relocated master.
        for protocol in ("2L", "2LS"):
            cluster, proto = make(nodes=2, ppn=2, protocol=protocol)
            p0, p1, p2 = cluster.processors[:3]
            page = 0

            def w0():
                proto.store(p0, page, 0, 1.0)
                yield Compute(1.0)

            def w1():
                yield Compute(2.0)
                proto.store(p1, page, 1, 2.0)
                yield Compute(1.0)

            def w2():
                yield Compute(5.0)
                proto.end_initialization()
                proto.load(p2, page, 0)
                yield Compute(1.0)

            run_scripts(cluster, [w0, w1, w2])
            assert proto.directory.home(page) == 1
            assert proto.owners[0].writers(page)
            assert list(proto.owners[0].twins[page][:2]) == [1.0, 2.0]
            check(proto)

    def test_no_relocation_before_end_init(self):
        cluster, proto = make(nodes=2, ppn=1)
        p1 = cluster.processors[1]

        def w1():
            proto.store(p1, 0, 0, 1.0)
            yield Compute(1.0)

        run_scripts(cluster, [None, w1])
        assert proto.directory.home(0) == 0


class TestInvariants:
    def test_invariants_hold_after_mixed_workload(self):
        cluster, proto = make(nodes=2, ppn=2)
        barrier = Barrier(cluster, proto)

        def worker(proc, seed):
            def gen():
                for it in range(4):
                    for k in range(6):
                        page = (seed * 3 + k) % proto.config.num_pages
                        if (seed + k + it) % 2:
                            proto.store(proc, page, (seed + k) % 8,
                                        float(seed * 100 + it))
                        else:
                            proto.load(proc, page, (seed + k) % 8)
                        yield Compute(3.0)
                    yield from barrier.wait(proc)
            return gen

        group = ProcessGroup(cluster.sim)
        for i, proc in enumerate(cluster.processors):
            group.spawn(proc, worker(proc, i)(), f"p{i}")
        group.run()
        check(proto, quiescent=True)
