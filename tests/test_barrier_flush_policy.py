"""Tests for the two-level barrier's arrival-flush policy (Section 2.3).

"Each processor within the node, as it arrives, performs page flushes for
those (non-exclusive) pages for which it is the last arriving local
writer. Waiting until all local processors arrive before initiating any
flushes would result in unnecessary serialization. Initiating a flush of
a page for which there are local writers that have not yet arrived would
result in unnecessary network traffic."
"""

import pytest

from repro.cluster.machine import Cluster
from repro.config import MachineConfig
from repro.protocol import make_protocol
from repro.sim.process import Compute, ProcessGroup
from repro.sync import Barrier
from repro.trace import attach_tracer


def make(nodes=2, ppn=2):
    cfg = MachineConfig(nodes=nodes, procs_per_node=ppn, page_bytes=512,
                        shared_bytes=512 * 4, superpage_pages=2)
    cluster = Cluster(cfg)
    proto = make_protocol("2L", cluster)
    return cluster, proto


def run_scripts(cluster, scripts):
    group = ProcessGroup(cluster.sim)

    def idle():
        yield Compute(0.1)

    for i, proc in enumerate(cluster.processors):
        gen = scripts[i]() if i < len(scripts) and scripts[i] else idle()
        group.spawn(proc, gen, f"p{i}")
    group.run()


class TestLastLocalWriterFlush:
    def test_single_flush_covers_both_writers(self):
        # Both processors of node 0 write page 2 (home: node 1) and meet
        # at a barrier. Exactly one flush should carry both writers' data.
        cluster, proto = make()
        barrier = Barrier(cluster, proto)
        p0, p1 = cluster.processors[0], cluster.processors[1]
        p2 = cluster.processors[2]
        page = 2

        def reader():  # makes node 1 a sharer so node 0 can't go exclusive
            def gen():
                proto.load(p2, page, 0)
                yield Compute(1.0)
                yield from barrier.wait(p2)
            return gen

        def writer(proc, word, value, delay):
            def gen():
                yield Compute(delay)
                proto.store(proc, page, word, value)
                yield Compute(10.0)
                yield from barrier.wait(proc)
            return gen

        def idle_barrier(proc):
            def gen():
                yield from barrier.wait(proc)
            return gen

        scripts = [writer(p0, 0, 5.0, 1500.0), writer(p1, 1, 6.0, 1600.0),
                   reader(), idle_barrier(cluster.processors[3])]
        run_scripts(cluster, scripts)

        master = proto.master(page)
        assert master[0] == 5.0
        assert master[1] == 6.0
        # Early arriver deferred: no flush-update was needed (the single
        # last-writer flush covered everything, so the twin was dropped).
        assert page not in proto.owners[0].twins

    def test_early_arriver_defers_to_later_writer(self):
        # The first arriving writer must NOT flush while a local co-writer
        # is still computing; the co-writer's later flush carries both.
        cluster, proto = make()
        barrier = Barrier(cluster, proto)
        p0, p1 = cluster.processors[0], cluster.processors[1]
        p2 = cluster.processors[2]
        page = 2
        # Every page flush emits one ``page_flush`` span on the flushing
        # processor's track (traced runs go through the same body).
        tracer = attach_tracer(cluster, proto)

        def gen0():
            proto.store(p0, page, 0, 1.0)
            yield Compute(1.0)       # p0 arrives early
            yield from barrier.wait(p0)

        def gen1():
            proto.store(p1, page, 1, 2.0)
            yield Compute(5000.0)    # p1 arrives late
            yield from barrier.wait(p1)

        def gen2():
            proto.load(p2, page, 0)
            yield Compute(1.0)
            yield from barrier.wait(p2)

        def gen3():
            yield from barrier.wait(cluster.processors[3])

        run_scripts(cluster, [gen0, gen1, gen2, gen3])

        page_flushes = [ev.proc for ev in tracer.by_kind("page_flush")
                        if ev.obj == page]
        # Only the last arriving writer (p1) flushed this page.
        assert page_flushes.count(0) == 0
        assert page_flushes.count(1) == 1

    def test_exclusive_pages_not_flushed_at_barrier(self):
        cluster, proto = make()
        barrier = Barrier(cluster, proto)
        p0 = cluster.processors[0]
        page = 0  # home node 0; no other sharers -> exclusive

        def gen0():
            proto.store(p0, page, 0, 9.0)
            yield from barrier.wait(p0)

        def idle_barrier(proc):
            def gen():
                yield from barrier.wait(proc)
            return gen

        scripts = [gen0] + [idle_barrier(p) for p in
                            cluster.processors[1:]]
        run_scripts(cluster, scripts)
        assert p0.stats.counters["write_notices"] == 0
        assert proto.directory.entry(page).exclusive_holder() == (0, 0)


class TestBarrierConsistency:
    @pytest.mark.parametrize("protocol", ["2L", "2LS", "1LD", "1L"])
    def test_writes_before_barrier_visible_after(self, protocol):
        cfg = MachineConfig(nodes=2, procs_per_node=2, page_bytes=512,
                            shared_bytes=512 * 4, superpage_pages=2)
        cluster = Cluster(cfg)
        proto = make_protocol(protocol, cluster)
        barrier = Barrier(cluster, proto)
        observed = {}

        def writer(proc, page, word, value):
            def gen():
                proto.store(proc, page, word, float(value))
                yield Compute(1.0)
                yield from barrier.wait(proc)
                yield from barrier.wait(proc)
            return gen

        def reader(proc):
            def gen():
                yield from barrier.wait(proc)
                vals = [proto.load(proc, pg, w)
                        for pg, w in [(0, 0), (1, 1), (2, 2)]]
                observed[proc.global_id] = vals
                yield Compute(1.0)
                yield from barrier.wait(proc)
            return gen

        procs = cluster.processors
        scripts = [writer(procs[0], 0, 0, 10), writer(procs[1], 1, 1, 11),
                   writer(procs[2], 2, 2, 12), reader(procs[3])]
        group = ProcessGroup(cluster.sim)
        for i, proc in enumerate(procs):
            group.spawn(proc, scripts[i](), f"p{i}")
        group.run()
        assert observed[3] == [10.0, 11.0, 12.0]
