"""Tests for Memory Channel locks, barriers, and flags.

These run against a real cluster + protocol instance with scripted
workers, checking mutual exclusion, barrier semantics, and the
release/acquire consistency hooks.
"""

from dataclasses import replace

import pytest

from repro.cluster.machine import Cluster
from repro.config import CostModel, MachineConfig
from repro.errors import SimulationError
from repro.protocol import make_protocol
from repro.sim.engine import Condition
from repro.sim.process import Compute, ProcessGroup, Sleep, Wait
from repro.sync import Barrier, FlagSet, MCLock
from repro.trace import attach_tracer


def make_cluster(nodes=2, ppn=2, protocol="2L"):
    cfg = MachineConfig(nodes=nodes, procs_per_node=ppn, page_bytes=512,
                        shared_bytes=512 * 8)
    cluster = Cluster(cfg)
    proto = make_protocol(protocol, cluster)
    return cluster, proto


def run_workers(cluster, gen_factory):
    group = ProcessGroup(cluster.sim)
    for proc in cluster.processors:
        group.spawn(proc, gen_factory(proc), f"p{proc.global_id}")
    group.run()


class TestMCLock:
    @pytest.mark.parametrize("protocol", ["2L", "1LD"])
    def test_mutual_exclusion(self, protocol):
        cluster, proto = make_cluster(2, 2, protocol)
        lock = MCLock(cluster, proto, 0)
        state = {"inside": 0, "max_inside": 0, "entries": 0}

        def worker(proc):
            for _ in range(5):
                yield from lock.acquire(proc)
                state["inside"] += 1
                state["entries"] += 1
                state["max_inside"] = max(state["max_inside"],
                                          state["inside"])
                yield Compute(10.0)
                state["inside"] -= 1
                lock.release(proc)
                yield Compute(5.0)

        run_workers(cluster, worker)
        assert state["entries"] == 5 * cluster.num_procs
        assert state["max_inside"] == 1

    def test_uncontended_cost_near_paper(self):
        # Table 1: ~11 us for one-level locks, ~19 us for two-level.
        for protocol, expected in [("1LD", 11.0), ("2L", 19.0)]:
            cluster, proto = make_cluster(2, 2, protocol)
            lock = MCLock(cluster, proto, 0)
            proc = cluster.processors[0]

            def worker(p):
                yield from lock.acquire(p)
                lock.release(p)

            group = ProcessGroup(cluster.sim)
            group.spawn(proc, worker(proc), "p0")
            group.run()
            assert proc.clock == pytest.approx(expected, rel=0.5)

    def test_lock_acquire_counter(self):
        cluster, proto = make_cluster(1, 2)
        lock = MCLock(cluster, proto, 0)

        def worker(proc):
            yield from lock.acquire(proc)
            lock.release(proc)

        run_workers(cluster, worker)
        total = sum(p.stats.counters["lock_acquires"]
                    for p in cluster.processors)
        assert total == 2

    def test_release_without_hold_raises(self):
        cluster, proto = make_cluster(1, 1)
        lock = MCLock(cluster, proto, 0)
        with pytest.raises(SimulationError, match="does not hold"):
            lock.release(cluster.processors[0])


class TestBarrier:
    @pytest.mark.parametrize("protocol", ["2L", "2LS", "1LD", "1L"])
    def test_no_one_departs_early(self, protocol):
        cluster, proto = make_cluster(2, 2, protocol)
        barrier = Barrier(cluster, proto)
        arrived = []
        departed = []

        def worker(proc):
            yield Compute(10.0 * (proc.global_id + 1))
            arrived.append(proc.global_id)
            yield from barrier.wait(proc)
            departed.append((proc.global_id, len(arrived)))

        run_workers(cluster, worker)
        # Every departure saw all four arrivals.
        assert all(n == 4 for _, n in departed)

    def test_episode_counting(self):
        cluster, proto = make_cluster(2, 1)
        barrier = Barrier(cluster, proto)

        def worker(proc):
            for _ in range(3):
                yield Compute(1.0)
                yield from barrier.wait(proc)

        run_workers(cluster, worker)
        assert barrier.episodes == 3

    def test_reusable_across_episodes_with_skew(self):
        cluster, proto = make_cluster(2, 2)
        barrier = Barrier(cluster, proto)
        log = []

        def worker(proc):
            for i in range(4):
                yield Compute(float((proc.global_id * 7 + i * 3) % 11 + 1))
                yield from barrier.wait(proc)
                log.append((i, proc.global_id))

        run_workers(cluster, worker)
        # All rank-i entries appear before any rank-(i+1) entries.
        rounds = [i for i, _ in log]
        assert rounds == sorted(rounds)

    def test_departure_after_last_arrival_time(self):
        cluster, proto = make_cluster(2, 1)
        barrier = Barrier(cluster, proto)
        clocks = {}

        def worker(proc):
            yield Compute(100.0 if proc.global_id == 1 else 1.0)
            yield from barrier.wait(proc)
            clocks[proc.global_id] = proc.clock

        run_workers(cluster, worker)
        assert clocks[0] >= 100.0  # the early arriver waited


class TestFlagSet:
    def test_flag_ordering(self):
        cluster, proto = make_cluster(2, 1)
        flags = FlagSet(cluster, proto, "f", 4)
        log = []

        def worker(proc):
            if proc.global_id == 0:
                yield Compute(50.0)
                log.append("set")
                flags.set(proc, 2)
            else:
                yield from flags.wait(proc, 2)
                log.append("saw")

        run_workers(cluster, worker)
        assert log == ["set", "saw"]

    def test_wait_on_already_set_flag(self):
        cluster, proto = make_cluster(1, 2)
        flags = FlagSet(cluster, proto, "f", 1)
        order = []

        def worker(proc):
            if proc.global_id == 0:
                flags.set(proc, 0)
                order.append("set")
            else:
                yield Compute(100.0)
                yield from flags.wait(proc, 0)
                order.append("saw")
            yield Compute(1.0)

        run_workers(cluster, worker)
        assert order == ["set", "saw"]

    def test_flag_counts_as_lock_acquire(self):
        cluster, proto = make_cluster(2, 1)
        flags = FlagSet(cluster, proto, "f", 1)

        def worker(proc):
            if proc.global_id == 0:
                flags.set(proc, 0)
                yield Compute(1.0)
            else:
                yield from flags.wait(proc, 0)

        run_workers(cluster, worker)
        p1 = cluster.processors[1]
        assert p1.stats.counters["lock_acquires"] == 1
        assert p1.stats.counters["flag_acquires"] == 1

    def test_monotonic_values(self):
        cluster, proto = make_cluster(2, 1)
        flags = FlagSet(cluster, proto, "f", 1)
        seen = []

        def worker(proc):
            if proc.global_id == 0:
                for v in (1, 2, 3):
                    yield Compute(10.0)
                    flags.set(proc, 0, v)
            else:
                yield from flags.wait(proc, 0, 3)
                seen.append(flags.peek(proc, 0))

        run_workers(cluster, worker)
        assert seen == [3]


class TestEventDiscipline:
    """An event exists only if it can resume a process or wake a waiter
    (DESIGN.md §18). ``Simulator._seq`` counts every heap push, so these
    pin the events a synchronization episode costs: a ``post`` that
    quietly schedules fires nobody can hear shows up here."""

    @pytest.mark.parametrize("protocol", ["2L", "1LD"])
    def test_uncontended_lock_passage_costs_one_event(self, protocol):
        cluster, proto = make_cluster(2, 2, protocol)
        lock = MCLock(cluster, proto, 0)
        proc = cluster.processors[0]
        passages = 10

        def worker(p):
            for _ in range(passages):
                yield from lock.acquire(p)
                lock.release(p)
                yield Compute(20.0)  # outlast the release's visibility

        group = ProcessGroup(cluster.sim)
        group.spawn(proc, worker(proc), "p0")
        group.run()
        assert lock.contended_retries == 0
        # The process start, then per passage the loop-back wait's resume
        # and the Compute's: the two lock-word writes and the release
        # schedule nothing (one event each, before).
        assert cluster.sim._seq == 1 + 2 * passages
        assert lock.region.write_count == 2 * passages
        assert cluster.mc.traffic["sync"] == 4 * 2 * passages

    def test_contended_handoff_still_wakes_the_waiter(self):
        """The grant fire a lone release skips is scheduled by the first
        contender that has to wait the release out."""
        cluster, proto = make_cluster(2, 1, "2L")
        lock = MCLock(cluster, proto, 0)
        order = []

        def worker(proc):
            for _ in range(3):
                yield from lock.acquire(proc)
                order.append(proc.global_id)
                lock.release(proc)   # re-acquired before it is visible

        run_workers(cluster, worker)
        assert sorted(order) == [0, 0, 0, 1, 1, 1]
        assert lock.contended_retries > 0

    @pytest.mark.parametrize("protocol", ["2L", "1LD"])
    @pytest.mark.parametrize("topology", ["flat", "tree"])
    def test_barrier_episode_costs_one_event_plus_its_wakes(self, protocol,
                                                            topology):
        cfg = MachineConfig(nodes=2, procs_per_node=2, page_bytes=512,
                            shared_bytes=512 * 8, barrier=topology)
        cluster = Cluster(cfg)
        barrier = Barrier(cluster, make_protocol(protocol, cluster))
        episodes, procs = 7, cluster.num_procs

        def worker(proc):
            for _ in range(episodes):
                yield from barrier.wait(proc)

        run_workers(cluster, worker)
        assert barrier.episodes == episodes
        # Starts, then per episode one departure fire and one wake per
        # waiter; the arrival words themselves schedule nothing.
        assert cluster.sim._seq == procs + episodes * (1 + procs)

    def test_flag_waiter_parking_before_visibility_is_woken_at_it(self):
        """The lost-wakeup guard: flag regions stay waitable, and their
        fire is scheduled with or without waiters — one that parks
        *between* the post and its visibility time wakes at that time."""
        cluster, proto = make_cluster(2, 1)
        flags = FlagSet(cluster, proto, "f", 1)
        parked_at = []

        def worker(proc):
            if proc.global_id == 0:
                flags.set(proc, 0)       # posted at event time 0
                yield Compute(1.0)
            else:
                yield Compute(1.0)       # parks after the post...
                parked_at.append(proc.clock)
                yield from flags.wait(proc, 0)

        run_workers(cluster, worker)
        visible = flags.region.words[0].last_visible_at()
        (parked,) = parked_at
        assert parked < visible          # ...and before it is visible
        waiter = cluster.processors[1]
        assert waiter.stats.buckets["comm_wait"] == \
            pytest.approx(visible - parked)
        assert waiter.stats.counters["flag_acquires"] == 1


# ---------------------------------------------------------------------------
# Float-order guard for the lock path (cf. tests/test_protocol_fanout.py).
# ---------------------------------------------------------------------------

class _PerChargeLock(MCLock):
    """The lock path written out one ``Processor.charge`` per cost — what
    ``MCLock.acquire``/``release`` did before they booked their charges
    in locals. Same events, same bookkeeping; only the charging differs."""

    def acquire(self, proc):
        costs = self.cluster.config.costs
        t_request = proc.clock
        me = proc.global_id
        if self.two_level:
            proc.charge(costs.llsc_lock, "protocol")
            node_id = proc.node.id
            if node_id in self._node_flag and node_id not in self._node_cond:
                self._node_cond[node_id] = Condition(
                    self.cluster.sim,
                    name=f"lockflag[{self.lock_id}][{node_id}]")
            while node_id in self._node_flag:
                yield Wait(self._node_cond[node_id],
                           lambda: node_id not in self._node_flag,
                           bucket="comm_wait")
            self._node_flag[node_id] = me
            proc.charge(costs.two_level_lock_extra, "protocol")
        if (self._holder is not None or self._queue
                or proc.clock < self._free_visible_at):
            self.contended_retries += 1
            proc.charge(self._failed_attempt_cost(), "protocol")
            self._queue.append(me)
            if self._grant_owed and self._holder is None:
                self._grant_owed = False
                self._push_grant(self._free_visible_at)
            yield Wait(self._grant,
                       lambda: self._holder is None
                       and self._queue and self._queue[0] == me
                       and proc.clock >= self._free_visible_at,
                       bucket="comm_wait")
            self._queue.popleft()
        self._holder = me
        proc.charge(costs.mc_lock_overhead, "protocol")
        self.cluster.mc.write_word(self.region, self.protocol.owner_of(proc),
                                   1, proc.clock, category="sync")
        yield Sleep(costs.mc_latency, bucket="comm_wait")
        proc.charge(0.1 * len(self.region), "protocol")
        self._acquired_at = proc.clock
        trace = self.protocol.trace
        if trace is not None:
            trace.span("lock_wait", proc, t_request,
                       proc.clock - t_request, obj=f"lock {self.lock_id}")
        proc.stats.bump("lock_acquires")
        self.protocol.acquire_sync(proc)

    def release(self, proc):
        costs = self.cluster.config.costs
        self.protocol.release_sync(proc)
        proc.charge(costs.mc_lock_overhead, "protocol")
        self.cluster.mc.write_word(self.region, self.protocol.owner_of(proc),
                                   0, proc.clock, category="sync")
        trace = self.protocol.trace
        if trace is not None:
            trace.span("lock_hold", proc, self._acquired_at,
                       proc.clock - self._acquired_at,
                       obj=f"lock {self.lock_id}")
        self._holder = None
        visible = proc.clock + costs.mc_latency
        self._free_visible_at = visible
        self._grant_owed = not self._grant._waiters
        if not self._grant_owed:
            self._push_grant(visible)
        if self.two_level:
            node_id = proc.node.id
            del self._node_flag[node_id]
            proc.charge(costs.llsc_lock, "protocol")
            if node_id in self._node_cond:
                self._node_cond[node_id].fire(proc.clock)


#: Costs and starting values chosen (and checked below) so that the three
#: charges of an uncontended two-level acquire, added one at a time, give
#: a different double from any regrouping of them — a fused add in the
#: lock path cannot pass.
_ODD_COSTS = dict(llsc_lock=0.1, two_level_lock_extra=0.3,
                  mc_lock_overhead=1.1)
_START_CLOCK, _START_BUCKET = 123456.7, 98765.4321


def test_lock_guard_costs_separate_add_orders():
    a, b, c = _ODD_COSTS.values()
    for start in (_START_CLOCK, _START_BUCKET):
        one_at_a_time = start + a + b + c
        assert one_at_a_time != start + (a + b + c)
        assert one_at_a_time != start + (a + b) + c
        assert one_at_a_time != start + a + (b + c)
        assert start + c + a != start + (c + a)   # the release's pair


def _lock_world(lock_cls, protocol, contended, trace):
    cfg = MachineConfig(nodes=2, procs_per_node=2, page_bytes=512,
                        shared_bytes=512 * 8,
                        costs=replace(CostModel(), **_ODD_COSTS))
    cluster = Cluster(cfg)
    proto = make_protocol(protocol, cluster)
    tracer = attach_tracer(cluster, proto) if trace else None
    lock = lock_cls(cluster, proto, 0)
    workers = cluster.processors if contended else cluster.processors[:1]
    for i, proc in enumerate(workers):
        proc.clock = _START_CLOCK + 0.3 * i
        proc.stats.buckets["protocol"] = _START_BUCKET

    def worker(proc):
        for _ in range(4):
            yield from lock.acquire(proc)
            yield Compute(3.3 if contended else 0.1)
            lock.release(proc)
            yield Compute(0.9 if contended else 40.1)

    group = ProcessGroup(cluster.sim)
    for proc in workers:
        group.spawn(proc, worker(proc), f"p{proc.global_id}")
    group.run()
    state = [(p.clock, dict(p.stats.buckets), dict(p.stats.counters))
             for p in cluster.processors]
    return (state, lock.contended_retries, cluster.sim._seq,
            dict(cluster.mc.traffic), tracer.events if tracer else None)


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("contended", [False, True],
                         ids=["uncontended", "contended"])
@pytest.mark.parametrize("protocol", ["2L", "1LD"])
def test_lock_charges_in_locals_are_bit_identical(protocol, contended, trace):
    """Clock and every bucket bit for bit, the same events, and with a
    tracer attached the same spans in the same order."""
    got = _lock_world(MCLock, protocol, contended, trace)
    want = _lock_world(_PerChargeLock, protocol, contended, trace)
    assert got == want
    retries = got[1]
    assert (retries > 0) == contended
    if trace:
        kinds = [ev.kind for ev in got[4]]
        assert "lock_hold" in kinds and "mc_word" in kinds
