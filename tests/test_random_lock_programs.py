"""Property-based testing of lock-protected sharing.

Hypothesis generates random lock-protected counter programs: shared
counters live at random words (often sharing pages — false sharing is
the point), each protected by one of a few locks; every processor
performs a random sequence of lock/increment/unlock operations. Under
any protocol the final counter values must equal the total increment
counts — this exercises the migratory-page path, twins under false
sharing, flush-updates (2L), shootdowns (2LS), and write doubling (1L)
against ground truth.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.machine import Cluster
from repro.config import MachineConfig
from repro.protocol import make_protocol
from repro.protocol.invariants import authoritative, check
from repro.sim.process import Compute, ProcessGroup
from repro.sync import Barrier, MCLock

pytestmark = pytest.mark.heavy  # long hypothesis suite

N_PROCS = 4
N_LOCKS = 3
N_COUNTERS = 6
PAGES = 2  # counters deliberately crowd two pages


@st.composite
def lock_programs(draw):
    # counter -> protecting lock (a counter is always used with one lock).
    protection = draw(st.lists(st.integers(0, N_LOCKS - 1),
                               min_size=N_COUNTERS, max_size=N_COUNTERS))
    # counter -> word index (may collide across page boundaries but not
    # with each other).
    words = draw(st.lists(st.integers(0, PAGES * 64 - 1),
                          min_size=N_COUNTERS, max_size=N_COUNTERS,
                          unique=True))
    # per-processor operation list: (counter, repetitions)
    ops = [draw(st.lists(st.tuples(st.integers(0, N_COUNTERS - 1),
                                   st.integers(1, 3)),
                         max_size=6))
           for _ in range(N_PROCS)]
    return protection, words, ops


def run_lock_program(protection, words, ops, protocol):
    cfg = MachineConfig(nodes=2, procs_per_node=2, page_bytes=512,
                        shared_bytes=512 * PAGES, superpage_pages=1)
    cluster = Cluster(cfg)
    proto = make_protocol(protocol, cluster)
    locks = [MCLock(cluster, proto, i) for i in range(N_LOCKS)]
    barrier = Barrier(cluster, proto)
    proto.end_initialization()

    def worker(proc, my_ops):
        def gen():
            for counter, reps in my_ops:
                lock = locks[protection[counter]]
                word = words[counter]
                for _ in range(reps):
                    yield from lock.acquire(proc)
                    value = proto.load(proc, word // 64, word % 64)
                    yield Compute(2.0)
                    proto.store(proc, word // 64, word % 64, value + 1.0)
                    lock.release(proc)
                    yield Compute(1.0)
            yield from barrier.wait(proc)
        return gen()

    group = ProcessGroup(cluster.sim)
    for i, proc in enumerate(cluster.processors):
        group.spawn(proc, worker(proc, ops[i]), f"p{i}")
    group.run()
    check(proto, quiescent=True)
    return {counter: authoritative(proto, word // 64)[word % 64]
            for counter, word in enumerate(words)}


def expected_counts(ops):
    totals = Counter()
    for my_ops in ops:
        for counter, reps in my_ops:
            totals[counter] += reps
    return totals


@settings(max_examples=15, deadline=None)
@given(lock_programs())
@pytest.mark.parametrize("protocol", ["2L", "2LS", "1LD", "1L"])
def test_lock_protected_counters_are_exact(protocol, program):
    protection, words, ops = program
    final = run_lock_program(protection, words, ops, protocol)
    want = expected_counts(ops)
    for counter in range(N_COUNTERS):
        assert final[counter] == want.get(counter, 0), (
            f"{protocol}: counter {counter} at word {words[counter]} "
            f"= {final[counter]}, want {want.get(counter, 0)}")
