"""Deterministic regressions for protocol and checker bugs found by the
property-based tests (pinned so they stay covered even without the
hypothesis example database)."""

import numpy as np
import pytest

from repro.check import attach_checker
from repro.cluster.machine import Cluster
from repro.config import MachineConfig
from repro.protocol import make_protocol
from repro.sim.process import Compute, ProcessGroup
from repro.sync import Barrier, MCLock


@pytest.mark.parametrize("protocol", ["2L", "2LS", "1LD", "1L"])
def test_stale_write_mapping_does_not_swallow_barrier_flush(protocol):
    """Regression: an exclusive-mode-era write mapping belonging to a
    processor that has ALREADY arrived at the barrier must not make a
    later-arriving writer defer (and thereby lose) its flush.

    Shrunk from a hypothesis counterexample: p2 holds page 3 exclusively;
    p3 writes under that exclusivity (keeping a write mapping with no
    dirty entry); p0 on another node breaks the exclusivity mid-round;
    p3 has already arrived at the final barrier, so p2 — arriving last —
    must flush its own post-break write itself.
    """
    plan = [
        ([(1, [144, 145]), (3, [176, 177]), (2, [208]),
          (3, [240, 241])], []),
        ([(0, [128]), (2, [160, 161]), (0, [192]), (2, [240])], []),
    ]
    final = _run_rounds(plan, protocol)
    expected = _emulate(plan)
    mismatch = np.nonzero(final != expected)[0]
    assert len(mismatch) == 0, (
        f"{protocol}: words {mismatch} = {final[mismatch]}, "
        f"want {expected[mismatch]}")


def test_lock_release_not_visible_to_temporally_earlier_contender():
    """Regression: a processor whose simulated clock runs far ahead (long
    fetch waits) releases the lock early in *event* order; a waiter whose
    clock is earlier must not observe that release before its visibility
    time, or it reads pre-critical-section data (lost update)."""
    cfg = MachineConfig(nodes=2, procs_per_node=2, page_bytes=512,
                        shared_bytes=512 * 2, superpage_pages=1)
    cluster = Cluster(cfg)
    proto = make_protocol("2L", cluster)
    lock = MCLock(cluster, proto, 0)
    barrier = Barrier(cluster, proto)
    proto.end_initialization()

    def worker(proc, active):
        def gen():
            if active:
                for _ in range(3):
                    yield from lock.acquire(proc)
                    value = proto.load(proc, 0, 0)
                    yield Compute(2.0)
                    proto.store(proc, 0, 0, value + 1.0)
                    lock.release(proc)
                    yield Compute(1.0)
            yield from barrier.wait(proc)
        return gen()

    group = ProcessGroup(cluster.sim)
    for i, proc in enumerate(cluster.processors):
        group.spawn(proc, worker(proc, i in (1, 3)), f"p{i}")
    group.run()

    entry = proto.directory.entry(0)
    holder = entry.exclusive_holder()
    frame = proto.frames.frame(holder[0], 0) if holder else proto.master(0)
    assert frame[0] == 6.0  # 2 procs x 3 increments, none lost


def test_first_epoch_conflicting_writes_are_flagged():
    """Regression (race detector): with all vector clocks initialized to
    zero, an access in a processor's *first* epoch carried clock 0 and
    ``0 <= vc[other] == 0`` made it look ordered before every other
    processor — conflicting pre-first-sync writes were silently missed.
    Each processor's own component must start at 1."""
    cfg = MachineConfig(nodes=2, procs_per_node=2, page_bytes=512,
                        shared_bytes=512 * 2, superpage_pages=1)
    cluster = Cluster(cfg)
    proto = make_protocol("2L", cluster)
    checker = attach_checker(cluster, proto)
    barrier = Barrier(cluster, proto)

    def worker(proc):
        def gen():
            # First epoch: no sync event has happened yet.
            proto.store(proc, 0, 2, float(proc.global_id))
            yield Compute(1.0)
            yield from barrier.wait(proc)
        return gen()

    group = ProcessGroup(cluster.sim)
    for proc in cluster.processors:
        group.spawn(proc, worker(proc), f"p{proc.global_id}")
    group.run()
    assert checker.race_count == 3  # p1..p3 each race the prior write
    assert all(r.kind == "write-write" for r in checker.races)


def test_consecutive_barrier_episodes_keep_clocks_apart():
    """Regression (race detector): barrier episode clocks are keyed by
    episode number and pruned once everyone departs; a same-word write in
    round r+1 after a write in round r is ordered by the intervening
    barrier and must NOT be flagged, across several episodes."""
    plan = [([(0, [10])], []), ([(1, [10])], []),
            ([(2, [10])], []), ([(3, [10])], [])]
    checker = _run_checked_rounds(plan, "2L")
    assert checker.races == []


@pytest.mark.parametrize("protocol", ["2L", "2LS"])
def test_oracle_reads_exclusive_holder_frame_not_master(protocol):
    """Regression (coherence oracle): a page whose sole writer stays in
    exclusive mode to the end of the run has its current data only in
    the holder's frame — the master is legitimately stale. The oracle's
    authoritative-content sweep must consult the holder's frame, or a
    healthy run raises a false CoherenceViolation."""
    plan = [([(0, [64, 65, 66])], [])]  # page 1: single writer, one round
    checker = _run_checked_rounds(plan, protocol)
    checker.finalize()  # end-of-run sweep must pass
    assert checker.races == []
    assert checker.oracle.global_checks == 2  # 1 barrier + end of run


def _run_checked_rounds(plan, protocol):
    """_run_rounds under the checker; returns the CheckContext."""
    cfg = MachineConfig(nodes=2, procs_per_node=2, page_bytes=512,
                        shared_bytes=512 * 4, superpage_pages=2)
    cluster = Cluster(cfg)
    proto = make_protocol(protocol, cluster)
    checker = attach_checker(cluster, proto)
    barrier = Barrier(cluster, proto)
    proto.end_initialization()

    def worker(proc):
        rank = proc.global_id

        def gen():
            for rnd, (writes, _) in enumerate(plan):
                for owner, words in writes:
                    if owner != rank:
                        continue
                    for w in words:
                        proto.store(proc, w // 64, w % 64,
                                    float(rnd * 1000 + w + 1))
                        yield Compute(1.0)
                yield from barrier.wait(proc)
        return gen()

    group = ProcessGroup(cluster.sim)
    for proc in cluster.processors:
        group.spawn(proc, worker(proc), f"p{proc.global_id}")
    group.run()
    return checker


def _run_rounds(plan, protocol):
    """Barrier-synchronized rounds of disjoint writes (4 procs, 4 pages)."""
    cfg = MachineConfig(nodes=2, procs_per_node=2, page_bytes=512,
                        shared_bytes=512 * 4, superpage_pages=2)
    cluster = Cluster(cfg)
    proto = make_protocol(protocol, cluster)
    barrier = Barrier(cluster, proto)
    proto.end_initialization()

    def value(rnd, word):
        return float(rnd * 1000 + word + 1)

    def worker(proc):
        rank = proc.global_id

        def gen():
            for rnd, (writes, _) in enumerate(plan):
                for owner, words in writes:
                    if owner != rank:
                        continue
                    for w in words:
                        proto.store(proc, w // 64, w % 64, value(rnd, w))
                        yield Compute(1.0)
                yield from barrier.wait(proc)
        return gen()

    group = ProcessGroup(cluster.sim)
    for proc in cluster.processors:
        group.spawn(proc, worker(proc), f"p{proc.global_id}")
    group.run()
    proto.check_invariants()

    final = np.zeros(4 * 64)
    for page in range(4):
        entry = proto.directory.entry(page)
        holder = entry.exclusive_holder()
        frame = proto.frames.frame(holder[0], page) if holder \
            else proto.master(page)
        final[page * 64:(page + 1) * 64] = frame
    return final


def _emulate(plan):
    mem = np.zeros(4 * 64)
    for rnd, (writes, _) in enumerate(plan):
        for owner, words in writes:
            for w in words:
                mem[w] = float(rnd * 1000 + w + 1)
    return mem
