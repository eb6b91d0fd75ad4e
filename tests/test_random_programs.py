"""Property-based coherence testing with randomly generated data-race-free
programs.

Hypothesis generates small barrier-synchronized programs: each round,
every processor writes a disjoint slice of shared words (ownership is
re-drawn every round) and reads arbitrary words written in previous
rounds. Any such program is data-race-free, so under every protocol the
final memory must match a trivial sequential emulation — this hunts for
coherence bugs (lost writes, stale reads, diff/twin corruption) across
the whole protocol stack, including exclusive-mode transitions and
first-touch relocation.

The checked variant additionally draws the cluster shape (including
multi-node 4x2 and degenerate 2x1 / 1x4 layouts) and the protocol's
``lock_free`` flag, runs under the :mod:`repro.check` race detector +
coherence oracle, and asserts the detector reports zero races — the
programs are DRF by construction, so any report is a detector bug, and
any oracle exception is a protocol bug.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check import attach_checker
from repro.cluster.machine import Cluster
from repro.config import MachineConfig
from repro.protocol import make_protocol
from repro.protocol.invariants import authoritative, check
from repro.sim.process import Compute, ProcessGroup
from repro.sync import Barrier

pytestmark = pytest.mark.heavy  # long hypothesis suite

N_PROCS = 4
N_WORDS = 4 * 64  # 4 pages of 64 words

#: (nodes, procs_per_node) shapes for the checked variant, covering
#: multi-node, single-proc-per-node, and single-node-SMP layouts.
SHAPES = [(2, 2), (4, 2), (2, 1), (1, 4)]


@st.composite
def programs(draw):
    rounds = draw(st.integers(min_value=1, max_value=4))
    plan = []
    for r in range(rounds):
        # Disjoint write ownership for this round: a permutation split.
        perm = draw(st.permutations(range(16)))
        # Each of 16 word-groups (16 words each) is owned by one proc.
        owners = [perm[g] % N_PROCS for g in range(16)]
        writes = []
        for g, owner in enumerate(owners):
            count = draw(st.integers(min_value=0, max_value=4))
            offs = draw(st.lists(st.integers(0, 15), min_size=count,
                                 max_size=count, unique=True))
            writes.append((owner, [g * 16 + o for o in offs]))
        reads = draw(st.lists(
            st.tuples(st.integers(0, N_PROCS - 1),
                      st.integers(0, N_WORDS - 1)),
            max_size=8))
        plan.append((writes, reads))
    return plan


def run_plan(plan, protocol, nodes=2, ppn=2, first_touch=True):
    cfg = MachineConfig(nodes=nodes, procs_per_node=ppn, page_bytes=512,
                        shared_bytes=512 * 4, superpage_pages=2)
    cluster = Cluster(cfg)
    proto = make_protocol(protocol, cluster)
    barrier = Barrier(cluster, proto)
    if first_touch:
        proto.end_initialization()

    def value(rnd, word):
        return float(rnd * 1000 + word + 1)

    def worker(proc):
        rank = proc.global_id

        def gen():
            for rnd, (writes, reads) in enumerate(plan):
                for owner, words in writes:
                    if owner != rank:
                        continue
                    for w in words:
                        proto.store(proc, w // 64, w % 64, value(rnd, w))
                        yield Compute(1.0)
                for who, w in reads:
                    if who == rank:
                        proto.load(proc, w // 64, w % 64)
                        yield Compute(0.5)
                yield from barrier.wait(proc)
        return gen()

    group = ProcessGroup(cluster.sim)
    for proc in cluster.processors:
        group.spawn(proc, worker(proc), f"p{proc.global_id}")
    group.run()
    check(proto, quiescent=True)
    return np.concatenate([authoritative(proto, page) for page in range(4)])


def emulate(plan):
    mem = np.zeros(N_WORDS)
    for rnd, (writes, _) in enumerate(plan):
        for owner, words in writes:
            for w in words:
                mem[w] = float(rnd * 1000 + w + 1)
    return mem


# --------------------------------------------------------------------------
# Checked variant: shape- and lock_free-polymorphic DRF programs run
# under the race detector and coherence oracle.
# --------------------------------------------------------------------------

@st.composite
def drf_programs(draw):
    """Two-phase rounds: disjoint writes, barrier, arbitrary reads,
    barrier. Reads are separated from every write by a barrier, so the
    program is data-race-free on *any* cluster shape (ownership maps to
    processors via ``perm[g] % nprocs`` at run time)."""
    rounds = draw(st.integers(min_value=1, max_value=3))
    plan = []
    for r in range(rounds):
        perm = draw(st.permutations(range(16)))
        writes = []
        for g in range(16):
            count = draw(st.integers(min_value=0, max_value=3))
            writes.append(draw(st.lists(st.integers(0, 15), min_size=count,
                                        max_size=count, unique=True)))
        reads = draw(st.lists(
            st.tuples(st.integers(0, 7), st.integers(0, N_WORDS - 1)),
            max_size=8))
        plan.append((list(perm), writes, reads))
    return plan


def run_checked_plan(plan, protocol, nodes, ppn, *, lock_free=True):
    """Run a ``drf_programs`` plan under the checker; return
    ``(final_memory, check_context)``."""
    cfg = MachineConfig(nodes=nodes, procs_per_node=ppn, page_bytes=512,
                        shared_bytes=512 * 4, superpage_pages=2)
    cluster = Cluster(cfg)
    proto = make_protocol(protocol, cluster, lock_free=lock_free)
    checker = attach_checker(cluster, proto)
    barrier = Barrier(cluster, proto)
    proto.end_initialization()
    nprocs = cluster.num_procs

    def value(rnd, word):
        return float(rnd * 1000 + word + 1)

    def worker(proc):
        rank = proc.global_id

        def gen():
            for rnd, (perm, writes, reads) in enumerate(plan):
                for g in range(16):
                    if perm[g] % nprocs != rank:
                        continue
                    for o in writes[g]:
                        w = g * 16 + o
                        proto.store(proc, w // 64, w % 64, value(rnd, w))
                        yield Compute(1.0)
                yield from barrier.wait(proc)
                for who, w in reads:
                    if who % nprocs == rank:
                        proto.load(proc, w // 64, w % 64)
                        yield Compute(0.5)
                yield from barrier.wait(proc)
        return gen()

    group = ProcessGroup(cluster.sim)
    for proc in cluster.processors:
        group.spawn(proc, worker(proc), f"p{proc.global_id}")
    group.run()
    checker.finalize()
    return (np.concatenate([authoritative(proto, page)
                            for page in range(4)]), checker)


def emulate_drf(plan):
    mem = np.zeros(N_WORDS)
    for rnd, (perm, writes, _) in enumerate(plan):
        for g, offs in enumerate(writes):
            for o in offs:
                w = g * 16 + o
                mem[w] = float(rnd * 1000 + w + 1)
    return mem


@settings(max_examples=25, deadline=None)
@given(programs())
@pytest.mark.parametrize("protocol", ["2L", "2LS", "1LD", "1L"])
def test_random_drf_program_matches_emulation(protocol, plan):
    final = run_plan(plan, protocol)
    expected = emulate(plan)
    mismatch = np.nonzero(final != expected)[0]
    assert len(mismatch) == 0, (
        f"{protocol}: words {mismatch[:8]} differ: "
        f"got {final[mismatch[:8]]}, want {expected[mismatch[:8]]}")


@settings(max_examples=10, deadline=None)
@given(programs())
def test_random_program_deterministic(plan):
    a = run_plan(plan, "2L")
    b = run_plan(plan, "2L")
    assert (a == b).all()


@settings(max_examples=8, deadline=None)
@given(plan=drf_programs(), shape=st.sampled_from(SHAPES),
       lock_free=st.booleans())
@pytest.mark.parametrize("protocol", ["2L", "2LS", "1LD", "1L"])
def test_random_checked_drf_program(protocol, plan, shape, lock_free):
    nodes, ppn = shape
    final, checker = run_checked_plan(plan, protocol, nodes, ppn,
                                      lock_free=lock_free)
    # DRF by construction: any report is a detector false positive (and
    # any CoherenceViolation out of run_checked_plan is a protocol bug).
    assert checker.races == [], (
        f"{protocol} {nodes}x{ppn} lock_free={lock_free}: "
        f"{checker.races[0].describe()}")
    expected = emulate_drf(plan)
    mismatch = np.nonzero(final != expected)[0]
    assert len(mismatch) == 0, (
        f"{protocol} {nodes}x{ppn}: words {mismatch[:8]} differ: "
        f"got {final[mismatch[:8]]}, want {expected[mismatch[:8]]}")
