"""The happens-before race detector and the coherence oracle.

Hand-written racy programs (write-write, write-read across a missing
release) must be flagged with full provenance; known data-race-free
programs (barrier rounds, lock-protected counters, flag-synchronized
producer/consumer chains) must come out clean; kernels written against
the worker API must race exactly when they are racy (a corpus of four
racy kernels, a DRF control, and Water); and protocol-level data
corruption — injected behind the protocol's back — must raise a
structured :class:`CoherenceViolation` naming the divergent word.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.apps import make_app
from repro.apps.base import Application
from repro.check import MAX_RACE_REPORTS, CheckContext, attach_checker
from repro.cluster.machine import Cluster
from repro.config import MachineConfig
from repro.errors import CoherenceViolation, DataRaceError
from repro.protocol import make_protocol
from repro.runtime.program import ParallelRuntime
from repro.sim.process import Compute, ProcessGroup
from repro.sync import Barrier, FlagSet, MCLock

from .per_word_detector import PerWordCheckContext

PROTOCOLS = ["2L", "2LS", "1LD", "1L"]


def build(protocol="2L", nodes=2, ppn=2, *, flags=None, locks=0):
    """A small checked cluster plus the sync objects a test needs."""
    cfg = MachineConfig(nodes=nodes, procs_per_node=ppn, page_bytes=512,
                        shared_bytes=512 * 4, superpage_pages=2)
    cluster = Cluster(cfg)
    proto = make_protocol(protocol, cluster)
    checker = attach_checker(cluster, proto)
    barrier = Barrier(cluster, proto)
    lock_objs = [MCLock(cluster, proto, i) for i in range(locks)]
    flag_objs = {name: FlagSet(cluster, proto, name, count)
                 for name, count in (flags or {}).items()}
    return cluster, proto, checker, barrier, lock_objs, flag_objs


def run(cluster, make_worker):
    group = ProcessGroup(cluster.sim)
    for proc in cluster.processors:
        group.spawn(proc, make_worker(proc), f"p{proc.global_id}")
    group.run()


# --------------------------------------------------------------------------
# Racy programs must be flagged.
# --------------------------------------------------------------------------

@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_write_write_race_flagged(protocol):
    cluster, proto, checker, barrier, _, _ = build(protocol)

    def make_worker(proc):
        def gen():
            proto.store(proc, 0, 5, float(proc.global_id))
            yield Compute(1.0)
            yield from barrier.wait(proc)
        return gen()

    run(cluster, make_worker)
    assert checker.races, f"{protocol}: unsynchronized writes not flagged"
    assert all(r.kind == "write-write" for r in checker.races)
    assert {r.word for r in checker.races} == {5}


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_write_read_race_across_missing_release_flagged(protocol):
    """p0 publishes data with a plain store; p1 reads it with nothing but
    compute delay in between — no release/acquire pair, so it races."""
    cluster, proto, checker, barrier, _, _ = build(protocol)

    def make_worker(proc):
        def gen():
            rank = proc.global_id
            if rank == 0:
                proto.store(proc, 1, 7, 42.0)
            yield Compute(5.0)
            if rank == 1:
                proto.load(proc, 1, 7)
            yield Compute(1.0)
            yield from barrier.wait(proc)
        return gen()

    run(cluster, make_worker)
    kinds = {r.kind for r in checker.races}
    assert kinds, f"{protocol}: missing-release read not flagged"
    assert kinds <= {"write-read", "read-write"}
    (report,) = checker.races
    assert {report.first.proc, report.second.proc} == {0, 1}


def test_flag_peek_creates_no_ordering():
    """Spinning on flag_peek (no acquire) and then reading the data is
    the classic missing-release bug; the detector must flag it."""
    cluster, proto, checker, barrier, _, flags = build(
        flags={"ready": 1})
    ready = flags["ready"]

    def make_worker(proc):
        def gen():
            rank = proc.global_id
            if rank == 0:
                proto.store(proc, 0, 9, 7.0)
                yield Compute(1.0)
                ready.set(proc, 0)
            elif rank == 1:
                while not ready.peek(proc, 0):
                    yield Compute(1.0)
                proto.load(proc, 0, 9)  # peek performed no acquire
            yield from barrier.wait(proc)
        return gen()

    run(cluster, make_worker)
    assert [r.kind for r in checker.races] == ["write-read"]


def test_race_report_provenance():
    cluster, proto, checker, barrier, _, _ = build(nodes=2, ppn=1)

    def make_worker(proc):
        def gen():
            proto.store(proc, 2, 11, 1.0)
            yield Compute(1.0)
            yield from barrier.wait(proc)
        return gen()

    run(cluster, make_worker)
    (report,) = checker.races
    assert report.page == 2
    assert report.offset == 11
    assert report.word == 2 * 64 + 11
    first, second = report.first, report.second
    assert {first.proc, second.proc} == {0, 1}
    assert {first.node, second.node} == {0, 1}
    assert first.kind == second.kind == "write"
    assert first.sim_time >= 0.0 and second.sim_time >= 0.0
    assert "page 2 word 11" in report.describe()


def test_finalize_raises_at_the_first_racing_access():
    """A racy run completes; ``finalize`` names its first race, and
    ``race_count`` counts every race past the report cap."""
    cluster, proto, checker, barrier, _, _ = build(nodes=2, ppn=1)

    def make_worker(proc):
        def gen():
            rank = proc.global_id
            yield Compute(1.0 + rank)
            for page in (0, 1):
                proto.store_range(proc, page, 0, np.full(64, float(rank)))
            yield from barrier.wait(proc)
        return gen()

    run(cluster, make_worker)
    assert checker.race_count == 128
    assert len(checker.races) == MAX_RACE_REPORTS
    first = checker.races[0]
    assert (first.page, first.offset, first.second.proc) == (0, 0, 1)
    with pytest.raises(DataRaceError) as raised:
        checker.finalize()
    assert str(raised.value) == \
        f"128 data race(s) detected; first: {first.describe()}"


def test_finalize_raises_on_collected_races():
    cluster, proto, checker, barrier, _, _ = build()

    def make_worker(proc):
        def gen():
            proto.store(proc, 0, 0, float(proc.global_id))
            yield Compute(1.0)
            yield from barrier.wait(proc)
        return gen()

    run(cluster, make_worker)
    with pytest.raises(DataRaceError, match="data race"):
        checker.finalize()


# --------------------------------------------------------------------------
# Data-race-free programs must come out clean.
# --------------------------------------------------------------------------

@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_barrier_rounds_are_clean(protocol):
    """Disjoint writes per round, arbitrary reads after the barrier."""
    cluster, proto, checker, barrier, _, _ = build(protocol)
    nprocs = cluster.num_procs

    def make_worker(proc):
        def gen():
            rank = proc.global_id
            for rnd in range(3):
                for off in range(rank * 8, rank * 8 + 8):
                    proto.store(proc, rnd % 4, off, float(rnd * 100 + off))
                    yield Compute(1.0)
                yield from barrier.wait(proc)
                for off in range(0, nprocs * 8, 3):
                    proto.load(proc, rnd % 4, off)
                    yield Compute(0.5)
                yield from barrier.wait(proc)
        return gen()

    run(cluster, make_worker)
    checker.finalize()
    assert checker.races == []
    # Barrier episodes plus end-of-run all cross-checked the golden image.
    assert checker.oracle.global_checks == 7


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_lock_protected_counters_are_clean(protocol):
    cluster, proto, checker, barrier, locks, _ = build(protocol, locks=2)

    def make_worker(proc):
        def gen():
            rank = proc.global_id
            for i in range(3):
                lock = locks[(rank + i) % 2]
                word = 3 + (rank + i) % 2
                yield from lock.acquire(proc)
                value = proto.load(proc, 0, word)
                yield Compute(2.0)
                proto.store(proc, 0, word, value + 1.0)
                lock.release(proc)
                yield Compute(1.0)
            yield from barrier.wait(proc)
        return gen()

    run(cluster, make_worker)
    checker.finalize()
    assert checker.races == []
    assert proto.master(0)[3] + proto.master(0)[4] == 12.0


def test_flag_producer_consumer_chain_is_clean():
    """Transitive happens-before through a chain of flags: p0 -> p1 -> p2
    -> p3, each reading its predecessor's data and appending its own."""
    cluster, proto, checker, barrier, _, flags = build(
        flags={"stage": 4})
    stage = flags["stage"]

    def make_worker(proc):
        def gen():
            rank = proc.global_id
            if rank > 0:
                yield from stage.wait(proc, rank - 1)
                for r in range(rank):
                    value = proto.load(proc, 0, r)
                    assert value == float(r + 1), (rank, r, value)
            proto.store(proc, 0, rank, float(rank + 1))
            yield Compute(1.0)
            stage.set(proc, rank)
            yield from barrier.wait(proc)
        return gen()

    run(cluster, make_worker)
    checker.finalize()
    assert checker.races == []


# --------------------------------------------------------------------------
# The coherence oracle must catch protocol-level corruption.
# --------------------------------------------------------------------------

def test_oracle_catches_corruption_at_read():
    """Corrupt the master copy behind the protocol's back: the next
    checked read of that word must raise with full provenance."""
    cluster, proto, checker, barrier, _, _ = build()

    def make_worker(proc):
        def gen():
            rank = proc.global_id
            if rank == 0:
                proto.store(proc, 1, 3, 42.0)
            yield Compute(1.0)
            yield from barrier.wait(proc)
            if rank == 2:
                proto.master(1)[3] = 99.0  # simulated protocol bug
                proto.load(proc, 1, 3)
            yield from barrier.wait(proc)
        return gen()

    with pytest.raises(CoherenceViolation) as info:
        run(cluster, make_worker)
    exc = info.value
    assert exc.check == "read-value"
    assert (exc.page, exc.offset, exc.word) == (1, 3, 67)
    assert exc.expected == 42.0
    assert exc.actual == 99.0
    assert exc.event is not None and exc.event.proc == 2


def test_oracle_global_check_catches_divergence():
    """A lost write (master corrupted after the run) is caught by the
    end-of-run golden-image sweep even though nobody reads the word."""
    cluster, proto, checker, barrier, _, _ = build()

    def make_worker(proc):
        def gen():
            if proc.global_id == 3:
                proto.store(proc, 3, 60, 5.0)
            yield Compute(1.0)
            yield from barrier.wait(proc)
        return gen()

    run(cluster, make_worker)
    proto.master(3)[60] = 0.0  # drop the write behind the protocol's back
    with pytest.raises(CoherenceViolation) as info:
        checker.finalize()
    exc = info.value
    assert exc.check == "page-content"
    assert (exc.page, exc.offset) == (3, 60)
    assert exc.expected == 5.0 and exc.actual == 0.0


def test_oracle_skips_value_checks_on_racy_words():
    """Racy words have no well-defined golden value: the detector must
    flag the race, and the oracle must not pile a spurious
    CoherenceViolation on top."""
    cluster, proto, checker, barrier, _, _ = build()

    def make_worker(proc):
        def gen():
            rank = proc.global_id
            proto.store(proc, 0, 0, float(rank))
            yield Compute(float(rank))
            proto.load(proc, 0, 0)
            yield Compute(1.0)
            yield from barrier.wait(proc)
        return gen()

    run(cluster, make_worker)  # must not raise CoherenceViolation
    assert checker.race_count > 0
    with pytest.raises(DataRaceError):
        checker.finalize()


# --------------------------------------------------------------------------
# End-to-end wiring: the config flag, stats surfacing.
# --------------------------------------------------------------------------

def _sor_app():
    from repro.apps import SOR
    app = SOR()
    return app, app.small_params()


def test_run_app_under_config_flag():
    from repro.runtime import run_app
    app, params = _sor_app()
    config = MachineConfig(nodes=2, procs_per_node=2, page_bytes=512,
                           checking=True)
    result = run_app(app, params, config, protocol="2L")
    checker = result.runtime.checker
    assert isinstance(checker, CheckContext)
    assert checker.races == []
    assert checker.oracle.global_checks > 0
    # Detector statistics surface through the run's aggregated counters.
    assert result.stats.counter("check_events") > 0
    assert result.stats.counter("check_vc_merges") > 0
    assert result.stats.counter("check_races") == 0


def test_run_app_under_checking_context_manager():
    """The config flag is the one switch: the same config with it
    cleared runs unchecked."""
    from repro.runtime import run_app
    app, params = _sor_app()
    config = MachineConfig(nodes=2, procs_per_node=2, page_bytes=512,
                           checking=True)
    result = run_app(app, params, config, protocol="2LS")
    assert result.runtime.checker is not None
    assert result.runtime.protocol.checker is result.runtime.checker
    assert result.stats.counter("check_events") > 0
    result = run_app(app, params, replace(config, checking=False),
                     protocol="2LS")
    assert result.runtime.checker is None
    assert result.stats.counter("check_events") == 0


# --------------------------------------------------------------------------
# The range hooks against a per-word reference.
# --------------------------------------------------------------------------

CONTEXTS = (CheckContext, PerWordCheckContext)


def _range_program(*, stale=False):
    """Overlapping range stores and unsynchronized range loads (racy
    unless ``stale``), disjoint stores read after a barrier (clean),
    and with ``stale`` a word of the reader's copy corrupted behind the
    protocol's back before a range load covers it."""
    def program(cluster, proto, barrier, locks):
        def make_worker(proc):
            def gen():
                rank = proc.global_id
                if not stale:
                    proto.store_range(proc, 0, 4 * rank,
                                      np.arange(8.0) + 10 * rank)
                    yield Compute(1.0 + rank)
                    proto.load_range(proc, 0, 0, 20)
                    proto.store(proc, 2, rank % 2, float(rank))
                    proto.load(proc, 2, 1 - rank % 2)
                proto.store_range(proc, 1, 8 * rank, np.full(8, rank + 0.5))
                yield Compute(1.0)
                yield from barrier.wait(proc)
                if stale and rank == 2:
                    proto.load_range(proc, 1, 0, 1)  # map the page
                    # Simulated protocol bug: the reader's copy goes stale.
                    proto.proc_state(proc).frames[1][3] = 99.0
                proto.load_range(proc, 1, 0, 8 * cluster.num_procs)
                proto.load_range(proc, 3, 5, 9)
                yield Compute(1.0)
                yield from barrier.wait(proc)
            return gen()
        return make_worker
    return program


def _raised(fn, *args):
    """The DataRaceError or CoherenceViolation ``fn(*args)`` raises, as
    text; None if it returns."""
    try:
        fn(*args)
    except (DataRaceError, CoherenceViolation) as exc:
        return f"{type(exc).__name__}: {exc}"
    return None


def _checked_run(cls, protocol, program):
    """Run ``program`` on a 2x2 cluster (4 pages of 64 words, 2 locks)
    under checker class ``cls``, then finalize the checker; return
    everything the detector reports."""
    cfg = MachineConfig(nodes=2, procs_per_node=2, page_bytes=512,
                        shared_bytes=512 * 4, superpage_pages=2)
    cluster = Cluster(cfg)
    proto = make_protocol(protocol, cluster)
    checker = cls(cluster, proto)
    proto.checker = checker
    barrier = Barrier(cluster, proto)
    locks = [MCLock(cluster, proto, i) for i in range(2)]
    error = _raised(run, cluster, program(cluster, proto, barrier, locks))
    det = checker.detector
    return {
        "error": error,
        "finalize": None if error else _raised(checker.finalize),
        "races": [r.describe() for r in det.races],
        "race_count": det.race_count,
        "poisoned": sorted(det.poisoned),
        "check_events": [p.stats.counters["check_events"]
                         for p in cluster.processors],
        "last_writes": None if error else [
            det.last_write(w) for w in range(4 * cfg.words_per_page)],
    }


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_range_hooks_match_per_word_reference_on_racy_program(protocol):
    fast, ref = (_checked_run(cls, protocol, _range_program())
                 for cls in CONTEXTS)
    assert fast == ref
    assert fast["race_count"] > 0 and fast["error"] is None
    assert fast["finalize"].startswith(
        f"DataRaceError: {fast['race_count']} data race(s) detected; "
        f"first: data race on page")


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_range_hooks_report_the_same_stale_read(protocol):
    fast, ref = (_checked_run(cls, protocol, _range_program(stale=True))
                 for cls in CONTEXTS)
    assert fast == ref
    assert fast["error"].startswith(
        "CoherenceViolation: stale read: read of page 1 word 3")


def _scripted(phases):
    """A program from per-phase, per-processor op lists, with a barrier
    after each phase. Ops: ``("load"|"store", page, lo, n)`` (one word
    through the scalar hook, more through the range hook),
    ``("compute", us)`` and ``("locked", lock, [accesses])``."""
    def program(cluster, proto, barrier, locks):
        def access(proc, op, tag):
            kind, page, lo, n = op
            hi = min(lo + n, cluster.config.words_per_page)
            if kind == "load" and hi - lo == 1:
                proto.load(proc, page, lo)
            elif kind == "load":
                proto.load_range(proc, page, lo, hi)
            elif hi - lo == 1:
                proto.store(proc, page, lo, tag)
            else:
                proto.store_range(proc, page, lo, np.arange(lo, hi) + tag)

        def make_worker(proc):
            def gen():
                rank = proc.global_id
                for p, phase in enumerate(phases):
                    for i, op in enumerate(phase[rank]):
                        tag = 1000.0 * rank + 100.0 * p + i
                        if op[0] == "compute":
                            yield Compute(op[1])
                        elif op[0] == "locked":
                            yield from locks[op[1]].acquire(proc)
                            for inner in op[2]:
                                access(proc, inner, tag)
                                yield Compute(0.5)
                            locks[op[1]].release(proc)
                        else:
                            access(proc, op, tag)
                        yield Compute(0.5)
                    yield from barrier.wait(proc)
            return gen()
        return make_worker
    return program


#: p3, p1 and p2 read words 0-7 of page 0 in that order (p3 twice) with
#: nothing ordering them before p0's write of words 0-7.
THREE_READERS = [[
    [("compute", 900.0), ("compute", 900.0), ("store", 0, 0, 8)],
    [("compute", 300.0), ("load", 0, 0, 8)],
    [("compute", 600.0), ("load", 0, 2, 6)],
    [("load", 0, 0, 8), ("compute", 700.0), ("load", 0, 0, 4)],
]]

#: p1's write of words 0-29 meets p0's earlier write of words 10-19:
#: the first race is in the middle of p1's range.
MID_RANGE = [[
    [("store", 1, 10, 10)],
    [("compute", 400.0), ("store", 1, 0, 30)],
    [("load", 1, 40, 3)],
    [("compute", 400.0), ("load", 1, 12, 1)],
]]

#: p0's write of words 0-7 races with p2's read of them, and p1's with
#: p0's write only: a write leaves no reads behind.
READ_THEN_TWO_WRITES = [[
    [("compute", 300.0), ("store", 0, 0, 8)],
    [("compute", 900.0), ("store", 0, 4, 8)],
    [("load", 0, 0, 8)],
    [],
]]

#: THREE_READERS and READ_THEN_TWO_WRITES through the word hooks, and
#: a word read and a word write that later range accesses of their
#: pages must see.
WORD_HOOKS = [[
    [("store", 2, 7, 1), ("compute", 300.0), ("store", 0, 3, 1),
     ("compute", 900.0), ("store", 1, 0, 8), ("compute", 900.0),
     ("store", 0, 2, 1)],
    [("compute", 900.0), ("store", 0, 3, 1), ("load", 0, 2, 1)],
    [("load", 0, 3, 1), ("load", 1, 5, 1), ("compute", 900.0),
     ("load", 0, 2, 1)],
    [("load", 0, 2, 1), ("compute", 1500.0), ("load", 0, 2, 1),
     ("load", 2, 0, 16)],
]]

_access = st.tuples(st.sampled_from(["load", "store"]), st.integers(0, 2),
                    st.integers(0, 56), st.sampled_from([1, 2, 8, 24]))
_op = st.one_of(
    _access, _access,
    st.tuples(st.just("compute"), st.sampled_from([0.5, 5.0, 60.0, 500.0])),
    st.tuples(st.just("locked"), st.integers(0, 1),
              st.lists(_access, min_size=1, max_size=2)))
_programs = st.lists(st.lists(st.lists(_op, max_size=4),
                              min_size=4, max_size=4),
                     min_size=1, max_size=3)


@settings(max_examples=100, deadline=None)
@given(phases=_programs, protocol=st.sampled_from(PROTOCOLS))
@example(phases=THREE_READERS, protocol="2L")
@example(phases=MID_RANGE, protocol="1LD")
@example(phases=MID_RANGE, protocol="2L")
@example(phases=READ_THEN_TWO_WRITES, protocol="2LS")
@example(phases=WORD_HOOKS, protocol="2L")
def test_detector_matches_per_word_reference_on_random_programs(
        phases, protocol):
    """Overlapping range and word accesses, locked and unlocked, racy or
    not: the page-array detector reports exactly what the per-word one
    does, in the same order, and finalizes with the same error."""
    fast, ref = (_checked_run(cls, protocol, _scripted(phases))
                 for cls in CONTEXTS)
    assert fast == ref


def test_racing_readers_reported_in_first_read_order():
    fast, ref = (_checked_run(cls, "2L", _scripted(THREE_READERS))
                 for cls in CONTEXTS)
    assert fast == ref
    # First-read order, not processor order nor the order of the last
    # reads' times (p3 re-read after p1 and p2 first read).
    word2 = [line.split(" by ")[1][:2] for line in fast["races"]
             if line.startswith("data race on page 0 word 2 ")]
    assert word2 == ["p3", "p1", "p2"]
    assert all("is concurrent with write" in line
               for line in fast["races"])


def test_digest_ignores_times_and_read_order():
    """Two histories with the same epochs digest alike whatever the
    readers' order and times; a different writer does not."""
    def digest(readers, writer=None):
        cluster, proto, checker, *_ = build()
        det = checker.detector
        for rank in readers:
            proc = cluster.processors[rank]
            proc.clock = 10.0 * len(readers) - rank
            det.on_read_range(proc, 1, 0, 8)
        if writer is not None:
            det.on_write(cluster.processors[writer], 1, 3)
        return det.digest()

    assert digest([0, 1, 2]) == digest([2, 0, 1])
    assert digest([0, 1], writer=2) == digest([1, 0], writer=2)
    assert digest([0, 1], writer=2) != digest([0, 1], writer=3)
    assert digest([0, 1]) != digest([0, 2])


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("app_name", ["SOR", "Water"])
def test_range_hooks_match_per_word_reference_on_drf_apps(
        app_name, protocol, monkeypatch):
    from repro.apps import make_app
    from repro.check import context
    from repro.runtime import run_app

    config = MachineConfig(nodes=2, procs_per_node=2, page_bytes=512,
                           checking=True)
    seen = []
    for cls in CONTEXTS:
        monkeypatch.setattr(context, "CheckContext", cls)
        app = make_app(app_name)
        result = run_app(app, app.small_params(), config, protocol)
        det = result.runtime.checker.detector
        assert type(result.runtime.checker) is cls
        seen.append((det.races, det.race_count, det.poisoned,
                     [ps.counters for ps in result.stats.per_proc],
                     result.exec_time_us))
    assert seen[0] == seen[1]
    assert seen[0][3][0]["check_events"] > 0


# --------------------------------------------------------------------------
# Kernels written against the worker API: the racy corpus must race.
# --------------------------------------------------------------------------

#: (name, shared arrays, kernel source). Each is a bug class the
#: runtime must report under ``checking=True``: an unpartitioned write,
#: a mixed lockset, a partially protected read, an unguarded init write.
RACY_CORPUS = [
    ("ww_unguarded", [("data", 8)], '''
def worker(env, params):
    data = env.arr("data")
    yield from env.barrier()
    env.set(data, 0, float(env.rank))
    yield from env.barrier()
'''),
    ("mixed_lockset", [("acc", 8)], '''
def worker(env, params):
    acc = env.arr("acc")
    yield from env.barrier()
    if env.rank == 0:
        env.set(acc, 0, 1.0)
    else:
        yield from env.acquire(0)
        env.set(acc, 0, env.get(acc, 0) + 1.0)
        env.release(0)
    yield from env.barrier()
'''),
    ("partial_protect", [("best", 8)], '''
def worker(env, params):
    best = env.arr("best")
    yield from env.barrier()
    yield from env.acquire(1)
    env.set(best, 0, env.get(best, 0) + float(env.rank))
    env.release(1)
    peek = env.get(best, 0)
    yield from env.barrier()
    return peek
'''),
    ("init_race", [("data", 8)], '''
def worker(env, params):
    data = env.arr("data")
    env.set(data, 0, 1.0)
    yield from env.barrier()
    v = env.get(data, env.rank)
    yield from env.barrier()
    return v
'''),
]

DRF_CONTROL = '''
def worker(env, params):
    data = env.arr("data")
    if env.rank == 0:
        for i in range(env.nprocs):
            env.set(data, i, 0.0)
    yield from env.barrier()
    env.set(data, env.rank, float(env.rank) + 1.0)
    yield from env.barrier()
    total = 0.0
    for i in range(env.nprocs):
        total = total + env.get(data, i)
    yield from env.barrier()
    env.set(data, env.rank, total)
    yield from env.barrier()
'''


class CorpusApp(Application):
    """Wrap one corpus kernel in the Application interface."""

    name = "Corpus"

    def __init__(self, source, arrays):
        namespace = {}
        exec(compile(source, "<corpus>", "exec"), namespace)
        self._fn = namespace["worker"]
        self._arrays = arrays

    def default_params(self):
        return {}

    def declare(self, segment, params):
        for name, words in self._arrays:
            segment.alloc(name, words)

    def worker(self, env, params):
        return self._fn(env, params)

    def result_arrays(self, params):
        return [name for name, _ in self._arrays]


def _corpus_races(source, arrays):
    """Run a corpus kernel under the detector; return the race reports."""
    config = MachineConfig(nodes=2, procs_per_node=2, page_bytes=512,
                           shared_bytes=2048, superpage_pages=2,
                           checking=True)
    runtime = ParallelRuntime(CorpusApp(source, arrays), {}, config,
                              protocol="2L")
    with pytest.raises(DataRaceError):
        runtime.run()
    return runtime.checker.races


@pytest.mark.parametrize("name,arrays,source", RACY_CORPUS,
                         ids=[c[0] for c in RACY_CORPUS])
def test_racy_corpus_kernel_races(name, arrays, source):
    assert _corpus_races(source, arrays), \
        f"{name}: corpus program did not race"


def test_drf_control_kernel_runs_race_free():
    config = MachineConfig(nodes=2, procs_per_node=2, page_bytes=512,
                           shared_bytes=2048, superpage_pages=2,
                           checking=True)
    runtime = ParallelRuntime(CorpusApp(DRF_CONTROL, [("data", 8)]), {},
                              config, protocol="2L")
    runtime.run()
    assert runtime.checker.races == []


def test_water_runs_race_free():
    """Water's barrier-fenced owner-slice accesses inside its locked
    phase are data-race-free: the detector reports nothing."""
    app = make_app("Water")
    config = MachineConfig(nodes=2, procs_per_node=2, checking=True)
    runtime = ParallelRuntime(app, app.small_params(), config,
                              protocol="2L")
    runtime.run()
    assert runtime.checker.races == []


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_barnes_force_phase_is_not_word_level_drf(protocol):
    """Barnes's force phase reads the whole ``bodies`` array for the
    positions while other processors write their bodies' force words
    (4 and 5 of each 6-word body): a word-level race the checker must
    keep reporting until the app reads positions only."""
    app = make_app("Barnes")
    config = MachineConfig(nodes=2, procs_per_node=2, checking=True)
    runtime = ParallelRuntime(app, app.small_params(), config,
                              protocol=protocol)
    with pytest.raises(DataRaceError, match="576 data race"):
        runtime.run()
    det = runtime.checker.detector
    first = det.races[0]
    assert (first.word, first.kind) == (76, "write-read")
    assert len(det.poisoned) == 96
    assert {word % 6 for word in det.poisoned} == {4, 5}
