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

from repro.apps import make_app
from repro.apps.base import Application
from repro.check import CheckContext, attach_checker
from repro.check.detector import _WordState
from repro.check.events import MemoryEvent
from repro.cluster.machine import Cluster
from repro.config import MachineConfig
from repro.errors import CoherenceViolation, DataRaceError
from repro.protocol import make_protocol
from repro.runtime.program import ParallelRuntime
from repro.sim.process import Compute, ProcessGroup
from repro.sync import Barrier, FlagSet, MCLock

PROTOCOLS = ["2L", "2LS", "1LD", "1L"]


def build(protocol="2L", nodes=2, ppn=2, *, fail_fast=False,
          flags=None, locks=0):
    """A small checked cluster plus the sync objects a test needs."""
    cfg = MachineConfig(nodes=nodes, procs_per_node=ppn, page_bytes=512,
                        shared_bytes=512 * 4, superpage_pages=2)
    cluster = Cluster(cfg)
    proto = make_protocol(protocol, cluster)
    checker = attach_checker(cluster, proto, fail_fast=fail_fast)
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


def test_fail_fast_raises_at_the_racing_access():
    cluster, proto, checker, barrier, _, _ = build(fail_fast=True)

    def make_worker(proc):
        def gen():
            proto.store(proc, 0, 0, float(proc.global_id))
            yield Compute(1.0)
            yield from barrier.wait(proc)
        return gen()

    with pytest.raises(DataRaceError, match="page 0 word 0"):
        run(cluster, make_worker)


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

class PerWordCheckContext(CheckContext):
    """The checker as it was before the range hooks: every word of a
    range is traced on its own, with the FastTrack test written through
    ``VectorClock.dominates_epoch``, and every read goes through the
    oracle. The range path must be indistinguishable from it."""

    def _read(self, proc, page, offset):
        det = self.detector
        proc.stats.bump("check_events")
        pid = proc.global_id
        word = page * det.wpp + offset
        ev = MemoryEvent("read", pid, proc.node.id, page, offset, word,
                         proc.clock, det.vc[pid][pid])
        ws = det.words.get(word)
        if ws is None:
            ws = det.words[word] = _WordState()
        w = ws.write
        if w is not None and w.proc != pid \
                and not det.vc[pid].dominates_epoch(w.clock, w.proc):
            det._report(proc, w, ev)
        ws.reads[pid] = ev
        return ev

    def _write(self, proc, page, offset):
        det = self.detector
        proc.stats.bump("check_events")
        pid = proc.global_id
        word = page * det.wpp + offset
        ev = MemoryEvent("write", pid, proc.node.id, page, offset, word,
                         proc.clock, det.vc[pid][pid])
        ws = det.words.get(word)
        if ws is None:
            ws = det.words[word] = _WordState()
        my_vc = det.vc[pid]
        w = ws.write
        if w is not None and w.proc != pid \
                and not my_vc.dominates_epoch(w.clock, w.proc):
            det._report(proc, w, ev)
        for r in ws.reads.values():
            if r.proc != pid and not my_vc.dominates_epoch(r.clock, r.proc):
                det._report(proc, r, ev)
        ws.write = ev
        ws.reads.clear()
        return ev

    def on_load(self, proc, page, offset, value):
        self.oracle.check_read(self._read(proc, page, offset), value)

    def on_store(self, proc, page, offset, value):
        self.oracle.record_write(self._write(proc, page, offset), value)

    def on_load_range(self, proc, page, lo, values):
        for i, value in enumerate(values):
            self.on_load(proc, page, lo + i, value)

    def on_store_range(self, proc, page, lo, values):
        for i in range(len(values)):
            self._write(proc, page, lo + i)
        self.oracle.record_write_range(page, lo, values)


CONTEXTS = (CheckContext, PerWordCheckContext)


def _range_program(cluster, proto, barrier, *, stale=False):
    """Overlapping range stores and unsynchronized range loads (racy
    unless ``stale``), disjoint stores read after a barrier (clean),
    and with ``stale`` a word of the reader's copy corrupted behind the
    protocol's back before a range load covers it."""
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


def _checked_run(cls, protocol, *, fail_fast=False, stale=False):
    cfg = MachineConfig(nodes=2, procs_per_node=2, page_bytes=512,
                        shared_bytes=512 * 4, superpage_pages=2)
    cluster = Cluster(cfg)
    proto = make_protocol(protocol, cluster)
    checker = cls(cluster, proto, fail_fast=fail_fast)
    proto.checker = checker
    barrier = Barrier(cluster, proto)
    error = None
    try:
        run(cluster, _range_program(cluster, proto, barrier, stale=stale))
    except (DataRaceError, CoherenceViolation) as exc:
        error = f"{type(exc).__name__}: {exc}"
    det = checker.detector
    return {
        "error": error,
        "races": [r.describe() for r in det.races],
        "race_count": det.race_count,
        "poisoned": sorted(det.poisoned),
        "check_events": [p.stats.counters["check_events"]
                         for p in cluster.processors],
    }


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_range_hooks_match_per_word_reference_on_racy_program(protocol):
    fast, ref = (_checked_run(cls, protocol) for cls in CONTEXTS)
    assert fast == ref
    assert fast["race_count"] > 0 and fast["error"] is None


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_range_hooks_fail_fast_at_the_same_word(protocol):
    fast, ref = (_checked_run(cls, protocol, fail_fast=True)
                 for cls in CONTEXTS)
    assert fast == ref
    assert fast["error"].startswith("DataRaceError: data race on page")


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_range_hooks_report_the_same_stale_read(protocol):
    fast, ref = (_checked_run(cls, protocol, stale=True)
                 for cls in CONTEXTS)
    assert fast == ref
    assert fast["error"].startswith(
        "CoherenceViolation: stale read: read of page 1 word 3")


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
