"""The software TLB (DESIGN.md §9, "Per-page shootdown"): soundness as a
stated invariant, precision as a deterministic count, and the warm
multi-page block paths.

**The invariant** is the ``map-permitted`` row of
:mod:`repro.protocol.invariants`: every read-map entry ``(page, frame)``
of local processor ``p`` has ``rows[page][p] >= READ`` and ``frames[page]
is frame``; every write-map entry has ``rows[page][p] >= WRITE`` and
wraps that same frame. The owner record's mutators evict exactly the
entries a permission tightening, frame unmap or alias kills, so an
entry that is *present* is valid — the warm access path checks nothing else. The frame
itself is the owner's memory slot for that page or, under the home-node
optimization only, the page's master: a warm multi-page block is one
slice of the owner's memory exactly when every page is the former.

**Precision.** Mapping a fresh frame evicts nothing and tightening one
processor's rights costs its neighbours nothing, so dispatches that take
no fault stay a small fraction of the faults. The pin below is a count,
not a wall clock: a reintroduced wholesale flush fails it exactly.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings

from repro import MachineConfig
from repro.apps import make_app
from repro.apps.base import Application
from repro.experiments.configs import experiment_config
from repro.protocol.invariants import check
from repro.runtime.env import WorkerEnv
from repro.runtime.program import ParallelRuntime
from repro.vm.page import Owner, Perm

from .test_random_programs import N_WORDS, emulate, programs

SMALL = MachineConfig(nodes=2, procs_per_node=2, page_bytes=512)
PROTOCOLS = ["2L", "2LS", "1LD", "1L"]
WPP = 64  # words per 512-byte page


def checked_mappings(proto) -> int:
    """Check the invariant table; return how many cached mappings its
    ``map-permitted`` row walked."""
    check(proto)
    return sum(len(m) for rec in proto.owners
               for m in rec.rmaps + rec.wmaps)


# ---------------------------------------------------------------------------
# (1) Unit: what each of the eviction doors drops, and what stays.
# ---------------------------------------------------------------------------

A, B = 0, 1


def _cached_owner():
    """Pages A and B writable and cached for local processors 0 and 1."""
    rec = Owner(4, WPP, 2)
    for page in (A, B):
        frame = rec.map(page)
        for p in (0, 1):
            rec.set_perm(page, p, Perm.WRITE)
            rec.rmaps[p][page] = frame
            rec.wmaps[p][page] = memoryview(frame)
    return rec


def test_tightening_evicts_one_page_of_one_processor():
    rec = _cached_owner()
    rec.set_perm(A, 0, Perm.READ)
    assert A not in rec.wmaps[0] and A in rec.rmaps[0]
    rec.set_perm(A, 0, Perm.INVALID)
    assert A not in rec.wmaps[0] and A not in rec.rmaps[0]
    # Page B and processor 1 are untouched throughout.
    assert B in rec.rmaps[0] and B in rec.wmaps[0]
    assert sorted(rec.rmaps[1]) == sorted(rec.wmaps[1]) == [A, B]


def test_loosening_is_silent():
    rec = _cached_owner()
    rec.set_perm(A, 0, Perm.READ)
    rec.set_perm(A, 0, Perm.WRITE)
    assert A in rec.rmaps[0] and sorted(rec.rmaps[1]) == [A, B]


def test_mapping_a_fresh_frame_evicts_nothing():
    rec = _cached_owner()
    rec.map(2)
    rec.map(A, np.ones(WPP))  # existing frame: in-place update
    for p in (0, 1):
        assert sorted(rec.rmaps[p]) == sorted(rec.wmaps[p]) == [A, B]
    assert rec.rmaps[0][A][0] == 1.0


def test_unmap_evicts_the_page_for_every_processor():
    rec = _cached_owner()
    rec.unmap(A)
    for p in (0, 1):
        assert sorted(rec.rmaps[p]) == sorted(rec.wmaps[p]) == [B]


def test_alias_evicts_the_page_for_every_processor():
    """Aliasing the one-level master drops every cached mapping of the
    frame it replaces; unmapping the alias drops those of the master."""
    rec = _cached_owner()
    master = np.zeros(WPP)
    rec.alias(A, master)
    for p in (0, 1):
        assert sorted(rec.rmaps[p]) == sorted(rec.wmaps[p]) == [B]
        rec.rmaps[p][A] = master
    rec.unmap(A)
    for p in (0, 1):
        assert sorted(rec.rmaps[p]) == [B]


# ---------------------------------------------------------------------------
# (2) The invariant walk: after real applications, and at every barrier
# departure of hypothesis-generated programs, fast path on.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("app_name", ["SOR", "Water", "Gauss", "TSP"])
def test_tlb_sound_after_application(app_name, protocol):
    app = make_app(app_name)
    rt = ParallelRuntime(app, app.small_params(), SMALL, protocol)
    rt.run()
    assert checked_mappings(rt.protocol) > 0  # the walk was not vacuous


@pytest.mark.parametrize("protocol", ["1LD", "1L"])
@pytest.mark.parametrize("app_name", ["SOR", "Gauss"])
def test_tlb_sound_under_home_node_optimization(app_name, protocol):
    """The walk's second case: processors on the home's node map the
    one-level master itself, never a slot of their own memory."""
    app = make_app(app_name)
    rt = ParallelRuntime(app, app.small_params(), SMALL, protocol,
                         home_opt=True)
    rt.run()
    proto = rt.protocol
    assert checked_mappings(proto) > 0
    assert any(frame is proto.master(page) for rec in proto.owners
               for rmap in rec.rmaps for page, frame in rmap.items())


class _PlanApp(Application):
    """A ``test_random_programs`` plan run through the real WorkerEnv
    (scalar ``get``/``set``), walking the invariant at every barrier
    arrival and departure — the latter right after the acquire-side
    invalidations. ``walked`` totals the entries seen."""

    name = "Plan"

    def __init__(self, plan):
        self.plan = plan
        self.walked = 0

    def default_params(self) -> dict:
        return {}

    def declare(self, segment, params):
        segment.alloc("mem", N_WORDS)

    def worker(self, env, params):
        mem = env.arr("mem")
        env.end_init()
        for rnd, (writes, reads) in enumerate(self.plan):
            for owner, words in writes:
                if owner == env.rank:
                    for w in words:
                        env.set(mem, w, float(rnd * 1000 + w + 1))
                        yield env.compute(1.0)
            for who, w in reads:
                if who == env.rank:
                    env.get(mem, w)
                    yield env.compute(0.5)
            self.walked += checked_mappings(env._protocol)  # mid-round state
            yield from env.barrier()
            self.walked += checked_mappings(env._protocol)

    def result_arrays(self, params):
        return ["mem"]


@settings(max_examples=20, deadline=None)
@given(programs())
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_tlb_sound_at_every_barrier_departure(protocol, plan):
    app = _PlanApp(plan)
    cfg = replace(SMALL, superpage_pages=2)
    result = ParallelRuntime(app, {}, cfg, protocol).run()
    np.testing.assert_array_equal(result.array("mem"), emulate(plan))
    if protocol != "1L" and any(words for writes, _ in plan
                                for _, words in writes):
        assert app.walked > 0  # (1L caches no write mappings)


# ---------------------------------------------------------------------------
# (3) Precision pin: dispatches that take no fault are rare.
# ---------------------------------------------------------------------------

def test_nonfaulting_dispatches_stay_a_fraction_of_faults():
    """2-node Gauss, two-page rows, every fault taken inside a
    dispatch: block dispatches exceed the faults by a few
    percent (first touches of pages another access kind already
    faulted; 92 against 1,670 here). The per-node generation flush
    this design replaced made 9,401 on this very run, because every
    pivot's first fetch mapped new frames and wiped the node's caches."""
    app = make_app("Gauss")
    cfg = MachineConfig(nodes=2, procs_per_node=4, page_bytes=512)
    rt = ParallelRuntime(app, {"n": 96}, cfg, "2L")
    dispatches = _count_dispatches(rt.protocol)
    counters = rt.run().stats.aggregate.counters
    faults = counters["read_faults"] + counters["write_faults"]
    nonfaulting = dispatches["load_range"] + dispatches["store_range"] - faults
    assert faults > 1000
    assert 0 <= nonfaulting <= 0.10 * faults, (nonfaulting, faults)


def test_gauss_block_accesses_stay_on_the_warm_path(monkeypatch):
    """``Gauss/2L/32:4`` of the benchmark: 225-word rows over 64-word
    pages, so nearly every block spans four pages. 13.5% of its block
    accesses reach the general methods (7,778 of 57,569), each a span
    with a page not yet mapped; none finds its whole span mapped. A
    warm path that stops serving multi-page spans sends 98% there."""
    calls = {"warm": 0, "general": 0, "mapped": 0}
    build = WorkerEnv._build_fastpaths

    def counting_build(env, tlb):
        build(env, tlb)
        for name in ("get_block", "set_block"):
            def warm(*args, _fn=getattr(env, name)):
                calls["warm"] += 1
                return _fn(*args)
            setattr(env, name, warm)

    def general(name, cache):
        fn = getattr(WorkerEnv, name)

        def counted(env, arr, lo, hi_or_values):
            hi = hi_or_values if name == "get_block" \
                else lo + len(hi_or_values)
            calls["general"] += 1
            pages = range((arr.base + lo) >> env._shift,
                          ((arr.base + hi - 1) >> env._shift) + 1)
            if all(p in getattr(env, cache) for p in pages):
                calls["mapped"] += 1
            return fn(env, arr, lo, hi_or_values)
        monkeypatch.setattr(WorkerEnv, name, counted)

    monkeypatch.setattr(WorkerEnv, "_build_fastpaths", counting_build)
    general("get_block", "_rmap")
    general("set_block", "_wmap")
    app = make_app("Gauss")
    ParallelRuntime(app, app.default_params(), experiment_config("32:4"),
                    "2L").run()
    assert calls["warm"] > 50_000
    assert calls["general"] <= 0.15 * calls["warm"], calls
    assert calls["mapped"] == 0, calls


def _count_dispatches(proto) -> dict:
    """Count calls of the protocol's block entry points from now on."""
    counts = {"load_range": 0, "store_range": 0}
    for name in counts:
        def counting(*args, _inner=getattr(proto, name), _name=name):
            counts[_name] += 1
            return _inner(*args)
        setattr(proto, name, counting)
    return counts


# ---------------------------------------------------------------------------
# (4) The warm multi-page block paths, plain and metrics-counting
# compilation (1 node x 1 proc, 64-word pages, a 6-page array).
# ---------------------------------------------------------------------------

class _Scratch(Application):
    name = "Scratch"

    def declare(self, segment, params):
        segment.alloc("a", 6 * WPP)


def _warm(**flags):
    """``(rt, env, arr, counts)`` with all six pages read- and
    write-warm; ``counts`` tallies block dispatches from here on."""
    cfg = MachineConfig(nodes=1, procs_per_node=1, page_bytes=512, **flags)
    rt = ParallelRuntime(_Scratch(), {}, cfg, "2L")
    rt.protocol.end_initialization()
    env = WorkerEnv(rt, rt.cluster.processors[0])
    arr = rt.segment.array("a")
    env.set_block(arr, 0, np.arange(6.0 * WPP))
    env.get_block(arr, 0, 6 * WPP)
    return rt, env, arr, _count_dispatches(rt.protocol)


@pytest.fixture(params=[False, True], ids=["plain", "metrics"])
def warm(request):
    return _warm(metrics=request.param)


def test_warm_multipage_blocks_make_no_dispatch(warm):
    rt, env, arr, counts = warm
    tally = list(rt.metrics.tlb) if rt.metrics else None
    np.testing.assert_array_equal(env.get_block(arr, 10, 300),
                                  np.arange(10.0, 300.0))
    env.set_block(arr, 60, np.arange(200.0))
    np.testing.assert_array_equal(env.get_block(arr, 60, 260),
                                  np.arange(200.0))
    assert counts == {"load_range": 0, "store_range": 0}
    if rt.metrics:  # three accesses, no fallback: three TLB hits
        assert rt.metrics.tlb == [tally[0] + 3, tally[1]]


def test_block_ending_exactly_on_a_page_boundary(warm):
    _, env, arr, counts = warm
    np.testing.assert_array_equal(env.get_block(arr, 10, 2 * WPP),
                                  np.arange(10.0, 2.0 * WPP))
    np.testing.assert_array_equal(env.get_block(arr, WPP, 3 * WPP),
                                  np.arange(1.0 * WPP, 3.0 * WPP))
    env.set_block(arr, 3 * WPP - 2, np.full(WPP + 2, -1.0))
    assert env.get(arr, 3 * WPP - 3) == 3 * WPP - 3
    assert list(env.get_block(arr, 3 * WPP - 2, 4 * WPP)) == [-1.0] * (WPP + 2)
    assert env.get(arr, 4 * WPP) == 4 * WPP
    assert counts == {"load_range": 0, "store_range": 0}


def test_zero_length_blocks_are_noops(warm):
    rt, env, arr, _ = warm
    before = rt.read_array("a")
    for at in (5, WPP, 6 * WPP):
        assert env.get_block(arr, at, at).shape == (0,)
        env.set_block(arr, at, np.empty(0))
        env.set_block(arr, at, [])
    np.testing.assert_array_equal(rt.read_array("a"), before)


@pytest.mark.parametrize("values", [
    np.arange(150),                      # int64: cast, not reinterpreted
    list(range(150)),                    # not a buffer at all
    np.arange(300.0)[::2],               # strided float64
    np.arange(150, dtype=np.float32),    # narrower float
], ids=["int", "list", "strided", "float32"])
def test_multipage_set_block_casts_like_ndarray_assignment(warm, values):
    """The warm path stores any source as one slice of owner memory,
    with no dispatch: the same words as ndarray assignment and as the
    forced slow path, which stores page by page."""
    rt, env, arr, counts = warm
    expected = rt.read_array("a")
    expected[40:190] = values
    env.set_block(arr, 40, values)
    np.testing.assert_array_equal(rt.read_array("a"), expected)
    np.testing.assert_array_equal(env.get_block(arr, 0, 6 * WPP), expected)
    assert counts == {"load_range": 0, "store_range": 0}
    slow_rt, slow_env, _, slow_counts = _warm(fastpath=False)
    slow_env.set_block(arr, 40, values)
    assert slow_counts["store_range"] == 3
    assert slow_rt.read_array("a").tobytes() == rt.read_array("a").tobytes()


@pytest.mark.parametrize("pages", [2, 3, 4, 5])
def test_multipage_get_block_returns_a_private_copy(warm, pages):
    """The aliasing regression of ``test_fastpath``, for spans the warm
    path serves as one slice of the owner's memory."""
    rt, env, arr, counts = warm
    lo, hi = 30, 30 + (pages - 1) * WPP + 10
    block = env.get_block(arr, lo, hi)
    assert not any(np.shares_memory(block, frame)
                   for frame in rt.protocol.owners[0].frames.values())
    block[:] = -5.0
    np.testing.assert_array_equal(env.get_block(arr, lo, hi),
                                  np.arange(float(lo), float(hi)))
    np.testing.assert_array_equal(rt.read_array("a"),
                                  np.arange(6.0 * WPP))
    assert counts == {"load_range": 0, "store_range": 0}


def test_partly_cold_span_falls_back_to_dispatch(warm):
    """One missing page anywhere in the span: the general method runs,
    faults exactly that page, and serves the rest from the maps."""
    rt, env, arr, counts = warm
    rec = rt.protocol.owners[0]
    rec.set_perm(2, 0, Perm.INVALID)
    assert 2 not in rec.rmaps[0] and 2 not in rec.wmaps[0]
    expected = rt.read_array("a")
    np.testing.assert_array_equal(env.get_block(arr, 0, 6 * WPP), expected)
    assert counts == {"load_range": 1, "store_range": 0}
    env.set_block(arr, WPP, np.zeros(3 * WPP))
    assert counts == {"load_range": 1, "store_range": 1}
    expected[WPP:4 * WPP] = 0.0
    np.testing.assert_array_equal(rt.read_array("a"), expected)
    assert checked_mappings(rt.protocol) == 12
