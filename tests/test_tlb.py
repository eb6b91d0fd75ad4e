"""The software TLB (DESIGN.md §9, "Per-page shootdown"): soundness as a
stated invariant, precision as a deterministic count, and the warm
multi-page block paths.

**The invariant.** Every read-map entry ``(page, frame)`` of local
processor ``p`` has ``rows[page][p] >= READ`` and ``frames[page] is
frame``; every write-map entry has ``rows[page][p] >= WRITE`` and wraps
that same frame. The page table evicts exactly the entries a permission
tightening, frame unmap or rebind kills, so an entry that is *present*
is valid — the warm access path checks nothing else.

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
from repro.runtime.env import WorkerEnv
from repro.runtime.program import ParallelRuntime
from repro.vm.page import FrameStore, Perm
from repro.vm.pagetable import PageTable

from .test_random_programs import N_WORDS, emulate, programs

SMALL = MachineConfig(nodes=2, procs_per_node=2, page_bytes=512)
PROTOCOLS = ["2L", "2LS", "1LD", "1L"]
WPP = 64  # words per 512-byte page


def assert_tlb_sound(proto) -> int:
    """Walk every cached mapping of every processor, asserting the
    invariant; returns how many entries were checked."""
    checked = 0
    for owner, table in enumerate(proto.tables):
        frames = proto.frames.frames_of(owner)
        for p in range(table.procs):
            for page, frame in table.rmaps[p].items():
                assert table.rows[page][p] >= Perm.READ, (owner, p, page)
                assert frames.get(page) is frame, (owner, p, page)
            for page, mv in table.wmaps[p].items():
                assert table.rows[page][p] >= Perm.WRITE, (owner, p, page)
                assert mv.obj is frames.get(page), (owner, p, page)
            checked += len(table.rmaps[p]) + len(table.wmaps[p])
    return checked


# ---------------------------------------------------------------------------
# (1) Unit: what each of the eviction doors drops, and what stays.
# ---------------------------------------------------------------------------

A, B = 0, 1


def _cached_table():
    """Pages A and B writable and cached for local processors 0 and 1."""
    table = PageTable(4, 2)
    store = FrameStore(1, 4, WPP, tables=[table])
    for page in (A, B):
        frame = store.map_frame(0, page)
        for p in (0, 1):
            table.set_perm(page, p, Perm.WRITE)
            table.rmaps[p][page] = frame
            table.wmaps[p][page] = memoryview(frame)
    return table, store


def test_tightening_evicts_one_page_of_one_processor():
    table, _ = _cached_table()
    table.set_perm(A, 0, Perm.READ)
    assert A not in table.wmaps[0] and A in table.rmaps[0]
    table.set_perm(A, 0, Perm.INVALID)
    assert A not in table.wmaps[0] and A not in table.rmaps[0]
    # Page B and processor 1 are untouched throughout.
    assert B in table.rmaps[0] and B in table.wmaps[0]
    assert sorted(table.rmaps[1]) == sorted(table.wmaps[1]) == [A, B]


def test_loosening_is_silent():
    table, _ = _cached_table()
    table.set_perm(A, 0, Perm.READ)
    table.set_perm(A, 0, Perm.WRITE)
    assert A in table.rmaps[0] and sorted(table.rmaps[1]) == [A, B]


def test_mapping_a_fresh_frame_evicts_nothing():
    table, store = _cached_table()
    store.map_frame(0, 2)
    store.map_frame(0, A, np.ones(WPP))  # existing frame: in-place update
    for p in (0, 1):
        assert sorted(table.rmaps[p]) == sorted(table.wmaps[p]) == [A, B]
    assert table.rmaps[0][A][0] == 1.0


def test_unmap_evicts_the_page_for_every_processor():
    table, store = _cached_table()
    store.unmap_frame(0, A)
    for p in (0, 1):
        assert sorted(table.rmaps[p]) == sorted(table.wmaps[p]) == [B]


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
    assert assert_tlb_sound(rt.protocol) > 0  # the walk was not vacuous


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
            self.walked += assert_tlb_sound(env._protocol)  # mid-round state
            yield from env.barrier()
            self.walked += assert_tlb_sound(env._protocol)

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


@pytest.fixture(params=[False, True], ids=["plain", "metrics"])
def warm(request):
    """``(rt, env, arr, counts)`` with all six pages read- and
    write-warm; ``counts`` tallies block dispatches from here on."""
    cfg = MachineConfig(nodes=1, procs_per_node=1, page_bytes=512,
                        metrics=request.param)
    rt = ParallelRuntime(_Scratch(), {}, cfg, "2L")
    rt.protocol.end_initialization()
    env = WorkerEnv(rt, rt.cluster.processors[0])
    arr = rt.segment.array("a")
    env.set_block(arr, 0, np.arange(6.0 * WPP))
    env.get_block(arr, 0, 6 * WPP)
    return rt, env, arr, _count_dispatches(rt.protocol)


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
    rt, env, arr, _ = warm
    expected = rt.read_array("a")
    expected[40:190] = values
    env.set_block(arr, 40, values)
    np.testing.assert_array_equal(rt.read_array("a"), expected)
    np.testing.assert_array_equal(env.get_block(arr, 0, 6 * WPP), expected)


@pytest.mark.parametrize("pages", [2, 3, 4, 5])
def test_multipage_get_block_returns_a_private_copy(warm, pages):
    """The aliasing regression of ``test_fastpath``, for spans the warm
    path serves by concatenating frame slices."""
    rt, env, arr, counts = warm
    lo, hi = 30, 30 + (pages - 1) * WPP + 10
    block = env.get_block(arr, lo, hi)
    assert not any(np.shares_memory(block, frame)
                   for frame in rt.protocol.frames.frames_of(0).values())
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
    table = rt.protocol.tables[0]
    table.set_perm(2, 0, Perm.INVALID)
    assert 2 not in table.rmaps[0] and 2 not in table.wmaps[0]
    expected = rt.read_array("a")
    np.testing.assert_array_equal(env.get_block(arr, 0, 6 * WPP), expected)
    assert counts == {"load_range": 1, "store_range": 0}
    env.set_block(arr, WPP, np.zeros(3 * WPP))
    assert counts == {"load_range": 1, "store_range": 1}
    expected[WPP:4 * WPP] = 0.0
    np.testing.assert_array_equal(rt.read_array("a"), expected)
    assert assert_tlb_sound(rt.protocol) == 12
