"""The inline page-access cache (fast path): determinism and edge cases.

The fast path is a pure wall-clock optimization — a warm access skips
protocol dispatch entirely, which is only sound if the skipped dispatch
would have charged nothing and mutated nothing. The determinism tests
enforce that end to end: a run with the fast path enabled must produce
**byte-identical** statistics and final data to the same run forced down
the slow path, for every protocol, with and without the observers
(checker + tracer) attached.

The edge-case tests exercise the block paths (empty ranges, page
boundaries, multi-page spans, dtype/stride oddities) and the aliasing
contract: ``get_block`` always returns a private copy even when served
from the cache, because the protocol's ``load_range`` hands back a live
view of the owner's frame.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro import MachineConfig, run_app
from repro.apps import make_app
from repro.apps.base import Application
from repro.errors import SimulationError
from repro.runtime.api import SharedSegment
from repro.runtime.env import WorkerEnv
from repro.runtime.program import ParallelRuntime
from repro.runtime.sequential import SequentialEnv

SMALL = MachineConfig(nodes=2, procs_per_node=2, page_bytes=512)
OBSERVED = replace(SMALL, checking=True, tracing=True)


def _fingerprint(result, app):
    """Everything a run produces, for byte-identical comparison."""
    stats = result.stats
    return (
        stats.exec_time_us,
        dict(stats.aggregate.counters),
        dict(stats.aggregate.buckets),
        stats.mc_traffic_bytes,
        [(dict(ps.counters), dict(ps.buckets)) for ps in stats.per_proc],
        {name: result.array(name).tobytes()
         for name in app.result_arrays(app.small_params())},
    )


# ---------------------------------------------------------------------------
# Determinism: fast path vs forced slow path.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("protocol", ["2L", "2LS", "1LD", "1L"])
@pytest.mark.parametrize("app_name", ["SOR", "Water", "Gauss"])
@pytest.mark.parametrize("observers", ["off", "on"])
def test_fastpath_matches_forced_slowpath(app_name, protocol, observers):
    cfg = SMALL if observers == "off" else OBSERVED
    if app_name == "Gauss":
        # 8-word pages: the small problem's 25-word rows then span four
        # pages, like the default geometry's (225 words on 64-word
        # pages) — the warm multi-page block paths.
        cfg = replace(cfg, page_bytes=64)
    app = make_app(app_name)
    fast = run_app(app, app.small_params(), cfg, protocol)
    slow_app = make_app(app_name)
    slow = run_app(slow_app, slow_app.small_params(),
                   replace(cfg, fastpath=False), protocol)
    assert _fingerprint(fast, app) == _fingerprint(slow, slow_app)


def _count_master_straddles(monkeypatch) -> list[int]:
    """Count general block calls whose span is all in the map and
    includes a page mapped to the one-level master (home-node
    optimization): spans the warm path declines to slice."""
    count = [0]
    for name, cache in (("get_block", "_rmap"), ("set_block", "_wmap")):
        fn = getattr(WorkerEnv, name)

        def counted(env, arr, lo, hi_or_values, _fn=fn, _name=name,
                    _cache=cache):
            hi = hi_or_values if _name == "get_block" \
                else lo + len(hi_or_values)
            pages = range((arr.base + lo) >> env._shift,
                          ((arr.base + hi - 1) >> env._shift) + 1)
            cached = getattr(env, _cache)
            master = env._protocol.master
            if len(pages) > 1 and all(p in cached for p in pages) and any(
                    (cached[p] if _name == "get_block" else cached[p].obj)
                    is master(p) for p in pages):
                count[0] += 1
            return _fn(env, arr, lo, hi_or_values)
        monkeypatch.setattr(WorkerEnv, name, counted)
    return count


@pytest.mark.parametrize("protocol", ["1LD", "1L"])
@pytest.mark.parametrize("app_name", ["Gauss", "LU"])
def test_home_node_straddles_match_forced_slowpath(app_name, protocol,
                                                   monkeypatch):
    """Under the home-node optimization a processor maps the one-level
    master beside slots of its own memory, so a block can straddle
    both: the warm path hands it to the general method, which must be
    byte-identical to the forced slow path (8-word pages: multi-page
    rows and blocks)."""
    straddles = _count_master_straddles(monkeypatch)
    cfg = replace(SMALL, page_bytes=64)
    app = make_app(app_name)
    fast = run_app(app, app.small_params(), cfg, protocol, home_opt=True)
    assert straddles[0] > 0
    slow_app = make_app(app_name)
    slow = run_app(slow_app, slow_app.small_params(),
                   replace(cfg, fastpath=False), protocol, home_opt=True)
    assert _fingerprint(fast, app) == _fingerprint(slow, slow_app)


def test_config_flag_forces_slow_path():
    app = make_app("SOR")
    rt = ParallelRuntime(app, app.small_params(),
                         replace(SMALL, fastpath=False), "2L")
    env = WorkerEnv(rt, rt.cluster.processors[0])
    assert not env._fast_read and not env._fast_write
    rt_on = ParallelRuntime(app, app.small_params(), SMALL, "2L")
    env_on = WorkerEnv(rt_on, rt_on.cluster.processors[0])
    assert env_on._fast_read and env_on._fast_write


def test_checker_sees_every_per_word_access():
    """With checking on, the fast path must not swallow access events."""
    checked = replace(SMALL, checking=True)
    app = make_app("SOR")
    fast = run_app(app, app.small_params(), checked, "2L")
    slow_app = make_app("SOR")
    slow = run_app(slow_app, slow_app.small_params(),
                   replace(checked, fastpath=False), "2L")
    n = fast.stats.aggregate.counters["check_events"]
    assert n > 0
    assert n == slow.stats.aggregate.counters["check_events"]


def test_checker_disables_caches_tracer_does_not():
    app = make_app("SOR")
    rt = ParallelRuntime(app, app.small_params(),
                         replace(SMALL, checking=True), "2L")
    env = WorkerEnv(rt, rt.cluster.processors[0])
    assert not env._fast_read and not env._fast_write

    app2 = make_app("SOR")
    rt2 = ParallelRuntime(app2, app2.small_params(),
                          replace(SMALL, tracing=True), "2L")
    env2 = WorkerEnv(rt2, rt2.cluster.processors[0])
    # The event tracer only records faults and transfers, which warm
    # accesses never generate — the caches can stay on under tracing.
    assert env2._fast_read and env2._fast_write


def test_write_through_keeps_write_cache_off():
    """1L must keep doubling every store to the master copy."""
    rt, env, arr = _solo_env("1L")
    assert env._fast_read and not env._fast_write
    wpp = rt.config.words_per_page
    env.set(arr, 3, 7.5)
    env.set(arr, 3, 8.5)  # a cached write would skip the second doubling
    page, off = divmod(arr.base + 3, wpp)
    assert rt.protocol.master(page)[off] == 8.5


# ---------------------------------------------------------------------------
# Block-access edge cases (1 node x 1 proc, 512-byte pages = 64 words).
# ---------------------------------------------------------------------------

def _solo_env(protocol="2L"):
    app = make_app("SOR")
    rt = ParallelRuntime(app, app.small_params(),
                         MachineConfig(nodes=1, procs_per_node=1,
                                       page_bytes=512), protocol)
    rt.protocol.end_initialization()
    env = WorkerEnv(rt, rt.cluster.processors[0])
    # "red" is 18 * 8 = 144 words: spans three 64-word pages.
    return rt, env, rt.segment.array("red")


def test_empty_block_ranges_are_noops():
    rt, env, arr = _solo_env()
    env.set_block(arr, 0, np.arange(144.0))
    before = rt.read_array("red")
    assert env.get_block(arr, 5, 5).shape == (0,)
    env.set_block(arr, 5, np.empty(0))
    np.testing.assert_array_equal(rt.read_array("red"), before)


def test_blocks_at_page_boundaries():
    rt, env, arr = _solo_env()
    env.set_block(arr, 0, np.zeros(144))
    # Straddle the page 0 / page 1 boundary (words 63 and 64).
    env.set_block(arr, 63, np.array([1.0, 2.0]))
    assert list(env.get_block(arr, 63, 65)) == [1.0, 2.0]
    # Exactly page 1.
    env.set_block(arr, 64, np.arange(64.0))
    np.testing.assert_array_equal(env.get_block(arr, 64, 128),
                                  np.arange(64.0))
    # Scalar access at the same boundary agrees.
    assert env.get(arr, 63) == 1.0
    assert env.get(arr, 64) == 0.0


def test_three_page_span_roundtrip():
    rt, env, arr = _solo_env()
    data = np.arange(144.0) * 1.5
    env.set_block(arr, 0, data)
    np.testing.assert_array_equal(env.get_block(arr, 0, 144), data)
    # The authoritative (protocol-side) contents agree word for word.
    np.testing.assert_array_equal(rt.read_array("red"), data)
    # Repeat warm: both accesses now hit the cache, same answer.
    np.testing.assert_array_equal(env.get_block(arr, 0, 144), data)


def test_get_block_returns_private_copy():
    """Aliasing regression: load_range yields a live frame view, and
    get_block must be the copying boundary — warm or cold."""
    rt, env, arr = _solo_env()
    env.set_block(arr, 0, np.arange(144.0))
    cold = env.get_block(arr, 0, 16)     # first read: cold path
    cold[:] = -99.0
    assert env.get(arr, 0) == 0.0
    warm = env.get_block(arr, 0, 16)     # second read: cache hit
    assert warm[0] == 0.0
    warm[:] = -77.0
    np.testing.assert_array_equal(env.get_block(arr, 0, 16),
                                  np.arange(16.0))
    np.testing.assert_array_equal(rt.read_array("red")[:16],
                                  np.arange(16.0))


class _TwoArrays(Application):
    """A 100-word array (padded to two 64-word pages) and its page-
    aligned neighbour."""

    name = "TwoArrays"

    def declare(self, segment, params):
        segment.alloc("a", 100)
        segment.alloc("b", 128)


def _bounds_env(kind):
    """``(env, a, read_b)`` for a sequential, a warm parallel or a
    forced-slow parallel env, with every page of both arrays mapped."""
    cfg = MachineConfig(nodes=1, procs_per_node=1, page_bytes=512,
                        fastpath=kind != "general")
    if kind == "sequential":
        segment = SharedSegment(cfg)
        _TwoArrays().declare(segment, {})
        env = SequentialEnv(cfg, segment)
        b = segment.array("b")
        return env, segment.array("a"), \
            lambda: env.mem[b.base:b.base + b.length].copy()
    rt = ParallelRuntime(_TwoArrays(), {}, cfg, "2L")
    rt.protocol.end_initialization()
    env = WorkerEnv(rt, rt.cluster.processors[0])
    for name in ("a", "b"):
        arr = rt.segment.array(name)
        env.set_block(arr, 0, np.zeros(arr.length))
        env.get_block(arr, 0, arr.length)
    return env, rt.segment.array("a"), lambda: rt.read_array("b")


@pytest.mark.parametrize("kind", ["sequential", "warm", "general"])
@pytest.mark.parametrize("op,lo,hi", [
    ("get", -1, 10),
    ("get", 10, 5),
    ("get", 90, 101),         # past the end, inside the array's page
    ("get", 60, 200),         # into the neighbouring array
    ("get", 0, 10 ** 7),      # past the shared segment
    ("set", -1, 4),
    ("set", 95, 105),
    ("set", 60, 200),
])
def test_block_outside_its_array_raises(kind, op, lo, hi):
    """Every env rejects a block access outside its array the same
    way, and stores nothing; a neighbouring array is never read or
    written through it."""
    env, a, read_b = _bounds_env(kind)
    message = rf"block \[{lo}, {hi}\) outside array 'a' of length 100"
    with pytest.raises(SimulationError, match=message):
        if op == "get":
            env.get_block(a, lo, hi)
        else:
            env.set_block(a, lo, np.ones(hi - lo))
    np.testing.assert_array_equal(read_b(), np.zeros(128))


def test_set_block_casts_and_handles_strides():
    rt, env, arr = _solo_env()
    env.set_block(arr, 0, np.zeros(144))
    # Integer source: cast like ndarray assignment would.
    env.set_block(arr, 0, np.arange(8))
    np.testing.assert_array_equal(env.get_block(arr, 0, 8), np.arange(8.0))
    # Non-contiguous source (every other element of a larger array).
    env.set_block(arr, 8, np.arange(16.0)[::2])
    np.testing.assert_array_equal(env.get_block(arr, 8, 16),
                                  np.arange(0.0, 16.0, 2.0))
    # Multi-page write with an integer source.
    env.set_block(arr, 60, np.arange(10))
    np.testing.assert_array_equal(env.get_block(arr, 60, 70),
                                  np.arange(10.0))
