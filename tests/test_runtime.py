"""Tests for the runtime layer: segment allocation, block access across
pages, sequential runner, result extraction, statistics plumbing."""

import numpy as np
import pytest

from repro import MachineConfig, run_app, run_sequential
from repro.apps.base import Application, split_range
from repro.errors import ConfigError, DeadlockError, SimulationError
from repro.runtime.api import SharedSegment
from repro.runtime.program import ParallelRuntime

CFG = MachineConfig(nodes=2, procs_per_node=2, page_bytes=512)


class TestSharedSegment:
    def test_page_aligned_allocation(self):
        seg = SharedSegment(CFG)
        a = seg.alloc("a", 10)
        b = seg.alloc("b", 10)
        assert a.base == 0
        assert b.base == 64  # next page boundary (64 words/page)

    def test_duplicate_name_rejected(self):
        seg = SharedSegment(CFG)
        seg.alloc("a", 1)
        with pytest.raises(ConfigError):
            seg.alloc("a", 1)

    def test_exhaustion_mentions_remedy(self):
        seg = SharedSegment(CFG)
        with pytest.raises(ConfigError, match="shared_bytes"):
            seg.alloc("big", CFG.shared_bytes)


class _BlockEcho(Application):
    """Toy app: rank 0 writes a pattern spanning pages; all ranks verify."""

    name = "BlockEcho"

    def default_params(self):
        return {"n": 200}

    small_params = default_params

    def declare(self, segment, params):
        segment.alloc("data", params["n"])

    def worker(self, env, params):
        n = params["n"]
        data = env.arr("data")
        if env.rank == 0:
            env.set_block(data, 0, np.arange(n, dtype=float))
            yield env.compute(10.0)
        env.end_init()
        yield from env.barrier()
        got = env.get_block(data, 5, n - 5)
        assert (got == np.arange(5, n - 5, dtype=float)).all()
        yield env.compute(1.0)

    def result_arrays(self, params):
        return ["data"]


class TestBlockAccess:
    def test_cross_page_blocks_roundtrip(self):
        app = _BlockEcho()
        result = run_app(app, app.default_params(), CFG, "2L")
        assert (result.array("data") == np.arange(200, dtype=float)).all()

    def test_scalar_and_block_agree(self):
        app = _BlockEcho()
        rt = ParallelRuntime(app, app.default_params(), CFG, "2L")
        res = rt.run()
        arr = res.array("data")
        assert arr[77] == 77.0


class TestSequentialRunner:
    def test_time_is_compute_plus_memory(self):
        class Tiny(Application):
            name = "Tiny"

            def declare(self, segment, params):
                segment.alloc("x", 8)

            def worker(self, env, params):
                yield env.compute(10.0, mem_bytes=180.0)  # 1 us of bus

            def result_arrays(self, params):
                return ["x"]

        env, t = run_sequential(Tiny(), {}, CFG)
        assert t == pytest.approx(11.0)

    def test_sequential_rejects_wait_instructions(self):
        class Bad(Application):
            name = "Bad"

            def declare(self, segment, params):
                segment.alloc("x", 8)

            def worker(self, env, params):
                from repro.sim.engine import Condition, Simulator
                from repro.sim.process import Wait
                yield Wait(Condition(Simulator(), name="c"), lambda: True)

            def result_arrays(self, params):
                return ["x"]

        with pytest.raises(SimulationError, match="non-compute"):
            run_sequential(Bad(), {}, CFG)

    def test_sequential_flag_deadlock_detected(self):
        class Stuck(Application):
            name = "Stuck"

            def flags_needed(self, params):
                return {"f": 1}

            def declare(self, segment, params):
                segment.alloc("x", 8)

            def worker(self, env, params):
                yield from env.flag_wait("f", 0)

            def result_arrays(self, params):
                return ["x"]

        with pytest.raises(SimulationError, match="deadlock"):
            run_sequential(Stuck(), {}, CFG)


class TestResultExtraction:
    def test_exclusive_pages_read_from_holder(self):
        # An app that leaves a page in exclusive mode at the end: the
        # extraction must read the holder's frame, not the stale master.
        class Leaver(Application):
            name = "Leaver"

            def declare(self, segment, params):
                segment.alloc("x", 8)

            def worker(self, env, params):
                env.end_init()
                yield from env.barrier()
                if env.rank == 1:
                    env.set(env.arr("x"), 0, 42.0)
                yield env.compute(1.0)

            def result_arrays(self, params):
                return ["x"]

        result = run_app(Leaver(), {}, CFG, "2L")
        assert result.array("x")[0] == 42.0


class _Kernel(Application):
    """Wrap a bare worker generator function in the Application API."""

    name = "Kernel"

    def __init__(self, fn):
        self._fn = fn

    def declare(self, segment, params):
        segment.alloc("x", 8)

    def worker(self, env, params):
        return self._fn(env)

    def result_arrays(self, params):
        return ["x"]


class TestSyncMisuse:
    """Lock and barrier misuse in a kernel fails the run loudly."""

    def test_lock_held_at_exit_raises(self):
        # Nobody contends, so no deadlock exposes the leak: only the
        # end-of-run check does.
        def leak(env):
            yield from env.barrier()
            if env.rank == 0:
                yield from env.acquire(0)
            yield env.compute(1.0)

        with pytest.raises(SimulationError,
                           match="lock 0 still held by processor 0"):
            run_app(_Kernel(leak), {}, CFG, "2L")

    def test_release_of_unheld_lock_raises(self):
        def stray(env):
            yield from env.barrier()
            if env.rank == 1:
                env.release(0)
            yield env.compute(1.0)

        with pytest.raises(SimulationError,
                           match="processor 1 does not hold lock 0"):
            run_app(_Kernel(stray), {}, CFG, "2L")

    def test_divergent_barrier_deadlocks(self):
        def diverge(env):
            if env.rank == 0:
                yield from env.barrier()
            yield env.compute(1.0)

        with pytest.raises(DeadlockError):
            run_app(_Kernel(diverge), {}, CFG, "2L")


class TestStatsPlumbing:
    def test_table3_row_has_all_fields(self):
        from repro.apps import make_app
        app = make_app("SOR")
        run = run_app(app, app.small_params(), CFG, "2L")
        row = run.stats.table3_row()
        expected_keys = {
            "exec_time_s", "lock_flag_acquires", "barriers", "read_faults",
            "write_faults", "page_transfers", "directory_updates",
            "write_notices", "excl_transitions", "data_mbytes",
            "twin_creations", "incoming_diffs", "flush_updates",
            "shootdowns"}
        assert set(row) == expected_keys
        assert row["barriers"] > 0
        assert row["data_mbytes"] > 0

    def test_breakdown_fractions_sum_to_one(self):
        from repro.apps import make_app
        app = make_app("SOR")
        run = run_app(app, app.small_params(), CFG, "2L")
        fracs = run.stats.breakdown_fractions()
        assert sum(fracs.values()) == pytest.approx(1.0)
        assert fracs["user"] > 0
        assert fracs["protocol"] > 0

    def test_exec_time_is_max_processor_clock(self):
        from repro.apps import make_app
        app = make_app("SOR")
        rt = ParallelRuntime(app, app.small_params(), CFG, "2L")
        res = rt.run()
        assert res.stats.exec_time_us == pytest.approx(
            max(p.clock for p in rt.cluster.processors))


class TestSplitRange:
    def test_covers_everything_once(self):
        for n in (0, 1, 7, 16, 33):
            for parts in (1, 2, 5, 8):
                covered = []
                for w in range(parts):
                    lo, hi = split_range(n, parts, w)
                    covered.extend(range(lo, hi))
                assert covered == list(range(n))

    def test_balanced(self):
        sizes = [split_range(10, 3, w) for w in range(3)]
        lens = [hi - lo for lo, hi in sizes]
        assert max(lens) - min(lens) <= 1


@pytest.mark.parametrize("protocol, home_opt, lu, field", [
    ("3L", False, {"n": 32, "block": 8}, "protocol"),
    ("2L", True, {"n": 32, "block": 8}, "home_opt"),
    ("2L", False, {"n": 30, "block": 8}, "block"),
], ids=["unknown-protocol", "home_opt-on-2L", "lu-n-not-multiple"])
def test_bad_user_input_raises_config_error(protocol, home_opt, lu, field):
    """Bad user input surfaces as a typed error naming the field."""
    from repro.apps import make_app
    with pytest.raises(ConfigError, match=field):
        run_app(make_app("LU"), lu, CFG, protocol, home_opt=home_opt)
