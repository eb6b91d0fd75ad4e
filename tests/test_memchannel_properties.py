"""Property-based tests for Memory Channel visibility semantics and the
superpage / mapping-table machinery."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import MachineConfig
from repro.errors import MemoryChannelError
from repro.memchannel.regions import VersionedWord
from repro.runtime.program import ParallelRuntime
from repro.apps import make_app

pytestmark = pytest.mark.heavy  # long hypothesis suite


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 1000), st.integers(0, 99)),
                min_size=1, max_size=30),
       st.integers(0, 2000))
def test_versioned_word_reader_sees_latest_visible(writes, read_at):
    """A reader observes exactly the last write whose (possibly
    ordering-adjusted) visibility time is <= its clock.

    Times are integers (well away from the sub-microsecond hub-ordering
    and read-tolerance epsilons) so the reference model is exact.
    """
    w = VersionedWord(-1)
    applied = []  # (effective_visible_at, value) in hub order
    last = 0.0
    for visible_at, value in writes:
        effective = visible_at if visible_at >= last else last + 1e-6
        w.write(float(visible_at), value)
        applied.append((effective, value))
        last = effective

    expected = -1
    for visible_at, value in applied:
        if visible_at <= read_at + 1e-6:
            expected = value
    # Only the most recent retained history can be checked after pruning
    # (the initial value occupies one of the 8 retained slots).
    if len(applied) < 8 or read_at >= applied[-7][0]:
        assert w.read(float(read_at)) == expected


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(0, 100), min_size=2, max_size=20))
def test_versioned_word_monotone_reads(times):
    """Reading at later clocks never observes an older write."""
    w = VersionedWord(0)
    for i, t in enumerate(times):
        w.write(t, i + 1)
    seen = [w.read(at) for at in sorted([0.0, 25.0, 50.0, 75.0, 1000.0])]
    assert seen == sorted(seen)


class TestSuperpages:
    def test_mapping_table_budget_enforced(self):
        # With tiny superpages and many locks, the 64K-connection budget is
        # load-bearing: page regions consume nodes x superpages entries.
        cfg = MachineConfig(nodes=2, procs_per_node=1, page_bytes=512,
                            shared_bytes=512 * 8, superpage_pages=1)
        from repro.cluster.machine import Cluster
        cluster = Cluster(cfg)
        with pytest.raises(MemoryChannelError):
            for i in range(100000):
                cluster.mc.new_region(f"r{i}", 1)

    def test_superpage_homes_move_together(self):
        app = make_app("SOR")
        cfg = MachineConfig(nodes=4, procs_per_node=1, page_bytes=512,
                            superpage_pages=4)
        rt = ParallelRuntime(app, app.small_params(), cfg, "2L")
        rt.run()
        directory = rt.protocol.directory
        per = rt.config.superpage_pages
        for sp_start in range(0, rt.config.num_pages, per):
            homes = {directory.home(p)
                     for p in range(sp_start,
                                    min(sp_start + per,
                                        rt.config.num_pages))}
            assert len(homes) == 1, (
                f"superpage at {sp_start} has split homes {homes}")

    def test_relocation_happens_at_most_once_per_superpage(self):
        app = make_app("Em3d")
        cfg = MachineConfig(nodes=4, procs_per_node=2, page_bytes=512,
                            superpage_pages=2)
        rt = ParallelRuntime(app, app.small_params(), cfg, "2L")
        res = rt.run()
        sp_count = (rt.config.num_pages + 1) // 2
        assert res.stats.counter("home_relocations") <= sp_count

