"""Unit tests for the simulated Memory Channel."""

import pytest

from repro.config import MachineConfig
from repro.errors import MemoryChannelError
from repro.memchannel.network import MC_WORD_BYTES, MemoryChannel
from repro.memchannel.regions import MappingTable, MCRegion, VersionedWord
from repro.sim.engine import Simulator


class TestVersionedWord:
    def test_initial_value_visible_at_time_zero(self):
        w = VersionedWord(7)
        assert w.read(0.0) == 7

    def test_write_invisible_before_visibility_time(self):
        w = VersionedWord(0)
        w.write(10.0, 1)
        assert w.read(9.99) == 0
        assert w.read(10.0) == 1

    def test_reader_sees_latest_visible_write(self):
        w = VersionedWord(0)
        w.write(5.0, 1)
        w.write(8.0, 2)
        assert w.read(6.0) == 1
        assert w.read(9.0) == 2

    def test_hub_enforces_write_ordering(self):
        # A later-accepted write cannot become visible before an earlier one.
        w = VersionedWord(0)
        w.write(10.0, 1)
        w.write(7.0, 2)  # accepted second: ordered after the first
        assert w.read(9.0) == 0
        assert w.read(11.0) == 2
        times = [t for t, _ in w._history]
        assert times == sorted(times)

    def test_history_pruning_keeps_latest(self):
        w = VersionedWord(0)
        for i in range(50):
            w.write(float(i), i)
        assert w.latest() == 49
        assert w.read(100.0) == 49


class TestMCRegion:
    def test_post_and_read(self):
        sim = Simulator()
        region = MCRegion(sim, "r", 4)
        region.post(2, 9, visible_at=5.0)
        sim.run()
        assert region.read(2, 6.0) == 9
        assert region.read(2, 4.0) == 0

    def test_post_fires_condition_at_visibility(self):
        sim = Simulator()
        region = MCRegion(sim, "r", 1)
        woken = []
        region.visible.park(0.0, lambda at: woken.append(at))
        region.post(0, 1, visible_at=7.0)
        sim.run()
        assert woken == [7.0]

    def test_waiter_parked_after_post_still_woken(self):
        # Regression: the fire must be scheduled even with no waiters yet.
        sim = Simulator()
        region = MCRegion(sim, "r", 1)
        woken = []
        region.post(0, 1, visible_at=7.0)
        sim.schedule(1.0, lambda: region.visible.park(
            1.0, lambda at: woken.append(at)))
        sim.run()
        assert woken == [7.0]

    def test_unwaitable_region_schedules_nothing(self):
        # Event discipline (DESIGN.md §18): only a region someone can
        # park on pays a heap event per post. The words still record.
        sim = Simulator()
        region = MCRegion(sim, "r", 2, waitable=False)
        region.post(1, 9, visible_at=5.0)
        assert sim.pending_events == 0 and sim._seq == 0
        assert region.read(1, 6.0) == 9 and region.read(1, 4.0) == 0
        assert region.write_count == 1

    def test_waitable_region_schedules_one_fire_per_post(self):
        sim = Simulator()
        region = MCRegion(sim, "r", 2)
        region.post(0, 1, visible_at=5.0)
        region.post(1, 1, visible_at=3.0)
        assert sim.pending_events == 2
        sim.run()
        assert sim.now == 5.0

    def test_unreadable_region_keeps_size_and_count_only(self):
        sim = Simulator()
        region = MCRegion(sim, "r", 6, waitable=False, readable=False)
        for i in range(100):
            region.post(i % 6, 1, visible_at=float(i))
        assert len(region) == 6 and region.write_count == 100
        assert region.words == [] and sim.pending_events == 0

    def test_empty_region_rejected(self):
        with pytest.raises(MemoryChannelError):
            MCRegion(Simulator(), "r", 0)


class TestMappingTable:
    def test_allocation_within_budget(self):
        table = MappingTable(max_connections=10)
        table.allocate("a", 4)
        table.allocate("b", 6)
        assert table.used == 10

    def test_exhaustion_raises(self):
        table = MappingTable(max_connections=4)
        table.allocate("a", 3)
        with pytest.raises(MemoryChannelError, match="exhausted"):
            table.allocate("b", 2)

    def test_nonpositive_count_rejected(self):
        with pytest.raises(MemoryChannelError):
            MappingTable().allocate("a", 0)


class TestMemoryChannel:
    def make(self):
        sim = Simulator()
        return sim, MemoryChannel(sim, MachineConfig(nodes=2,
                                                     procs_per_node=1))

    def test_write_word_visibility_latency(self):
        sim, mc = self.make()
        region = mc.new_region("r", 2)
        visible = mc.write_word(region, 0, 42, at=10.0)
        assert visible == pytest.approx(10.0 + mc.latency)
        sim.run()
        assert region.read(0, visible) == 42

    def test_duplicate_region_name_rejected(self):
        _, mc = self.make()
        mc.new_region("r", 1)
        with pytest.raises(MemoryChannelError):
            mc.new_region("r", 1)

    def test_transfer_bandwidth(self):
        _, mc = self.make()
        send_done, visible = mc.transfer(0.0, 29000)  # 29 KB at 29 MB/s
        assert send_done == pytest.approx(1000.0)
        assert visible == pytest.approx(1000.0 + mc.latency)

    def test_concurrent_transfers_use_both_links(self):
        _, mc = self.make()
        d1, _ = mc.transfer(0.0, 29000)
        d2, _ = mc.transfer(0.0, 29000)
        d3, _ = mc.transfer(0.0, 29000)
        assert d1 == pytest.approx(1000.0)
        assert d2 == pytest.approx(1000.0)   # second link
        assert d3 == pytest.approx(2000.0)   # queued behind one of them

    def test_traffic_accounting(self):
        _, mc = self.make()
        region = mc.new_region("r", 1)
        mc.write_word(region, 0, 1, 0.0, category="sync")
        mc.transfer(0.0, 100, category="page")
        assert mc.traffic["sync"] == MC_WORD_BYTES
        assert mc.traffic["page"] == 100

    def test_negative_transfer_rejected(self):
        _, mc = self.make()
        with pytest.raises(MemoryChannelError):
            mc.transfer(0.0, -5)
