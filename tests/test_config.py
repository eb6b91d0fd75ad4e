"""Unit tests for machine configuration and the cost model."""

import pytest

from repro.config import (CostModel, MachineConfig, PLACEMENTS, Protocol,
                          placement_config)
from repro.errors import ConfigError


class TestProtocolEnum:
    def test_two_level_flags(self):
        assert Protocol.CSM_2L.two_level
        assert Protocol.CSM_2LS.two_level
        assert not Protocol.CSM_1LD.two_level
        assert not Protocol.CSM_1L.two_level

    def test_from_string(self):
        assert Protocol("2L") is Protocol.CSM_2L
        assert Protocol("1LD") is Protocol.CSM_1LD


class TestMachineConfig:
    def test_paper_defaults(self):
        cfg = MachineConfig()
        assert cfg.nodes == 8
        assert cfg.procs_per_node == 4
        assert cfg.total_procs == 32
        assert cfg.page_bytes == 8192
        assert cfg.words_per_page == 1024

    def test_page_geometry(self):
        cfg = MachineConfig(page_bytes=512)
        assert cfg.page_shift == 9
        assert cfg.words_per_page == 64

    @pytest.mark.parametrize("field,value", [
        ("nodes", 0),
        ("procs_per_node", 0),
        ("page_bytes", 4),     # below one word
        ("page_bytes", 500),   # not a multiple of 8
        ("page_bytes", 520),   # not a power of two
        ("shared_bytes", 1000),
        ("superpage_pages", 0),
        ("barrier", "ring"),
    ])
    def test_invalid_configs_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            MachineConfig(**{field: value})

    def test_with_placement(self):
        cfg = MachineConfig().with_placement(24, 3)
        assert cfg.nodes == 8
        assert cfg.procs_per_node == 3
        with pytest.raises(ConfigError):
            MachineConfig().with_placement(10, 4)

    def test_all_paper_placements_valid(self):
        for name in PLACEMENTS:
            cfg = placement_config(name)
            total, per_node = PLACEMENTS[name]
            assert cfg.total_procs == total
            assert cfg.procs_per_node == per_node

    def test_unknown_placement_rejected(self):
        with pytest.raises(ConfigError):
            placement_config("13:5")


class TestCostScaling:
    def test_twin_cost_scales_with_page_size(self):
        full = MachineConfig(page_bytes=8192)
        half = MachineConfig(page_bytes=4096)
        assert half.twin_cost() == pytest.approx(full.twin_cost() / 2)
        assert full.twin_cost() == pytest.approx(199.0)

    def test_diff_out_cost_interpolates(self):
        cfg = MachineConfig(page_bytes=8192)
        empty = cfg.diff_out_cost(0, remote_home=True)
        fullp = cfg.diff_out_cost(8192, remote_home=True)
        assert empty == pytest.approx(290.0)
        assert fullp == pytest.approx(363.0)
        mid = cfg.diff_out_cost(4096, remote_home=True)
        assert empty < mid < fullp

    def test_local_diff_costs_more_than_remote(self):
        # Table 1: writing to uncacheable I/O space avoids cache pollution.
        cfg = MachineConfig(page_bytes=8192)
        assert cfg.diff_out_cost(4096, remote_home=False) > \
            cfg.diff_out_cost(4096, remote_home=True)

    def test_diff_in_cost_range(self):
        cfg = MachineConfig(page_bytes=8192)
        assert cfg.diff_in_cost(0) == pytest.approx(533.0)
        assert cfg.diff_in_cost(8192) == pytest.approx(541.0)

    def test_diff_cost_clamps_oversized(self):
        cfg = MachineConfig(page_bytes=8192)
        assert cfg.diff_out_cost(10 ** 6, True) == pytest.approx(363.0)

    def test_interrupt_costs(self):
        cfg = MachineConfig()
        assert cfg.interrupt_cost(same_node=True) == 80.0
        assert cfg.interrupt_cost(same_node=False) == 445.0
        slow = MachineConfig(fast_interrupts=False)
        assert slow.interrupt_cost(same_node=True) == 980.0

    @pytest.mark.parametrize("field,value", [
        ("mc_link_bandwidth", 0.0),
        ("mc_aggregate_bandwidth", -60.0),
        ("node_bus_bandwidth", -180.0),
        ("mc_latency", -5.2),
        ("page_fault", float("nan")),
        ("mprotect", float("inf")),
    ])
    def test_bad_cost_rejected_naming_field(self, field, value):
        with pytest.raises(ConfigError, match=field):
            CostModel(**{field: value})

    def test_zero_cost_is_legal(self):
        assert CostModel(mc_word_write=0.0).mc_word_write == 0.0

    def test_paper_mc_constants(self):
        costs = CostModel()
        assert costs.mc_latency == pytest.approx(5.2)
        assert costs.mc_link_bandwidth == pytest.approx(29.0)
        assert costs.mprotect == pytest.approx(55.0)
        assert costs.page_fault == pytest.approx(72.0)
        assert costs.dir_update == pytest.approx(5.0)
        assert costs.dir_update_locked == pytest.approx(16.0)
        assert costs.shootdown_polled == pytest.approx(72.0)
        assert costs.shootdown_interrupt == pytest.approx(142.0)
