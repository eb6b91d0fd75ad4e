"""Shared experiment configuration.

The experiments run the paper's evaluation at *scaled* geometry: 512-byte
pages and proportionally scaled application data sets, with the same
8-node x 4-processor cluster topology and the same placements. Page-size
dependent costs scale linearly from the paper's 8 Kbyte measurements
(see :class:`repro.config.MachineConfig`), and per-application compute
costs are calibrated so computation-to-communication ratios — the
quantity the evaluation's shape depends on — are representative.
"""

from __future__ import annotations

from ..config import MachineConfig, PLACEMENTS

#: Page size used throughout the scaled evaluation.
EXPERIMENT_PAGE_BYTES = 512

#: The full 32-processor platform (Table 3 / Figure 6 configuration).
FULL_PLATFORM = MachineConfig(nodes=8, procs_per_node=4,
                              page_bytes=EXPERIMENT_PAGE_BYTES)

#: Placement order used in Figure 7's bars.
PLACEMENT_ORDER = ("4:1", "4:4", "8:1", "8:2", "8:4",
                   "16:2", "16:4", "24:3", "32:4")

#: Reduced placement set for quick benchmark runs.
QUICK_PLACEMENTS = ("4:1", "8:4", "32:4")

#: The four protocols in the paper's presentation order.
PROTOCOL_ORDER = ("2L", "2LS", "1LD", "1L")

#: Table 2 application order.
APP_ORDER = ("SOR", "LU", "Water", "TSP", "Gauss", "Ilink", "Em3d",
             "Barnes")


def experiment_config(placement: str = "32:4") -> MachineConfig:
    """Machine configuration for a named placement at experiment scale."""
    total, per_node = PLACEMENTS[placement]
    return FULL_PLATFORM.with_placement(total, per_node)
