"""Machine, network, and cost-model configuration.

Every timing constant measured in the paper (Section 3.1, Table 1, and the
Memory Channel characteristics of Section 2.1) lives here, expressed in
microseconds. The simulation charges these costs; nothing else in the
package hard-codes a time.

The defaults describe the paper's platform: an 8-node cluster of 4-processor
DEC AlphaServer 2100 4/233 machines on a first-generation Memory Channel.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, fields, replace

from .errors import ConfigError

#: Bytes per shared-memory word. The Alpha reads/writes 32 bits atomically,
#: but application data is 64-bit; we simulate 64-bit words and count bytes.
WORD_BYTES = 8

#: The paper's page size (8 Kbytes on the Alpha cluster).
PAPER_PAGE_BYTES = 8192


class Protocol(enum.Enum):
    """The coherence protocols evaluated in the paper."""

    #: Two-level protocol with two-way diffing (the paper's contribution).
    CSM_2L = "2L"
    #: Two-level protocol using TLB shootdown instead of incoming diffs.
    CSM_2LS = "2LS"
    #: One-level protocol (processor = node) with twins and outgoing diffs.
    CSM_1LD = "1LD"
    #: One-level protocol with in-line write doubling (write-through).
    CSM_1L = "1L"

    @property
    def two_level(self) -> bool:
        return self in (Protocol.CSM_2L, Protocol.CSM_2LS)


@dataclass(frozen=True)
class CostModel:
    """All simulated primitive costs, in microseconds (Section 3.1).

    ``page_bytes``-dependent costs (twinning, diffs, transfers) are stored
    as measurements for the paper's 8 Kbyte page and scaled linearly to the
    configured page size by :class:`MachineConfig`.
    """

    # --- Memory Channel (Section 2.1) -----------------------------------
    #: Process-to-process remote write latency.
    mc_latency: float = 5.2
    #: Per-link sustained transfer bandwidth, bytes per microsecond
    #: (29 MB/s through the 32-bit AlphaServer 2100 PCI bus).
    mc_link_bandwidth: float = 29.0
    #: Peak aggregate Memory Channel bandwidth, bytes/us (about 60 MB/s).
    mc_aggregate_bandwidth: float = 60.0
    #: Cost of issuing one remote (doubled) write: I/O-space store overhead.
    mc_word_write: float = 0.25

    # --- VM operations ---------------------------------------------------
    #: mprotect on the AlphaServers.
    mprotect: float = 55.0
    #: Page fault on an already-resident page (kernel trap + dispatch).
    page_fault: float = 72.0

    # --- Twins and diffs (costs for one 8 Kbyte page) --------------------
    #: Creating a twin (pristine copy) of an 8 Kbyte page.
    twin_create_8k: float = 199.0
    #: Outgoing diff to a *remote* home: empty-diff and full-page-diff costs.
    diff_out_remote_min: float = 290.0
    diff_out_remote_max: float = 363.0
    #: Outgoing diff applied to a *local* home (one-level protocols only).
    diff_out_local_min: float = 340.0
    diff_out_local_max: float = 561.0
    #: Incoming diff (applies changes to both the twin and the page).
    diff_in_min: float = 533.0
    diff_in_max: float = 541.0

    # --- Directory -------------------------------------------------------
    #: Directory entry modification without locking (lock-free structures).
    dir_update: float = 5.0
    #: Directory entry modification when a global lock must be held
    #: (16 us total: 11 us of lock acquire/release + 5 us of update).
    dir_update_locked: float = 16.0

    # --- Messaging and polling -------------------------------------------
    #: One polling check (load + branch) at a loop back-edge.
    poll_check: float = 0.08
    #: Time from a request's arrival at a node until a polling processor
    #: notices it (average distance to the next poll instruction).
    poll_dispatch: float = 4.0
    #: Kernel/trap overhead to enter a message handler after a poll hit.
    handler_entry: float = 6.0
    #: Requester-side fixed overhead of a page fetch (composing the
    #: request, managing the read buffer, completing the reply). Tuned so
    #: end-to-end page transfers match Table 1 (777/824 us remote).
    fetch_overhead: float = 140.0
    #: Extra fetch cost under the two-level protocols (second-level
    #: directory and timestamp maintenance; Table 1: 824 vs 777 us).
    two_level_fetch_extra: float = 45.0
    #: Intra-node inter-processor interrupt (with the paper's kernel mods).
    interrupt_intra: float = 80.0
    #: Inter-node interrupt (with kernel mods).
    interrupt_inter: float = 445.0
    #: Unmodified Digital Unix interrupt latency (for reference/ablation).
    interrupt_unmodified: float = 980.0

    # --- Shootdown (Section 3.3.4) ---------------------------------------
    #: Shooting down one processor's mapping via polled messages.
    shootdown_polled: float = 72.0
    #: Shooting down one processor via intra-node interrupts.
    shootdown_interrupt: float = 142.0

    # --- Synchronization -------------------------------------------------
    #: Local ll/sc lock acquire+release.
    llsc_lock: float = 0.4
    #: Per-side CPU cost of a Memory Channel lock operation (issue the
    #: array write, set up the loop-back wait). Tuned so an uncontended
    #: acquire+release totals ~11 us (Table 1).
    mc_lock_overhead: float = 2.7
    #: Backoff delay after a failed MC lock attempt.
    mc_lock_backoff: float = 20.0
    #: Extra per-acquire cost of the two-level (ll/sc + MC) lock path
    #: (Table 1: 19 us vs 11 us).
    two_level_lock_extra: float = 7.0
    #: Per-processor cost of the intra-node phase of a two-level barrier.
    barrier_local_phase: float = 25.0
    #: Cost of announcing arrival over the Memory Channel.
    barrier_mc_phase: float = 18.0
    #: Departure-side spin cost per arrival-array slot (waiters rescan the
    #: array as arrivals trickle in; Table 1: 364 us for the 32-slot
    #: one-level barrier at 32 processors).
    barrier_spin: float = 10.6

    # --- Node memory bus --------------------------------------------------
    #: Per-node shared memory bus bandwidth, bytes/us. Capacity-miss traffic
    #: from all processors of a node is serialized through this resource,
    #: producing the negative clustering effects of Section 3.3.3.
    node_bus_bandwidth: float = 180.0

    # --- Misc -------------------------------------------------------------
    #: CPU cost of copying one 8 Kbyte page within a node (memcpy).
    page_copy_8k: float = 90.0

    def __post_init__(self) -> None:
        # A NaN or negative cost would otherwise surface mid-run as a
        # misleading DeadlockError or, worse, as plausible wrong times;
        # a zero bandwidth as a ZeroDivisionError. Zero costs are legal.
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value) or value < 0:
                raise ConfigError(
                    f"cost {f.name} must be finite and non-negative, "
                    f"got {value}")
            if f.name.endswith("_bandwidth") and value <= 0:
                raise ConfigError(
                    f"bandwidth {f.name} must be positive, got {value}")


#: Named placement configurations used throughout the evaluation
#: (Figure 7): ``(total processors, processors per node)``.
PLACEMENTS = {
    "4:1": (4, 1),
    "4:4": (4, 4),
    "8:1": (8, 1),
    "8:2": (8, 2),
    "8:4": (8, 4),
    "16:2": (16, 2),
    "16:4": (16, 4),
    "24:3": (24, 3),
    "32:4": (32, 4),
}


@dataclass(frozen=True)
class MachineConfig:
    """A simulated cluster: topology, page geometry, and cost model.

    The paper's platform is ``nodes=8, procs_per_node=4`` with 8 Kbyte
    pages. Tests and scaled experiments may shrink ``page_bytes`` (along
    with application data sets) to keep simulations fast; page-size
    dependent costs scale linearly from the 8 Kbyte measurements.
    """

    nodes: int = 8
    procs_per_node: int = 4
    page_bytes: int = PAPER_PAGE_BYTES
    #: Total shared segment size in bytes (must be a multiple of page size).
    shared_bytes: int = 4 * 1024 * 1024
    #: Pages per superpage: the paper's Memory Channel mapping-table
    #: workaround, here the granularity of first-touch home relocation.
    superpage_pages: int = 8
    #: Use polling (True, the paper's default) or interrupts for explicit
    #: requests and shootdowns.
    polling: bool = True
    #: Use the kernel-modified (fast) interrupt latencies when polling=False.
    fast_interrupts: bool = True
    #: Opt-in runtime correctness checking (:mod:`repro.check`): trace
    #: every shared access and sync event through the happens-before race
    #: detector and release-consistency oracle. Orthogonal to timing —
    #: checking observes the execution, it never changes simulated costs.
    checking: bool = False
    #: Opt-in protocol event tracing (:mod:`repro.trace`): record faults,
    #: transfers, diffs, sync and network events on the simulated timeline
    #: for the Chrome-trace exporter and contention profiler. Like
    #: ``checking``, strictly observational — a traced run produces
    #: byte-identical statistics to an untraced one.
    tracing: bool = False
    #: Enable the runtime's inline page-access cache (software TLB) in
    #: :class:`~repro.runtime.env.WorkerEnv`: warm accesses to a page
    #: the processor has a cached mapping of skip protocol dispatch
    #: entirely; the page table evicts a mapping the moment it dies
    #: (DESIGN.md §9, per-page shootdown). Behavior-preserving —
    #: a fast-path run produces byte-identical statistics and results to
    #: a slow-path run. Disable to force every access through full
    #: dispatch (debugging / the determinism regression tests).
    fastpath: bool = True
    #: Opt-in time-series metrics sampling (:mod:`repro.metrics`): a
    #: collector polls directory occupancy, page-state histograms,
    #: Memory Channel bandwidth and fast-path (software TLB) hit rates
    #: at fixed simulated-time intervals, and
    #: records deltas of the protocol counters between samples. Like
    #: ``checking``/``tracing``, strictly observational: a metered run
    #: produces byte-identical statistics and results to an unmetered
    #: one (``tests/test_metrics.py`` asserts this under all four
    #: protocols), and the sampled series are themselves deterministic —
    #: the same run recorded twice yields identical series.
    metrics: bool = False
    #: Inter-node barrier topology (DESIGN.md §15). ``"flat"`` (the
    #: paper's design, and the default — preserves every existing
    #: number) funnels all slots through one arrival array whose
    #: departure spin scans O(slots) words. ``"tree"`` combines arrivals
    #: up a binary tree of Memory Channel words — O(log slots) combine
    #: hops to the root, one broadcast departure word, O(1) departure
    #: spin per processor — the knob that keeps 64-node barriers from
    #: serializing. Data values are barrier-topology independent; only
    #: timing (and the combine-hop accounting) differs.
    barrier: str = "flat"
    costs: CostModel = field(default_factory=CostModel)

    def __post_init__(self) -> None:
        if self.barrier not in ("flat", "tree"):
            raise ConfigError(
                f"barrier must be 'flat' or 'tree', got {self.barrier!r}")
        if self.nodes < 1:
            raise ConfigError(f"nodes must be at least 1, got {self.nodes}")
        if self.procs_per_node < 1:
            raise ConfigError(f"procs_per_node must be at least 1, "
                              f"got {self.procs_per_node}")
        if self.page_bytes < WORD_BYTES or self.page_bytes % WORD_BYTES:
            raise ConfigError(f"page_bytes must be a positive multiple of "
                              f"8, got {self.page_bytes}")
        if self.page_bytes & (self.page_bytes - 1):
            raise ConfigError(f"page_bytes must be a power of two, "
                              f"got {self.page_bytes}")
        if self.shared_bytes % self.page_bytes:
            raise ConfigError(f"shared_bytes must be a multiple of "
                              f"page_bytes ({self.page_bytes}), "
                              f"got {self.shared_bytes}")
        if self.superpage_pages < 1:
            raise ConfigError(f"superpage_pages must be at least 1, "
                              f"got {self.superpage_pages}")

    # --- Derived geometry -------------------------------------------------

    @property
    def total_procs(self) -> int:
        return self.nodes * self.procs_per_node

    @property
    def words_per_page(self) -> int:
        return self.page_bytes // WORD_BYTES

    @property
    def num_pages(self) -> int:
        return self.shared_bytes // self.page_bytes

    @property
    def page_shift(self) -> int:
        return self.page_bytes.bit_length() - 1

    # --- Page-size scaled costs ------------------------------------------

    @property
    def _page_scale(self) -> float:
        return self.page_bytes / PAPER_PAGE_BYTES

    def twin_cost(self) -> float:
        """Cost of creating a twin of one page."""
        return self.costs.twin_create_8k * self._page_scale

    def page_copy_cost(self) -> float:
        """CPU cost of an intra-node page copy."""
        return self.costs.page_copy_8k * self._page_scale

    def diff_out_cost(self, dirty_bytes: int, remote_home: bool) -> float:
        """Cost of creating and applying an outgoing diff.

        Interpolates between the empty-diff and full-page-diff measurements
        according to the number of modified bytes.
        """
        c = self.costs
        lo, hi = ((c.diff_out_remote_min, c.diff_out_remote_max)
                  if remote_home else
                  (c.diff_out_local_min, c.diff_out_local_max))
        frac = min(1.0, dirty_bytes / self.page_bytes)
        return (lo + (hi - lo) * frac) * self._page_scale

    def diff_in_cost(self, changed_bytes: int) -> float:
        """Cost of an incoming diff (updates both twin and working page)."""
        c = self.costs
        frac = min(1.0, changed_bytes / self.page_bytes)
        return (c.diff_in_min + (c.diff_in_max - c.diff_in_min) * frac) \
            * self._page_scale

    def interrupt_cost(self, same_node: bool) -> float:
        """Latency of delivering an inter-processor interrupt."""
        c = self.costs
        if not self.fast_interrupts:
            return c.interrupt_unmodified
        return c.interrupt_intra if same_node else c.interrupt_inter

    # --- Convenience -------------------------------------------------------

    def with_placement(self, total_procs: int, procs_per_node: int) -> "MachineConfig":
        """A copy of this config resized for a Figure-7 placement."""
        if total_procs % procs_per_node:
            raise ConfigError(
                f"{total_procs} processors cannot be split into nodes of "
                f"{procs_per_node}")
        return replace(self, nodes=total_procs // procs_per_node,
                       procs_per_node=procs_per_node)

    def scaled(self, page_bytes: int, shared_bytes: int) -> "MachineConfig":
        """A copy with a smaller page/segment geometry (for fast tests)."""
        return replace(self, page_bytes=page_bytes, shared_bytes=shared_bytes)


def placement_config(name: str, base: MachineConfig | None = None) -> MachineConfig:
    """Build a :class:`MachineConfig` for a named paper placement (e.g. "32:4")."""
    if name not in PLACEMENTS:
        raise ConfigError(f"unknown placement {name!r}; "
                          f"choose from {sorted(PLACEMENTS)}")
    total, per_node = PLACEMENTS[name]
    base = base or MachineConfig()
    return base.with_placement(total, per_node)
