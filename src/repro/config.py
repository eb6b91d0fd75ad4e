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
import os
from dataclasses import dataclass, field, replace

from .errors import ConfigError


def env_flag(name: str) -> bool:
    """Whether the environment variable ``name`` is set and non-empty.

    The sanctioned accessor for boolean environment switches
    (``CASHMERE_NO_FASTPATH`` and friends): environment reads are a
    hidden input the result-cache key cannot see, so the determinism
    lint (rule D105, DESIGN.md §11) confines them to this module and
    the bench/sweep entry points.
    """
    return bool(os.environ.get(name))

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

    @property
    def uses_diffs(self) -> bool:
        return self is not Protocol.CSM_1L


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
class FaultConfig:
    """Deterministic fault-injection knobs (DESIGN.md §12).

    All injected faults are drawn from a single ``random.Random(seed)``
    stream owned by :class:`~repro.memchannel.faults.FaultInjector`, and
    a decision point consumes randomness *only when its rate is
    non-zero* — so a zero-rate config is byte-identical to
    ``faults=None``, and any one fault class can be toggled without
    perturbing the schedule of the others. Rates are per-opportunity
    probabilities in ``[0, 1]``.
    """

    #: Seed of the injector's private RNG stream. Together with the
    #: simulator's deterministic event order this makes every fault
    #: schedule exactly reproducible: same seed, same faults.
    seed: int = 0
    #: Probability that a remote word write is deferred past its nominal
    #: visibility time (hub-level reordering between *different*
    #: regions; per-region write order is still enforced by
    #: :class:`~repro.memchannel.regions.VersionedWord`). Also the
    #: probability that simultaneous simulator events fire in a
    #: permuted order (see ``Simulator.chooser``).
    reorder_rate: float = 0.0
    #: Maximum extra visibility delay of a reordered word write, us.
    reorder_window_us: float = 50.0
    #: Probability that a posted write notice is delivered late.
    notice_delay_rate: float = 0.0
    #: Extra delivery delay of a delayed write notice, us.
    notice_delay_us: float = 250.0
    #: Probability that a write notice payload is lost. The bin's tail
    #: pointer still advances (that word write is ordered), so the
    #: consumer observes a sequence *gap* and must resynchronize.
    notice_drop_rate: float = 0.0
    #: Probability that an explicit request is NAK'd by a transiently
    #: busy server (FLASH-style negative acknowledgement); the
    #: requester backs off and retries.
    nak_rate: float = 0.0
    #: Requester back-off after a NAK or an unanswered request, us.
    nak_backoff_us: float = 200.0
    #: Retry budget for NAK'd / unanswered requests before the
    #: requester gives up (raises).
    max_retries: int = 64
    #: Nodes whose request-handler service runs ``slowdown`` times
    #: slower (overloaded / de-scheduled server processors).
    slow_nodes: tuple[int, ...] = ()
    slowdown: float = 1.0
    #: Crash-stop: this node halts at ``crash_at_us`` (-1 = no crash).
    #: Its processors stop executing, and requests directed at it go
    #: unanswered until the requester's retry budget is exhausted.
    crash_node: int = -1
    crash_at_us: float = 0.0

    def __post_init__(self) -> None:
        for name in ("reorder_rate", "notice_delay_rate",
                     "notice_drop_rate", "nak_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {rate}")
        for name in ("reorder_window_us", "notice_delay_us",
                     "nak_backoff_us", "crash_at_us"):
            if getattr(self, name) < 0.0:
                raise ConfigError(f"{name} must be non-negative")
        if self.max_retries < 1:
            raise ConfigError("max_retries must be positive")
        if self.slowdown < 1.0:
            raise ConfigError("slowdown must be >= 1")

    @property
    def active(self) -> bool:
        """Whether any fault can actually fire under this config."""
        return (self.reorder_rate > 0.0 or self.notice_delay_rate > 0.0
                or self.notice_drop_rate > 0.0 or self.nak_rate > 0.0
                or (self.slowdown > 1.0 and bool(self.slow_nodes))
                or self.crash_node >= 0)

    @classmethod
    def demo(cls, seed: int) -> "FaultConfig":
        """Moderate every-fault-class-on rates for CLI/CI runs."""
        return cls(seed=seed, reorder_rate=0.05, notice_delay_rate=0.05,
                   notice_drop_rate=0.02, nak_rate=0.02,
                   slow_nodes=(0,), slowdown=1.5)


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
    #: Pages per superpage (Memory Channel mapping-table workaround).
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
    #: a slow-path run. Disable here, or set ``CASHMERE_NO_FASTPATH=1``
    #: in the environment, to force every access through full dispatch
    #: (debugging / the determinism regression tests).
    fastpath: bool = True
    #: Enable the staged kernel-lowering pipeline (:mod:`repro.lower`,
    #: DESIGN.md §14): worker loop regions that are statically proven
    #: sync-free are executed as batched super-steps — per-step page
    #: permissions are still validated (and faults replayed) at the
    #: exact simulated instant the interpreter would have touched them,
    #: but warm steps collapse into one numpy call with inlined time
    #: charges. Behavior-preserving: a lowered run produces
    #: byte-identical statistics and result arrays to an interpreted
    #: one (``tests/test_lowering.py``). Automatically disabled when a
    #: checker/tracer/metrics observer is attached, under fault
    #: injection, for write-through protocols, or when the fast path is
    #: off. Disable here, or set ``CASHMERE_NO_LOWERING=1``, to force
    #: per-step interpretation.
    lowering: bool = True
    #: Opt-in deterministic fault injection (:mod:`repro.memchannel.faults`,
    #: DESIGN.md §12): seeded message reordering, delayed/dropped write
    #: notices, request NAKs, node slowdown, and crash-stop. ``None``
    #: (the default) executes exactly the fault-free code paths; a
    #: zero-rate :class:`FaultConfig` is byte-identical to ``None``.
    faults: FaultConfig | None = None
    #: Opt-in time-series metrics sampling (:mod:`repro.metrics`): a
    #: collector polls directory occupancy, page-state histograms,
    #: Memory Channel bandwidth, request-queue depths, and fast-path
    #: (software TLB) hit rates at fixed simulated-time intervals, and
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
    #: Home-placement policy for shared pages (DESIGN.md §15):
    #: ``"first_touch"`` (the paper's Section 2.3 policy, the default)
    #: relocates a superpage's home to the first owner that touches it
    #: after initialization; ``"round_robin"`` freezes the initial
    #: round-robin striping (no relocation ever); ``"migrate"`` is
    #: first-touch plus migrate-on-repeated-diff — a page whose diffs
    #: keep coming from the same remote owner moves its home there,
    #: reusing the Pending/relocation machinery.
    home_policy: str = "first_touch"
    costs: CostModel = field(default_factory=CostModel)

    def __post_init__(self) -> None:
        if self.barrier not in ("flat", "tree"):
            raise ConfigError(
                f"unknown barrier topology {self.barrier!r}; "
                f"choose 'flat' or 'tree'")
        if self.home_policy not in ("first_touch", "round_robin", "migrate"):
            raise ConfigError(
                f"unknown home policy {self.home_policy!r}; choose "
                f"'first_touch', 'round_robin', or 'migrate'")
        if self.nodes < 1:
            raise ConfigError("need at least one node")
        if self.procs_per_node < 1:
            raise ConfigError("need at least one processor per node")
        if self.page_bytes < WORD_BYTES or self.page_bytes % WORD_BYTES:
            raise ConfigError("page_bytes must be a positive multiple of 8")
        if self.page_bytes & (self.page_bytes - 1):
            raise ConfigError("page_bytes must be a power of two")
        if self.shared_bytes % self.page_bytes:
            raise ConfigError("shared_bytes must be a multiple of page_bytes")
        if self.superpage_pages < 1:
            raise ConfigError("superpage_pages must be positive")
        if self.faults is not None:
            if self.faults.crash_node >= self.nodes:
                raise ConfigError(
                    f"crash_node {self.faults.crash_node} out of range "
                    f"for {self.nodes} nodes")
            for node in self.faults.slow_nodes:
                if not 0 <= node < self.nodes:
                    raise ConfigError(
                        f"slow node {node} out of range for "
                        f"{self.nodes} nodes")

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
