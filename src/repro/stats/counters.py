"""Statistics gathered during a simulation run.

The counter names mirror the rows of Table 3: synchronization operations,
faults, page transfers, directory updates, write notices, exclusive-mode
transitions, twin maintenance, incoming diffs, flush-updates, and
shootdowns. Time is accounted into the Figure-6 buckets (User, Protocol,
Polling, Comm & Wait, Write Doubling).

Per-processor stats aggregate into run-level stats; the experiment
harness formats them into the paper's tables.
"""

from __future__ import annotations

import difflib
from collections import Counter
from dataclasses import dataclass, field

from ..errors import UnknownCounterError
from ..sim.process import TIME_BUCKETS

#: Canonical counter names (Table 3 rows plus runtime bookkeeping).
#: This tuple is *closed*: incrementing or reading any other name raises
#: :class:`~repro.errors.UnknownCounterError` — a typo'd counter would
#: otherwise accumulate silently and never be seen again.
COUNTER_NAMES = (
    "lock_acquires",        # Lock/Flag Acquires
    "flag_acquires",        # subset of the above, kept separately too
    "barriers",             # Barriers (episodes)
    "barriers_crossed",     # per-processor barrier crossings
    "barrier_combine_hops",  # tree-barrier combine writes (barrier="tree")
    "read_faults",          # Read Faults
    "write_faults",         # Write Faults
    "page_transfers",       # Page Transfers
    "directory_updates",    # Directory Updates
    "write_notices",        # Write Notices
    "excl_transitions",     # Exclusive-Mode Transitions (in + out)
    "twin_creations",       # Twin Creations
    "incoming_diffs",       # Incoming Diffs (2L)
    "flush_updates",        # Flush-Updates (2L)
    "shootdowns",           # Shootdowns (2LS)
    "doubled_words",        # in-line doubled writes (1L)
    "home_relocations",     # first-touch home migrations
    "requests_served",      # explicit requests handled via polling
    # --- correctness checking (repro.check, opt-in) -------------------
    "check_events",         # shared-memory accesses traced
    "check_vc_merges",      # vector-clock join operations
    "check_races",          # data races detected
)

_KNOWN_COUNTERS = frozenset(COUNTER_NAMES)


def _require_known(counter: str) -> None:
    if counter not in _KNOWN_COUNTERS:
        close = difflib.get_close_matches(counter, COUNTER_NAMES, n=1)
        hint = f" (did you mean {close[0]!r}?)" if close else ""
        raise UnknownCounterError(
            f"unknown stats counter {counter!r}{hint}; canonical names "
            f"are listed in repro.stats.COUNTER_NAMES (add new counters "
            f"there first)")


class StrictCounter(Counter):
    """A :class:`~collections.Counter` closed over :data:`COUNTER_NAMES`.

    A name is validated once, the first time it is incremented (or read
    by subscript) while absent; after that it is an ordinary dict hit.
    An unknown name raises before anything is stored.
    """

    def __missing__(self, key: str) -> int:
        _require_known(key)
        return 0


@dataclass
class ProcStats:
    """Time buckets and event counters for one simulated processor."""

    buckets: dict[str, float] = field(
        default_factory=lambda: {b: 0.0 for b in TIME_BUCKETS})
    counters: StrictCounter = field(default_factory=StrictCounter)

    def bump(self, counter: str, n: int = 1) -> None:
        self.counters[counter] += n

    @property
    def total_time(self) -> float:
        return sum(self.buckets.values())

    def merged_into(self, other: "ProcStats") -> None:
        for bucket, us in self.buckets.items():
            other.buckets[bucket] = other.buckets.get(bucket, 0.0) + us
        other.counters.update(self.counters)


@dataclass
class RunStats:
    """Aggregated statistics for one parallel execution.

    ``exec_time_us`` is the wall-clock of the slowest processor;
    ``aggregate`` sums counters and buckets over all processors
    (Table 3 aggregates over all 32 processors).
    """

    exec_time_us: float = 0.0
    aggregate: ProcStats = field(default_factory=ProcStats)
    per_proc: list[ProcStats] = field(default_factory=list)
    mc_traffic_bytes: dict[str, int] = field(default_factory=dict)

    @classmethod
    def collect(cls, proc_stats: list[ProcStats], exec_time_us: float,
                mc_traffic: dict[str, int]) -> "RunStats":
        run = cls(exec_time_us=exec_time_us, per_proc=list(proc_stats),
                  mc_traffic_bytes=dict(mc_traffic))
        for ps in proc_stats:
            ps.merged_into(run.aggregate)
        return run

    # --- Table 3 convenience accessors ------------------------------------

    def counter(self, name: str) -> int:
        _require_known(name)
        return int(self.aggregate.counters.get(name, 0))

    @property
    def data_mbytes(self) -> float:
        return sum(self.mc_traffic_bytes.values()) / 1e6

    @property
    def exec_time_s(self) -> float:
        return self.exec_time_us / 1e6

    def breakdown_fractions(self) -> dict[str, float]:
        """Per-bucket fraction of aggregated processor time (Figure 6)."""
        total = self.aggregate.total_time
        if total <= 0:
            return {b: 0.0 for b in TIME_BUCKETS}
        return {b: self.aggregate.buckets[b] / total for b in TIME_BUCKETS}

    def table3_row(self) -> dict[str, float]:
        """All Table 3 fields for this run."""
        return {
            "exec_time_s": self.exec_time_s,
            "lock_flag_acquires": self.counter("lock_acquires"),
            "barriers": self.counter("barriers"),
            "read_faults": self.counter("read_faults"),
            "write_faults": self.counter("write_faults"),
            "page_transfers": self.counter("page_transfers"),
            "directory_updates": self.counter("directory_updates"),
            "write_notices": self.counter("write_notices"),
            "excl_transitions": self.counter("excl_transitions"),
            "data_mbytes": self.data_mbytes,
            "twin_creations": self.counter("twin_creations"),
            "incoming_diffs": self.counter("incoming_diffs"),
            "flush_updates": self.counter("flush_updates"),
            "shootdowns": self.counter("shootdowns"),
        }
