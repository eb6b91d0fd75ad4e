"""The metrics collector: periodic simulated-time sampling.

A :class:`MetricsCollector` is attached to a configured execution by
:func:`attach_metrics` (the parallel runtime does this when
``MachineConfig(metrics=True)``). It rides the simulator's
``on_advance`` hook, whose horizon is the next sampling boundary: when
the simulated clock reaches a boundary ``k * interval_us`` the
collector records

* **gauges** — instantaneous state polled from the live structures:
  per-owner directory occupancy and the page-state histogram
  (:meth:`~repro.protocol.directory.GlobalDirectory.occupancy`),
  twin/notice backlogs via the protocol's ``metrics_gauges`` hook, and
  the tracer's ring-buffer drop count when tracing is also enabled;
* **deltas** — the change since the previous sample of cumulative
  sources: the Table-3 protocol counters summed over all processors,
  Memory Channel traffic bytes by category, link busy time (reported as
  a utilization fraction of the interval), and the runtime fast-path's
  software-TLB hit/miss counts (hits are accesses minus fallbacks).

Explicit requests have no backlog to sample: a request is priced when it
is sent (:meth:`~repro.protocol.messages.RequestEngine.fetch_page` books
the poll delay and the node's service timeline), and the requests each
processor served are the ``requests_served`` counter's deltas.

Like the correctness checker and the tracer, collection is strictly
observational: sampling never charges time, never schedules events, and
never touches protocol or simulator state — a metered run produces
byte-identical statistics and results to an unmetered one
(``tests/test_metrics.py`` asserts this under all four protocols).
Because the simulator is deterministic, the sampled series are exact,
reproducible artifacts: the same run recorded twice yields identical
series, so any series change between two source revisions is a real
behavioral difference.
"""

from __future__ import annotations

from itertools import repeat

#: Default sampling interval in simulated microseconds. Experiment-scale
#: runs last ~10^5..10^6 us, giving a few hundred to a few thousand
#: samples per series.
DEFAULT_INTERVAL_US = 1000.0

#: The protocol counters sampled as per-interval deltas (a stable subset
#: of :data:`repro.stats.counters.COUNTER_NAMES`: the Table 3 rows plus
#: request service, sync, and write-doubling activity).
TRACKED_COUNTERS = (
    "read_faults",
    "write_faults",
    "page_transfers",
    "directory_updates",
    "write_notices",
    "twin_creations",
    "incoming_diffs",
    "flush_updates",
    "shootdowns",
    "doubled_words",
    "requests_served",
    "lock_acquires",
    "barriers_crossed",
    "barrier_combine_hops",
)


class MetricsCollector:
    """Sampled time series for one simulated execution."""

    def __init__(self, interval_us: float = DEFAULT_INTERVAL_US) -> None:
        if interval_us <= 0:
            raise ValueError("metrics interval must be positive")
        self.interval_us = float(interval_us)
        #: Series name -> parallel (times, values) lists.
        self.series: dict[str, tuple[list[float], list[float]]] = {}
        #: Run metadata, filled by :meth:`finalize`.
        self.meta: dict = {}
        #: Shared software-TLB counter cell ``[accesses, fallbacks]``,
        #: bumped by the counters :class:`repro.runtime.env.WorkerEnv`
        #: wraps around its warm access closures and their slow
        #: fallbacks. An access is any ``get``/``set``/``get_block``/
        #: ``set_block`` call; a fallback (a TLB miss) is one that went
        #: through protocol dispatch — a fault or a first touch, never
        #: the casualty of a neighbour's flush (DESIGN.md §9). The rest
        #: were served inline from the processor's maps (hits).
        self.tlb = [0, 0]
        self._next = self.interval_us
        self._last_t = 0.0
        self._cluster = None
        self._protocol = None
        self._tracer = None
        self._counters: list[dict[str, int]] = []
        self._last_counters: dict[str, int] = {}
        self._last_traffic: dict[str, int] = {}
        self._last_busy = 0.0
        self._last_tlb = [0, 0]
        self._finalized = False

    # --- wiring -------------------------------------------------------------

    def bind(self, cluster, protocol, tracer=None) -> None:
        """Point the collector at a configured execution (before run)."""
        self._cluster = cluster
        self._protocol = protocol
        self._tracer = tracer
        #: Every processor's counter dict (each lives as long as its
        #: processor), bound once for the per-sample sums.
        self._counters = [proc.stats.counters
                          for proc in cluster.processors]
        # Baseline the cumulative sources at attach time so the first
        # sample's deltas cover exactly the first interval.
        self._last_counters = self._counter_totals()
        self._last_traffic = dict(cluster.mc.traffic)
        busy, _ = cluster.mc.bandwidth_snapshot()
        self._last_busy = busy
        self._last_tlb = list(self.tlb)

    # --- sampling (driven by Simulator.on_advance) --------------------------

    def on_advance(self, now: float) -> float:
        """Simulator hook: sample every boundary the clock reached, and
        return the next one (the simulator's new horizon)."""
        nxt = self._next
        interval = self.interval_us
        while nxt <= now:
            self._sample(nxt)
            nxt += interval
        self._next = nxt
        return nxt

    def finalize(self, end_time_us: float, **meta) -> None:
        """Take the final (partial-interval) sample and record metadata."""
        if not self._finalized:
            self._finalized = True
            if end_time_us > self._last_t:
                self._sample(end_time_us)
        self.meta.update(meta)

    # --- one sample ---------------------------------------------------------

    def _record(self, name: str, t: float, value: float) -> None:
        entry = self.series.get(name)
        if entry is None:
            entry = ([], [])
            self.series[name] = entry
        entry[0].append(t)
        entry[1].append(value)

    def _counter_totals(self) -> dict[str, int]:
        """Each tracked counter summed over every processor."""
        counters = self._counters
        zeros = repeat(0)
        return {name: sum(map(dict.get, counters, repeat(name), zeros))
                for name in TRACKED_COUNTERS}

    def _sample(self, t: float) -> None:
        record = self._record
        elapsed = t - self._last_t
        self._last_t = t

        # Counter deltas (Table 3 activity per interval).
        totals = self._counter_totals()
        last = self._last_counters
        for name in TRACKED_COUNTERS:
            record(f"ctr.{name}", t, totals[name] - last[name])
        self._last_counters = totals

        # Memory Channel: per-category byte deltas and link utilization.
        mc = self._cluster.mc
        busy, traffic = mc.bandwidth_snapshot()
        for category, total in traffic.items():
            record(f"mc.bytes.{category}", t,
                   total - self._last_traffic.get(category, 0))
        self._last_traffic = traffic
        capacity = elapsed * mc.links.channels
        record("mc.util", t,
               (busy - self._last_busy) / capacity if capacity > 0 else 0.0)
        self._last_busy = busy

        # Directory occupancy and the page-state histogram.
        per_owner, histogram = self._protocol.directory.occupancy()
        occ_total = 0
        for owner, count in enumerate(per_owner):
            occ_total += count
            record(f"dir.occ.o{owner}", t, count)
        record("dir.occ.total", t, occ_total)
        for state, count in zip(("invalid", "read", "write", "excl"),
                                histogram):
            record(f"pages.{state}", t, count)

        # Protocol-specific gauges (twin counts, notice backlogs).
        self._protocol.metrics_gauges(
            lambda name, value: record(f"proto.{name}", t, value))

        # Software-TLB (runtime fast path) hit/miss deltas and rate.
        accesses, misses = self.tlb
        dm = misses - self._last_tlb[1]
        dh = accesses - self._last_tlb[0] - dm
        self._last_tlb = [accesses, misses]
        record("tlb.hits", t, dh)
        record("tlb.misses", t, dm)
        record("tlb.hit_rate", t, dh / (dh + dm) if dh + dm else 0.0)

        # Tracing ring-buffer drops (only when a tracer is attached).
        if self._tracer is not None:
            record("trace.dropped", t, self._tracer.dropped)

    # --- export -------------------------------------------------------------

    @property
    def num_samples(self) -> int:
        """Samples taken so far (length of the longest series)."""
        longest = 0
        for times, _ in self.series.values():
            longest = max(longest, len(times))
        return longest

    def to_payload(self) -> dict:
        """Plain-dict form for JSON export."""
        return {
            "interval_us": self.interval_us,
            "meta": dict(self.meta),
            "series": {name: {"t": list(times), "v": list(values)}
                       for name, (times, values) in self.series.items()},
        }


def attach_metrics(cluster, protocol, *, tracer=None) -> MetricsCollector:
    """Create a collector and install it on a configured execution.

    Mirrors :func:`repro.trace.attach_tracer`: must run before the
    simulation starts (and before worker environments are built, so they
    wrap their access paths in the TLB counters).
    """
    collector = MetricsCollector()
    collector.bind(cluster, protocol, tracer=tracer)
    cluster.sim.on_advance = collector.on_advance
    return collector
