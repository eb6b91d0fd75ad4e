"""Contention reports derived from a trace.

Turns the raw event stream into the tables you actually read when a run
is slow:

* **hot pages** — per-page fault counts, page transfers, diff bytes,
  shootdowns, and total fault-service time, ranked by service time;
* **synchronization** — per-lock (and per-flag) acquire counts, hold
  vs. wait time attribution, holder transfers, and handoff latency;
* **barrier episodes** — per-episode arrival imbalance (the spread
  between the first and last arriving processor) and departure waits;
* **Memory Channel timeline** — bytes on the wire per traffic category
  across equal time slices of the run.

Everything renders through :func:`repro.stats.report.format_table`, the
same monospace layout as the paper tables, and exports as JSON via
:meth:`ContentionProfile.to_json`.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from ..stats.report import format_table
from .events import TraceEvent
from .tracer import Tracer

#: Rows kept in the hot-page table.
TOP_PAGES = 12
#: Rows kept in the barrier-episode table.
TOP_EPISODES = 10
#: Equal time slices in the Memory Channel timeline.
MC_SLICES = 10


@dataclass
class _PageStats:
    read_faults: int = 0
    write_faults: int = 0
    fetches: int = 0
    diff_bytes: int = 0
    shootdowns: int = 0
    notices: int = 0
    service_us: float = 0.0

    @property
    def faults(self) -> int:
        return self.read_faults + self.write_faults


@dataclass
class _LockStats:
    acquires: int = 0
    hold_us: float = 0.0
    wait_us: float = 0.0
    max_wait_us: float = 0.0
    transfers: int = 0
    transfer_us: float = 0.0
    _holds: list = field(default_factory=list)  # (t0, t1, proc)


@dataclass
class _EpisodeStats:
    arrivals: list = field(default_factory=list)   # span start times
    waits: list = field(default_factory=list)      # span durations

    @property
    def spread_us(self) -> float:
        return (max(self.arrivals) - min(self.arrivals)) if self.arrivals \
            else 0.0


class ContentionProfile:
    """Aggregated contention view of one traced execution."""

    def __init__(self, tracer: Tracer) -> None:
        self.meta = dict(tracer.meta)
        self.kind_counts = tracer.kind_counts()
        self.dropped = tracer.dropped

        self.pages: dict[int, _PageStats] = defaultdict(_PageStats)
        self.locks: dict[str, _LockStats] = defaultdict(_LockStats)
        self.episodes: dict[int, _EpisodeStats] = defaultdict(_EpisodeStats)
        self._mc_events: list[TraceEvent] = []
        end = float(self.meta.get("exec_time_us") or 0.0)

        for ev in tracer:
            end = max(end, ev.t1)
            self._consume(ev)
        self.exec_time_us = end
        self._finish_locks()

    # --- aggregation --------------------------------------------------------

    def _consume(self, ev: TraceEvent) -> None:
        kind = ev.kind
        if kind == "read_fault" or kind == "write_fault":
            ps = self.pages[int(ev.obj)]
            if kind == "read_fault":
                ps.read_faults += 1
            else:
                ps.write_faults += 1
            ps.service_us += ev.dur
        elif kind in ("page_fetch", "excl_break"):
            self.pages[int(ev.obj)].fetches += 1
        elif kind in ("diff_in", "diff_out"):
            self.pages[int(ev.obj)].diff_bytes += ev.bytes
        elif kind == "shootdown":
            self.pages[int(ev.obj)].shootdowns += 1
        elif kind == "write_notice":
            self.pages[int(ev.obj)].notices += 1
        elif kind == "lock_hold":
            ls = self.locks[str(ev.obj)]
            ls.acquires += 1
            ls.hold_us += ev.dur
            ls._holds.append((ev.t0, ev.t1, ev.proc))
        elif kind in ("lock_wait", "flag_wait"):
            ls = self.locks[str(ev.obj)]
            ls.wait_us += ev.dur
            ls.max_wait_us = max(ls.max_wait_us, ev.dur)
            if kind == "flag_wait":
                ls.acquires += 1
        elif kind == "barrier":
            es = self.episodes[int(ev.obj)]
            es.arrivals.append(ev.t0)
            es.waits.append(ev.dur)
        elif kind in ("mc_word", "mc_transfer"):
            self._mc_events.append(ev)

    def _finish_locks(self) -> None:
        """Holder-transfer counts and handoff latency from hold spans."""
        for ls in self.locks.values():
            holds = sorted(ls._holds)
            for (_, prev_end, prev_proc), (t0, _, proc) in zip(holds,
                                                              holds[1:]):
                if proc != prev_proc:
                    ls.transfers += 1
                    ls.transfer_us += max(0.0, t0 - prev_end)
            ls._holds = []

    # --- derived tables -----------------------------------------------------

    def hot_pages(self) -> list[tuple[int, _PageStats]]:
        """Pages ranked by total fault-service time (busiest first)."""
        ranked = sorted(self.pages.items(),
                        key=lambda kv: (kv[1].service_us, kv[1].faults),
                        reverse=True)
        return ranked[:TOP_PAGES]

    def lock_table(self) -> list[tuple[str, _LockStats]]:
        return sorted(self.locks.items(),
                      key=lambda kv: kv[1].wait_us + kv[1].hold_us,
                      reverse=True)

    def barrier_table(self) -> list[tuple[int, _EpisodeStats]]:
        """Episodes ranked by arrival imbalance (most skewed first)."""
        ranked = sorted(self.episodes.items(),
                        key=lambda kv: kv[1].spread_us, reverse=True)
        return ranked[:TOP_EPISODES]

    def mc_timeline(self) -> dict[str, list[int]]:
        """Bytes per traffic category per time slice of the run."""
        width = self.exec_time_us / MC_SLICES if self.exec_time_us else 1.0
        out: dict[str, list[int]] = defaultdict(lambda: [0] * MC_SLICES)
        for ev in self._mc_events:
            slot = min(MC_SLICES - 1, int(ev.t0 / width))
            out[str(ev.obj)][slot] += ev.bytes
        return dict(sorted(out.items(),
                           key=lambda kv: sum(kv[1]), reverse=True))

    # --- rendering ----------------------------------------------------------

    def format(self) -> str:
        sections = [self._format_header()]
        if self.pages:
            sections.append(self._format_pages())
        if self.locks:
            sections.append(self._format_locks())
        if self.episodes:
            sections.append(self._format_barriers())
        if self._mc_events:
            sections.append(self._format_mc())
        return "\n\n".join(sections)

    def _format_header(self) -> str:
        app = self.meta.get("app", "?")
        protocol = self.meta.get("protocol", "?")
        shape = (f"{self.meta.get('nodes', '?')}x"
                 f"{self.meta.get('procs_per_node', '?')}")
        lines = [
            f"Contention profile — {app} under {protocol} on {shape} "
            f"({self.exec_time_us / 1e6:.3f} s simulated)",
            "events: " + ", ".join(f"{k}={v}"
                                   for k, v in self.kind_counts.items()
                                   if v) + f", trace_dropped={self.dropped}",
        ]
        if self.dropped:
            lines.append(f"warning: ring buffer dropped {self.dropped} "
                         f"oldest events; tallies cover the tail of the run")
        return "\n".join(lines)

    def _format_pages(self) -> str:
        rows = []
        for page, ps in self.hot_pages():
            rows.append((f"page {page}",
                         [ps.read_faults, ps.write_faults, ps.fetches,
                          ps.diff_bytes, ps.shootdowns, ps.notices,
                          ps.service_us]))
        omitted = len(self.pages) - len(rows)
        title = "Hot pages (by fault-service time)"
        if omitted > 0:
            title += f" — top {len(rows)} of {len(self.pages)}"
        return format_table(title,
                            ["rd flt", "wr flt", "xfers", "diff B",
                             "shoot", "notices", "svc us"],
                            rows, col_width=9, label_width=12)

    def _format_locks(self) -> str:
        rows = []
        for name, ls in self.lock_table():
            rows.append((name,
                         [ls.acquires, ls.hold_us, ls.wait_us,
                          ls.max_wait_us, ls.transfers, ls.transfer_us]))
        return format_table("Synchronization objects (hold vs. wait)",
                            ["acquires", "hold us", "wait us", "max wait",
                             "handoffs", "xfer us"],
                            rows, col_width=10, label_width=14)

    def _format_barriers(self) -> str:
        rows = []
        for episode, es in self.barrier_table():
            mean_wait = sum(es.waits) / len(es.waits) if es.waits else 0.0
            rows.append((f"episode {episode}",
                         [len(es.arrivals), es.spread_us, mean_wait,
                          max(es.waits) if es.waits else 0.0]))
        omitted = len(self.episodes) - len(rows)
        title = "Barrier episodes (by arrival imbalance)"
        if omitted > 0:
            title += f" — top {len(rows)} of {len(self.episodes)}"
        return format_table(title,
                            ["procs", "spread us", "mean wait", "max wait"],
                            rows, col_width=10, label_width=14)

    def _format_mc(self) -> str:
        timeline = self.mc_timeline()
        width = self.exec_time_us / MC_SLICES if self.exec_time_us else 0.0
        cols = [f"{i * width / 1e3:.0f}ms" for i in range(MC_SLICES)]
        rows = [(category, [b // 1024 for b in by_bin])
                for category, by_bin in timeline.items()]
        return format_table("Memory Channel traffic timeline (KB per slice)",
                            cols, rows, col_width=7, label_width=14)

    # --- machine-readable ---------------------------------------------------

    def to_json(self) -> dict:
        return {
            "meta": self.meta,
            "exec_time_us": self.exec_time_us,
            "kind_counts": self.kind_counts,
            "dropped_events": self.dropped,
            "trace_dropped": self.dropped,
            "hot_pages": [
                {"page": page, "read_faults": ps.read_faults,
                 "write_faults": ps.write_faults, "fetches": ps.fetches,
                 "diff_bytes": ps.diff_bytes, "shootdowns": ps.shootdowns,
                 "notices": ps.notices, "service_us": ps.service_us}
                for page, ps in self.hot_pages()],
            "locks": [
                {"name": name, "acquires": ls.acquires,
                 "hold_us": ls.hold_us, "wait_us": ls.wait_us,
                 "max_wait_us": ls.max_wait_us, "transfers": ls.transfers,
                 "transfer_us": ls.transfer_us}
                for name, ls in self.lock_table()],
            "barriers": [
                {"episode": episode, "procs": len(es.arrivals),
                 "spread_us": es.spread_us,
                 "max_wait_us": max(es.waits) if es.waits else 0.0}
                for episode, es in self.barrier_table()],
            "mc_timeline_bytes": self.mc_timeline(),
        }
