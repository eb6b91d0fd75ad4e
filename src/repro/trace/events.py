"""Typed protocol-event records for the tracing layer.

A :class:`TraceEvent` is one protocol action on the simulated
timeline: a page fault being serviced, a page or diff moving over the
Memory Channel, a lock being held or waited for, a barrier episode.
Time charges are not events: the Figure-6 buckets keep their totals
per processor (``RunStats``). Events with ``dur > 0`` are *spans* (they
occupy an interval of simulated time on one processor's track); events
with ``dur == 0`` are *instants*.

Events are plain data — producing one never touches simulation state —
and every field is JSON-serializable so consumers (the Chrome exporter,
the contention profiler) need no further translation. A record is an
immutable tuple (DESIGN.md §8). The tracer stores events as columns and
builds records only when they are read.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Mapping, NamedTuple

#: ``proc``/``node`` value for events not attributable to a processor
#: (Memory Channel wire activity, write-notice deliveries).
NO_PROC = -1

#: Event kinds emitted by the instrumented stack, grouped by family.
#: The set is advisory, not closed: consumers must tolerate unknown
#: kinds (instrumentation grows faster than consumers).
KIND_FAMILIES = {
    "fault": ("read_fault", "write_fault"),
    "transfer": ("page_fetch", "excl_break", "page_flush", "relocation"),
    "diff": ("diff_in", "diff_out"),
    "shootdown": ("shootdown",),
    "notice": ("write_notice",),
    "sync": ("lock_wait", "lock_hold", "flag_set", "flag_wait",
             "barrier", "barrier_arrive"),
    "request": ("request_service",),
    "mc": ("mc_word", "mc_transfer"),
    "sim": ("wait",),
}

#: kind -> family, for consumers that group by family.
KIND_FAMILY = {kind: family
               for family, kinds in KIND_FAMILIES.items()
               for kind in kinds}


#: The default ``payload``: empty and read-only, so records built
#: without one share nothing mutable.
_NO_PAYLOAD: Mapping = MappingProxyType({})


class TraceEvent(NamedTuple):
    """One protocol event on the simulated timeline.

    ``obj`` identifies what the event is about — a page number, a lock
    id, a barrier episode, a traffic category — and ``payload`` carries
    kind-specific detail such as bytes moved.
    """

    kind: str
    #: Global processor id, or :data:`NO_PROC` for network-level events.
    proc: int
    #: Node id of ``proc`` (:data:`NO_PROC` when proc is NO_PROC).
    node: int
    #: Simulated start time, microseconds.
    t0: float
    #: Simulated duration, microseconds (0 for instant events).
    dur: float = 0.0
    #: Page / lock / barrier-episode / category identifier.
    obj: int | str | None = None
    payload: Mapping = _NO_PAYLOAD

    @property
    def t1(self) -> float:
        return self.t0 + self.dur

    @property
    def family(self) -> str:
        return KIND_FAMILY.get(self.kind, "other")

    @property
    def bytes(self) -> int:
        """Bytes moved by this event (0 when not a data-movement event)."""
        return int(self.payload.get("bytes", 0))

    def to_json(self) -> dict:
        out = {"kind": self.kind, "proc": self.proc, "node": self.node,
               "t0": self.t0, "dur": self.dur}
        if self.obj is not None:
            out["obj"] = self.obj
        if self.payload:
            out["payload"] = self.payload
        return out
