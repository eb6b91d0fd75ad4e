"""The event collector: a bounded, column-wise store of trace events.

A :class:`Tracer` is attached to a configured execution by
:func:`attach_tracer` (the parallel runtime does this when
``MachineConfig(tracing=True)``). Instrumented code holds a
``trace`` attribute that is ``None`` by default; every instrumentation
site is guarded by ``if trace is not None`` so a run without tracing
executes exactly the code it executed before tracing existed.

Like the correctness checker (:mod:`repro.check`), tracing is strictly
observational: emitting an event never charges time, never touches
protocol or simulator state, and never perturbs ``RunStats`` — a traced
run and an untraced run of the same program produce identical statistics
(``tests/test_trace.py`` asserts this under all four protocols).

Emission builds no record: each field goes to its own column (a list
for ``kind`` and ``obj``, a typed ``array`` for the processor, node and
times), and a payload is kept, keyed by row, only when the event has
one. Reading rebuilds :class:`TraceEvent` records from the columns.

The store is bounded (default ~2M events): when full, the *oldest*
events are dropped, keeping the tail of the execution — the usual region
of interest when diagnosing why a run is slow. ``dropped`` reports how
many events fell out.
"""

from __future__ import annotations

from array import array
from collections import Counter
from itertools import repeat
from typing import Iterator

from .events import _NO_PAYLOAD, NO_PROC, TraceEvent

#: Default capacity (events). At the experiment scale a full
#: 32-processor application run emits a few hundred thousand to a few
#: million events; the cap bounds host memory, not simulated work.
DEFAULT_CAPACITY = 2_000_000

#: Builds a record from its field tuple in C, without a frame for the
#: generated ``TraceEvent.__new__``.
_new = tuple.__new__


class Tracer:
    """Keeps the newest ``capacity`` trace events, one column per field.

    The columns may run past ``capacity`` by an eighth of it before the
    oldest rows are cut in one chunk, so trimming costs a constant per
    event; every reader sees exactly the newest ``capacity`` events.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("tracer capacity must be positive")
        self.capacity = capacity
        #: Total events emitted (including any that were dropped).
        self.emitted = 0
        #: Run metadata, filled by :meth:`finalize`.
        self.meta: dict = {}
        self._kind: list[str] = []
        self._proc = array("i")
        self._node = array("i")
        self._t0 = array("d")
        self._dur = array("d")
        self._obj: list = []
        #: Row index -> payload, for the rows whose event carries one.
        self._payloads: dict[int, dict] = {}
        self._slack = max(capacity // 8, 1)
        #: Value of ``emitted`` at which the columns are next trimmed.
        self._trim_at = capacity + self._slack

    # --- emission (called from instrumented code) --------------------------

    def span(self, kind: str, proc, t0: float, dur: float,
             obj: int | str | None = None, **payload) -> None:
        """Record a duration event on ``proc``'s track.

        ``proc`` is a :class:`~repro.cluster.machine.Processor` (or any
        object with ``global_id`` and ``node.id``), or ``None`` for
        events that belong to no processor.
        """
        if proc is None:
            self._proc.append(NO_PROC)
            self._node.append(NO_PROC)
        else:
            self._proc.append(proc.global_id)
            self._node.append(proc.node.id)
        self._kind.append(kind)
        self._t0.append(t0)
        self._dur.append(dur)
        self._obj.append(obj)
        if payload:
            self._payloads[len(self._kind) - 1] = payload
        n = self.emitted = self.emitted + 1
        if n == self._trim_at:
            self._trim()

    def instant(self, kind: str, proc, t: float,
                obj: int | str | None = None, **payload) -> None:
        """Record a point event (``dur == 0``)."""
        if proc is None:
            self._proc.append(NO_PROC)
            self._node.append(NO_PROC)
        else:
            self._proc.append(proc.global_id)
            self._node.append(proc.node.id)
        self._kind.append(kind)
        self._t0.append(t)
        self._dur.append(0.0)
        self._obj.append(obj)
        if payload:
            self._payloads[len(self._kind) - 1] = payload
        n = self.emitted = self.emitted + 1
        if n == self._trim_at:
            self._trim()

    def _trim(self) -> None:
        """Cut the rows older than the newest ``capacity``."""
        cut = len(self._kind) - self.capacity
        for column in (self._kind, self._proc, self._node, self._t0,
                       self._dur, self._obj):
            del column[:cut]
        self._payloads = {row - cut: payload
                          for row, payload in self._payloads.items()
                          if row >= cut}
        self._trim_at = self.emitted + self._slack

    # --- inspection --------------------------------------------------------

    def columns(self) -> tuple:
        """The buffered events as columns, oldest first.

        Returns ``(kind, proc, node, t0, dur, obj, payloads)``: six
        equal-length sequences and a dict from row index to payload
        holding only the rows that carry one. The sequences are the
        tracer's own storage; read them, do not modify them.
        """
        if len(self._kind) > self.capacity:
            self._trim()
        return (self._kind, self._proc, self._node, self._t0, self._dur,
                self._obj, self._payloads)

    def __len__(self) -> int:
        return min(self.emitted, self.capacity)

    def __iter__(self) -> Iterator[TraceEvent]:
        kind, proc, node, t0, dur, obj, payloads = self.columns()
        payload = map(payloads.get, range(len(kind)), repeat(_NO_PAYLOAD))
        return map(_new, repeat(TraceEvent),
                   zip(kind, proc, node, t0, dur, obj, payload))

    @property
    def events(self) -> tuple[TraceEvent, ...]:
        return tuple(self)

    @property
    def dropped(self) -> int:
        """Events that fell out of the store (oldest-first)."""
        return max(self.emitted - self.capacity, 0)

    def by_kind(self, *kinds: str) -> list[TraceEvent]:
        want = frozenset(kinds)
        return [ev for ev in self if ev.kind in want]

    def kind_counts(self) -> dict[str, int]:
        return dict(sorted(Counter(self.columns()[0]).items()))

    # --- lifecycle ---------------------------------------------------------

    def finalize(self, **meta) -> None:
        """Record end-of-run metadata (app, protocol, exec time, shape).

        Also stamps the final drop count into the metadata, so exports
        and the metrics store see how much of the run the surviving
        events actually cover.
        """
        self.meta.update(meta)
        self.meta["trace_dropped"] = self.dropped


def attach_tracer(cluster, protocol) -> Tracer:
    """Create a :class:`Tracer` and install it at every emission site.

    Mirrors :func:`repro.check.attach_checker`: must run before the
    simulation starts; events preceding attachment are simply absent.
    """
    tracer = Tracer()
    for proc in cluster.processors:
        proc.trace = tracer
    cluster.mc.trace = tracer
    protocol.trace = tracer
    return tracer
