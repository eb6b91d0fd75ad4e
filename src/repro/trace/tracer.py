"""The event collector: a bounded ring buffer of :class:`TraceEvent`.

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

The buffer is bounded (default ~2M events): when full, the *oldest*
events are dropped, keeping the tail of the execution — the usual region
of interest when diagnosing why a run is slow. ``dropped`` reports how
many events fell out.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Iterator

from .events import NO_PROC, TraceEvent

#: Default ring-buffer capacity (events). At the experiment scale a
#: full 32-processor application run emits a few hundred thousand to a
#: few million events; the cap bounds host memory, not simulated work.
DEFAULT_CAPACITY = 2_000_000

#: Builds a record from its field tuple in C, without a frame for the
#: generated ``TraceEvent.__new__``.
_new = tuple.__new__


class Tracer:
    """Collects :class:`TraceEvent` records into a bounded ring buffer."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("tracer capacity must be positive")
        self.capacity = capacity
        self._buf: deque[TraceEvent] = deque(maxlen=capacity)
        #: Total events emitted (including any that fell off the buffer).
        self.emitted = 0
        #: Run metadata, filled by :meth:`finalize`.
        self.meta: dict = {}

    # --- emission (called from instrumented code) --------------------------

    def span(self, kind: str, proc, t0: float, dur: float,
             obj: int | str | None = None, **payload) -> None:
        """Record a duration event on ``proc``'s track.

        ``proc`` is a :class:`~repro.cluster.machine.Processor` (or any
        object with ``global_id`` and ``node.id``), or ``None`` for
        events that belong to no processor.
        """
        self.emitted += 1
        if proc is None:
            pid, nid = NO_PROC, NO_PROC
        else:
            pid, nid = proc.global_id, proc.node.id
        self._buf.append(_new(TraceEvent,
                              (kind, pid, nid, t0, dur, obj, payload)))

    def instant(self, kind: str, proc, t: float,
                obj: int | str | None = None, **payload) -> None:
        """Record a point event (``dur == 0``)."""
        self.emitted += 1
        if proc is None:
            pid, nid = NO_PROC, NO_PROC
        else:
            pid, nid = proc.global_id, proc.node.id
        self._buf.append(_new(TraceEvent,
                              (kind, pid, nid, t, 0.0, obj, payload)))

    # --- inspection --------------------------------------------------------

    def __len__(self) -> int:
        return len(self._buf)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._buf)

    @property
    def events(self) -> tuple[TraceEvent, ...]:
        return tuple(self._buf)

    @property
    def dropped(self) -> int:
        """Events that fell off the ring buffer (oldest-first)."""
        return self.emitted - len(self._buf)

    def by_kind(self, *kinds: str) -> list[TraceEvent]:
        want = frozenset(kinds)
        return [ev for ev in self._buf if ev.kind in want]

    def kind_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for ev in self._buf:
            counts[ev.kind] = counts.get(ev.kind, 0) + 1
        return dict(sorted(counts.items()))

    # --- lifecycle ---------------------------------------------------------

    def finalize(self, **meta) -> None:
        """Record end-of-run metadata (app, protocol, exec time, shape).

        Also stamps the ring buffer's final drop count into the
        metadata, so exports and the metrics store see how much of the
        run the surviving events actually cover.
        """
        self.meta.update(meta)
        self.meta["trace_dropped"] = self.dropped


def attach_tracer(cluster, protocol) -> Tracer:
    """Create a :class:`Tracer` and install it at every emission site.

    Mirrors :func:`repro.check.attach_checker`: must run before the
    simulation starts; events preceding attachment are simply absent.
    """
    tracer = Tracer()
    cluster.trace = tracer
    for proc in cluster.processors:
        proc.trace = tracer
    cluster.mc.trace = tracer
    protocol.trace = tracer
    return tracer


def merge_events(tracers: Iterable[Tracer]) -> list[TraceEvent]:
    """All events of several tracers, ordered by start time."""
    out: list[TraceEvent] = []
    for tracer in tracers:
        out.extend(tracer)
    out.sort(key=lambda ev: (ev.t0, ev.proc, ev.kind))
    return out
