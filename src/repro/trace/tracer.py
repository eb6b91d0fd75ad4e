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
times), and a payload goes to two more lists, the tuple of its names and
the tuple of its values (``None`` for an event without one). Every
``obj`` and both payload tuples pass through one table of interned
values per tracer, so a trace of N events holds N pointers per column
and one copy of each distinct value (a traced Gauss run at 32:4 emits
56,382 events that hold 1,244 distinct page numbers, lock names and
payloads). Reading rebuilds :class:`TraceEvent` records from the
columns, each with a fresh payload dict.

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

#: Types whose equal values are interchangeable: two equal exact ints
#: (or strs) have one type and one ``repr``, so the interning table
#: keys them by value. Any other value is keyed by its type, ``repr``
#: and value, because equal values can differ in both (``1 == 1.0 ==
#: True``, ``0.0 == -0.0``, ``(1,) == (True,)``).
_PLAIN = frozenset((int, str, type(None)))


def _payload(names, values, empty=None):
    """A fresh payload dict for one row, or ``empty`` if it has none."""
    return empty if names is None else dict(zip(names, values))


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
        #: Per row, the payload's names and its values, as tuples
        #: (``None`` for both when the event carries no payload).
        self._names: list = []
        self._values: list = []
        #: Key -> the one stored copy of every ``obj``, names tuple and
        #: values tuple (see ``_PLAIN`` for the keys). Unhashable values
        #: are stored as given.
        self._interned: dict = {}
        self._slack = max(capacity // 8, 1)
        #: Value of ``emitted`` at which the columns are next trimmed.
        self._trim_at = capacity + self._slack

    # --- emission (called from instrumented code) --------------------------
    #
    # ``span`` and ``instant`` are the same code but for ``dur``: each
    # event costs one Python frame, so neither calls the other or a
    # helper.

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
        interned = self._interned
        if type(obj) in _PLAIN:
            obj = interned.setdefault(obj, obj)
        else:
            try:
                obj = interned.setdefault((type(obj), repr(obj), obj), obj)
            except TypeError:
                pass
        self._obj.append(obj)
        if payload:
            names = tuple(payload)
            values = tuple(payload.values())
            self._names.append(interned.setdefault(names, names))
            for value in values:
                if type(value) not in _PLAIN:
                    try:
                        values = interned.setdefault(
                            (tuple, repr(values), values), values)
                    except TypeError:
                        pass
                    break
            else:
                values = interned.setdefault(values, values)
            self._values.append(values)
        else:
            self._names.append(None)
            self._values.append(None)
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
        interned = self._interned
        if type(obj) in _PLAIN:
            obj = interned.setdefault(obj, obj)
        else:
            try:
                obj = interned.setdefault((type(obj), repr(obj), obj), obj)
            except TypeError:
                pass
        self._obj.append(obj)
        if payload:
            names = tuple(payload)
            values = tuple(payload.values())
            self._names.append(interned.setdefault(names, names))
            for value in values:
                if type(value) not in _PLAIN:
                    try:
                        values = interned.setdefault(
                            (tuple, repr(values), values), values)
                    except TypeError:
                        pass
                    break
            else:
                values = interned.setdefault(values, values)
            self._values.append(values)
        else:
            self._names.append(None)
            self._values.append(None)
        n = self.emitted = self.emitted + 1
        if n == self._trim_at:
            self._trim()

    def _trim(self) -> None:
        """Cut the rows older than the newest ``capacity``."""
        cut = len(self._kind) - self.capacity
        for column in (self._kind, self._proc, self._node, self._t0,
                       self._dur, self._obj, self._names, self._values):
            del column[:cut]
        self._trim_at = self.emitted + self._slack

    # --- inspection --------------------------------------------------------

    def _columns(self) -> tuple:
        """The tracer's own eight columns, trimmed to ``capacity``."""
        if len(self._kind) > self.capacity:
            self._trim()
        return (self._kind, self._proc, self._node, self._t0, self._dur,
                self._obj, self._names, self._values)

    def columns(self) -> tuple:
        """The buffered events as columns, oldest first.

        Returns ``(kind, proc, node, t0, dur, obj, payload)``: seven
        equal-length sequences. ``payload`` holds a fresh dict for each
        row that carries one and ``None`` for the others; the first six
        are the tracer's own storage: read them, do not modify them.
        """
        *fields, names, values = self._columns()
        return (*fields, list(map(_payload, names, values)))

    def __len__(self) -> int:
        return min(self.emitted, self.capacity)

    def __iter__(self) -> Iterator[TraceEvent]:
        kind, proc, node, t0, dur, obj, names, values = self._columns()
        payload = map(_payload, names, values, repeat(_NO_PAYLOAD))
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
        return dict(sorted(Counter(self._columns()[0]).items()))

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
