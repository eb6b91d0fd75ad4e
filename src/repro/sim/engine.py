"""Deterministic discrete-event simulation kernel.

The kernel is deliberately small: a time-ordered event queue, condition
objects for event-driven wakeups, and serialized bandwidth resources used
to model the node memory bus and the Memory Channel's link/aggregate
bandwidth limits. Simulated processors are built on top of it in
:mod:`repro.sim.process`.

All times are floats in microseconds. Determinism is guaranteed by
breaking ties with a monotonically increasing sequence number, so two runs
of the same program produce identical event orders.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from functools import partial
from heapq import heappush
from math import inf
from typing import Callable, Iterable

from ..errors import DeadlockError, SimulationError


class Simulator:
    """A time-ordered event queue.

    Events are ``(time, seq, callback)`` triples; :meth:`run` pops them in
    order and invokes the callbacks. Callbacks may schedule further events
    (never in the past).
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._queue: list[tuple[float, int, Callable[[], None]]] = []
        self._seq = 0
        self._running = False
        #: Called when the queue drains while processes still wait; used by
        #: the process layer for deadlock diagnostics.
        self.idle_check: Callable[[], None] | None = None
        #: Sampling hook. ``None`` (the default) means no horizon: the
        #: loop's one float compare per event never succeeds. When set,
        #: the hook is called as ``on_advance(at)`` before the first
        #: event at or past the current horizon fires — ``now`` still
        #: holds the previous event's time, so an observer sees the state
        #: that held over the whole interval up to the sampled instant —
        #: and returns the next horizon, which must lie past ``at``. The
        #: first event of a run reaches the initial horizon (``-inf``).
        #: Strictly observational: the hook must never schedule events or
        #: mutate simulation state. Used by the metrics collector
        #: (:mod:`repro.metrics`) for periodic sampling.
        self.on_advance: Callable[[float], float] | None = None

    def schedule(self, at: float, fn: Callable[[], None]) -> None:
        """Schedule ``fn`` to run at absolute simulated time ``at``."""
        if at < self.now - 1e-9:
            raise SimulationError(
                f"event scheduled in the past: {at} < now {self.now}")
        self._seq += 1
        heapq.heappush(self._queue, (max(at, self.now), self._seq, fn))

    def schedule_after(self, delay: float, fn: Callable[[], None]) -> None:
        """Schedule ``fn`` to run ``delay`` microseconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        self.schedule(self.now + delay, fn)

    def run(self) -> float:
        """Process events until the queue drains.

        Returns the simulated time of the last processed event. When the
        queue drains, ``idle_check`` is consulted once; it may either raise
        (deadlock) or schedule new events to continue.
        """
        if self._running:
            raise SimulationError("simulator is already running")
        self._running = True
        queue = self._queue  # stable list object; hoisted for the hot loop
        heappop = heapq.heappop
        advance = self.on_advance
        horizon = inf if advance is None else -inf
        try:
            while True:
                if not queue:
                    if self.idle_check is not None:
                        self.idle_check()
                    if not queue:
                        break
                at, _, fn = heappop(queue)
                if at >= horizon:
                    horizon = advance(at)
                self.now = at
                fn()
            return self.now
        finally:
            self._running = False

    @property
    def pending_events(self) -> int:
        return len(self._queue)


class Condition:
    """An event-driven wakeup channel.

    Processes park on a condition; :meth:`fire` wakes every parked waiter
    at ``max(fire_time, waiter's own clock)``. A waiter woken by a fire
    re-evaluates its predicate and may park again, so conditions carry no
    payload and spurious wakeups are harmless (and deterministic).
    """

    def __init__(self, sim: Simulator, name: str = "") -> None:
        self._sim = sim
        self.name = name
        # Waiter -> park-time clock. A dict preserves insertion order (so
        # fire wakes waiters in park order, same as a list would) and
        # makes unpark O(1) — with n processors parked on one condition,
        # a fire triggers n unparks, and list scans made that O(n^2).
        self._waiters: dict[Callable[[float], None], float] = {}

    def park(self, clock: float, wake: Callable[[float], None]) -> None:
        """Register a waiter whose local clock is ``clock``."""
        self._waiters[wake] = clock

    def unpark(self, wake: Callable[[float], None]) -> None:
        """Remove a parked waiter (e.g. when it is woken via another path)."""
        self._waiters.pop(wake, None)

    def fire(self, at: float) -> None:
        """Wake all current waiters at time ``max(at, waiter clock)``.

        Waiters stay registered until they explicitly ``unpark`` (the
        process layer unparks on wake): if a fire popped the list, a
        second fire racing with the wake events would find it empty and
        the re-parking waiters would sleep forever (lost wakeup).
        """
        waiters = self._waiters
        if not waiters:
            return  # an event that can wake nobody is never created
        sim = self._sim
        now = sim.now
        queue = sim._queue
        for wake, clock in waiters.items():
            when = clock if clock > at else at
            # Simulator.schedule inlined: the push time is clamped to
            # ``now`` right here, so its past check cannot trip.
            sim._seq += 1
            heappush(queue, (now if now > when else when, sim._seq,
                             partial(wake, when)))

    @property
    def num_waiters(self) -> int:
        return len(self._waiters)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Condition {self.name or hex(id(self))} waiters={len(self._waiters)}>"


class SerialResource:
    """A single-server resource (e.g. a node's shared memory bus).

    ``acquire`` books ``duration`` of exclusive service starting no
    earlier than ``start``; the caller's completion time is the returned
    end time. The server keeps a *timeline* of busy intervals and places
    each booking in the earliest gap at or after ``start`` — simulated
    processes book at their own local clocks, which arrive out of global
    time order, and a simple "free-at" FIFO would make a lagging
    processor queue behind a leader's *future* booking, inflating
    contention without physical cause. Adjacent intervals merge, so under
    saturation the timeline stays short.

    The timeline is two parallel float lists, begins ``_b`` and ends
    ``_e`` of disjoint busy intervals ``[b, e)`` in time order — so the
    ends are sorted too, and one ``bisect_right(_e, start)`` finds the
    first interval that can overlap a booking (DESIGN.md §18).
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._b: list[float] = []
        self._e: list[float] = []
        self.busy_time = 0.0
        self.total_requests = 0

    @property
    def _intervals(self) -> list[tuple[float, float]]:
        """Read-only ``(begin, end)`` view of the timeline (tests)."""
        return list(zip(self._b, self._e))

    @property
    def free_at(self) -> float:
        """End of the last busy interval (0 when idle)."""
        return self._e[-1] if self._e else 0.0

    def _find(self, start: float, duration: float) -> tuple[float, int]:
        """Earliest gap of ``duration`` at or after ``start``: its begin
        time, and the index of the first interval after it. Every
        interval scanned begins before the gap and the next one begins
        at or after its end, so the index is also where the booking
        goes — no second search."""
        bs, es = self._b, self._e
        n = len(es)
        i = bisect_right(es, start)  # first interval ending after start
        t = start
        while i < n and bs[i] < t + duration:
            if es[i] > t:
                t = es[i]
            i += 1
        return t, i

    def _book(self, begin: float, j: int,
              duration: float) -> tuple[float, float]:
        """Insert ``[begin, begin + duration)`` at index ``j`` (from
        :meth:`_find`), merging with touching neighbours."""
        bs, es = self._b, self._e
        end = begin + duration
        if j > 0 and es[j - 1] >= begin:
            j -= 1
            if end > es[j]:
                es[j] = end
        else:
            bs.insert(j, begin)
            es.insert(j, end)
        k = j + 1
        while k < len(es) and bs[k] <= es[j]:
            if es[k] > es[j]:
                es[j] = es[k]
            k += 1
        del bs[j + 1:k], es[j + 1:k]
        if len(es) > 4096:
            del bs[:2048], es[:2048]  # prune ancient history
        return begin, end

    def acquire(self, start: float, duration: float) -> tuple[float, float]:
        """Book ``duration`` of service at the earliest gap >= ``start``."""
        if duration < 0:
            raise SimulationError(f"negative service time {duration}")
        self.total_requests += 1
        self.busy_time += duration
        if duration == 0:
            return start, start
        es = self._e
        # Fast path: booking after (or touching) the end of the timeline —
        # the overwhelmingly common case when clocks advance monotonically.
        if not es or es[-1] <= start:
            if es and es[-1] == start:
                es[-1] = start + duration
            else:
                self._b.append(start)
                es.append(start + duration)
                if len(es) > 4096:
                    del self._b[:2048], es[:2048]  # prune ancient history
            return start, start + duration
        if self._b[-1] <= start:
            # Start lands inside the final interval: the earliest gap at
            # or after ``start`` begins exactly at its end — extend it in
            # place. This is the common case under saturation (every
            # processor queues behind the tail) and skips the search.
            begin = es[-1]
            es[-1] = begin + duration
            return begin, begin + duration
        begin, j = self._find(start, duration)
        return self._book(begin, j, duration)

    def peek(self, start: float, duration: float) -> float:
        """The end time ``acquire(start, duration)`` would return, without
        booking."""
        if duration <= 0:
            return start
        es = self._e
        if not es or es[-1] <= start:
            return start + duration  # idle from ``start`` on: no search
        return self._find(start, duration)[0] + duration


class MultiChannelResource:
    """A k-server resource (each server a timeline, like SerialResource).

    Models the Memory Channel's aggregate bandwidth: each transfer runs at
    the per-link rate, but only ``channels`` transfers proceed at once
    (aggregate / link bandwidth, about 2 on the paper's hardware). Each
    booking goes to the channel giving the earliest completion.
    """

    def __init__(self, channels: int, name: str = "") -> None:
        if channels < 1:
            raise SimulationError("need at least one channel")
        self.name = name
        self._channels = [SerialResource(f"{name}[{i}]")
                          for i in range(channels)]
        self.total_requests = 0

    @property
    def channels(self) -> int:
        return len(self._channels)

    @property
    def busy_time(self) -> float:
        return sum(c.busy_time for c in self._channels)

    def acquire(self, start: float, duration: float) -> tuple[float, float]:
        """Book ``duration`` on the channel finishing earliest."""
        if duration < 0:
            raise SimulationError(f"negative service time {duration}")
        self.total_requests += 1
        if duration == 0:
            return start, start
        # Channel 0 idle from ``start`` on (its timeline ends at or
        # before ``start``): it would finish at ``start + duration``,
        # the least any channel can offer, and ties go to the
        # lowest-numbered channel — so it wins without probing anyone.
        first = self._channels[0]
        es = first._e
        if not es or es[-1] <= start:
            return first.acquire(start, duration)
        # Otherwise search each channel's timeline once for its earliest
        # gap and book the channel finishing earliest at the index that
        # search already found (ties go to the lowest-numbered channel).
        best = best_end = None
        for c in self._channels:
            t, j = c._find(start, duration)
            if best is None or t + duration < best_end:
                best, best_end = (c, t, j), t + duration
        c, t, j = best
        c.total_requests += 1
        c.busy_time += duration
        return c._book(t, j, duration)


def describe_waiters(conditions: Iterable[Condition]) -> str:
    """Human-readable summary of parked waiters, for deadlock reports."""
    parts = [f"{c.name or hex(id(c))}:{c.num_waiters}"
             for c in conditions if c.num_waiters]
    return ", ".join(parts) if parts else "(none)"


__all__ = [
    "Simulator",
    "Condition",
    "SerialResource",
    "MultiChannelResource",
    "describe_waiters",
    "DeadlockError",
]
