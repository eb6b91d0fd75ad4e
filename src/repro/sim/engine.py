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

import bisect
import heapq
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
        #: Scheduler choice-point hook. ``None`` (the default) keeps the
        #: canonical seq-ordered tie break and the unmodified hot loop.
        #: When set, every time *more than one* event is ready at the
        #: minimal timestamp the hook is called with the tie count and
        #: must return the index (in seq order) of the event to fire
        #: first; the rest are re-queued. Only same-instant events are
        #: ever permuted — simulated time still advances monotonically —
        #: so any choice is a legal Memory Channel schedule. Used by the
        #: fault injector (seeded reordering) and available to schedule
        #: explorers.
        self.chooser: Callable[[int], int] | None = None
        #: Time-advance observation hook. ``None`` (the default) keeps
        #: the unmodified hot loop. When set, the hook is called with the
        #: new simulated time whenever the clock moves forward, *before*
        #: the event at that time fires — so an observer sees the state
        #: that held over the whole interval up to (and at) each sampled
        #: instant. Strictly observational: the hook must never schedule
        #: events or mutate simulation state. Used by the metrics
        #: collector (:mod:`repro.metrics`) for periodic sampling.
        self.on_advance: Callable[[float], None] | None = None

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

    def run(self, until: float | None = None) -> float:
        """Process events (optionally only up to time ``until``).

        Returns the simulated time of the last processed event. When the
        queue drains, ``idle_check`` is consulted once; it may either raise
        (deadlock) or schedule new events to continue.
        """
        if self._running:
            raise SimulationError("simulator is already running")
        self._running = True
        queue = self._queue  # stable list object; hoisted for the hot loop
        heappop = heapq.heappop
        try:
            if self.chooser is not None:
                return self._run_chosen(until)
            if self.on_advance is not None:
                return self._run_observed(until)
            if until is None:
                # Unbounded run (the overwhelmingly common case): no
                # per-event deadline check.
                while True:
                    if not queue:
                        if self.idle_check is not None:
                            self.idle_check()
                        if not queue:
                            break
                    at, _, fn = heappop(queue)
                    self.now = at
                    fn()
                return self.now
            while True:
                if not queue:
                    if self.idle_check is not None:
                        self.idle_check()
                    if not queue:
                        break
                at, _, fn = queue[0]
                if at > until:
                    break
                heappop(queue)
                self.now = at
                fn()
            return self.now
        finally:
            self._running = False

    def _run_observed(self, until: float | None) -> float:
        """The :meth:`run` loop with the time-advance hook. Kept out of
        line (like :meth:`_run_chosen`) so the default path pays nothing
        for the hook's existence."""
        queue = self._queue
        heappop = heapq.heappop
        advance = self.on_advance
        while True:
            if not queue:
                if self.idle_check is not None:
                    self.idle_check()
                if not queue:
                    break
            at, _, fn = queue[0]
            if until is not None and at > until:
                break
            heappop(queue)
            if at > self.now:
                advance(at)
            self.now = at
            fn()
        return self.now

    def _run_chosen(self, until: float | None) -> float:
        """The :meth:`run` loop with the choice-point hook consulted on
        same-instant ties. Kept out of line so the default path pays
        nothing for the hook's existence. Also consults ``on_advance``
        when both hooks are installed (fault injection plus metrics)."""
        queue = self._queue
        heappop, heappush = heapq.heappop, heapq.heappush
        advance = self.on_advance
        while True:
            if not queue:
                if self.idle_check is not None:
                    self.idle_check()
                if not queue:
                    break
            at = queue[0][0]
            if until is not None and at > until:
                break
            ties = [heappop(queue)]
            while queue and queue[0][0] == at:
                ties.append(heappop(queue))
            if len(ties) > 1:
                idx = self.chooser(len(ties))
                if not 0 <= idx < len(ties):
                    raise SimulationError(
                        f"chooser returned {idx} for {len(ties)} ties")
                chosen = ties.pop(idx)
                for ev in ties:
                    heappush(queue, ev)
            else:
                chosen = ties[0]
            if advance is not None and at > self.now:
                advance(at)
            self.now = at
            chosen[2]()
        return self.now

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
        for wake, clock in list(self._waiters.items()):
            when = max(at, clock)
            self._sim.schedule(max(when, self._sim.now),
                               _bind_wake(wake, when))

    @property
    def num_waiters(self) -> int:
        return len(self._waiters)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Condition {self.name or hex(id(self))} waiters={len(self._waiters)}>"


def _bind_wake(wake: Callable[[float], None], when: float) -> Callable[[], None]:
    def run() -> None:
        wake(when)
    return run


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
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        #: Non-overlapping busy intervals [begin, end), sorted by begin.
        self._intervals: list[list[float]] = []
        self.busy_time = 0.0
        self.total_requests = 0

    @property
    def free_at(self) -> float:
        """End of the last busy interval (0 when idle)."""
        return self._intervals[-1][1] if self._intervals else 0.0

    def acquire(self, start: float, duration: float) -> tuple[float, float]:
        """Book ``duration`` of service at the earliest gap >= ``start``."""
        if duration < 0:
            raise SimulationError(f"negative service time {duration}")
        self.total_requests += 1
        self.busy_time += duration
        if duration == 0:
            return start, start
        iv = self._intervals
        # Fast path: booking after (or touching) the end of the timeline —
        # the overwhelmingly common case when clocks advance monotonically.
        if not iv or iv[-1][1] <= start:
            if iv and iv[-1][1] == start:
                iv[-1][1] = start + duration
            else:
                iv.append([start, start + duration])
                if len(iv) > 4096:
                    del iv[:2048]  # prune ancient history
            return start, start + duration
        last = iv[-1]
        if last[0] <= start:
            # Start lands inside the final interval: the earliest gap at
            # or after ``start`` begins exactly at its end — extend it in
            # place. This is the common case under saturation (every
            # processor queues behind the tail) and skips the bisect.
            begin = last[1]
            last[1] = begin + duration
            return begin, begin + duration
        # Find the first interval that could overlap [start, ...).
        lo = bisect.bisect_right(iv, [start]) - 1
        if lo >= 0 and iv[lo][1] <= start:
            lo += 1
        lo = max(lo, 0)
        t = start
        i = lo
        while i < len(iv) and iv[i][0] < t + duration:
            if iv[i][1] > t:
                t = iv[i][1]
            i += 1
        begin, end = t, t + duration
        # Insert, merging with touching neighbours.
        j = bisect.bisect_right(iv, [begin])
        if j > 0 and iv[j - 1][1] >= begin:
            iv[j - 1][1] = max(iv[j - 1][1], end)
            k = j
            while k < len(iv) and iv[k][0] <= iv[j - 1][1]:
                iv[j - 1][1] = max(iv[j - 1][1], iv[k][1])
                k += 1
            del iv[j:k]
        else:
            iv.insert(j, [begin, end])
            k = j + 1
            while k < len(iv) and iv[k][0] <= iv[j][1]:
                iv[j][1] = max(iv[j][1], iv[k][1])
                k += 1
            del iv[j + 1:k]
        if len(iv) > 4096:
            del iv[:2048]  # prune ancient history
        return begin, end

    def peek(self, start: float, duration: float) -> float:
        """The end time ``acquire(start, duration)`` would return, without
        booking."""
        if duration <= 0:
            return start
        iv = self._intervals
        lo = bisect.bisect_right(iv, [start]) - 1
        if lo >= 0 and iv[lo][1] <= start:
            lo += 1
        lo = max(lo, 0)
        t = start
        i = lo
        while i < len(iv) and iv[i][0] < t + duration:
            if iv[i][1] > t:
                t = iv[i][1]
            i += 1
        return t + duration


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
        # before ``start``): its peek would return ``start + duration``,
        # the least any channel can offer, and ties go to the
        # lowest-numbered channel — so it wins without probing anyone.
        first = self._channels[0]
        iv = first._intervals
        if not iv or iv[-1][1] <= start:
            return first.acquire(start, duration)
        # Otherwise probe each channel's earliest end by peeking at its
        # timeline without committing, then book the winner (ties go to
        # the lowest-numbered channel, matching min()'s stability).
        # With two channels this is exact enough and stays O(log n).
        best = None
        best_end = 0.0
        for c in self._channels:
            end = c.peek(start, duration)
            if best is None or end < best_end:
                best, best_end = c, end
        return best.acquire(start, duration)


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
