"""Memory Channel regions: versioned words with timed visibility.

The Memory Channel is write-only from remote nodes: a write issued at time
``t`` becomes visible in every mapped receive region at ``t + latency``
(plus any bandwidth queueing). The hub imposes a single global order on
writes to the same region, even from different nodes (Section 2.1).

:class:`VersionedWord` models one 32-bit MC word: it records the history
of (visibility time, value) pairs so a reader whose local clock is ``T``
sees exactly the writes that were globally performed by ``T``. This is
what makes the simulated MC locks and barriers honest: a processor cannot
observe a write before the network would have delivered it.

:class:`MCRegion` is a fixed-size array of versioned words with an
attached :class:`~repro.sim.engine.Condition` fired whenever a write
becomes visible, so parked waiters (flag spins) wake at the correct
simulated time. Regions nothing parks on (lock arrays, the barrier's
arrival array) say so and schedule nothing.
"""

from __future__ import annotations

from functools import partial
from heapq import heappush
from typing import Any

from ..errors import MemoryChannelError
from ..sim.engine import Condition, Simulator

#: History entries retained per word. The protocols only need the current
#: and in-flight values, but lock back-off patterns can briefly stack a few.
_HISTORY_LIMIT = 8

#: Minimum spacing the hub imposes between successive writes to one region.
_ORDERING_EPSILON = 1e-6


class VersionedWord:
    """One Memory Channel word with visibility-timed history."""

    __slots__ = ("_history",)

    def __init__(self, initial: Any = 0) -> None:
        # (visible_at, value), ascending by visible_at; index 0 always valid.
        self._history: list[tuple[float, Any]] = [(0.0, initial)]

    def write(self, visible_at: float, value: Any) -> None:
        """Record a write that becomes globally visible at ``visible_at``."""
        history = self._history
        if history and visible_at < history[-1][0]:
            # The hub orders writes; a later-arriving write cannot become
            # visible before one already accepted.
            visible_at = history[-1][0] + _ORDERING_EPSILON
        history.append((visible_at, value))
        if len(history) > _HISTORY_LIMIT:
            del history[:len(history) - _HISTORY_LIMIT]

    def read(self, at: float) -> Any:
        """The value a reader with local clock ``at`` observes.

        A small epsilon absorbs floating-point drift between a waiter's
        accumulated clock and the exact visibility instant that woke it.
        """
        history = self._history
        at += 1e-6
        entry = history[-1]
        if entry[0] <= at:  # common case: all writes already visible
            return entry[1]
        # Walk back to the newest entry visible by ``at``; index 0 is the
        # floor — a reader predating all retained history gets the oldest
        # retained value (the best, and for protocol usage only correct,
        # answer).
        i = len(history) - 2
        while i > 0 and history[i][0] > at:
            i -= 1
        return history[i][1]

    def last_visible_at(self) -> float:
        return self._history[-1][0]

    def latest(self) -> Any:
        """The most recent value regardless of visibility (debug/tests)."""
        return self._history[-1][1]


class MCRegion:
    """A mapped Memory Channel region of ``size`` words, all starting at 0.

    The region model is shared: visibility timing is identical for every
    node, writer included.
    """

    def __init__(self, sim: Simulator, name: str, size: int,
                 waitable: bool = True, readable: bool = True) -> None:
        if size < 1:
            raise MemoryChannelError(f"region {name!r} must have >=1 word")
        self.sim = sim
        self.name = name
        self.size = size
        #: Whether anything may park on ``visible``. Only then does a
        #: post schedule a fire: an event that can wake nobody is never
        #: created (DESIGN.md §18). Lock and barrier regions pass False —
        #: their waiters park on the lock's grant condition and the
        #: barrier's per-episode condition.
        self.waitable = waitable
        #: Whether anything reads the words back. A lock's array is only
        #: ever *sized* by the simulator (who holds the lock is decided
        #: by the lock's own queue), so its region keeps no history.
        self.words = [VersionedWord() for _ in range(size)] \
            if readable else []
        self.visible = Condition(sim, name=f"mc:{name}")
        self.write_count = 0

    def __len__(self) -> int:
        return self.size

    def post(self, index: int, value: Any, visible_at: float) -> None:
        """Record a write and arrange for waiters to wake at visibility."""
        self.write_count += 1
        words = self.words
        if words:
            words[index].write(visible_at, value)
        if self.waitable:
            # Scheduled with or without waiters: one may park between the
            # post and the visibility time. Pushed directly — the time is
            # clamped to ``now`` here, so schedule()'s past check is dead.
            sim = self.sim
            now = sim.now
            sim._seq += 1
            heappush(sim._queue, (now if now > visible_at else visible_at,
                                  sim._seq,
                                  partial(self.visible.fire, visible_at)))

    def read(self, index: int, at: float) -> Any:
        return self.words[index].read(at)


class MappingTable:
    """Accounting for Memory Channel connections (Section 2.3).

    The hardware supports 64K connections covering a 128 Mbyte MC address
    space; the paper packs shared pages into *superpages* so large data
    sets fit. Here no shared page allocates a connection: only the
    synchronization objects' regions (locks, barriers, flags) do, one
    per node each (:meth:`~repro.memchannel.MemoryChannel.new_region`),
    and the budget is enforced on those.
    """

    def __init__(self, max_connections: int = 65536) -> None:
        self.max_connections = max_connections
        self._used = 0

    @property
    def used(self) -> int:
        return self._used

    def allocate(self, name: str, connections: int) -> None:
        if connections < 1:
            raise MemoryChannelError("connection count must be positive")
        if self._used + connections > self.max_connections:
            raise MemoryChannelError(
                f"Memory Channel mapping table exhausted allocating "
                f"{connections} connection(s) for {name!r} "
                f"({self._used}/{self.max_connections} in use)")
        self._used += connections
