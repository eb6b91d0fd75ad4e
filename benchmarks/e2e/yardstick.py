"""Fixed interpreter-speed yardstick, interleaved with the measured code.

The hosts this repo is measured on change *speed* by up to 2x on every
timescale from 100 ms to minutes (``time.process_time()`` moves with
the wall clock, so it is not descheduling), which is more than any gain
a perf PR is likely to claim. The harness therefore runs one short
fixed loop — a *round* — every :data:`PERIOD_S` from an interval timer
while a cell executes, plus once right before and once right after it,
and divides the cell's wall time by the mean time of those rounds over
:data:`ROUND_REF_S`. The handler runs in the measuring
thread between two bytecodes of the cell (the process stays
single-threaded), its own time is subtracted from the cell's, and it
touches no state but its own.

The round mixes the operations the simulator's hot paths are made of —
heap push/pop (event queue), generator ``send`` (simulated processes),
dict update (counters), slotted-attribute update (processor clocks) and
a small ndarray slice copy (page frames) — so it slows down with the
host the way a simulation does. It must stay a function of the
interpreter and numpy only: this module imports nothing from ``repro``
(the smoke test checks), so no change to the simulator can move it.
"""

from __future__ import annotations

import heapq
import signal
import time

import numpy as np

#: Wall time of one :func:`round_s` on the quiet reference host. Only
#: ratios to this constant are used, so it fixes the *scale* of
#: ``norm_s`` ("reference-host seconds") and nothing else. Changing it,
#: or the loop below, re-bases every recorded ``norm_s``.
ROUND_REF_S = 0.00080

#: Iterations per round (just under 1 ms) and the timer period: a 2% duty
#: cycle. Measured on the dev host, a 0.7% and a 3.5% duty cycle gave
#: the same residual spread, so the sampling itself is not the limit.
ITERS = 500
PERIOD_S = 0.05


class _Clock:
    __slots__ = ("now", "ticks")

    def __init__(self) -> None:
        self.now = 0.0
        self.ticks = 0


def _echo():
    value = 0
    while True:
        value = (yield value) + 1


_FRAME = np.arange(64, dtype=np.float64)
_TWIN = np.zeros(64, dtype=np.float64)
_NAMES = ("a", "b", "c", "d")


def round_s() -> float:
    """Run the fixed loop once; returns its wall time in seconds."""
    frame, twin, names = _FRAME, _TWIN, _NAMES
    heap: list[tuple[float, int]] = []
    push, pop = heapq.heappush, heapq.heappop
    counters = dict.fromkeys(names, 0)
    clock = _Clock()
    send = _echo().send
    send(None)
    t0 = time.perf_counter()
    for i in range(ITERS):
        push(heap, ((i * 7919) % 1013 + 0.5, i))
        push(heap, ((i * 104729) % 1013 + 0.25, -i))
        at, _ = pop(heap)
        clock.now = at
        clock.ticks += 1
        counters[names[i & 3]] += send(i) & 1
        lo = (i & 7) * 8
        twin[lo:lo + 8] = frame[lo:lo + 8]
        if i & 1:
            pop(heap)
    return time.perf_counter() - t0


class Sampler:
    """Runs :func:`round_s` from ``SIGALRM`` while a region is open.

    ``rounds`` keeps every round time of the process (for the
    ``harness.host_slowdown`` metrics); ``spent`` is the total wall
    time the rounds took, which callers subtract from what they time.
    """

    def __init__(self, period_s: float = PERIOD_S) -> None:
        self.period_s = period_s  # 0 = boundary rounds only
        self.rounds: list[float] = []
        self.spent = 0.0
        self._busy = False
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum=None, frame=None) -> None:
        if self._busy:  # the timer fired inside a boundary round
            return
        self._busy = True
        t0 = time.perf_counter()
        self.rounds.append(round_s())
        self.spent += time.perf_counter() - t0
        self._busy = False

    def open(self) -> int:
        """Take the leading round and start the timer; returns the
        region's start index into ``rounds``."""
        start = len(self.rounds)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return start

    def close(self, start: int) -> float:
        """Stop the timer and take the trailing round; returns the
        region's host slowdown: mean round time over the reference
        host's (the mean of times, not of speeds, so that a stall that
        lengthens one round counts in full, as it does for the cell)."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self._sample()
        region = self.rounds[start:]
        return sum(region) / len(region) / ROUND_REF_S
