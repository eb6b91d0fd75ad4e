"""The vector-clock happens-before data-race detector.

Cashmere's correctness argument (Section 2 of the paper) only holds for
data-race-free programs, so the protocols are free to serve stale data
to racy ones. This detector makes the DRF precondition checkable: it
observes every shared-memory access and every synchronization event of
a simulated execution and flags conflicting accesses that are not
ordered by happens-before, with full provenance (processor, page, word
offset, simulated time, and the racing access pair).

The algorithm is FastTrack-flavoured: each processor carries a vector
clock; each lock, flag word, and barrier episode carries a clock that
release-type events join into and acquire-type events join from; each
*touched* shared word lazily tracks its last write epoch and the last
read epoch per processor. Same-epoch accesses collapse, so the per-word
state stays small.

Synchronization model (matching :mod:`repro.sync`):

* ``MCLock`` release -> subsequent acquire of the same lock;
* ``FlagSet.set`` (a release) -> a completed ``wait`` on the same flag
  word (``peek`` is unsynchronized on purpose and creates no edge);
* barrier arrival (a release) -> every departure of the same episode.
"""

from __future__ import annotations

from ..errors import DataRaceError
from .events import MemoryEvent, RaceReport
from .vclock import VectorClock

#: Stop accumulating full reports past this many races (the counter
#: keeps counting); racy programs can otherwise produce one report per
#: access pair and drown the interesting first few.
MAX_RACE_REPORTS = 64

#: Builds a :class:`MemoryEvent` from its field tuple in C, without a
#: frame for the generated ``__new__``.
_new = tuple.__new__


class _WordState:
    """Per-word access history: last write epoch + last read per proc."""

    __slots__ = ("write", "reads")

    def __init__(self) -> None:
        self.write: MemoryEvent | None = None
        self.reads: dict[int, MemoryEvent] = {}


class RaceDetector:
    """Happens-before race detection over one simulated execution."""

    def __init__(self, cluster, *, fail_fast: bool = False) -> None:
        self.cluster = cluster
        self.fail_fast = fail_fast
        n = cluster.num_procs
        self.nprocs = n
        self.wpp = cluster.config.words_per_page
        #: One vector clock per processor. Each processor's own component
        #: starts at 1: with all-zero clocks, an access in a processor's
        #: first epoch would carry clock 0 and ``0 <= vc[other] == 0``
        #: would make it look ordered before everyone else's.
        self.vc = [VectorClock(n) for _ in range(n)]
        for i in range(n):
            self.vc[i].c[i] = 1
        #: Clocks of lock/flag sync objects, keyed by object identity
        #: tuples such as ``("lock", 3)`` or ``("flag", "rows", 7)``.
        self.sync_clocks: dict[tuple, VectorClock] = {}
        #: Accumulating clock + arrival/departure counts per barrier
        #: episode (pruned once everyone has departed).
        self._barrier_clocks: dict[int, VectorClock] = {}
        self._barrier_arrived: dict[int, int] = {}
        self._barrier_departed: dict[int, int] = {}
        #: Lazily created per-word access state.
        self.words: dict[int, _WordState] = {}
        #: Every race found, in detection order (capped; see counter).
        self.races: list[RaceReport] = []
        #: Total races detected (not capped).
        self.race_count = 0
        #: Words involved in at least one race: the value oracle skips
        #: them (a racy word has no well-defined golden value).
        self.poisoned: set[int] = set()

    # --- memory accesses ---------------------------------------------------

    # The FastTrack test "epoch (c, p) happens-before my clock vc" is
    # ``c <= vc[p]`` (VectorClock.dominates_epoch); the access hooks
    # below test ``c > vc[p]`` on the clock's list directly.

    def _report(self, proc, first: MemoryEvent,
                second: MemoryEvent) -> None:
        self.race_count += 1
        proc.stats.bump("check_races")
        self.poisoned.add(second.word)
        if len(self.races) < MAX_RACE_REPORTS:
            self.races.append(RaceReport(
                word=second.word, page=second.page, offset=second.offset,
                first=first, second=second))
        if self.fail_fast:
            raise DataRaceError(self.races[-1].describe())

    def on_read(self, proc, page: int, offset: int) -> MemoryEvent:
        """Trace one word read; flag a write-read race if concurrent."""
        self.on_read_range(proc, page, offset, offset + 1)
        return self.words[page * self.wpp + offset].reads[proc.global_id]

    def on_write(self, proc, page: int, offset: int) -> MemoryEvent:
        """Trace one word write; flag any concurrent prior read/write."""
        self.on_write_range(proc, page, offset, offset + 1)
        return self.words[page * self.wpp + offset].write

    def on_read_range(self, proc, page: int, lo: int, hi: int) -> None:
        """Trace reads of words ``[lo, hi)`` of ``page``, in order; flag a
        write-read race on each whose last write is concurrent. The
        accessor's clock, epoch, node and time are bound once."""
        pid = proc.global_id
        node, t = proc.node.id, proc.clock
        my_c = self.vc[pid].c
        epoch = my_c[pid]
        counters = proc.stats.counters
        words = self.words
        word = page * self.wpp + lo
        for offset in range(lo, hi):
            counters["check_events"] += 1
            ev = _new(MemoryEvent, ("read", pid, node, page, offset, word,
                                    t, epoch))
            ws = words.get(word)
            if ws is None:
                ws = words[word] = _WordState()
            w = ws.write
            if w is not None and w.proc != pid and w.clock > my_c[w.proc]:
                self._report(proc, w, ev)
            ws.reads[pid] = ev
            word += 1

    def on_write_range(self, proc, page: int, lo: int, hi: int) -> None:
        """Trace writes of words ``[lo, hi)`` of ``page``, in order; flag
        any concurrent prior read or write of each."""
        pid = proc.global_id
        node, t = proc.node.id, proc.clock
        my_c = self.vc[pid].c
        epoch = my_c[pid]
        counters = proc.stats.counters
        words = self.words
        word = page * self.wpp + lo
        for offset in range(lo, hi):
            counters["check_events"] += 1
            ev = _new(MemoryEvent, ("write", pid, node, page, offset, word,
                                    t, epoch))
            ws = words.get(word)
            if ws is None:
                ws = words[word] = _WordState()
            else:
                w = ws.write
                if w is not None and w.proc != pid \
                        and w.clock > my_c[w.proc]:
                    self._report(proc, w, ev)
                reads = ws.reads
                if reads:
                    for r in reads.values():
                        if r.proc != pid and r.clock > my_c[r.proc]:
                            self._report(proc, r, ev)
                    reads.clear()
            # This write happens-after (or races with) everything
            # recorded; it becomes the sole history for the word.
            ws.write = ev
            word += 1

    # --- synchronization events -------------------------------------------

    def on_release(self, proc, key: tuple) -> None:
        """A release-type event on a lock/flag: publish our clock."""
        pid = proc.global_id
        clock = self.sync_clocks.get(key)
        if clock is None:
            clock = self.sync_clocks[key] = VectorClock(self.nprocs)
        clock.join(self.vc[pid])
        self.vc[pid].tick(pid)
        proc.stats.bump("check_vc_merges")

    def on_acquire(self, proc, key: tuple) -> None:
        """An acquire-type event: adopt the sync object's clock."""
        clock = self.sync_clocks.get(key)
        if clock is not None:
            self.vc[proc.global_id].join(clock)
            proc.stats.bump("check_vc_merges")

    def on_barrier_arrive(self, proc, episode: int) -> bool:
        """Merge the arriver into the episode clock; True on last arrival."""
        pid = proc.global_id
        clock = self._barrier_clocks.get(episode)
        if clock is None:
            clock = self._barrier_clocks[episode] = VectorClock(self.nprocs)
            self._barrier_arrived[episode] = 0
            self._barrier_departed[episode] = 0
        clock.join(self.vc[pid])
        self.vc[pid].tick(pid)
        proc.stats.bump("check_vc_merges")
        self._barrier_arrived[episode] += 1
        return self._barrier_arrived[episode] == self.nprocs

    def on_barrier_depart(self, proc, episode: int) -> None:
        """Adopt the merged episode clock on departure."""
        clock = self._barrier_clocks.get(episode)
        if clock is not None:
            self.vc[proc.global_id].join(clock)
            proc.stats.bump("check_vc_merges")
        # Prune the episode once everyone has left.
        self._barrier_departed[episode] += 1
        if self._barrier_departed[episode] == self.nprocs:
            del self._barrier_clocks[episode]
            del self._barrier_arrived[episode]
            del self._barrier_departed[episode]
