"""The vector-clock happens-before data-race detector.

Cashmere's correctness argument (Section 2 of the paper) only holds for
data-race-free programs, so the protocols are free to serve stale data
to racy ones. This detector makes the DRF precondition checkable: it
observes every shared-memory access and every synchronization event of
a simulated execution and flags conflicting accesses that are not
ordered by happens-before, with full provenance (processor, page, word
offset, simulated time, and the racing access pair).

The algorithm is FastTrack-flavoured: each processor carries a vector
clock, a numpy array with one integer component per processor; each
lock, flag word, and barrier episode carries a clock that release-type
events join into (elementwise maximum) and acquire-type events join
from. A processor's own component doubles as its *epoch* counter: it
ticks at every release-type event, so all accesses inside one sync-free
region share one epoch, and the pair ``(clock, proc)`` happens-before
a vector clock ``vc`` exactly when ``clock <= vc[proc]``. Each
*touched* shared page lazily gets numpy arrays holding every word's last
write epoch and each processor's last read epoch of it, plus the latest
epochs anywhere on the page, so a range access whose clock dominates
them is checked with one comparison instead of one per word.

Synchronization model (matching :mod:`repro.sync`):

* ``MCLock`` release -> subsequent acquire of the same lock;
* ``FlagSet.set`` (a release) -> a completed ``wait`` on the same flag
  word (``peek`` is unsynchronized on purpose and creates no edge);
* barrier arrival (a release) -> every departure of the same episode.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .events import MemoryEvent, RaceReport

#: Stop accumulating full reports past this many races (the counter
#: keeps counting); racy programs can otherwise produce one report per
#: access pair and drown the interesting first few.
MAX_RACE_REPORTS = 64

#: Builds a :class:`MemoryEvent` from its field tuple in C, without a
#: frame for the generated ``__new__``.
_new = tuple.__new__

#: Read calls are numbered downwards from here, so the first read of a
#: word since its last write holds the largest number and ``np.maximum``
#: keeps it.
FIRST_READ = 1 << 62

_nonzero = np.count_nonzero


class _Page:
    """Access history of one touched page.

    Per word: the last write's processor, epoch and time (epoch 0: never
    written). Per (processor, word): the epoch and time of the last read
    since the word's last write and the number of the first (0: none);
    a write clears both planes of ``reads`` at once. Per processor: its
    latest write and latest access epoch anywhere on the page, which
    bound every epoch above: a clock dominating them cannot race here.
    """

    __slots__ = ("wproc", "wepoch", "wtime", "reads", "repoch", "rfirst",
                 "rtime", "wlatest", "alatest")

    def __init__(self, nprocs: int, wpp: int) -> None:
        self.wproc, self.wepoch = np.zeros((2, wpp), dtype=np.int64)
        self.wtime = np.zeros(wpp)
        self.reads = np.zeros((2, nprocs, wpp), dtype=np.int64)
        self.repoch, self.rfirst = self.reads
        self.rtime = np.zeros((nprocs, wpp))
        self.wlatest, self.alatest = np.zeros((2, nprocs), dtype=np.int64)


class RaceDetector:
    """Happens-before race detection over one simulated execution."""

    def __init__(self, cluster) -> None:
        n = cluster.num_procs
        self.nprocs = n
        self.wpp = cluster.config.words_per_page
        self.nodes = [p.node.id for p in cluster.processors]
        #: One vector clock per processor. Each processor's own component
        #: starts at 1: with all-zero clocks, an access in a processor's
        #: first epoch would carry clock 0 and ``0 <= vc[other] == 0``
        #: would make it look ordered before everyone else's.
        self.vc = list(np.eye(n, dtype=np.int64))
        #: Clocks of lock/flag sync objects, keyed by object identity
        #: tuples such as ``("lock", 3)`` or ``("flag", "rows", 7)``.
        self.sync_clocks: dict[tuple, np.ndarray] = {}
        #: Accumulating clock + arrival/departure counts per barrier
        #: episode (pruned once everyone has departed).
        self._barrier_clocks: dict[int, np.ndarray] = {}
        self._barrier_arrived: dict[int, int] = {}
        self._barrier_departed: dict[int, int] = {}
        #: Per-page access state, created at the page's first access.
        self.pages: dict[int, _Page] = {}
        #: Number of the next read call (see ``FIRST_READ``).
        self._seq = FIRST_READ
        #: Every race found, in detection order (capped; see counter).
        self.races: list[RaceReport] = []
        #: Total races detected (not capped).
        self.race_count = 0
        #: Words involved in at least one race: the value oracle skips
        #: them (a racy word has no well-defined golden value).
        self.poisoned: set[int] = set()

    # --- access history ----------------------------------------------------

    def _event(self, kind: str, proc, page: int, offset: int, sim_time,
               clock) -> MemoryEvent:
        proc = int(proc)
        return _new(MemoryEvent, (kind, proc, self.nodes[proc], page, offset,
                                  page * self.wpp + offset, float(sim_time),
                                  int(clock)))

    def _access(self, kind: str, proc, page: int,
                offset: int) -> MemoryEvent:
        """The event of ``proc`` accessing the word now."""
        pid = proc.global_id
        return _new(MemoryEvent, (kind, pid, proc.node.id, page, offset,
                                  page * self.wpp + offset, proc.clock,
                                  int(self.vc[pid][pid])))

    def last_write(self, word: int) -> MemoryEvent | None:
        """The last traced write of global ``word``; None if unwritten."""
        page, offset = divmod(word, self.wpp)
        st = self.pages.get(page)
        if st is None or not st.wepoch[offset]:
            return None
        return self._event("write", st.wproc[offset], page, offset,
                           st.wtime[offset], st.wepoch[offset])

    def digest(self) -> bytes:
        """Canonical state for hashing: every clock, and per touched page
        each word's writer, write epoch and read epochs. Times and
        first-read order only shape reports and are left out."""
        keys = sorted(self.sync_clocks)
        touched = sorted(self.pages)
        h = hashlib.sha256(repr((keys, touched)).encode())
        for clock in self.vc + [self.sync_clocks[key] for key in keys]:
            h.update(clock)
        for page in touched:
            st = self.pages[page]
            h.update(st.wproc)
            h.update(st.wepoch)
            h.update(st.repoch)
        return h.digest()

    # --- memory accesses ---------------------------------------------------

    # The range hooks run the happens-before test on a page's latest
    # epochs first and per word only if that fails; epoch 0 (nothing
    # recorded) never fails it. The word hooks take the same steps on
    # numpy scalars, paying for no slices.

    def _report(self, proc, first: MemoryEvent,
                second: MemoryEvent) -> None:
        self.race_count += 1
        proc.stats.bump("check_races")
        self.poisoned.add(second.word)
        if len(self.races) < MAX_RACE_REPORTS:
            self.races.append(RaceReport(
                word=second.word, page=second.page, offset=second.offset,
                first=first, second=second))

    def on_read(self, proc, page: int, offset: int) -> MemoryEvent:
        """Trace one word read; flag a write-read race if concurrent."""
        ev = self._access("read", proc, page, offset)
        pid, st = ev.proc, self.pages.get(page)
        if st is None:
            st = self.pages[page] = _Page(self.nprocs, self.wpp)
        if st.wepoch[offset] > self.vc[pid][st.wproc[offset]]:
            self._report(proc, self.last_write(ev.word), ev)
        if not st.rfirst[pid, offset]:
            st.rfirst[pid, offset] = self._seq
        self._seq -= 1
        st.repoch[pid, offset] = st.alatest[pid] = ev.clock
        st.rtime[pid, offset] = ev.sim_time
        proc.stats.counters["check_events"] += 1
        return ev

    def on_write(self, proc, page: int, offset: int) -> MemoryEvent:
        """Trace one word write; flag any concurrent prior read/write."""
        ev = self._access("write", proc, page, offset)
        pid, st = ev.proc, self.pages.get(page)
        if st is None:
            st = self.pages[page] = _Page(self.nprocs, self.wpp)
        myc = self.vc[pid]
        if st.wepoch[offset] > myc[st.wproc[offset]]:
            self._report(proc, self.last_write(ev.word), ev)
        racy = st.repoch[:, offset] > myc
        if _nonzero(racy):
            for first in self._reads(st, page, offset, racy):
                self._report(proc, first, ev)
        st.wproc[offset], st.wepoch[offset] = pid, ev.clock
        st.wtime[offset] = ev.sim_time
        st.reads[:, :, offset] = 0
        st.wlatest[pid] = st.alatest[pid] = ev.clock
        proc.stats.counters["check_events"] += 1
        return ev

    def _reads(self, st: _Page, page: int, offset: int,
               racy: np.ndarray) -> list[MemoryEvent]:
        """The ``racy`` processors' last reads, in first-read order."""
        readers = racy.nonzero()[0]
        return [self._event("read", q, page, offset, st.rtime[q, offset],
                            st.repoch[q, offset])
                for q in readers[np.argsort(-st.rfirst[readers, offset])]]

    def on_read_range(self, proc, page: int, lo: int, hi: int) -> None:
        """Trace reads of words ``[lo, hi)`` of ``page``; flag a
        write-read race on each whose last write is concurrent, in word
        order."""
        pid = proc.global_id
        myc = self.vc[pid]
        epoch = myc[pid]
        st = self.pages.get(page)
        if st is None:
            st = self.pages[page] = _Page(self.nprocs, self.wpp)
        racy = ()
        if _nonzero(st.wlatest > myc):
            ww = st.wepoch[lo:hi] > myc[st.wproc[lo:hi]]
            if _nonzero(ww):
                racy = ww.nonzero()[0].tolist()
        ranks = st.rfirst[pid, lo:hi]
        np.maximum(ranks, self._seq, out=ranks)
        self._seq -= 1
        st.repoch[pid, lo:hi] = epoch
        st.rtime[pid, lo:hi] = proc.clock
        st.alatest[pid] = epoch
        proc.stats.counters["check_events"] += hi - lo
        for k in racy:
            self._report(proc, self.last_write(page * self.wpp + lo + k),
                         self._access("read", proc, page, lo + k))

    def on_write_range(self, proc, page: int, lo: int, hi: int) -> None:
        """Trace writes of words ``[lo, hi)`` of ``page``; flag each
        concurrent prior access, in word order: the write first, then
        the readers in the order they first read the word."""
        pid = proc.global_id
        myc = self.vc[pid]
        epoch = myc[pid]
        st = self.pages.get(page)
        if st is None:
            st = self.pages[page] = _Page(self.nprocs, self.wpp)
        firsts = []
        if _nonzero(st.alatest > myc):
            ww = st.wepoch[lo:hi] > myc[st.wproc[lo:hi]]
            rr = st.repoch[:, lo:hi] > myc[:, None]
            if _nonzero(ww) or _nonzero(rr):
                for k in (ww | rr.any(axis=0)).nonzero()[0].tolist():
                    o = lo + k
                    if ww[k]:
                        firsts.append(self.last_write(page * self.wpp + o))
                    firsts += self._reads(st, page, o, rr[:, k])
        # This write happens-after (or races with) everything recorded;
        # it becomes the sole history for its words.
        st.wproc[lo:hi] = pid
        st.wepoch[lo:hi] = epoch
        st.wtime[lo:hi] = proc.clock
        st.reads[:, :, lo:hi] = 0
        st.wlatest[pid] = st.alatest[pid] = epoch
        proc.stats.counters["check_events"] += hi - lo
        for first in firsts:
            self._report(proc, first,
                         self._access("write", proc, page, first.offset))

    # --- synchronization events -------------------------------------------

    def on_release(self, proc, key: tuple) -> None:
        """A release-type event on a lock/flag: publish our clock."""
        pid = proc.global_id
        clock = self.sync_clocks.get(key)
        if clock is None:
            clock = self.sync_clocks[key] = np.zeros(self.nprocs, np.int64)
        np.maximum(clock, self.vc[pid], out=clock)
        self.vc[pid][pid] += 1
        proc.stats.bump("check_vc_merges")

    def on_acquire(self, proc, key: tuple) -> None:
        """An acquire-type event: adopt the sync object's clock."""
        clock = self.sync_clocks.get(key)
        if clock is not None:
            mine = self.vc[proc.global_id]
            np.maximum(mine, clock, out=mine)
            proc.stats.bump("check_vc_merges")

    def on_barrier_arrive(self, proc, episode: int) -> bool:
        """Merge the arriver into the episode clock; True on last arrival."""
        pid = proc.global_id
        clock = self._barrier_clocks.get(episode)
        if clock is None:
            clock = self._barrier_clocks[episode] = np.zeros(
                self.nprocs, np.int64)
            self._barrier_arrived[episode] = 0
            self._barrier_departed[episode] = 0
        np.maximum(clock, self.vc[pid], out=clock)
        self.vc[pid][pid] += 1
        proc.stats.bump("check_vc_merges")
        self._barrier_arrived[episode] += 1
        return self._barrier_arrived[episode] == self.nprocs

    def on_barrier_depart(self, proc, episode: int) -> None:
        """Adopt the merged episode clock on departure."""
        clock = self._barrier_clocks.get(episode)
        if clock is not None:
            mine = self.vc[proc.global_id]
            np.maximum(mine, clock, out=mine)
            proc.stats.bump("check_vc_merges")
        # Prune the episode once everyone has left.
        self._barrier_departed[episode] += 1
        if self._barrier_departed[episode] == self.nprocs:
            del self._barrier_clocks[episode]
            del self._barrier_arrived[episode]
            del self._barrier_departed[episode]
