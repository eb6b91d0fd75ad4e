"""Write-notice lists (Section 2.3, Figure 4).

Each owner has a globally accessible write-notice board with one *bin*
(circular queue) per remote owner, so every bin has a single writer and
no global lock is needed. On an acquire, a processor traverses all bins
and distributes the notices to per-processor second-level lists; each of
those is a bitmap + queue protected by a local ll/sc lock, so redundant
notices for the same page collapse.

Notices carry the Memory Channel visibility time of the write that posted
them: an acquiring processor only consumes the prefix of each bin that
has become visible by its local clock, exactly like the hardware's
in-order delivery.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field


#: Shared empty results for drains/collects with nothing queued (the
#: common case). Callers only iterate the result, never mutate it.
_EMPTY: list = []


@dataclass(frozen=True)
class WriteNotice:
    """Notification that ``page`` was modified by ``from_owner``."""

    page: int
    from_owner: int
    visible_at: float


class NoticeBoard:
    """One owner's global write-notice list: a bin per remote owner."""

    #: Optional event tracer (:class:`repro.trace.Tracer`); set on every
    #: board by :func:`repro.trace.attach_tracer`.
    trace = None

    def __init__(self, owner: int, num_owners: int) -> None:
        self.owner = owner
        self.bins: list[deque[WriteNotice]] = [deque()
                                               for _ in range(num_owners)]
        self.posted = 0
        self._consumed = 0

    def post(self, from_owner: int, page: int, visible_at: float) -> None:
        """Append a notice to ``from_owner``'s bin (a remote MC write)."""
        self.bins[from_owner].append(
            WriteNotice(page, from_owner, visible_at))
        self.posted += 1
        if self.trace is not None:
            self.trace.instant("write_notice", None, visible_at, obj=page,
                               from_owner=from_owner, to_owner=self.owner)

    def collect(self, upto: float) -> list[WriteNotice]:
        """Consume every notice visible by time ``upto`` (bin order).

        A bin holds one remote *node*'s notices in post (event) order,
        but distinct processors of that node release at unordered
        simulated clocks, so ``visible_at`` is not monotone within a
        bin — Memory Channel ordering is per-source-processor, not
        per-node. A visible notice parked behind a not-yet-visible one
        must still be delivered: skipping it lets an acquirer that just
        took the poster's lock miss the invalidation and read a stale
        page (a lost update the race checker later flags).
        """
        if self._consumed == self.posted:
            return _EMPTY
        found: list[WriteNotice] = []
        for bin_ in filter(None, self.bins):  # the non-empty bins
            ripe = [wn for wn in bin_ if wn.visible_at <= upto]
            if ripe:
                unripe = [wn for wn in bin_ if wn.visible_at > upto] \
                    if len(ripe) < len(bin_) else ()
                bin_.clear()
                bin_.extend(unripe)
                found += ripe
        self._consumed += len(found)
        return found

    def pending(self) -> int:
        """Notices posted and not yet collected (visible or in flight)."""
        return self.posted - self._consumed


class PerProcNotices:
    """A processor's second-level write-notice list: bitmap + queue.

    ``add`` returns True when the notice was new (bit previously clear);
    redundant notices are dropped without touching the queue, which is the
    multi-bin structure's point. ``drain`` flushes the queue and clears
    the bitmap, as the protocol does while holding the local lock.
    """

    def __init__(self) -> None:
        self._bitmap: set[int] = set()
        self._queue: deque[int] = deque()
        self.redundant_drops = 0

    def add(self, page: int) -> bool:
        return self.add_many([page]) == 1

    def add_many(self, pages: list[int]) -> int:
        """:meth:`add` every page of ``pages``, in order; returns how
        many were new. One call per acquire instead of one per notice."""
        bitmap = self._bitmap
        fresh = [p for p in dict.fromkeys(pages) if p not in bitmap]
        bitmap.update(fresh)
        self._queue.extend(fresh)
        self.redundant_drops += len(pages) - len(fresh)
        return len(fresh)

    def drain(self) -> list[int]:
        if not self._queue:
            return _EMPTY
        pages = list(self._queue)
        self._queue.clear()
        self._bitmap.clear()
        return pages

    def __len__(self) -> int:
        return len(self._queue)


@dataclass
class NLEList:
    """A processor's no-longer-exclusive list (written by local peers).

    When a page leaves exclusive mode while other local processors hold
    write mappings, the responder places the page here; the owner flushes
    it at its next release as if it were dirty.
    """

    pages: set[int] = field(default_factory=set)

    def add(self, page: int) -> None:
        self.pages.add(page)

    def take_all(self) -> list[int]:
        if not self.pages:
            return _EMPTY
        pages = sorted(self.pages)
        self.pages.clear()
        return pages

    def __len__(self) -> int:
        return len(self.pages)
