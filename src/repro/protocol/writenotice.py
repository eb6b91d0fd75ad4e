"""Write-notice lists (Section 2.3, Figure 4).

Each owner has a globally accessible write-notice board with one *bin*
(circular queue) per remote owner, so every bin has a single writer and
no global lock is needed. On an acquire, a processor traverses all bins
and distributes the notices to per-processor second-level lists
(``ProcProtoState.notices``): each is the paper's bitmap + queue in one
insertion-ordered dict, protected by a local ll/sc lock, so a redundant
notice finds its page already queued.

Notices carry the Memory Channel visibility time of the write that posted
them: an acquiring processor only consumes the prefix of each bin that
has become visible by its local clock, exactly like the hardware's
in-order delivery.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass


#: Shared empty result for collects with nothing pending (the common
#: case). Callers only iterate the result, never mutate it.
_EMPTY: list = []


@dataclass(frozen=True)
class WriteNotice:
    """Notification that ``page`` was modified by ``from_owner``."""

    page: int
    from_owner: int
    visible_at: float


class NoticeBoard:
    """One owner's global write-notice list: a bin per remote owner."""

    def __init__(self, num_owners: int) -> None:
        self.bins: list[deque[WriteNotice]] = [deque()
                                               for _ in range(num_owners)]
        self.posted = 0
        self._consumed = 0

    def post(self, from_owner: int, page: int, visible_at: float) -> None:
        """Append a notice to ``from_owner``'s bin (a remote MC write).
        Releases post whole bursts inline
        (:meth:`~repro.protocol.base.BaseProtocol._post_write_notices`)."""
        self.bins[from_owner].append(
            WriteNotice(page, from_owner, visible_at))
        self.posted += 1

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
