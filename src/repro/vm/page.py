"""Page frames and access permissions.

Shared memory is an array of 64-bit words split into pages. Each *owner*
(an SMP node under the two-level protocols, an individual processor under
the one-level protocols — the defining difference between them) has at
most one physical frame per page; all processors of a node share that
frame, which is exactly the paper's "all processors on a node share the
same physical frame for a shared data page" and is what lets hardware
coherence coalesce protocol transactions.

Frames are views into the owner's memory, one float64 array per owner
holding every page at ``page * words_per_page``: the protocols genuinely
move application data through twins, diffs, and home-node master
copies, so a coherence bug shows up as a wrong numerical answer, and a
block access whose pages the owner holds is one slice of that memory.
"""

from __future__ import annotations

import enum
import mmap

import numpy as np

from ..errors import ProtocolError


class Perm(enum.IntEnum):
    """Page access permissions, loosest-to-strictest ordered."""

    INVALID = 0
    READ = 1
    WRITE = 2  # read-write


class FrameStore:
    """Physical page frames for every owner.

    ``owner`` ids index whatever replication domain the protocol uses
    (node ids for two-level, processor ids for one-level). Each owner has
    one backing array of ``num_pages * words_per_page`` words, its
    physical memory; a frame is the view of one page's slot in it.
    Frames are mapped lazily on first map and dropped on unmap; the
    *home* owner's frame is the master copy and is mapped eagerly.
    """

    def __init__(self, num_owners: int, num_pages: int,
                 words_per_page: int, tables=None) -> None:
        if num_owners < 1 or num_pages < 1 or words_per_page < 1:
            raise ProtocolError("degenerate frame store geometry")
        self.num_owners = num_owners
        self.num_pages = num_pages
        self.words_per_page = words_per_page
        self._frames: list[dict[int, np.ndarray]] = []
        #: Each owner's memory. Anonymous mmap, not ``np.zeros``: pages
        #: no frame ever touches stay unbacked (the heap would commit
        #: them).
        self.backings: list[np.ndarray] = []
        nbytes = num_pages * words_per_page * 8
        for _ in range(num_owners):
            self._frames.append({})
            self.backings.append(np.frombuffer(mmap.mmap(-1, nbytes),
                                               dtype=np.float64))
        #: Each owner's :class:`~repro.vm.pagetable.PageTable` (None for
        #: a bare store): unmapping a frame evicts the page from the
        #: software TLB of every processor of that owner.
        self._tables = tables

    def has_frame(self, owner: int, page: int) -> bool:
        return page in self._frames[owner]

    def frame(self, owner: int, page: int) -> np.ndarray:
        """The owner's frame for ``page``; raises if not mapped."""
        try:
            return self._frames[owner][page]
        except KeyError:
            raise ProtocolError(
                f"owner {owner} has no frame for page {page}") from None

    def map_frame(self, owner: int, page: int,
                  contents: np.ndarray | None = None) -> np.ndarray:
        """Map (or return) the owner's frame, optionally initializing it.

        A fresh mapping is zeroed without ``contents``: the slot may
        still hold the words of an earlier mapping of the page."""
        frames = self._frames[owner]
        frame = frames.get(page)
        if frame is None:
            wpp = self.words_per_page
            frame = self.backings[owner][page * wpp:(page + 1) * wpp]
            # Silent towards the software TLB: no cached mapping of a page
            # can exist while the owner has no frame for it (unmap evicts).
            frames[page] = frame
            if contents is None:
                frame.fill(0.0)
        if contents is not None:
            frame[:] = contents
        return frame

    def unmap_frame(self, owner: int, page: int) -> None:
        if self._frames[owner].pop(page, None) is not None \
                and self._tables is not None:
            self._tables[owner].evict_all(page)

    def frames_of(self, owner: int) -> dict[int, np.ndarray]:
        return self._frames[owner]
