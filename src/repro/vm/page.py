"""Access permissions and the per-owner record.

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

import mmap

import numpy as np

from ..errors import ProtocolError


class Perm:
    """Page access permissions, loosest-to-strictest ordered.

    Plain ints, not an ``IntEnum``: rows and directory entries hold
    them, so compares and ``max`` run at int speed (DESIGN.md §19). The
    protocols import the module constants below.
    """

    INVALID, READ, WRITE = 0, 1, 2  # WRITE is read-write


INVALID, READ, WRITE = Perm.INVALID, Perm.READ, Perm.WRITE


class Owner:
    """Everything one owner keeps, in one record (DESIGN.md §2).

    State and storage sit together, like StarPU's per-node
    ``local_data_state``: the page table (a row per page, a permission per
    local processor, i.e. the second-level directory's mapping words)
    and its processors' software TLBs, the frames and the memory behind
    them, the twins, the notice board, and the processors' protocol
    states. A protocol with per-owner facts of its own fills the fields
    that stay ``None`` otherwise: 2L's logical clock, release time and
    :class:`~repro.protocol.directory.PageMeta` list, 1L's doubling facts.

    Rows, frames and cached mappings change only through the record's
    mutators (DESIGN.md §9): :meth:`set_perm`, :meth:`map`, :meth:`alias`
    and :meth:`unmap`. Each drops exactly the cached entries it kills;
    code outside the record may loosen a row in place, nothing more.
    """

    __slots__ = ("rows", "rmaps", "wmaps", "frames", "backing", "wpp",
                 "twins", "board", "ps", "logical", "last_release_ts",
                 "meta", "doubling")

    def __init__(self, num_pages: int, words_per_page: int, procs: int,
                 board=None) -> None:
        if num_pages < 1 or words_per_page < 1 or procs < 1:
            raise ProtocolError("degenerate owner geometry")
        # Rows are plain lists for cheap fast-path access.
        self.rows: list[list[int]] = [[INVALID] * procs
                                      for _ in range(num_pages)]
        #: Software TLB, one pair of maps per local processor, shared by
        #: reference with that processor's ``WorkerEnv`` closures (which
        #: fill them after a dispatched access and read them inline),
        #: sound by the ``map-permitted`` invariant.
        self.rmaps: list[dict[int, np.ndarray]] = [{} for _ in range(procs)]
        self.wmaps: list[dict[int, memoryview]] = [{} for _ in range(procs)]
        #: Mapped frames (page -> view), shared with every processor state.
        self.frames: dict[int, np.ndarray] = {}
        #: The owner's memory. Anonymous mmap, not ``np.zeros``: pages no
        #: frame ever touches stay unbacked (the heap would commit them),
        #: and freeing it leaves glibc's mmap threshold where it was
        #: (``repro.runtime.sequential.SequentialEnv.mem`` does the same).
        self.backing: np.ndarray = np.frombuffer(
            mmap.mmap(-1, num_pages * words_per_page * 8), dtype=np.float64)
        self.wpp = words_per_page
        #: Twins (page -> copy of the frame as last flushed or merged,
        #: Section 2.2).
        self.twins: dict[int, np.ndarray] = {}
        #: The owner's global write-notice list.
        self.board = board
        #: The local processors' protocol states, by page-table column.
        self.ps: list = []
        self.logical: int | None = None
        self.last_release_ts: int | None = None
        self.meta: list | None = None
        self.doubling: dict[int, tuple[float, bool]] | None = None

    def set_perm(self, page: int, proc: int, perm: int) -> None:
        row = self.rows[page]
        old = row[proc]
        if perm != old:
            row[proc] = perm
            if perm < old:
                # Tightening shoots down this processor's cached mapping
                # of this page, nothing else: any drop kills the write
                # mapping, a drop below READ the read mapping too.
                # Loosening is silent — a cached entry embodies rights
                # already granted, and granting more cannot stale it.
                # (``in``/``del`` rather than ``pop``: call-free on the
                # invalidation path of every acquire.)
                wmap = self.wmaps[proc]
                if page in wmap:
                    del wmap[page]
                if perm < READ:
                    rmap = self.rmaps[proc]
                    if page in rmap:
                        del rmap[page]

    def writers(self, page: int) -> list[int]:
        return [i for i, p in enumerate(self.rows[page]) if p >= WRITE]

    def mapped(self, page: int) -> list[int]:
        return [i for i, p in enumerate(self.rows[page]) if p >= READ]

    def map(self, page: int, contents: np.ndarray | None = None) -> np.ndarray:
        """Map (or return) the page's frame, optionally initializing it.

        A fresh mapping is the page's slot of this owner's memory, zeroed
        without ``contents``: the slot may still hold the words of an
        earlier mapping. It evicts nothing, since no cached mapping can
        exist while the page is unmapped."""
        frames = self.frames
        frame = frames.get(page)
        if frame is None:
            wpp = self.wpp
            frame = frames[page] = self.backing[page * wpp:(page + 1) * wpp]
            if contents is None:
                frame.fill(0.0)
        if contents is not None:
            frame[:] = contents
        return frame

    def alias(self, page: int, frame: np.ndarray) -> None:
        """Map ``frame`` — the one-level master, under the home-node
        optimization — in place of this owner's own slot, dropping every
        local processor's cached mappings of the frame it replaces."""
        for maps in (self.rmaps, self.wmaps):
            for m in maps:
                m.pop(page, None)
        self.frames[page] = frame

    def unmap(self, page: int) -> None:
        """Drop the page's frame and twin and every local processor's
        cached mappings of it."""
        self.twins.pop(page, None)
        if self.frames.pop(page, None) is not None:
            for maps in (self.rmaps, self.wmaps):
                for m in maps:
                    m.pop(page, None)
