"""Per-owner page tables with per-processor permissions.

Under the two-level protocols each SMP node has one page table whose rows
carry a permission per *local processor* (the second-level directory's
mapping information); under the one-level protocols each processor is its
own owner with a single-column table. Permission changes model
``mprotect`` calls; the protocols charge the measured cost.

The table also owns each local processor's *software TLB* — the mappings
the runtime's inline access path (:class:`repro.runtime.env.WorkerEnv`)
has cached — and is the one place that knows how a mapping dies
(DESIGN.md §9, "Per-page shootdown").
"""

from __future__ import annotations

import numpy as np

from .page import Perm

_READ, _WRITE = int(Perm.READ), int(Perm.WRITE)


class PageTable:
    """Permissions for one owner: ``perm(page, proc)`` for local processors."""

    def __init__(self, num_pages: int, procs: int) -> None:
        # One row per page; rows are plain lists for cheap fast-path access.
        self.rows: list[list[int]] = [[Perm.INVALID] * procs
                                      for _ in range(num_pages)]
        #: Software TLB, one pair of maps per local processor, shared by
        #: reference with that processor's ``WorkerEnv`` closures (which
        #: fill them after a dispatched access and read them inline),
        #: sound by the ``map-permitted`` invariant. Only tightening
        #: (:meth:`set_perm`) and a frame unmap or rebind (:meth:`evict`,
        #: :meth:`evict_all`) can break it; each drops what it kills.
        self.rmaps: list[dict[int, np.ndarray]] = [{} for _ in range(procs)]
        self.wmaps: list[dict[int, memoryview]] = [{} for _ in range(procs)]

    def perm(self, page: int, proc: int) -> int:
        """Current permission as a plain int (a :class:`Perm` value).

        Returned as ``int`` rather than ``Perm`` — this sits on the
        protocol fast path and the enum construction costs more than the
        lookup; ``Perm`` is an ``IntEnum`` so comparisons work either way.
        """
        return self.rows[page][proc]

    def set_perm(self, page: int, proc: int, perm: Perm) -> None:
        row = self.rows[page]
        value = int(perm)
        old = row[proc]
        if value != old:
            row[proc] = value
            if value < old:
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
                if value < _READ:
                    rmap = self.rmaps[proc]
                    if page in rmap:
                        del rmap[page]

    def evict(self, page: int, proc: int) -> None:
        """Drop ``proc``'s cached mappings of ``page`` (its frame is being
        unmapped or rebound)."""
        self.rmaps[proc].pop(page, None)
        self.wmaps[proc].pop(page, None)

    def evict_all(self, page: int) -> None:
        """Drop every local processor's cached mappings of ``page``."""
        for maps in (self.rmaps, self.wmaps):
            for m in maps:
                m.pop(page, None)

    def writers(self, page: int) -> list[int]:
        return [i for i, p in enumerate(self.rows[page]) if p >= _WRITE]

    def mapped(self, page: int) -> list[int]:
        return [i for i, p in enumerate(self.rows[page]) if p >= _READ]
