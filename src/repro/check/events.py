"""Event records and race reports: the provenance the checker surfaces.

Every traced shared-memory access becomes a :class:`MemoryEvent`
carrying enough context to reconstruct *what happened where and when*:
the processor (and its node), the page and word offset, the simulated
time, and the access epoch used for the happens-before test. A
:class:`RaceReport` pairs the two conflicting events.

One event is built per checked word, so :class:`MemoryEvent` is an
immutable tuple record (DESIGN.md §8), cheap to build.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple


class MemoryEvent(NamedTuple):
    """One traced shared-memory access."""

    kind: str          # "read" or "write"
    proc: int          # global processor id
    node: int          # node id of the processor
    page: int
    offset: int        # word offset within the page
    word: int          # global word index (page * words_per_page + offset)
    sim_time: float    # the accessing processor's clock, microseconds
    clock: int         # the accessor's epoch counter at the access

    @property
    def epoch(self) -> tuple[int, int]:
        """The FastTrack epoch ``(clock, proc)`` of this access."""
        return (self.clock, self.proc)

    def describe(self) -> str:
        return (f"{self.kind} of page {self.page} word {self.offset} "
                f"(global word {self.word}) by p{self.proc} "
                f"(node {self.node}) at t={self.sim_time:.2f}us "
                f"[epoch {self.clock}@p{self.proc}]")


@dataclass(frozen=True)
class RaceReport:
    """Two conflicting, happens-before-concurrent accesses to one word."""

    word: int
    page: int
    offset: int
    first: MemoryEvent    # the earlier-traced access
    second: MemoryEvent   # the access whose check flagged the race

    @property
    def kind(self) -> str:
        """``"write-write"``, ``"read-write"`` or ``"write-read"``."""
        return f"{self.first.kind}-{self.second.kind}"

    def describe(self) -> str:
        return (f"data race on page {self.page} word {self.offset} "
                f"(global word {self.word}): {self.first.describe()} "
                f"is concurrent with {self.second.describe()}")
