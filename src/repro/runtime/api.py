"""The shared-memory segment and array handles.

Applications allocate named :class:`SharedArray` objects from a
:class:`SharedSegment`. Arrays are laid out in a single word-addressed
shared address space split into pages; by default each array starts on a
fresh page (false sharing between *different* arrays is an accident of
layout, not an algorithm property, and the paper's applications were laid
out the same way). Within an array, page boundaries fall where they fall
— that is where the protocols' multiple-writer false-sharing handling
earns its keep.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import MachineConfig
from ..errors import ConfigError, SimulationError

@dataclass(frozen=True)
class SharedArray:
    """A named, contiguous range of shared words."""

    name: str
    base: int      # first word index in the shared segment
    length: int    # number of 64-bit words

    def index(self, i: int) -> int:
        return self.base + i

    def block_error(self, lo: int, hi: int) -> SimulationError:
        """The error a block access of words ``[lo, hi)`` raises when
        not ``0 <= lo <= hi <= length``. Block accesses check their
        bounds inline; scalar ``get``/``set`` do not (DESIGN.md §9)."""
        return SimulationError(
            f"block [{lo}, {hi}) outside array {self.name!r} of "
            f"length {self.length}")


class SharedSegment:
    """A bump allocator over the shared address space."""

    def __init__(self, config: MachineConfig) -> None:
        self.config = config
        self.total_words = config.shared_bytes // 8
        self._next = 0
        self.arrays: dict[str, SharedArray] = {}

    def alloc(self, name: str, length: int,
              page_aligned: bool = True) -> SharedArray:
        """Allocate ``length`` words, optionally starting on a page boundary."""
        if name in self.arrays:
            raise ConfigError(f"shared array {name!r} already allocated")
        if length <= 0:
            raise ConfigError(f"array {name!r} must have positive length")
        base = self._next
        wpp = self.config.words_per_page
        if page_aligned and base % wpp:
            base += wpp - base % wpp
        if base + length > self.total_words:
            raise ConfigError(
                f"shared segment exhausted allocating {name!r}: need "
                f"{length} words at {base}, have {self.total_words} total; "
                f"increase MachineConfig.shared_bytes")
        arr = SharedArray(name, base, length)
        self.arrays[name] = arr
        self._next = base + length
        return arr

    def array(self, name: str) -> SharedArray:
        return self.arrays[name]

    @property
    def words_used(self) -> int:
        return self._next

    def pages_used(self) -> int:
        wpp = self.config.words_per_page
        return (self._next + wpp - 1) // wpp
