"""The dense directory entry: the paper's literal one-word-per-owner layout.

A differential reference for :class:`repro.protocol.directory.DirEntry`,
the sparse O(sharers) form the simulator runs. It pays O(num_owners) per
scan and must agree with the sparse form on every accessor for every
update sequence (``tests/test_directory.py``).

Also the rescan reference for the directory's kept occupancy totals:
:func:`rescan_occupancy` recomputes what
:meth:`~repro.protocol.directory.GlobalDirectory.occupancy` returns by
walking every entry, sparse or dense.
"""

from dataclasses import dataclass

from repro.errors import ProtocolError
from repro.protocol.directory import NO_HOLDER, DirEntry
from repro.vm.page import Perm


def occupancy_into(entry: DirEntry, per_owner: list[int]) -> int:
    """Add a sparse entry's sharers to ``per_owner`` and return its
    page-state histogram bucket (0 invalid, 1 read, 2 write,
    3 exclusive), from ``perms`` and ``excl`` alone."""
    loosest = Perm.INVALID
    for owner, perm in entry.perms.items():
        per_owner[owner] += 1
        if perm > loosest:
            loosest = perm
    if entry.excl is not None:
        return 3
    if loosest >= Perm.WRITE:
        return 2
    if loosest >= Perm.READ:
        return 1
    return 0


def rescan_occupancy(entries, num_owners: int) -> tuple[list[int],
                                                        list[int]]:
    """``(per_owner, histogram)`` by a full rescan of ``entries``."""
    per_owner = [0] * num_owners
    histogram = [0, 0, 0, 0]
    for entry in entries:
        if isinstance(entry, DenseDirEntry):
            histogram[entry.occupancy_into(per_owner)] += 1
        else:
            histogram[occupancy_into(entry, per_owner)] += 1
    return per_owner, histogram


@dataclass(slots=True)
class DirWord:
    """One owner's view of a page (one 32-bit MC word)."""

    perm: Perm = Perm.INVALID
    excl_holder: int = NO_HOLDER  # global processor id, or NO_HOLDER


class DenseDirEntry:
    """A directory entry stored as one :class:`DirWord` per owner."""

    __slots__ = ("words", "home_owner", "excl", "excl_known")

    def __init__(self, home_owner: int, *, num_owners: int = 0,
                 words: "list[DirWord] | None" = None) -> None:
        self.home_owner = home_owner
        self.words: list[DirWord] = (
            words if words is not None
            else [DirWord() for _ in range(num_owners)])
        # Cached (owner, processor) of the current exclusive holder, kept
        # in lockstep with the per-word ``excl_holder`` fields by
        # set_excl/clear_excl; derived lazily from the words on first use
        # (``excl_known``), so entries built with pre-set words agree.
        self.excl: tuple[int, int] | None = None
        self.excl_known = False

    def perm_of(self, owner: int) -> Perm:
        return self.words[owner].perm

    def set_perm(self, owner: int, perm: Perm) -> None:
        self.words[owner].perm = perm

    def sharers(self) -> list[int]:
        return [i for i, w in enumerate(self.words) if w.perm >= Perm.READ]

    def has_other_sharer(self, owner: int) -> bool:
        return any(o != owner for o in self.sharers())

    def exclusive_holder(self) -> tuple[int, int] | None:
        if not self.excl_known:
            self._derive_excl()
        return self.excl

    def excl_of(self, owner: int) -> int:
        holder = self.exclusive_holder()
        return holder[1] if holder is not None and holder[0] == owner \
            else NO_HOLDER

    def _derive_excl(self) -> None:
        holders = [(i, w.excl_holder) for i, w in enumerate(self.words)
                   if w.excl_holder != NO_HOLDER]
        if len(holders) > 1:
            raise ProtocolError(
                f"directory corrupt: exclusive holders on owners "
                f"{[h[0] for h in holders]}")
        self.excl = holders[0] if holders else None
        self.excl_known = True

    def set_excl(self, owner: int, proc: int) -> None:
        if not self.excl_known:
            self._derive_excl()
        if self.excl is not None and self.excl[0] != owner:
            raise ProtocolError(
                f"directory corrupt: exclusive holders on owners "
                f"{[self.excl[0], owner]}")
        self.words[owner].excl_holder = proc
        self.excl = (owner, proc)

    def clear_excl(self, owner: int) -> None:
        if not self.excl_known:
            self._derive_excl()
        self.words[owner].excl_holder = NO_HOLDER
        if self.excl is not None and self.excl[0] == owner:
            self.excl = None

    def state_tuple(self) -> tuple:
        return (tuple(sorted(
            (o, int(w.perm)) for o, w in enumerate(self.words)
            if w.perm > Perm.INVALID)),
            self.exclusive_holder())

    def occupancy_into(self, per_owner: list[int]) -> int:
        loosest = Perm.INVALID
        exclusive = False
        for owner, word in enumerate(self.words):
            if word.perm >= Perm.READ:
                per_owner[owner] += 1
            if word.perm > loosest:
                loosest = word.perm
            if word.excl_holder != NO_HOLDER:
                exclusive = True
        if exclusive:
            return 3
        if loosest >= Perm.WRITE:
            return 2
        if loosest >= Perm.READ:
            return 1
        return 0
