"""The distributed page directory (Section 2.3, Figures 1 and 2).

Each shared page has a replicated directory entry of one 32-bit word per
owner (SMP node in the two-level protocols, processor in the one-level
protocols). The word written by owner *i* describes *i*'s own view:

* the page's loosest permission on any of its processors (2 bits),
* the id of a processor holding the page in exclusive mode (6 bits),
* the id of the home processor / node (6 bits, redundant across words).

Because each word has a single writer, no global lock is needed —
modifications are broadcast over the Memory Channel and "doubled" to the
writer's local copy in software (directory regions do not use loop-back).
The lock-free layout is the paper's key to reduced protocol
synchronization; :class:`DirectoryLockModel` implements the Section 3.3.5
ablation where entries are compressed into a single word protected by a
cluster-wide lock (cost 16 us per update instead of 5 us, plus
serialization).

The simulation keeps one authoritative copy and performs updates
atomically at handler time; the Memory Channel's 5.2 us propagation shows
up in the costs and traffic accounting. This matches the protocol's
tolerance of briefly stale directory views.

Representation (DESIGN.md §15)
------------------------------
On the wire an entry is always ``num_owners`` words; in simulator memory
it need not be. :class:`DirEntry` is **sparse**: it stores only the
owners whose permission is READ or better (a dict keyed by owner) plus
the single cached exclusive holder, so entry size, ``sharers()`` and the
tighten/loosen scans cost O(sharers) instead of O(num_owners) (DESIGN.md
§15 has the 64-node case). Sparseness is purely a storage optimization:
the wire accounting (:meth:`GlobalDirectory.broadcast_bytes`) still
charges one word per replica, and every observable — permissions,
holders, occupancy, statistics, result bytes — is byte-identical to the
paper's dense one-word-per-owner layout. ``tests/dense_directory.py``
keeps that dense layout as a differential reference:
``tests/test_directory.py`` drives both forms through randomized update
sequences and asserts identical answers.

The occupancy gauges (:meth:`GlobalDirectory.occupancy`) are totals the
entries' mutators keep in line (DESIGN.md §13), so a metrics sample
costs O(num_owners), not a rescan of every entry.

The protocols mutate entries only through the accessor protocol —
``set_perm``, ``set_excl``/``clear_excl`` — and read them through
``perm_of``, ``excl_of``, ``sharers``, ``has_other_sharer``,
``exclusive_holder`` and ``state_tuple``, except that the flat slow
path (DESIGN.md §19) reads the ``excl`` and ``home_owner`` fields
directly. Nothing outside this module indexes directory words.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import MachineConfig
from ..errors import ProtocolError
from ..sim.engine import SerialResource
from ..vm.page import Perm

#: Sentinel for "no exclusive holder".
NO_HOLDER = -1

#: Permissions as plain ints (words may hold either form).
_INVALID, _WRITE = int(Perm.INVALID), int(Perm.WRITE)


class DirEntry:
    """A page's directory entry, sparse form.

    Stores only the owners whose loosest permission is READ or better
    (``perms``: owner -> Perm, never holding INVALID) plus the cached
    ``(owner, processor)`` exclusive holder. Invariants:

    * ``perms[o]`` exists iff owner *o*'s directory word would say READ
      or WRITE — so ``sharers()`` is just the (sorted) key set;
    * at most one owner holds the page exclusively, and ``excl`` *is*
      that fact — there is no per-word holder field to drift from it
      (``set_excl`` raises the corruption error a dense word scan
      would);
    * entry size is O(sharers), independent of ``num_owners``;
    * the directory's occupancy totals (``per_owner``, ``histogram``,
      shared with every entry of one :class:`GlobalDirectory`) count
      this entry as ``perms`` and ``bucket`` say: each mutator updates
      them before it returns, and one that raises changes nothing.
    """

    __slots__ = ("home_owner", "perms", "excl", "writers", "bucket",
                 "per_owner", "histogram")

    def __init__(self, home_owner: int, per_owner: list[int],
                 histogram: list[int]) -> None:
        self.home_owner = home_owner
        #: owner -> loosest Perm; only owners with perm > INVALID appear.
        self.perms: dict[int, Perm] = {}
        #: Cached (owner, processor) of the current exclusive holder. The
        #: fault path queries the holder on every fault; keeping it as a
        #: single field makes that O(1) and makes a two-holder state
        #: unrepresentable.
        self.excl: tuple[int, int] | None = None
        #: How many owners' words say WRITE.
        self.writers = 0
        #: The page's histogram bucket: 0 invalid, 1 read, 2 write,
        #: 3 exclusive (the loosest state over every owner).
        self.bucket = 0
        #: The directory's totals: pages each owner maps, and pages per
        #: bucket. A new entry is one more invalid page.
        self.per_owner = per_owner
        self.histogram = histogram
        histogram[0] += 1

    # --- accessor protocol -------------------------------------------------

    def perm_of(self, owner: int) -> Perm:
        """``owner``'s loosest permission for the page."""
        return self.perms.get(owner, Perm.INVALID)

    def set_perm(self, owner: int, perm: Perm) -> None:
        """Write ``owner``'s directory word's permission field."""
        perms = self.perms
        old = perms[owner] if owner in perms else _INVALID
        if perm > _INVALID:
            perms[owner] = perm
            if old == _INVALID:
                self.per_owner[owner] += 1
        elif old != _INVALID:
            del perms[owner]
            self.per_owner[owner] -= 1
        else:
            return
        if old == _WRITE:
            self.writers -= 1
        if perm == _WRITE:
            self.writers += 1
        if self.excl is None:
            bucket = 2 if self.writers else 1 if perms else 0
            if bucket != self.bucket:
                histogram = self.histogram
                histogram[self.bucket] -= 1
                histogram[bucket] += 1
                self.bucket = bucket

    def sharers(self) -> list[int]:
        """Owners whose loosest permission is READ or better, ascending."""
        return sorted(self.perms)

    def has_other_sharer(self, owner: int) -> bool:
        perms = self.perms
        return len(perms) > 1 or (len(perms) == 1 and owner not in perms)

    def exclusive_holder(self) -> tuple[int, int] | None:
        """(owner, processor) currently holding the page exclusively."""
        return self.excl

    def excl_of(self, owner: int) -> int:
        excl = self.excl
        return excl[1] if excl is not None and excl[0] == owner \
            else NO_HOLDER

    def set_excl(self, owner: int, proc: int) -> None:
        """Record ``proc`` (on ``owner``) as the exclusive holder."""
        excl = self.excl
        if excl is not None and excl[0] != owner:
            raise ProtocolError(
                f"directory corrupt: exclusive holders on owners "
                f"{[excl[0], owner]}")
        self.excl = (owner, proc)
        if self.bucket != 3:
            histogram = self.histogram
            histogram[self.bucket] -= 1
            histogram[3] += 1
            self.bucket = 3

    def clear_excl(self, owner: int) -> None:
        """Drop ``owner``'s exclusive holding (no-op if not the holder)."""
        excl = self.excl
        if excl is not None and excl[0] == owner:
            self.excl = None
            bucket = 2 if self.writers else 1 if self.perms else 0
            histogram = self.histogram
            histogram[3] -= 1
            histogram[bucket] += 1
            self.bucket = bucket

    def state_tuple(self) -> tuple:
        """Canonical hashable form for state digests (the model checker's
        ``state_key``). Identical for any entry form holding the same
        logical state."""
        return (tuple(sorted((o, int(p)) for o, p in self.perms.items())),
                self.excl)


class GlobalDirectory:
    """The replicated directory for every shared page; ``num_owners`` is
    the replication domain size. Every word change is booked (count,
    broadcast traffic, cost) by ``BaseProtocol._dir_word``."""

    def __init__(self, config: MachineConfig, num_owners: int,
                 lock_model: "DirectoryLockModel | None" = None) -> None:
        self.config = config
        self.num_owners = num_owners
        self.lock_model = lock_model
        #: Occupancy totals, kept by the entries' mutators: pages each
        #: owner maps (its word says READ or better), and pages per
        #: loosest state ``[invalid, read, write, exclusive]``.
        self.per_owner = [0] * num_owners
        self.histogram = [0, 0, 0, 0]
        per_super = config.superpage_pages
        # Round-robin initial home assignment, per superpage (Section 2.3).
        self.entries: list[DirEntry] = [
            DirEntry((page // per_super) % num_owners, self.per_owner,
                     self.histogram)
            for page in range(config.num_pages)]

    def entry(self, page: int):
        return self.entries[page]

    def home(self, page: int) -> int:
        return self.entries[page].home_owner

    def broadcast_bytes(self) -> int:
        """Wire bytes for one entry modification (word × replicas).

        Wire semantics, not storage: the broadcast always writes one
        word per replica regardless of the in-memory entry form.
        """
        return 4 * self.num_owners

    def occupancy(self) -> tuple[list[int], list[int]]:
        """Directory occupancy snapshot for the metrics collector.

        Returns ``(per_owner, histogram)``: ``per_owner[i]`` counts the
        pages owner *i* currently maps (its directory word says READ or
        better), and ``histogram`` buckets every page by its loosest
        cluster-wide state — ``[invalid, read, write, exclusive]``.
        Copies of the kept totals: O(num_owners), whatever the number of
        pages or sharers (``tests/dense_directory.py`` holds the rescan
        they must equal).
        """
        return list(self.per_owner), list(self.histogram)


class DirectoryLockModel:
    """Section 3.3.5 ablation: a single cluster-wide directory lock.

    With global locks the entry compresses to one word, but every update
    must acquire/release an 11 us Memory Channel lock around the 5 us
    modification — and updates from different processors serialize.
    """

    def __init__(self, config: MachineConfig) -> None:
        self.config = config
        self.lock = SerialResource(name="global-dir-lock")

    def update_cost(self, at: float) -> float:
        hold = self.config.costs.dir_update_locked
        begin, end = self.lock.acquire(at, hold)
        return end - at


@dataclass(slots=True)
class PageMeta:
    """Second-level (intra-node) directory state for one page (Section 2.3).

    Timestamps are values of the node's logical clock (incremented on page
    faults, page flushes, acquires, and releases):

    * ``flush_ts`` — when the most recent home-node flush began;
    * ``update_ts`` — when the most recent local update (fetch) completed;
    * ``wn_ts`` — when the most recent write notice was received.

    ``flush_end_real`` is the simulated real time at which the last flush's
    data reaches the home node, used by overlapping releases that skip a
    flush but must wait for the active one to complete.
    """

    flush_ts: int = -1
    update_ts: int = -1
    wn_ts: int = -1
    flush_end_real: float = 0.0
