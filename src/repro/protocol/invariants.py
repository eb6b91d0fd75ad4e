"""The protocols' structural invariants, stated once (DESIGN.md §7).

:data:`INVARIANTS` holds ``(name, scope, predicate)`` rows in the style
of a model checker's ``unsafe`` formulas over arrays indexed by owner.
A predicate returns ``None`` when its fact holds, else where it fails.
``always`` rows hold after every atomic protocol step, ``quiescent``
ones at a barrier's last arrival and at end of run. The oracle runs the
table at every barrier, so a predicate walks the state's lists and
dicts itself, calling no helper per (page, owner).
"""

from __future__ import annotations

import numpy as np

from ..errors import ProtocolError
from ..vm.page import Perm

ALWAYS, QUIESCENT = "always", "quiescent"
_READ, _WRITE = int(Perm.READ), int(Perm.WRITE)


def _master_present(proto) -> str | None:
    """Every page has a master: the home owner's frame (two-level) or a
    Memory Channel receive region (one-level)."""
    owners = proto.owners
    for page, entry in enumerate(proto.directory.entries):
        if page not in (owners[entry.home_owner].frames if proto.two_level
                        else proto.masters):
            return f"page {page} (home {entry.home_owner}) has no master"
    return None


def _perm_has_frame(proto) -> str | None:
    """An owner whose directory word permits a page has a frame for it."""
    owners = proto.owners
    for page, entry in enumerate(proto.directory.entries):
        for owner in entry.perms:
            if page not in owners[owner].frames:
                return f"owner {owner} permits page {page} without a frame"
    return None


def _table_within_directory(proto) -> str | None:
    """No page-table row grants more than its owner's directory word (the
    loosest local right, §2.3; a 1-level release downgrades only rows)."""
    entries = proto.directory.entries
    for owner, rec in enumerate(proto.owners):
        for page, row in enumerate(rec.rows):
            if max(row) > entries[page].perms.get(owner, 0):
                return f"owner {owner} page {page}: row {row} above its word"
    return None


def _map_permitted(proto) -> str | None:
    """A read-map entry means the row is at least READ and the entry is
    the owner's frame: its slot of the owner's memory, or the master
    under the home-node optimization. A write-map entry means the row is
    at least WRITE and the entry views that frame."""
    for owner, rec in enumerate(proto.owners):
        frames, rows, backing = rec.frames, rec.rows, rec.backing
        for p, (rmap, wmap) in enumerate(zip(rec.rmaps, rec.wmaps)):
            for page, frame in rmap.items():
                if rows[page][p] < _READ or frames.get(page) is not frame \
                        or not (frame.base is backing and frame.ctypes.data
                                == backing.ctypes.data + page * frame.nbytes
                                or proto.home_opt
                                and frame is proto.masters[page]):
                    return f"owner {owner} proc {p}: stale read map of {page}"
            for page, view in wmap.items():
                if rows[page][p] < _WRITE or view.obj is not frames.get(page):
                    return f"owner {owner} proc {p}: stale write map of {page}"
    return None


def _writers_counted(proto) -> str | None:
    """A directory entry's ``writers`` total is its number of WRITE words."""
    for page, entry in enumerate(proto.directory.entries):
        if entry.writers != list(entry.perms.values()).count(_WRITE):
            return f"page {page}: writers total {entry.writers} is stale"
    return None


def _twin_has_frame(proto) -> str | None:
    """A twin is a copy of a frame its owner still has."""
    for owner, rec in enumerate(proto.owners):
        for page in rec.twins.keys() - rec.frames.keys():
            return f"owner {owner} twins page {page} without a frame"
    return None


def _twin_matches_frame(proto) -> str | None:
    """At quiescence every local modification is flushed into frame and
    twin alike, and every remote one entered both together (§2.2)."""
    for owner, rec in enumerate(proto.owners):
        for page, twin in rec.twins.items():
            off = np.flatnonzero(twin != rec.frames[page])
            if len(off):
                return (f"owner {owner}'s twin of page {page} differs from "
                        f"its frame at word {off[0]}: a lost write")
    return None


#: Checked in order: :func:`check` names the first failing row.
INVARIANTS = (
    ("master-present", ALWAYS, _master_present),
    ("perm-has-frame", ALWAYS, _perm_has_frame),
    ("table-within-directory", ALWAYS, _table_within_directory),
    ("map-permitted", ALWAYS, _map_permitted),
    ("writers-counted", ALWAYS, _writers_counted),
    ("twin-has-frame", ALWAYS, _twin_has_frame),
    ("twin-matches-frame", QUIESCENT, _twin_matches_frame),
)


def check(proto, *, quiescent: bool = False) -> None:
    """Raise :class:`ProtocolError` naming the first failing row (the
    ``quiescent`` rows only with ``quiescent``)."""
    for name, scope, predicate in INVARIANTS:
        if (scope == ALWAYS or quiescent) and \
                (problem := predicate(proto)) is not None:
            raise ProtocolError(f"invariant {name} violated: {problem}",
                                invariant=name)


def authoritative(proto, page: int) -> np.ndarray:
    """The freshest copy of ``page``: the exclusive holder's frame if
    one exists, otherwise the master."""
    holder = proto.directory.entries[page].excl
    return proto.master(page) if holder is None \
        else proto.owners[holder[0]].frames[page]
