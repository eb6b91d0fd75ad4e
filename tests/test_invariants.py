"""Every row of the invariant table fires (DESIGN.md §7).

Each case runs a small program to its final barrier, where every row
holds, then corrupts exactly one fact that a row states. ``check``
must name that row, and the coherence oracle's barrier check must
report a ``CoherenceViolation`` whose ``check`` is that name.
"""

import numpy as np
import pytest

from repro import MachineConfig
from repro.apps import make_app
from repro.errors import CoherenceViolation, ProtocolError
from repro.protocol.invariants import INVARIANTS, QUIESCENT, check
from repro.runtime.program import ParallelRuntime
from repro.vm.page import Perm

CFG = MachineConfig(nodes=2, procs_per_node=2, page_bytes=512,
                    checking=True)
RUNS = {"2L": ("2L", {}), "1LD": ("1LD", {}),
        "1L-home_opt": ("1L", {"home_opt": True})}


def _framed(proto):
    """(owner, page, frame) for every frame, owners and pages ascending."""
    return [(owner, page, rec.frames[page])
            for owner, rec in enumerate(proto.owners)
            for page in sorted(rec.frames)]


def _unmap_master(proto):
    if proto.two_level:
        proto.owners[proto.directory.home(0)].unmap(0)
    else:
        del proto.masters[0]


def _drop_permitted_frame(proto):
    """Keep a directory word over a dropped frame (off the home)."""
    for page, entry in enumerate(proto.directory.entries):
        for owner in entry.perms:
            if not proto.two_level or owner != entry.home_owner:
                proto.owners[owner].unmap(page)
                return
    raise AssertionError("no permitted page off its home")


def _raise_row(proto):
    """Raise a page-table row above its owner's directory word."""
    for page, entry in enumerate(proto.directory.entries):
        for owner, rec in enumerate(proto.owners):
            if entry.perm_of(owner) < Perm.WRITE:
                rec.rows[page][0] = int(Perm.WRITE)
                return
    raise AssertionError("every word says WRITE")


def _plant_write_map(proto):
    """A write-map entry whose row does not permit writing."""
    for owner, page, frame in _framed(proto):
        rec = proto.owners[owner]
        if rec.rows[page][0] < Perm.WRITE:
            rec.wmaps[0][page] = memoryview(frame)
            return
    raise AssertionError("no framed page below WRITE")


def _miscount_writers(proto):
    proto.directory.entries[0].writers += 1


def _twin_without_frame(proto):
    for rec in proto.owners:
        for page in range(proto.config.num_pages):
            if page not in rec.frames:
                rec.twins[page] = np.zeros(
                    proto.config.words_per_page)
                return
    raise AssertionError("every owner frames every page")


def _flip_twin_word(proto):
    owner, page, frame = _framed(proto)[0]
    twin = proto.owners[owner].twins.setdefault(page, frame.copy())
    twin[0] += 1.0


CORRUPT = {
    "master-present": _unmap_master,
    "perm-has-frame": _drop_permitted_frame,
    "table-within-directory": _raise_row,
    "map-permitted": _plant_write_map,
    "writers-counted": _miscount_writers,
    "twin-has-frame": _twin_without_frame,
    "twin-matches-frame": _flip_twin_word,
}


def test_every_row_has_a_corruption():
    assert [name for name, _, _ in INVARIANTS] == list(CORRUPT)


@pytest.mark.parametrize("row,scope", [(n, s) for n, s, _ in INVARIANTS])
@pytest.mark.parametrize("run", list(RUNS))
def test_row_fires(run, row, scope):
    protocol, kw = RUNS[run]
    app = make_app("SOR")
    rt = ParallelRuntime(app, app.small_params(), CFG, protocol, **kw)
    rt.run()  # the oracle checked every row at each barrier and the end
    proto = rt.protocol
    check(proto, quiescent=True)
    CORRUPT[row](proto)
    if scope == QUIESCENT:
        check(proto)  # silent while a release may be under way
    with pytest.raises(ProtocolError, match=row) as exc:
        check(proto, quiescent=True)
    assert exc.value.invariant == row
    with pytest.raises(CoherenceViolation, match=row) as exc:
        rt.checker.oracle.check_global("the test")
    assert exc.value.check == row
