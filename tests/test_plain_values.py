"""The protocol slow path holds plain values (DESIGN.md §19).

Permissions are plain ints, not enum members, wherever a run leaves
them: page-table rows, directory entries and ``perm_of``. The records
built per event carry no instance ``__dict__``: ``Compute`` is slotted
and ``WriteNotice`` is an immutable tuple that still compares by value.
"""

import pytest

from repro import MachineConfig
from repro.apps import make_app
from repro.protocol.writenotice import NoticeBoard, WriteNotice
from repro.runtime.program import ParallelRuntime
from repro.sim.process import Compute, SimProcess

CFG = MachineConfig(nodes=2, procs_per_node=2, page_bytes=512)


@pytest.mark.parametrize("protocol", ["2L", "2LS", "1LD", "1L"])
def test_a_run_leaves_plain_values(protocol, monkeypatch):
    computes, notices = [], []
    dispatch, collect = SimProcess._dispatch, NoticeBoard.collect

    def spy_dispatch(self, instr):
        if type(instr) is Compute:
            computes.append(instr)
        dispatch(self, instr)

    def spy_collect(self, upto):
        found = collect(self, upto)
        notices.extend(found)
        return found

    monkeypatch.setattr(SimProcess, "_dispatch", spy_dispatch)
    monkeypatch.setattr(NoticeBoard, "collect", spy_collect)
    app = make_app("SOR")
    rt = ParallelRuntime(app, app.small_params(), CFG, protocol)
    rt.run()
    proto = rt.protocol
    for rec in proto.owners:
        for row in rec.rows:
            assert all(type(p) is int for p in row)
    for entry in proto.directory.entries:
        assert all(type(p) is int for p in entry.perms.values())
        for owner in range(len(proto.owners)):
            assert type(entry.perm_of(owner)) is int
    assert computes and notices
    for record in computes + notices:
        assert not hasattr(record, "__dict__")


def test_write_notice_is_an_immutable_value():
    wn = WriteNotice(3, 1, 12.5)
    assert wn == WriteNotice(3, 1, 12.5) != WriteNotice(3, 2, 12.5)
    assert (wn.page, wn.from_owner, wn.visible_at) == (3, 1, 12.5)
    with pytest.raises(AttributeError):
        wn.page = 4


def test_compute_is_slotted():
    c = Compute(2.0)
    assert (c.cpu_us, c.mem_bytes) == (2.0, 0.0)
    assert not hasattr(c, "__dict__")
