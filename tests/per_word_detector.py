"""The per-word race detector: one dict entry and one event per word.

A differential reference for :class:`repro.check.RaceDetector`, which
keeps its access history in per-page arrays and checks a whole range
with one page-level epoch test. This is the algorithm it replaced:
every access of every word builds a :class:`MemoryEvent`; each touched
word keeps its last write event and a dict of each processor's last
read event since that write, in first-read order. The two must agree on
every race report and its order, on ``race_count``, the poisoned set,
``check_events`` and the error ``finalize`` raises
(``tests/test_race_detector.py``).

:class:`PerWordCheckContext` is the checker as it was before the range
hooks: every word of a range is traced on its own and every read goes
through the oracle.
"""

from repro.check import CheckContext, CoherenceOracle, RaceDetector
from repro.check.detector import MAX_RACE_REPORTS
from repro.check.events import MemoryEvent, RaceReport


class _WordState:
    """Per-word access history: last write event + last read per proc."""

    __slots__ = ("write", "reads")

    def __init__(self) -> None:
        self.write: MemoryEvent | None = None
        self.reads: dict[int, MemoryEvent] = {}


class PerWordDetector(RaceDetector):
    """The detector's clocks and sync hooks over per-word access state."""

    def __init__(self, cluster) -> None:
        super().__init__(cluster)
        self.words: dict[int, _WordState] = {}

    def _traced(self, kind, proc, page, offset):
        proc.stats.bump("check_events")
        pid = proc.global_id
        ev = MemoryEvent(kind, pid, proc.node.id, page, offset,
                         page * self.wpp + offset, proc.clock,
                         int(self.vc[pid][pid]))
        ws = self.words.get(ev.word)
        if ws is None:
            ws = self.words[ev.word] = _WordState()
        return ev, ws

    def _flag(self, proc, first, second):
        self.race_count += 1
        proc.stats.bump("check_races")
        self.poisoned.add(second.word)
        if len(self.races) < MAX_RACE_REPORTS:
            self.races.append(RaceReport(
                word=second.word, page=second.page, offset=second.offset,
                first=first, second=second))

    def _concurrent(self, prior, ev):
        return prior.proc != ev.proc and \
            prior.clock > self.vc[ev.proc][prior.proc]

    def on_read(self, proc, page, offset):
        ev, ws = self._traced("read", proc, page, offset)
        if ws.write is not None and self._concurrent(ws.write, ev):
            self._flag(proc, ws.write, ev)
        ws.reads[ev.proc] = ev
        return ev

    def on_write(self, proc, page, offset):
        ev, ws = self._traced("write", proc, page, offset)
        if ws.write is not None and self._concurrent(ws.write, ev):
            self._flag(proc, ws.write, ev)
        for r in ws.reads.values():
            if self._concurrent(r, ev):
                self._flag(proc, r, ev)
        ws.write = ev
        ws.reads.clear()
        return ev

    def on_read_range(self, proc, page, lo, hi):
        for offset in range(lo, hi):
            self.on_read(proc, page, offset)

    def on_write_range(self, proc, page, lo, hi):
        for offset in range(lo, hi):
            self.on_write(proc, page, offset)

    def last_write(self, word):
        ws = self.words.get(word)
        return ws.write if ws is not None else None


class PerWordCheckContext(CheckContext):
    """The checker with :class:`PerWordDetector`, one word at a time."""

    def __init__(self, cluster, protocol):
        super().__init__(cluster, protocol)
        self.detector = PerWordDetector(cluster)
        self.oracle = CoherenceOracle(protocol, self.detector)

    def on_load(self, proc, page, offset, value):
        self.oracle.check_read(self.detector.on_read(proc, page, offset),
                               value)

    def on_store(self, proc, page, offset, value):
        self.oracle.record_write(self.detector.on_write(proc, page, offset),
                                 value)

    def on_load_range(self, proc, page, lo, values):
        for i, value in enumerate(values):
            self.on_load(proc, page, lo + i, value)

    def on_store_range(self, proc, page, lo, values):
        self.detector.on_write_range(proc, page, lo, lo + len(values))
        self.oracle.record_write_range(page, lo, values)
