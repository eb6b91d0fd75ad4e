"""The release-consistency coherence oracle.

Maintains a *golden* image of shared memory — the sequential execution a
data-race-free program is equivalent to, built by applying every traced
store in simulation-event order (which respects synchronization
causality, so for DRF programs it applies each word's writes in
happens-before order). The protocol's actual behaviour is cross-checked
against this image at three points:

* **every read** — a read whose word's happens-before-latest write is
  visible to the reader must return exactly that write's value (release
  consistency's contract for DRF programs). Racy words are skipped:
  their golden value is not well defined.

* **every barrier episode** (when the last processor arrives, i.e. after
  all arrival-side flushes) and at **end of run** — every row of the
  invariant table (:mod:`repro.protocol.invariants`, quiescent rows
  included) must hold, and the authoritative copy of every page (the
  exclusive holder's frame if one exists, otherwise the home's master
  copy) must equal the golden image word for word.

Any divergence raises :class:`~repro.errors.CoherenceViolation` naming
the failed row, or the first divergent word with page/offset/event
provenance. Unlike a wrong benchmark answer, that points at the exact
fact or access where the protocol went wrong.
"""

from __future__ import annotations

import numpy as np

from ..errors import CoherenceViolation, ProtocolError
from ..protocol.invariants import authoritative, check
from .detector import RaceDetector
from .events import MemoryEvent


class CoherenceOracle:
    """Golden-image cross-checking for one simulated execution."""

    def __init__(self, protocol, detector: RaceDetector) -> None:
        self.protocol = protocol
        self.detector = detector
        cfg = protocol.config
        self.wpp = cfg.words_per_page
        self.num_pages = cfg.num_pages
        #: The golden image: stores applied in event (= happens-before)
        #: order. Pages start zeroed, like the protocol's frames.
        self.golden = np.zeros(cfg.num_pages * self.wpp, dtype=np.float64)
        #: Global content checks performed (one per barrier episode plus
        #: the end-of-run check).
        self.global_checks = 0

    # --- per-access checks -------------------------------------------------

    def record_write(self, ev: MemoryEvent, value: float) -> None:
        self.golden[ev.word] = value

    def record_write_range(self, page: int, lo: int,
                           values: np.ndarray) -> None:
        base = page * self.wpp + lo
        self.golden[base:base + len(values)] = values

    def check_read(self, ev: MemoryEvent, value: float) -> None:
        """A read must observe the happens-before-latest write's value."""
        expected = self.golden[ev.word]
        if value == expected:
            return
        det = self.detector
        if ev.word in det.poisoned:
            return
        w = det.last_write(ev.word)
        if w is not None and w.proc != ev.proc and \
                w.clock > det.vc[ev.proc][w.proc]:
            return  # racing write: the race report covers it
        raise CoherenceViolation(
            f"stale read: {ev.describe()} returned {value!r}, but the "
            f"happens-before latest write"
            f"{' (' + w.describe() + ')' if w is not None else ''} "
            f"left {expected!r}",
            check="read-value", page=ev.page, offset=ev.offset,
            word=ev.word, expected=float(expected), actual=float(value),
            event=ev)

    # --- global checks -----------------------------------------------------

    def check_global(self, label: str) -> None:
        """Full cross-check at a sync quiescence point (barrier / end):
        the invariant table, then every authoritative copy against the
        golden image."""
        self.global_checks += 1
        proto = self.protocol
        try:
            check(proto, quiescent=True)
        except ProtocolError as exc:
            raise CoherenceViolation(f"at {label}: {exc}",
                                     check=exc.invariant) from exc
        wpp, poisoned = self.wpp, self.detector.poisoned
        for page in range(self.num_pages):
            actual = authoritative(proto, page)
            want = self.golden[page * wpp:(page + 1) * wpp]
            for off in np.nonzero(actual != want)[0]:
                word = page * wpp + int(off)
                if word in poisoned:
                    continue
                last = self.detector.last_write(word)
                raise CoherenceViolation(
                    f"authoritative copy of page {page} diverges from the "
                    f"golden image at {label}: word {int(off)} (global "
                    f"{word}) is {actual[off]!r}, want {want[off]!r}"
                    + (f"; last write: {last.describe()}"
                       if last is not None else "; never written"),
                    check="page-content", page=page, offset=int(off),
                    word=word, expected=float(want[off]),
                    actual=float(actual[off]), event=last)
