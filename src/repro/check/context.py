"""Wiring: one object that protocols and sync primitives call into.

A :class:`CheckContext` bundles a :class:`~repro.check.RaceDetector`
and a :class:`~repro.check.CoherenceOracle` and implements the checker
interface the instrumented code expects (``on_load``/``on_store``/
``on_acquire``/``on_release``/``on_barrier_arrive``/…). Attach one with
:func:`attach_checker`; every subsequent shared-memory access and sync
event of the execution is checked.

The runtime (:class:`~repro.runtime.ParallelRuntime`) attaches a
context automatically when the ``MachineConfig.checking`` flag is set,
and calls :meth:`finalize` after the run.
"""

from __future__ import annotations

import numpy as np

from ..errors import DataRaceError
from .detector import RaceDetector
from .oracle import CoherenceOracle


class CheckContext:
    """The checker: routes instrumentation hooks to detector and oracle."""

    def __init__(self, cluster, protocol) -> None:
        self.cluster = cluster
        self.protocol = protocol
        self.detector = RaceDetector(cluster)
        self.oracle = CoherenceOracle(protocol, self.detector)
        self.finalized = False

    # --- convenience -------------------------------------------------------

    @property
    def races(self):
        return self.detector.races

    @property
    def race_count(self) -> int:
        return self.detector.race_count

    # --- memory hooks (called from the protocol fast path) -----------------

    def on_load(self, proc, page: int, offset: int, value: float) -> None:
        ev = self.detector.on_read(proc, page, offset)
        self.oracle.check_read(ev, value)

    def on_store(self, proc, page: int, offset: int, value: float) -> None:
        ev = self.detector.on_write(proc, page, offset)
        self.oracle.record_write(ev, value)

    def on_load_range(self, proc, page: int, lo: int,
                      values: np.ndarray) -> None:
        """:meth:`on_load` for each word of ``values`` in order. A word
        whose value equals its golden value passes the oracle whatever
        the race state, so one comparison finds the words that need
        :meth:`CoherenceOracle.check_read`; each of those is checked
        right after its own read is traced, as the per-word hook would."""
        det, oracle = self.detector, self.oracle
        hi = lo + len(values)
        base = page * oracle.wpp
        differ = (values != oracle.golden[base + lo:base + hi]).nonzero()[0]
        start = lo
        for i in differ.tolist():
            offset = lo + i
            if start < offset:
                det.on_read_range(proc, page, start, offset)
            oracle.check_read(det.on_read(proc, page, offset), values[i])
            start = offset + 1
        if start < hi:
            det.on_read_range(proc, page, start, hi)

    def on_store_range(self, proc, page: int, lo: int,
                       values: np.ndarray) -> None:
        self.detector.on_write_range(proc, page, lo, lo + len(values))
        self.oracle.record_write_range(page, lo, values)

    # --- synchronization hooks (called from repro.sync) --------------------

    def on_acquire(self, proc, key: tuple) -> None:
        self.detector.on_acquire(proc, key)

    def on_release(self, proc, key: tuple) -> None:
        self.detector.on_release(proc, key)

    def on_barrier_arrive(self, proc, episode: int) -> None:
        if self.detector.on_barrier_arrive(proc, episode):
            # Last arrival: all arrival-side flushes have run, the
            # protocol is quiescent — cross-check against the golden image.
            self.oracle.check_global(f"barrier {episode}")

    def on_barrier_depart(self, proc, episode: int) -> None:
        self.detector.on_barrier_depart(proc, episode)

    # --- end of run --------------------------------------------------------

    def finalize(self) -> None:
        """End-of-run oracle check; raise if the execution raced."""
        if self.finalized:
            return
        self.finalized = True
        self.oracle.check_global("end of run")
        if self.detector.race_count:
            first = self.detector.races[0]
            raise DataRaceError(
                f"{self.detector.race_count} data race(s) detected; "
                f"first: {first.describe()}")


def attach_checker(cluster, protocol) -> CheckContext:
    """Create a :class:`CheckContext` and install it as the protocol's
    checker. Must run before any shared access or sync event; accesses
    already performed are invisible to the checker."""
    ctx = CheckContext(cluster, protocol)
    protocol.checker = ctx
    return ctx
