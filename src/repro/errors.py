"""Exception hierarchy for the Cashmere-2L reproduction.

All library errors derive from :class:`CashmereError` so callers can catch
one base class. Specific subclasses distinguish configuration mistakes,
protocol invariant violations, and simulation engine misuse.
"""

from __future__ import annotations


class CashmereError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ConfigError(CashmereError):
    """An invalid machine, protocol, or application configuration."""


class SimulationError(CashmereError):
    """Misuse of the discrete-event simulation engine.

    Examples: scheduling an event in the past, running a finished
    simulator, or a simulated process yielding an unknown instruction.
    """


class DeadlockError(SimulationError):
    """The simulation stalled with live processes and no pending events."""


class ProtocolError(CashmereError):
    """A coherence-protocol invariant was violated.

    These indicate bugs in protocol code (or corrupted meta-data), never
    user error: e.g. a flush of a page without a twin, a directory entry
    claiming an exclusive holder on two nodes, or an incoming diff that
    overlaps local modifications in a data-race-free program.
    ``invariant`` names the failed :mod:`~repro.protocol.invariants` row.
    """

    def __init__(self, message: str, *, invariant: str = "") -> None:
        super().__init__(message)
        self.invariant = invariant


class MemoryChannelError(CashmereError):
    """Invalid use of the simulated Memory Channel.

    Examples: reading a transmit-only mapping, writing a receive-only
    mapping, exceeding the mapping table, or misaligned sub-word writes.
    """


class DataRaceError(CashmereError):
    """The runtime detected an application data race.

    Cashmere requires data-race-free applications; the simulator checks
    the invariant the protocol relies on (incoming diffs never overlap
    local dirty words) and raises this when an application breaks it.
    The happens-before race detector (:mod:`repro.check`) raises it too,
    with full provenance of the racing access pair.
    """


class CoherenceViolation(CashmereError):
    """The coherence oracle caught the protocol serving wrong data.

    Raised by :mod:`repro.check` when a checked execution diverges from
    the golden (happens-before-ordered sequential) image: a read that
    returned a value other than the one written by the happens-before
    latest write, a master/exclusive page copy that disagrees with the
    golden memory at a sync point, or a structural directory/twin
    invariant failure. Unlike :class:`DataRaceError` (an application
    bug), this always indicates a protocol bug.

    Structured fields name the first divergent word so counterexamples
    shrink well: ``page``, ``offset``, ``word`` (global word index),
    ``expected``, ``actual``, ``check`` (which oracle check fired) and
    ``event`` (the provenance of the access or last write involved).
    """

    def __init__(self, message: str, *, check: str = "",
                 page: int | None = None, offset: int | None = None,
                 word: int | None = None, expected: float | None = None,
                 actual: float | None = None, event: object = None) -> None:
        super().__init__(message)
        self.check = check
        self.page = page
        self.offset = offset
        self.word = word
        self.expected = expected
        self.actual = actual
        self.event = event


class InvariantViolation(CashmereError):
    """The model checker found a reachable state violating a coherence
    invariant (:mod:`repro.check.explore`).

    Carries the minimal counterexample: the interleaving ``schedule``
    (which processor stepped, in order) and the per-step operation
    ``trace`` that drives the real protocol code back into the violating
    state. ``cause`` is the underlying check failure (a
    :class:`CoherenceViolation`, :class:`ProtocolError`, or
    :class:`DataRaceError`).
    """

    def __init__(self, message: str, *, schedule: tuple[int, ...] = (),
                 trace: tuple = (), cause: BaseException | None = None) -> None:
        super().__init__(message)
        self.schedule = schedule
        self.trace = trace
        self.cause = cause


class UnknownCounterError(CashmereError):
    """A statistics counter name outside the canonical set was used.

    Counters are write-mostly: a typo'd name would silently accumulate
    into the stats ``Counter`` and never be read back, so both increments
    and reads validate against :data:`repro.stats.COUNTER_NAMES`.
    """
