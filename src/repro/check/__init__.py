"""Runtime correctness checking: race detection + coherence oracle.

Opt-in instrumentation that turns any simulated execution into a
correctness probe (see DESIGN.md, "Correctness checking"):

* :class:`RaceDetector` — vector-clock happens-before detection of
  application data races, with full event provenance;
* :class:`CoherenceOracle` — cross-checks what the protocol serves
  against a golden sequential image, at every read and at every
  barrier, raising :class:`~repro.errors.CoherenceViolation` on the
  first divergent word;
* :class:`CheckContext` / :func:`attach_checker` — the checker object
  wiring both into the protocol fast path and the sync primitives.

Enable for whole application runs with ``MachineConfig(checking=True)``.
The model checker (:mod:`repro.check.explore`: exhaustive small-config
interleaving exploration of the real protocol code, DESIGN.md §12) is
not re-exported here, so a checked run does not load it; import it
from its module, or run ``cashmere-repro modelcheck``.
"""

from .context import CheckContext, attach_checker
from .detector import MAX_RACE_REPORTS, RaceDetector
from .events import MemoryEvent, RaceReport
from .oracle import CoherenceOracle

__all__ = [
    "CheckContext", "attach_checker",
    "RaceDetector", "CoherenceOracle",
    "MemoryEvent", "RaceReport",
    "MAX_RACE_REPORTS",
]
