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
  wiring both into the protocol fast path and the sync primitives;
* :class:`ModelChecker` — exhaustive small-config interleaving
  exploration of the real protocol code, checking the same invariants
  over *every* schedule instead of one (DESIGN.md §12).

Enable for whole application runs with ``MachineConfig(checking=True)``;
run the model checker with ``cashmere-repro modelcheck``.
"""

from .context import CheckContext, attach_checker
from .detector import MAX_RACE_REPORTS, RaceDetector
from .events import MemoryEvent, RaceReport
from .explore import (MUTANTS, Counterexample, ExplorationResult,
                      ModelChecker, MutantNoNotices, default_scripts,
                      small_config)
from .oracle import CoherenceOracle

__all__ = [
    "CheckContext", "attach_checker",
    "RaceDetector", "CoherenceOracle",
    "MemoryEvent", "RaceReport",
    "MAX_RACE_REPORTS",
    "ModelChecker", "ExplorationResult", "Counterexample",
    "MutantNoNotices", "MUTANTS", "default_scripts", "small_config",
]
