"""The rule registry: every diagnostic the linter can emit.

Rule IDs are stable, documented identifiers (they appear in README's
rule table, in ``--select`` arguments, and in per-line
``# cashmere: ignore[RULE]`` suppressions), so treat them like a wire
format: never renumber or reuse a retired ID, only append.

Rules belong to the ``det`` engine — the determinism lint
(:mod:`repro.lint.determinism`): source-level hazards that would break
the simulator's run-to-run determinism and therefore the soundness of
the content-addressed result cache (see DESIGN.md §11) — or to
``core`` (the parse error).

Retired, never to be reused:

* the F-series IDs of the fault-path lint, deleted with fault
  injection (DESIGN.md §12);
* A001–A007, the application-kernel analyzer, deleted because the
  runtime raises every bug it named (a lock leak, an unheld release
  or a divergent barrier as a ``SimulationError``/``DeadlockError``,
  a data race as a ``DataRaceError`` under ``checking=True``;
  DESIGN.md §2).
"""

from __future__ import annotations

from dataclasses import dataclass

#: Severity levels, in decreasing order of gravity. Any finding of any
#: severity makes the lint exit nonzero; severity exists so humans can
#: triage output, not so findings can be ignored.
SEVERITIES = ("error", "warning")


@dataclass(frozen=True)
class Rule:
    """One checkable property, with a stable ID."""

    id: str
    slug: str
    engine: str       # "det" | "core"
    severity: str     # "error" | "warning"
    summary: str


_ALL_RULES = (
    # --- core ----------------------------------------------------------
    Rule("E001", "parse-error", "core", "error",
         "file could not be parsed as Python"),
    # --- determinism lint ----------------------------------------------
    Rule("D101", "wall-clock", "det", "error",
         "wall-clock read outside sweep: simulated results must not "
         "depend on real time"),
    Rule("D102", "unseeded-random", "det", "error",
         "global or unseeded random number generator: output would vary "
         "across runs and poison the result cache"),
    Rule("D103", "set-iteration", "det", "warning",
         "iteration over a set: element order is not canonical (string "
         "hashing is salted per process)"),
    Rule("D104", "id-keyed", "det", "warning",
         "id() used as a dict/collection key or sort key: identity "
         "values differ between runs"),
    Rule("D105", "env-read", "det", "error",
         "environment variable read outside sweep: hidden input that "
         "the result-cache key cannot see"),
    Rule("D106", "frozen-mutation", "det", "error",
         "mutation of a frozen spec/config object: cache keys assume "
         "RunSpec/MachineConfig values never change after construction"),
)

#: Ordered registry: rule ID -> :class:`Rule`.
RULES: dict[str, Rule] = {r.id: r for r in _ALL_RULES}

#: Module basenames in which wall-clock and environment reads are
#: sanctioned (the audited sweep entry point; see DESIGN.md §11).
SANCTIONED_MODULES = frozenset({"sweep.py"})
