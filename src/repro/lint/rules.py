"""The rule registry: every diagnostic the linter can emit.

Rule IDs are stable, documented identifiers (they appear in README's
rule table, in ``--select`` arguments, and in per-line
``# cashmere: ignore[RULE]`` suppressions), so treat them like a wire
format: never renumber or reuse a retired ID, only append.

Two engines share this registry:

* ``app`` — the application-kernel analyzer (:mod:`repro.lint.appcheck`):
  CFG + lockset analysis of worker generators written against the
  :class:`~repro.runtime.env.WorkerEnv` API.
* ``det`` — the determinism lint (:mod:`repro.lint.determinism`):
  source-level hazards that would break the simulator's run-to-run
  determinism and therefore the soundness of the content-addressed
  result cache (see DESIGN.md §11).

Retired, never to be reused: the F-series IDs of the fault-path lint,
deleted with fault injection (DESIGN.md §12).
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
    engine: str       # "app" | "det" | "core"
    severity: str     # "error" | "warning"
    summary: str


_ALL_RULES = (
    # --- core ----------------------------------------------------------
    Rule("E001", "parse-error", "core", "error",
         "file could not be parsed as Python"),
    # --- engine 1: application-kernel analyzer -------------------------
    Rule("A001", "lock-leak", "app", "error",
         "a lock acquired in the kernel may still be held on some path "
         "when the worker exits"),
    Rule("A002", "release-unheld", "app", "error",
         "release() is not dominated by an acquire() of the same lock "
         "on every path"),
    Rule("A003", "divergent-barrier", "app", "error",
         "barrier() under rank-dependent control flow: workers would "
         "arrive at different barrier episodes"),
    Rule("A004", "lockset-discipline", "app", "warning",
         "shared array is written under a lock elsewhere but accessed "
         "here with an empty lockset after the first barrier"),
    Rule("A005", "unpartitioned-write", "app", "warning",
         "unlocked write after the first barrier whose index does not "
         "depend on the rank and is not rank-guarded: every worker "
         "writes the same words concurrently"),
    Rule("A006", "init-unguarded-write", "app", "error",
         "shared write reachable before the first barrier outside a "
         "rank guard: the initialization phase is read-only for "
         "non-elected ranks"),
    Rule("A007", "inline-self-copy", "app", "warning",
         "get_block() result passed directly to set_block() on the same "
         "array: an overlapping self-copy that is only safe while "
         "get_block copies"),
    # --- engine 2: determinism lint ------------------------------------
    Rule("D101", "wall-clock", "det", "error",
         "wall-clock read outside the sanctioned sweep/config modules: "
         "simulated results must not depend on real time"),
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
         "environment variable read outside config/sweep: hidden input "
         "that the result-cache key cannot see"),
    Rule("D106", "frozen-mutation", "det", "error",
         "mutation of a frozen spec/config object: cache keys assume "
         "RunSpec/MachineConfig values never change after construction"),
)

#: Ordered registry: rule ID -> :class:`Rule`.
RULES: dict[str, Rule] = {r.id: r for r in _ALL_RULES}

#: Module basenames in which wall-clock and environment reads are
#: sanctioned (the audited entry points; see DESIGN.md §11).
SANCTIONED_MODULES = frozenset({"sweep.py", "config.py"})
