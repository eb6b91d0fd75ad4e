"""The ``modelcheck`` subcommand: exhaustive small-config exploration.

Runs :class:`~repro.check.explore.ModelChecker` — every interleaving of the
default 2-node x 2-processor x 2-page script set, through the real
protocol code — for the requested protocols, and reports per-protocol
state counts and the verdict. With ``--mutant`` it instead checks a
deliberately broken protocol (a 2L that never sends write notices) and
*expects* a violation: exit 0 when the checker catches it, exit 1 when
it slips through — a self-test of the checker's teeth. A counterexample
is printed step by step and, with ``--out``, exported as a Chrome trace
for timeline inspection.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..check.explore import MUTANTS, ExplorationResult, ModelChecker

#: Protocols covered by default: the paper's contribution and the
#: one-level comparison point (2LS shares 2L's acquire/release machinery
#: and 1L's write-through path needs no release-time merge, so these two
#: cover the distinct coherence state machines).
DEFAULT_PROTOCOLS = ("2L", "1LD")


@dataclass
class ModelCheckReport:
    """All per-protocol exploration results for one invocation."""

    results: dict[str, ExplorationResult] = field(default_factory=dict)
    mutant: str | None = None

    @property
    def ok(self) -> bool:
        """True when the invocation met its expectation: clean protocols
        explored exhaustively with no violation — or, in mutant mode,
        the planted bug caught."""
        if self.mutant is not None:
            return all(r.counterexample is not None
                       for r in self.results.values())
        return all(r.ok and r.exhaustive for r in self.results.values())

    def to_json(self) -> dict:
        return {
            "mutant": self.mutant,
            "ok": self.ok,
            "results": {name: r.summary()
                        for name, r in self.results.items()},
        }

    def format(self) -> str:
        lines = []
        header = ("Model check (exhaustive small-config exploration)"
                  if self.mutant is None else
                  f"Model check self-test (mutant: {self.mutant})")
        lines.append(header)
        lines.append("=" * len(header))
        for name, r in self.results.items():
            verdict = ("PASS" if r.ok and r.exhaustive else
                       "INCOMPLETE (budget)" if r.ok else "VIOLATION")
            if self.mutant is not None:
                verdict = ("CAUGHT" if r.counterexample is not None
                           else "MISSED")
            lines.append(f"{name:>10}: {verdict}  "
                         f"[{r.states} states, {r.replays} replays, "
                         f"{r.complete_schedules} complete schedules]")
            if r.counterexample is not None:
                lines.append(r.counterexample.describe())
        return "\n".join(lines)


def run_modelcheck(protocols: tuple[str, ...] = DEFAULT_PROTOCOLS, *,
                   budget: int = 100_000, mutant: str | None = None,
                   out: str | None = None) -> ModelCheckReport:
    """Explore each protocol (or the named mutant) exhaustively.

    ``budget`` caps the distinct-state count per protocol. ``out``
    writes the first counterexample found (if any) as a Chrome trace.
    """
    report = ModelCheckReport(mutant=mutant)
    if mutant is not None:
        factory = MUTANTS[mutant]
        checker = ModelChecker(protocol=factory, max_states=budget)
        report.results[f"2L+{mutant}"] = checker.run()
    else:
        for name in protocols:
            checker = ModelChecker(protocol=name, max_states=budget)
            report.results[name] = checker.run()
    if out is not None:
        for name, r in report.results.items():
            if r.counterexample is not None:
                checker = ModelChecker(
                    protocol=MUTANTS[mutant] if mutant is not None
                    else name, max_states=budget)
                checker.export_counterexample(r.counterexample, out)
                break
    return report
