"""Diagnostics: findings, suppression accounting, and output formats.

A :class:`Diagnostic` is one finding pinned to a ``path:line:col`` span;
a :class:`LintResult` is the full outcome of one lint invocation. Both
output formats are deterministic by construction — diagnostics are
sorted by location and contain no timestamps, absolute paths, or
id()-derived values — so two runs over the same tree are byte-identical
(asserted in ``tests/test_lint.py``).

The JSON document (``--format json``) follows a documented, versioned
schema (:data:`SCHEMA`); see README "Static analysis" for the contract.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import cast

from .rules import RULES

#: Version tag of the JSON output document. Bump on any change to the
#: key layout below; consumers must check it. /2 added the "engine"
#: key to each diagnostic entry.
SCHEMA = "cashmere-lint/2"


@dataclass(frozen=True, order=True)
class Diagnostic:
    """One finding, ordered by location for stable output."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    @property
    def severity(self) -> str:
        return RULES[self.rule].severity

    @property
    def slug(self) -> str:
        return RULES[self.rule].slug

    def format(self) -> str:
        return (f"{self.path}:{self.line}:{self.col}: {self.rule} "
                f"[{self.slug}] {self.severity}: {self.message}")

    @property
    def engine(self) -> str:
        return RULES[self.rule].engine

    def to_json(self) -> dict[str, object]:
        return {"rule": self.rule, "slug": self.slug,
                "engine": self.engine, "severity": self.severity,
                "path": self.path, "line": self.line, "col": self.col,
                "message": self.message}

    @classmethod
    def from_json(cls, doc: dict[str, object]) -> "Diagnostic":
        """Rebuild from a :meth:`to_json` document (round-trip tests)."""
        return cls(path=str(doc["path"]), line=cast(int, doc["line"]),
                   col=cast(int, doc["col"]), rule=str(doc["rule"]),
                   message=str(doc["message"]))


@dataclass
class LintResult:
    """Everything one lint invocation produced."""

    #: Active findings, sorted by (path, line, col, rule).
    diagnostics: list[Diagnostic] = field(default_factory=list)
    #: Findings silenced by ``# cashmere: ignore[...]`` comments.
    suppressed: list[Diagnostic] = field(default_factory=list)
    #: Files that were analyzed (display paths, sorted).
    files: list[str] = field(default_factory=list)

    def finish(self) -> "LintResult":
        """Sort everything into canonical order; call once when done."""
        self.diagnostics.sort()
        self.suppressed.sort()
        self.files.sort()
        return self

    # --- exit-code contract: 0 clean / 1 findings (2 = usage error,
    # --- raised before a result exists) --------------------------------

    @property
    def exit_code(self) -> int:
        return 1 if self.diagnostics else 0

    def counts(self) -> dict[str, int]:
        errors = sum(1 for d in self.diagnostics
                     if d.severity == "error")
        return {"files": len(self.files), "errors": errors,
                "warnings": len(self.diagnostics) - errors,
                "suppressed": len(self.suppressed)}

    # --- output formats ------------------------------------------------

    def format_text(self) -> str:
        lines = [d.format() for d in self.diagnostics]
        c = self.counts()
        if self.diagnostics:
            lines.append(f"{len(self.diagnostics)} finding(s): "
                         f"{c['errors']} error(s), "
                         f"{c['warnings']} warning(s) "
                         f"({c['suppressed']} suppressed) in "
                         f"{c['files']} file(s)")
        else:
            lines.append(f"clean: 0 findings ({c['suppressed']} "
                         f"suppressed) in {c['files']} file(s)")
        return "\n".join(lines)

    def to_json(self) -> dict[str, object]:
        return {
            "schema": SCHEMA,
            "diagnostics": [d.to_json() for d in self.diagnostics],
            "suppressed": [d.to_json() for d in self.suppressed],
            "summary": self.counts(),
        }

    def format_json(self) -> str:
        return json.dumps(self.to_json(), indent=2)
