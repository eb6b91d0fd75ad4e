"""Simulator determinism lint.

An AST-based checker (D-rules) that scans simulator source for hazards
that would break run-to-run determinism and the soundness of the
content-addressed result cache (DESIGN.md §11), behind a stable
rule/diagnostic framework.

CLI: ``cashmere-repro lint [PATHS] [--select RULES] [--format json]``.
Programmatic: :func:`repro.lint.run`. Exit-code contract: 0 clean,
1 findings, 2 usage error.
"""

from .api import UsageError, lint_source, run
from .diagnostics import SCHEMA, Diagnostic, LintResult
from .rules import RULES, Rule

__all__ = [
    "run", "lint_source", "UsageError",
    "Diagnostic", "LintResult", "SCHEMA",
    "RULES", "Rule",
]
