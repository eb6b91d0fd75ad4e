"""The lint driver: file discovery, engine dispatch, suppression.

Programmatic entry point::

    from repro.lint import run
    result = run(["src/repro", "examples"])
    assert result.exit_code == 0, result.format_text()

Both engines run over every file: the app analyzer only triggers on
functions that take an ``env`` parameter and the determinism checks
skip the sanctioned modules, so it is safe (and simpler) not to route
files to engines by path.

Output is deterministic: files are discovered in sorted order, display
paths are relative with forward slashes, and :meth:`LintResult.finish`
sorts every diagnostic by location.
"""

from __future__ import annotations

import ast
import os

from .appcheck import check_app
from .determinism import check_determinism
from .diagnostics import Diagnostic, LintResult
from .rules import RULES
from .suppress import is_suppressed, suppressions


class UsageError(Exception):
    """Bad invocation (unknown path, unknown rule): CLI exit code 2."""


def resolve_select(select: str | list[str] | None
                   ) -> frozenset[str] | None:
    """Expand a ``--select`` spec into a set of rule IDs.

    Accepts exact IDs (``A001``), engine prefixes (``A``, ``D``), and
    comma-separated combinations; ``None`` means every rule.
    """
    if select is None:
        return None
    parts: list[str] = []
    specs = select.split(",") if isinstance(select, str) else list(select)
    for spec in specs:
        for piece in spec.split(","):
            piece = piece.strip().upper()
            if piece:
                parts.append(piece)
    if not parts:
        return None
    chosen: set[str] = set()
    for part in parts:
        matched = [rid for rid in RULES
                   if rid == part or rid.startswith(part)]
        if not matched:
            known = ", ".join(RULES)
            raise UsageError(
                f"unknown rule or prefix {part!r} in --select "
                f"(known: {known})")
        chosen.update(matched)
    return frozenset(chosen)


def discover(paths: list[str]) -> list[tuple[str, str]]:
    """Expand files/directories into ``(abspath, display)`` pairs.

    Directories are walked recursively for ``*.py`` (skipping hidden
    directories and ``__pycache__``); the result is deduplicated by
    real path and sorted by display path so output order never depends
    on argument order or filesystem enumeration order.
    """
    found: dict[str, str] = {}

    def display(path: str) -> str:
        rel = os.path.relpath(path)
        shown = path if rel.startswith("..") else rel
        return shown.replace(os.sep, "/")

    def add(path: str) -> None:
        real = os.path.realpath(path)
        found.setdefault(real, display(path))

    for path in paths:
        if os.path.isfile(path):
            add(path)
        elif os.path.isdir(path):
            for root, dirs, files in os.walk(path):
                dirs[:] = sorted(
                    d for d in dirs
                    if not d.startswith(".") and d != "__pycache__")
                for name in sorted(files):
                    if name.endswith(".py"):
                        add(os.path.join(root, name))
        else:
            raise UsageError(f"no such file or directory: {path}")
    return sorted(found.items(), key=lambda item: item[1])


def lint_source(source: str, display: str,
                select: frozenset[str] | None = None,
                ) -> tuple[list[Diagnostic], list[Diagnostic]]:
    """Lint one file's source text: ``(active, suppressed)``."""
    active: list[Diagnostic] = []
    suppressed: list[Diagnostic] = []
    table = suppressions(source)

    def report(rule: str, line: int, col: int, message: str) -> None:
        if select is not None and rule not in select:
            return
        diag = Diagnostic(display, line, col, rule, message)
        if is_suppressed(table, line, rule):
            suppressed.append(diag)
        else:
            active.append(diag)

    try:
        tree = ast.parse(source, filename=display)
    except SyntaxError as exc:
        report("E001", exc.lineno or 1, (exc.offset or 1) - 1,
               f"file could not be parsed: {exc.msg}")
        return active, suppressed
    check_app(tree, report)
    check_determinism(tree, display, report)
    return active, suppressed


def run(paths: list[str], select: str | list[str] | None = None,
        ) -> LintResult:
    """Lint ``paths`` and return a finished :class:`LintResult`."""
    chosen = resolve_select(select)
    result = LintResult()
    for abspath, shown in discover(paths):
        with open(abspath, encoding="utf-8") as fh:
            source = fh.read()
        active, suppressed = lint_source(source, shown, chosen)
        result.files.append(shown)
        result.diagnostics.extend(active)
        result.suppressed.extend(suppressed)
    return result.finish()
