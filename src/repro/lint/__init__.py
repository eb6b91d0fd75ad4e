"""Simulator determinism lint.

An AST-based checker (the D-rules of :mod:`repro.lint.rules`) that
scans source for hazards that would break run-to-run determinism and
the soundness of the content-addressed result cache (DESIGN.md §11).
It runs as a tier-1 test (``tests/test_lint.py``), which asserts that
``list(findings("src/repro", "examples")) == []``.
"""

from __future__ import annotations

import ast
import os
from collections.abc import Iterator

from .determinism import check_determinism
from .rules import RULES

__all__ = ["RULES", "findings", "lint_source"]


def lint_source(source: str, path: str) -> list[str]:
    """One file's findings, ``path:line:col: RULE message``, in
    location order."""
    found: list[tuple[int, int, str, str]] = []

    def report(rule: str, line: int, col: int, message: str) -> None:
        found.append((line, col, rule, message))

    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        report("E001", exc.lineno or 1, (exc.offset or 1) - 1,
               f"file could not be parsed: {exc.msg}")
    else:
        check_determinism(tree, path, report)
    return [f"{path}:{line}:{col}: {rule} {message}"
            for line, col, rule, message in sorted(found)]


def findings(*paths: str) -> Iterator[str]:
    """Every finding in ``paths`` (files, or directories walked for
    ``*.py``), file by file in sorted path order."""
    files: list[str] = []
    for path in paths:
        if not os.path.isdir(path):
            files.append(path)
            continue
        for root, dirs, names in os.walk(path):
            dirs[:] = [d for d in dirs
                       if d != "__pycache__" and not d.startswith(".")]
            files += [os.path.join(root, n) for n in names
                      if n.endswith(".py")]
    for file in sorted(files):
        with open(file, encoding="utf-8") as fh:
            yield from lint_source(fh.read(), file)
