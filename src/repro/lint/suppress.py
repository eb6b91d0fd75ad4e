"""Per-line suppression comments.

A finding is silenced by a trailing comment on the line it is reported
at::

    started = time.perf_counter()  # cashmere: ignore[D101]

``ignore[R1,R2]`` silences those rule IDs; a bare ``ignore`` silences
every rule on the line. Suppressed findings are still collected (they
appear in the JSON document and the summary counts) — a suppression is
an audited decision, not a deletion.
"""

from __future__ import annotations

import re

#: Matches ``# cashmere: ignore`` and ``# cashmere: ignore[D101, D105]``.
_PATTERN = re.compile(
    r"#\s*cashmere:\s*ignore(?:\[(?P<rules>[A-Za-z0-9_,\s]*)\])?")

#: Sentinel for a bare ``ignore`` (all rules).
ALL = "*"


def suppressions(source: str) -> dict[int, frozenset[str]]:
    """Map 1-based line numbers to the rule IDs suppressed there."""
    table: dict[int, frozenset[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        m = _PATTERN.search(line)
        if m is None:
            continue
        spec = m.group("rules")
        if spec is None:
            table[lineno] = frozenset({ALL})
        else:
            rules = frozenset(p.strip().upper()
                              for p in spec.split(",") if p.strip())
            table[lineno] = rules or frozenset({ALL})
    return table


def is_suppressed(table: dict[int, frozenset[str]], line: int,
                  rule: str) -> bool:
    """Whether ``rule`` is suppressed on ``line``."""
    rules = table.get(line)
    if rules is None:
        return False
    return ALL in rules or rule in rules
