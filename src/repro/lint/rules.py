"""The rule registry: every finding the determinism lint can report.

Rule IDs are stable, documented identifiers (README's rule table,
DESIGN.md §11): never renumber or reuse a retired ID, only append.
Retired: the F-series of the fault-path lint (deleted with fault
injection, DESIGN.md §12) and A001–A007 of the application-kernel
analyzer, deleted because the runtime raises every bug it named
(DESIGN.md §2).
"""

from __future__ import annotations

#: Rule ID -> what it flags, in table order.
RULES: dict[str, str] = {
    "E001": "file could not be parsed as Python",
    "D101": "wall-clock read outside sweep: simulated results must not "
            "depend on real time",
    "D102": "global or unseeded random number generator: output would "
            "vary across runs and poison the result cache",
    "D103": "iteration over a set: element order is not canonical "
            "(string hashing is salted per process)",
    "D104": "id() used as a dict/collection key or sort key: identity "
            "values differ between runs",
    "D105": "environment variable read outside sweep: hidden input that "
            "the result-cache key cannot see",
    "D106": "mutation of a frozen spec/config object: cache keys assume "
            "RunSpec/MachineConfig values never change after "
            "construction",
}

#: Module basenames in which wall-clock and environment reads are
#: sanctioned (the audited sweep entry point; see DESIGN.md §11).
SANCTIONED_MODULES = frozenset({"sweep.py"})
