"""Experiment E7 — Section 3.3.5: impact of lock-free protocol structures.

Compares standard Cashmere-2L (lock-free directory words, multi-bin write
notice lists) against the variant whose directory entries and write
notice lists are protected by cluster-wide locks (one 16 us serialized
update instead of a 5 us lock-free write).

Paper findings to reproduce: Barnes (by far the most directory accesses
and write notices) improves ~5% with lock-free structures; Em3d ~5%,
Ilink ~7%; Water and the remaining applications show no significant
difference.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..stats.report import format_table, pct_change
from .configs import FULL_PLATFORM
from .sweep import RunSpec, run_cells


@dataclass
class LockFreeResults:
    exec_time_s: dict[str, dict[str, float]] = field(default_factory=dict)
    dir_updates: dict[str, int] = field(default_factory=dict)
    write_notices: dict[str, int] = field(default_factory=dict)

    def format(self) -> str:
        apps = list(self.exec_time_s)
        rows = [
            ("lock-free (s)",
             [self.exec_time_s[a]["lock_free"] for a in apps]),
            ("global locks (s)",
             [self.exec_time_s[a]["locked"] for a in apps]),
            ("improvement (%)",
             [pct_change(self.exec_time_s[a]["lock_free"],
                         self.exec_time_s[a]["locked"]) for a in apps]),
            ("directory updates",
             [self.dir_updates[a] for a in apps]),
            ("write notices",
             [self.write_notices[a] for a in apps]),
        ]
        return format_table(
            "Section 3.3.5 — lock-free vs global-lock protocol structures "
            "(2L, 32 processors)",
            apps, rows, col_width=10, label_width=20)


def run_lockfree_ablation(
        apps: tuple[str, ...] = ("Barnes", "Em3d", "Ilink", "Water",
                                 "SOR"), sweep=None) -> LockFreeResults:
    results = LockFreeResults()
    specs = []
    for app_name in apps:
        specs.append(RunSpec.app_run(app_name, "2L", FULL_PLATFORM,
                                     lock_free=True))
        specs.append(RunSpec.app_run(app_name, "2L", FULL_PLATFORM,
                                     lock_free=False))
    cells = iter(run_cells(specs, sweep))
    for app_name in apps:
        free, locked = next(cells), next(cells)
        results.exec_time_s[app_name] = {
            "lock_free": free.table3["exec_time_s"],
            "locked": locked.table3["exec_time_s"],
        }
        results.dir_updates[app_name] = int(
            free.table3["directory_updates"])
        results.write_notices[app_name] = int(
            free.table3["write_notices"])
    return results
