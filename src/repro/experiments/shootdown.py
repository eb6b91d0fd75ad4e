"""Experiment E6 — Section 3.3.4: TLB shootdown versus two-way diffing.

Compares Cashmere-2L (two-way diffing) against Cashmere-2LS (shootdown)
at 32 processors, with the shootdown mechanism implemented over polled
messages and over intra-node interrupts. The paper's findings to
reproduce:

* 2L ≈ 2LS with polling (shootdown is rare under a multi-writer protocol
  and cheap with polled messages);
* interrupt-based shootdown costs Water — the lock-based false-sharing
  application — about 6% (even with the kernel-optimized 80 us
  interrupts);
* shootdown counts are non-zero essentially only for Water.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..stats.report import format_table, pct_change
from .configs import FULL_PLATFORM
from .sweep import RunSpec, run_cells


@dataclass
class ShootdownResults:
    #: exec_time_s[app][variant]; variants: 2L, 2LS-poll, 2LS-intr.
    exec_time_s: dict[str, dict[str, float]] = field(default_factory=dict)
    shootdowns: dict[str, dict[str, int]] = field(default_factory=dict)

    def format(self) -> str:
        apps = list(self.exec_time_s)
        variants = ["2L", "2LS-poll", "2LS-intr"]
        rows = []
        for v in variants:
            rows.append((f"exec time (s) {v}",
                         [self.exec_time_s[a][v] for a in apps]))
        rows.append(("2LS-poll vs 2L (%)",
                     [pct_change(self.exec_time_s[a]["2LS-poll"],
                                 self.exec_time_s[a]["2L"]) for a in apps]))
        rows.append(("2LS-intr vs 2L (%)",
                     [pct_change(self.exec_time_s[a]["2LS-intr"],
                                 self.exec_time_s[a]["2L"]) for a in apps]))
        rows.append(("shootdowns (poll)",
                     [self.shootdowns[a]["2LS-poll"] for a in apps]))
        return format_table(
            "Section 3.3.4 — shootdown vs two-way diffing at 32 processors",
            apps, rows, col_width=10, label_width=24)


def run_shootdown_ablation(
        apps: tuple[str, ...] = ("Water", "SOR", "Em3d"),
        sweep=None) -> ShootdownResults:
    results = ShootdownResults()
    interrupt_cfg = replace(FULL_PLATFORM, polling=False)
    variants = (("2L", "2L", FULL_PLATFORM),
                ("2LS-poll", "2LS", FULL_PLATFORM),
                ("2LS-intr", "2LS", interrupt_cfg))
    specs = [RunSpec.app_run(app_name, protocol, cfg)
             for app_name in apps for _, protocol, cfg in variants]
    cells = iter(run_cells(specs, sweep))
    for app_name in apps:
        runs = {label: next(cells) for label, _, _ in variants}
        results.exec_time_s[app_name] = {
            k: c.table3["exec_time_s"] for k, c in runs.items()}
        results.shootdowns[app_name] = {
            k: int(c.table3["shootdowns"]) for k, c in runs.items()}
    return results
