"""Experiment E10 — §2.3: polling versus interrupts for explicit requests.

The paper experimented with both delivery mechanisms for explicit
requests (page fetches, exclusive-mode breaks) and found that "polling
provides better performance in almost every case" despite the kernel
modifications that cut interrupt latency by an order of magnitude
(§2.3, "Kernel changes": intra-node 980 → 80 µs, inter-node 980 → 445 µs).

This experiment runs applications under both delivery mechanisms, and
under interrupts with the unmodified-kernel latencies, and reports
execution times. Polling costs show up as per-loop-iteration checks;
interrupts as per-request delivery latency.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..stats.report import format_table, pct_change
from .configs import FULL_PLATFORM
from .sweep import RunSpec, run_cells


@dataclass
class PollingResults:
    #: exec_time_s[app][variant]: polling / interrupts / slow-interrupts.
    exec_time_s: dict[str, dict[str, float]] = field(default_factory=dict)

    def format(self) -> str:
        apps = list(self.exec_time_s)
        variants = ["polling", "interrupts", "slow-intr"]
        rows = []
        for v in variants:
            rows.append((f"exec time (s) {v}",
                         [self.exec_time_s[a][v] for a in apps]))
        rows.append(("interrupts vs polling (%)",
                     [pct_change(self.exec_time_s[a]["polling"],
                                 self.exec_time_s[a]["interrupts"])
                      for a in apps]))
        return format_table(
            "Section 2.3 — polling vs interrupt request delivery "
            "(2L, 32 processors; positive % = polling faster)",
            apps, rows, col_width=11, label_width=26)


def run_polling_ablation(
        apps: tuple[str, ...] = ("Em3d", "Barnes", "Gauss"),
        sweep=None) -> PollingResults:
    results = PollingResults()
    configs = {
        "polling": FULL_PLATFORM,
        "interrupts": replace(FULL_PLATFORM, polling=False),
        "slow-intr": replace(FULL_PLATFORM, polling=False,
                             fast_interrupts=False),
    }
    specs = [RunSpec.app_run(app_name, "2L", cfg)
             for app_name in apps for cfg in configs.values()]
    cells = iter(run_cells(specs, sweep))
    for app_name in apps:
        results.exec_time_s[app_name] = {
            variant: next(cells).table3["exec_time_s"]
            for variant in configs}
    return results
