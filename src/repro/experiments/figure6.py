"""Experiment E4 — Figure 6: breakdown of execution time at 32 processors.

For every application and protocol, reports the percentage of aggregate
processor time spent in User code, Protocol code, Polling, Communication
& Wait, and Write Doubling (1L only), normalized — as in the paper — to
the total execution time of Cashmere-2L, so bars above 100% show how much
slower a protocol is than 2L.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..sim.process import TIME_BUCKETS
from ..stats.report import format_table
from .configs import APP_ORDER, FULL_PLATFORM, PROTOCOL_ORDER
from .sweep import RunSpec, run_cells

BUCKET_LABELS = {
    "user": "User",
    "protocol": "Protocol",
    "polling": "Polling",
    "comm_wait": "Comm & Wait",
    "write_double": "Write Doubling",
}


@dataclass
class Figure6Results:
    #: breakdown[app][protocol][bucket] -> percent of 2L total time.
    breakdown: dict[str, dict[str, dict[str, float]]] = \
        field(default_factory=dict)
    exec_time_s: dict[str, dict[str, float]] = field(default_factory=dict)

    def format(self) -> str:
        sections = []
        for app, per_proto in self.breakdown.items():
            rows = []
            for bucket in TIME_BUCKETS:
                rows.append((BUCKET_LABELS[bucket],
                             [per_proto[p].get(bucket, 0.0)
                              for p in per_proto]))
            rows.append(("Total (% of 2L)",
                         [sum(per_proto[p].values()) for p in per_proto]))
            sections.append(format_table(
                f"Figure 6 — {app}: normalized execution time breakdown (%)",
                list(per_proto), rows, col_width=9, label_width=18))
        return "\n\n".join(sections)


def run_figure6(apps: tuple[str, ...] = APP_ORDER,
                protocols: tuple[str, ...] = PROTOCOL_ORDER,
                config=None, sweep=None) -> Figure6Results:
    config = config or FULL_PLATFORM
    specs = [RunSpec.app_run(app_name, protocol, config)
             for app_name in apps for protocol in protocols]
    cells = iter(run_cells(specs, sweep))
    results = Figure6Results()
    for app_name in apps:
        runs = {protocol: next(cells) for protocol in protocols}
        base = runs[protocols[0]].total_time
        results.breakdown[app_name] = {}
        results.exec_time_s[app_name] = {}
        for protocol, cell in runs.items():
            results.breakdown[app_name][protocol] = {
                b: 100.0 * cell.buckets[b] / base for b in TIME_BUCKETS}
            results.exec_time_s[app_name][protocol] = \
                cell.exec_time_us / 1e6
    return results
