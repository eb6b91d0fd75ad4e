"""Experiment E3 — Table 3: detailed protocol statistics at 32 processors.

Runs every application under every protocol on the full 8-node x
4-processor platform and reports the paper's statistics rows: execution
time, lock/flag acquires, barriers, read/write faults, page transfers,
directory updates, write notices, exclusive-mode transitions, data
transferred, twin creations, and (two-level only) incoming diffs,
flush-updates, and shootdowns. All counts except execution time aggregate
over all 32 processors, as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..stats.report import format_table, kilo
from .configs import APP_ORDER, FULL_PLATFORM, PROTOCOL_ORDER
from .sweep import RunSpec, run_cells

#: (row label, table3_row key, in thousands?)
ROW_SPEC = (
    ("Exec. time (s)", "exec_time_s", False),
    ("Lock/Flag Acquires (K)", "lock_flag_acquires", True),
    ("Barriers", "barriers", False),
    ("Read Faults (K)", "read_faults", True),
    ("Write Faults (K)", "write_faults", True),
    ("Page Transfers (K)", "page_transfers", True),
    ("Directory Updates (K)", "directory_updates", True),
    ("Write Notices (K)", "write_notices", True),
    ("Excl. Mode Transitions (K)", "excl_transitions", True),
    ("Data (Mbytes)", "data_mbytes", False),
    ("Twin Creations (K)", "twin_creations", True),
    ("Incoming Diffs", "incoming_diffs", False),
    ("Flush-Updates", "flush_updates", False),
    ("Shootdowns", "shootdowns", False),
)


@dataclass
class Table3Results:
    #: stats[app][protocol] -> table3_row dict.
    stats: dict[str, dict[str, dict]] = field(default_factory=dict)

    def cell(self, app: str, protocol: str, key: str):
        return self.stats[app][protocol].get(key)

    def format(self) -> str:
        sections = []
        for protocol in PROTOCOL_ORDER:
            apps = [a for a in self.stats if protocol in self.stats[a]]
            if not apps:
                continue
            rows = []
            for label, key, in_k in ROW_SPEC:
                values = []
                for app in apps:
                    v = self.cell(app, protocol, key)
                    if v is not None and in_k:
                        v = kilo(int(v))
                    values.append(v)
                rows.append((label, values))
            sections.append(format_table(
                f"Table 3 — {protocol} protocol at "
                f"{FULL_PLATFORM.total_procs} processors",
                apps, rows, col_width=10, label_width=28))
        return "\n\n".join(sections)


def run_table3(apps: tuple[str, ...] = APP_ORDER,
               protocols: tuple[str, ...] = PROTOCOL_ORDER,
               config=None, sweep=None) -> Table3Results:
    config = config or FULL_PLATFORM
    specs = [RunSpec.app_run(app_name, protocol, config)
             for app_name in apps for protocol in protocols]
    cells = iter(run_cells(specs, sweep))
    results = Table3Results()
    for app_name in apps:
        results.stats[app_name] = {}
        for protocol in protocols:
            results.stats[app_name][protocol] = next(cells).table3
    return results
