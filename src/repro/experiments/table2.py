"""Experiment E2 — Table 2: data set sizes and sequential execution time.

Runs every application sequentially (uninstrumented: plain arrays, no
protocol) at experiment scale and reports, next to the paper's values,
the scaled problem size, the shared-memory footprint, and the simulated
sequential time.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..apps import make_app
from ..stats.report import format_table
from .configs import APP_ORDER, FULL_PLATFORM
from .sweep import RunSpec, run_cells


@dataclass
class Table2Row:
    app: str
    problem: str
    shared_kbytes: float
    seq_time_s: float
    paper_problem: str
    paper_seq_time_s: float


def run_table2(apps: tuple[str, ...] = APP_ORDER,
               sweep=None) -> list[Table2Row]:
    specs = [RunSpec.seq_run(name, FULL_PLATFORM) for name in apps]
    cells = run_cells(specs, sweep)
    rows = []
    for name, cell in zip(apps, cells):
        app = make_app(name)
        params = app.default_params()
        problem = ", ".join(f"{k}={v}" for k, v in params.items())
        rows.append(Table2Row(
            app=name,
            problem=problem,
            shared_kbytes=cell.shared_kbytes,
            seq_time_s=cell.exec_time_us / 1e6,
            paper_problem=app.paper_problem_size,
            paper_seq_time_s=app.paper_seq_time_s,
        ))
    return rows


def format_table2(rows: list[Table2Row]) -> str:
    table_rows = [
        (r.app, [r.shared_kbytes, r.seq_time_s, r.paper_seq_time_s])
        for r in rows]
    out = format_table(
        "Table 2: data set sizes and sequential execution time (scaled)",
        ["KB shared", "seq (s)", "paper (s)"], table_rows, col_width=12)
    details = ["", "Scaled problem sizes:"]
    for r in rows:
        details.append(f"  {r.app:7s} {r.problem}   "
                       f"(paper: {r.paper_problem})")
    return out + "\n" + "\n".join(details)
