"""Experiment E5 — Figure 7: speedups across placements.

For every application and protocol, runs the paper's placement ladder
(4:1, 4:4, 8:1, 8:2, 8:4, 16:2, 16:4, 24:3, 32:4 — "processors :
processors-per-node") and reports the speedup over the uninstrumented
sequential execution. For the one-level protocols the home-node
optimization variant is run as well (the unshaded bar extensions in the
paper's Figure 7).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..stats.report import format_table
from .configs import (APP_ORDER, FULL_PLATFORM, PLACEMENT_ORDER,
                      PROTOCOL_ORDER, experiment_config)
from .sweep import RunSpec, run_cells


@dataclass
class Figure7Results:
    #: speedup[app][protocol][placement]; protocol keys include
    #: "1LD+HO"/"1L+HO" for the home-node optimization variants.
    speedup: dict[str, dict[str, dict[str, float]]] = \
        field(default_factory=dict)
    seq_time_s: dict[str, float] = field(default_factory=dict)

    def format(self) -> str:
        sections = []
        for app, per_proto in self.speedup.items():
            placements = None
            rows = []
            for proto, per_place in per_proto.items():
                placements = list(per_place)
                rows.append((proto, [per_place[p] for p in placements]))
            sections.append(format_table(
                f"Figure 7 — {app} speedups "
                f"(sequential: {self.seq_time_s[app]:.2f}s)",
                placements or [], rows, col_width=8, label_width=10))
        return "\n\n".join(sections)


def _variants(protocols: tuple[str, ...],
              home_opt: bool) -> list[tuple[str, str, bool]]:
    variants: list[tuple[str, str, bool]] = [
        (p, p, False) for p in protocols]
    if home_opt:
        variants += [(f"{p}+HO", p, True)
                     for p in protocols if p in ("1LD", "1L")]
    return variants


def run_figure7(apps: tuple[str, ...] = APP_ORDER,
                protocols: tuple[str, ...] = PROTOCOL_ORDER,
                placements: tuple[str, ...] = PLACEMENT_ORDER,
                home_opt: bool = True, sweep=None) -> Figure7Results:
    variants = _variants(protocols, home_opt)
    specs = []
    for app_name in apps:
        specs.append(RunSpec.seq_run(app_name, FULL_PLATFORM))
        for label, protocol, ho in variants:
            for placement in placements:
                specs.append(RunSpec.app_run(
                    app_name, protocol, experiment_config(placement),
                    home_opt=ho))
    cells = iter(run_cells(specs, sweep))
    results = Figure7Results()
    for app_name in apps:
        seq_us = next(cells).exec_time_us
        results.seq_time_s[app_name] = seq_us / 1e6
        per_proto: dict[str, dict[str, float]] = {}
        for label, protocol, ho in variants:
            per_proto[label] = {
                placement: seq_us / next(cells).exec_time_us
                for placement in placements}
        results.speedup[app_name] = per_proto
    return results
