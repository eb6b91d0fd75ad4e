"""Extension experiment — sensitivity of the two-level advantage to the
computation-to-communication ratio.

The paper repeatedly explains its results through each application's
computation-to-communication ratio: the two-level protocols' advantage is
"slight" for compute-bound applications (SOR, LU, TSP, Water) and large
(22–46%) for communication-bound ones (Em3d, Gauss, Ilink, Barnes). This
experiment makes that explanation quantitative on our platform: it sweeps
a uniform multiplier over an application's compute density (the
``_compute_scale`` runtime knob) and reports how the 1LD/2L and 1L/2L
execution-time ratios collapse toward 1.0 as computation grows.

This is not a paper artifact; it is the kind of ablation DESIGN.md calls
out for validating that the protocol comparison is driven by the
communication structure rather than by tuning.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..stats.report import format_table
from .configs import FULL_PLATFORM
from .sweep import RunSpec, run_cells

DEFAULT_SCALES = (0.25, 1.0, 4.0)


@dataclass
class SensitivityResults:
    #: ratio[app][scale][protocol] = T_protocol / T_2L.
    ratio: dict[str, dict[float, dict[str, float]]] = field(
        default_factory=dict)

    def format(self) -> str:
        sections = []
        for app, per_scale in self.ratio.items():
            scales = sorted(per_scale)
            rows = [
                ("1LD / 2L", [per_scale[s]["1LD"] for s in scales]),
                ("1L / 2L", [per_scale[s]["1L"] for s in scales]),
            ]
            sections.append(format_table(
                f"Sensitivity — {app}: protocol gap vs compute density",
                [f"x{s:g}" for s in scales], rows, col_width=9,
                label_width=12))
        return "\n\n".join(sections)


def run_sensitivity(apps: tuple[str, ...] = ("Em3d",),
                    scales: tuple[float, ...] = DEFAULT_SCALES,
                    config=None, sweep=None) -> SensitivityResults:
    config = config or FULL_PLATFORM
    protocols = ("2L", "1LD", "1L")
    specs = [RunSpec.app_run(app_name, protocol, config,
                             params={"_compute_scale": scale})
             for app_name in apps for scale in scales
             for protocol in protocols]
    cells = iter(run_cells(specs, sweep))
    results = SensitivityResults()
    for app_name in apps:
        results.ratio[app_name] = {}
        for scale in scales:
            times = {p: next(cells).exec_time_us for p in protocols}
            results.ratio[app_name][scale] = {
                p: times[p] / times["2L"] for p in times}
    return results
