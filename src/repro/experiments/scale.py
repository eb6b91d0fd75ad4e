"""Experiment S — big-cluster scaling (DESIGN.md §15).

The paper's machine stops at 8 nodes x 4 processors; this family charts
what the simulated protocol — and the simulator itself — does when the
cluster keeps growing: a ladder of placements from 8x4 (32 processors)
to 64x8 (512 processors) running SOR, Water, and LU under 2L with the
combining-tree barrier. Per rung it reports:

* **speedup** over the uninstrumented sequential run (same problem
  size across the ladder — strong scaling, so the curve bends where
  communication overtakes the shrinking per-processor compute);
* **Memory Channel traffic** (Mbytes) — the broadcast-medium load that
  grows with sharers and with directory-update fan-out;
* **barrier cost** — mean departure latency per episode (the
  O(slots) vs O(log slots) term the tree topology targets) and total
  combine-hop count;
* **directory occupancy** — mean sharers per page at end of run, the
  quantity the sparse O(sharers) entries keep per-access cost flat in
  (the dense form pays O(num_owners) per scan regardless).

The run's total wall clock goes to stderr, never into the results:
``scale --json`` is a function of its inputs alone, whether a cell was
simulated or served from the cache. The simulator's host cost on the
big rungs is measured by the ``scale`` workload of ``benchmarks/e2e``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..config import MachineConfig
from ..stats.report import format_table
from .configs import EXPERIMENT_PAGE_BYTES
from .sweep import RunSpec, run_cells

#: The placement ladder, (nodes, procs_per_node): 32 to 512 processors.
LADDER = ((8, 4), (16, 4), (16, 8), (32, 8), (64, 8))

#: Reduced ladder for ``--quick`` / the CI smoke cell.
QUICK_LADDER = ((8, 4), (16, 4))

#: Applications with enough exposed parallelism to feed 512 processors.
SCALE_APPS = ("SOR", "Water", "LU")

SCALE_PROTOCOL = "2L"

#: Strong-scaling problem sizes: fixed across the ladder, sized so the
#: largest rung still gives every processor work (SOR: 2 rows each at
#: 512; LU: 1024 blocks; Water: 2 molecules each).
SCALE_PARAMS = {
    "SOR": {"rows": 1026, "cols": 64, "iters": 2},
    "Water": {"mols": 1024, "steps": 1},
    "LU": {"n": 384, "block": 12},
}

#: ``--quick`` sizes, matched to the reduced ladder's 64 processors.
QUICK_PARAMS = {
    "SOR": {"rows": 130, "cols": 32, "iters": 2},
    "Water": {"mols": 96, "steps": 1},
    "LU": {"n": 96, "block": 12},
}


def scale_config(nodes: int, ppn: int,
                 barrier: str = "tree") -> MachineConfig:
    """Machine configuration for one ladder rung."""
    return MachineConfig(nodes=nodes, procs_per_node=ppn,
                         page_bytes=EXPERIMENT_PAGE_BYTES,
                         barrier=barrier)


def _label(nodes: int, ppn: int) -> str:
    return f"{nodes}x{ppn}"


@dataclass
class ScaleResults:
    """Per-app, per-rung scaling series."""

    ladder: tuple = LADDER
    apps: tuple = SCALE_APPS
    quick: bool = False
    barrier: str = "tree"
    seq_time_s: dict[str, float] = field(default_factory=dict)
    #: rows[app][label] — see :func:`run_scale` for the keys.
    rows: dict[str, dict[str, dict]] = field(default_factory=dict)

    def format(self) -> str:
        labels = [_label(n, p) for n, p in self.ladder]
        sections = []
        for app in self.apps:
            per = self.rows[app]
            table_rows = [
                ("processors", [per[la]["procs"] for la in labels]),
                ("speedup", [per[la]["speedup"] for la in labels]),
                ("exec (s)", [per[la]["exec_s"] for la in labels]),
                ("MC traffic (MB)",
                 [per[la]["mc_mbytes"] for la in labels]),
                ("barrier us/episode",
                 [per[la]["barrier_us_per_episode"] for la in labels]),
                ("combine hops",
                 [per[la]["combine_hops"] for la in labels]),
                ("sharers/page",
                 [per[la]["sharers_per_page"] for la in labels]),
            ]
            sections.append(format_table(
                f"Scale — {app} under {SCALE_PROTOCOL}, "
                f"{self.barrier} barrier "
                f"(sequential: {self.seq_time_s[app]:.2f}s)",
                labels, table_rows, col_width=10, label_width=20))
        return "\n\n".join(sections)


def run_scale(apps: tuple[str, ...] = SCALE_APPS,
              ladder: tuple | None = None, quick: bool = False,
              barrier: str = "tree", sweep=None) -> ScaleResults:
    """Run the scaling ladder: one sequential cell per app plus one
    cell per (app, rung), all in one sweep."""
    if ladder is None:
        ladder = QUICK_LADDER if quick else LADDER
    params_by_app = QUICK_PARAMS if quick else SCALE_PARAMS
    results = ScaleResults(ladder=tuple(ladder), apps=tuple(apps),
                           quick=quick, barrier=barrier)
    specs = []
    for app_name in apps:
        params = params_by_app[app_name]
        specs.append(RunSpec.seq_run(app_name, scale_config(*ladder[0]),
                                     params=params))
        specs += [RunSpec.app_run(app_name, SCALE_PROTOCOL,
                                  scale_config(nodes, ppn, barrier),
                                  params=params)
                  for nodes, ppn in ladder]
    cells = iter(run_cells(specs, sweep))
    for app_name in apps:
        seq_us = next(cells).exec_time_us
        results.seq_time_s[app_name] = seq_us / 1e6
        per: dict[str, dict] = {}
        for nodes, ppn in ladder:
            cell = next(cells)
            s = cell.scale or {}
            episodes = max(1, s.get("barrier_episodes", 0))
            per[_label(nodes, ppn)] = {
                "procs": nodes * ppn,
                "exec_s": cell.exec_time_us / 1e6,
                "speedup": seq_us / cell.exec_time_us,
                "mc_mbytes": s.get("mc_traffic_bytes", 0) / 1e6,
                "barrier_us_per_episode":
                    s.get("barrier_depart_us", 0.0) / episodes,
                "combine_hops": s.get("barrier_combine_hops", 0),
                "sharers_per_page": s.get("dir_sharers", 0) /
                    max(1, s.get("dir_pages", 1)),
                "dir_histogram": s.get("dir_histogram"),
            }
        results.rows[app_name] = per
    return results
