"""The four benchmark workloads: fixed lists of simulation cells.

A *cell* is one :class:`~repro.experiments.sweep.RunSpec` — one cold
simulation, and one *operation* of the benchmark contract. The lists
are cut along the line the paper's evaluation draws between
sharing-bound and compute-bound applications, so that a protocol change
and an access-path change move different workloads (README.md has the
measured layer shares behind each choice). Application inputs are pure
functions of ``(app, params)``; the benchmark seed only permutes the
order of the cells within a pass.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.experiments.configs import (APP_ORDER, FULL_PLATFORM,
                                       PLACEMENT_ORDER, experiment_config)
from repro.experiments.scale import SCALE_PARAMS, scale_config
from repro.experiments.sweep import RunSpec


@dataclass(frozen=True)
class Cell:
    name: str
    spec: RunSpec
    #: The same simulation with every observer off and the fast path
    #: on, for cells that must be byte-identical to it (observer
    #: parity); ``None`` for cells that already are that run.
    unobserved: RunSpec | None = None


def _app(app: str, protocol: str, placement: str) -> Cell:
    return Cell(f"{app}/{protocol}/{placement}",
                RunSpec.app_run(app, protocol, experiment_config(placement)))


def _observed(app: str, **flags: bool) -> Cell:
    base = experiment_config("32:4")
    label = "+".join(f"{k}={'on' if v else 'off'}" for k, v in flags.items())
    return Cell(f"{app}/2L/32:4/{label}",
                RunSpec.app_run(app, "2L", replace(base, **flags)),
                unobserved=RunSpec.app_run(app, "2L", base))


def _scale(app: str, nodes: int, ppn: int) -> Cell:
    return Cell(f"{app}/2L/{nodes}x{ppn}/tree",
                RunSpec.app_run(app, "2L", scale_config(nodes, ppn, "tree"),
                                params=SCALE_PARAMS[app]))


def _coherence32() -> list[Cell]:
    protocols = {
        "TSP": ("2L", "1LD"),
        "LU": ("2L", "1LD", "1L"),
        "Ilink": ("2L", "1LD", "1L"),
        "Water": ("2L", "2LS", "1LD", "1L"),
        "Em3d": ("2L", "2LS", "1LD", "1L"),
    }
    return [_app(app, p, "32:4") for app, ps in protocols.items() for p in ps]


def _accesspath() -> list[Cell]:
    cells = [Cell(f"{app}/seq", RunSpec.seq_run(app, FULL_PLATFORM))
             for app in APP_ORDER]
    cells += [_app("Gauss", "2L", p) for p in PLACEMENT_ORDER]
    cells += [_app("Barnes", "2L", p) for p in ("4:4", "8:4", "32:4")]
    cells += [_app("SOR", "2L", p) for p in ("4:1", "8:4", "32:4")]
    cells += [_app(app, "2L", "4:4")
              for app in ("SOR", "LU", "Water", "TSP", "Ilink", "Em3d")]
    return cells


def _scale_cells() -> list[Cell]:
    return [_scale(app, nodes, 8)
            for nodes, apps in ((16, ("SOR", "Water", "LU")),
                                (32, ("SOR", "Water")))
            for app in apps]


def _observed32() -> list[Cell]:
    cells = [_observed(app, tracing=True) for app in ("SOR", "Water", "Gauss")]
    cells += [_observed(app, metrics=True) for app in ("SOR", "Water", "Gauss")]
    cells += [_observed(app, checking=True) for app in ("SOR", "Water")]
    cells.append(_observed("TSP", fastpath=False))
    return cells


#: Built once at import: RunSpecs are frozen values.
WORKLOADS: dict[str, tuple[Cell, ...]] = {
    "coherence32": tuple(_coherence32()),
    "accesspath": tuple(_accesspath()),
    "scale": tuple(_scale_cells()),
    "observed32": tuple(_observed32()),
}
