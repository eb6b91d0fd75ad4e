"""Observability entry points: trace one run, or profile its contention.

``cashmere-repro trace APP --out trace.json`` runs one application under
one protocol with event tracing enabled and exports the Chrome
``trace_event`` JSON (open it at https://ui.perfetto.dev).

``cashmere-repro profile APP`` runs the same traced execution and prints
the derived contention report (hot pages, lock hold/wait, barrier
imbalance, Memory Channel timeline) instead of the raw trace.
"""

from __future__ import annotations

from dataclasses import replace

from ..apps import make_app
from ..runtime.program import RunResult, run_app
from ..trace import ContentionProfile, write_chrome_trace
from .configs import APP_ORDER, FULL_PLATFORM

#: Default platform for traced runs: a reduced 4x2 placement so the
#: exported trace stays readable (and small) in the viewer. Pass
#: ``placement`` explicitly for the full machine.
TRACE_PLATFORM = FULL_PLATFORM.with_placement(8, 2)


def resolve_app_name(name: str) -> str:
    """Canonical application name, case-insensitively (``sor`` -> ``SOR``)."""
    by_lower = {a.lower(): a for a in APP_ORDER}
    try:
        return by_lower[name.lower()]
    except KeyError:
        raise SystemExit(f"unknown application {name!r}; "
                         f"choose from {list(APP_ORDER)}") from None


def run_traced(app_name: str, protocol: str = "2L",
               config=None) -> RunResult:
    """One traced execution of ``app_name`` at experiment scale."""
    app = make_app(resolve_app_name(app_name))
    cfg = replace(config or TRACE_PLATFORM, tracing=True)
    return run_app(app, app.default_params(), cfg, protocol)


def run_trace_export(app_name: str, out: str, protocol: str = "2L",
                     config=None) -> int:
    """Trace a run and write the Chrome trace JSON; returns event count."""
    result = run_traced(app_name, protocol, config)
    return write_chrome_trace(result.trace, out)


def run_profile(app_name: str, protocol: str = "2L",
                config=None) -> ContentionProfile:
    """Trace a run and derive its contention profile."""
    result = run_traced(app_name, protocol, config)
    return ContentionProfile(result.trace)
