"""Byte-identity pins for the traced event stream.

``test_trace.py`` checks that tracing does not perturb a run's stats;
nothing there pins what the tracer *records*. Each pin below is a
digest of the full ``(kind, proc, t0, dur, obj, payload)`` sequence of
one small-params run on two 2-way nodes, so a refactor of the
protocol's span emission cannot silently reorder, retime or drop a
span.

A deliberate change to the cost model, an app or the trace vocabulary
moves these digests; re-pin by running this file as a script with
``src`` on ``PYTHONPATH``, which prints a fresh ``PINS`` table.
"""

import hashlib

import pytest

from repro import MachineConfig, run_app
from repro.apps import make_app

TRACED = MachineConfig(nodes=2, procs_per_node=2, page_bytes=512,
                       tracing=True)
APPS = ("SOR", "Water", "TSP")
PROTOCOLS = ("2L", "2LS", "1LD", "1L")

PINS = {
    ('SOR', '2L'): '218:b9f8baec7ca8df64',
    ('SOR', '2LS'): '218:b9f8baec7ca8df64',
    ('SOR', '1LD'): '438:b411844f47e9de51',
    ('SOR', '1L'): '437:d8196cc5efe8374e',
    ('Water', '2L'): '477:ecbe4b7586a430c9',
    ('Water', '2LS'): '481:007a1193b30b78a2',
    ('Water', '1LD'): '906:6bfbd8e369ae2add',
    ('Water', '1L'): '825:276b7b8210448244',
    ('TSP', '2L'): '41441:59e85a33dcebf58d',
    ('TSP', '2LS'): '41445:cec97ee07c2b10e3',
    ('TSP', '1LD'): '71540:26c9a7d788f0295c',
    ('TSP', '1L'): '79476:a0c4abf532c18f90',
}


def digest(app_name: str, protocol: str) -> str:
    """A digest of every event one traced small-params run records."""
    app = make_app(app_name)
    trace = run_app(app, app.small_params(), TRACED, protocol).trace
    assert trace.dropped == 0
    h = hashlib.sha256()
    for ev in trace:
        h.update(repr((ev.kind, ev.proc, ev.t0, ev.dur, ev.obj,
                       sorted(ev.payload.items()))).encode())
    return f"{len(trace)}:{h.hexdigest()[:16]}"


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("app_name", APPS)
def test_trace_stream_is_pinned(app_name, protocol):
    assert digest(app_name, protocol) == PINS[app_name, protocol]


if __name__ == "__main__":
    for app_name in APPS:
        for protocol in PROTOCOLS:
            print(f"    {(app_name, protocol)!r}: "
                  f"{digest(app_name, protocol)!r},")
