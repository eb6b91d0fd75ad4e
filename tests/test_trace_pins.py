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
    ('SOR', '2L'): '866:5395709e82062503',
    ('SOR', '2LS'): '866:5395709e82062503',
    ('SOR', '1LD'): '1478:292222f08c4ec761',
    ('SOR', '1L'): '1542:3264889365b10374',
    ('Water', '2L'): '1472:f511628133c2f80c',
    ('Water', '2LS'): '1479:da773e1100be2e37',
    ('Water', '1LD'): '2662:52581b59b9fcdce3',
    ('Water', '1L'): '2526:d9045a6d9348ba47',
    ('TSP', '2L'): '118674:b09b0806fc5bd56d',
    ('TSP', '2LS'): '118702:7e2682eff734270b',
    ('TSP', '1LD'): '207098:983f2ec311a7dea2',
    ('TSP', '1L'): '253142:6755301a7609654c',
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
