"""Byte-identity pins for every app region, now run as its plain loop.

SOR, Water, LU, Gauss, Em3d and Ilink once ran their compute regions
through a batched executor that sat beside the per-step interpreter,
and a parity test required the two to agree byte for byte. The batched
executor is gone; every region is the loop the interpreter already ran.
Each pin below is the digest both executors produced for one cell on
the last tree that had both, so the plain loops must reproduce it
exactly: same clocks, same counters and buckets (aggregate and per
processor), same Memory Channel traffic, same result bytes.

``solo`` is one processor on one node; ``clustered`` is two 2-way
nodes, where every protocol path (remote fetches, write notices,
diffs, barriers) is live.

A deliberate change to the cost model or an app moves these digests;
re-pin by running this file as a script with ``src`` on ``PYTHONPATH``,
which prints a fresh ``PINS`` table.
"""

import hashlib

import pytest

from repro import MachineConfig, run_app
from repro.apps import make_app

SOLO = MachineConfig(nodes=1, procs_per_node=1, page_bytes=512)
SMALL = MachineConfig(nodes=2, procs_per_node=2, page_bytes=512)
PLACEMENTS = {"solo": SOLO, "clustered": SMALL}
APPS = ("SOR", "Water", "LU", "Gauss", "Em3d", "Ilink")
PROTOCOLS = ("2L", "2LS", "1LD", "1L")

PINS = {
    ('solo', 'SOR', '2L'): '167b0cd39bdbdb67',
    ('solo', 'SOR', '2LS'): '167b0cd39bdbdb67',
    ('solo', 'SOR', '1LD'): '6e91a8484e41842f',
    ('solo', 'SOR', '1L'): '440b499e13e44883',
    ('solo', 'Water', '2L'): '092e0e62acdc5211',
    ('solo', 'Water', '2LS'): '092e0e62acdc5211',
    ('solo', 'Water', '1LD'): 'e7fb50aef2a03153',
    ('solo', 'Water', '1L'): '6135e60085173655',
    ('solo', 'LU', '2L'): '28cda67d6163e309',
    ('solo', 'LU', '2LS'): '28cda67d6163e309',
    ('solo', 'LU', '1LD'): 'f1fa0182273c827f',
    ('solo', 'LU', '1L'): 'f6ca7b98c34785e4',
    ('solo', 'Gauss', '2L'): 'c0934bd7c691120e',
    ('solo', 'Gauss', '2LS'): 'c0934bd7c691120e',
    ('solo', 'Gauss', '1LD'): '10d1d3fa979270b5',
    ('solo', 'Gauss', '1L'): 'dfe5b25d2264869c',
    ('solo', 'Em3d', '2L'): '0203615c4001fa29',
    ('solo', 'Em3d', '2LS'): '0203615c4001fa29',
    ('solo', 'Em3d', '1LD'): '29576a15a70efcb8',
    ('solo', 'Em3d', '1L'): '2aebaf8ee8bb5a86',
    ('solo', 'Ilink', '2L'): '9e3986e9fff99f7d',
    ('solo', 'Ilink', '2LS'): '9e3986e9fff99f7d',
    ('solo', 'Ilink', '1LD'): '576a2dd6259a00b4',
    ('solo', 'Ilink', '1L'): '9fb1bcec7ff69988',
    ('clustered', 'SOR', '2L'): '7b3cd63640fd8b23',
    ('clustered', 'SOR', '2LS'): '7b3cd63640fd8b23',
    ('clustered', 'SOR', '1LD'): 'a3772c832be4f798',
    ('clustered', 'SOR', '1L'): '61fbba738a61a8fc',
    ('clustered', 'Water', '2L'): '82e113a01613e9d4',
    ('clustered', 'Water', '2LS'): 'e7f877be187e6604',
    ('clustered', 'Water', '1LD'): 'f7579e1f2277db22',
    ('clustered', 'Water', '1L'): '5ff539827d335479',
    ('clustered', 'LU', '2L'): 'dd5be75df1623caa',
    ('clustered', 'LU', '2LS'): 'dd5be75df1623caa',
    ('clustered', 'LU', '1LD'): 'fb332c2e10774005',
    ('clustered', 'LU', '1L'): 'e63eb07d03db936b',
    ('clustered', 'Gauss', '2L'): 'd6fd2ecebbad3d8d',
    ('clustered', 'Gauss', '2LS'): 'd6fd2ecebbad3d8d',
    ('clustered', 'Gauss', '1LD'): 'be13fdf5ed329ab1',
    ('clustered', 'Gauss', '1L'): '07f01448ee8161cf',
    ('clustered', 'Em3d', '2L'): '377b8bea6029c5d3',
    ('clustered', 'Em3d', '2LS'): '377b8bea6029c5d3',
    ('clustered', 'Em3d', '1LD'): 'def9fdb85191250d',
    ('clustered', 'Em3d', '1L'): '16da4a278e18b0a4',
    ('clustered', 'Ilink', '2L'): '077366f9dae4f050',
    ('clustered', 'Ilink', '2LS'): '077366f9dae4f050',
    ('clustered', 'Ilink', '1LD'): 'ecc99e87949f3b48',
    ('clustered', 'Ilink', '1L'): 'c0311e214050036d',
}


def _items(mapping) -> list:
    return sorted(mapping.items())


def digest(app_name: str, placement: str, protocol: str) -> str:
    """A digest of everything one small-params run produces."""
    app = make_app(app_name)
    params = app.small_params()
    result = run_app(app, params, PLACEMENTS[placement], protocol)
    stats = result.stats
    h = hashlib.sha256()
    h.update(repr((
        stats.exec_time_us,
        _items(stats.aggregate.counters),
        _items(stats.aggregate.buckets),
        _items(stats.mc_traffic_bytes),
        [(_items(ps.counters), _items(ps.buckets))
         for ps in stats.per_proc],
    )).encode())
    for name in sorted(app.result_arrays(params)):
        h.update(name.encode())
        h.update(result.array(name).tobytes())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("app_name", APPS)
@pytest.mark.parametrize("placement", PLACEMENTS)
def test_lowered_matches_interpreted(app_name, protocol, placement):
    assert digest(app_name, placement, protocol) == \
        PINS[placement, app_name, protocol]


if __name__ == "__main__":
    for placement in PLACEMENTS:
        for app_name in APPS:
            for protocol in PROTOCOLS:
                key = (placement, app_name, protocol)
                print(f"    {key!r}: "
                      f"{digest(app_name, placement, protocol)!r},")
