"""The big-cluster scaling knob: barrier topology.

The topology is a timing policy layered under the coherence protocol,
so the contract mirrors the fast path's: the **data** a run produces
must be byte-identical across both settings — only simulated time,
traffic, and the knob's own counters may move. The parity tests here
enforce that for SOR and Water under all four protocols; the unit tests
pin the combining tree's accounting (``barrier_combine_hops``,
departure-latency bookkeeping).
"""

from dataclasses import replace

import numpy as np
import pytest

from repro import MachineConfig, run_app
from repro.apps import make_app
from repro.cluster.machine import Cluster
from repro.config import ConfigError
from repro.protocol import make_protocol
from repro.sim.process import ProcessGroup
from repro.sync import Barrier

FLAT = MachineConfig(nodes=4, procs_per_node=2, page_bytes=512)
TREE = replace(FLAT, barrier="tree")


def _run(app_name, cfg, protocol):
    app = make_app(app_name)
    result = run_app(app, app.small_params(), cfg, protocol)
    arrays = {name: result.array(name).tobytes()
              for name in app.result_arrays(app.small_params())}
    return result, arrays


# ---------------------------------------------------------------------------
# Barrier topology.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("protocol", ["2L", "2LS", "1LD", "1L"])
@pytest.mark.parametrize("app_name", ["SOR", "Water"])
def test_tree_barrier_matches_flat_results(app_name, protocol):
    """Same data, same episode count; only timing and the combine-hop
    counter may differ between topologies. SOR (barrier-only sync) must
    match byte for byte; Water's lock-ordered force reductions reorder
    with timing, so it gets the sequential verifier's tolerance."""
    app = make_app(app_name)
    flat, flat_arrays = _run(app_name, FLAT, protocol)
    tree, tree_arrays = _run(app_name, TREE, protocol)
    if app_name == "SOR":
        assert tree_arrays == flat_arrays
    else:
        for name in app.result_arrays(app.small_params()):
            np.testing.assert_allclose(tree.array(name),
                                       flat.array(name),
                                       rtol=1e-8, atol=1e-8)
    agg_flat = flat.stats.aggregate.counters
    agg_tree = tree.stats.aggregate.counters
    assert agg_tree["barriers_crossed"] == agg_flat["barriers_crossed"]
    assert agg_flat["barrier_combine_hops"] == 0
    assert agg_tree["barrier_combine_hops"] > 0


def test_flat_is_the_default_and_unchanged():
    """``barrier="flat"`` spells the default explicitly: identical
    stats, byte for byte (the no-regression gate for old configs)."""
    base, base_arrays = _run("SOR", FLAT, "2L")
    spelled, spelled_arrays = _run("SOR", replace(FLAT, barrier="flat"),
                                   "2L")
    assert spelled_arrays == base_arrays
    assert spelled.stats.exec_time_us == base.stats.exec_time_us
    assert dict(spelled.stats.aggregate.counters) == \
        dict(base.stats.aggregate.counters)


def test_tree_departure_latency_accounted():
    """The barrier object accumulates per-episode departure latency
    (the scale experiment's barrier-cost series) and hop counts land
    only on interior-slot representatives."""
    cfg = replace(MachineConfig(nodes=4, procs_per_node=2,
                                page_bytes=512, shared_bytes=512 * 8),
                  barrier="tree")
    cluster = Cluster(cfg)
    proto = make_protocol("2L", cluster)
    barrier = Barrier(cluster, proto)
    assert barrier.tree and barrier._interior == 2

    def worker(proc):
        for _ in range(3):
            yield from barrier.wait(proc)

    group = ProcessGroup(cluster.sim)
    for proc in cluster.processors:
        group.spawn(proc, worker(proc), f"p{proc.global_id}")
    group.run()
    assert barrier.episodes == 3
    assert barrier.depart_latency_us > 0.0
    hops = sum(p.stats.counters["barrier_combine_hops"]
               for p in cluster.processors)
    # One combine write per interior slot per episode.
    assert hops == barrier._interior * 3


def test_unknown_barrier_topology_rejected():
    with pytest.raises(ConfigError):
        MachineConfig(nodes=2, procs_per_node=2, barrier="mesh")

