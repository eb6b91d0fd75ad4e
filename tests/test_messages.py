"""Unit tests for the explicit request/reply engine (handler requests;
the handler-less page fetch is covered by the protocol suites)."""

import pytest

from repro.cluster.machine import Cluster
from repro.config import MachineConfig
from repro.protocol.messages import RequestEngine


def make_cluster(polling=True, nodes=2, ppn=2):
    cfg = MachineConfig(nodes=nodes, procs_per_node=ppn, page_bytes=512,
                        shared_bytes=512 * 4, polling=polling)
    return Cluster(cfg)


def null_handler(cost=10.0, reply=512):
    def handler(server, at):
        return "payload", cost, reply
    return handler


class TestRequestTiming:
    def test_polled_request_timeline(self):
        cluster = make_cluster()
        engine = RequestEngine(cluster)
        requester = cluster.processors[0]
        requester.clock = 100.0
        payload, done = engine.fetch_page(
            requester, cluster.nodes[1],
            handler=null_handler(cost=10.0, reply=512))
        assert payload == "payload"
        costs = cluster.config.costs
        expected = (100.0 + costs.mc_latency + costs.poll_dispatch
                    + costs.handler_entry + 10.0
                    + 512 / costs.mc_link_bandwidth + costs.mc_latency)
        assert done == pytest.approx(expected)

    def test_interrupt_mode_costs_more(self):
        done_times = {}
        for polling in (True, False):
            cluster = make_cluster(polling=polling)
            engine = RequestEngine(cluster)
            requester = cluster.processors[0]
            _, done = engine.fetch_page(requester, cluster.nodes[1],
                                        handler=null_handler())
            done_times[polling] = done
        # Inter-node interrupts (445 us) dwarf the polling dispatch (4 us).
        assert done_times[False] > done_times[True] + 400.0

    def test_zero_reply_still_pays_latency(self):
        cluster = make_cluster()
        engine = RequestEngine(cluster)
        requester = cluster.processors[0]
        _, done = engine.fetch_page(requester, cluster.nodes[1],
                                    handler=null_handler(reply=0))
        assert done > cluster.config.costs.mc_latency


class TestServiceSerialization:
    def test_requests_to_one_node_serialize(self):
        cluster = make_cluster()
        engine = RequestEngine(cluster)
        p0, p1 = cluster.processors[0], cluster.processors[1]
        _, d1 = engine.fetch_page(p0, cluster.nodes[1],
                                  handler=null_handler(cost=100.0))
        _, d2 = engine.fetch_page(p1, cluster.nodes[1],
                                  handler=null_handler(cost=100.0))
        # Second request queues behind the first handler's service time.
        assert d2 >= d1 + 90.0

    def test_server_charged_for_handler(self):
        cluster = make_cluster()
        engine = RequestEngine(cluster)
        requester = cluster.processors[0]
        engine.fetch_page(requester, cluster.nodes[1],
                          handler=null_handler(cost=50.0))
        served = [p for p in cluster.nodes[1].processors
                  if p.stats.counters["requests_served"]]
        assert len(served) == 1
        assert served[0].stats.buckets["protocol"] >= 50.0

    def test_round_robin_server_choice(self):
        cluster = make_cluster()
        engine = RequestEngine(cluster)
        requester = cluster.processors[0]
        for _ in range(4):
            engine.fetch_page(requester, cluster.nodes[1],
                              handler=null_handler())
        counts = [p.stats.counters["requests_served"]
                  for p in cluster.nodes[1].processors]
        assert counts == [2, 2]

    def test_targeted_request_hits_specific_processor(self):
        cluster = make_cluster()
        engine = RequestEngine(cluster)
        requester = cluster.processors[0]
        target = cluster.nodes[1].processors[1]
        for _ in range(3):
            engine.fetch_page(requester, cluster.nodes[1],
                              handler=null_handler(),
                              target_proc=target.global_id)
        assert target.stats.counters["requests_served"] == 3

    def test_handler_sees_service_begin_time(self):
        cluster = make_cluster()
        engine = RequestEngine(cluster)
        requester = cluster.processors[0]
        requester.clock = 50.0
        seen = {}

        def handler(server, at):
            seen["at"] = at
            return None, 1.0, 0

        engine.fetch_page(requester, cluster.nodes[1], handler=handler)
        costs = cluster.config.costs
        assert seen["at"] == pytest.approx(
            50.0 + costs.mc_latency + costs.poll_dispatch, abs=1e-3)

    def test_traffic_accounted(self):
        cluster = make_cluster()
        engine = RequestEngine(cluster)
        engine.fetch_page(cluster.processors[0], cluster.nodes[1],
                          handler=null_handler(reply=512))
        assert cluster.mc.traffic["request"] > 0
        assert cluster.mc.traffic["page"] == 512
