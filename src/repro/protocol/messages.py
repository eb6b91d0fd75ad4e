"""Explicit inter-node requests (Section 2.3, "Explicit requests").

The Memory Channel supports remote writes but not remote reads, so a
processor that needs remote data (a page fetch, or breaking a page out of
exclusive mode) writes a request descriptor into the target node's
request buffer and spins on a reply buffer mapped for receive. Requests
and replies use multi-bin buffers (one bin per remote node) to stay
lock-free.

Delivery is by *polling*: every processor checks its node's buffers at
loop back-edges (Figure 5), so a request waits on average one poll
interval before a processor picks it up, then pays the handler-entry
overhead, then the handler itself. Handlers on one node serialize — this
is the communication bottleneck that hurts the one-level protocols on LU
(Section 3.3.3). With ``polling=False`` the machine uses inter-processor
interrupts at the (kernel-optimized) latencies instead.

The engine computes the full service timeline, runs the handler against
the authoritative simulation state, charges the servicing processor's
time (it was interrupted from application work), and returns the reply's
arrival time to the requester, whose clock advances to it as
communication-and-wait time.
"""

from __future__ import annotations

from typing import Any, Callable

from ..cluster.machine import Cluster, Node, Processor

#: Wire size of a request descriptor (type, page, requester, sequence).
REQUEST_BYTES = 32

#: A handler receives the servicing processor and the simulated time at
#: which service begins, and returns ``(payload, handler_cost_us,
#: reply_bytes)``. Handlers book resources (bus, MC transfers) at the
#: service time, not at the server's possibly-stale local clock.
Handler = Callable[[Processor, float], tuple[Any, float, int]]


class RequestEngine:
    """Models the request/reply path for one protocol instance."""

    def __init__(self, cluster: Cluster) -> None:
        self.cluster = cluster
        self.mc = cluster.mc
        self.config = cluster.config
        self._rr: dict[int, int] = {}  # per-node round-robin poll winner

    def fetch_page(self, requester: Processor, target_node: Node,
                   cost: float = 0.0, reply_bytes: int = 0,
                   bus_us: float | None = None, *,
                   handler: Handler | None = None,
                   target_proc: int | None = None) -> tuple[Any, float]:
        """Request a page at the requester's clock; returns (payload,
        done), ``done`` being when the reply is usable at the requester
        (the caller charges ``done - clock`` as communication/wait).

        From the home, the reply costs ``cost`` (plus, for a same-node
        reply, a ``bus_us`` memcpy on the node bus) and carries
        ``reply_bytes``; the requester then reads the master copy itself,
        so the payload is None. A ``handler`` (an exclusive break: the
        holder flushes and replies) computes payload, cost and reply size
        at the service start. The service timeline is peeked only for a
        handler or the bus booking: nothing else reads the start time."""
        costs = self.config.costs
        now = requester.clock
        # Request descriptor is a remote write into the request buffer.
        arrival = now + costs.mc_latency
        traffic = self.mc.traffic
        traffic["request"] = traffic.get("request", 0) + REQUEST_BYTES
        if self.config.polling:
            ready = arrival + costs.poll_dispatch
        else:
            same = target_node is requester.node
            ready = arrival + self.config.interrupt_cost(same_node=same)

        # The processor that notices the request first: a specific target
        # (an exclusive holder) serves its own requests; otherwise the
        # node's processors take turns (whoever polls first, in reality).
        if target_proc is not None:
            server = self.cluster.processors[target_proc]
        else:
            idx = self._rr.get(target_node.id, 0)
            self._rr[target_node.id] = (idx + 1) % len(target_node.processors)
            server = target_node.processors[idx]
        payload = None
        if handler is not None:
            payload, cost, reply_bytes = handler(
                server, target_node.service.peek(ready, 1e-6))
        elif bus_us is not None:
            at = target_node.service.peek(ready, 1e-6)
            cost += target_node.bus.acquire(at, bus_us)[1] - at
        service = costs.handler_entry + cost
        begin, end = target_node.service.acquire(ready, service)

        # The servicing processor loses this time to protocol work
        # (Processor.charge, in line).
        server.clock += service
        server.stats.buckets["protocol"] += service
        server.stats.counters["requests_served"] += 1
        trace = server.trace
        if trace is not None:
            trace.span("request_service", server, begin, end - begin,
                       obj="page", requester=requester.global_id,
                       bytes=reply_bytes)

        if reply_bytes > 0:
            _, visible = self.mc.transfer(end, reply_bytes, category="page")
        else:
            visible = end + costs.mc_latency
        return payload, max(visible, now)
