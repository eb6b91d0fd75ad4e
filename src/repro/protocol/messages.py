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

    def _pick_server(self, node: Node, target_proc: int | None) -> Processor:
        """The processor that notices the request first.

        A specific target (exclusive-mode holder) services its own
        requests; otherwise the node's processors take turns — whichever
        polls first in the real system, round-robin in the model.
        """
        if target_proc is not None:
            return self.cluster.processor(target_proc)
        idx = self._rr.get(node.id, 0)
        self._rr[node.id] = (idx + 1) % len(node.processors)
        return node.processors[idx]

    def explicit_request(self, requester: Processor, target_node: Node,
                         handler: Handler, *, target_proc: int | None = None,
                         category: str = "page") -> tuple[Any, float]:
        """Issue a request at the requester's clock; returns (payload, done).

        ``done`` is the simulated time at which the reply data is usable
        at the requester. The caller charges ``done - clock`` as
        communication/wait time.
        """
        costs = self.config.costs
        now = requester.clock
        # Request descriptor is a remote write into the request buffer.
        arrival = now + costs.mc_latency
        self.mc.account("request", REQUEST_BYTES)

        if self.config.polling:
            ready = arrival + costs.poll_dispatch
        else:
            same = target_node is requester.node
            ready = arrival + self.config.interrupt_cost(same_node=same)

        begin = target_node.service.peek(ready, 1e-6)
        server = self._pick_server(target_node, target_proc)
        payload, handler_cost, reply_bytes = handler(server, begin)
        service = costs.handler_entry + handler_cost
        begin, end = target_node.service.acquire(ready, service)

        # The servicing processor loses this time to protocol work.
        server.charge(service, "protocol")
        server.stats.bump("requests_served")
        trace = self.cluster.trace
        if trace is not None:
            trace.span("request_service", server, begin, end - begin,
                       obj=category, requester=requester.global_id,
                       bytes=reply_bytes)

        if reply_bytes > 0:
            _, visible = self.mc.transfer(end, reply_bytes, category=category)
        else:
            visible = end + costs.mc_latency
        return payload, max(visible, now)

