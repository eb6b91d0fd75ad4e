"""The simulated cluster: nodes, processors, and the node memory bus.

A :class:`Cluster` instantiates the topology described by a
:class:`~repro.config.MachineConfig`: ``nodes`` SMP nodes of
``procs_per_node`` processors, each node with a shared memory bus
(a serialized resource — the AlphaServer 2100's single bus — whose
contention produces the negative clustering effects of Section 3.3.3),
all connected by one :class:`~repro.memchannel.MemoryChannel`.

:class:`Processor` is the execution context simulated processes run on:
it owns the local clock, the Figure-6 time buckets, the Table-3 event
counters, and the polling check paid at loop back-edges (Section 2.3,
Figure 5). Explicit requests themselves are priced where they are sent:
:meth:`~repro.protocol.messages.RequestEngine.fetch_page` books the
polling (or interrupt) delivery and the node's service timeline.

A charge is one float add to the clock and one to its bucket, never a
trace event: the buckets are the Figure-6 totals the paper reports,
and the tracer records protocol actions (DESIGN.md §8).
"""

from __future__ import annotations

from ..config import MachineConfig
from ..memchannel import MemoryChannel
from ..sim.engine import SerialResource, Simulator
from ..stats.counters import ProcStats
from ..sim.process import ExecutionContext


class Node:
    """One SMP node: processors, a shared bus, and a request-service
    timeline."""

    def __init__(self, cluster: "Cluster", node_id: int) -> None:
        self.cluster = cluster
        self.id = node_id
        self.processors: list[Processor] = []
        self.bus = SerialResource(name=f"bus[{node_id}]")
        #: Request-service timeline: handlers run one at a time per node
        #: (this serialization is the one-level protocols' LU bottleneck).
        self.service = SerialResource(name=f"service[{node_id}]")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Node {self.id} procs={len(self.processors)}>"


class Processor(ExecutionContext):
    """One simulated CPU.

    ``clock`` is its local time in microseconds. ``charge`` advances the
    clock into a named Figure-6 bucket. ``run_compute`` additionally books
    capacity-miss traffic on the node bus (contended) and pays the polling
    check inserted at loop back-edges.
    """

    def __init__(self, node: Node, local_id: int, global_id: int) -> None:
        self.node = node
        self.cluster = node.cluster
        self.local_id = local_id
        self.global_id = global_id
        self.clock = 0.0
        self.stats = ProcStats()
        # Hoisted immutable config state (hot in run_compute/charge).
        config = node.cluster.config
        self._costs = config.costs
        self._polling = config.polling
        #: Optional event tracer (:class:`repro.trace.Tracer`); when set,
        #: each blocking wait is recorded as a ``wait`` span and each
        #: request this processor serves as a ``request_service`` span.
        #: Charges are not traced: ``stats.buckets`` keeps their totals.
        self.trace = None

    # --- ExecutionContext ---------------------------------------------------

    def charge(self, us: float, bucket: str) -> None:
        if us <= 0:
            return
        self.clock += us
        # The hottest call in the whole simulation (every simulated
        # microsecond passes through here): two adds, no other call.
        self.stats.buckets[bucket] += us

    def run_compute(self, cpu_us: float, mem_bytes: float) -> None:
        costs = self._costs
        buckets = self.stats.buckets
        buckets["user"] += cpu_us
        clock = self.clock + cpu_us
        if mem_bytes > 0:
            # Queueing delay and the transfer itself both stall the CPU;
            # the paper counts cache-miss time as User time. The booking
            # is inlined when it lands past the end of the bus timeline
            # (SerialResource.acquire's own fast path), the common case
            # for a processor whose clock advances monotonically.
            service = mem_bytes / costs.node_bus_bandwidth
            bus = self.node.bus
            es = bus._e
            if not es or es[-1] <= clock:
                bus.total_requests += 1
                bus.busy_time += service
                if service > 0:
                    if es and es[-1] == clock:
                        es[-1] = clock + service
                    else:
                        bus._b.append(clock)
                        es.append(clock + service)
                        if len(es) > 4096:
                            del bus._b[:2048], es[:2048]
                    # begin == clock: no queueing delay. The delta is
                    # ``end - clock`` (not ``service``), the same double
                    # ``acquire``'s booking charges below.
                    delta = clock + service - clock
                    buckets["user"] += delta
                    clock += delta
            else:
                delta = bus.acquire(clock, service)[1] - clock
                buckets["user"] += delta
                clock += delta
        if self._polling:
            poll = costs.poll_check
            buckets["polling"] += poll
            clock += poll
        self.clock = clock

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<P{self.global_id} (node {self.node.id}.{self.local_id})>"


class Cluster:
    """The full machine: nodes × processors plus the Memory Channel."""

    def __init__(self, config: MachineConfig, sim: Simulator | None = None) -> None:
        self.config = config
        self.sim = sim or Simulator()
        self.mc = MemoryChannel(self.sim, config)
        self.nodes: list[Node] = []
        self.processors: list[Processor] = []
        for node_id in range(config.nodes):
            node = Node(self, node_id)
            self.nodes.append(node)
            for local_id in range(config.procs_per_node):
                proc = Processor(node, local_id, len(self.processors))
                node.processors.append(proc)
                self.processors.append(proc)

    @property
    def num_procs(self) -> int:
        return len(self.processors)

    def max_clock(self) -> float:
        return max(p.clock for p in self.processors)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Cluster {self.config.nodes}x{self.config.procs_per_node} "
                f"page={self.config.page_bytes}B>")
