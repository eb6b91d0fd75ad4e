"""The simulated Memory Channel network.

Models the characteristics the protocols rely on (Section 2.1):

* remote *writes* only — reads of remote memory are impossible, which is
  why the protocols broadcast directory entries and use explicit
  request/reply messages for page fetches;
* 5.2 us process-to-process write latency;
* 29 MB/s per-link sustained bandwidth, ~60 MB/s aggregate (modeled as
  ``aggregate/link`` concurrent channels at the link rate);
* total global ordering of writes to the same region;
* loop-back: a node may observe its own writes returning through the hub.

All protocol traffic is accounted by category so the harness can
regenerate Table 3's "Data (Mbytes)" row and break traffic down further.
"""

from __future__ import annotations

from typing import Any

from ..config import MachineConfig
from ..errors import MemoryChannelError
from ..sim.engine import MultiChannelResource, Simulator
from .regions import MappingTable, MCRegion

#: Wire size of one Memory Channel word (the Alpha's 32-bit atomic grain).
MC_WORD_BYTES = 4


class MemoryChannel:
    """Latency/bandwidth model plus the region and mapping-table namespace."""

    def __init__(self, sim: Simulator, config: MachineConfig) -> None:
        self.sim = sim
        self.config = config
        costs = config.costs
        self.latency = costs.mc_latency
        self.link_bandwidth = costs.mc_link_bandwidth
        channels = max(1, round(costs.mc_aggregate_bandwidth
                                / costs.mc_link_bandwidth))
        self.links = MultiChannelResource(channels, name="mc-links")
        self.mapping_table = MappingTable()
        self._regions: dict[str, MCRegion] = {}
        #: Bytes moved over the network, by protocol category.
        self.traffic: dict[str, int] = {}
        #: Optional event tracer (:class:`repro.trace.Tracer`); when set,
        #: word writes and bulk transfers appear on the wire track.
        self.trace = None

    # --- regions -----------------------------------------------------------

    def new_region(self, name: str, size: int, initial: Any = 0,
                   loopback: bool = False, connections: int = 1,
                   waitable: bool = True, readable: bool = True) -> MCRegion:
        """Create a named MC region of ``size`` words.

        ``connections`` is the number of mapping-table entries consumed
        (one per transmit/receive mapping pair in the real hardware; the
        superpage layer passes the per-node mapping count). ``waitable``
        and ``readable`` are :class:`MCRegion`'s: whether anything parks
        on the region's condition, and whether anything reads its words.
        """
        if name in self._regions:
            raise MemoryChannelError(f"duplicate MC region {name!r}")
        self.mapping_table.allocate(name, connections)
        region = MCRegion(self.sim, name, size, initial=initial,
                          loopback=loopback, waitable=waitable,
                          readable=readable)
        self._regions[name] = region
        return region

    def region(self, name: str) -> MCRegion:
        return self._regions[name]

    # --- writes and transfers ----------------------------------------------

    def write_word(self, region: MCRegion, index: int, value: Any,
                   at: float, category: str = "meta") -> float:
        """Issue a single-word remote write at time ``at``.

        Returns the time at which the write is globally visible. Single
        words ride in the adapter's write buffer, so they pay latency but
        no meaningful bandwidth serialization.
        """
        visible_at = at + self.latency
        region.post(index, value, visible_at)
        traffic = self.traffic  # account(), in line
        traffic[category] = traffic.get(category, 0) + MC_WORD_BYTES
        if self.trace is not None:
            self.trace.instant("mc_word", None, at, obj=category,
                               bytes=MC_WORD_BYTES, region=region.name)
        return visible_at

    def transfer(self, at: float, nbytes: int,
                 category: str = "data") -> tuple[float, float]:
        """Book a bulk transfer (page or diff) issued at time ``at``.

        Returns ``(send_complete, visible_at)``: the issuing processor is
        busy until ``send_complete`` (its store stream is throttled by the
        link), and the data is usable at the destination at ``visible_at``.
        """
        if nbytes < 0:
            raise MemoryChannelError(f"negative transfer size {nbytes}")
        service = nbytes / self.link_bandwidth
        begin, end = self.links.acquire(at, service)
        self.account(category, nbytes)
        if self.trace is not None:
            self.trace.span("mc_transfer", None, begin, end - begin,
                            obj=category, bytes=nbytes)
        return end, end + self.latency

    def visibility(self, at: float) -> float:
        """When a meta-data write issued at ``at`` becomes globally visible."""
        return at + self.latency

    # --- accounting ----------------------------------------------------------

    def bandwidth_snapshot(self) -> tuple[float, dict[str, int]]:
        """Cumulative link busy time (us) and per-category traffic bytes.

        The metrics collector polls this at each sampling boundary and
        differences consecutive snapshots into bandwidth-utilization and
        bytes-per-interval series. Read-only.
        """
        return self.links.busy_time, dict(self.traffic)

    def account(self, category: str, nbytes: int) -> None:
        self.traffic[category] = self.traffic.get(category, 0) + nbytes
