"""Flags: single-writer synchronization variables in MC space.

Gauss uses one flag per matrix row to announce that the row is available
as a pivot (Section 3.2). Setting a flag is a release operation (local
modifications are flushed first, then the flag word is written, so a
waiter that observes the flag also observes the data); waiting on a flag
completes with an acquire operation.
"""

from __future__ import annotations

from ..cluster.machine import Cluster, Processor
from ..sim.process import Wait


class FlagSet:
    """A named array of monotonic flag words."""

    def __init__(self, cluster: Cluster, protocol, name: str,
                 count: int) -> None:
        self.cluster = cluster
        self.protocol = protocol
        self.name = name
        self.region = cluster.mc.new_region(f"flags[{name}]", count)

    def set(self, proc: Processor, index: int, value: int = 1) -> None:
        """Release: flush, then publish the flag (non-blocking)."""
        self.protocol.release_sync(proc)
        checker = self.protocol.checker
        if checker is not None:
            checker.on_release(proc, ("flag", self.name, index))
        proc.charge(self.cluster.config.costs.mc_word_write, "protocol")
        self.cluster.mc.write_word(self.region, index, value, proc.clock,
                                   category="sync")
        trace = self.protocol.trace
        if trace is not None:
            trace.instant("flag_set", proc, proc.clock,
                          obj=f"{self.name}[{index}]", value=value)

    def wait(self, proc: Processor, index: int, value: int = 1):
        """Generator: spin until the flag reaches ``value``, then acquire."""
        region = self.region
        t_enter = proc.clock

        def ready() -> bool:
            return region.read(index, proc.clock) >= value

        if not ready():
            yield Wait(region.visible, ready, bucket="comm_wait")
        proc.stats.bump("lock_acquires")  # Table 3 counts lock/flag together
        proc.stats.bump("flag_acquires")
        self.protocol.acquire_sync(proc)
        checker = self.protocol.checker
        if checker is not None:
            checker.on_acquire(proc, ("flag", self.name, index))
        trace = self.protocol.trace
        if trace is not None:
            trace.span("flag_wait", proc, t_enter, proc.clock - t_enter,
                       obj=f"{self.name}[{index}]")

    def peek(self, proc: Processor, index: int) -> int:
        """Read the flag without acquiring (no consistency action)."""
        return self.region.read(index, proc.clock)
