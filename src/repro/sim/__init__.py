"""Discrete-event simulation kernel (engine, processes, resources)."""

from .engine import (Condition, MultiChannelResource, SerialResource,
                     Simulator)
from .process import (TIME_BUCKETS, Compute, ExecutionContext,
                      ProcessGroup, SimProcess, Sleep, Wait)

__all__ = [
    "Simulator", "Condition", "SerialResource", "MultiChannelResource",
    "Compute", "Sleep", "Wait",
    "ExecutionContext", "SimProcess", "ProcessGroup",
    "TIME_BUCKETS",
]
