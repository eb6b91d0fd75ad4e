"""Time-series metrics: sampled gauges and counter deltas over
simulated time (DESIGN.md §13).

:mod:`repro.metrics.collector` holds the :class:`MetricsCollector`,
attached to a configured execution (``MachineConfig(metrics=True)`` or
the ``repro.runtime.metering()`` context manager). Driven by the
simulator's ``on_advance`` hook, it samples gauges (directory
occupancy, page-state histogram, Memory Channel utilization,
request-queue depths, software-TLB hit rate) at fixed simulated-time
intervals and records deltas of the protocol counters between samples.
Strictly observational, like tracing and checking: a metered run is
byte-identical to an unmetered one.
"""

from .collector import (DEFAULT_INTERVAL_US, MetricsCollector,
                        attach_metrics)

__all__ = ["MetricsCollector", "attach_metrics", "DEFAULT_INTERVAL_US"]
