"""Time-series metrics: sampled gauges and counter deltas over
simulated time (DESIGN.md §13).

:mod:`repro.metrics.collector` holds the :class:`MetricsCollector`,
attached to a configured execution by ``MachineConfig(metrics=True)``.
Driven by the simulator's ``on_advance`` hook, it samples gauges (directory
occupancy, page-state histogram, Memory Channel utilization, software-TLB
hit rate) at fixed simulated-time intervals and records deltas of the
protocol counters between samples. Explicit requests are priced where
they are sent, so they show up as ``requests_served`` deltas, not as a
queue depth.
Strictly observational, like tracing and checking: a metered run is
byte-identical to an unmetered one.
"""

from .collector import (DEFAULT_INTERVAL_US, MetricsCollector,
                        attach_metrics)

__all__ = ["MetricsCollector", "attach_metrics", "DEFAULT_INTERVAL_US"]
