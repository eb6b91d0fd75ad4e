"""Protocol event tracing, contention profiling, and Chrome export.

See :mod:`repro.trace.tracer` for the collection model,
:mod:`repro.trace.chrome` for the Perfetto-viewable export, and
:mod:`repro.trace.profile` for derived contention reports.
"""

from .events import KIND_FAMILIES, KIND_FAMILY, NO_PROC, TraceEvent
from .tracer import DEFAULT_CAPACITY, Tracer, attach_tracer
from .chrome import to_chrome_trace, write_chrome_trace
from .profile import ContentionProfile

__all__ = [
    "KIND_FAMILIES",
    "KIND_FAMILY",
    "NO_PROC",
    "TraceEvent",
    "DEFAULT_CAPACITY",
    "Tracer",
    "attach_tracer",
    "to_chrome_trace",
    "write_chrome_trace",
    "ContentionProfile",
]
