"""Protocol event tracing, contention profiling, and Chrome export.

See :mod:`repro.trace.tracer` for the collection model,
:mod:`repro.trace.chrome` for the Perfetto-viewable export, and
:mod:`repro.trace.profile` for derived contention reports.

Importing the package loads only the collection side (``events`` and
``tracer``), which every run needs; the export and the profile are
loaded on first use of their names (PEP 562), so an untraced run never
pays for them.
"""

from importlib import import_module

from .events import KIND_FAMILIES, KIND_FAMILY, NO_PROC, TraceEvent
from .tracer import DEFAULT_CAPACITY, Tracer, attach_tracer

#: Name -> submodule, for the names loaded on first use.
_LAZY = {
    "to_chrome_trace": "chrome",
    "write_chrome_trace": "chrome",
    "ContentionProfile": "profile",
}

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


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
