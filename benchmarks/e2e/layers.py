"""Layer names, and per-layer attribution of one profiled pass.

``cProfile`` records a span at every call boundary; this module maps
each profiled function to a layer by the file it lives in and sums, per
layer, self time, calls, and *entries* — calls whose caller is in
another layer, i.e. crossings of the layer's boundary. Calls and
entries are exact functions of (source, cell list) and repeat to the
digit; self time is inflated by the profiler (per call, and not inside
native code), so compare it across commits only through ``share``.
"""

from __future__ import annotations

import os

#: ``src/repro`` sub-packages that are layers of their own.
PACKAGES = ("experiments", "runtime", "lower", "apps", "sim", "protocol",
            "vm", "memchannel", "cluster", "sync", "stats", "config",
            "trace", "metrics", "check")

#: Everything else that runs during a cell: builtins, numpy, the
#: standard library.
HOST = "host"

LAYERS = PACKAGES + (HOST,)

#: Files of ``src/repro`` outside the packages above, by where their
#: time belongs: the top-level modules are configuration and error
#: types, and ``lint`` only runs as the lowering pipeline's analysis.
_ALIASES = {"config.py": "config", "errors.py": "config",
            "__init__.py": "config", "lint": "lower"}

#: Modelled-work counts read from each cell's public ``RunStats``:
#: metric name -> the counters it sums. ``memchannel.bytes`` (the sum
#: of ``mc_traffic_bytes``) is reported beside them.
MODELLED = {
    "protocol.read_faults": ("read_faults",),
    "protocol.write_faults": ("write_faults",),
    "protocol.page_transfers": ("page_transfers",),
    "protocol.directory_updates": ("directory_updates",),
    "protocol.write_notices": ("write_notices",),
    "vm.twin_creations": ("twin_creations",),
    "vm.diffs": ("incoming_diffs", "flush_updates"),
    "sync.lock_acquires": ("lock_acquires",),
    "sync.barriers": ("barriers",),
    "cluster.requests_served": ("requests_served",),
}

_HERE = os.path.dirname(os.path.abspath(__file__))
_REPRO = os.path.join(os.path.dirname(os.path.dirname(_HERE)),
                      "src", "repro") + os.sep


def layer_of(code) -> str | None:
    """Layer of a profiled code object (``None`` for the harness's own
    frames, which belong to no layer)."""
    if isinstance(code, str):  # a builtin
        return HOST
    filename = code.co_filename
    if filename.startswith(_REPRO):
        head = filename[len(_REPRO):].split(os.sep, 1)[0]
        head = _ALIASES.get(head, head)
        return head if head in PACKAGES else HOST
    if filename.startswith(_HERE + os.sep):
        return None
    return HOST


def aggregate(stats) -> dict:
    """Fold ``cProfile.Profile.getstats()`` into per-layer rows plus
    the number of simulator events scheduled."""
    rows = {name: {"self_s": 0.0, "calls": 0, "entries": 0}
            for name in LAYERS}
    events = 0
    for entry in stats:
        caller = layer_of(entry.code)
        if caller is not None:
            rows[caller]["self_s"] += entry.inlinetime
            rows[caller]["calls"] += entry.callcount
        for sub in entry.calls or ():
            callee = layer_of(sub.code)
            if callee is not None and callee != caller:
                rows[callee]["entries"] += sub.callcount
        # Every simulator event is one push on the event heap; most are
        # pushed inline by sim/process.py and lower/exec.py without
        # going through Simulator.schedule().
        if isinstance(entry.code, str) and "heappush" in entry.code:
            events += entry.callcount
    total = sum(row["self_s"] for row in rows.values())
    for row in rows.values():
        row["share"] = row["self_s"] / total if total else 0.0
    return {"rows": rows, "sim_events": events}
