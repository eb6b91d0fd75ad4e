"""Chrome ``trace_event`` export.

Converts a :class:`~repro.trace.Tracer`'s events into the Trace Event
Format consumed by Perfetto (https://ui.perfetto.dev) and Chrome's
``about:tracing``: one process per simulated node, one thread (track)
per simulated processor, duration events (``ph: "X"``) for spans such
as fault service, page fetches and flushes, lock holds and waits, and
instant events (``ph: "i"``) for faults-of-a-moment such as diffs,
shootdowns, and write notices. Memory Channel wire activity gets its
own process so network occupancy reads as a separate swim-lane.

Timestamps are microseconds in both systems, so simulated times pass
through unchanged.
"""

from __future__ import annotations

import json
from typing import IO

from .events import KIND_FAMILY, NO_PROC
from .tracer import Tracer

#: pid offset for the synthetic Memory Channel process (placed after
#: the last node so node pids equal node ids).
_MC_TID = 0


def to_chrome_trace(tracer: Tracer) -> dict:
    """The full Chrome ``trace_event`` JSON document, as a dict."""
    kind, proc, node, t0, dur, obj, payload = tracer.columns()
    nodes = tracer.meta.get("nodes")
    mc_pid = int(max(node, default=-1) + 1 if nodes is None else nodes)

    out: list[dict] = []
    seen_tracks: set[tuple[int, int]] = set()
    # The row index breaks ties, so this is the stable sort by
    # (t0, proc, kind), and no TraceEvent is built.
    for ts, ev_proc, ev_kind, row in sorted(zip(t0, proc, kind,
                                                range(len(kind)))):
        ev_node = node[row]
        pid = mc_pid if ev_node == NO_PROC else ev_node
        tid = _MC_TID if ev_proc == NO_PROC else ev_proc
        seen_tracks.add((pid, tid))
        args: dict = {}
        if obj[row] is not None:
            args["obj"] = obj[row]
        if payload[row] is not None:
            args.update(payload[row])
        rec = {
            "name": str(ev_kind),
            "cat": KIND_FAMILY.get(ev_kind, "other"),
            "ts": ts,
            "pid": pid,
            "tid": tid,
        }
        if args:
            rec["args"] = args
        if dur[row] > 0:
            rec["ph"] = "X"
            rec["dur"] = dur[row]
        else:
            rec["ph"] = "i"
            rec["s"] = "t"  # thread-scoped instant
        out.append(rec)

    out.extend(_metadata_events(seen_tracks, mc_pid))
    doc = {
        "traceEvents": out,
        "displayTimeUnit": "ms",
    }
    if tracer.meta:
        doc["otherData"] = {k: v for k, v in tracer.meta.items()
                            if isinstance(v, (str, int, float, bool))}
    if tracer.dropped:
        doc.setdefault("otherData", {})["dropped_events"] = tracer.dropped
    return doc


def _metadata_events(tracks: set[tuple[int, int]], mc_pid: int) -> list[dict]:
    """process/thread naming and ordering metadata."""
    meta: list[dict] = []
    for pid in sorted({p for p, _ in tracks}):
        name = "Memory Channel" if pid == mc_pid else f"node {pid}"
        meta.append({"ph": "M", "name": "process_name", "pid": pid,
                     "args": {"name": name}})
        meta.append({"ph": "M", "name": "process_sort_index", "pid": pid,
                     "args": {"sort_index": pid}})
    for pid, tid in sorted(tracks):
        name = "wire" if pid == mc_pid else f"cpu {tid}"
        meta.append({"ph": "M", "name": "thread_name", "pid": pid,
                     "tid": tid, "args": {"name": name}})
    return meta


def write_chrome_trace(tracer: Tracer, path_or_file: str | IO[str]) -> int:
    """Write the Chrome trace JSON; returns the number of trace events."""
    doc = to_chrome_trace(tracer)
    if hasattr(path_or_file, "write"):
        json.dump(doc, path_or_file)
    else:
        with open(path_or_file, "w") as fh:
            json.dump(doc, fh)
    return len(doc["traceEvents"])
