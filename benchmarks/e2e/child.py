"""The measuring process: runs one workload's passes and reports them.

Started by ``run.py`` in a fresh interpreter (``PYTHONHASHSEED=0``, no
``CASHMERE_*`` variables) so that nothing the parent imported or
allocated is in the measured process. One process, one thread; the
result is one JSON document on the last line of stdout.

Two modes:

* default — a first pass that also verifies every cell (between the
  timed regions), then ``--passes`` more;
* ``--profile`` — one pass under ``cProfile``, aggregated per layer by
  :mod:`layers`.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import random
import resource
import sys
import time
from contextlib import nullcontext

import layers
from workloads import WORKLOADS, Cell
from yardstick import ROUND_REF_S, Sampler

from repro.apps import make_app
from repro.experiments.sweep import RunSpec, config_from_key
from repro.runtime.program import ParallelRuntime
from repro.runtime.sequential import run_sequential

#: ``run_and_verify``'s tolerances.
RTOL = ATOL = 1e-8

class Spans:
    """Harness spans (id, name, start, end, parent), kept in memory."""

    def __init__(self) -> None:
        self.rows: list[dict] = []

    def add(self, name: str, start: float, end: float,
            parent: int | None) -> int:
        self.rows.append({"id": len(self.rows), "name": name,
                          "start": start, "end": end, "parent": parent})
        return len(self.rows) - 1

    def close(self, span: int, end: float) -> None:
        self.rows[span]["end"] = end


def simulate(spec: RunSpec):
    """One cold simulation through the public entry points.

    Returns ``(stamps, outcome, arrays)``: the four clock reads around
    construct / run / collect, the simulated outcome (what must repeat
    exactly), and the result arrays (what must match sequential).
    """
    clock = time.perf_counter
    t0 = clock()
    config = config_from_key(spec.config)
    app = make_app(spec.app)
    params = app.default_params()
    params.update(dict(spec.params))
    if spec.kind == "seq":
        t1 = clock()
        env, sim_us = run_sequential(app, params, config)
        t2 = clock()
        outcome = {"sim_us": sim_us, "table3": None, "counts": {}}
        arrays = {}
        for name in app.result_arrays(params):
            arr = env.arr(name)
            arrays[name] = env.mem[arr.base:arr.base + arr.length]
    else:
        runtime = ParallelRuntime(app, params, config, spec.protocol,
                                  lock_free=spec.lock_free,
                                  home_opt=spec.home_opt)
        t1 = clock()
        result = runtime.run()
        t2 = clock()
        stats = result.stats
        counts = {metric: sum(stats.counter(c) for c in counters)
                  for metric, counters in layers.MODELLED.items()}
        counts["memchannel.bytes"] = sum(stats.mc_traffic_bytes.values())
        outcome = {"sim_us": stats.exec_time_us,
                   "table3": stats.table3_row(), "counts": counts}
        arrays = {name: result.array(name)
                  for name in app.result_arrays(params)}
    return (t0, t1, t2, clock()), outcome, arrays


class Verifier:
    """Warm-up-pass checks: results against the sequential run
    (``run_and_verify`` semantics) and observed cells against the same
    cell run unobserved. Reference runs are memoised for the pass."""

    def __init__(self) -> None:
        self._sequential: dict[tuple, dict] = {}
        self._unobserved: dict[RunSpec, dict] = {}

    def check(self, cell: Cell, outcome: dict, arrays: dict) -> str | None:
        spec = cell.spec
        if spec.kind == "app":
            key = (spec.app, spec.params,
                   config_from_key(spec.config).page_bytes)
            if key not in self._sequential:
                self._sequential[key] = simulate(
                    RunSpec(kind="seq", app=spec.app, protocol="",
                            config=spec.config, params=spec.params))[2]
            app = make_app(spec.app)
            for name, expected in self._sequential[key].items():
                if not app.results_equal(name, expected, arrays[name],
                                         RTOL, ATOL):
                    return f"array {name!r} differs from the sequential run"
        if cell.unobserved is not None:
            if cell.unobserved not in self._unobserved:
                self._unobserved[cell.unobserved] = \
                    simulate(cell.unobserved)[1]
            if outcome != self._unobserved[cell.unobserved]:
                return "simulated outcome differs from the unobserved run"
        return None


def run_pass(cells, order, sampler: Sampler, spans: Spans, parent: int,
             profiling=nullcontext(), verifier: Verifier | None = None):
    """Run every cell once. Returns one row per cell, in list order
    whatever ``order`` ran them in: timings (raw wall seconds with the
    sampler's own time taken out, and the host slowdown during the cell),
    the simulated outcome, and ``error`` if the cell failed."""
    rows: list[dict | None] = [None] * len(cells)
    for index in order:
        cell = cells[index]
        gc.collect()
        start = sampler.open()
        spent0 = sampler.spent
        try:
            with profiling:
                stamps, outcome, arrays = simulate(cell.spec)
        except Exception as exc:  # a failed cell is reported, not fatal
            rows[index] = {"error": f"{type(exc).__name__}: {exc}"}
            continue
        finally:
            inside = sampler.spent - spent0
            slowdown = sampler.close(start)
        t0, t1, t2, t3 = stamps
        # The sampler's rounds inside the cell are about 1 ms every
        # 50 ms: take their time out of each phase in proportion to the
        # phase's length.
        keep = 1.0 - inside / (t3 - t0)
        row = {"error": None, "construct": (t1 - t0) * keep,
               "run": (t2 - t1) * keep, "collect": (t3 - t2) * keep,
               "wall": (t3 - t0) * keep, "slowdown": slowdown,
               "outcome": outcome,
               "rounds": [start, len(sampler.rounds)]}
        span = spans.add(cell.name, t0, t3, parent)
        spans.add("construct", t0, t1, span)
        spans.add("run", t1, t2, span)
        spans.add("collect", t2, t3, span)
        if verifier:
            row["error"] = verifier.check(cell, outcome, arrays)
        rows[index] = row
    return rows


def measure(cells, seed: int, passes: int) -> dict:
    sampler = Sampler()
    spans = Spans()
    clock = time.perf_counter
    root = spans.add("workload", clock(), 0.0, None)
    rows = []
    for number in range(1 + passes):
        order = list(range(len(cells)))
        if seed and number:
            random.Random(seed * 1000 + number).shuffle(order)
        span = spans.add(f"pass{number}", clock(), 0.0, root)
        rows.append(run_pass(cells, order, sampler, spans, span,
                             verifier=None if number else Verifier()))
        spans.close(span, clock())
    spans.close(root, clock())
    return {
        "cells": [c.name for c in cells],
        "passes": rows,
        "rounds": sampler.rounds,
        "round_ref_s": ROUND_REF_S,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "spans": spans.rows,
    }


def profile(cells) -> dict:
    spans = Spans()
    clock = time.perf_counter
    root = spans.add("traced-pass", clock(), 0.0, None)
    profiler = cProfile.Profile()
    t0 = clock()
    # No timer: a round run under the profiler would not measure the host.
    rows = run_pass(cells, range(len(cells)), Sampler(period_s=0.0), spans,
                    root, profiling=profiler)
    wall = clock() - t0
    spans.close(root, clock())
    return {
        "cells": [c.name for c in cells],
        "rows": rows,
        "wall": wall,
        "layers": layers.aggregate(profiler.getstats()),
        "spans": spans.rows,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--passes", type=int, default=1,
                    help="passes after the first, verifying one")
    ap.add_argument("--cells", type=int, default=None,
                    help="only the first N cells (quick mode)")
    ap.add_argument("--profile", action="store_true")
    args = ap.parse_args(argv)
    cells = WORKLOADS[args.workload][:args.cells]
    gc.disable()  # collected between cells, never inside a timed region
    if args.profile:
        report = profile(cells)
    else:
        report = measure(cells, args.seed, args.passes)
    json.dump(report, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
