"""End-to-end + per-layer benchmark of the simulator's host cost.

    python benchmarks/e2e/run.py --workload coherence32
    python benchmarks/e2e/run.py --workload scale --trace
    python benchmarks/e2e/run.py --workload accesspath --repeat-check

Runs one workload cold and uncached in one single-threaded child
process (child.py), verifies every cell, and prints every metric by
name with its unit; the last line of stdout is the result as one JSON
object. ``--trace`` adds the separate profiled run and prints the
per-layer metrics. README.md describes the method and the metrics.

The model is validated against the paper only at the Table 1
primitives; applications run at scaled geometry, so this benchmark
reports no accuracy figure.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)  # siblings, also when imported by the smoke test
from layers import LAYERS, MODELLED as _COUNTERS  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

#: Workload -> why it was chosen (one line; README.md has the measured
#: layer shares behind each).
WORKLOADS = {
    "coherence32":
        "sharing-bound half of Table 3 (TSP, LU, Ilink, Water, Em3d under "
        "2L/2LS/1LD/1L at 32:4): protocol, vm and memchannel dominate, so "
        "protocol slow-path work must show here",
    "accesspath":
        "compute-bound half and the Figure 7 column shape (sequential "
        "baselines, Gauss at nine placements, single-node 4:4 runs): "
        "runtime, apps and lower dominate; a protocol-only change must "
        "barely move it",
    "scale":
        "128- and 256-processor ladder rungs with tree barriers: the same "
        "protocol layer with wide copysets, directory fan-out and a deep "
        "event heap, so a gain that costs the many-sharer path shows here",
    "observed32":
        "32:4 runs with the tracer, metrics collector or checker attached "
        "or the fast path off: the observer layers and the slow access "
        "path, which the other three workloads never execute",
}

#: End-to-end metrics: (name, unit, regression bound). Lower is better
#: for all three.
END_TO_END = (
    ("norm_s", "s", 0.20),
    ("setup_s", "s", 0.25),
    ("peak_rss_mb", "MB", 0.15),
)

#: Modelled-work counts (exact), read from each cell's public RunStats.
MODELLED = tuple(_COUNTERS) + ("memchannel.bytes",)

#: Per-layer metrics: (name, unit, better), in print order.
PER_LAYER = tuple(
    (f"{layer}.{field}", unit, "lower")
    for layer in LAYERS
    for field, unit in (("self_s", "s"), ("share", "ratio"),
                        ("calls", "count"), ("entries", "count"))
) + tuple(
    (name, "bytes" if name.endswith("bytes") else "count", "lower")
    for name in MODELLED
) + (
    ("sim.events", "count", "lower"),
    ("sim.sim_time_us", "us", "lower"),
    ("sim.host_us_per_event", "us", "lower"),
    ("sim.sim_us_per_norm_s", "us/s", "higher"),
    ("harness.raw_wall_s", "s", "lower"),
    ("harness.pass_spread", "ratio", "lower"),
    ("harness.host_slowdown", "x", "lower"),
    ("harness.host_slowdown_spread", "x", "lower"),
    ("harness.import_s", "s", "lower"),
    ("harness.construct_s", "s", "lower"),
    ("harness.warmup_excess_s", "s", "lower"),
    ("harness.trace_overhead_x", "x", "lower"),
)

#: Per-layer metrics that are exact functions of (source, cell list):
#: ``--repeat-check`` requires them identical between two sets.
EXACT = tuple(name for name, unit, _ in PER_LAYER
              if unit in ("count", "bytes") or name == "sim.sim_time_us")

#: Default ``--seconds``, and what the benchmark contract passes. The
#: pass count is a fixed function of it, never of how fast the passes
#: turn out to run: every run of one command line does the same work.
#: One pass is budgeted at what the largest workload took on the
#: slowest host measured.
RUN_SECONDS = 10
PASS_BUDGET_S = 10
MAX_PASSES = 5

IMPORT_REPS = 7
IMPORT_STMT = "import repro.experiments.sweep, repro.runtime.program"

#: Layer-contrast self-check: (layers, stronger workload, weaker
#: workload, least ratio of the summed shares).
CONTRASTS = (
    (("protocol",), "coherence32", "accesspath", 1.8),
    (("runtime", "apps", "lower"), "accesspath", "coherence32", 2.0),
)


def manifest() -> dict:
    """What BENCHMARK.json must hold (the smoke test compares)."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why}
                      for name, why in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": "lower", "bound": b}
                       for n, u, b in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": better}
                      for n, u, better in PER_LAYER],
    }


# --- children -------------------------------------------------------------


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("CASHMERE_")}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def time_import() -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", IMPORT_STMT], env=child_env(),
                   check=True)
    return time.perf_counter() - t0


def run_child(args, *extra: str) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", args.workload, *extra]
    if args.quick:
        cmd += ["--cells", "3"]
    done = subprocess.run(cmd, env=child_env(), stdout=subprocess.PIPE,
                          text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


# --- arithmetic on what the children print --------------------------------


def digest(report: dict, imports: list[float]) -> dict:
    """Metrics, per-cell rows and failures of one measured run."""
    names = report["cells"]
    passes = report["passes"]
    failures: dict[str, str] = {}
    cells = []
    norm_s = construct_s = first_s = later_s = sim_us = 0.0
    counts = dict.fromkeys(MODELLED, 0)
    for i, name in enumerate(names):
        rows = [p[i] for p in passes]
        for row in rows:
            if row["error"]:
                failures.setdefault(name, row["error"])
        done = [row for row in rows if "outcome" in row]
        if any(row["outcome"] != done[0]["outcome"] for row in done):
            failures.setdefault(
                name, "simulated outcome differs between passes")
        if not done:
            cells.append({"cell": name, "norm_s": None, "slowdown": None})
            continue
        norms = [r["wall"] / r["slowdown"] for r in done]
        norm_s += statistics.median(norms)
        first_s += norms[0]
        later_s += statistics.median(norms[1:] or norms)
        construct_s += statistics.median(
            r["construct"] / r["slowdown"] for r in done)
        sim_us += done[0]["outcome"]["sim_us"]
        for metric, value in done[0]["outcome"]["counts"].items():
            counts[metric] += value
        cells.append({"cell": name, "norm_s": statistics.median(norms),
                      "slowdown": statistics.median(
                          r["slowdown"] for r in done)})
    raw_passes = [sum(r.get("wall", 0.0) for r in p) for p in passes]
    rounds = report["rounds"]
    deciles = statistics.quantiles(rounds, n=10)
    import_s = statistics.median(imports)
    raw_wall = statistics.median(raw_passes)
    return {
        "end_to_end": {
            "norm_s": norm_s,
            "setup_s": import_s + construct_s,
            "peak_rss_mb": report["peak_rss_mb"],
        },
        "per_layer": {
            **counts,
            "sim.sim_time_us": sim_us,
            "sim.sim_us_per_norm_s": sim_us / norm_s if norm_s else 0.0,
            "harness.raw_wall_s": raw_wall,
            "harness.pass_spread":
                (max(raw_passes) - min(raw_passes)) / raw_wall,
            "harness.host_slowdown":
                statistics.median(rounds) / report["round_ref_s"],
            "harness.host_slowdown_spread": deciles[-1] / deciles[0],
            "harness.import_s": import_s,
            "harness.construct_s": construct_s,
            "harness.warmup_excess_s": first_s - later_s,
        },
        "cells": cells,
        "failures": failures,
        "attempted": len(names),
        "passes": len(passes),
    }


def add_trace(result: dict, traced: dict) -> None:
    per_layer = result["per_layer"]
    for layer, row in traced["layers"]["rows"].items():
        for field, value in row.items():
            per_layer[f"{layer}.{field}"] = value
    events = traced["layers"]["sim_events"]
    norm_s = result["end_to_end"]["norm_s"]
    per_layer["sim.events"] = events
    per_layer["sim.host_us_per_event"] = \
        norm_s * 1e6 / events if events else 0.0
    per_layer["harness.trace_overhead_x"] = \
        traced["wall"] / per_layer["harness.raw_wall_s"]
    for name, row in zip(traced["cells"], traced["rows"]):
        if row["error"]:
            result["failures"].setdefault(name, f"traced pass: {row['error']}")


def contrast_check() -> list[str]:
    """Compare the layer shares of the traced runs found in ``out/``;
    returns the failed assertions (none if a trace is missing)."""
    shares: dict[str, dict] = {}
    for workload in {w for _, a, b, _ in CONTRASTS for w in (a, b)}:
        try:
            with open(os.path.join(OUT, f"trace_{workload}.json")) as fh:
                trace = json.load(fh)
        except OSError:
            print("layer contrast: skipped "
                  f"(no traced run of {workload} in {OUT})")
            return []
        if trace["quick"]:
            print(f"layer contrast: skipped ({workload} trace is --quick)")
            return []
        shares[workload] = {layer: row["share"]
                            for layer, row in trace["layers"].items()}
    failed = []
    for group, strong, weak, least in CONTRASTS:
        a = sum(shares[strong][layer] for layer in group)
        b = sum(shares[weak][layer] for layer in group)
        verdict = "ok" if a >= least * b else "FAILED"
        line = (f"layer contrast: {'+'.join(group)} share {a:.3f} on "
                f"{strong} vs {b:.3f} on {weak} "
                f"(need >= {least}x, have {a / b:.2f}x): {verdict}")
        print(line)
        if verdict != "ok":
            failed.append(line)
    return failed


# --- one run ----------------------------------------------------------------


def run_once(args) -> dict:
    """Imports, the measuring child and (``--trace``) the profiled
    child; returns the digest with the traced metrics merged in."""
    imports = [time_import() for _ in range(3 if args.quick else IMPORT_REPS)]
    report = run_child(args, "--seed", str(args.seed),
                       "--passes", str(args.passes))
    result = digest(report, imports)
    if args.trace:
        traced = run_child(args, "--profile")
        add_trace(result, traced)
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, f"trace_{args.workload}.json")
        with open(path, "w") as fh:
            json.dump({"workload": args.workload, "quick": args.quick,
                       "spans": traced["spans"],
                       "timed_spans": report["spans"],
                       "layers": traced["layers"]["rows"],
                       "cells": result["cells"]}, fh, indent=1)
        result["trace_file"] = path
    return result


def show(result: dict, args) -> None:
    print(f"workload {args.workload}: {result['attempted']} cells, "
          f"{result['passes']} passes (the first also verifies), "
          f"seed {args.seed}")
    print(f"{'cell':34s} {'norm_s':>9s} {'slowdown':>9s}")
    for row in result["cells"]:
        if row["norm_s"] is None:
            print(f"{row['cell']:34s} {'FAILED':>9s}")
        else:
            print(f"{row['cell']:34s} {row['norm_s']:9.4f} "
                  f"{row['slowdown']:9.3f}")
    print("end-to-end (lower is better):")
    for name, unit, bound in END_TO_END:
        print(f"  {name:32s} {result['end_to_end'][name]:16.4f} {unit:6s} "
              f"bound {bound:.0%}")
    print("per-layer:")
    for name, unit, _ in PER_LAYER:
        value = result["per_layer"].get(name)
        if value is not None:
            shown = f"{value:16d}" if isinstance(value, int) \
                else f"{value:16.6g}"
            print(f"  {name:32s} {shown} {unit}")
    if not args.trace:
        print("  (layer self_s/share/calls/entries, sim.events and "
              "harness.trace_overhead_x need --trace)")
    else:
        print(f"trace written to {result['trace_file']}")
    failures = result["failures"]
    print(f"cells failed: {len(failures)} of {result['attempted']}")
    for name, why in failures.items():
        print(f"  FAILED {name}: {why}")
    print("accuracy: none reported (model validated against the paper "
          "only at Table 1 primitives; applications run at scaled geometry)")


def contract_line(result: dict, args) -> str:
    group, spec = (("per_layer", PER_LAYER) if args.trace
                   else ("end_to_end", END_TO_END))
    metrics = {name: {"value": result[group][name], "unit": unit}
               for name, unit, _ in spec}
    return json.dumps({"correct": not result["failures"],
                       "attempted": result["attempted"],
                       "failed": len(result["failures"]),
                       "metrics": metrics})


def repeat_check(first: dict, second: dict) -> list[str]:
    problems = []
    print("repeat check (set 1 vs set 2):")
    for name in ("harness.host_slowdown", "harness.host_slowdown_spread"):
        print(f"  {name:32s} {first['per_layer'][name]:12.4f} "
              f"{second['per_layer'][name]:12.4f}")
    for name, _, bound in END_TO_END:
        a, b = first["end_to_end"][name], second["end_to_end"][name]
        moved = abs(b - a) / a
        verdict = "ok" if moved <= bound else "OUTSIDE BOUND"
        print(f"  {name:32s} {a:12.4f} {b:12.4f} {moved:7.2%} "
              f"(bound {bound:.0%}) {verdict}")
        if moved > bound:
            problems.append(name)
    differing = [name for name in EXACT
                 if first["per_layer"].get(name)
                 != second["per_layer"].get(name)]
    print(f"  exact counts compared: "
          f"{sum(n in first['per_layer'] for n in EXACT)}, "
          f"differing: {differing or 'none'}")
    return problems + differing


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0,
                    help="permutes cell order within each pass (0 = listed)")
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS,
                    help=f"measuring time: one pass after the verifying "
                         f"first one per {PASS_BUDGET_S} s (1 to {MAX_PASSES})")
    ap.add_argument("--passes", type=int, default=None,
                    help="exactly this many passes after the first instead")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=(0, 1), help="also make the profiled run")
    ap.add_argument("--quick", action="store_true",
                    help="the first 3 cells only (smoke test)")
    ap.add_argument("--repeat-check", action="store_true",
                    help="run twice; fail unless the two sets agree")
    args = ap.parse_args(argv)
    if args.passes is None:
        args.passes = max(1, min(MAX_PASSES,
                                 int(args.seconds // PASS_BUDGET_S)))
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no simulator to measure: {SRC}/repro is missing",
              file=sys.stderr)
        return 2

    result = run_once(args)
    show(result, args)
    problems = list(result["failures"])
    if args.repeat_check:
        second = run_once(args)
        show(second, args)
        problems += list(second["failures"])
        problems += repeat_check(result, second)
    if args.trace and any(args.workload in row for row in CONTRASTS):
        problems += contrast_check()
    print(contract_line(result, args))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
