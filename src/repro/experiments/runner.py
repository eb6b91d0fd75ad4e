"""Command-line entry point: regenerate the paper's tables and figures.

Usage (installed as ``cashmere-repro``)::

    cashmere-repro table1
    cashmere-repro table2
    cashmere-repro table3  [APP ...]
    cashmere-repro figure6 [APP ...]
    cashmere-repro figure7 [APP ...] [--quick]
    cashmere-repro shootdown
    cashmere-repro lockfree
    cashmere-repro scale   [APP ...] [--quick]
    cashmere-repro all     [--quick]
    cashmere-repro trace APP [--out trace.json] [--protocol 2L]
    cashmere-repro profile APP [--protocol 2L]
    cashmere-repro lint    [PATHS ...] [--select RULES] [--format json]
    cashmere-repro modelcheck [PROTO ...] [--budget N] [--mutant NAME]
                              [--out counterexample.json]

Every table/figure/ablation experiment runs through the sweep engine
(:mod:`repro.experiments.sweep`): ``-j/--jobs N`` (or ``CASHMERE_JOBS``)
fans independent simulation cells out over a process pool, and results
are memoized in a content-addressed on-disk cache (``.cashmere-cache/``
or ``$CASHMERE_CACHE_DIR``; any source change invalidates it).
``--no-cache`` disables the cache entirely; ``--refresh`` re-executes
every cell and rewrites its entries. Parallel and cache-served output is
byte-identical to a serial cold run. Per-experiment wall-clock and a
cache hit/miss summary go to stderr.

``--quick`` restricts Figure 7 to three placements (4:1, 8:4, 32:4) and
the scale ladder to its two smallest rungs.
``--json`` prints machine-readable results instead of monospace tables
(not applicable to ``trace``, whose output is already JSON); for
``all``, the documents are collected into one JSON *array* so the
output is a single valid JSON value.

Every experiment reports simulated time. The simulator's own host cost
is measured by ``benchmarks/e2e/run.py`` (README "Performance").

``lint`` runs the determinism lint (:mod:`repro.lint`) over PATHS
(default: the installed ``repro`` package). Exit code 0 means clean, 1
means findings, 2 means a usage error; see README "Static analysis"
for the rule table.

``trace`` runs one application with event tracing and exports Chrome
``trace_event`` JSON viewable at https://ui.perfetto.dev; ``profile``
prints the derived contention report (hot pages, lock hold/wait times,
barrier imbalance, Memory Channel timeline).

``modelcheck`` explores *every* interleaving of a small fixed workload
(2 nodes x 2 processors x 2 pages) through the real protocol code and
checks coherence invariants at each step (DESIGN.md §12). Default
protocols: 2L and 1LD. Exit 1 on violation, with the minimal
counterexample printed and exported to ``--out`` as a Chrome trace.
``--mutant no-notices`` checks a deliberately broken protocol instead
and exits 0 only if the planted bug is caught.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from .configs import (APP_ORDER, PLACEMENT_ORDER, PROTOCOL_ORDER,
                      QUICK_PLACEMENTS)
from .figure6 import run_figure6
from .figure7 import run_figure7
from .lockfree import run_lockfree_ablation
from .polling import run_polling_ablation
from .sensitivity import run_sensitivity
from .shootdown import run_shootdown_ablation
from .sweep import ResultCache, Sweep, wall_clock
from .table1 import run_table1
from .table2 import format_table2, run_table2
from .table3 import run_table3
from .traceprof import resolve_app_name, run_profile, run_trace_export


def _apps_arg(values: list[str]) -> tuple[str, ...]:
    if not values:
        return APP_ORDER
    return tuple(resolve_app_name(v) for v in values)


def _jsonable(result):
    """Machine-readable form of an experiment result."""
    if dataclasses.is_dataclass(result) and not isinstance(result, type):
        return dataclasses.asdict(result)
    if isinstance(result, list):
        return [_jsonable(r) for r in result]
    return result


def _emit(experiment: str, result, formatted: str, as_json: bool,
          json_docs: list | None = None) -> None:
    if as_json:
        doc = {"experiment": experiment, "data": _jsonable(result)}
        if json_docs is None:
            print(json.dumps(doc, indent=2))
        else:
            # `all --json`: collect and emit one valid JSON array at the
            # end instead of a concatenation of separate documents.
            json_docs.append(doc)
    else:
        print(formatted)


def run_lint(args: argparse.Namespace) -> int:
    """The ``lint`` subcommand: static analysis, exit 0/1/2.

    stdout carries nothing but the (deterministic) report — no timing
    lines, so two runs over the same tree are byte-identical.
    """
    from .. import lint

    paths = args.apps
    if not paths:
        # Default target: the installed simulator package itself.
        paths = [os.path.dirname(os.path.dirname(
            os.path.abspath(lint.__file__)))]
    try:
        result = lint.run(paths, select=args.select)
    except lint.UsageError as exc:
        print(f"cashmere-repro lint: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cashmere-repro lint: error: {exc}", file=sys.stderr)
        return 2
    if args.lint_format == "json":
        print(result.format_json())
    else:
        print(result.format_text())
    return result.exit_code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="cashmere-repro",
        description="Regenerate the Cashmere-2L paper's tables and figures "
                    "on the simulated cluster.")
    parser.add_argument("experiment",
                        choices=["table1", "table2", "table3", "figure6",
                                 "figure7", "shootdown", "lockfree",
                                 "sensitivity", "polling", "scale", "all",
                                 "trace", "profile", "lint",
                                 "modelcheck"])
    parser.add_argument("apps", nargs="*",
                        help="restrict to these applications (required "
                             "single APP for trace/profile; PATHS to "
                             "analyze for lint; protocol names for "
                             "modelcheck)")
    parser.add_argument("--quick", action="store_true",
                        help="reduced placement set for figure7; "
                             "two-rung ladder for scale")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="print machine-readable JSON instead of "
                             "tables")
    parser.add_argument("--out", default="trace.json",
                        help="output path for the trace subcommand")
    parser.add_argument("--protocol", default="2L", choices=PROTOCOL_ORDER,
                        help="protocol for the trace/profile subcommands")
    parser.add_argument("-j", "--jobs", type=int, default=None,
                        metavar="N",
                        help="run independent simulation cells on N "
                             "worker processes (default: serial, or "
                             "$CASHMERE_JOBS); output is byte-identical "
                             "to a serial run")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the on-disk result cache (neither "
                             "read nor written)")
    parser.add_argument("--refresh", action="store_true",
                        help="re-execute every cell and rewrite its "
                             "cache entries (ignore existing ones)")
    parser.add_argument("--budget", type=int, default=100_000, metavar="N",
                        help="modelcheck only: distinct-state budget per "
                             "protocol (exploration is exhaustive when "
                             "under budget)")
    parser.add_argument("--mutant", default=None,
                        choices=["no-notices"],
                        help="modelcheck only: check this deliberately "
                             "broken protocol instead and expect the "
                             "checker to catch it")
    parser.add_argument("--select", default=None, metavar="RULES",
                        help="lint only: restrict to these rule IDs or "
                             "prefixes, comma-separated (e.g. "
                             "'E001,D10' selects E001 and D101-D106)")
    parser.add_argument("--format", default="text",
                        choices=["text", "json"], dest="lint_format",
                        help="lint only: output format")
    # parse_intermixed_args: `lint --select D PATH` has optionals
    # before the nargs='*' positional, which plain parse_args
    # cannot split.
    args = parser.parse_intermixed_args(argv)

    if args.experiment == "lint":
        return run_lint(args)

    start = wall_clock()
    if args.experiment == "modelcheck":
        from .modelcheck import DEFAULT_PROTOCOLS, run_modelcheck
        protocols = tuple(args.apps) if args.apps else DEFAULT_PROTOCOLS
        for name in protocols:
            if name not in PROTOCOL_ORDER:
                raise SystemExit(f"unknown protocol {name!r}; choose from "
                                 f"{list(PROTOCOL_ORDER)}")
        out = args.out if args.out != parser.get_default("out") \
            else "counterexample.json"
        report = run_modelcheck(protocols, budget=args.budget,
                                mutant=args.mutant, out=out)
        if args.as_json:
            print(json.dumps(report.to_json(), indent=2))
        else:
            print(report.format())
        print(f"[{wall_clock() - start:.1f}s wall clock]", file=sys.stderr)
        return 0 if report.ok else 1
    if args.experiment == "scale":
        from .scale import SCALE_APPS, run_scale
        apps = tuple(resolve_app_name(a) for a in args.apps) or SCALE_APPS
        for a in apps:
            if a not in SCALE_APPS:
                raise SystemExit(f"scale supports {list(SCALE_APPS)}; "
                                 f"{a!r} cannot feed 512 processors")
        sweep = Sweep(jobs=args.jobs,
                      cache=None if args.no_cache else ResultCache(
                          mode="refresh" if args.refresh else "on"))
        result = run_scale(apps=apps, quick=args.quick, sweep=sweep)
        _emit("scale", result, result.format(), args.as_json)
        print(f"[{sweep.stats.summary(sweep.cache is not None)}]",
              file=sys.stderr)
        print(f"[{wall_clock() - start:.1f}s wall clock]", file=sys.stderr)
        return 0
    if args.experiment in ("trace", "profile"):
        if len(args.apps) != 1:
            raise SystemExit(
                f"{args.experiment} needs exactly one application, e.g. "
                f"`cashmere-repro {args.experiment} sor`")
        if args.experiment == "trace":
            n = run_trace_export(args.apps[0], args.out, args.protocol)
            print(f"wrote {n} trace events to {args.out} "
                  f"(open at https://ui.perfetto.dev)")
        else:
            profile = run_profile(args.apps[0], args.protocol)
            _emit("profile", profile.to_json(), profile.format(),
                  args.as_json)
        print(f"[{wall_clock() - start:.1f}s wall clock]", file=sys.stderr)
        return 0

    apps = _apps_arg(args.apps)
    placements = QUICK_PLACEMENTS if args.quick else PLACEMENT_ORDER
    todo = [args.experiment] if args.experiment != "all" else [
        "table1", "table2", "table3", "figure6", "figure7", "shootdown",
        "lockfree", "sensitivity", "polling"]
    # One sweep for the whole invocation: `all` shares the cache and the
    # hit/miss counters across experiments (the Table 2 and Figure 7
    # sequential baselines are literally the same cells, for instance).
    sweep = Sweep(jobs=args.jobs,
                  cache=None if args.no_cache else ResultCache(
                      mode="refresh" if args.refresh else "on"))
    json_docs: list | None = [] if args.as_json and len(todo) > 1 else None
    for experiment in todo:
        exp_start = wall_clock()
        if experiment == "table1":
            result = run_table1(sweep=sweep)
            _emit(experiment, result, result.format(), args.as_json,
                  json_docs)
        elif experiment == "table2":
            rows = run_table2(apps, sweep=sweep)
            _emit(experiment, rows, format_table2(rows), args.as_json,
                  json_docs)
        elif experiment == "table3":
            result = run_table3(apps=apps, sweep=sweep)
            _emit(experiment, result, result.format(), args.as_json,
                  json_docs)
        elif experiment == "figure6":
            result = run_figure6(apps=apps, sweep=sweep)
            _emit(experiment, result, result.format(), args.as_json,
                  json_docs)
        elif experiment == "figure7":
            result = run_figure7(apps=apps, placements=placements,
                                 sweep=sweep)
            _emit(experiment, result, result.format(), args.as_json,
                  json_docs)
        elif experiment == "shootdown":
            result = run_shootdown_ablation(sweep=sweep)
            _emit(experiment, result, result.format(), args.as_json,
                  json_docs)
        elif experiment == "lockfree":
            result = run_lockfree_ablation(sweep=sweep)
            _emit(experiment, result, result.format(), args.as_json,
                  json_docs)
        elif experiment == "polling":
            result = run_polling_ablation(
                apps=("Em3d", "Barnes", "Gauss") if not args.apps else apps,
                sweep=sweep)
            _emit(experiment, result, result.format(), args.as_json,
                  json_docs)
        elif experiment == "sensitivity":
            result = run_sensitivity(apps=("Em3d",) if not args.apps
                                     else apps, sweep=sweep)
            _emit(experiment, result, result.format(), args.as_json,
                  json_docs)
        if not args.as_json:
            print()
        print(f"[{experiment}: {wall_clock() - exp_start:.1f}s]",
              file=sys.stderr)
    if json_docs is not None:
        print(json.dumps(json_docs, indent=2))
    print(f"[{sweep.stats.summary(sweep.cache is not None)}]",
          file=sys.stderr)
    print(f"[{wall_clock() - start:.1f}s wall clock]", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
