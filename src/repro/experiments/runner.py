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
    cashmere-repro all     [APP ...] [--quick]
    cashmere-repro trace APP [--out trace.json] [--protocol 2L]
    cashmere-repro profile APP [--protocol 2L]
    cashmere-repro modelcheck [PROTO ...] [--budget N] [--mutant NAME]
                              [--out counterexample.json]

Every sweep experiment is one entry of :data:`EXPERIMENTS`; ``all`` runs
the paper's nine in table order (not ``scale``), then prints the claims
table of :mod:`.claims` over their results and exits 1 if a claim
fails. They share one :class:`~repro.experiments.sweep.Sweep`, so each
distinct simulation cell executes once per invocation; ``-j N`` fans
cells out over N worker processes, and results are memoized in a
content-addressed on-disk cache (``.cashmere-cache/`` or
``$CASHMERE_CACHE_DIR``; any source change invalidates it) that
``--no-cache`` bypasses. Parallel and cache-served output is
byte-identical to a serial cold run. Per-experiment wall-clock and a
hit/miss summary go to stderr; the simulator's own host cost is
measured by ``benchmarks/e2e/run.py``.

``--quick`` restricts Figure 7 to three placements (4:1, 8:4, 32:4) and
the scale ladder to its two smallest rungs. ``--json`` prints
machine-readable results instead of monospace tables (for ``all``, one
JSON array, the claims last). ``trace`` exports one traced run as
Chrome ``trace_event`` JSON (https://ui.perfetto.dev); ``profile``
prints its contention report.

``modelcheck`` explores every interleaving of a 2x2x2 workload through
the real protocol code (DESIGN.md §12), exits 1 on a violation and
exports the minimal counterexample to ``--out``; ``--mutant
no-notices`` exits 0 only if the planted bug is caught.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from typing import Callable

from .configs import PLACEMENT_ORDER, PROTOCOL_ORDER, QUICK_PLACEMENTS
from .figure6 import run_figure6
from .figure7 import run_figure7
from .lockfree import run_lockfree_ablation
from .polling import run_polling_ablation
from .scale import SCALE_APPS, run_scale
from .sensitivity import run_sensitivity
from .shootdown import run_shootdown_ablation
from .sweep import ResultCache, Sweep
from .table1 import run_table1
from .table2 import format_table2, run_table2
from .table3 import run_table3
from .traceprof import resolve_app_name, run_profile, run_trace_export


def _apps(apps: tuple[str, ...]) -> dict:
    """The ``apps`` keyword, passed only when the command line names
    some, so each experiment otherwise keeps its own default set."""
    return {"apps": apps} if apps else {}


def _scale(apps: tuple[str, ...], quick: bool, sweep: Sweep):
    for a in apps:
        if a not in SCALE_APPS:
            raise SystemExit(f"scale supports {list(SCALE_APPS)}; "
                             f"{a!r} cannot feed 512 processors")
    return run_scale(quick=quick, sweep=sweep, **_apps(apps))


#: Every sweep experiment: name -> run(apps, quick, sweep). ``all`` runs
#: every entry but ``scale``, in this order.
EXPERIMENTS: dict[str, Callable[[tuple[str, ...], bool, Sweep], object]] = {
    "table1": lambda apps, quick, sweep: run_table1(sweep=sweep),
    "table2": lambda apps, quick, sweep: run_table2(
        sweep=sweep, **_apps(apps)),
    "table3": lambda apps, quick, sweep: run_table3(
        sweep=sweep, **_apps(apps)),
    "figure6": lambda apps, quick, sweep: run_figure6(
        sweep=sweep, **_apps(apps)),
    "figure7": lambda apps, quick, sweep: run_figure7(
        placements=QUICK_PLACEMENTS if quick else PLACEMENT_ORDER,
        sweep=sweep, **_apps(apps)),
    "shootdown": lambda apps, quick, sweep: run_shootdown_ablation(
        sweep=sweep),
    "lockfree": lambda apps, quick, sweep: run_lockfree_ablation(
        sweep=sweep),
    "sensitivity": lambda apps, quick, sweep: run_sensitivity(
        sweep=sweep, **_apps(apps)),
    "polling": lambda apps, quick, sweep: run_polling_ablation(
        sweep=sweep, **_apps(apps)),
    "scale": _scale,
}

#: What ``all`` runs: the paper's tables, figures and ablations.
PAPER_EXPERIMENTS = tuple(name for name in EXPERIMENTS if name != "scale")


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


def _jobs(text: str) -> int:
    jobs = int(text)
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {jobs}")
    return jobs


def _run_sweep(args: argparse.Namespace) -> int:
    apps = tuple(resolve_app_name(a) for a in args.apps)
    todo = PAPER_EXPERIMENTS if args.experiment == "all" \
        else (args.experiment,)
    sweep = Sweep(jobs=args.jobs,
                  cache=None if args.no_cache else ResultCache())
    json_docs: list | None = [] if args.as_json and len(todo) > 1 else None
    results = {}
    for name in todo:
        exp_start = time.perf_counter()
        result = results[name] = EXPERIMENTS[name](apps, args.quick, sweep)
        formatted = format_table2(result) if name == "table2" \
            else result.format()
        _emit(name, result, formatted, args.as_json, json_docs)
        if not args.as_json:
            print()
        print(f"[{name}: {time.perf_counter() - exp_start:.1f}s]",
              file=sys.stderr)
    failed = False
    if args.experiment == "all":
        from .claims import check, format_claims
        outcomes = check(results, filtered=bool(apps))
        _emit("claims", [o.to_json() for o in outcomes],
              format_claims(outcomes), args.as_json, json_docs)
        failed = any(o.status == "FAIL" for o in outcomes)
    if json_docs is not None:
        print(json.dumps(json_docs, indent=2))
    print(f"[{sweep.stats.summary(sweep.cache is not None)}]",
          file=sys.stderr)
    return 1 if failed else 0


def _run_modelcheck(args: argparse.Namespace) -> int:
    from .modelcheck import DEFAULT_PROTOCOLS, run_modelcheck
    protocols = tuple(args.apps) if args.apps else DEFAULT_PROTOCOLS
    for name in protocols:
        if name not in PROTOCOL_ORDER:
            raise SystemExit(f"unknown protocol {name!r}; choose from "
                             f"{list(PROTOCOL_ORDER)}")
    report = run_modelcheck(protocols, budget=args.budget,
                            mutant=args.mutant,
                            out=args.out or "counterexample.json")
    if args.as_json:
        print(json.dumps(report.to_json(), indent=2))
    else:
        print(report.format())
    return 0 if report.ok else 1


def _run_observed(args: argparse.Namespace) -> int:
    if len(args.apps) != 1:
        raise SystemExit(
            f"{args.experiment} needs exactly one application, e.g. "
            f"`cashmere-repro {args.experiment} sor`")
    if args.experiment == "trace":
        out = args.out or "trace.json"
        n = run_trace_export(args.apps[0], out, args.protocol)
        print(f"wrote {n} trace events to {out} "
              f"(open at https://ui.perfetto.dev)")
    else:
        profile = run_profile(args.apps[0], args.protocol)
        _emit("profile", profile.to_json(), profile.format(), args.as_json)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="cashmere-repro",
        description="Regenerate the Cashmere-2L paper's tables and figures "
                    "on the simulated cluster.")
    parser.add_argument("experiment",
                        choices=[*EXPERIMENTS, "all", "trace", "profile",
                                 "modelcheck"])
    parser.add_argument("apps", nargs="*",
                        help="restrict to these applications (required "
                             "single APP for trace/profile; protocol "
                             "names for modelcheck)")
    parser.add_argument("--quick", action="store_true",
                        help="reduced placement set for figure7; "
                             "two-rung ladder for scale")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="print machine-readable JSON instead of "
                             "tables")
    parser.add_argument("--out", default=None,
                        help="output path for trace (default trace.json) "
                             "and modelcheck (default "
                             "counterexample.json)")
    parser.add_argument("--protocol", default="2L", choices=PROTOCOL_ORDER,
                        help="protocol for the trace/profile subcommands")
    parser.add_argument("-j", "--jobs", type=_jobs, default=1, metavar="N",
                        help="run independent simulation cells on N "
                             "worker processes (default: 1, serial); "
                             "output is byte-identical to a serial run")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the on-disk result cache (neither "
                             "read nor written)")
    parser.add_argument("--budget", type=int, default=100_000, metavar="N",
                        help="modelcheck only: distinct-state budget per "
                             "protocol (exploration is exhaustive when "
                             "under budget)")
    parser.add_argument("--mutant", default=None,
                        choices=["no-notices"],
                        help="modelcheck only: check this deliberately "
                             "broken protocol instead and expect the "
                             "checker to catch it")
    # parse_intermixed_args: `table2 --json Em3d` has an optional
    # between the positionals, which plain parse_args cannot split.
    args = parser.parse_intermixed_args(argv)

    start = time.perf_counter()
    if args.experiment == "modelcheck":
        code = _run_modelcheck(args)
    elif args.experiment in ("trace", "profile"):
        code = _run_observed(args)
    else:
        code = _run_sweep(args)
    print(f"[{time.perf_counter() - start:.1f}s wall clock]",
          file=sys.stderr)
    return code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
