"""Exact-count gate over the end-to-end benchmark.

    python benchmarks/counts.py            # compare with counts.json
    python benchmarks/counts.py --write    # re-pin counts.json

Runs ``benchmarks/e2e/run.py --workload W --trace`` for every workload,
``--quick`` except for ``accesspath`` (see ``FULL``), and reads the
contract JSON on the last line of its stdout.
Exits 1 if a ``src/repro`` layer's ``calls`` or ``entries`` rose above
the baseline, or if a modelled count, ``sim.events`` or
``sim.sim_time_us`` differs from it. These are exact functions of the
source and the cells, so the gate holds them at +0 on any host. Self
times, shares and the ``host`` layer (builtins, numpy, the standard
library) are host measurements and are not gated.

Call counts also depend on the interpreter: Python 3.12 inlines
comprehensions (PEP 709). The baseline records the Python version it
was pinned with, and the script exits 2 under any other.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "e2e", "run.py")
BASELINE = os.path.join(HERE, "counts.json")
WORKLOADS = ("coherence32", "accesspath", "scale", "observed32")
#: Workloads measured with every cell: ``--quick`` keeps the first three,
#: which for ``accesspath`` are sequential baselines that never build a
#: ``WorkerEnv``, so the gate would not see the parallel access path.
FULL = ("accesspath",)

#: Counts that may fall freely but must not rise (a drop is re-pinned).
CEILING = (".calls", ".entries")


def python_version() -> str:
    return "%d.%d" % sys.version_info[:2]


def gated(name: str, unit: str) -> bool:
    if name.startswith("host."):
        return False
    return unit in ("count", "bytes") or name == "sim.sim_time_us"


def measure(workload: str) -> dict:
    cmd = [sys.executable, RUN, "--workload", workload, "--trace"]
    if workload not in FULL:
        cmd.append("--quick")
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if not done.stdout.strip():
        raise SystemExit(f"{workload}: run.py printed nothing "
                         f"(exit {done.returncode})")
    contract = json.loads(done.stdout.splitlines()[-1])
    if contract["failed"]:
        raise SystemExit(f"{workload}: {contract['failed']} cells failed")
    return {name: m["value"] for name, m in contract["metrics"].items()
            if gated(name, m["unit"])}


def compare(workload: str, base: dict, now: dict) -> list[str]:
    problems = []
    for name in sorted(base.keys() | now.keys()):
        old, new = base.get(name), now.get(name)
        if old is None or new is None:
            problems.append(f"{workload} {name}: {old} -> {new}")
        elif name.endswith(CEILING) and new < old:
            print(f"  {workload} {name}: {old} -> {new} (fell; re-pin "
                  f"with --write)")
        elif new != old:
            problems.append(f"{workload} {name}: {old} -> {new}")
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--write", action="store_true",
                    help="measure and overwrite the baseline")
    args = ap.parse_args(argv)
    if args.write:
        doc = {"python": python_version(),
               "workloads": {w: measure(w) for w in WORKLOADS}}
        with open(BASELINE, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {BASELINE}")
        return 0
    with open(BASELINE) as fh:
        doc = json.load(fh)
    if doc["python"] != python_version():
        print(f"baseline pinned under Python {doc['python']}, running "
              f"Python {python_version()}: call counts differ across "
              f"versions", file=sys.stderr)
        return 2
    problems = []
    for workload in WORKLOADS:
        now = measure(workload)
        problems += compare(workload, doc["workloads"][workload], now)
        print(f"{workload}: {len(now)} counts checked")
    for line in problems:
        print(f"  COUNT CHANGED {line}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
