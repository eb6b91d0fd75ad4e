"""Smoke test of the e2e benchmark harness (not in tier-1 ``testpaths``).

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e_smoke.py

Runs every workload in ``--quick`` mode (1 timed pass of its first 3
cells, plus the profiled pass) and checks the harness's own contract:
every metric BENCHMARK.json names is printed with its unit, and
BENCHMARK.json is what the harness defines.
"""

import importlib.util
import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(HERE, "run.py")

_spec = importlib.util.spec_from_file_location("e2e_run", RUN)
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


def quick(workload: str, *flags: str) -> list[str]:
    done = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--quick", *flags],
        stdout=subprocess.PIPE, text=True, check=True, cwd=ROOT)
    return done.stdout.splitlines()


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_quick_traced_run_prints_every_metric(workload):
    lines = quick(workload, "--trace")
    printed = {}
    for line in lines[:-1]:
        parts = line.split()
        if line.startswith("  ") and len(parts) >= 3:
            printed[parts[0]] = parts[2]
    for name, unit, _ in run.END_TO_END + run.PER_LAYER:
        assert NAME.match(name), name
        assert printed.get(name) == unit, (name, printed.get(name))
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 3
    assert {n: m["unit"] for n, m in result["metrics"].items()} == \
        {n: u for n, u, _ in run.PER_LAYER}
    with open(os.path.join(run.OUT, f"trace_{workload}.json")) as fh:
        trace = json.load(fh)
    assert {"id", "name", "start", "end", "parent"} <= set(trace["spans"][0])


def test_untraced_result_holds_the_end_to_end_metrics():
    result = json.loads(quick("scale", "--trace", "0")[-1])
    assert {n: m["unit"] for n, m in result["metrics"].items()} == \
        {n: u for n, u, _ in run.END_TO_END}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_yardstick_imports_nothing_from_repro():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import yardstick; "
            "bad = [m for m in sys.modules if m.split('.')[0] == 'repro']; "
            "sys.exit(1 if bad else 0)")
    subprocess.run([sys.executable, "-c", code, HERE], check=True,
                   env=run.child_env())


def test_benchmark_json_is_what_the_harness_defines():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        recorded = json.load(fh)
    assert recorded == run.manifest()
    assert len(recorded["per_layer"]) <= 128
    assert max(m["bound"] for m in recorded["end_to_end"]) <= 0.25
