"""Smoke test for the wall-clock bench harness (not a timing assertion).

Runs the quick suite once and checks the report's shape: every benchmark
present, positive wall times, simulator throughput reported for the full
runs, and the baseline comparison/regression gate wired up. Wall-clock
*values* are never asserted — CI machines are too variable — except
through the deliberately loose access gate exercised here with a
synthetic baseline.
"""

import json
import os

from repro.experiments.bench import (ACCESS_REGRESSION_FACTOR, BenchReport,
                                     BenchResult, run_bench)

_BASELINE = os.path.join(os.path.dirname(__file__), "baseline.json")

EXPECTED = {"access", "fault_storm", "barrier", "directory", "sor32",
            "water32", "sweep_serial", "sweep_parallel", "sweep_warm"}


def test_quick_bench_report_shape():
    report = run_bench(quick=True, baseline_path=_BASELINE)
    data = report.to_json()
    assert data["schema"] == "cashmere-bench-3"
    assert data["quick"] is True
    assert isinstance(data["fastpath"], bool)
    assert "jobs" in data
    assert set(data["benchmarks"]) == EXPECTED
    for name, entry in data["benchmarks"].items():
        assert entry["wall_s"] > 0, name
    for full in ("sor32", "water32", "fault_storm", "barrier"):
        assert data["benchmarks"][full]["sim_us"] > 0
        assert data["benchmarks"][full]["sim_us_per_wall_s"] > 0
    # The access microbench is all-warm: warm accesses charge nothing,
    # so its simulated time is honestly tiny — just the handful of cold
    # faults that warmed the pages up, orders of magnitude under the
    # other benches.
    assert 0 < data["benchmarks"]["access"]["sim_us"] < 1000.0
    # Honest sweep provenance: two-worker pool, measured speedup.
    par = data["benchmarks"]["sweep_parallel"]
    assert par["jobs"] == min(2, par["cores"])
    assert par["speedup"] > 0
    # The cache-warm sweep ran zero simulations (all cells cached) and
    # is far cheaper than the cold serial sweep.
    assert data["benchmarks"]["sweep_warm"]["executed"] == 0
    assert data["benchmarks"]["sweep_warm"]["misses"] == 0
    assert data["benchmarks"]["sweep_warm"]["hits"] > 0
    assert data["benchmarks"]["sweep_warm"]["wall_s"] < \
        0.5 * data["benchmarks"]["sweep_serial"]["wall_s"]
    # Baseline loaded and compared.
    assert data["baseline"]["schema"] == "cashmere-bench-1"
    assert set(data["speedup_vs_baseline"]) <= EXPECTED
    assert json.dumps(data)  # serializable


def test_regression_gate_fires_on_synthetic_baseline():
    report = BenchReport(results=[BenchResult("access", wall_s=1.0, reps=1)],
                         baseline={"benchmarks": {"access": {"wall_s": 0.1}}})
    message = report.check_regression()
    assert message is not None and "regressed" in message

    healthy = BenchReport(
        results=[BenchResult("access", wall_s=0.1, reps=1)],
        baseline={"benchmarks": {
            "access": {"wall_s": 0.1 / ACCESS_REGRESSION_FACTOR * 2.0}}})
    assert healthy.check_regression() is None


def test_profile_rows_report_hot_functions():
    from repro.experiments.bench import _profile_rows, bench_barrier
    rows = _profile_rows([lambda: bench_barrier(episodes=5)], top=10)
    assert 0 < len(rows) <= 10
    for row in rows:
        assert row["ncalls"] >= 1
        assert row["cumtime_s"] >= row["tottime_s"] >= 0
    # Sorted by cumulative time, and the simulator shows up hot.
    cums = [r["cumtime_s"] for r in rows]
    assert cums == sorted(cums, reverse=True)


def test_sweep_warm_gate_fires_when_cache_not_serving():
    stale = BenchReport(results=[
        BenchResult("sweep_serial", wall_s=1.0, reps=1),
        BenchResult("sweep_warm", wall_s=0.9, reps=3)])
    message = stale.check_regression()
    assert message is not None and "cache" in message

    healthy = BenchReport(results=[
        BenchResult("sweep_serial", wall_s=1.0, reps=1),
        BenchResult("sweep_warm", wall_s=0.01, reps=3)])
    assert healthy.check_regression() is None
