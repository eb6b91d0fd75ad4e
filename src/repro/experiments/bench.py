"""Wall-clock benchmark harness: the repo's performance trajectory.

Unlike every other experiment (which reports *simulated* time), ``bench``
measures how long the simulator itself takes to run — the number the
fast-path work optimizes. Four microbenchmarks plus two full application
runs:

``access``
    Warm-path ``get``/``set``/``get_block``/``set_block`` through a real
    :class:`~repro.runtime.env.WorkerEnv` (no faults after warmup): the
    inline page-access cache's home turf.
``fault_storm``
    Rounds of page faults: every round each processor writes a page it
    has never touched, so every access takes the full protocol path.
``barrier``
    Barrier episodes with no data access: synchronization machinery only.
``directory``
    Directory entry operations (permission updates, sharer scans,
    occupancy) at 8, 64, and 512 owners: the sparse O(sharers) entries'
    per-access cost must stay near-flat in cluster size (the
    ``flatness`` ratio gates CI, see
    :data:`DIRECTORY_FLATNESS_FACTOR`); the dense O(num_owners) form is
    timed once at 512 owners for reference.
``sor32`` / ``water32``
    Full 32-processor (8 nodes x 4) runs under 2L with default problem
    sizes; also reports simulated-us per wall-second (simulator
    throughput).
``sweep_serial`` / ``sweep_parallel`` / ``sweep_warm``
    The sweep engine (:mod:`repro.experiments.sweep`) over a
    figure7-style grid of cells: cold serial, cold on a process pool
    (``jobs = min(2, cores)``; ``cores``, ``jobs``, and the honest
    measured ``speedup`` are recorded — on a single-core host the pool
    degenerates to serial-plus-overhead and the speedup reads < 1),
    and cache-warm (every cell served from a pre-populated
    content-addressed cache, zero simulations).

Methodology: each benchmark is run ``reps`` times after one untimed
warmup with the garbage collector disabled around the timed region, and
the *best* wall time is reported — the minimum is the stable statistic on
a machine with background load. Every benchmark also records the
simulated time it covered (``sim_us``) and the derived simulator
throughput (``sim_us_per_wall_s``); for ``access`` the simulated time is
honestly ~0 — warm accesses charge nothing, that is the point of the
fast path. Results can be written as a ``BENCH_*.json`` and compared
against a committed baseline (``benchmarks/perf/baseline.json``); the
access microbenchmark gates CI at a 2x regression (headroom for runner
speed variance). ``--profile`` additionally runs one rep of each
single-process benchmark under :mod:`cProfile` and reports the top
functions by cumulative time.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import sys
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

from ..config import MachineConfig
from ..apps import make_app
from ..cluster.machine import Cluster
from ..protocol import make_protocol
from ..protocol.directory import GlobalDirectory
from ..vm.page import Perm
from ..runtime.api import fastpath_enabled
from ..runtime.env import WorkerEnv
from ..runtime.program import ParallelRuntime, run_app
from ..sim.process import Charge, ProcessGroup
from ..sync.barrier import Barrier

#: Schema tag written into every BENCH_*.json. Bumped to 2 when the
#: report gained ``fastpath``/``jobs`` environment provenance and the
#: cache-warm sweep's hit/miss counts; bumped to 3 when every
#: microbenchmark gained ``sim_us``/``sim_us_per_wall_s`` and the sweep
#: benches an honest measured ``speedup``. The metrics store
#: (:mod:`repro.metrics.store`) ingests all three.
SCHEMA = "cashmere-bench-3"

#: CI regression gate: fail when the access microbenchmark is more than
#: this factor slower than the committed baseline.
ACCESS_REGRESSION_FACTOR = 2.0

#: Host-independent directory-scaling gate: sparse O(sharers) entries
#: must keep the per-update cost at 512 owners within this factor of
#: the 8-owner cost (measured ≈1x — the sparse form never touches a
#: num_owners-sized structure; the dense form reads ~40x here).
DIRECTORY_FLATNESS_FACTOR = 3.0


def report_stamp() -> str:
    """Wall-time stamp for ``BENCH_*.json`` provenance. Lives here (a
    sanctioned real-time module, see D101) so other report writers —
    e.g. the scale family — never read the clock themselves."""
    return time.strftime("%Y-%m-%dT%H:%M:%S")


@dataclass
class BenchResult:
    """One benchmark's timing."""

    name: str
    wall_s: float               # best rep
    reps: int
    sim_us: float | None = None  # simulated time, for full runs
    #: Free-form provenance (e.g. the sweep benches record jobs/cells).
    extra: dict | None = None

    @property
    def sim_us_per_wall_s(self) -> float | None:
        if self.sim_us is None or self.wall_s <= 0:
            return None
        return self.sim_us / self.wall_s


@dataclass
class BenchReport:
    """All benchmark results plus environment provenance."""

    results: list[BenchResult] = field(default_factory=list)
    quick: bool = False
    baseline: dict | None = None
    baseline_path: str | None = None
    #: ``--profile``: top functions by cumulative time over one rep of
    #: each single-process benchmark (list of row dicts), else None.
    profile: list[dict] | None = None

    def result(self, name: str) -> BenchResult | None:
        for r in self.results:
            if r.name == name:
                return r
        return None

    def to_json(self) -> dict:
        benchmarks = {}
        for r in self.results:
            entry: dict = {"wall_s": r.wall_s, "reps": r.reps}
            if r.sim_us is not None:
                entry["sim_us"] = r.sim_us
                entry["sim_us_per_wall_s"] = r.sim_us_per_wall_s
            if r.extra:
                entry.update(r.extra)
            benchmarks[r.name] = entry
        out = {
            "schema": SCHEMA,
            "timestamp": report_stamp(),
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "platform": platform.platform(),
            "quick": self.quick,
            # Schema 2/3: the environment knobs that change what the
            # timed code actually executes.
            "fastpath": fastpath_enabled(MachineConfig()),
            "jobs": os.environ.get("CASHMERE_JOBS") or None,
            "benchmarks": benchmarks,
        }
        if self.profile is not None:
            out["profile"] = self.profile
        if self.baseline is not None:
            out["baseline"] = self.baseline
            if self.baseline_path:
                out["baseline_path"] = self.baseline_path
            speedups = {}
            base_benches = self.baseline.get("benchmarks", {})
            for r in self.results:
                base = base_benches.get(r.name, {}).get("wall_s")
                if base and r.wall_s > 0:
                    speedups[r.name] = base / r.wall_s
            out["speedup_vs_baseline"] = speedups
        return out

    def format(self) -> str:
        lines = ["Wall-clock benchmarks (best of reps, gc off)",
                 "--------------------------------------------"]
        base_benches = (self.baseline or {}).get("benchmarks", {})
        for r in self.results:
            line = f"{r.name:14s} {r.wall_s * 1e3:9.1f} ms"
            if r.sim_us is not None:
                line += f"  ({r.sim_us_per_wall_s / 1e6:6.2f} sim-s/wall-s)"
            if r.extra:
                line += "  (" + ", ".join(
                    f"{k}={v}" for k, v in r.extra.items()) + ")"
            base = base_benches.get(r.name, {}).get("wall_s")
            if base and r.wall_s > 0:
                line += f"  [{base / r.wall_s:4.2f}x vs baseline]"
            lines.append(line)
        return "\n".join(lines)

    def format_profile(self) -> str:
        rows = self.profile or []
        lines = [f"cProfile, one rep per benchmark — top {len(rows)} by "
                 f"cumulative time",
                 f"{'ncalls':>10s} {'tottime':>9s} {'cumtime':>9s}  function"]
        for row in rows:
            lines.append(f"{row['ncalls']:>10d} {row['tottime_s']:>8.3f}s "
                         f"{row['cumtime_s']:>8.3f}s  {row['function']}")
        return "\n".join(lines)

    def check_regression(self) -> str | None:
        """CI gate: None when healthy, else a failure message."""
        # Host-independent sweep-cache gate: a cache-warm sweep executes
        # zero simulations, so it must beat the cold serial sweep by a
        # wide margin on any machine. 2x is deliberately loose (the real
        # ratio is >10x); tripping it means the cache is not serving.
        warm = self.result("sweep_warm")
        serial = self.result("sweep_serial")
        if warm is not None and serial is not None and \
                warm.wall_s >= 0.5 * serial.wall_s:
            return (f"sweep cache-warm run not faster than cold serial: "
                    f"{warm.wall_s:.4f}s warm vs {serial.wall_s:.4f}s "
                    f"serial (expected < 0.5x) — result cache is not "
                    f"serving hits")
        # Host-independent directory-scaling gate: both owner counts run
        # in the same process, only their ratio gates (measured ≈1x).
        directory = self.result("directory")
        if directory is not None and directory.extra:
            flatness = directory.extra.get("flatness")
            if flatness is not None and \
                    flatness > DIRECTORY_FLATNESS_FACTOR:
                return (f"directory per-access cost not flat in cluster "
                        f"size: 512-owner ops cost {flatness}x the "
                        f"8-owner ops (expected <= "
                        f"{DIRECTORY_FLATNESS_FACTOR}x) — the sparse "
                        f"entries are scanning owner-sized state")
        if self.baseline is None:
            return None
        access = self.result("access")
        base = self.baseline.get("benchmarks", {}).get("access",
                                                       {}).get("wall_s")
        if access is None or not base:
            return None
        if access.wall_s > ACCESS_REGRESSION_FACTOR * base:
            return (f"access microbenchmark regressed: {access.wall_s:.4f}s "
                    f"vs baseline {base:.4f}s "
                    f"(> {ACCESS_REGRESSION_FACTOR}x)")
        return None


def _best_of(fn, reps: int) -> float:
    """Best wall time of ``reps`` calls after one untimed warmup."""
    fn()  # warmup (imports, allocator, caches)
    best = float("inf")
    gc.collect()
    gc.disable()
    try:
        for _ in range(reps):
            t0 = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - t0)
    finally:
        gc.enable()
    return best


# --- microbenchmarks ----------------------------------------------------------


def bench_access(ops: int = 200_000) -> float:
    """Warm get/set/get_block/set_block through a real WorkerEnv.

    Returns the simulated time covered — honestly ~0: after the first
    touch every access is warm, and a warm access charges nothing (that
    is the fast path's contract). The throughput column for this bench
    is therefore meaningless by design; the wall clock is the number.
    """
    app = make_app("SOR")
    params = app.small_params()
    rt = ParallelRuntime(app, params, MachineConfig(nodes=1,
                                                    procs_per_node=1), "2L")
    rt.protocol.end_initialization()
    env = WorkerEnv(rt, rt.cluster.processors[0])
    proc = rt.cluster.processors[0]
    arr = rt.segment.array("red")
    vals = np.arange(16.0)
    # Touch once so the remaining iterations are all warm.
    env.set(arr, 0, 1.0)
    env.get(arr, 0)
    for i in range(ops // 4):
        env.set(arr, i % 64, 1.0)
        env.get(arr, i % 64)
        env.set_block(arr, 0, vals)
        env.get_block(arr, 0, 16)
    return proc.clock


def _directory_ops(num_owners: int, pages: int, ops: int,
                   dense: bool = False) -> None:
    """Exercise the directory entry operations one coherence
    transition performs: permission reads and writes, sharer scans,
    exclusive-holder queries, and the occupancy sweep.

    The op mix touches at most 4 sharers per page regardless of
    ``num_owners`` — the realistic regime (Table 3's applications
    average ~2) where the sparse entries' O(sharers) bound means the
    cost must not grow with the owner count."""
    cfg = MachineConfig(nodes=2, procs_per_node=2, page_bytes=512,
                        shared_bytes=512 * pages)
    directory = GlobalDirectory(cfg, num_owners, dense=dense)
    sharers = min(4, num_owners)
    for i in range(ops):
        entry = directory.entry(i % pages)
        owner = (i * 7) % sharers
        entry.set_perm(owner, Perm.READ if i & 1 else Perm.WRITE)
        entry.perm_of(owner)
        entry.sharers()
        entry.has_other_sharer(owner)
        entry.exclusive_holder()
        if i & 7 == 0:
            entry.set_perm(owner, Perm.INVALID)
    directory.occupancy()


def bench_directory(reps: int, quick: bool = False) -> BenchResult:
    """Directory metadata cost vs cluster size: the sparse-entry bench.

    Runs the same op mix at 8, 64, and 512 owners and reports the
    per-op cost of each; the ``flatness`` ratio (512-owner cost over
    8-owner cost) carries the CI gate — sparse entries never touch a
    ``num_owners``-sized structure on the access path, so the ratio
    must stay near 1 on any host (see
    :data:`DIRECTORY_FLATNESS_FACTOR`). A single dense-form rep at 512
    owners is timed alongside for the report (the O(num_owners)
    reference the sparse form replaces)."""
    pages = 64
    ops = 20_000 if quick else 80_000
    per_op_us = {}
    wall_512 = 0.0
    for owners in (8, 64, 512):
        wall = _best_of(lambda: _directory_ops(owners, pages, ops), reps)
        per_op_us[owners] = wall * 1e6 / ops
        if owners == 512:
            wall_512 = wall
    dense_wall = _best_of(
        lambda: _directory_ops(512, pages, ops, dense=True), 1)
    return BenchResult(
        "directory", wall_512, reps,
        extra={"ops": ops,
               "per_op_us_8": round(per_op_us[8], 4),
               "per_op_us_64": round(per_op_us[64], 4),
               "per_op_us_512": round(per_op_us[512], 4),
               "flatness": round(per_op_us[512] / per_op_us[8], 2),
               "dense_per_op_us_512": round(dense_wall * 1e6 / ops, 4)})


def bench_fault_storm(rounds: int = 12, nodes: int = 2, ppn: int = 2,
                      pages: int = 24) -> float:
    """Every round, every processor writes a page it has never touched.

    Returns the simulated time the storm covered (faults and barriers
    both charge), so the report can state the simulator's throughput on
    an all-cold-path workload."""
    cfg = MachineConfig(nodes=nodes, procs_per_node=ppn, page_bytes=512,
                        shared_bytes=512 * (pages + 1))
    cluster = Cluster(cfg)
    proto = make_protocol("2L", cluster)
    barrier = Barrier(cluster, proto)
    proto.end_initialization()
    nprocs = cluster.num_procs
    wpp = cfg.words_per_page

    def worker(proc):
        def gen():
            rank = proc.global_id
            for rnd in range(rounds):
                page = (rank + rnd * nprocs) % pages
                for off in (0, wpp // 2, wpp - 1):
                    proto.store(proc, page, off, float(rnd + 1))
                    _ = proto.load(proc, page, off)
                yield Charge(1.0, "user")
                yield from barrier.wait(proc)
        return gen()

    group = ProcessGroup(cluster.sim)
    for proc in cluster.processors:
        group.spawn(proc, worker(proc), name=f"storm:p{proc.global_id}")
    group.run()
    return max(proc.clock for proc in cluster.processors)


def bench_barrier(episodes: int = 300, nodes: int = 4, ppn: int = 2) -> float:
    """Barrier episodes with no shared-data access; returns the
    simulated time the episodes covered."""
    cfg = MachineConfig(nodes=nodes, procs_per_node=ppn)
    cluster = Cluster(cfg)
    proto = make_protocol("2L", cluster)
    barrier = Barrier(cluster, proto)
    proto.end_initialization()

    def worker(proc):
        def gen():
            for _ in range(episodes):
                yield Charge(1.0, "user")
                yield from barrier.wait(proc)
        return gen()

    group = ProcessGroup(cluster.sim)
    for proc in cluster.processors:
        group.spawn(proc, worker(proc), name=f"bar:p{proc.global_id}")
    group.run()
    return max(proc.clock for proc in cluster.processors)


def _full_run(app_name: str, small: bool = False) -> float:
    """One full 8x4 run under 2L; returns the simulated time (us)."""
    app = make_app(app_name)
    params = app.small_params() if small else app.default_params()
    config = MachineConfig(nodes=8, procs_per_node=4)
    result = run_app(app, params, config, "2L")
    return result.exec_time_us


def _sweep_specs(quick: bool) -> list:
    """A figure7-style grid of independent cells for the sweep benches."""
    from .configs import experiment_config
    from .sweep import RunSpec
    apps = ("SOR", "Em3d") if quick else ("SOR", "Em3d", "Barnes", "Water")
    protocols = ("2L", "1LD") if quick else ("2L", "2LS", "1LD", "1L")
    placements = ("4:1", "8:4") if quick else ("4:1", "8:4", "32:4")
    return [RunSpec.app_run(a, p, experiment_config(pl))
            for a in apps for p in protocols for pl in placements]


def bench_sweep(quick: bool = False) -> list[BenchResult]:
    """Serial vs process-pool vs cache-warm wall clock over one grid.

    The cold passes are timed once (re-running them cold would mean
    re-simulating the whole grid per rep); the warm pass is best-of-3
    since cache hits are cheap. The pool holds ``min(2, cores)``
    workers — two is enough to show real overlap without oversubscribing
    small CI runners — and the report records ``cores``, ``jobs``, and
    the honest measured ``speedup`` (cold serial wall over cold parallel
    wall): on a single-core host the pool degenerates to serial plus
    fork/IPC overhead and the speedup reads below 1, by design.
    """
    from .sweep import ResultCache, Sweep, run_cells
    specs = _sweep_specs(quick)
    cores = os.cpu_count() or 1
    jobs = min(2, cores)
    extra = {"cells": len(specs), "cores": cores}
    results = []
    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        run_cells(specs, Sweep(jobs=1))
        serial_wall = time.perf_counter() - t0
        results.append(BenchResult("sweep_serial", serial_wall, 1,
                                   extra=dict(extra, jobs=1)))
        t0 = time.perf_counter()
        run_cells(specs, Sweep(jobs=jobs))
        parallel_wall = time.perf_counter() - t0
        results.append(BenchResult(
            "sweep_parallel", parallel_wall, 1,
            extra=dict(extra, jobs=jobs,
                       speedup=round(serial_wall / parallel_wall, 2)
                       if parallel_wall > 0 else None)))
    finally:
        gc.enable()
    with tempfile.TemporaryDirectory() as tmp:
        cache = ResultCache(root=tmp)
        run_cells(specs, Sweep(jobs=1, cache=cache))  # populate
        warm = Sweep(jobs=1, cache=cache)
        wall = _best_of(lambda: run_cells(specs, warm), 3)
        results.append(BenchResult(
            "sweep_warm", wall, 3,
            extra=dict(extra, jobs=1, executed=warm.stats.executed,
                       hits=warm.stats.hits, misses=warm.stats.misses)))
    return results


# --- driver -------------------------------------------------------------------


def load_baseline(path: str) -> dict | None:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def _profile_rows(fns: list, top: int = 15) -> list[dict]:
    """One cProfile rep over ``fns``; rows for the top-N by cumulative
    time (recursive frames like the worker generators report their
    total, as pstats does)."""
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        for fn in fns:
            fn()
    finally:
        profiler.disable()
    stats = pstats.Stats(profiler)
    rows = []
    for (path, line, func), (_cc, nc, tt, ct, _callers) in \
            stats.stats.items():  # type: ignore[attr-defined]
        where = f"{os.path.basename(path)}:{line}({func})" \
            if line else func
        rows.append({"function": where, "ncalls": nc,
                     "tottime_s": round(tt, 6), "cumtime_s": round(ct, 6)})
    rows.sort(key=lambda r: r["cumtime_s"], reverse=True)
    return rows[:top]


def run_bench(quick: bool = False, baseline_path: str | None = None,
              progress=None, profile: bool = False) -> BenchReport:
    """Run the benchmark suite; ``quick`` shrinks reps and problem sizes.

    ``profile`` additionally runs one untimed rep of each
    single-process benchmark under cProfile and attaches the top
    functions by cumulative time to the report.
    """
    report = BenchReport(quick=quick)
    if baseline_path:
        report.baseline = load_baseline(baseline_path)
        report.baseline_path = baseline_path
    reps = 2 if quick else 3

    def note(name):
        if progress is not None:
            progress(name)

    sim_us = [0.0]

    def tracked(fn):
        """Route a microbench's returned simulated time into sim_us."""
        def run():
            sim_us[0] = fn()
        return run

    note("access")
    ops = 50_000 if quick else 200_000
    access_run = tracked(lambda: bench_access(ops))
    report.results.append(BenchResult(
        "access", _best_of(access_run, reps), reps, sim_us=sim_us[0]))

    note("fault_storm")
    rounds = 6 if quick else 12
    storm_run = tracked(lambda: bench_fault_storm(rounds))
    report.results.append(BenchResult(
        "fault_storm", _best_of(storm_run, reps), reps, sim_us=sim_us[0]))

    note("barrier")
    episodes = 100 if quick else 300
    barrier_run = tracked(lambda: bench_barrier(episodes))
    report.results.append(BenchResult(
        "barrier", _best_of(barrier_run, reps), reps, sim_us=sim_us[0]))

    note("directory")
    report.results.append(bench_directory(reps, quick))

    note("sor32")
    sor_run = tracked(lambda: _full_run("SOR", small=quick))
    report.results.append(BenchResult(
        "sor32", _best_of(sor_run, reps), reps, sim_us=sim_us[0]))

    note("water32")
    water_run = tracked(lambda: _full_run("Water", small=quick))
    report.results.append(BenchResult(
        "water32", _best_of(water_run, reps), reps, sim_us=sim_us[0]))

    note("sweep")
    report.results.extend(bench_sweep(quick))

    if profile:
        note("profile")
        report.profile = _profile_rows([
            access_run, storm_run, barrier_run, sor_run, water_run])

    return report
