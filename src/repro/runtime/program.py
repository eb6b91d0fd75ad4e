"""The parallel program runner: wires an application to a cluster,
protocol, and synchronization objects, runs it, and collects statistics.

This is the package's main entry point for running workloads::

    from repro import MachineConfig, run_app
    from repro.apps import SOR

    result = run_app(SOR(), SOR().default_params(),
                     MachineConfig(nodes=8, procs_per_node=4),
                     protocol="2L")
    print(result.stats.exec_time_s, result.stats.table3_row())
"""

from __future__ import annotations

from dataclasses import dataclass, replace
import numpy as np

from ..check import attach_checker
from ..cluster.machine import Cluster
from ..config import MachineConfig
from ..errors import ConfigError, SimulationError
from ..protocol import make_protocol
from ..stats.counters import RunStats
from ..sync import Barrier, FlagSet, MCLock
from ..metrics import MetricsCollector, attach_metrics
from ..trace import Tracer, attach_tracer
from .api import SharedSegment
from .env import WorkerEnv
from .sequential import run_sequential
from ..sim.process import ProcessGroup


def _sized_config(app, params: dict, config: MachineConfig) -> MachineConfig:
    """Shrink the shared segment to what the application actually uses,
    so directory and frame structures stay proportional to the data set."""
    probe = replace(config, shared_bytes=1 << 30)
    seg = SharedSegment(probe)
    app.declare(seg, params)
    pages = max(1, seg.pages_used())
    return replace(config, shared_bytes=pages * config.page_bytes)


class ParallelRuntime:
    """One configured parallel execution (cluster + protocol + app)."""

    def __init__(self, app, params: dict, config: MachineConfig,
                 protocol: str = "2L", *, lock_free: bool = True,
                 home_opt: bool = False) -> None:
        self.app = app
        self.params = dict(params)
        self.config = _sized_config(app, params, config)
        self.cluster = Cluster(self.config)
        self.protocol = make_protocol(protocol, self.cluster,
                                      lock_free=lock_free, home_opt=home_opt)
        if getattr(app, "write_double_us", None) is not None and \
                hasattr(self.protocol, "word_double_us"):
            self.protocol.word_double_us = app.write_double_us
        # Each observer has one switch, its config flag, and attaches
        # here — before run() builds the worker environments, so each
        # WorkerEnv sees the final observer configuration when it
        # decides on the fast path and on TLB counting.
        #: Correctness checker (:class:`repro.check.CheckContext`), when
        #: ``config.checking`` is set.
        self.checker = None
        if self.config.checking:
            self.checker = attach_checker(self.cluster, self.protocol)
        #: Event tracer (:class:`repro.trace.Tracer`), when
        #: ``config.tracing`` is set.
        self.trace: Tracer | None = None
        if self.config.tracing:
            self.trace = attach_tracer(self.cluster, self.protocol)
        #: Metrics collector (:class:`repro.metrics.MetricsCollector`),
        #: when ``config.metrics`` is set.
        self.metrics: MetricsCollector | None = None
        if self.config.metrics:
            self.metrics = attach_metrics(self.cluster, self.protocol,
                                          tracer=self.trace)
        self.segment = SharedSegment(self.config)
        app.declare(self.segment, params)
        self.barrier = Barrier(self.cluster, self.protocol)
        self._locks: dict[int, MCLock] = {}
        self._flag_sets: dict[str, FlagSet] = {}
        for name, count in app.flags_needed(params).items():
            self._flag_sets[name] = FlagSet(self.cluster, self.protocol,
                                            name, count)

    # --- synchronization registries -------------------------------------------

    def lock(self, lock_id: int) -> MCLock:
        lock = self._locks.get(lock_id)
        if lock is None:
            lock = MCLock(self.cluster, self.protocol, lock_id)
            self._locks[lock_id] = lock
        return lock

    def flags(self, name: str) -> FlagSet:
        try:
            return self._flag_sets[name]
        except KeyError:
            raise ConfigError(
                f"flag set {name!r} not declared by "
                f"{self.app.name}.flags_needed()") from None

    # --- execution ----------------------------------------------------------------

    def run(self) -> "RunResult":
        group = ProcessGroup(self.cluster.sim)
        for proc in self.cluster.processors:
            env = WorkerEnv(self, proc)
            group.spawn(proc, self.app.worker(env, self.params),
                        name=f"{self.app.name}:p{proc.global_id}")
        group.run()
        for lock_id in self._locks:
            holder = self._locks[lock_id]._holder
            if holder is not None:
                raise SimulationError(
                    f"lock {lock_id} still held by processor {holder} "
                    f"after every worker finished")
        if self.checker is not None:
            # End-of-run oracle sweep; raises DataRaceError if the app
            # raced or CoherenceViolation if the protocol served bad data.
            self.checker.finalize()
        exec_time = self.cluster.max_clock()
        stats = RunStats.collect([p.stats for p in self.cluster.processors],
                                 exec_time, self.cluster.mc.traffic)
        # The Table 3 "Barriers" row counts barrier episodes, not crossings.
        stats.aggregate.counters["barriers"] = self.barrier.episodes
        if self.trace is not None:
            self.trace.finalize(
                app=self.app.name, protocol=self.protocol.name,
                exec_time_us=exec_time, nodes=self.config.nodes,
                procs_per_node=self.config.procs_per_node)
        if self.metrics is not None:
            self.metrics.finalize(
                exec_time, app=self.app.name, protocol=self.protocol.name,
                nodes=self.config.nodes,
                procs_per_node=self.config.procs_per_node)
        return RunResult(self, stats, trace=self.trace, metrics=self.metrics)

    # --- result extraction ------------------------------------------------------------

    def read_word(self, word: int) -> float:
        page = word >> self.config.page_shift - 3
        offset = word & self.config.words_per_page - 1
        return self._authoritative_frame(page)[offset]

    def read_array(self, name: str) -> np.ndarray:
        """Gather the authoritative final contents of a shared array."""
        arr = self.segment.array(name)
        wpp = self.config.words_per_page
        out = np.empty(arr.length, dtype=np.float64)
        pos = 0
        w = arr.base
        end = arr.base + arr.length
        while w < end:
            page = w // wpp
            off = w % wpp
            take = min(wpp - off, end - w)
            out[pos:pos + take] = self._authoritative_frame(page)[
                off:off + take]
            pos += take
            w += take
        return out

    def _authoritative_frame(self, page: int) -> np.ndarray:
        """The freshest copy of a page: the exclusive holder's frame if one
        exists, otherwise the home master."""
        entry = self.protocol.directory.entry(page)
        holder = entry.exclusive_holder()
        if holder is not None:
            return self.protocol.frames.frame(holder[0], page)
        return self.protocol.master(page)


@dataclass
class RunResult:
    """Outcome of one parallel execution."""

    runtime: ParallelRuntime
    stats: RunStats
    #: The event trace of this run (None unless tracing was enabled).
    trace: Tracer | None = None
    #: Sampled metric series (None unless metrics were enabled).
    metrics: MetricsCollector | None = None

    def array(self, name: str) -> np.ndarray:
        return self.runtime.read_array(name)

    @property
    def exec_time_us(self) -> float:
        return self.stats.exec_time_us


def run_app(app, params: dict, config: MachineConfig,
            protocol: str = "2L", *, lock_free: bool = True,
            home_opt: bool = False) -> RunResult:
    """Build and run one parallel execution; the main convenience API."""
    runtime = ParallelRuntime(app, params, config, protocol,
                              lock_free=lock_free, home_opt=home_opt)
    return runtime.run()


@dataclass
class ComparisonResult:
    """A parallel run checked against (and timed against) sequential."""

    run: RunResult
    seq_time_us: float
    speedup: float
    verified: bool
    max_error: float


def run_and_verify(app, params: dict, config: MachineConfig,
                   protocol: str = "2L", *, lock_free: bool = True,
                   home_opt: bool = False,
                   rtol: float = 1e-8, atol: float = 1e-8) -> ComparisonResult:
    """Run sequentially and in parallel; verify results match; compute speedup.

    The parallel run's final shared data must equal the sequential run's
    (up to floating-point reassociation tolerated by ``rtol/atol``) — the
    protocols genuinely move the data, so this is the end-to-end coherence
    correctness check.
    """
    seq_env, seq_time = run_sequential(app, params, config)
    result = run_app(app, params, config, protocol,
                     lock_free=lock_free, home_opt=home_opt)
    verified = True
    max_error = 0.0
    for name in app.result_arrays(params):
        expected = seq_env.mem[seq_env.arr(name).base:
                               seq_env.arr(name).base
                               + seq_env.arr(name).length]
        actual = result.array(name)
        if not app.results_equal(name, expected, actual, rtol, atol):
            verified = False
        err = app.result_error(name, expected, actual)
        max_error = max(max_error, err)
    speedup = seq_time / result.exec_time_us if result.exec_time_us else 0.0
    return ComparisonResult(run=result, seq_time_us=seq_time,
                            speedup=speedup, verified=verified,
                            max_error=max_error)
