"""Simulated processes: generator coroutines driven by the event queue.

A simulated processor executes a Python generator. The generator performs
*real* work (reads and writes real memory through the DSM runtime) and
yields instructions whenever simulated time must pass or the processor
must block:

``Compute(cpu_us, mem_bytes)``
    A block of application computation: charges CPU time plus memory-bus
    service (with contention from other processors on the node), plus one
    polling check — the instrumentation's loop back-edge. The requests
    that polling finds are priced where they are sent
    (:meth:`~repro.protocol.messages.RequestEngine.fetch_page` books the
    poll delay and the target node's service timeline), not here.

``Sleep(us, bucket)``
    Delay without bus usage (e.g. lock backoff).

``Wait(condition, predicate, bucket)``
    Park until ``condition`` fires and ``predicate()`` is truthy; the
    predicate's value is sent back into the generator.

Protocol handlers themselves are plain functions that run atomically at a
point in simulated time, charging measured costs; only synchronization
blocks via ``Wait``.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappush
from typing import Any, Callable, Generator, Sequence

from ..errors import DeadlockError, SimulationError
from .engine import Condition, Simulator

#: Buckets for the Figure-6 execution time breakdown.
TIME_BUCKETS = ("user", "protocol", "polling", "comm_wait", "write_double")

SimGen = Generator[Any, Any, Any]


@dataclass(frozen=True)
class Compute:
    """A block of application computation (see module docstring)."""

    cpu_us: float
    mem_bytes: float = 0.0

    def __post_init__(self) -> None:
        if self.cpu_us < 0 or self.mem_bytes < 0:
            raise SimulationError("negative compute cost")


@dataclass(frozen=True)
class Sleep:
    """Delay (no bus, no poll charge); used for backoff loops."""

    us: float
    bucket: str = "comm_wait"


@dataclass
class Wait:
    """Block until ``predicate()`` is truthy after ``conditions`` fire."""

    conditions: Sequence[Condition]
    predicate: Callable[[], Any]
    bucket: str = "comm_wait"

    def __init__(self, conditions: Condition | Sequence[Condition],
                 predicate: Callable[[], Any],
                 bucket: str = "comm_wait") -> None:
        if isinstance(conditions, Condition):
            conditions = (conditions,)
        self.conditions = tuple(conditions)
        self.predicate = predicate
        self.bucket = bucket


class ExecutionContext:
    """What a :class:`SimProcess` needs from its processor.

    The cluster layer's ``Processor`` subclasses this; the simulation layer
    depends only on this narrow interface.
    """

    clock: float = 0.0
    #: Optional event tracer (:class:`repro.trace.Tracer`); the cluster
    #: layer's ``Processor`` carries the shared instance when tracing is
    #: enabled, plain contexts leave it ``None``.
    trace = None

    def charge(self, us: float, bucket: str) -> None:
        """Advance the local clock, accounting ``us`` to ``bucket``."""
        raise NotImplementedError

    def run_compute(self, cpu_us: float, mem_bytes: float) -> None:
        """Charge a compute block, including memory-bus contention."""
        raise NotImplementedError


class SimProcess:
    """Drives one generator on one execution context."""

    def __init__(self, sim: Simulator, ctx: ExecutionContext, gen: SimGen,
                 name: str = "") -> None:
        self.sim = sim
        self.ctx = ctx
        self.gen = gen
        self.name = name or repr(gen)
        self.done = False
        self.failed: BaseException | None = None
        self.result: Any = None
        self._parked_on: tuple[Condition, ...] = ()
        self._wait: Wait | None = None
        #: Sim time at which the current Wait began blocking (for trace
        #: spans and deadlock reports).
        self._wait_since = 0.0
        self._registry: "ProcessGroup | None" = None
        # One stable bound-method object: park/unpark match by identity,
        # and ``self._wake`` would create a fresh object on every access.
        self._wake_cb = self._wake
        # Prebound plain-resume callback: scheduled after every Compute
        # and Sleep, so avoid allocating a fresh closure each time.
        self._resume_cb = self._resume

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        self.sim.schedule(self.ctx.clock, self._resume_cb)

    @property
    def parked(self) -> bool:
        return bool(self._parked_on)

    # -- stepping ----------------------------------------------------------

    def _resume(self) -> None:
        self._step(None)

    def _step(self, send_value: Any) -> None:
        """Resume the generator, then dispatch its next instruction."""
        if self.done:
            return
        try:
            instr = self.gen.send(send_value)
        except StopIteration as stop:
            self._finish(stop.value)
            return
        except BaseException as exc:
            self.done = True
            self.failed = exc
            if self._registry is not None:
                self._registry.on_failure(self, exc)
            return
        self._dispatch(instr)

    def _dispatch(self, instr: Any) -> None:
        # The resume push is Simulator.schedule inlined: _dispatch runs at
        # the processor's own event, so ctx.clock >= sim.now always holds
        # and the past-check / max() are dead weight on the hottest path.
        # (``type is`` first: Compute dominates, and the exact-type check
        # is cheaper than isinstance; subclasses still hit the
        # isinstance chain below.)
        if type(instr) is Compute or isinstance(instr, Compute):
            self.ctx.run_compute(instr.cpu_us, instr.mem_bytes)
            sim = self.sim
            sim._seq += 1
            heappush(sim._queue, (self.ctx.clock, sim._seq, self._resume_cb))
        elif isinstance(instr, Sleep):
            self.ctx.charge(instr.us, instr.bucket)
            sim = self.sim
            sim._seq += 1
            heappush(sim._queue, (self.ctx.clock, sim._seq, self._resume_cb))
        elif isinstance(instr, Wait):
            self._begin_wait(instr)
        else:
            self.done = True
            err = SimulationError(
                f"process {self.name} yielded unknown instruction {instr!r}")
            self.failed = err
            if self._registry is not None:
                self._registry.on_failure(self, err)

    # -- waiting -----------------------------------------------------------

    def _begin_wait(self, wait: Wait) -> None:
        value = wait.predicate()
        if value:
            self.sim.schedule(self.ctx.clock, lambda: self._step(value))
            return
        if self._wait is not wait:
            self._wait_since = self.ctx.clock
        self._wait = wait
        self._parked_on = wait.conditions
        for cond in wait.conditions:
            cond.park(self.ctx.clock, self._wake_cb)

    def _wake(self, at: float) -> None:
        if self.done or self._wait is None:
            return
        wait = self._wait
        if at > self.ctx.clock:
            self.ctx.charge(at - self.ctx.clock, wait.bucket)
            # Snap exactly to the wake time: accumulating the delta can
            # land a hair *below* ``at`` in floating point, which would
            # make a visibility predicate miss the very write that woke us.
            self.ctx.clock = max(self.ctx.clock, at)
        value = wait.predicate()
        if not value:
            # Spurious wakeup: stay parked. Conditions keep waiters
            # registered until an explicit unpark, so the next fire still
            # reaches us — no unpark/re-park churn per predicate miss.
            # (The stored park clock may now lag ``ctx.clock``; a fire
            # uses it only to *lower-bound* the wake time, and a wake at
            # ``at <= clock`` charges nothing, so timing is unaffected.)
            return
        for cond in self._parked_on:
            cond.unpark(self._wake_cb)
        self._parked_on = ()
        self._wait = None
        trace = self.ctx.trace
        if trace is not None:
            conds = ",".join(c.name or "?" for c in wait.conditions)
            trace.span("wait", self.ctx, self._wait_since,
                       self.ctx.clock - self._wait_since, obj=conds,
                       bucket=wait.bucket)
        self._step(value)

    def _finish(self, result: Any) -> None:
        self.done = True
        self.result = result
        if self._registry is not None:
            self._registry.on_completion(self)


#: Blocked processes listed individually in a deadlock report before the
#: remainder is summarized.
_DEADLOCK_DETAIL_LIMIT = 16


def _describe_blocked(procs: Sequence["SimProcess"]) -> str:
    """One line per blocked process: what it waits on, since when."""
    lines = []
    for p in procs[:_DEADLOCK_DETAIL_LIMIT]:
        wait = p._wait
        if wait is None:
            lines.append(f"  - {p.name}: not parked "
                         f"(clock {p.ctx.clock:.1f} us)")
            continue
        conds = ", ".join(c.name or "<unnamed>" for c in wait.conditions)
        lines.append(
            f"  - {p.name}: waiting on [{conds}] "
            f"since t={p._wait_since:.1f} us "
            f"(bucket {wait.bucket}, clock {p.ctx.clock:.1f} us)")
    if len(procs) > _DEADLOCK_DETAIL_LIMIT:
        lines.append(f"  ... and {len(procs) - _DEADLOCK_DETAIL_LIMIT} "
                     f"more blocked process(es)")
    return "\n".join(lines)


class ProcessGroup:
    """A set of processes run to completion together.

    Provides deadlock detection (all processes parked, no pending events)
    and immediate propagation of the first process failure.
    """

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.processes: list[SimProcess] = []
        self._failure: BaseException | None = None
        sim.idle_check = self._idle_check

    def spawn(self, ctx: ExecutionContext, gen: SimGen, name: str = "") -> SimProcess:
        proc = SimProcess(self.sim, ctx, gen, name)
        proc._registry = self
        self.processes.append(proc)
        proc.start()
        return proc

    def on_completion(self, proc: SimProcess) -> None:
        pass

    def on_failure(self, proc: SimProcess, exc: BaseException) -> None:
        if self._failure is None:
            self._failure = exc

    def run(self) -> float:
        """Run until every process completes; returns the final time."""
        end = self.sim.run()
        if self._failure is not None:
            raise self._failure
        remaining = [p for p in self.processes if not p.done]
        if remaining:
            raise DeadlockError(
                f"deadlock: {len(remaining)} process(es) never completed:\n"
                + _describe_blocked(remaining))
        return end

    def _idle_check(self) -> None:
        if self._failure is not None:
            return
        parked = [p for p in self.processes if not p.done and p.parked]
        alive = [p for p in self.processes if not p.done]
        if alive and len(parked) == len(alive):
            raise DeadlockError(
                f"simulation deadlock: {len(parked)} process(es) parked "
                f"with no pending events:\n" + _describe_blocked(parked))


__all__ = [
    "Compute", "Sleep", "Wait",
    "ExecutionContext", "SimProcess", "ProcessGroup",
    "TIME_BUCKETS",
]
