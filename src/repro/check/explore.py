"""Exhaustive small-config protocol model checking (DESIGN.md §12).

The simulator is deterministic, so a single application run exercises a
single interleaving of protocol actions. This module explores *all* of
them for small configurations: each simulated processor runs a short
straight-line script of shared-memory and lock operations, and a
breadth-first search enumerates every schedule (every order in which the
per-processor scripts can advance), executing the **real protocol code**
— the same :class:`~repro.protocol.base.BaseProtocol` subclasses the
applications run on — at every step.

This is sound because protocol operations execute atomically in the
simulation: a load, store, acquire, or release runs to completion
(including its explicit requests, which are computed synchronously by
:class:`~repro.protocol.messages.RequestEngine`) before the next
operation starts. The schedule of these atomic steps is therefore the
only source of nondeterminism, and enumerating it covers every behavior
the simulator can produce for the given scripts.

Checked at every step, via the same machinery application runs use:

* **structural invariants** — the ``always`` rows of
  :mod:`repro.protocol.invariants`;
* **no stale reads** — every ``load`` flows through an attached
  :class:`~repro.check.CheckContext`, whose coherence oracle compares
  the value read against the golden image (release consistency's
  contract for data-race-free programs);
* **quiescent state** — when every script has finished, the oracle's
  global check: every row of the table, and every page's authoritative
  copy against the golden image, word for word.

States are deduplicated: two schedules that reach the same protocol
state (same per-processor progress, same directory / page tables /
frames / notice boards / golden image / clocks) share their future, so
only one is expanded. Breadth-first order makes the first violating
schedule a *minimal* counterexample — no shorter schedule violates.

A counterexample is raised as
:class:`~repro.errors.InvariantViolation`, carrying the schedule (which
processor moved at each step) and the decoded operation trace; it
replays exactly via :meth:`ModelChecker.replay`, and
:meth:`ModelChecker.export_counterexample` renders it through the
Chrome trace exporter for timeline inspection.
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from ..cluster.machine import Cluster, Processor
from ..config import MachineConfig
from ..errors import (CashmereError, CoherenceViolation, InvariantViolation,
                      ProtocolError)
from ..protocol import invariants, make_protocol
from ..protocol.cashmere2l import Cashmere2L
from .context import attach_checker

#: An operation is a plain tuple, first element the opcode:
#:   ("acquire", lock_id)
#:   ("release", lock_id)
#:   ("load", page, offset)
#:   ("store", page, offset, value)
Op = tuple

#: Epsilon added to a release's visibility so an acquirer's clock is
#: strictly past it (mirrors the loop-back wait of ``MCLock``).
_EPS = 1e-6


def default_scripts() -> list[list[Op]]:
    """The standard 2-node x 2-proc x 2-page exploration workload.

    Script *i* runs on processor *i* (processors 0,1 on node 0 and 2,3
    on node 1). With one page per superpage, page 0 homes on owner 0 and
    page 1 on owner 1, so the set exercises, across schedules: home-node
    writes, remote fetches, write notices and acquire-side invalidation
    (processor 2 re-reads page 0 after processor 0's update), exclusive-
    mode entry (processor 1 is page 1's sole writer) and the exclusive
    break (processor 3, on page 1's home, reads it back). Every access
    is lock-ordered, so the scripts are data-race-free and the coherence
    oracle's stale-read check applies to every load.
    """
    return [
        # proc 0 (node 0): writes page 0 under lock 0.
        [("acquire", 0), ("store", 0, 0, 1.0), ("release", 0)],
        # proc 1 (node 0): sole writer of (remote-homed) page 1.
        [("acquire", 1), ("store", 1, 0, 3.0), ("release", 1)],
        # proc 2 (node 1): reads page 0 before and after proc 0's write —
        # the second read is the one a lost invalidation makes stale.
        [("acquire", 0), ("load", 0, 0), ("release", 0),
         ("acquire", 0), ("load", 0, 0), ("release", 0)],
        # proc 3 (node 1, page 1's home): reads page 1 back, forcing the
        # exclusive break when proc 1 went exclusive first.
        [("acquire", 1), ("load", 1, 0), ("release", 1)],
    ]


def small_config(*, nodes: int = 2, procs_per_node: int = 2,
                 page_bytes: int = 64, num_pages: int = 2) -> MachineConfig:
    """A model-checking machine: tiny pages, one page per superpage."""
    return MachineConfig(nodes=nodes, procs_per_node=procs_per_node,
                         page_bytes=page_bytes,
                         shared_bytes=page_bytes * num_pages,
                         superpage_pages=1)


class MutantNoNotices(Cashmere2L):
    """A deliberately broken 2L: releases never send write notices.

    Other nodes' cached copies are never invalidated, so a re-read after
    a remote update returns stale data — the canonical protocol bug the
    model checker must catch (and catch with a minimal schedule).
    """

    name = "2L-mutant"

    def _post_write_notices(self, proc, from_owner, page, dests) -> None:
        pass  # the bug: sharers never hear about the update


#: Named mutant factories for the CLI and tests.
MUTANTS: dict[str, Callable[[Cluster], object]] = {
    "no-notices": lambda cluster: MutantNoNotices(cluster),
}


@dataclass
class Counterexample:
    """A violating schedule, decoded for humans and for replay."""

    schedule: tuple[int, ...]
    #: (step index, processor id, op tuple) for every step.
    steps: tuple[tuple[int, int, Op], ...]
    error: CashmereError

    def describe(self) -> str:
        lines = [f"violation after {len(self.schedule)} steps: {self.error}"]
        for i, proc, op in self.steps:
            lines.append(f"  step {i}: proc {proc}: {op}")
        return "\n".join(lines)


@dataclass
class ExplorationResult:
    """Outcome of one exhaustive exploration."""

    #: Distinct states expanded (BFS nodes).
    states: int = 0
    #: Prefix replays executed (work measure).
    replays: int = 0
    #: Schedules that ran every script to completion.
    complete_schedules: int = 0
    #: Length of the longest schedule expanded.
    max_depth_seen: int = 0
    #: True when the frontier drained without hitting a budget:
    #: every reachable schedule (modulo state dedup) was covered.
    exhaustive: bool = False
    counterexample: Counterexample | None = None

    @property
    def ok(self) -> bool:
        return self.counterexample is None

    def summary(self) -> dict:
        return {
            "states": self.states,
            "replays": self.replays,
            "complete_schedules": self.complete_schedules,
            "max_depth_seen": self.max_depth_seen,
            "exhaustive": self.exhaustive,
            "ok": self.ok,
            "counterexample": (None if self.counterexample is None
                               else self.counterexample.describe()),
        }


class _Lock:
    """The explorer's lock: the logical core of ``MCLock``.

    Mutual exclusion plus the release-visibility rule: an acquirer's
    clock advances past the releaser's release (release consistency's
    happens-before edge), so write notices posted by the release are
    visible to the acquire-side collection, exactly as the loop-back
    wait guarantees in the full simulation.
    """

    __slots__ = ("holder", "free_visible_at")

    def __init__(self) -> None:
        self.holder: int | None = None
        self.free_visible_at = 0.0


class _World:
    """One fresh protocol instance plus script progress."""

    def __init__(self, config: MachineConfig, scripts: list[list[Op]],
                 protocol: str | Callable[[Cluster], object]) -> None:
        self.cluster = Cluster(config)
        if callable(protocol):
            self.protocol = protocol(self.cluster)
        else:
            self.protocol = make_protocol(protocol, self.cluster)
        self.checker = attach_checker(self.cluster, self.protocol)
        self.scripts = scripts
        self.progress = [0] * len(scripts)
        self.lengths = [len(script) for script in scripts]
        self.locks: dict[int, _Lock] = {}
        self.mc_latency = config.costs.mc_latency

    def _lock(self, lock_id: int) -> _Lock:
        lock = self.locks.get(lock_id)
        if lock is None:
            lock = self.locks[lock_id] = _Lock()
        return lock

    def proc(self, idx: int) -> Processor:
        return self.cluster.processors[idx]

    def done(self, idx: int) -> bool:
        return self.progress[idx] >= self.lengths[idx]

    def all_done(self) -> bool:
        return self.progress == self.lengths

    def enabled(self) -> list[int]:
        """Script indices whose next op can run now."""
        runnable = []
        for i in range(len(self.scripts)):
            if self.done(i):
                continue
            op = self.scripts[i][self.progress[i]]
            if op[0] == "acquire" and self._lock(op[1]).holder is not None:
                continue
            runnable.append(i)
        return runnable

    def step(self, idx: int, check: bool = True) -> None:
        """Run script ``idx``'s next op through the real protocol; with
        ``check``, test the structural invariants after it."""
        op = self.scripts[idx][self.progress[idx]]
        proc = self.proc(idx)
        proto = self.protocol
        kind = op[0]
        if kind == "acquire":
            lock = self._lock(op[1])
            if lock.holder is not None:
                raise ProtocolError(
                    f"schedule error: proc {idx} acquires held lock {op[1]}")
            if proc.clock < lock.free_visible_at:
                proc.charge(lock.free_visible_at - proc.clock, "comm_wait")
            lock.holder = idx
            proc.stats.bump("lock_acquires")
            proto.acquire_sync(proc)
            self.checker.on_acquire(proc, ("lock", op[1]))
        elif kind == "release":
            lock = self._lock(op[1])
            if lock.holder != idx:
                raise ProtocolError(
                    f"schedule error: proc {idx} releases lock {op[1]} "
                    f"held by {lock.holder}")
            proto.release_sync(proc)
            self.checker.on_release(proc, ("lock", op[1]))
            lock.holder = None
            lock.free_visible_at = proc.clock + self.mc_latency + _EPS
        elif kind == "load":
            proto.load(proc, op[1], op[2])
        elif kind == "store":
            proto.store(proc, op[1], op[2], op[3])
        else:
            raise ProtocolError(f"unknown model-check op {op!r}")
        self.progress[idx] += 1
        if check:
            invariants.check(proto)
        if self.all_done():
            self.checker.oracle.check_global("end of schedule")

    # ------------------------------------------------------------- hashing

    def state_key(self) -> str:
        """Digest of everything the protocol's future can depend on.

        Simulated clocks are included: two schedules merge only when the
        merged state is *identical*, timing included, so dedup can never
        hide a behavior. Independent steps of different processors
        commute bit-exactly (each processor's clock depends only on its
        own history and its lock interactions), which is where the
        pruning pays off.
        """
        proto = self.protocol
        cfg = self.cluster.config
        parts: list[object] = [tuple(self.progress)]
        parts.append(tuple(round(p.clock, 6)
                           for p in self.cluster.processors))
        parts.append(tuple(sorted(
            (lid, lock.holder, round(lock.free_visible_at, 6))
            for lid, lock in self.locks.items())))
        parts.append(bytes(proto._home_settled))
        for page in range(cfg.num_pages):
            e = proto.directory.entries[page]
            parts.append((e.home_owner, e.state_tuple()))
            parts.append(proto.master(page).tobytes())
        for rec in proto.owners:
            parts.append(tuple(tuple(row) for row in rec.rows))
            for pages in (rec.frames, rec.twins):
                parts.append(tuple(sorted(
                    (page, arr.tobytes()) for page, arr in pages.items())))
            parts.append(tuple(tuple(
                (wn.page, wn.from_owner, round(wn.visible_at, 6))
                for wn in bin_) for bin_ in rec.board.bins))
            for st in rec.ps:
                parts.append((tuple(sorted(st.dirty)),
                              tuple(sorted(st.nle)),
                              tuple(st.notices),
                              st.acquire_ts,
                              st.arrival_epoch))
            if rec.meta is not None:  # two-level protocols
                parts.append((rec.logical, rec.last_release_ts))
                parts.append(tuple(
                    (m.flush_ts, m.update_ts, m.wn_ts,
                     round(m.flush_end_real, 6)) for m in rec.meta))
        parts.append(self.checker.oracle.golden.tobytes())
        parts.append(self.checker.detector.digest())
        return hashlib.sha256(repr(parts).encode()).hexdigest()


@dataclass
class ModelChecker:
    """Breadth-first exhaustive exploration of one script set."""

    protocol: str | Callable[[Cluster], object] = "2L"
    scripts: list[list[Op]] = field(default_factory=default_scripts)
    config: MachineConfig | None = None
    #: Budgets: exploration stops (``exhaustive=False``) when either is
    #: hit. ``max_depth`` defaults to the total op count — full depth.
    max_states: int = 100_000
    max_depth: int | None = None

    def __post_init__(self) -> None:
        if self.config is None:
            self.config = small_config()
        if len(self.scripts) > self.config.total_procs:
            raise ProtocolError(
                f"{len(self.scripts)} scripts need more than the config's "
                f"{self.config.total_procs} processors")
        self._total_ops = sum(len(s) for s in self.scripts)
        if self.max_depth is None:
            self.max_depth = self._total_ops

    # ------------------------------------------------------------- replay

    def _fresh(self) -> _World:
        return _World(self.config, self.scripts, self.protocol)

    def _replay(self, schedule: tuple[int, ...],
                check: bool = False) -> _World:
        """Execute a schedule from a fresh world. Exploration replays
        prefixes whose steps all passed the invariants once already."""
        world = self._fresh()
        for idx in schedule:
            world.step(idx, check)
        return world

    def replay(self, schedule: tuple[int, ...]) -> _World:
        """Public replay: re-run a counterexample (or any schedule).

        Raises the same violation at the same step — the schedule *is*
        the reproduction recipe.
        """
        return self._replay(schedule, check=True)

    def decode(self, schedule: tuple[int, ...]) \
            -> tuple[tuple[int, int, Op], ...]:
        """Expand a schedule into (step, processor, op) triples."""
        progress = [0] * len(self.scripts)
        steps = []
        for i, idx in enumerate(schedule):
            steps.append((i, idx, self.scripts[idx][progress[idx]]))
            progress[idx] += 1
        return tuple(steps)

    # ------------------------------------------------------------- explore

    def run(self) -> ExplorationResult:
        """Explore; returns the result, with any minimal counterexample."""
        result = ExplorationResult()
        root = self._fresh()
        result.replays += 1
        seen = {root.state_key()}
        frontier: deque[tuple[int, ...]] = deque([()])
        result.states = 1
        while frontier:
            schedule = frontier.popleft()
            if len(schedule) >= self.max_depth:
                continue
            parent = self._replay(schedule)
            result.replays += 1
            enabled = parent.enabled()
            if not enabled:
                if not parent.all_done():
                    stuck = [i for i in range(len(self.scripts))
                             if not parent.done(i)]
                    err = ProtocolError(
                        f"deadlock: scripts {stuck} blocked with no "
                        f"runnable step")
                    result.counterexample = Counterexample(
                        schedule, self.decode(schedule), err)
                    return result
                result.complete_schedules += 1
                continue
            for idx in enabled:
                child_schedule = schedule + (idx,)
                # The first child can advance the parent world in place;
                # the rest replay the (validated) prefix.
                if idx == enabled[0]:
                    child = parent
                else:
                    child = self._replay(schedule)
                    result.replays += 1
                try:
                    child.step(idx)
                except (CoherenceViolation, ProtocolError) as exc:
                    result.counterexample = Counterexample(
                        child_schedule, self.decode(child_schedule), exc)
                    return result
                if child.all_done():
                    result.complete_schedules += 1
                    result.max_depth_seen = max(result.max_depth_seen,
                                                len(child_schedule))
                    continue
                key = child.state_key()
                if key in seen:
                    continue
                seen.add(key)
                if len(seen) > self.max_states:
                    return result  # budget hit: not exhaustive
                result.states += 1
                result.max_depth_seen = max(result.max_depth_seen,
                                            len(child_schedule))
                frontier.append(child_schedule)
        result.exhaustive = True
        return result

    def check(self) -> ExplorationResult:
        """Explore and raise on violation (library convenience)."""
        result = self.run()
        cx = result.counterexample
        if cx is not None:
            raise InvariantViolation(
                cx.describe(), schedule=cx.schedule, trace=cx.steps,
                cause=cx.error)
        return result

    # --------------------------------------------------------------- export

    def export_counterexample(self, counterexample: Counterexample,
                              path) -> int:
        """Replay a counterexample under the event tracer and write the
        Chrome trace (PR 2 exporter); returns the event count."""
        from ..trace import attach_tracer, write_chrome_trace
        world = self._fresh()
        tracer = attach_tracer(world.cluster, world.protocol)
        for i, idx in enumerate(counterexample.schedule):
            op = self.scripts[idx][world.progress[idx]]
            tracer.instant("modelcheck_step", world.proc(idx),
                           world.proc(idx).clock, obj=i, op=repr(op))
            try:
                world.step(idx)
            except (CoherenceViolation, ProtocolError) as exc:
                tracer.instant("modelcheck_violation", world.proc(idx),
                               world.proc(idx).clock, obj=i,
                               error=str(exc))
                break
        tracer.finalize(kind="modelcheck-counterexample",
                        # otherData keeps scalars only: encode as text.
                        schedule=" ".join(map(str, counterexample.schedule)),
                        error=str(counterexample.error))
        return write_chrome_trace(tracer, path)
