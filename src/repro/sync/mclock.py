"""Memory Channel locks (Section 2.3, "Synchronization").

A lock is an array in Memory Channel space with one entry per owner,
replicated everywhere and configured for *loop-back*: a writer sees its
own write return through the hub, which tells it the write has been
globally performed. To acquire, a process sets its entry, waits for
loop-back, and reads the whole array: if its entry is the only one set it
holds the lock; otherwise it clears its entry, backs off, and retries.

Under the two-level protocols, processors within a node first serialize
on a local ll/sc test-and-set flag, so at most one processor per node
competes on the Memory Channel; this adds a little latency (19 us vs
11 us uncontended) but reduces global traffic.

Acquire/release run the protocol's consistency actions: acquire-side
invalidation after the lock is obtained, release-side flushing before the
lock is dropped — the write that frees the lock is issued only after the
flushes, so a subsequent acquirer's page fetches observe them.

Simulation note: the *uncontended* path performs the full set /
loop-back / read-array sequence, reproducing the measured 11 us / 19 us
costs. Under contention, rather than simulating every test-and-back-off
retry as events (which costs O(waiters^2) simulator events per handoff),
waiters queue in arrival order and each handoff charges the loser one
failed attempt's worth of time — the same first-order timing with O(1)
events. ``contended_retries`` still counts the implied retries.
"""

from __future__ import annotations

from collections import deque
from functools import partial

from ..cluster.machine import Cluster, Processor
from ..errors import SimulationError
from ..sim.engine import Condition
from ..sim.process import Sleep, Wait


class MCLock:
    """One application (or protocol) lock."""

    def __init__(self, cluster: Cluster, protocol, lock_id: int) -> None:
        self.cluster = cluster
        self.protocol = protocol
        self.lock_id = lock_id
        self.two_level = protocol.two_level
        slots = protocol.num_owners
        # Nothing parks on the lock's array or reads it back (waiters
        # park on ``_grant``; who holds the lock is ``_holder``), so the
        # region carries the mapping and the array's size, and a write
        # to it is traffic, a trace instant and nothing on the heap.
        self.region = cluster.mc.new_region(
            f"lock[{lock_id}]", slots, waitable=False, readable=False)
        # Per-node ll/sc flag (two-level path): node id -> holder proc
        # id, absent while free; and the Condition a node's waiters
        # park on, made by the first one to wait. Both are kept only
        # for nodes that use the lock, not for every node per lock.
        self._node_flag: dict[int, int] = {}
        self._node_cond: dict[int, Condition] = {}
        #: Current holder (global processor id) and FIFO of waiters.
        self._holder: int | None = None
        self._queue: deque[int] = deque()
        #: Simulated time at which the most recent release becomes
        #: globally visible. A contender whose local clock is earlier
        #: cannot observe the lock as free — simulated clocks can run far
        #: ahead of event-execution order (long atomic waits), and without
        #: this timestamp a temporally-earlier contender could slip into a
        #: critical section that logically has not ended yet.
        self._free_visible_at = 0.0
        self._grant = Condition(cluster.sim, name=f"lockgrant[{lock_id}]")
        self.contended_retries = 0
        #: Sim time the current holder completed its acquire (hold-span
        #: start for the event trace; valid while ``_holder`` is set).
        self._acquired_at = 0.0
        #: The latest release found nobody parked on ``_grant`` and
        #: scheduled no fire; the first contender to queue while the lock
        #: is still free schedules it, at the same ``_free_visible_at``.
        self._grant_owed = False
        costs = cluster.config.costs
        #: Cost of scanning the lock array once.
        self._scan = 0.1 * slots
        #: The loop-back wait of the winning attempt (immutable).
        self._loopback = Sleep(costs.mc_latency, bucket="comm_wait")

    def _push_grant(self, visible: float) -> None:
        """Schedule the wake-up of ``_grant``'s waiters at ``visible``."""
        sim = self.cluster.sim
        sim.schedule(max(visible, sim.now), partial(self._grant.fire, visible))

    def _failed_attempt_cost(self) -> float:
        """Time one losing test-and-back-off attempt burns: set the entry,
        wait for loop-back, scan the array, clear the entry."""
        costs = self.cluster.config.costs
        return 2 * costs.mc_lock_overhead + costs.mc_latency + self._scan

    # --- acquire -------------------------------------------------------------

    def acquire(self, proc: Processor):
        """Generator: acquire the lock, then run acquire-side consistency.

        Every cost is one ``Processor.charge`` to "protocol", booked in
        locals: one float add to ``clock`` and to ``spent`` per charge,
        in charge order, written back before anything that reads
        ``proc.clock`` — a yield, ``acquire_sync`` (DESIGN.md §18).
        """
        costs = self.cluster.config.costs
        buckets = proc.stats.buckets
        t_request = clock = proc.clock
        spent = buckets["protocol"]
        me = proc.global_id
        if self.two_level:
            # Local ll/sc phase: at most one competitor per node.
            us = costs.llsc_lock
            clock, spent = clock + us, spent + us
            node_id = proc.node.id
            node_flag = self._node_flag
            if node_id in node_flag:
                proc.clock = clock
                buckets["protocol"] = spent
                cond = self._node_cond.get(node_id)
                if cond is None:
                    cond = self._node_cond[node_id] = Condition(
                        self.cluster.sim,
                        name=f"lockflag[{self.lock_id}][{node_id}]")
                while node_id in node_flag:
                    yield Wait(cond, lambda: node_id not in node_flag,
                               bucket="comm_wait")
                clock = proc.clock
                spent = buckets["protocol"]
            node_flag[node_id] = me
            us = costs.two_level_lock_extra
            clock, spent = clock + us, spent + us

        if (self._holder is not None or self._queue
                or clock < self._free_visible_at):
            # Contended: join the FIFO; one failed attempt is charged now
            # (we set our entry, saw a conflict, cleared it) and one more
            # on each handoff we lose.
            self.contended_retries += 1
            us = self._failed_attempt_cost()
            clock, spent = clock + us, spent + us
            proc.clock = clock
            buckets["protocol"] = spent
            self._queue.append(me)
            if self._grant_owed and self._holder is None:
                # We are waiting out a release nobody was watching (our
                # clock is before its visibility): its fire is ours to
                # schedule. With a holder, the next release sees us.
                self._grant_owed = False
                self._push_grant(self._free_visible_at)
            yield Wait(self._grant,
                       lambda: self._holder is None
                       and self._queue and self._queue[0] == me
                       and proc.clock >= self._free_visible_at,
                       bucket="comm_wait")
            self._queue.popleft()
            clock = proc.clock
            spent = buckets["protocol"]

        # Winning attempt: claim first (the loop-back wait yields, and
        # another contender must see the lock as taken meanwhile), then
        # set our entry, wait for loop-back, read the array.
        self._holder = me
        us = costs.mc_lock_overhead
        clock, spent = clock + us, spent + us
        proc.clock = clock
        buckets["protocol"] = spent
        self.cluster.mc.write_word(self.region, self.protocol.owner_of(proc),
                                   1, clock, category="sync")
        yield self._loopback
        us = self._scan  # read the array
        proc.clock += us
        buckets["protocol"] += us
        self._acquired_at = proc.clock
        trace = self.protocol.trace
        if trace is not None:
            trace.span("lock_wait", proc, t_request,
                       proc.clock - t_request, obj=f"lock {self.lock_id}")

        proc.stats.bump("lock_acquires")
        self.protocol.acquire_sync(proc)
        checker = self.protocol.checker
        if checker is not None:
            checker.on_acquire(proc, ("lock", self.lock_id))

    # --- release -------------------------------------------------------------

    def release(self, proc: Processor) -> None:
        """Run release-side consistency, then free the lock (non-blocking).
        Charges are booked in locals, as in :meth:`acquire`."""
        if self._holder != proc.global_id:
            raise SimulationError(
                f"processor {proc.global_id} does not hold lock "
                f"{self.lock_id} (holder: {self._holder})")
        self.protocol.release_sync(proc)
        checker = self.protocol.checker
        if checker is not None:
            checker.on_release(proc, ("lock", self.lock_id))
        costs = self.cluster.config.costs
        buckets = proc.stats.buckets
        clock = proc.clock
        spent = buckets["protocol"]
        us = costs.mc_lock_overhead
        clock, spent = clock + us, spent + us
        self.cluster.mc.write_word(self.region, self.protocol.owner_of(proc),
                                   0, clock, category="sync")
        trace = self.protocol.trace
        if trace is not None:
            trace.span("lock_hold", proc, self._acquired_at,
                       clock - self._acquired_at,
                       obj=f"lock {self.lock_id}")
        self._holder = None
        # The release becomes globally visible after loop-back; waiters
        # wake at that time. With nobody waiting no event is scheduled:
        # a contender that arrives before ``visible`` finds the fire owed
        # and schedules it itself (acquire's contended path).
        visible = clock + costs.mc_latency
        self._free_visible_at = visible
        self._grant_owed = not self._grant._waiters
        if not self._grant_owed:
            self._push_grant(visible)
        if self.two_level:
            node_id = proc.node.id
            del self._node_flag[node_id]
            us = costs.llsc_lock
            clock, spent = clock + us, spent + us
            cond = self._node_cond.get(node_id)
            if cond is not None and cond._waiters:  # a local peer spinning
                cond.fire(clock)
        proc.clock = clock
        buckets["protocol"] = spent
