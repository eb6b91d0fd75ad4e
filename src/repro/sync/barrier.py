"""Barriers (Section 2.3, "Synchronization").

The two-level barrier synchronizes processors inside a node through
shared memory; the last local arriver announces the node's arrival over
the Memory Channel in a per-node array, and everyone departs when all
node entries reach the episode number. Each processor, as it arrives,
performs page flushes for the (non-exclusive) pages for which it is the
last arriving local writer — waiting for all local arrivals before
flushing would serialize, and flushing earlier would duplicate traffic
(the protocol's ``barrier_release`` implements this policy).

Under the one-level protocols every processor is its own "node", so the
barrier degenerates to a flat array with one entry per processor —
cheaper at 2 processors (no local phase) but more expensive at 32
(Table 1: 41 us vs 58 us at 2 processors, 364 us vs 321 us at 32).

Topologies (DESIGN.md §15). The paper's barrier is **flat**: one
arrival array, every departing processor rescans all of it
(``barrier_spin`` per slot — O(slots), the term that blows up at 64
nodes). ``MachineConfig.barrier = "tree"`` switches the inter-node
phase to a **combining tree**: slots form a binary heap; each interior
slot's representative merges its subtree's arrivals and posts one
combine word up (``barrier_mc_phase`` CPU + one MC propagation per
hop), the root posts a single broadcast departure word, and every
waiter spins on that one word — O(log slots) departure latency,
O(1) spin. The intra-node gather (two-level) is unchanged, arrival
flushes and departure invalidations are identical, and data values are
byte-identical across topologies; only timing and the combine-hop
accounting (``barrier_combine_hops``) differ.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cluster.machine import Cluster, Processor
from ..sim.engine import Condition
from ..sim.process import Wait


@dataclass
class _NodeBarrierState:
    episode: int = 0
    arrived: int = 0


class _EpisodeState:
    """Departure bookkeeping for one in-flight barrier episode.

    Every announcing Memory Channel write is posted with a known
    visibility time, so the instant the *last* announcement of an episode
    is posted, the episode's departure time is simply the max of those
    visibility times. Waiters park on a per-episode condition fired once
    at exactly that instant, instead of being spuriously woken by every
    arrival write — the wake time, and therefore every ``comm_wait``
    charge, is identical to spinning on the arrival array (the increments
    all land in the same bucket), but the event count per barrier drops
    from O(slots x waiters) to one per waiter.
    """

    __slots__ = ("cond", "visible_at", "announced", "slot_visible")

    def __init__(self, cond: Condition, slots: int = 0) -> None:
        self.cond = cond
        self.visible_at = 0.0
        self.announced = 0
        #: Per-slot announcement visibility times; kept only under the
        #: tree topology, whose departure time depends on *which* slot
        #: each arrival landed in (heap position), not just the max.
        self.slot_visible: list[float] | None = \
            [0.0] * slots if slots else None


class Barrier:
    """The (single) application barrier object."""

    def __init__(self, cluster: Cluster, protocol) -> None:
        self.cluster = cluster
        self.protocol = protocol
        self.two_level = protocol.two_level
        slots = cluster.config.nodes if self.two_level \
            else cluster.config.total_procs
        self.slots = slots
        # Waiters park on a per-episode condition (``_EpisodeState``),
        # never on the arrival array's own: its posts schedule nothing.
        self.region = cluster.mc.new_region(
            "barrier", slots, initial=0, loopback=True,
            connections=cluster.config.nodes, waitable=False)
        self._node_state = [_NodeBarrierState() for _ in cluster.nodes]
        #: Combining-tree inter-node phase (MachineConfig.barrier="tree").
        self.tree = cluster.config.barrier == "tree"
        #: Interior heap slots (those with at least one child); their
        #: representatives each perform one combine-word write per episode.
        self._interior = slots // 2 if self.tree else 0
        #: Cumulative departure latency (last announcement posted ->
        #: departure visible) over all episodes, for the scale
        #: experiment's per-episode barrier-cost series.
        self.depart_latency_us = 0.0
        #: In-flight episode departures (target episode -> state); an
        #: entry is dropped when its departure fire executes, which is
        #: safe because no processor can still park for an episode whose
        #: departure time has passed (its predicate would be true).
        self._episodes_pending: dict[int, _EpisodeState] = {}
        #: Highest episode whose departure fire has executed.
        self._completed_through = 0
        #: Completed barrier episodes (the Table 3 "Barriers" row).
        self.episodes = 0

    def _episode(self, target: int) -> _EpisodeState:
        ep = self._episodes_pending.get(target)
        if ep is None:
            ep = _EpisodeState(Condition(self.cluster.sim,
                                         name=f"barrier-ep{target}"),
                               slots=self.slots if self.tree else 0)
            if target > self._completed_through:
                self._episodes_pending[target] = ep
            # else: throwaway — the episode already departed; the caller's
            # predicate falls back to ``_completed_through`` and never parks.
        return ep

    def _note_announcement(self, target: int, slot: int) -> None:
        """Record one announcing MC write for ``target``; on the last one,
        schedule the single departure fire at the max visibility time."""
        ep = self._episode(target)
        visible = self.region.words[slot].last_visible_at()
        if visible > ep.visible_at:
            ep.visible_at = visible
        if ep.slot_visible is not None:
            ep.slot_visible[slot] = visible
        ep.announced += 1
        if ep.announced == self.slots:
            sim = self.cluster.sim
            if self.tree:
                ep.visible_at = self._tree_departure(ep.slot_visible)
            self.depart_latency_us += max(0.0, ep.visible_at - sim.now)

            def depart() -> None:
                self._episodes_pending.pop(target, None)
                if target > self._completed_through:
                    self._completed_through = target
                ep.cond.fire(ep.visible_at)

            sim.schedule(max(ep.visible_at, sim.now), depart)

    def _tree_departure(self, slot_visible: list[float]) -> float:
        """Departure time of one episode under the combining tree.

        Slots form a binary heap (children of *i* are *2i+1*, *2i+2*).
        An interior slot's representative posts its combine word once its
        own arrival and both children's combine words are visible —
        ``barrier_mc_phase`` CPU for the write plus one Memory Channel
        propagation per hop — and the root's combined word doubles as the
        broadcast departure flag every waiter spins on. Latency is
        O(log slots) hops off the slowest leaf instead of one global max,
        and the combine words (interior slots, the root's included) are
        accounted as sync traffic here.
        """
        slots = self.slots
        costs = self.cluster.config.costs
        hop = costs.barrier_mc_phase + costs.mc_latency
        done = list(slot_visible)
        for i in range(slots - 1, -1, -1):
            left, right = 2 * i + 1, 2 * i + 2
            t = done[i]
            if left < slots:
                t = max(t, done[left])
                if right < slots:
                    t = max(t, done[right])
                t += hop  # this slot's combine write, propagated
            done[i] = t
        if self._interior:
            self.cluster.mc.account("sync", 4 * self._interior)
        return done[0]

    def wait(self, proc: Processor):
        """Generator: arrive, flush, announce, spin for departure, acquire."""
        costs = self.cluster.config.costs
        mc = self.cluster.mc
        tracer = self.protocol.tracer
        trace = self.protocol.trace
        t_enter = proc.clock

        # Arrival-side consistency: flush pages we are the last local
        # writer of (two-level) or a plain release (one-level).
        self.protocol.barrier_release(proc)

        announced_here = False
        if self.two_level:
            slot = proc.node.id
            ns = self._node_state[slot]
            target = ns.episode + 1
            proc.charge(costs.barrier_local_phase + costs.llsc_lock,
                        "protocol")
            ns.arrived += 1
            if ns.arrived == len(proc.node.processors):
                # Last local arriver announces the node on the MC. It also
                # absorbed the serialized ll/sc counter updates of its
                # local peers on the way in.
                ns.arrived = 0
                ns.episode = target
                announced_here = True
                proc.charge(costs.barrier_local_phase
                            * (len(proc.node.processors) - 1), "protocol")
                proc.charge(costs.barrier_mc_phase, "protocol")
                mc.write_word(self.region, slot, target, proc.clock,
                              category="sync")
                self._note_announcement(target, slot)
                if slot == 0:
                    self.episodes = target
        else:
            slot = proc.global_id
            target = self.region.words[slot].latest() + 1
            announced_here = True
            proc.charge(costs.barrier_mc_phase, "protocol")
            mc.write_word(self.region, slot, target, proc.clock,
                          category="sync")
            self._note_announcement(target, slot)
            if slot == 0:
                self.episodes = target

        if tracer is not None:
            # Arrival is a release: all flushes for this episode ran above.
            tracer.on_barrier_arrive(proc, target)
        if trace is not None:
            trace.instant("barrier_arrive", proc, proc.clock, obj=target)

        nslots = self.slots
        ep = self._episode(target)

        def departed() -> bool:
            # Equivalent to scanning the arrival array: every slot shows
            # ``target`` exactly when all announcements are posted *and*
            # visible by this processor's clock (same epsilon as
            # VersionedWord.read). The fallback covers a processor whose
            # captured state is a throwaway because the departure fire
            # already ran — the episode is then over by construction.
            if ep.announced == nslots:
                return proc.clock + 1e-6 >= ep.visible_at
            return target <= self._completed_through

        if not departed():
            yield Wait(ep.cond, departed, bucket="comm_wait")
        if self.tree:
            # O(1) departure: every waiter polls only the root's broadcast
            # word (plus its own subtree word while combining), and each
            # interior slot's representative pays for the one combine
            # write it performed during the wait window.
            proc.charge(costs.barrier_spin * min(nslots, 2), "protocol")
            if announced_here and slot < self._interior:
                proc.charge(costs.barrier_mc_phase, "protocol")
                proc.stats.bump("barrier_combine_hops")
        else:
            # Departure-side spinning on the arrival array (waiters rescan
            # it as arrivals trickle in; scales with the number of slots).
            proc.charge(costs.barrier_spin * nslots, "protocol")
        proc.stats.bump("barriers_crossed")

        # Departure-side consistency: process write notices, invalidate.
        self.protocol.acquire_sync(proc)
        if tracer is not None:
            tracer.on_barrier_depart(proc, target)
        if trace is not None:
            trace.span("barrier", proc, t_enter, proc.clock - t_enter,
                       obj=target)
