"""The one-level protocols: Cashmere-1LD (diffing) and Cashmere-1L
(write doubling), plus the home-node optimization (Section 2.6).

Both protocols treat each *processor* as a separate coherence node: every
processor keeps its own copy of each shared page, so intra-node hardware
coherence is never exploited. The master copy of a page is a Memory
Channel receive region distinct from any processor's working copy — even
on the home processor, which is why Table 1 lists a *local* page-transfer
cost and why write doubling has a cache penalty on the home node.

* **1LD** merges changes into the master with twins and outgoing diffs at
  release time (like the two-level protocols, minus the sharing).
* **1L** "doubles" every write to shared data in-line: each store also
  writes through to the master copy over the Memory Channel. No twins or
  diffs, but per-store overhead and poor write coalescing.

Differences from the two-level protocols, per Section 2.6: read faults
*always* fetch from the home; write-notice lists are per processor and
protected by cluster-wide locks; a page enters exclusive mode at a
*release* that finds no other sharers; an acquire invalidates every
noticed page and removes the processor from its sharing set (no
timestamps — the coalescing they enable needs node-level sharing).

The *home-node optimization* (``home_opt=True``) lets processors located
on the home processor's SMP node map the master copy directly, skipping
fetches, twins, and invalidations for those pages — an intermediate
design between one and two levels, used in Figure 7's unshaded bar
extensions.
"""

from __future__ import annotations

import numpy as np

from ..cluster.machine import Processor
from ..errors import ProtocolError
from ..vm.diffs import incoming_diff, make_twin, outgoing_diff, apply_diff
from ..vm.page import INVALID, READ, WRITE
from .base import PAGE_HEADER_BYTES, BaseProtocol, ProcProtoState
from .directory import NO_HOLDER


class OneLevelProtocol(BaseProtocol):
    """Common one-level machinery (subclasses pick the merge mechanism)."""

    two_level = False

    # ------------------------------------------------------------- masters

    def _init_masters(self) -> None:
        # Masters are standalone MC receive regions, not processor frames.
        self.masters: dict[int, np.ndarray] = {
            page: np.zeros(self.config.words_per_page, dtype=np.float64)
            for page in range(self.config.num_pages)}

    def master(self, page: int) -> np.ndarray:
        return self.masters[page]

    def _install_master(self, proc: Processor, page: int,
                        new_home: int) -> None:
        """Relocation only re-labels the receive region's host: the
        ``masters`` array moves wholesale (one page transfer)."""

    # --------------------------------------------------- home-node optimization

    def _after_relocation(self, page: int, old_home: int,
                          new_home: int) -> None:
        if not self.home_opt:
            return
        # Processors that shared the master frame of the *old* home node
        # must stop doing so: their "frame" reverts to a private copy —
        # unless they are on the *new* home's node too (the master moved
        # between processors of one node), in which case the direct
        # mapping stays valid.
        master = self.masters[page]
        old_node = self.cluster.processors[old_home].node
        if old_node is self.cluster.processors[new_home].node:
            return
        for peer in old_node.processors:
            rec = self.owners[peer.global_id]
            if rec.frames.get(page) is master:
                rec.unmap(page)
                rec.set_perm(page, 0, INVALID)

    # ------------------------------------------------------------- page faults
    # Flat slow path: see BaseProtocol.fault (DESIGN.md §19).

    def fault(self, proc: Processor, st: ProcProtoState, page: int,
              write: bool) -> None:
        """Map the master itself on the home's node (home-node
        optimization); else a read always fetches from the home (Section
        2.6), a write only without a valid copy. An exclusive holding
        elsewhere is broken first; its reply is the fetched copy."""
        buckets = proc.stats.buckets
        counters, costs = proc.stats.counters, self.costs
        t0 = clock = proc.clock
        spent = buckets["protocol"]
        us = costs.page_fault
        clock, spent = clock + us, spent + us
        counters["write_faults" if write else "read_faults"] += 1
        if not self._home_settled[page]:
            proc.clock, buckets["protocol"] = clock, spent
            self.maybe_relocate_home(proc, page)
            clock, spent = proc.clock, buckets["protocol"]

        owner = st.owner
        entry = self.directory.entries[page]
        master = self.masters[page]
        rec = self.owners[owner]
        twins = rec.twins
        frame = st.frames.get(page)
        row = st.rows[page]
        map_master = (self.home_opt and (frame is None or frame is master)
                      and page not in twins
                      and self.cluster.processors[entry.home_owner].node
                      is proc.node)
        fetch = not map_master and (not write or frame is None
                                    or row[0] == INVALID)
        t_fetch = clock
        if fetch:
            us = costs.fetch_overhead
            clock, spent = clock + us, spent + us
        proc.clock, buckets["protocol"] = clock, spent
        holder, done = entry.excl, 0.0
        if holder is not None and holder[0] != owner:
            payload = self._break_exclusive(proc, page, holder)
        elif fetch:
            home_node = self.cluster.processors[entry.home_owner].node
            if home_node is proc.node:
                # Same-node transfer: a bus memcpy instead of an MC reply.
                _, done = self.requests.fetch_page(
                    proc, home_node, self._page_copy_cost, 0,
                    self._bus_page_us)
            else:
                _, done = self.requests.fetch_page(
                    proc, home_node, self._page_copy_cost, self._reply_bytes)
            payload = master
        clock, spent = proc.clock, buckets["protocol"]
        if map_master:
            rec.alias(page, master)
        elif fetch:
            if done > clock:
                us = done - clock
                clock += us
                buckets["comm_wait"] += us
            counters["page_transfers"] += 1
            twin = twins.get(page)
            if twin is not None:
                # Unreleased local writes under false sharing: merge the
                # master's remote changes through the twin instead of
                # clobbering them.
                diff = incoming_diff(payload, st.frames[page], twin,
                                     context=f"1-level fetch of page {page}")
                us = self.config.diff_in_cost(diff.nbytes)
            else:
                rec.map(page, payload)
                us = self._page_copy_cost
            clock, spent = clock + us, spent + us
            if self.trace is not None:
                if twin is not None:
                    self.trace.instant("diff_in", proc, clock, obj=page,
                                       bytes=diff.nbytes)
                self.trace.span("page_fetch", proc, t_fetch, clock - t_fetch,
                                obj=page, bytes=self.config.page_bytes)

        perm = WRITE if write else READ
        if write:
            st.dirty.add(page)
            frame = st.frames[page]
            if (not self.write_through and frame is not master
                    and page not in twins):
                twins[page] = make_twin(frame)
                us = self._twin_cost
                clock, spent = clock + us, spent + us
                counters["twin_creations"] += 1
        row[0] = perm  # a loosening: no cached mapping to evict
        if entry.perm_of(owner) != perm:  # this owner's directory word
            entry.set_perm(owner, perm)
            us = self._dir_word(counters, clock)
            clock, spent = clock + us, spent + us
        if write and self.write_through:
            self._bind_doubling(owner, page)
        us = costs.mprotect
        clock, spent = clock + us, spent + us
        proc.clock, buckets["protocol"] = clock, spent
        if self.trace is not None:
            self.trace.span("write_fault" if write else "read_fault", proc,
                            t0, clock - t0, obj=page)

    # -------------------------------------------------------------- exclusive

    def _break_exclusive(self, proc: Processor, page: int,
                         holder: tuple[int, int]) -> np.ndarray:
        holder_owner, _holder_proc = holder
        page_bytes = self.config.page_bytes

        def handler(server: Processor, at: float):
            entry = self.directory.entries[page]
            if entry.excl_of(holder_owner) == NO_HOLDER:
                return self.masters[page].copy(), 2.0, page_bytes
            rec = self.owners[holder_owner]
            frame = rec.frames[page]
            cost = self._page_copy_cost
            # Flush the whole page to the home before the fetch proceeds.
            # Under write-through (1L) the master is already current — and
            # strictly fresher than the holder's frame — so keep it.
            if not self.write_through:
                self.masters[page][:] = frame
            frame = self.masters[page]
            _, _visible = self.mc.transfer(at, page_bytes,
                                           category="excl_flush")
            entry.clear_excl(holder_owner)
            cost += self._dir_word(server.stats.counters, at)
            server.stats.bump("excl_transitions")
            # Downgrade so future writes are tracked again.
            if rec.rows[page][0] == WRITE:
                rec.set_perm(page, 0, READ)
                cost += self.costs.mprotect
            return frame.copy(), cost, page_bytes + PAGE_HEADER_BYTES

        return self._request_break(proc, page, holder_owner, holder_owner,
                                   handler)

    # ------------------------------------------------------------ acquire side

    def acquire_sync(self, proc: Processor) -> None:
        """Invalidate every noticed page and leave its sharing set."""
        st = self._ps[proc.global_id]
        owner = st.owner
        buckets = proc.stats.buckets
        clock = proc.clock
        spent = buckets["protocol"]
        costs = self.costs
        rec = self.owners[owner]
        notices = rec.board.collect(clock)
        if notices:
            # 1-level write-notice lists are guarded by cluster-wide locks.
            us = costs.mc_lock_overhead + costs.mc_latency
            clock, spent = clock + us, spent + us
        # Each noticed page once, in notice order. (The processor's own
        # list is the board: no second level to queue into.)
        for page in dict.fromkeys([wn.page for wn in notices]):
            if rec.rows[page][0] == INVALID:
                continue
            if st.frames.get(page) is self.masters[page]:
                continue  # home-node optimization: master is always fresh
            rec.set_perm(page, 0, INVALID)
            us = costs.mprotect
            clock, spent = clock + us, spent + us
            entry = self.directory.entries[page]
            if entry.perm_of(owner) != INVALID:
                entry.set_perm(owner, INVALID)
                us = self._dir_word(proc.stats.counters, clock)
                clock, spent = clock + us, spent + us
            if page not in rec.twins:
                rec.unmap(page)
        proc.clock, buckets["protocol"] = clock, spent

    # ------------------------------------------------------------ release side

    def release_sync(self, proc: Processor) -> None:
        """Flush every dirty page: merge it into the master (1LD), then
        post write notices to its sharers, or take it exclusive when it
        has none."""
        st = self._ps[proc.global_id]
        if not st.dirty:
            return
        owner = st.owner
        trace = self.trace
        buckets = proc.stats.buckets
        counters, costs = proc.stats.counters, self.costs
        clock = proc.clock
        spent = buckets["protocol"]
        rec = self.owners[owner]
        twins = rec.twins
        for page in sorted(st.dirty):
            t0 = clock
            entry = self.directory.entries[page]
            home_owner = entry.home_owner
            master = self.masters[page]
            # Merge changes into the master copy (1L: every write already
            # went through to it).
            if st.frames.get(page) is not master and not self.write_through:
                twin = twins.pop(page, None)
                if twin is None:
                    raise ProtocolError(
                        f"1LD flush of page {page} without twin")
                diff = outgoing_diff(st.frames[page], twin)
                apply_diff(master, diff)
                local = self.cluster.processors[home_owner].node is proc.node
                us = self.config.diff_out_cost(diff.nbytes, not local)
                clock, spent = clock + us, spent + us
                if trace is not None:
                    trace.instant("diff_out", proc, clock, obj=page,
                                  bytes=diff.nbytes)
                if not local and diff.nbytes:
                    send_done, _ = self.mc.transfer(clock, diff.nbytes,
                                                    category="diff")
                    if send_done > clock:
                        us = send_done - clock
                        clock += us
                        buckets["comm_wait"] += us

            sharers = [o for o in entry.sharers() if o != owner]
            if sharers:
                # Notices under the cluster-wide write-notice lock. The
                # home *processor* gets them too: its working copy is not
                # the master region (Section 2.6).
                us = costs.mc_lock_overhead + costs.mc_latency
                clock, spent = clock + us, spent + us
                proc.clock, buckets["protocol"] = clock, spent
                self._post_write_notices(proc, owner, page, sharers)
                clock, spent = proc.clock, buckets["protocol"]
            elif (entry.excl_of(owner) == NO_HOLDER
                    and not self._notices_pending(owner, page)):
                # No other sharer, no pending notice (our copy would be
                # stale): go exclusive, keeping write permission.
                entry.set_excl(owner, proc.global_id)
                us = self._dir_word(counters, clock)
                clock, spent = clock + us, spent + us
                counters["excl_transitions"] += 1
                sharers = None
            # Downgrade so future writes fault (and are tracked) again.
            if sharers is not None and rec.rows[page][0] == WRITE:
                rec.set_perm(page, 0, READ)
                us = costs.mprotect
                clock, spent = clock + us, spent + us
            if trace is not None:
                trace.span("page_flush", proc, t0, clock - t0, obj=page)
        st.dirty.clear()
        proc.clock, buckets["protocol"] = clock, spent


class Cashmere1LD(OneLevelProtocol):
    """One-level protocol with twins and outgoing diffs."""

    name = "1LD"


class Cashmere1L(OneLevelProtocol):
    """One-level protocol with in-line write doubling (write-through).

    Every store to shared data additionally writes the word through to
    the home copy over the Memory Channel. The doubling cost is charged
    to the Figure-6 "Write Doubling" bucket; on the home node the doubled
    write also pollutes the cache (modeled as extra node-bus traffic).
    """

    name = "1L"
    write_through = True

    #: CPU cost of doubling one simulated word. Defaults to the cost
    #: model's raw I/O-space store cost; the runtime overrides it with the
    #: application's scaled value (one simulated word stands for many real
    #: words at our scaled problem sizes, so the in-line doubling cost
    #: scales with the same factor as the application's compute).
    word_double_us: float | None = None

    def __init__(self, cluster, *, lock_free: bool = True,
                 home_opt: bool = False) -> None:
        super().__init__(cluster, lock_free=lock_free, home_opt=home_opt)
        # Each owner's write doubling facts per page (per-word cost, home
        # is on this processor's node), bound at the write fault.
        for record in self.owners:
            record.doubling = {}

    def _bind_doubling(self, owner: int, page: int) -> None:
        """Bind write doubling's per-(processor, page) facts, once per
        write mapping: the per-word cost and whether the page's home is
        on this processor's node (rebound when the home moves)."""
        per_word = self.word_double_us
        if per_word is None:
            per_word = self.costs.mc_word_write
        procs = self.cluster.processors
        self.owners[owner].doubling[page] = (
            per_word,
            procs[self.directory.home(page)].node is procs[owner].node)

    def _after_relocation(self, page: int, old_home: int,
                          new_home: int) -> None:
        super()._after_relocation(page, old_home, new_home)
        for owner, record in enumerate(self.owners):
            if page in record.doubling:
                self._bind_doubling(owner, page)

    def _double_words(self, proc: Processor, st: ProcProtoState, page: int,
                      lo: int, count: int, values) -> None:
        master = self.masters[page]
        if master is st.frames.get(page):
            return  # home-node optimization: the store already hit the master
        master[lo:lo + count] = values
        per_word, local = self.owners[st.owner].doubling[page]
        buckets = proc.stats.buckets
        clock = proc.clock
        us = per_word * count
        clock += us
        buckets["write_double"] += us
        proc.stats.counters["doubled_words"] += count
        if local:
            # Doubling into local physical memory: cache pollution shows up
            # as extra traffic on the node bus.
            _, end = proc.node.bus.acquire(
                clock, (8.0 * count) / self.costs.node_bus_bandwidth)
            us = end - clock
            clock += us
            buckets["write_double"] += us
            self.mc.account("write_double_local", 0)
        else:
            # Remote writes ride the MC; coalescing in the write buffer is
            # imperfect (Section 3.3.1), so charge the full word each time.
            self.mc.transfer(clock, 4 * count, category="write_double")
        proc.clock = clock
