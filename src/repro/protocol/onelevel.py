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
from ..vm.page import Perm
from .base import PAGE_HEADER_BYTES, BaseProtocol, ProcProtoState
from .directory import NO_HOLDER


class _OwnerMeta:
    """Per-owner (= per-processor) page bookkeeping for the 1-level protocols."""

    __slots__ = ("twins",)

    def __init__(self) -> None:
        self.twins: dict[int, np.ndarray] = {}


class OneLevelProtocol(BaseProtocol):
    """Common one-level machinery (subclasses pick the merge mechanism)."""

    two_level = False
    #: True for 1L: merge via in-line write doubling instead of diffs.
    write_through = False

    def __init__(self, cluster, *, lock_free: bool = True,
                 home_opt: bool = False) -> None:
        super().__init__(cluster, lock_free=lock_free, home_opt=home_opt)
        self.meta = [_OwnerMeta() for _ in range(self.num_owners)]

    def metrics_gauges(self, emit) -> None:
        """One-level gauges: live twin count and write-notice backlog.

        Always zero twins under 1L (write-through never twins); 1LD
        reports the twins awaiting their outgoing diffs.
        """
        emit("twins", sum(len(m.twins) for m in self.meta))
        emit("notice_backlog", sum(b.pending() for b in self.boards))

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
        # Relocation re-labels which processor hosts the receive region;
        # the master's contents move wholesale (one page transfer).
        pass  # the shared self.masters array simply changes host

    def _twin_of(self, owner: int, page: int) -> np.ndarray | None:
        return self.meta[owner].twins.get(page)

    def _drop_twin(self, owner: int, page: int) -> None:
        self.meta[owner].twins.pop(page, None)

    # --------------------------------------------------- home-node optimization

    def _on_home_node(self, st: ProcProtoState, page: int) -> bool:
        """Home-node optimization: is this processor on the SMP node that
        hosts the page's master copy?"""
        if not self.home_opt:
            return False
        home_proc = self.cluster.processors[self.directory.home(page)]
        return home_proc.node is st.proc.node

    def _uses_master(self, st: ProcProtoState, page: int) -> bool:
        """True when this processor's frame *is* the master copy (home-node
        optimization in effect for this page)."""
        return st.frames.get(page) is self.masters[page]

    def _map_master(self, st: ProcProtoState, page: int) -> None:
        """Bind this processor's frame for ``page`` to the master copy (a
        direct rebind, bypassing FrameStore)."""
        st.frames[page] = self.masters[page]
        self.tables[st.owner].evict(page, 0)

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
        new_node = self.cluster.processors[new_home].node
        for peer in old_node.processors:
            if peer.node is new_node:
                continue
            pst = self._ps[peer.global_id]
            if pst.frames.get(page) is master:
                del pst.frames[page]  # direct unmap bypasses FrameStore
                table = self.tables[pst.owner]
                table.evict(page, 0)
                table.set_perm(page, 0, Perm.INVALID)

    # ------------------------------------------------------------- page faults

    def read_fault(self, proc: Processor, st: ProcProtoState,
                   page: int) -> None:
        costs = self.costs
        proc.charge(costs.page_fault, "protocol")
        proc.stats.bump("read_faults")
        self.maybe_relocate_home(proc, page)

        if (self._on_home_node(st, page)
                and page not in self.meta[st.owner].twins
                and (page not in st.frames or self._uses_master(st, page))):
            self._break_if_exclusive_elsewhere(proc, st, page)
            self._map_master(st, page)
        else:
            # Read faults always fetch from the home node (Section 2.6).
            self._fetch(proc, st, page)
        self._set_perm(proc, st, page, Perm.READ)
        proc.charge(costs.mprotect, "protocol")

    def write_fault(self, proc: Processor, st: ProcProtoState,
                    page: int) -> None:
        costs = self.costs
        proc.charge(costs.page_fault, "protocol")
        proc.stats.bump("write_faults")
        self.maybe_relocate_home(proc, page)

        map_master = (self._on_home_node(st, page)
                      and page not in self.meta[st.owner].twins
                      and (page not in st.frames
                           or self._uses_master(st, page)))
        if map_master:
            self._break_if_exclusive_elsewhere(proc, st, page)
            self._map_master(st, page)
        elif (page not in st.frames
              or self.tables[st.owner].perm(page, 0) == Perm.INVALID):
            # Write faults fetch the page if necessary.
            self._fetch(proc, st, page)
        else:
            # Even with a fresh local copy, a write must not proceed while
            # another processor holds the page exclusively.
            self._break_if_exclusive_elsewhere(proc, st, page)

        st.dirty.add(page)
        if (not self.write_through and not self._uses_master(st, page)
                and page not in self.meta[st.owner].twins):
            self.meta[st.owner].twins[page] = make_twin(st.frames[page])
            proc.charge(self._twin_cost, "protocol")
            proc.stats.bump("twin_creations")
        self._set_perm(proc, st, page, Perm.WRITE)
        proc.charge(costs.mprotect, "protocol")

    def _set_perm(self, proc: Processor, st: ProcProtoState, page: int,
                  perm: Perm) -> None:
        table = self.tables[st.owner]
        old = table.perm(page, 0)
        table.set_perm(page, 0, perm)
        if old != perm:
            # Presence bits / permission in this owner's directory word.
            self._set_node_perm_word(proc, page, perm)

    # ------------------------------------------------------------------ fetch

    def _break_if_exclusive_elsewhere(self, proc: Processor,
                                      st: ProcProtoState, page: int) -> None:
        holder = self.directory.entry(page).exclusive_holder()
        if holder is not None and holder[0] != st.owner:
            self._break_exclusive(proc, page, holder)

    def _fetch(self, proc: Processor, st: ProcProtoState, page: int) -> None:
        t0 = proc.clock
        self._fetch_inner(proc, st, page)
        if self.trace is not None:
            self.trace.span("page_fetch", proc, t0, proc.clock - t0,
                            obj=page, bytes=self.config.page_bytes)

    def _fetch_inner(self, proc: Processor, st: ProcProtoState,
                     page: int) -> None:
        proc.charge(self.costs.fetch_overhead, "protocol")
        entry = self.directory.entry(page)
        holder = entry.exclusive_holder()
        if holder is not None and holder[0] != st.owner:
            payload =self._break_exclusive(proc, page, holder)
        else:
            home_owner = entry.home_owner
            home_node = self.node_of_owner(home_owner)
            local = home_node is proc.node
            payload, done = self.requests.explicit_request(
                proc, home_node, self._make_fetch_handler(page, local),
                category="page")
            if done > proc.clock:
                proc.charge(done - proc.clock, "comm_wait")
        proc.stats.bump("page_transfers")

        twin = self.meta[st.owner].twins.get(page)
        if twin is not None:
            # Unreleased local writes under false sharing: merge the master's
            # remote changes through the twin instead of clobbering them.
            diff = incoming_diff(payload, st.frames[page], twin,
                                 context=f"1-level fetch of page {page}")
            proc.charge(self.config.diff_in_cost(diff.nbytes), "protocol")
            if self.trace is not None:
                self.trace.instant("diff_in", proc, proc.clock, obj=page,
                                   bytes=int(diff.nbytes))
        else:
            self.frames.map_frame(st.owner, page, payload)
            proc.charge(self._page_copy_cost, "protocol")

    def _make_fetch_handler(self, page: int, local: bool):
        page_bytes = self.config.page_bytes

        def handler(server: Processor, at: float):
            cost = self._page_copy_cost
            reply = 0 if local else page_bytes + PAGE_HEADER_BYTES
            if local:
                # Same-node transfer: a bus memcpy instead of an MC transfer.
                begin, end = server.node.bus.acquire(
                    at, page_bytes / self.costs.node_bus_bandwidth)
                cost += end - at
            return self.masters[page].copy(), cost, reply

        return handler

    # -------------------------------------------------------------- exclusive

    def _break_exclusive(self, proc: Processor, page: int,
                         holder: tuple[int, int]) -> np.ndarray:
        holder_owner, _holder_proc = holder
        page_bytes = self.config.page_bytes

        def handler(server: Processor, at: float):
            entry = self.directory.entry(page)
            if entry.excl_of(holder_owner) == NO_HOLDER:
                return self.masters[page].copy(), 2.0, page_bytes
            frame = self.frames.frame(holder_owner, page)
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
            cost += self.directory.update_cost(server)
            server.stats.bump("directory_updates")
            server.stats.bump("excl_transitions")
            hst = self._ps[holder_owner]
            hst.excl_pages.discard(page)
            # Downgrade so future writes are tracked again.
            table = self.tables[holder_owner]
            if table.perm(page, 0) == Perm.WRITE:
                table.set_perm(page, 0, Perm.READ)
                cost += self.costs.mprotect
            return frame.copy(), cost, page_bytes + PAGE_HEADER_BYTES

        t0 = proc.clock
        payload, done = self.requests.explicit_request(
            proc, self.node_of_owner(holder_owner), handler,
            target_proc=holder_owner, category="page")
        if done > proc.clock:
            proc.charge(done - proc.clock, "comm_wait")
        if self.trace is not None:
            self.trace.span("excl_break", proc, t0, proc.clock - t0,
                            obj=page, holder=holder_owner)
        return payload

    # ------------------------------------------------------------ acquire side

    def acquire_sync(self, proc: Processor) -> None:
        st = self._ps[proc.global_id]
        board = self.boards[st.owner]
        notices = board.collect(proc.clock)
        if notices:
            # 1-level write-notice lists are guarded by cluster-wide locks.
            proc.charge(self.costs.mc_lock_overhead + self.costs.mc_latency,
                        "protocol")
            st.notices.add_many([wn.page for wn in notices])
        for page in st.notices.drain():
            if self._uses_master(st, page):
                continue  # home-node optimization: master is always fresh
            table = self.tables[st.owner]
            if table.perm(page, 0) == Perm.INVALID:
                continue
            # Invalidate and leave the page's sharing set.
            table.set_perm(page, 0, Perm.INVALID)
            proc.charge(self.costs.mprotect, "protocol")
            self._set_node_perm_word(proc, page, Perm.INVALID)
            if page not in self.meta[st.owner].twins:
                self.frames.unmap_frame(st.owner, page)

    # ------------------------------------------------------------ release side

    def release_sync(self, proc: Processor) -> None:
        st = self._ps[proc.global_id]
        for page in sorted(st.dirty):
            self._flush_one(proc, st, page)
        st.dirty.clear()

    def _flush_one(self, proc: Processor, st: ProcProtoState,
                   page: int) -> None:
        t0 = proc.clock
        self._flush_one_inner(proc, st, page)
        if self.trace is not None:
            self.trace.span("page_flush", proc, t0, proc.clock - t0, obj=page)

    def _flush_one_inner(self, proc: Processor, st: ProcProtoState,
                         page: int) -> None:
        entry = self.directory.entry(page)
        home_owner = entry.home_owner
        uses_master = self._uses_master(st, page)
        sharers = [o for o in entry.sharers() if o != st.owner]

        # Merge changes into the master copy (1L: every write already
        # went through to it).
        if not uses_master and not self.write_through:
            twin = self.meta[st.owner].twins.pop(page, None)
            if twin is None:
                raise ProtocolError(f"1LD flush of page {page} without twin")
            diff = outgoing_diff(st.frames[page], twin)
            apply_diff(self.masters[page], diff)
            local = self.node_of_owner(home_owner) is proc.node
            proc.charge(self.config.diff_out_cost(diff.nbytes, not local),
                        "protocol")
            if self.trace is not None:
                self.trace.instant("diff_out", proc, proc.clock, obj=page,
                                   bytes=int(diff.nbytes))
            if not local and diff.nbytes:
                send_done, _ = self.mc.transfer(proc.clock, diff.nbytes,
                                                category="diff")
                if send_done > proc.clock:
                    proc.charge(send_done - proc.clock, "comm_wait")
            if self._migrate_policy and home_owner != st.owner:
                self._note_remote_flush(page, st.owner)

        # Write notices to sharers that do not already hold one.
        if sharers:
            proc.charge(self.costs.mc_lock_overhead + self.costs.mc_latency,
                        "protocol")  # cluster-wide write-notice lock
            # Note: the home *processor* gets notices too — its working
            # copy is distinct from the master region (Section 2.6);
            # only a processor actually mapping the master (home-node
            # optimization) skips invalidation, on the receive side.
            self._post_write_notices(proc, st.owner, page, sharers)
        # No other sharers: the page enters exclusive mode and leaves
        # coherence until another processor asks for it. A pending
        # write notice disqualifies it: our copy would be stale.
        elif (entry.excl_of(st.owner) == NO_HOLDER
                and not self._notices_pending(st.owner, page)):
            entry.set_excl(st.owner, proc.global_id)
            self._charge_dir_update(proc)
            proc.stats.bump("excl_transitions")
            st.excl_pages.add(page)
            return  # keep write permission; no downgrade

        # Downgrade so future writes fault (and are tracked) again.
        table = self.tables[st.owner]
        if table.perm(page, 0) == Perm.WRITE:
            table.set_perm(page, 0, Perm.READ)
            proc.charge(self.costs.mprotect, "protocol")


class Cashmere1LD(OneLevelProtocol):
    """One-level protocol with twins and outgoing diffs."""

    name = "1LD"
    write_through = False


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

    def store(self, proc: Processor, page: int, offset: int,
              value: float) -> None:
        st = self._ps[proc.global_id]
        if st.rows[page][st.lidx] < Perm.WRITE:
            if self.trace is None:
                self.write_fault(proc, st, page)
            else:
                self._traced_write_fault(proc, st, page)
        st.frames[page][offset] = value
        self._double_words(proc, st, page, offset, 1,
                           np.float64(value))
        if self.tracer is not None:
            self.tracer.on_store(proc, page, offset, value)

    def store_range(self, proc: Processor, page: int, lo: int,
                    values: np.ndarray) -> None:
        st = self._ps[proc.global_id]
        if st.rows[page][st.lidx] < Perm.WRITE:
            if self.trace is None:
                self.write_fault(proc, st, page)
            else:
                self._traced_write_fault(proc, st, page)
        st.frames[page][lo:lo + len(values)] = values
        self._double_words(proc, st, page, lo, len(values), values)
        if self.tracer is not None:
            self.tracer.on_store_range(proc, page, lo, values)

    def _double_words(self, proc: Processor, st: ProcProtoState, page: int,
                      lo: int, count: int, values) -> None:
        master = self.masters[page]
        if master is st.frames.get(page):
            return  # home-node optimization: the store already hit the master
        if np.ndim(values) == 0:
            master[lo] = values
        else:
            master[lo:lo + count] = values
        costs = self.costs
        per_word = self.word_double_us
        if per_word is None:
            per_word = costs.mc_word_write
        proc.charge(per_word * count, "write_double")
        proc.stats.bump("doubled_words", count)
        home_node = self.node_of_owner(self.directory.home(page))
        if home_node is proc.node:
            # Doubling into local physical memory: cache pollution shows up
            # as extra traffic on the node bus.
            begin, end = proc.node.bus.acquire(
                proc.clock, (8.0 * count) / costs.node_bus_bandwidth)
            proc.charge(end - proc.clock, "write_double")
            self.mc.account("write_double_local", 0)
        else:
            # Remote writes ride the MC; coalescing in the write buffer is
            # imperfect (Section 3.3.1), so charge the full word each time.
            _, _ = self.mc.transfer(proc.clock, 4 * count,
                                    category="write_double")
