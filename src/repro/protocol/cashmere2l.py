"""The Cashmere-2L two-level coherence protocol (Section 2), plus the
Cashmere-2LS shootdown variant (Section 2.6).

Owners are SMP nodes: all processors of a node share one frame per page,
so hardware coherence coalesces protocol transactions. Inter-node
coherence is "moderately lazy" release consistency with multiple
concurrent writers, home nodes, page-size blocks, a lock-free replicated
directory, and — the paper's novel mechanism — *two-way diffing*, which
uses twins both to flush local modifications out (outgoing diffs /
flush-updates) and to merge remote modifications in (incoming diffs)
without TLB shootdown or intra-node synchronization.

Temporal ordering inside a node uses a logical clock incremented at
protocol events (page faults, page flushes, acquires, releases); pages
carry flush/update/write-notice timestamps that let the protocol skip
redundant fetches and flushes (Section 2.2, "Hardware-Software Coherence
Interaction").
"""

from __future__ import annotations

import numpy as np

from ..cluster.machine import Processor
from ..errors import ProtocolError
from ..vm.diffs import flush_update, incoming_diff, make_twin
from ..vm.page import Perm
from .base import PAGE_HEADER_BYTES, BaseProtocol, ProcProtoState
from .directory import NO_HOLDER, PageMeta


class NodeState2L:
    """Per-node protocol state: logical clock, release time, page meta."""

    __slots__ = ("logical", "last_release_ts", "meta")

    def __init__(self) -> None:
        self.logical = 0
        self.last_release_ts = -1
        self.meta: dict[int, PageMeta] = {}

    def tick(self) -> int:
        self.logical += 1
        return self.logical

    def meta_for(self, page: int) -> PageMeta:
        meta = self.meta.get(page)
        if meta is None:
            meta = PageMeta()
            self.meta[page] = meta
        return meta


class Cashmere2L(BaseProtocol):
    """The two-level protocol with two-way diffing."""

    name = "2L"
    two_level = True
    #: 2LS overrides: use TLB shootdown instead of incoming diffs.
    shootdown = False

    def __init__(self, cluster, *, lock_free: bool = True) -> None:
        super().__init__(cluster, lock_free=lock_free)
        self.node_state = [NodeState2L() for _ in range(self.num_owners)]

    def metrics_gauges(self, emit) -> None:
        """Two-level gauges: live twin count and write-notice backlog."""
        twins = 0
        for ns in self.node_state:
            for meta in ns.meta.values():
                if meta.twin is not None:
                    twins += 1
        emit("twins", twins)
        emit("notice_backlog", sum(b.pending() for b in self.boards))

    # ------------------------------------------------------------------ hooks

    def _twin_of(self, owner: int, page: int) -> np.ndarray | None:
        meta = self.node_state[owner].meta.get(page)
        return None if meta is None else meta.twin

    def _drop_twin(self, owner: int, page: int) -> None:
        meta = self.node_state[owner].meta.get(page)
        if meta is not None:
            meta.twin = None

    def _after_relocation(self, page: int, old_home: int,
                          new_home: int) -> None:
        # The old home node becomes an ordinary sharer. Its frame is the
        # old master — current *right now*, but it will rot silently if
        # the node is not in the sharing set (nobody sends it write
        # notices). Keep it only if some processor still maps the page
        # (then the node is a sharer, and a fresh update_ts makes the
        # timestamp rule work); otherwise drop it so the next fault
        # fetches from the new home.
        if old_home == new_home:
            return
        ns = self.node_state[old_home]
        table = self.tables[old_home]
        if table.mapped(page):
            meta = ns.meta_for(page)
            meta.update_ts = ns.tick()
            # Writers also need a twin now that flushes must diff against
            # the (relocated) master.
            if table.writers(page) and meta.twin is None \
                    and self.frames.has_frame(old_home, page):
                meta.twin = make_twin(self.frames.frame(old_home, page))
        else:
            self.frames.unmap_frame(old_home, page)
            ns.meta.pop(page, None)

    # ------------------------------------------------------------- page faults

    def read_fault(self, proc: Processor, st: ProcProtoState,
                   page: int) -> None:
        costs = self.costs
        ns = self.node_state[st.owner]
        ns.tick()
        proc.charge(costs.page_fault, "protocol")
        proc.stats.bump("read_faults")
        self.maybe_relocate_home(proc, page)

        self._fetch_if_stale(proc, st, page, ns)

        table = self.tables[st.owner]
        # Granting READ can only change the node's loosest permission when
        # it was INVALID before (READ < WRITE), so skip the re-scan.
        old_loosest = table.loosest(page)
        table.set_perm(page, st.lidx, Perm.READ)
        if old_loosest < Perm.READ:
            self._set_node_perm_word(proc, page, Perm.READ)
        proc.charge(costs.mprotect, "protocol")

    def write_fault(self, proc: Processor, st: ProcProtoState,
                    page: int) -> None:
        costs = self.costs
        ns = self.node_state[st.owner]
        ns.tick()
        proc.charge(costs.page_fault, "protocol")
        proc.stats.bump("write_faults")
        self.maybe_relocate_home(proc, page)

        entry = self.directory.entry(page)
        # Already exclusive on this node: map with no protocol overhead.
        if entry.excl_of(st.owner) != NO_HOLDER:
            self._map_write(proc, st, page)
            return

        self._fetch_if_stale(proc, st, page, ns)

        meta = ns.meta_for(page)
        has_other_sharer = entry.has_other_sharer(st.owner)
        holder = entry.exclusive_holder()
        can_go_exclusive = (not has_other_sharer and holder is None
                            and meta.twin is None
                            and not self.tables[st.owner].writers(page)
                            and not self._notices_pending(st.owner, page))
        if can_go_exclusive:
            entry.set_excl(st.owner, proc.global_id)
            entry.set_perm(st.owner, Perm.WRITE)
            self._charge_dir_update(proc)
            proc.stats.bump("excl_transitions")
            st.excl_pages.add(page)
            st.dirty.discard(page)
            self._map_write(proc, st, page, charge_dir=False)
            return

        # Normal multi-writer path: dirty list plus a twin off the home node.
        st.dirty.add(page)
        home = self.directory.home(page)
        if home != st.owner and meta.twin is None:
            meta.twin = make_twin(st.frames[page])
            proc.charge(self._twin_cost, "protocol")
            proc.stats.bump("twin_creations")
        self._map_write(proc, st, page)

    def _map_write(self, proc: Processor, st: ProcProtoState, page: int,
                   charge_dir: bool = True) -> None:
        table = self.tables[st.owner]
        # WRITE is the loosest permission, so after the grant the node's
        # loosest is WRITE by construction; only the old value needs a scan.
        old_loosest = table.loosest(page)
        table.set_perm(page, st.lidx, Perm.WRITE)
        if charge_dir and old_loosest != Perm.WRITE:
            self._set_node_perm_word(proc, page, Perm.WRITE)
        proc.charge(self.costs.mprotect, "protocol")

    # ------------------------------------------------------------------ fetch

    def _fetch_if_stale(self, proc: Processor, st: ProcProtoState,
                        page: int, ns: NodeState2L) -> None:
        """Fetch a fresh copy from the home node when the local copy is
        missing or stale by the timestamp rule of Section 2.4.1."""
        entry = self.directory.entry(page)
        home = entry.home_owner

        # An exclusive holding elsewhere always forces a break, even for
        # home-node processors (exclusive pages send no write notices, so
        # the timestamp rule cannot see their modifications).
        holder = entry.exclusive_holder()
        if holder is not None and holder[0] == st.owner:
            holder = None

        if home == st.owner:
            # Home processors work directly on the master copy; the break
            # (if any) flushed the holder's page into it.
            if holder is not None:
                self._break_exclusive(proc, page, holder)
            return
        meta = ns.meta_for(page)
        have_frame = page in st.frames
        threshold = min(meta.wn_ts, st.acquire_ts)
        if holder is None and have_frame and meta.update_ts >= threshold:
            return

        if self.shootdown and meta.twin is not None:
            # 2LS: a fetch with concurrent local writers requires shooting
            # down their mappings and flushing before the page is updated.
            self._shootdown_and_flush(proc, st, page, meta)

        # Requester-side fixed fetch costs (request composition, read
        # buffer, and the two-level second-level directory maintenance).
        t_fetch = proc.clock
        proc.charge(self.costs.fetch_overhead
                    + self.costs.two_level_fetch_extra, "protocol")
        if holder is not None:
            # The holder's reply carries the latest copy directly.
            payload = self._break_exclusive(proc, page, holder)
        else:
            payload, done = self.requests.explicit_request(
                proc, self.node_of_owner(home),
                self._make_fetch_handler(page), category="page")
            if done > proc.clock:
                proc.charge(done - proc.clock, "comm_wait")
        proc.stats.bump("page_transfers")

        if meta.twin is not None:
            # Two-way diffing: merge only the *remote* modifications, into
            # both the working page and the twin — no shootdown needed.
            diff = incoming_diff(payload, st.frames[page], meta.twin,
                                 context=f"page {page} fetch")
            proc.charge(self.config.diff_in_cost(diff.nbytes), "protocol")
            proc.stats.bump("incoming_diffs")
            if self.trace is not None:
                self.trace.instant("diff_in", proc, proc.clock, obj=page,
                                   bytes=int(diff.nbytes))
        else:
            self.frames.map_frame(st.owner, page, payload)
            proc.charge(self._page_copy_cost, "protocol")
        if self.trace is not None:
            self.trace.span("page_fetch", proc, t_fetch,
                            proc.clock - t_fetch, obj=page,
                            bytes=self.config.page_bytes, home=home)
        ns.tick()
        meta.update_ts = ns.logical

    def _make_fetch_handler(self, page: int):
        """Request handler run by a polling processor on the home node."""
        page_bytes = self.config.page_bytes
        cost = self._page_copy_cost  # fill the page read buffer

        def handler(server: Processor, at: float):
            return self.master(page).copy(), cost, \
                page_bytes + PAGE_HEADER_BYTES

        return handler

    # -------------------------------------------------------------- exclusive

    def _break_exclusive(self, proc: Processor, page: int,
                         holder: tuple[int, int]) -> np.ndarray:
        """Ask the exclusive holder to flush and re-enter normal mode.

        The faulting processor sends an explicit request to the holder
        *processor*; the holder flushes the entire page to the home node,
        creates a twin and no-longer-exclusive entries if other local
        processors hold write mappings, downgrades its own permissions,
        and replies with the latest copy (Section 2.4.1).
        """
        holder_owner, holder_proc_id = holder
        page_bytes = self.config.page_bytes

        def handler(server: Processor, at: float):
            entry = self.directory.entry(page)
            holder_pid = entry.excl_of(holder_owner)
            if holder_pid == NO_HOLDER:
                # Raced with another break request; nothing left to do.
                return self.master(page).copy(), 2.0, page_bytes
            hns = self.node_state[holder_owner]
            hst = self._ps[holder_pid]
            frame = self.frames.frame(holder_owner, page)
            cost = 0.0

            # Flush the entire page to the home node's master copy.
            home = self.directory.home(page)
            if home != holder_owner:
                self.master(page)[:] = frame
                _, visible = self.mc.transfer(at, page_bytes,
                                              category="excl_flush")
                cost += self._page_copy_cost
                hns.meta_for(page).flush_end_real = visible
            entry.clear_excl(holder_owner)
            cost += self.directory.update_cost(server)
            server.stats.bump("directory_updates")
            server.stats.bump("excl_transitions")
            hst.excl_pages.discard(page)

            # Other local writers keep their mappings: twin + NLE entries.
            # (On the home node no twin is needed — writes go straight to
            # the master — but the NLE entries still are: those writers
            # must send write notices and downgrade at their next release.)
            table = self.tables[holder_owner]
            writers = table.writers(page)
            others = [w for w in writers if w != hst.lidx]
            if others:
                if home != holder_owner:
                    meta = hns.meta_for(page)
                    if meta.twin is None:
                        meta.twin = make_twin(frame)
                        cost += self._twin_cost
                        server.stats.bump("twin_creations")
                for lw in others:
                    self._owner_ps[holder_owner][lw].nle.add(page)
                    cost += self.costs.llsc_lock
            # The holder downgrades its own permissions to catch new
            # writes (which then go through the dirty list).
            if table.perm(page, hst.lidx) == Perm.WRITE:
                table.set_perm(page, hst.lidx, Perm.READ)
                cost += self.costs.mprotect
            return frame.copy(), cost, page_bytes + PAGE_HEADER_BYTES

        t0 = proc.clock
        payload, done = self.requests.explicit_request(
            proc, self.node_of_owner(holder_owner), handler,
            target_proc=holder_proc_id, category="page")
        if done > proc.clock:
            proc.charge(done - proc.clock, "comm_wait")
        if self.trace is not None:
            self.trace.span("excl_break", proc, t0, proc.clock - t0,
                            obj=page, holder=holder_proc_id)
        return payload

    # ------------------------------------------------------------ acquire side

    def acquire_sync(self, proc: Processor) -> None:
        """Distribute global write notices, then invalidate stale pages
        (Section 2.4.2)."""
        st = self._ps[proc.global_id]
        ns = self.node_state[st.owner]
        ns.tick()

        board = self.boards[st.owner]
        if self.directory.lock_model is not None and board.pending():
            proc.charge(self.directory.lock_model.update_cost(proc.clock),
                        "protocol")
        notices = board.collect(proc.clock)
        if notices:
            self._distribute(proc, st, ns, [wn.page for wn in notices])

        st.acquire_ts = ns.logical

        for page in st.notices.drain():
            meta = ns.meta_for(page)
            if meta.update_ts < meta.wn_ts:
                self._invalidate_mapping(proc, st, page)
        proc.charge(self.costs.llsc_lock, "protocol")  # drain under local lock

    def _distribute(self, proc: Processor, st: ProcProtoState,
                    ns: NodeState2L, pages: list[int]) -> None:
        """Second-level distribution of noticed ``pages`` (Section 2.4.2):
        stamp each page's write-notice time and queue it at every local
        processor that maps it, one ll/sc lock per newly set bit."""
        for page in dict.fromkeys(pages):
            ns.meta_for(page).wn_ts = ns.logical
        lists = [peer.notices for peer in self._owner_ps[st.owner]]
        rows, read, queued = st.rows, int(Perm.READ), 0
        for page in pages:
            for pn, perm in zip(lists, rows[page]):
                if perm < read:
                    continue
                if page in pn._bitmap:  # PerProcNotices.add, in line
                    pn.redundant_drops += 1
                else:
                    pn._bitmap.add(page)
                    pn._queue.append(page)
                    queued += 1
        llsc = self.costs.llsc_lock
        for _ in range(queued):
            proc.charge(llsc, "protocol")

    def _invalidate_mapping(self, proc: Processor, st: ProcProtoState,
                            page: int) -> None:
        table = self.tables[st.owner]
        if table.perm(page, st.lidx) == Perm.INVALID:
            return
        old_loosest = table.loosest(page)
        table.set_perm(page, st.lidx, Perm.INVALID)
        proc.charge(self.costs.mprotect, "protocol")
        new_loosest = table.loosest(page)
        if new_loosest != old_loosest:
            self._set_node_perm_word(proc, page, new_loosest)

    # ------------------------------------------------------------ release side

    def release_sync(self, proc: Processor, barrier: bool = False) -> None:
        """Flush dirty, non-exclusive pages and send write notices
        (Section 2.4.3)."""
        st = self._ps[proc.global_id]
        ns = self.node_state[st.owner]
        ns.tick()
        ns.last_release_ts = ns.logical
        if not st.dirty and not st.nle.pages:
            return
        peers = self._owner_ps[st.owner]
        pages = sorted(st.dirty | set(st.nle.take_all()))
        st.dirty.clear()
        for page in pages:
            # At a barrier only the "last arriving local writer" flushes:
            # defer to write-mapped peers NOT yet arrived at this episode
            # (their diff against the shared twin covers ours) — not to a
            # stale write mapping (e.g. ex-exclusive) of an arrived peer.
            if barrier and any(
                    p >= Perm.WRITE and w != st.lidx
                    and peers[w].arrival_epoch < st.arrival_epoch
                    for w, p in enumerate(st.rows[page])):
                self._downgrade_self(proc, st, page)
            else:
                self._consider_flush(proc, st, ns, page)

    def barrier_release(self, proc: Processor) -> None:
        """Barrier-arrival flush: only the last arriving local writer of a
        page flushes it (Section 2.3, "Synchronization")."""
        self._ps[proc.global_id].arrival_epoch += 1
        self.release_sync(proc, barrier=True)

    def _consider_flush(self, proc: Processor, st: ProcProtoState,
                        ns: NodeState2L, page: int) -> None:
        entry = self.directory.entry(page)
        if entry.excl_of(st.owner) != NO_HOLDER:
            return  # exclusive pages generate no flushes or notices
        meta = ns.meta_for(page)
        if meta.flush_ts > ns.last_release_ts:
            # A concurrent release already flushed this page; wait for the
            # flush to reach the home node, then skip.
            if meta.flush_end_real > proc.clock:
                proc.charge(meta.flush_end_real - proc.clock, "comm_wait")
            self._downgrade_self(proc, st, page)
            return
        self._flush_page(proc, st, ns, page, meta)
        self._downgrade_self(proc, st, page)

    def _flush_page(self, proc: Processor, st: ProcProtoState,
                    ns: NodeState2L, page: int, meta: PageMeta) -> None:
        t0 = proc.clock
        self._flush_page_inner(proc, st, ns, page, meta)
        if self.trace is not None:
            self.trace.span("page_flush", proc, t0, proc.clock - t0, obj=page)

    def _flush_page_inner(self, proc: Processor, st: ProcProtoState,
                          ns: NodeState2L, page: int, meta: PageMeta) -> None:
        home = self.directory.home(page)
        table = self.tables[st.owner]
        meta.flush_ts = ns.tick()

        if home != st.owner:
            if meta.twin is None:
                if self.shootdown:
                    # 2LS: an earlier shootdown already flushed these
                    # changes and discarded the twin; only the notices
                    # remain.
                    self._send_write_notices(proc, st, page)
                    return
                if table.writers(page):
                    raise ProtocolError(
                        f"flush of page {page} on owner {st.owner} "
                        f"without twin")
                # 2L: a peer's last-writer flush already carried these
                # modifications home (diff + write notices) and dropped
                # the node twin while this dirty record sat behind an
                # acquire-side invalidation. The per-node
                # ``last_release_ts`` guard in _consider_flush cannot see
                # that flush once this release's own tick has advanced the
                # clock, so catch it here: with no twin and no local write
                # mappings the node holds nothing unflushed.
                return
            others = [w for w in table.writers(page) if w != st.lidx]
            if self.shootdown and others:
                # _shootdown_and_flush sends the write notices itself.
                self._shootdown_and_flush(proc, st, page, meta)
                return
            # Flush-update: write modifications to home *and* twin, so
            # concurrent local writers' later flushes skip them.
            self._flush_diff(proc, st, page, meta)
            if others:
                proc.stats.bump("flush_updates")
            else:
                meta.twin = None  # last writer: the twin is garbage now
            if self._migrate_policy:
                self._note_remote_flush(page, st.owner)

        self._send_write_notices(proc, st, page)

    def _flush_diff(self, proc: Processor, st: ProcProtoState, page: int,
                    meta: PageMeta) -> None:
        """Write the page's outgoing diff to the home (and the twin)."""
        diff = flush_update(st.frames[page], meta.twin, self.master(page))
        proc.charge(self.config.diff_out_cost(diff.nbytes, True), "protocol")
        if diff.nbytes:
            if self.trace is not None:
                self.trace.instant("diff_out", proc, proc.clock, obj=page,
                                   bytes=int(diff.nbytes))
            send_done, visible = self.mc.transfer(proc.clock, diff.nbytes,
                                                  category="diff")
            if send_done > proc.clock:
                proc.charge(send_done - proc.clock, "comm_wait")
            meta.flush_end_real = visible
        else:
            meta.flush_end_real = proc.clock

    def _send_write_notices(self, proc: Processor, st: ProcProtoState,
                            page: int) -> None:
        """Write notices to every sharing node except us and the home."""
        entry = self.directory.entry(page)
        me, home = st.owner, entry.home_owner
        if self.directory.lock_model is not None:
            # Section 3.3.5 ablation: single write-notice list per node,
            # guarded by a cluster-wide lock.
            proc.charge(self.directory.lock_model.update_cost(proc.clock),
                        "protocol")
        self._post_write_notices(
            proc, me, page,
            [o for o in entry.sharers() if o != me and o != home])

    def _downgrade_self(self, proc: Processor, st: ProcProtoState,
                        page: int) -> None:
        table = self.tables[st.owner]
        if table.perm(page, st.lidx) == Perm.WRITE:
            table.set_perm(page, st.lidx, Perm.READ)
            proc.charge(self.costs.mprotect, "protocol")

    # ------------------------------------------------------------- shootdown

    def _shootdown_and_flush(self, proc: Processor, st: ProcProtoState,
                             page: int, meta: PageMeta) -> None:
        """2LS only: shoot down concurrent local writers, flush, drop twin.

        The second-level directory limits the shootdown to processors that
        actually hold write mappings (unlike SoftFLASH's conservative
        all-processor shootdown), and the polling-based message layer makes
        each shootdown cheap (Section 3.3.4).
        """
        costs = self.costs
        table = self.tables[st.owner]
        targets = [w for w in table.writers(page) if w != st.lidx]
        per_target = (costs.shootdown_polled if self.config.polling
                      else costs.shootdown_interrupt)
        for lw in targets:
            table.set_perm(page, lw, Perm.READ)
            self._owner_ps[st.owner][lw].proc.charge(per_target, "protocol")
        proc.charge(per_target * max(1, len(targets)), "protocol")
        proc.stats.bump("shootdowns")
        if self.trace is not None:
            self.trace.instant("shootdown", proc, proc.clock, obj=page,
                               targets=len(targets))
        if meta.twin is not None:
            self._flush_diff(proc, st, page, meta)
            meta.twin = None
        self._send_write_notices(proc, st, page)


class Cashmere2LS(Cashmere2L):
    """Cashmere-2LS: identical to 2L, but uses TLB shootdown in place of
    two-way diffing when multiple local writers are active (Section 2.6)."""

    name = "2LS"
    shootdown = True
