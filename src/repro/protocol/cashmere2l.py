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
from ..vm.page import INVALID, READ, WRITE
from .base import PAGE_HEADER_BYTES, BaseProtocol, ProcProtoState
from .directory import NO_HOLDER, PageMeta


class Cashmere2L(BaseProtocol):
    """The two-level protocol with two-way diffing."""

    name = "2L"
    #: 2LS overrides: use TLB shootdown instead of incoming diffs.
    shootdown = False

    def __init__(self, cluster, *, lock_free: bool = True) -> None:
        super().__init__(cluster, lock_free=lock_free)
        # Each node's logical clock, release time, and one PageMeta per
        # page (the rest of the second-level directory).
        pages = self.config.num_pages
        for record in self.owners:
            record.logical = 0
            record.last_release_ts = -1
            record.meta = [PageMeta() for _ in range(pages)]

    # ------------------------------------------------------------------ hooks

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
        rec = self.owners[old_home]
        if rec.mapped(page):
            rec.logical += 1
            rec.meta[page].update_ts = rec.logical
            # Writers also need a twin now that flushes must diff against
            # the (relocated) master; a mapped page has a frame.
            if rec.writers(page) and page not in rec.twins:
                rec.twins[page] = make_twin(rec.frames[page])
        else:
            rec.unmap(page)  # and its twin
            rec.meta[page] = PageMeta()

    # ------------------------------------------------------------- page faults
    # Flat slow path: see BaseProtocol.fault (DESIGN.md §19).

    def fault(self, proc: Processor, st: ProcProtoState, page: int,
              write: bool) -> None:
        """Fetch when the node's copy is missing or stale, then map. A
        write goes exclusive when the node is the page's only sharer, else
        joins the multi-writer path (dirty list, twin off the home)."""
        owner = st.owner
        rec = self.owners[owner]
        twins = rec.twins
        rec.logical += 1
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

        entry = self.directory.entries[page]
        row = st.rows[page]
        holder = entry.excl
        if holder is not None and holder[0] == owner:
            holder = None
        went_exclusive = False
        if not write or holder is not None or entry.excl is None:
            # The timestamp rule (Section 2.4.1): fetch when the copy is
            # missing or stale. An exclusive holding elsewhere always
            # forces a break, even on the home node (exclusive pages send
            # no write notices, so the rule cannot see their writes);
            # home processors otherwise work on the master copy itself.
            home = entry.home_owner
            meta = rec.meta[page]
            if home == owner:
                if holder is not None:  # it flushes into our master
                    proc.clock, buckets["protocol"] = clock, spent
                    self._break_exclusive(proc, page, holder)
                    clock, spent = proc.clock, buckets["protocol"]
            elif (holder is not None or page not in st.frames
                    or meta.update_ts < min(meta.wn_ts, st.acquire_ts)):
                proc.clock, buckets["protocol"] = clock, spent
                if self.shootdown and page in twins:
                    # 2LS: a fetch with concurrent local writers shoots
                    # down their mappings and flushes first.
                    self._shootdown_and_flush(proc, st, page, meta)
                # Requester-side fixed costs: request composition, read
                # buffer, second-level directory maintenance.
                t_fetch = clock = proc.clock
                spent = buckets["protocol"]
                us = costs.fetch_overhead + costs.two_level_fetch_extra
                clock, spent = clock + us, spent + us
                proc.clock, buckets["protocol"] = clock, spent
                if holder is not None:
                    # The holder's reply carries the latest copy.
                    payload = self._break_exclusive(proc, page, holder)
                    done = 0.0
                else:
                    _, done = self.requests.fetch_page(
                        proc, self.cluster.nodes[home], self._page_copy_cost,
                        self._reply_bytes)
                    payload = self.owners[home].frames[page]  # the master
                clock, spent = proc.clock, buckets["protocol"]
                if done > clock:
                    us = done - clock
                    clock += us
                    buckets["comm_wait"] += us
                counters["page_transfers"] += 1
                twin = twins.get(page)
                if twin is not None:
                    # Two-way diffing: merge only the *remote* changes,
                    # into the working page and the twin — no shootdown.
                    diff = incoming_diff(payload, st.frames[page], twin,
                                         context=f"page {page} fetch")
                    us = self.config.diff_in_cost(diff.nbytes)
                    counters["incoming_diffs"] += 1
                else:
                    rec.map(page, payload)
                    us = self._page_copy_cost
                clock, spent = clock + us, spent + us
                if self.trace is not None:
                    if twin is not None:
                        self.trace.instant("diff_in", proc, clock, obj=page,
                                           bytes=diff.nbytes)
                    self.trace.span("page_fetch", proc, t_fetch,
                                    clock - t_fetch, obj=page,
                                    bytes=self.config.page_bytes, home=home)
                rec.logical += 1
                meta.update_ts = rec.logical

            if write and (not entry.has_other_sharer(owner)
                          and entry.excl is None and page not in twins
                          and WRITE not in row
                          and not self._notices_pending(owner, page)):
                # Sole sharer, no local writer, no notice pending: go
                # exclusive. The word's holder field changes, so the
                # directory update below is booked whatever its perm.
                entry.set_excl(owner, proc.global_id)
                st.dirty.discard(page)
                went_exclusive = True
            elif write:
                st.dirty.add(page)
                if home != owner and page not in twins:
                    twins[page] = make_twin(st.frames[page])
                    us = self._twin_cost
                    clock, spent = clock + us, spent + us
                    counters["twin_creations"] += 1

        # Map (a loosening: no cached mapping to evict). The node's
        # directory word changes only if its loosest permission was below
        # the one granted.
        perm = WRITE if write else READ
        old_loosest = max(row)
        row[st.lidx] = perm
        if went_exclusive or (old_loosest < perm
                              and entry.perm_of(owner) != perm):
            entry.set_perm(owner, perm)
            us = self._dir_word(counters, clock)
            clock, spent = clock + us, spent + us
            if went_exclusive:
                counters["excl_transitions"] += 1
        us = costs.mprotect
        clock, spent = clock + us, spent + us
        proc.clock, buckets["protocol"] = clock, spent
        if self.trace is not None:
            self.trace.span("write_fault" if write else "read_fault", proc,
                            t0, clock - t0, obj=page)

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
            entry = self.directory.entries[page]
            holder_pid = entry.excl_of(holder_owner)
            if holder_pid == NO_HOLDER:
                # Raced with another break request; nothing left to do.
                return self.master(page).copy(), 2.0, page_bytes
            rec = self.owners[holder_owner]
            hst = self._ps[holder_pid]
            frame = rec.frames[page]
            cost = 0.0

            # Flush the entire page to the home node's master copy.
            home = self.directory.home(page)
            if home != holder_owner:
                self.master(page)[:] = frame
                _, visible = self.mc.transfer(at, page_bytes,
                                              category="excl_flush")
                cost += self._page_copy_cost
                rec.meta[page].flush_end_real = visible
            entry.clear_excl(holder_owner)
            cost += self._dir_word(server.stats.counters, at)
            server.stats.bump("excl_transitions")

            # Other local writers keep their mappings: twin + NLE entries.
            # (On the home node no twin is needed — writes go straight to
            # the master — but the NLE entries still are: those writers
            # must send write notices and downgrade at their next release.)
            others = [w for w in rec.writers(page) if w != hst.lidx]
            if others:
                if home != holder_owner and page not in rec.twins:
                    rec.twins[page] = make_twin(frame)
                    cost += self._twin_cost
                    server.stats.bump("twin_creations")
                for lw in others:
                    rec.ps[lw].nle.add(page)
                    cost += self.costs.llsc_lock
            # The holder downgrades its own permissions to catch new
            # writes (which then go through the dirty list).
            if rec.rows[page][hst.lidx] == WRITE:
                rec.set_perm(page, hst.lidx, READ)
                cost += self.costs.mprotect
            return frame.copy(), cost, page_bytes + PAGE_HEADER_BYTES

        return self._request_break(proc, page, holder_owner, holder_proc_id,
                                   handler)

    # ------------------------------------------------------------ acquire side

    def acquire_sync(self, proc: Processor) -> None:
        """Distribute global write notices, then invalidate stale pages
        (Section 2.4.2)."""
        st = self._ps[proc.global_id]
        owner = st.owner
        rec = self.owners[owner]
        rec.logical += 1
        buckets = proc.stats.buckets
        clock = proc.clock
        spent = buckets["protocol"]
        llsc, metas = self.costs.llsc_lock, rec.meta
        board = rec.board
        lock_model = self.directory.lock_model
        if lock_model is not None and board.pending():
            us = lock_model.update_cost(clock)
            clock, spent = clock + us, spent + us
        notices = board.collect(clock)
        if notices:
            # Second-level distribution: stamp each noticed page's
            # write-notice time and queue it at every local processor
            # that maps it, one ll/sc lock per newly queued page (a page
            # already queued is the bitmap's set bit: no lock).
            lists = [peer.notices for peer in rec.ps]
            queued = 0
            for wn in notices:
                page = wn.page
                metas[page].wn_ts = rec.logical
                for pn, perm in zip(lists, st.rows[page]):
                    if perm >= READ and page not in pn:
                        pn[page] = None
                        queued += 1
            for _ in range(queued):
                clock, spent = clock + llsc, spent + llsc

        st.acquire_ts = rec.logical
        rows, lidx = rec.rows, st.lidx
        queue, st.notices = st.notices, {}  # drained under the local lock
        for page in queue:
            meta = metas[page]
            row = rows[page]
            if meta.update_ts >= meta.wn_ts or row[lidx] == INVALID:
                continue
            # Invalidate this mapping; the node's directory word follows
            # when its loosest permission changes.
            old_loosest = max(row)
            rec.set_perm(page, lidx, INVALID)
            us = self.costs.mprotect
            clock, spent = clock + us, spent + us
            new_loosest = max(row)
            entry = self.directory.entries[page]
            if new_loosest != old_loosest \
                    and entry.perm_of(owner) != new_loosest:
                entry.set_perm(owner, new_loosest)
                us = self._dir_word(proc.stats.counters, clock)
                clock, spent = clock + us, spent + us
        clock, spent = clock + llsc, spent + llsc  # drain under the lock
        proc.clock, buckets["protocol"] = clock, spent

    # ------------------------------------------------------------ release side

    def release_sync(self, proc: Processor, barrier: bool = False) -> None:
        """Flush dirty, non-exclusive pages and send write notices
        (Section 2.4.3)."""
        st = self._ps[proc.global_id]
        owner = st.owner
        rec = self.owners[owner]
        rec.logical += 1
        rec.last_release_ts = rec.logical
        if not st.dirty and not st.nle:
            return
        peers = rec.ps
        pages = sorted(st.dirty | st.nle)
        st.dirty.clear()
        st.nle.clear()
        trace, buckets = self.trace, proc.stats.buckets
        clock = proc.clock
        spent = buckets["protocol"]
        rows, lidx = rec.rows, st.lidx
        twins = rec.twins
        lock_model = self.directory.lock_model
        for page in pages:
            row = rows[page]
            entry = self.directory.entries[page]
            # At a barrier only the "last arriving local writer" flushes:
            # defer to write-mapped peers NOT yet arrived at this episode
            # (their diff against the shared twin covers ours) — not to a
            # stale write mapping (e.g. ex-exclusive) of an arrived peer.
            if barrier and any(
                    p >= WRITE and w != lidx
                    and peers[w].arrival_epoch < st.arrival_epoch
                    for w, p in enumerate(row)):
                pass
            elif entry.excl_of(owner) != NO_HOLDER:
                continue  # exclusive pages generate no flushes or notices
            elif (meta := rec.meta[page]).flush_ts > rec.last_release_ts:
                # A concurrent release already flushed this page; wait for
                # the flush to reach the home node, then skip.
                if meta.flush_end_real > clock:
                    us = meta.flush_end_real - clock
                    clock += us
                    buckets["comm_wait"] += us
            else:
                # Flush the page: a diff home (off the home node), then
                # write notices to every other sharing node.
                t0 = clock
                home = entry.home_owner
                rec.logical += 1
                meta.flush_ts = rec.logical
                notify = True
                others = row.count(WRITE) > (row[lidx] == WRITE)
                if home == owner:
                    pass  # our frame is the master: nothing to flush
                elif page not in twins:
                    # 2LS: a shootdown flushed these changes and dropped
                    # the twin; only the notices remain. 2L: a peer's
                    # last-writer flush carried them home and dropped the
                    # twin while this dirty record sat behind an acquire's
                    # invalidation (a flush ``last_release_ts`` cannot see
                    # once this release has ticked): nothing is unflushed.
                    if not self.shootdown:
                        if WRITE in row:
                            raise ProtocolError(
                                f"flush of page {page} on owner {owner} "
                                f"without twin")
                        notify = False
                elif self.shootdown and others:
                    # _shootdown_and_flush sends the notices itself.
                    proc.clock, buckets["protocol"] = clock, spent
                    self._shootdown_and_flush(proc, st, page, meta)
                    clock, spent = proc.clock, buckets["protocol"]
                    notify = False
                else:
                    # Flush-update: modifications to home *and* twin, so
                    # concurrent local writers' later flushes skip them.
                    diff = flush_update(st.frames[page], twins[page],
                                        self.owners[home].frames[page])
                    us = self.config.diff_out_cost(diff.nbytes, True)
                    clock, spent = clock + us, spent + us
                    meta.flush_end_real = clock
                    if diff.nbytes:
                        if trace is not None:
                            trace.instant("diff_out", proc, clock, obj=page,
                                          bytes=diff.nbytes)
                        send_done, meta.flush_end_real = self.mc.transfer(
                            clock, diff.nbytes, category="diff")
                        if send_done > clock:
                            us = send_done - clock
                            clock += us
                            buckets["comm_wait"] += us
                    if others:
                        proc.stats.counters["flush_updates"] += 1
                    else:
                        del twins[page]  # last writer: twin is garbage
                if notify:
                    # Notices to every sharer but us and the home (Section
                    # 3.3.5 ablation: one list per node, a global lock).
                    if lock_model is not None:
                        us = lock_model.update_cost(clock)
                        clock, spent = clock + us, spent + us
                    proc.clock, buckets["protocol"] = clock, spent
                    self._post_write_notices(
                        proc, owner, page, [o for o in entry.sharers()
                                            if o != owner and o != home])
                    clock, spent = proc.clock, buckets["protocol"]
                if trace is not None:
                    trace.span("page_flush", proc, t0, clock - t0, obj=page)
            # Downgrade so new writes fault into the dirty list again.
            if row[lidx] == WRITE:
                rec.set_perm(page, lidx, READ)
                us = self.costs.mprotect
                clock, spent = clock + us, spent + us
        proc.clock, buckets["protocol"] = clock, spent

    def barrier_release(self, proc: Processor) -> None:
        """Barrier-arrival flush: only the last arriving local writer of a
        page flushes it (Section 2.3, "Synchronization")."""
        self._ps[proc.global_id].arrival_epoch += 1
        self.release_sync(proc, barrier=True)

    # ------------------------------------------------------------- shootdown

    def _shootdown_and_flush(self, proc: Processor, st: ProcProtoState,
                             page: int, meta: PageMeta) -> None:
        """2LS only: shoot down concurrent local writers, flush, drop twin,
        send the write notices.

        The second-level directory limits the shootdown to processors that
        actually hold write mappings (unlike SoftFLASH's conservative
        all-processor shootdown), and the polling-based message layer makes
        each shootdown cheap (Section 3.3.4).
        """
        costs = self.costs
        rec = self.owners[st.owner]
        targets = [w for w in rec.writers(page) if w != st.lidx]
        per_target = (costs.shootdown_polled if self.config.polling
                      else costs.shootdown_interrupt)
        for lw in targets:
            rec.set_perm(page, lw, READ)
            rec.ps[lw].proc.charge(per_target, "protocol")
        proc.charge(per_target * max(1, len(targets)), "protocol")
        proc.stats.bump("shootdowns")
        if self.trace is not None:
            self.trace.instant("shootdown", proc, proc.clock, obj=page,
                               targets=len(targets))
        entry = self.directory.entries[page]
        home = entry.home_owner
        # The release's flush-update (callers hold a twin), then notices.
        diff = flush_update(st.frames[page], rec.twins.pop(page),
                            self.owners[home].frames[page])
        proc.charge(self.config.diff_out_cost(diff.nbytes, True), "protocol")
        meta.flush_end_real = proc.clock
        if diff.nbytes:
            if self.trace is not None:
                self.trace.instant("diff_out", proc, proc.clock, obj=page,
                                   bytes=diff.nbytes)
            send_done, meta.flush_end_real = self.mc.transfer(
                proc.clock, diff.nbytes, category="diff")
            if send_done > proc.clock:
                proc.charge(send_done - proc.clock, "comm_wait")
        if self.directory.lock_model is not None:
            proc.charge(self.directory.lock_model.update_cost(proc.clock),
                        "protocol")
        self._post_write_notices(
            proc, st.owner, page,
            [o for o in entry.sharers() if o != st.owner and o != home])


class Cashmere2LS(Cashmere2L):
    """Cashmere-2LS: identical to 2L, but uses TLB shootdown in place of
    two-way diffing when multiple local writers are active (Section 2.6)."""

    name = "2LS"
    shootdown = True
