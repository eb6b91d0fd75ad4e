"""Float-order guard for the flat coherence slow path (DESIGN.md §19).

Each protocol's fault, acquire and release run as one body that books
its charges in locals: one float add to the clock and one to the
bucket per charge, in charge order. ``clock + (a + b)`` is not the same
double as ``clock + a + b``, and the simulated results are pinned byte
for byte, so a body that merged two charges into one add, reordered
them or dropped a zero-cost skip would drift. The reference classes
below are the same protocols written the way they were before the
flattening: every cost one ``Processor.charge``, every count one
``ProcStats.bump``, the page fetch a handler closure that copies the
master. Each case runs one small application on both and requires the
same clocks, every bucket bit, every counter, the same Memory Channel
traffic and result bytes, and, with a tracer, the same event stream.

(cf. ``tests/test_sync.py::test_lock_charges_in_locals_are_bit_identical``
for the lock passage and ``tests/test_protocol_fanout.py`` for the
write-notice burst.)
"""

from dataclasses import replace

import pytest

import repro.runtime.program as program
from repro.config import CostModel, MachineConfig
from repro.errors import ProtocolError
from repro.protocol import Cashmere1L, Cashmere1LD, Cashmere2L, Cashmere2LS
from repro.protocol.base import PAGE_HEADER_BYTES
from repro.protocol.directory import NO_HOLDER
from repro.apps import make_app
from repro.vm.diffs import (apply_diff, flush_update, incoming_diff,
                            make_twin, outgoing_diff)
from repro.vm.page import Perm

# ---------------------------------------------------------------------------
# The reference: one Processor.charge per cost.
# ---------------------------------------------------------------------------


def _dir_update(proto, proc):
    lock_model = proto.directory.lock_model
    us = proto._dir_update if lock_model is None \
        else lock_model.update_cost(proc.clock)
    proc.charge(us, "protocol")
    proc.stats.bump("directory_updates")
    proto.mc.account("directory", proto._dir_bytes)


def _set_word(proto, proc, owner, page, perm):
    entry = proto.directory.entry(page)
    if entry.perm_of(owner) != perm:
        entry.set_perm(owner, perm)
        _dir_update(proto, proc)


class _PerCharge1L:
    """The one-level fault, fetch, acquire and release, per charge."""

    def fault(self, proc, st, page, write):
        t0 = proc.clock
        proc.charge(self.costs.page_fault, "protocol")
        proc.stats.bump("write_faults" if write else "read_faults")
        self.maybe_relocate_home(proc, page)
        rec = self.owners[st.owner]
        twins = rec.twins
        master = self.masters[page]
        on_home = self.home_opt and self.cluster.processors[
            self.directory.home(page)].node is proc.node
        map_master = on_home and page not in twins and (
            page not in st.frames or st.frames[page] is master)
        if map_master:
            self._ref_break_elsewhere(proc, st, page)
            rec.alias(page, master)
        elif not write or page not in st.frames \
                or rec.rows[page][0] == Perm.INVALID:
            self._ref_fetch(proc, st, page)
        else:
            self._ref_break_elsewhere(proc, st, page)
        if write:
            st.dirty.add(page)
            if (not self.write_through and st.frames[page] is not master
                    and page not in twins):
                twins[page] = make_twin(st.frames[page])
                proc.charge(self._twin_cost, "protocol")
                proc.stats.bump("twin_creations")
        perm = Perm.WRITE if write else Perm.READ
        old = rec.rows[page][0]
        rec.set_perm(page, 0, perm)
        if old != perm:
            _set_word(self, proc, st.owner, page, perm)
        if write and self.write_through:
            self._bind_doubling(st.owner, page)
        proc.charge(self.costs.mprotect, "protocol")
        if self.trace is not None:
            self.trace.span("write_fault" if write else "read_fault", proc,
                            t0, proc.clock - t0, obj=page)

    def _ref_break_elsewhere(self, proc, st, page):
        holder = self.directory.entry(page).exclusive_holder()
        if holder is not None and holder[0] != st.owner:
            self._break_exclusive(proc, page, holder)

    def _ref_fetch(self, proc, st, page):
        t0 = proc.clock
        proc.charge(self.costs.fetch_overhead, "protocol")
        entry = self.directory.entry(page)
        holder = entry.exclusive_holder()
        if holder is not None and holder[0] != st.owner:
            payload = self._break_exclusive(proc, page, holder)
        else:
            home_node = self.node_of_owner(entry.home_owner)
            local = home_node is proc.node
            page_bytes = self.config.page_bytes

            def handler(server, at):
                cost = self._page_copy_cost
                if local:
                    _, end = server.node.bus.acquire(
                        at, page_bytes / self.costs.node_bus_bandwidth)
                    cost += end - at
                return (self.masters[page].copy(), cost,
                        0 if local else page_bytes + PAGE_HEADER_BYTES)

            payload, done = self.requests.fetch_page(
                proc, home_node, handler=handler)
            if done > proc.clock:
                proc.charge(done - proc.clock, "comm_wait")
        proc.stats.bump("page_transfers")
        rec = self.owners[st.owner]
        twin = rec.twins.get(page)
        if twin is not None:
            diff = incoming_diff(payload, st.frames[page], twin)
            proc.charge(self.config.diff_in_cost(diff.nbytes), "protocol")
            if self.trace is not None:
                self.trace.instant("diff_in", proc, proc.clock, obj=page,
                                   bytes=int(diff.nbytes))
        else:
            rec.map(page, payload)
            proc.charge(self._page_copy_cost, "protocol")
        if self.trace is not None:
            self.trace.span("page_fetch", proc, t0, proc.clock - t0,
                            obj=page, bytes=self.config.page_bytes)

    def acquire_sync(self, proc):
        st = self._ps[proc.global_id]
        rec = self.owners[st.owner]
        notices = rec.board.collect(proc.clock)
        if notices:
            proc.charge(self.costs.mc_lock_overhead + self.costs.mc_latency,
                        "protocol")
        for page in dict.fromkeys(wn.page for wn in notices):
            if st.frames.get(page) is self.masters[page]:
                continue
            if rec.rows[page][0] == Perm.INVALID:
                continue
            rec.set_perm(page, 0, Perm.INVALID)
            proc.charge(self.costs.mprotect, "protocol")
            _set_word(self, proc, st.owner, page, Perm.INVALID)
            if page not in rec.twins:
                rec.unmap(page)

    def release_sync(self, proc):
        st = self._ps[proc.global_id]
        for page in sorted(st.dirty):
            t0 = proc.clock
            self._ref_flush_one(proc, st, page)
            if self.trace is not None:
                self.trace.span("page_flush", proc, t0, proc.clock - t0,
                                obj=page)
        st.dirty.clear()

    def _ref_flush_one(self, proc, st, page):
        entry = self.directory.entry(page)
        home_owner = entry.home_owner
        sharers = [o for o in entry.sharers() if o != st.owner]
        if st.frames.get(page) is not self.masters[page] \
                and not self.write_through:
            twin = self.owners[st.owner].twins.pop(page)
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
        if sharers:
            proc.charge(self.costs.mc_lock_overhead + self.costs.mc_latency,
                        "protocol")
            self._post_write_notices(proc, st.owner, page, sharers)
        elif (entry.excl_of(st.owner) == NO_HOLDER
                and not self._notices_pending(st.owner, page)):
            entry.set_excl(st.owner, proc.global_id)
            _dir_update(self, proc)
            proc.stats.bump("excl_transitions")
            return
        rec = self.owners[st.owner]
        if rec.rows[page][0] == Perm.WRITE:
            rec.set_perm(page, 0, Perm.READ)
            proc.charge(self.costs.mprotect, "protocol")


class Ref1LD(_PerCharge1L, Cashmere1LD):
    pass


class Ref1L(_PerCharge1L, Cashmere1L):
    def _double_words(self, proc, st, page, lo, count, values):
        master = self.masters[page]
        if master is st.frames.get(page):
            return
        master[lo:lo + count] = values
        per_word, local = self.owners[st.owner].doubling[page]
        proc.charge(per_word * count, "write_double")
        proc.stats.bump("doubled_words", count)
        if local:
            _, end = proc.node.bus.acquire(
                proc.clock, (8.0 * count) / self.costs.node_bus_bandwidth)
            proc.charge(end - proc.clock, "write_double")
            self.mc.account("write_double_local", 0)
        else:
            self.mc.transfer(proc.clock, 4 * count, category="write_double")


class _PerCharge2L:
    """The two-level fault, fetch, acquire and release, per charge."""

    def fault(self, proc, st, page, write):
        t0 = proc.clock
        rec = self.owners[st.owner]
        rec.logical += 1
        proc.charge(self.costs.page_fault, "protocol")
        proc.stats.bump("write_faults" if write else "read_faults")
        self.maybe_relocate_home(proc, page)
        entry = self.directory.entry(page)
        if write and entry.excl_of(st.owner) != NO_HOLDER:
            self._ref_map(proc, st, page, Perm.WRITE)
        elif not write:
            self._ref_fetch_if_stale(proc, st, page, rec)
            self._ref_map(proc, st, page, Perm.READ)
        else:
            self._ref_fetch_if_stale(proc, st, page, rec)
            twins = rec.twins
            if (not entry.has_other_sharer(st.owner)
                    and entry.exclusive_holder() is None
                    and page not in twins and not rec.writers(page)
                    and not self._notices_pending(st.owner, page)):
                entry.set_excl(st.owner, proc.global_id)
                entry.set_perm(st.owner, Perm.WRITE)
                _dir_update(self, proc)
                proc.stats.bump("excl_transitions")
                st.dirty.discard(page)
            else:
                st.dirty.add(page)
                if self.directory.home(page) != st.owner \
                        and page not in twins:
                    twins[page] = make_twin(st.frames[page])
                    proc.charge(self._twin_cost, "protocol")
                    proc.stats.bump("twin_creations")
            self._ref_map(proc, st, page, Perm.WRITE)
        if self.trace is not None:
            self.trace.span("write_fault" if write else "read_fault", proc,
                            t0, proc.clock - t0, obj=page)

    def _ref_map(self, proc, st, page, perm):
        rec = self.owners[st.owner]
        old_loosest = max(rec.rows[page])
        rec.set_perm(page, st.lidx, perm)
        if old_loosest < perm:
            _set_word(self, proc, st.owner, page, perm)
        proc.charge(self.costs.mprotect, "protocol")

    def _ref_fetch_if_stale(self, proc, st, page, rec):
        entry = self.directory.entry(page)
        home = entry.home_owner
        holder = entry.exclusive_holder()
        if holder is not None and holder[0] == st.owner:
            holder = None
        if home == st.owner:
            if holder is not None:
                self._break_exclusive(proc, page, holder)
            return
        meta = rec.meta[page]
        if holder is None and page in st.frames \
                and meta.update_ts >= min(meta.wn_ts, st.acquire_ts):
            return
        if self.shootdown and page in rec.twins:
            self._shootdown_and_flush(proc, st, page, meta)
        t0 = proc.clock
        proc.charge(self.costs.fetch_overhead
                    + self.costs.two_level_fetch_extra, "protocol")
        if holder is not None:
            payload = self._break_exclusive(proc, page, holder)
        else:
            def handler(server, at):
                return (self.master(page).copy(), self._page_copy_cost,
                        self.config.page_bytes + PAGE_HEADER_BYTES)

            payload, done = self.requests.fetch_page(
                proc, self.node_of_owner(home), handler=handler)
            if done > proc.clock:
                proc.charge(done - proc.clock, "comm_wait")
        proc.stats.bump("page_transfers")
        twin = rec.twins.get(page)
        if twin is not None:
            diff = incoming_diff(payload, st.frames[page], twin)
            proc.charge(self.config.diff_in_cost(diff.nbytes), "protocol")
            proc.stats.bump("incoming_diffs")
            if self.trace is not None:
                self.trace.instant("diff_in", proc, proc.clock, obj=page,
                                   bytes=int(diff.nbytes))
        else:
            rec.map(page, payload)
            proc.charge(self._page_copy_cost, "protocol")
        if self.trace is not None:
            self.trace.span("page_fetch", proc, t0, proc.clock - t0,
                            obj=page, bytes=self.config.page_bytes,
                            home=home)
        rec.logical += 1
        meta.update_ts = rec.logical

    def acquire_sync(self, proc):
        st = self._ps[proc.global_id]
        rec = self.owners[st.owner]
        rec.logical += 1
        board = rec.board
        lock_model = self.directory.lock_model
        if lock_model is not None and board.pending():
            proc.charge(lock_model.update_cost(proc.clock), "protocol")
        for wn in board.collect(proc.clock):
            rec.meta[wn.page].wn_ts = rec.logical
            for peer, perm in zip(rec.ps, st.rows[wn.page]):
                if perm >= Perm.READ and wn.page not in peer.notices:
                    peer.notices[wn.page] = None
                    proc.charge(self.costs.llsc_lock, "protocol")
        st.acquire_ts = rec.logical
        pages, st.notices = st.notices, {}
        for page in pages:
            meta = rec.meta[page]
            if meta.update_ts >= meta.wn_ts \
                    or rec.rows[page][st.lidx] == Perm.INVALID:
                continue
            old_loosest = max(rec.rows[page])
            rec.set_perm(page, st.lidx, Perm.INVALID)
            proc.charge(self.costs.mprotect, "protocol")
            new_loosest = max(rec.rows[page])
            if new_loosest != old_loosest:
                _set_word(self, proc, st.owner, page, new_loosest)
        proc.charge(self.costs.llsc_lock, "protocol")

    def release_sync(self, proc, barrier=False):
        st = self._ps[proc.global_id]
        rec = self.owners[st.owner]
        rec.logical += 1
        rec.last_release_ts = rec.logical
        peers = rec.ps
        pages = sorted(st.dirty | st.nle)
        st.dirty.clear()
        st.nle.clear()
        for page in pages:
            if barrier and any(
                    p >= Perm.WRITE and w != st.lidx
                    and peers[w].arrival_epoch < st.arrival_epoch
                    for w, p in enumerate(st.rows[page])):
                self._ref_downgrade(proc, st, page)
                continue
            if self.directory.entry(page).excl_of(st.owner) != NO_HOLDER:
                continue
            meta = rec.meta[page]
            if meta.flush_ts > rec.last_release_ts:
                if meta.flush_end_real > proc.clock:
                    proc.charge(meta.flush_end_real - proc.clock,
                                "comm_wait")
            else:
                t0 = proc.clock
                self._ref_flush_page(proc, st, rec, page, meta)
                if self.trace is not None:
                    self.trace.span("page_flush", proc, t0,
                                    proc.clock - t0, obj=page)
            self._ref_downgrade(proc, st, page)

    def _ref_flush_page(self, proc, st, rec, page, meta):
        home = self.directory.home(page)
        rec.logical += 1
        meta.flush_ts = rec.logical
        twins = rec.twins
        if home != st.owner:
            if page not in twins:
                if not self.shootdown:
                    if rec.writers(page):
                        raise ProtocolError("flush without twin")
                    return
            else:
                others = [w for w in rec.writers(page) if w != st.lidx]
                if self.shootdown and others:
                    self._shootdown_and_flush(proc, st, page, meta)
                    return
                diff = flush_update(st.frames[page], twins[page],
                                    self.master(page))
                proc.charge(self.config.diff_out_cost(diff.nbytes, True),
                            "protocol")
                if diff.nbytes:
                    if self.trace is not None:
                        self.trace.instant("diff_out", proc, proc.clock,
                                           obj=page, bytes=int(diff.nbytes))
                    send_done, meta.flush_end_real = self.mc.transfer(
                        proc.clock, diff.nbytes, category="diff")
                    if send_done > proc.clock:
                        proc.charge(send_done - proc.clock, "comm_wait")
                else:
                    meta.flush_end_real = proc.clock
                if others:
                    proc.stats.bump("flush_updates")
                else:
                    del twins[page]
        entry = self.directory.entry(page)
        if self.directory.lock_model is not None:
            proc.charge(self.directory.lock_model.update_cost(proc.clock),
                        "protocol")
        self._post_write_notices(
            proc, st.owner, page,
            [o for o in entry.sharers() if o not in (st.owner, home)])

    def _ref_downgrade(self, proc, st, page):
        rec = self.owners[st.owner]
        if rec.rows[page][st.lidx] == Perm.WRITE:
            rec.set_perm(page, st.lidx, Perm.READ)
            proc.charge(self.costs.mprotect, "protocol")


class Ref2L(_PerCharge2L, Cashmere2L):
    pass


class Ref2LS(_PerCharge2L, Cashmere2LS):
    pass


REFERENCE = {"2L": Ref2L, "2LS": Ref2LS, "1LD": Ref1LD, "1L": Ref1L}
FLAT = {"2L": Cashmere2L, "2LS": Cashmere2LS, "1LD": Cashmere1LD,
        "1L": Cashmere1L}

# ---------------------------------------------------------------------------
# The worlds.
# ---------------------------------------------------------------------------

#: Costs chosen (and checked below) so that any two adjacent charges of a
#: fault, added one at a time to a clock, give a different double from
#: their sum added once — a fused add in a flat body cannot pass.
_ODD_COSTS = dict(page_fault=9.51, mprotect=2.51, fetch_overhead=2.01,
                  two_level_fetch_extra=2.01, dir_update=9.37,
                  llsc_lock=10.51, mc_lock_overhead=8.81, mc_word_write=0.3)


def test_guard_costs_separate_add_orders():
    c = _ODD_COSTS
    for start in (123456.7, 98765.4321, 31415.9265):
        for a, b in [("page_fault", "mprotect"), ("dir_update", "mprotect"),
                     ("fetch_overhead", "two_level_fetch_extra"),
                     ("llsc_lock", "llsc_lock"), ("mprotect", "mprotect"),
                     ("page_fault", "fetch_overhead"),
                     ("page_fault", "dir_update")]:
            assert start + c[a] + c[b] != start + (c[a] + c[b]), (start, a, b)


def _run(cls, protocol, *, trace, lock_free=True, home_opt=False):
    """Water at small size on two 2-way nodes, on ``cls``."""
    cfg = MachineConfig(nodes=2, procs_per_node=2, page_bytes=512,
                        tracing=trace,
                        costs=replace(CostModel(), **_ODD_COSTS))

    def make(name, cluster, *, lock_free=True, home_opt=False):
        if cls.two_level:
            return cls(cluster, lock_free=lock_free)
        return cls(cluster, lock_free=lock_free, home_opt=home_opt)

    original = program.make_protocol
    program.make_protocol = make
    try:
        app = make_app("Water")
        params = app.small_params()
        rt = program.ParallelRuntime(app, params, cfg, protocol,
                                     lock_free=lock_free, home_opt=home_opt)
        result = rt.run()
    finally:
        program.make_protocol = original
    stats = result.stats
    arrays = {name: result.array(name).tobytes()
              for name in sorted(app.result_arrays(params))}
    events = None if result.trace is None else [
        (ev.kind, ev.proc, ev.t0, ev.dur, ev.obj, sorted(ev.payload.items()))
        for ev in result.trace]
    return (stats.exec_time_us,
            [(dict(ps.buckets), dict(ps.counters)) for ps in stats.per_proc],
            dict(stats.mc_traffic_bytes), arrays, events)


VARIANTS = [("2L", {}), ("2LS", {}), ("1LD", {}), ("1L", {}),
            ("2L", {"lock_free": False}), ("1LD", {"home_opt": True}),
            ("1L", {"home_opt": True})]


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("protocol,kw", VARIANTS,
                         ids=[p + "".join(f"-{k}" for k in kw)
                              for p, kw in VARIANTS])
def test_flat_slow_path_is_bit_identical_to_per_charge(protocol, kw, trace):
    got = _run(FLAT[protocol], protocol, trace=trace, **kw)
    want = _run(REFERENCE[protocol], protocol, trace=trace, **kw)
    assert got == want
    counters = [c for _, c in got[1]]
    total = {k: sum(c.get(k, 0) for c in counters)
             for k in ("read_faults", "write_faults", "page_transfers",
                       "excl_transitions", "lock_acquires",
                       "directory_updates")}
    assert all(total.values()), total
    if trace:
        kinds = {kind for kind, *_ in got[4]}
        assert {"read_fault", "write_fault", "page_fetch", "page_flush",
                "excl_break"} <= kinds
