"""Common infrastructure for the Cashmere protocol family.

The four protocols (2L, 2LS, 1LD, 1L) share most of their machinery: an
owner space (SMP nodes for the two-level protocols, individual processors
for the one-level ones) with one record per owner (frames, page table,
twins, write-notice board), a replicated global directory, an explicit
request/reply engine, and first-touch home relocation. This module holds
that shared core plus the load/store fast path; the protocol-specific
fault, acquire, and release logic lives in the subclasses.
"""

from __future__ import annotations

import numpy as np

from ..cluster.machine import Cluster, Node, Processor
from ..config import MachineConfig
from ..sim.engine import SerialResource
from ..vm.page import Owner, Perm
from .directory import DirectoryLockModel, GlobalDirectory
from .messages import RequestEngine
from .writenotice import NoticeBoard, WriteNotice

#: Wire overhead of a page-fetch reply beyond the page data itself.
PAGE_HEADER_BYTES = 32

#: Permissions as the plain ints page-table rows hold.
_INVALID, _READ, _WRITE = int(Perm.INVALID), int(Perm.READ), int(Perm.WRITE)


class ProcProtoState:
    """Per-processor protocol state, laid out for the access fast path."""

    __slots__ = ("proc", "owner", "lidx", "rows", "frames", "dirty", "nle",
                 "notices", "acquire_ts", "arrival_epoch")

    def __init__(self, proc: Processor, owner: int, lidx: int,
                 record: Owner) -> None:
        self.proc = proc
        self.owner = owner
        self.lidx = lidx
        #: The owner record's page-table rows and frames, bound for the
        #: access fast path (read here, changed through the record).
        self.rows = record.rows
        self.frames = record.frames
        #: Pages this processor wrote since its last release (dirty list).
        self.dirty: set[int] = set()
        #: No-longer-exclusive list, written by local peers: pages that
        #: left exclusive mode while this processor held a write mapping,
        #: flushed at its next release as if dirty.
        self.nle: set[int] = set()
        #: Second-level write-notice list: the paper's bitmap + queue as
        #: one insertion-ordered dict (page -> None), so a redundant
        #: notice finds its page already queued.
        self.notices: dict[int, None] = {}
        #: Logical time of this processor's most recent acquire.
        self.acquire_ts: int = -1
        #: Barrier episodes this processor has arrived at (the "last
        #: arriving local writer" check consults peers' arrival state).
        self.arrival_epoch: int = 0


class BaseProtocol:
    """Shared protocol skeleton; see subclasses for semantics."""

    #: Protocol short name ("2L", "2LS", "1LD", "1L").
    name: str = "?"
    #: True when owners are SMP nodes (two-level protocols).
    two_level: bool = True
    #: True for 1L: every store is doubled to the master in line.
    write_through: bool = False

    def __init__(self, cluster: Cluster, *, lock_free: bool = True,
                 home_opt: bool = False) -> None:
        self.cluster = cluster
        self.config: MachineConfig = cluster.config
        self.costs = cluster.config.costs
        self.mc = cluster.mc
        self.lock_free = lock_free
        self.home_opt = home_opt

        #: Optional correctness checker (:class:`repro.check.CheckContext`):
        #: when set, every load/store and sync event is reported to it.
        self.checker = None
        #: Optional event tracer (:class:`repro.trace.Tracer`): when set,
        #: fault service and protocol actions are recorded as trace spans.
        self.trace = None

        config = self.config
        self.num_owners = config.nodes if self.two_level \
            else config.total_procs
        lock_model = None if lock_free else DirectoryLockModel(self.config)
        self.directory = GlobalDirectory(self.config, self.num_owners,
                                         lock_model=lock_model)
        #: One record per owner: its page table and software TLBs,
        #: frames, twins, notice board and processor states.
        pages, wpp = config.num_pages, config.words_per_page
        procs = config.procs_per_node if self.two_level else 1
        self.owners = [Owner(pages, wpp, procs, NoticeBoard(self.num_owners))
                       for _ in range(self.num_owners)]
        self.requests = RequestEngine(cluster)
        self._init_masters()

        #: First-touch relocation enabled after application initialization.
        self.first_touch_enabled = False
        #: 1 once a page's home can never change again (its superpage was
        #: relocated): the one record of relocation, which lets the fault
        #: path skip the relocation check with a single index.
        self._home_settled = bytearray(self.config.num_pages)
        self._home_lock = SerialResource(name="home-selection-lock")

        self._ps: list[ProcProtoState] = []
        for proc in cluster.processors:
            owner = self.owner_of(proc)
            record = self.owners[owner]
            st = ProcProtoState(proc, owner,
                                proc.local_id if self.two_level else 0,
                                record)
            self._ps.append(st)
            record.ps.append(st)

        # Per-notice / per-word / per-page costs, bound once (frozen config).
        self._mc_word_write = self.costs.mc_word_write
        self._dir_update = self.costs.dir_update
        self._dir_bytes = self.directory.broadcast_bytes()
        self._page_copy_cost = self.config.page_copy_cost()
        self._twin_cost = self.config.twin_cost()
        self._reply_bytes = self.config.page_bytes + PAGE_HEADER_BYTES
        #: A same-node page reply's memcpy on the node bus.
        self._bus_page_us = \
            self.config.page_bytes / self.costs.node_bus_bandwidth

    # --- owner-space geometry -----------------------------------------------

    def owner_of(self, proc: Processor) -> int:
        return proc.node.id if self.two_level else proc.global_id

    def node_of_owner(self, owner: int) -> Node:
        if self.two_level:
            return self.cluster.nodes[owner]
        return self.cluster.processors[owner].node

    def proc_state(self, proc: Processor) -> ProcProtoState:
        return self._ps[proc.global_id]

    # --- the memory access fast path ----------------------------------------

    def load(self, proc: Processor, page: int, offset: int) -> float:
        st = self._ps[proc.global_id]
        if st.rows[page][st.lidx] < _READ:
            self.fault(proc, st, page, False)
        value = st.frames[page][offset]
        if self.checker is not None:
            self.checker.on_load(proc, page, offset, value)
        return value

    def store(self, proc: Processor, page: int, offset: int,
              value: float) -> None:
        st = self._ps[proc.global_id]
        if st.rows[page][st.lidx] < _WRITE:
            self.fault(proc, st, page, True)
        st.frames[page][offset] = value
        if self.write_through:
            self._double_words(proc, st, page, offset, 1, value)
        if self.checker is not None:
            self.checker.on_store(proc, page, offset, value)

    def load_range(self, proc: Processor, page: int, lo: int,
                   hi: int) -> np.ndarray:
        """Read words [lo, hi) of one page (bulk access, one fault check).

        .. warning:: **Returns a live view**, not a copy: the result is a
           numpy slice of the owner's frame, and its contents change when
           the protocol later updates that frame (incoming diffs,
           flush-updates) or another local processor writes it. Callers
           must consume the view immediately and must never mutate it or
           hand it to application code.
           :meth:`repro.runtime.env.WorkerEnv.get_block` is the copying
           boundary: everything above the runtime receives a private copy.
        """
        st = self._ps[proc.global_id]
        if st.rows[page][st.lidx] < _READ:
            self.fault(proc, st, page, False)
        values = st.frames[page][lo:hi]
        if self.checker is not None:
            self.checker.on_load_range(proc, page, lo, values)
        return values

    def store_range(self, proc: Processor, page: int, lo: int,
                    values: np.ndarray) -> None:
        st = self._ps[proc.global_id]
        if st.rows[page][st.lidx] < _WRITE:
            self.fault(proc, st, page, True)
        st.frames[page][lo:lo + len(values)] = values
        if self.write_through:
            self._double_words(proc, st, page, lo, len(values), values)
        if self.checker is not None:
            self.checker.on_store_range(proc, page, lo, values)

    # --- protocol entry points (subclass responsibilities) -------------------

    # The slow path is flat (DESIGN.md §19): a fault (fetch included), an
    # acquire and a release each run as one body. The clock and the
    # "protocol" bucket are locals; every charge is one float add to each,
    # in charge order, written back before any call that reads or charges
    # ``proc`` and reloaded after it.

    def fault(self, proc: Processor, st: ProcProtoState, page: int,
              write: bool) -> None:
        """Service a read (``write=False``) or write fault on ``page``."""
        raise NotImplementedError

    def acquire_sync(self, proc: Processor) -> None:
        """Consistency actions on completing a lock acquire / flag wait /
        barrier departure."""
        raise NotImplementedError

    def release_sync(self, proc: Processor) -> None:
        """Consistency actions prior to a lock release / flag set."""
        raise NotImplementedError

    def barrier_release(self, proc: Processor) -> None:
        """Consistency actions at barrier arrival (defaults to a release)."""
        self.release_sync(proc)

    # --- shared helpers -------------------------------------------------------

    def end_initialization(self) -> None:
        """Arm first-touch home relocation (runs once, at the end of the
        application's initialization phase)."""
        self.first_touch_enabled = True

    def _init_masters(self) -> None:
        """Create the master copies. Two-level protocols share the home
        node's frame; one-level protocols override (the master is a
        separate MC receive region even on the home processor)."""
        for page in range(self.config.num_pages):
            self.owners[self.directory.home(page)].map(page)

    def master(self, page: int) -> np.ndarray:
        """The current master copy (the home owner's frame)."""
        return self.owners[self.directory.home(page)].frames[page]

    def _dir_word(self, counters: dict, clock: float) -> float:
        """Book one directory-word broadcast's count and traffic (a word
        per replica) and return its cost at ``clock`` (clock-dependent
        under the lock-model ablation); the caller charges it."""
        counters["directory_updates"] += 1
        traffic = self.mc.traffic
        traffic["directory"] = traffic.get("directory", 0) + self._dir_bytes
        lock_model = self.directory.lock_model
        return self._dir_update if lock_model is None \
            else lock_model.update_cost(clock)

    def _post_write_notices(self, proc: Processor, from_owner: int,
                            page: int, dests: list[int]) -> None:
        """Release-side fan-out (Section 2.3, Figure 4): one notice for
        ``page`` into ``from_owner``'s bin on every owner in ``dests``.

        Booked as one burst (DESIGN.md §17): one shared immutable record,
        count and traffic added once, but one float add per notice
        (``n * w`` is not the same double). A tracer sees each notice as
        a ``write_notice`` instant.
        """
        n = len(dests)
        if not n:
            return
        visible = self.mc.visibility(proc.clock)
        record = WriteNotice(page, from_owner, visible)
        owners = self.owners
        w = self._mc_word_write
        trace = self.trace
        buckets = proc.stats.buckets
        clock = proc.clock
        spent = buckets["protocol"]
        for owner in dests:
            board = owners[owner].board
            board.bins[from_owner].append(record)
            board.posted += 1
            if trace is not None:
                trace.instant("write_notice", None, visible, obj=page,
                              from_owner=from_owner, to_owner=owner)
            clock, spent = clock + w, spent + w
        proc.clock = clock
        buckets["protocol"] = spent
        proc.stats.counters["write_notices"] += n
        traffic = self.mc.traffic
        traffic["write_notice"] = traffic.get("write_notice", 0) + 4 * n

    def _notices_pending(self, owner: int, page: int) -> bool:
        """Any write notice for ``page`` queued at this owner (even one
        still in flight)?

        Exclusive mode must not be entered with a notice pending: the
        holder's copy would be stale, and the eventual full-page break
        flush would clobber the newer master words the notice announced.
        """
        record = self.owners[owner]
        board = record.board
        if board.pending() and any(wn.page == page
                                   for bin_ in board.bins for wn in bin_):
            return True
        return any(page in pst.notices for pst in record.ps)

    def _superpage_pages_of(self, sp: int) -> range:
        per = self.config.superpage_pages
        return range(sp * per, min((sp + 1) * per, self.config.num_pages))

    def maybe_relocate_home(self, proc: Processor, page: int) -> None:
        """First-touch home relocation (Section 2.3, "Home node selection").

        Runs at most once per superpage, after initialization: the first
        post-initialization toucher becomes the home. Requires the global
        home-selection lock — the only global lock in the protocol.
        """
        if self._home_settled[page] or not self.first_touch_enabled:
            return
        sp = page // self.config.superpage_pages
        for p in self._superpage_pages_of(sp):
            self._home_settled[p] = 1
        st = self._ps[proc.global_id]

        # Global lock acquire/release (11 us plus any serialization).
        begin, end = self._home_lock.acquire(proc.clock, 11.0)
        proc.charge(end - proc.clock, "protocol")
        proc.stats.bump("home_relocations")

        new_home = st.owner
        for p in self._superpage_pages_of(sp):
            old_home = self.directory.home(p)
            if old_home == new_home:
                continue
            self._relocate_page(proc, p, old_home, new_home)

    def _relocate_page(self, proc: Processor, page: int, old_home: int,
                       new_home: int) -> None:
        e = self.directory.entry(page)
        # Break any exclusive holding so the master content is current.
        holder = e.exclusive_holder()
        if holder is not None and holder[0] == new_home:
            # The new home already has the newest copy; keep its frame.
            e.home_owner = new_home
            proc.charge(self._dir_word(proc.stats.counters, proc.clock),
                        "protocol")
            self._after_relocation(page, old_home, new_home)
            return
        if holder is not None:
            self._break_exclusive(proc, page, holder)
        # Move the master copy: an explicit transfer from the old home.
        self._install_master(proc, page, new_home)
        _, visible = self.mc.transfer(proc.clock, self.config.page_bytes,
                                      category="relocation")
        proc.charge(visible - proc.clock, "comm_wait")
        e.home_owner = new_home
        # The home id lives in every directory word; one broadcast update.
        proc.charge(self._dir_word(proc.stats.counters, proc.clock),
                    "protocol")
        if self.trace is not None:
            self.trace.instant("relocation", proc, proc.clock, obj=page,
                               old_home=old_home, new_home=new_home)
        self._after_relocation(page, old_home, new_home)

    def _install_master(self, proc: Processor, page: int,
                        new_home: int) -> None:
        """Install the master copy at the relocated home owner."""
        old_master = self.master(page)
        record = self.owners[new_home]
        twin = record.twins.pop(page, None)
        if twin is not None:
            # The new home holds unflushed local writes; merge the old
            # master's remote changes instead of clobbering them.
            from ..vm.diffs import incoming_diff
            incoming_diff(old_master, record.frames[page], twin,
                          context=f"relocation of page {page}")
        else:
            record.map(page, old_master)

    def _after_relocation(self, page: int, old_home: int,
                          new_home: int) -> None:
        """Subclass hook (home-node optimization remapping)."""

    def _break_exclusive(self, proc: Processor, page: int,
                         holder: tuple[int, int]) -> np.ndarray:
        raise NotImplementedError

    def _request_break(self, proc: Processor, page: int, holder_owner: int,
                       target: int, handler) -> np.ndarray:
        """Send ``page``'s exclusive-break request to processor ``target``
        (on ``holder_owner``) and wait for its reply, the latest copy."""
        t0 = proc.clock
        payload, done = self.requests.fetch_page(
            proc, self.node_of_owner(holder_owner), handler=handler,
            target_proc=target)
        if done > proc.clock:
            proc.charge(done - proc.clock, "comm_wait")
        if self.trace is not None:
            self.trace.span("excl_break", proc, t0, proc.clock - t0,
                            obj=page, holder=target)
        return payload

    # --- metrics ---------------------------------------------------------------

    def metrics_gauges(self, emit) -> None:
        """Emit the live twin count (zero under 1L, which never twins) and
        the write-notice backlog; ``emit(name, value)`` records a sample."""
        twins = backlog = 0
        for record in self.owners:
            twins += len(record.twins)
            backlog += record.board.pending()
        emit("twins", twins)
        emit("notice_backlog", backlog)
