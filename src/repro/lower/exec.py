"""Stage 3: the batched region executor.

A lowered region executes as a single *region instruction*: the worker
generator yields one :class:`LoweredRun`, and the simulation layer hands
it the process to drive (``SimProcess._dispatch``). The executor then
reproduces, step by step, exactly what the interpreted loop would have
done — while collapsing every step the event queue permits into the
current simulation event:

1. **validate / fault replay** — step ``i``'s touch list is checked
   against the live page table; an insufficient permission triggers the
   *real* protocol fault handler (``read_fault``/``write_fault``), at
   the same processor clock and in the same order the interpreted
   body's accesses would have faulted. Touches with sufficient
   permission charge nothing — exactly like a warm interpreted access.
2. **ingest** — the kernel copies the step's newly-validated input
   spans out of the frames (the values the interpreted ``get_block``
   would have returned at this instant).
3. **charge** — the step's ``Compute`` cost goes through
   ``Processor.run_compute``, the same arithmetic (bucket accounting,
   bus-interval bookkeeping, poll charge) the interpreter's dispatch
   uses, so clocks and buckets stay bit-identical.
4. **horizon check** — the interpreter would now push this process's
   resume event at the current clock and return to the event loop; the
   next step runs inline only if no other event is due at or before
   this clock (a same-time event has a smaller sequence number and
   would run first under interpretation). Otherwise the pending steps
   are committed (``materialize``) and a continuation event is pushed
   at the exact clock — byte-identical scheduling, minus the queue
   churn of events that would have been popped immediately anyway.

Why no foreign event can invalidate a collapsed batch: the protocols
are analytic — fault handlers and request servicing charge clocks and
mutate state synchronously, they never schedule simulator events — and
``Simulator.schedule`` never inserts before ``sim.now``. So between two
steps of one batch nothing else can run, *by construction*; any event
that could interleave already sits in the queue and trips the horizon
check. The continuation re-enters through ``service_requests()`` first,
like every interpreted resume (``SimProcess._step``).

Failures inside a region propagate exactly like failures inside a
worker step: the process is marked failed and the group's failure hook
runs (``SimProcess`` routes interpreted-body exceptions the same way).
"""

from __future__ import annotations

from heapq import heappush

from ..vm.page import Perm

_WRITE = Perm.WRITE
_INF = float("inf")


def region_instruction(kernel, env):
    """Generator: the lowered execution of one region (a single yield)."""
    yield LoweredRun(kernel, env)


class LoweredRun:
    """One batched execution of a :class:`~repro.lower.RegionKernel`.

    Instances are reusable: ``WorkerEnv.run_region`` caches one per
    (env, kernel class) and calls :meth:`reset` on re-entry, so a
    lockstep schedule that enters its regions thousands of times pays
    the constructor (and the bound-method allocation) exactly once.
    """

    __slots__ = ("kernel", "env", "_sp", "_i", "_batches", "_cont_cb",
                 "_valid")

    def __init__(self, kernel, env) -> None:
        self.kernel = kernel
        self.env = env
        self._sp = None
        #: Next step index (the resume point after a horizon break).
        self._i = 0
        #: Number of commits so far (adaptive-policy feedback).
        self._batches = 0
        # One stable bound method per run: continuations are pushed
        # repeatedly and must not allocate a fresh closure each time.
        self._cont_cb = self._continue
        #: Pages already validated this ``_run`` call, mapped to the
        #: strongest permission level checked. Consecutive steps of one
        #: region overlap heavily (a SOR page holds eight rows), and a
        #: warm batch freezes the page table by construction, so a page
        #: validated once stays valid until an event or a fault runs.
        self._valid: dict = {}

    def reset(self, kernel) -> None:
        """Rearm for an execution of ``kernel``'s region (the cached
        re-entry path — equivalent to constructing a fresh run)."""
        self.kernel = kernel
        self._sp = None
        self._i = 0
        self._batches = 0

    # -- SimProcess hook ---------------------------------------------------

    def drive(self, sp) -> None:
        """Begin executing the region on process ``sp`` (dispatch hook)."""
        self._sp = sp
        try:
            self.kernel.begin()
            self._run()
        except BaseException as exc:  # noqa: BLE001 - mirrors SimProcess._step
            self._fail(exc)

    # -- internals ---------------------------------------------------------

    def _continue(self) -> None:
        """Resume after a horizon break (one scheduled event later)."""
        sp = self._sp
        if sp.done:
            return
        # An interpreted resume polls for requests before running the
        # body (SimProcess._step); the continuation must too.
        sp.ctx.service_requests()
        try:
            self._run()
        except BaseException as exc:  # noqa: BLE001
            self._fail(exc)

    def _fail(self, exc: BaseException) -> None:
        sp = self._sp
        sp.done = True
        sp.failed = exc
        if sp._registry is not None:
            sp._registry.on_failure(sp, exc)

    def _commit(self, lo: int, pend: int, i: int) -> None:
        """Ingest any deferred steps, commit ``[lo, i)``, and push the
        next event (region resume when done, else a continuation)."""
        kernel = self.kernel
        if pend < i:
            kernel.ingest_batch(pend, i)
        kernel.materialize(lo, i)
        self._i = i
        self._batches += 1
        sp = self._sp
        sim = sp.sim
        sim._seq += 1
        if i == kernel.n:
            # Adaptive-policy feedback, kept per simulation (not on the
            # kernel class): steps covered per event this execution.
            self.env._adapt_ratio[type(kernel)] = i / self._batches
            cb = sp._resume_cb
        else:
            cb = self._cont_cb
        heappush(sim._queue, (sp.ctx.clock, sim._seq, cb))

    def _run(self) -> None:
        sp = self._sp
        proc = sp.ctx
        sim = sp.sim
        queue = sim._queue
        kernel = self.kernel
        env = self.env
        st = env._pstate
        rows = st.rows
        lidx = st.lidx
        proto = env._protocol
        read_fault = proto.read_fault
        write_fault = proto.write_fault
        touches = kernel.touches
        run_compute = proc.run_compute
        cost = kernel.cost
        cpu = cost.cpu_us
        mem = cost.mem_bytes
        n = kernel.n
        costs = proc._costs
        polling = proc._polling
        poll = costs.poll_check
        service = mem / costs.node_bus_bandwidth if mem > 0 else 0.0
        bus = proc.node.bus
        buckets = proc.stats.buckets
        i = self._i
        lo = i     # first uncommitted step (materialize floor)
        pend = i   # first step whose ingest is still deferred
        # Validated-page cache, scoped to this _run call: cleared on
        # entry (a continuation means foreign events ran and may have
        # downgraded permissions) and after every fault replay (the
        # protocol handlers mutate page-table state). Between those
        # points nothing else can run, so a page checked once at a
        # given need stays good — repeat touches skip the page-table
        # row lookup entirely.
        valid = self._valid
        valid.clear()
        vget = valid.get
        while True:
            # -- warm inner loop: consecutive steps whose touch lists
            # are fully satisfied charge with Processor.run_compute's
            # untraced arithmetic inlined over hoisted locals. The FP
            # operation sequence is identical add for add, so clocks,
            # buckets, and bus state stay bit-identical; hoisting is
            # sound because nothing else can run mid-batch (no event is
            # popped, and warm steps make no protocol calls, so the
            # queue — and therefore ``head`` — is frozen).
            c = proc.clock
            head = queue[0][0] if queue else _INF
            bu = buckets["user"]
            bp = buckets["polling"]
            bs = bus._b
            es = bus._e
            bb = bus.busy_time
            br = bus.total_requests
            dirty = False
            cold = False
            while True:
                for need, page in touches[i]:
                    if vget(page, 0) < need:
                        if rows[page][lidx] < need:
                            cold = True
                            break
                        valid[page] = need
                if cold:
                    break
                # inlined run_compute (cf. cluster/machine.py): cpu,
                # bus interval, polling — same branches, same order.
                if cpu > 0:
                    bu += cpu
                    c += cpu
                if mem > 0:
                    if not es or es[-1] <= c:
                        br += 1
                        bb += service
                        if service > 0:
                            if es and es[-1] == c:
                                es[-1] = c + service
                            else:
                                bs.append(c)
                                es.append(c + service)
                                if len(es) > 4096:
                                    del bs[:2048], es[:2048]
                            delta = c + service - c
                            bu += delta
                            c += delta
                    else:
                        # Clock behind the bus timeline: take the real
                        # queueing acquire (it keeps its own counters —
                        # sync the hoisted ones around the call).
                        bus.busy_time = bb
                        bus.total_requests = br
                        begin, end = bus.acquire(c, service)
                        delta = end - c
                        if delta > 0:
                            bu += delta
                            c += delta
                        bb = bus.busy_time
                        br = bus.total_requests
                if polling and poll > 0:
                    bp += poll
                    c += poll
                dirty = True
                i += 1
                if i == n or head <= c:
                    break
            if dirty:
                proc.clock = c
                buckets["user"] = bu
                buckets["polling"] = bp
                bus.busy_time = bb
                bus.total_requests = br
            if not cold:
                # Region finished, or another event is due at or before
                # our clock (it would run before the interpreter's next
                # step — same-time events carry smaller seq numbers):
                # commit everything batched so far and yield.
                self._commit(lo, pend, i)
                return
            # -- cold step: flush deferred ingests (its faults may
            # rewrite frames), then replay the real protocol faults at
            # the exact clock, in the order the interpreted body's
            # accesses would have taken them. A write touch on an
            # unwritable page takes write_fault regardless of whether
            # the page is mapped at all, like store_range.
            if pend < i:
                kernel.ingest_batch(pend, i)
            for need, page in touches[i]:
                if rows[page][lidx] < need:
                    if need is _WRITE:
                        write_fault(proc, st, page)
                    else:
                        read_fault(proc, st, page)
            valid.clear()  # fault handlers mutate page-table state
            kernel.ingest(i)
            run_compute(cpu, mem)
            i += 1
            pend = i
            if i == n or (queue and queue[0][0] <= proc.clock):
                self._commit(lo, pend, i)
                return
            # else: loop — re-hoist (faults may have posted events or
            # moved the bus timeline).
