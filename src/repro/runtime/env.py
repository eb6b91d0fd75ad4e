"""The worker environment: what application code sees.

An application worker is a generator taking a single ``env`` argument.
The same worker code runs in three settings:

* **parallel** — :class:`WorkerEnv`, backed by a coherence protocol on
  the simulated cluster (this module);
* **sequential** — :class:`~repro.runtime.sequential.SequentialEnv`,
  plain numpy arrays and a cost accumulator (the paper's uninstrumented
  sequential runs of Table 2).

Data access methods (``get``/``set``/``get_block``/``set_block``) are
plain calls; anything that can block — barriers, lock acquires, flag
waits — is a sub-generator the worker must delegate to with
``yield from``; compute blocks are yielded instructions:

    value = env.get(arr, i)
    env.set(arr, i, value + 1.0)
    yield env.compute(cpu_us=5.0, mem_bytes=256)
    yield from env.barrier()
    yield from env.acquire(0)
    ...critical section...
    env.release(0)
"""

from __future__ import annotations

import numpy as np

from ..cluster.machine import Processor
from ..lower.exec import LoweredRun
from ..sim.process import Compute
from .api import SharedArray

_INF = float("inf")


class WorkerEnv:
    """Per-processor handle used by application code (parallel runs)."""

    def __init__(self, runtime, proc: Processor) -> None:
        self._rt = runtime
        self.proc = proc
        self.rank = proc.global_id
        self.nprocs = runtime.cluster.num_procs
        self._protocol = runtime.protocol
        self._shift = runtime.config.page_shift - 3  # words per page shift
        self._mask = runtime.config.words_per_page - 1
        #: Uniform scale on all compute charges (the "_compute_scale"
        #: parameter): used for computation-to-communication sensitivity
        #: studies and by the calibration tooling.
        self._cscale = float(runtime.params.get("_compute_scale", 1.0))

        # --- inline page-access cache (software TLB) ---------------------
        # This processor's (page -> frame) read map and (page ->
        # memoryview) write map live in the owner's page table, which
        # evicts exactly the entry a permission tightening, frame unmap
        # or rebind kills (DESIGN.md §9); an entry that is present is
        # therefore valid, and a warm access needs no check beyond the
        # lookup. Warm accesses in the dispatch path charge nothing and
        # mutate no protocol state, so skipping it is byte-identical —
        # the paper's in-line check, minus the check.
        proto = runtime.protocol
        st = proto.proc_state(proc)
        #: Protocol-side per-processor state (page table row + frames);
        #: the lowered-region executor validates page permissions and
        #: replays faults against it (:mod:`repro.lower`).
        self._pstate = st
        self._frames = st.frames
        table = proto.tables[st.owner]
        self._rmap: dict[int, np.ndarray] = table.rmaps[st.lidx]
        #: The write map holds *memoryviews* of the frames: a memoryview
        #: slice/scalar store is several times cheaper than the
        #: equivalent ndarray ``__setitem__`` (no ufunc dispatch), and
        #: writes never need ndarray semantics on the destination.
        self._wmap: dict[int, memoryview] = table.wmaps[st.lidx]
        fast = getattr(runtime, "fastpath", True) and proto.tracer is None
        #: Read map filled: off when the correctness checker is attached
        #: (it must observe every per-word access).
        self._fast_read = fast
        #: Write map filled: additionally off under write-through (1L),
        #: whose ``store`` must keep doubling every write to the master.
        self._fast_write = fast and not getattr(proto, "write_through",
                                                False)
        #: Kernel lowering (:mod:`repro.lower`): the runtime switch
        #: already folds in the observers and fault injection; the
        #: fast-path requirements fold in the tracer and write-through
        #: protocols (1L must keep doubling every store to the master,
        #: so its writes cannot be batched into direct frame stores).
        self._lowering = (getattr(runtime, "lowering", False)
                          and self._fast_read and self._fast_write)
        #: Adaptive-lowering state of this *simulation*: the last
        #: measured steps-per-batch ratio per kernel class, shared by
        #: the run's environments and written by the region executor.
        self._adapt_ratio: dict[type, float] = \
            runtime.region_ratio if self._lowering else {}
        #: Region entries remaining (per kernel class) before the next
        #: interpreted schedule re-probes the batched executor.
        #: Populated only for kernel classes currently in the
        #: interpreting (degenerate-schedule) regime — the lowered
        #: steady state never touches it.
        self._region_probe: dict[type, int] = {}
        #: One reusable region instruction per kernel class: the
        #: single-element tuple ``run_region`` hands back as an iterator
        #: (see :meth:`_region_instruction`).
        self._region_runs: dict[type, tuple] = {}
        #: TLB hit/miss tally shared with the metrics collector — a
        #: two-element ``[hits, misses]`` list bumped by the counting
        #: closure variants below. None (and no counting code exists)
        #: unless a collector is attached.
        mcoll = getattr(runtime, "metrics", None)
        self._tlb = None if mcoll is None else mcoll.tlb
        self._build_fastpaths()

    def _build_fastpaths(self) -> None:
        """Compile the warm access paths as closures.

        The warm paths run for almost every access of a well-behaved
        application; binding every invariant (page geometry, the two
        maps) into closure cells replaces a chain of ``self`` attribute
        loads per call with fast local loads. Each closure handles
        exactly the warm case and falls back to the general method on
        the instance class for everything else, so behaviour is
        identical to the uncached path.
        """
        shift = self._shift
        mask = self._mask
        wpp = mask + 1
        rmap = self._rmap
        wmap = self._wmap
        slow_get = self.get
        slow_set = self.set
        slow_get_block = self.get_block
        slow_set_block = self.set_block
        mv_store = self._mv_store
        concatenate = np.concatenate

        def gather(page: int, last: int, off: int, end: int):
            """Private copy of word ``off`` of ``page`` through word
            ``end - 1`` of ``last`` (> ``page``); None unless every page
            of the span is in the read map."""
            parts = []
            for p in range(page, last + 1):
                frame = rmap.get(p)
                if frame is None:
                    return None
                parts.append(frame)
            parts[0] = parts[0][off:]
            parts[-1] = parts[-1][:end]
            return concatenate(parts)

        def scatter(page: int, last: int, off: int, values) -> bool:
            """Store ``values`` from word ``off`` of ``page`` into pages up
            to ``last`` (> ``page``). False, with nothing stored, unless
            every page is in the write map and ``values`` slices to
            float64 buffers (the first store raises otherwise)."""
            mvs = []
            for p in range(page, last + 1):
                mv = wmap.get(p)
                if mv is None:
                    return False
                mvs.append(mv)
            pos = wpp - off
            try:
                mvs[0][off:] = values[:pos]
                for mv in mvs[1:-1]:
                    mv[:] = values[pos:pos + wpp]
                    pos += wpp
                mvs[-1][:len(values) - pos] = values[pos:]
            except (ValueError, TypeError):
                return False
            return True

        def get(arr: SharedArray, i: int) -> float:
            w = arr.base + i
            frame = rmap.get(w >> shift)
            if frame is not None:
                return frame[w & mask]
            return slow_get(arr, i)

        def set_(arr: SharedArray, i: int, value: float) -> None:
            w = arr.base + i
            mv = wmap.get(w >> shift)
            if mv is not None:
                mv[w & mask] = value
                return
            slow_set(arr, i, value)

        def get_block(arr: SharedArray, lo: int, hi: int) -> np.ndarray:
            base = arr.base
            w0 = base + lo
            w1 = base + hi
            if w0 < w1:
                page = w0 >> shift
                last = (w1 - 1) >> shift
                if last == page:
                    frame = rmap.get(page)
                    if frame is not None:
                        off = w0 & mask
                        return frame[off:off + (w1 - w0)].copy()
                else:
                    out = gather(page, last, w0 & mask, ((w1 - 1) & mask) + 1)
                    if out is not None:
                        return out
            return slow_get_block(arr, lo, hi)

        def set_block(arr: SharedArray, lo: int,
                      values: np.ndarray) -> None:
            w = arr.base + lo
            end = w + len(values)
            if w < end:
                page = w >> shift
                last = (end - 1) >> shift
                if last == page:
                    mv = wmap.get(page)
                    if mv is not None:
                        mv_store(mv, w & mask, end - w, values)
                        return
                elif scatter(page, last, w & mask, values):
                    return
            slow_set_block(arr, lo, values)

        if self._tlb is not None:
            # Metrics attached: recompile the warm paths with inline
            # hit/miss tallying into the collector's shared cell. A
            # separate compilation (rather than a branch in the common
            # closures) keeps the metrics-off path free of any counting
            # code — same discipline as the observers themselves.
            tlb = self._tlb

            def get(arr: SharedArray, i: int) -> float:  # noqa: F811
                w = arr.base + i
                frame = rmap.get(w >> shift)
                if frame is not None:
                    tlb[0] += 1
                    return frame[w & mask]
                tlb[1] += 1
                return slow_get(arr, i)

            def set_(arr: SharedArray, i: int,  # noqa: F811
                     value: float) -> None:
                w = arr.base + i
                mv = wmap.get(w >> shift)
                if mv is not None:
                    tlb[0] += 1
                    mv[w & mask] = value
                    return
                tlb[1] += 1
                slow_set(arr, i, value)

            def get_block(arr: SharedArray, lo: int,  # noqa: F811
                          hi: int) -> np.ndarray:
                base = arr.base
                w0 = base + lo
                w1 = base + hi
                if w0 < w1:
                    page = w0 >> shift
                    last = (w1 - 1) >> shift
                    if last == page:
                        frame = rmap.get(page)
                        if frame is not None:
                            tlb[0] += 1
                            off = w0 & mask
                            return frame[off:off + (w1 - w0)].copy()
                    else:
                        out = gather(page, last, w0 & mask,
                                     ((w1 - 1) & mask) + 1)
                        if out is not None:
                            tlb[0] += 1
                            return out
                tlb[1] += 1
                return slow_get_block(arr, lo, hi)

            def set_block(arr: SharedArray, lo: int,  # noqa: F811
                          values: np.ndarray) -> None:
                w = arr.base + lo
                end = w + len(values)
                if w < end:
                    page = w >> shift
                    last = (end - 1) >> shift
                    if last == page:
                        mv = wmap.get(page)
                        if mv is not None:
                            tlb[0] += 1
                            mv_store(mv, w & mask, end - w, values)
                            return
                    elif scatter(page, last, w & mask, values):
                        tlb[0] += 1
                        return
                tlb[1] += 1
                slow_set_block(arr, lo, values)

        # Shadow the class methods on the instance; the class methods stay
        # as the general fallbacks (full dispatch, then refill).
        self.get = get
        self.set = set_
        self.get_block = get_block
        self.set_block = set_block

    # --- identity ------------------------------------------------------------

    @property
    def node_rank(self) -> int:
        return self.proc.node.id

    @property
    def words_per_page(self) -> int:
        return self._mask + 1

    @property
    def local_rank(self) -> int:
        return self.proc.local_id

    def arr(self, name: str) -> SharedArray:
        return self._rt.segment.array(name)

    # --- general access paths --------------------------------------------------
    # Cold: full protocol dispatch, then cache the mapping the dispatch
    # has just proved good (the page has a frame, this processor the
    # permission) — unless an observer or write-through keeps that map off.

    def get(self, arr: SharedArray, i: int) -> float:
        w = arr.base + i
        page = w >> self._shift
        value = self._protocol.load(self.proc, page, w & self._mask)
        if self._fast_read:
            self._rmap[page] = self._frames[page]
        return value

    def set(self, arr: SharedArray, i: int, value: float) -> None:
        w = arr.base + i
        page = w >> self._shift
        self._protocol.store(self.proc, page, w & self._mask, value)
        if self._fast_write:
            self._wmap[page] = memoryview(self._frames[page])

    def get_block(self, arr: SharedArray, lo: int, hi: int) -> np.ndarray:
        """Copy of words [lo, hi) of the array (page faults as needed).

        Always returns a private copy: the protocol's ``load_range``
        yields a live view of the owner's frame, and this method is the
        copying boundary that keeps application code from aliasing it.
        """
        w, w1 = arr.base + lo, arr.base + hi
        shift, mask = self._shift, self._mask
        wpp = mask + 1
        rmap = self._rmap
        out = np.empty(hi - lo, dtype=np.float64)
        pos = 0
        while w < w1:
            page = w >> shift
            off = w & mask
            take = min(wpp - off, w1 - w)
            frame = rmap.get(page)
            if frame is not None:
                out[pos:pos + take] = frame[off:off + take]
            else:
                out[pos:pos + take] = self._protocol.load_range(
                    self.proc, page, off, off + take)
                if self._fast_read:
                    rmap[page] = self._frames[page]
            pos += take
            w += take
        return out

    def set_block(self, arr: SharedArray, lo: int,
                  values: np.ndarray) -> None:
        """Write ``values`` at word offset ``lo`` (page faults as needed)."""
        w = arr.base + lo
        end = w + len(values)
        shift, mask = self._shift, self._mask
        wpp = mask + 1
        wmap = self._wmap
        pos = 0
        while w < end:
            page = w >> shift
            off = w & mask
            take = min(wpp - off, end - w)
            mv = wmap.get(page)
            if mv is not None:
                self._mv_store(mv, off, take, values[pos:pos + take])
            else:
                self._protocol.store_range(self.proc, page, off,
                                           values[pos:pos + take])
                if self._fast_write:
                    wmap[page] = memoryview(self._frames[page])
            pos += take
            w += take

    @staticmethod
    def _mv_store(mv: memoryview, off: int, n: int,
                  values: np.ndarray) -> None:
        """Store into a cached frame memoryview, casting when needed."""
        try:
            mv[off:off + n] = values
        except (ValueError, TypeError):
            mv[off:off + n] = np.ascontiguousarray(values, dtype=np.float64)

    # --- time ---------------------------------------------------------------------

    def compute(self, cpu_us: float, mem_bytes: float = 0.0) -> Compute:
        """A block of application computation; yield the returned object."""
        return Compute(cpu_us * self._cscale, mem_bytes * self._cscale)

    # --- lowered kernel regions -----------------------------------------------------

    def run_region(self, kernel):
        """Generator: execute one lowerable kernel region (:mod:`repro.lower`).

        Delegate with ``yield from env.run_region(kernel)``. When
        lowering is off (or the region is empty) this returns the
        kernel's per-step interpreter generator — the original loop,
        inlined byte-identically through generator delegation. When
        lowering is on it yields a single batched region instruction
        that the simulation layer drives (validating page permissions
        per step, replaying faults at the exact instants the
        interpreter would have faulted, and charging per-step compute
        costs with the same arithmetic).

        A region with no steps (``kernel.n == 0``) is skipped entirely,
        in both modes — the region-level equivalent of the ``if my_work:``
        guard workers used to wrap around their loops.

        The adaptive decision (:meth:`RegionKernel.want_lowered` is the
        reference form) is hoisted out of the hot path: in the lowered
        steady state the entry check is one lookup of the class's last
        measured steps-per-batch ratio — every batched execution
        refreshes it anyway, so no per-entry counter or probe
        bookkeeping is needed. The ratio belongs to the simulation
        (``ParallelRuntime.region_ratio``), never to the kernel class,
        so a cell takes the same path whatever ran before it in the
        process. Only the interpreting (degenerate lockstep-schedule)
        regime keeps a per-(env, kernel-class) countdown, re-probing
        the batched executor once every ``_adapt_probe`` region entries
        so a changed schedule can re-earn batching.
        """
        if kernel.n <= 0:
            return iter(())
        if self._lowering:
            cls = type(kernel)
            if self._adapt_ratio.get(cls, _INF) >= cls._adapt_threshold:
                return self._region_instruction(kernel)
            left = self._region_probe.get(cls, 0)
            if left <= 0:
                # Periodic probe: run batched once to re-measure.
                self._region_probe[cls] = cls._adapt_probe - 1
                return self._region_instruction(kernel)
            self._region_probe[cls] = left - 1
        return kernel.interp(self)

    def _region_instruction(self, kernel):
        """One batched region instruction, as an iterator — the cached
        equivalent of ``repro.lower.exec.region_instruction``. One
        LoweredRun per (env, kernel class) persists across executions
        and is re-aimed at the entering kernel (a tuple iterator over
        it is cheaper than a generator frame), so it pins at most the
        last kernel of each class — not every per-pivot kernel a worker
        ever built. Safe because a worker is sequential: the prior
        region execution finished (its commit pushed the worker's
        resume) before the worker could re-enter here.
        """
        cls = type(kernel)
        ri = self._region_runs.get(cls)
        if ri is None:
            ri = self._region_runs[cls] = (LoweredRun(kernel, self),)
        else:
            ri[0].reset(kernel)
        return iter(ri)

    # --- synchronization --------------------------------------------------------------

    def barrier(self):
        """Generator: global barrier (with arrival flush / departure acquire)."""
        return self._rt.barrier.wait(self.proc)

    def acquire(self, lock_id: int):
        """Generator: acquire application lock ``lock_id``."""
        return self._rt.lock(lock_id).acquire(self.proc)

    def release(self, lock_id: int) -> None:
        self._rt.lock(lock_id).release(self.proc)

    def flag_set(self, name: str, index: int, value: int = 1) -> None:
        self._rt.flags(name).set(self.proc, index, value)

    def flag_wait(self, name: str, index: int, value: int = 1):
        """Generator: wait for a flag, then acquire."""
        return self._rt.flags(name).wait(self.proc, index, value)

    def flag_peek(self, name: str, index: int) -> int:
        """Read a flag without blocking or acquiring (polling checks)."""
        return self._rt.flags(name).peek(self.proc, index)

    # --- phases --------------------------------------------------------------------------

    def end_init(self) -> None:
        """Mark the end of the initialization phase: arms first-touch home
        relocation (call on every rank; idempotent)."""
        self._protocol.end_initialization()

    @property
    def parallel(self) -> bool:
        return True
