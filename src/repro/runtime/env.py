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

import weakref

import numpy as np

from ..cluster.machine import Processor
from ..sim.process import Compute
from .api import SharedArray


def _counted(fn, tally: list[int], slot: int):
    """``fn``, bumping ``tally[slot]`` on every call."""
    def counted(*args):
        tally[slot] += 1
        return fn(*args)
    return counted


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
        # memoryview) write map live in the owner's record, whose
        # mutators evict exactly the entry a permission tightening, frame
        # unmap or rebind kills (DESIGN.md §9); an entry that is present is
        # therefore valid, and a warm access needs no check beyond the
        # lookup. Warm accesses in the dispatch path charge nothing and
        # mutate no protocol state, so skipping it is byte-identical —
        # the paper's in-line check, minus the check.
        proto = runtime.protocol
        st = proto.proc_state(proc)
        self._frames = st.frames
        record = proto.owners[st.owner]
        self._rmap: dict[int, np.ndarray] = record.rmaps[st.lidx]
        #: The write map holds *memoryviews* of the frames: a memoryview
        #: slice/scalar store is several times cheaper than the
        #: equivalent ndarray ``__setitem__`` (no ufunc dispatch), and
        #: writes never need ndarray semantics on the destination.
        self._wmap: dict[int, memoryview] = record.wmaps[st.lidx]
        #: The owner's memory: a block whose pages are all mapped to
        #: their own slots in it is one slice.
        self._backing: np.ndarray = record.backing
        fast = runtime.config.fastpath and proto.checker is None
        #: Read map filled: off when the correctness checker is attached
        #: (it must observe every per-word access).
        self._fast_read = fast
        #: Write map filled: additionally off under write-through (1L),
        #: whose ``store`` must keep doubling every write to the master.
        self._fast_write = fast and not proto.write_through
        metrics = runtime.metrics
        self._build_fastpaths(None if metrics is None else metrics.tlb)

    def _build_fastpaths(self, tlb: list[int] | None) -> None:
        """Compile the warm access paths as closures.

        The warm paths run for almost every access of a well-behaved
        application; binding every invariant (page geometry, the two
        maps, the owner's memory) into closure cells replaces a chain of
        ``self`` attribute loads per call with fast local loads. Each
        closure handles exactly the warm case and falls back to the
        general method on the instance class for everything else, so
        behaviour is identical to the uncached path.

        A block spanning several pages is one slice of the owner's
        memory when every page of it is mapped to that memory's own
        slot (``.base is backing``); a page mapped elsewhere — the
        one-level master under the home-node optimization — falls back.

        ``tlb`` is the metrics collector's ``[accesses, fallbacks]``
        cell, or None when no collector is attached. When given, each
        closure and each fallback is wrapped in a counter for its slot,
        so the hit count is accesses minus fallbacks and the closures
        themselves carry no counting code.
        """
        shift = self._shift
        mask = self._mask
        rmap = self._rmap
        wmap = self._wmap
        backing = self._backing
        # The closures are stored on this env, so they reach it only
        # through a weak reference: holding it, or a bound method of it,
        # would make a cycle that keeps the env, its runtime and the
        # protocol's memory alive after the run until a garbage-collector
        # pass (DESIGN.md §10). The general methods come off the class.
        env = weakref.ref(self)
        cls = type(self)
        slow_get = cls.get
        slow_set = cls.set
        slow_get_block = cls.get_block
        slow_set_block = cls.set_block
        if tlb is not None:
            slow_get, slow_set, slow_get_block, slow_set_block = (
                _counted(fn, tlb, 1)
                for fn in (slow_get, slow_set, slow_get_block,
                           slow_set_block))
        mv_store = self._mv_store

        def get(arr: SharedArray, i: int) -> float:
            w = arr.base + i
            frame = rmap.get(w >> shift)
            if frame is not None:
                return frame[w & mask]
            return slow_get(env(), arr, i)

        def set_(arr: SharedArray, i: int, value: float) -> None:
            w = arr.base + i
            mv = wmap.get(w >> shift)
            if mv is not None:
                mv[w & mask] = value
                return
            slow_set(env(), arr, i, value)

        def get_block(arr: SharedArray, lo: int, hi: int) -> np.ndarray:
            if 0 <= lo < hi <= arr.length:
                w0 = arr.base + lo
                w1 = arr.base + hi
                page = w0 >> shift
                last = (w1 - 1) >> shift
                frame = rmap.get(page)
                if frame is not None:
                    if last == page:
                        off = w0 & mask
                        return frame[off:off + (w1 - w0)].copy()
                    if frame.base is backing:
                        for p in range(page + 1, last + 1):
                            frame = rmap.get(p)
                            if frame is None or frame.base is not backing:
                                break
                        else:
                            return backing[w0:w1].copy()
            return slow_get_block(env(), arr, lo, hi)

        def set_block(arr: SharedArray, lo: int,
                      values: np.ndarray) -> None:
            n = len(values)
            if 0 <= lo and 0 < n <= arr.length - lo:
                w = arr.base + lo
                end = w + n
                page = w >> shift
                last = (end - 1) >> shift
                mv = wmap.get(page)
                if mv is not None:
                    if last == page:
                        mv_store(mv, w & mask, n, values)
                        return
                    if mv.obj.base is backing:
                        for p in range(page + 1, last + 1):
                            mv = wmap.get(p)
                            if mv is None or mv.obj.base is not backing:
                                break
                        else:
                            backing[w:end] = values
                            return
            slow_set_block(env(), arr, lo, values)

        if tlb is not None:
            get, set_, get_block, set_block = (
                _counted(fn, tlb, 0)
                for fn in (get, set_, get_block, set_block))

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
        if not 0 <= lo <= hi <= arr.length:
            raise arr.block_error(lo, hi)
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
        hi = lo + len(values)
        if not 0 <= lo <= hi <= arr.length:
            raise arr.block_error(lo, hi)
        w, end = arr.base + lo, arr.base + hi
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
