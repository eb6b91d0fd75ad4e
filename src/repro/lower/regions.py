"""Stage 2: region kernels — the compiled form of a lowerable loop.

A :class:`RegionKernel` packages one sync-free worker loop region twice:

* ``interp(env)`` — the original per-step generator loop, byte-identical
  to the pre-lowering worker code. This is the ground truth: the
  fallback the runtime uses whenever lowering is off (observers, fault
  injection, write-through protocols, ``CASHMERE_NO_LOWERING``) and the
  reference the parity tests diff the batched path against. Stage 1
  (:mod:`.analyze`) proves this body sync-free once per class.
* the **descriptor** — per-step ordered first-touch page lists
  (``touches``), a fixed per-step :class:`~repro.sim.process.Compute`
  cost (``cost``), and the staged data hooks ``ingest`` (copy a step's
  newly-validated input spans out of the page frames at the instant the
  interpreter would have read them) and ``materialize`` (write a run of
  steps' results back through the frames in one vectorized operation).

The split matters for correctness under concurrency: input values are
*ingested* per step at validation time — the simulated instant the
interpreted ``get_block`` would have copied them — so a later
invalidation or remap of those pages cannot leak into the batch;
results are *materialized* before the executor ever yields to another
simulation event, so no foreign event can observe (or shoot down) a
half-committed region. Writes go straight into the frames: with the
write cache on (the only configuration that lowers), a warm interpreted
``set_block`` is exactly a frame store, so the values and the protocol
state agree bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..vm.page import Perm
from .analyze import check_kernel_class

#: Permission levels the touch lists request (re-exported so kernels and
#: the executor share one spelling).
READ = Perm.READ
WRITE = Perm.WRITE


@dataclass(frozen=True)
class RegionDescriptor:
    """What one compiled region will do — introspection/reporting form."""

    n: int
    cpu_us: float
    mem_bytes: float
    pages_read: tuple[int, ...]
    pages_written: tuple[int, ...]
    #: Serialized per-step first-touch lists, ``((need, page), ...)``
    #: per step with ``need`` as the integer Perm value — hashable and
    #: JSON-friendly, parsed back with :meth:`to_touches`.
    touches: tuple[tuple[tuple[int, int], ...], ...] = ()

    def to_touches(self) -> list[list[tuple[Perm, int]]]:
        """The exact per-step ``(need, page)`` lists the executor
        replays (the inverse of :meth:`RegionKernel.describe`)."""
        return [[(Perm(need), page) for need, page in step]
                for step in self.touches]


class RegionKernel:
    """One lowerable sync-free loop region of a worker kernel.

    Subclasses set, in ``__init__`` (after calling ``super().__init__``):

    * ``n`` — the number of super-steps (loop iterations);
    * ``cost`` — the per-step ``Compute`` instruction (build it with
      ``env.compute(...)`` so the compute-scale parameter applies);
    * when ``self.lowerable`` — ``touches``: a list of ``n`` per-step
      sequences of ``(need, page)`` pairs, in the exact order the
      interpreted body first touches each page at that step (``need``
      is :data:`READ` or :data:`WRITE`), plus whatever staging buffers
      ``ingest``/``materialize`` use.

    ``interp(env)`` must reproduce the original loop exactly; the
    executor's per-step fault replay is equivalent only because the
    touch lists mirror that body's access order.
    """

    n: int = 0
    cost = None
    touches: list = []

    #: Adaptive policy: batching only pays when the event horizon
    #: actually lets steps coalesce (see :meth:`want_lowered`). These two
    #: are the *detached* state the reference form below keeps on the
    #: class; a simulation never touches them — its executor records the
    #: measured ratio on the runtime (``ParallelRuntime.region_ratio``),
    #: so which path a cell takes cannot depend on earlier runs in the
    #: process.
    _adapt_execs = 0
    _adapt_ratio = float("inf")
    #: Mean steps-per-batch below which interpretation is cheaper than
    #: the batched executor (measured: break-even ≈ 2 on SOR rows).
    _adapt_threshold = 2.0
    #: Re-probe cadence: every Nth execution runs lowered regardless, so
    #: a phase whose schedule skew changes (stragglers, imbalance) can
    #: re-earn batching. 64 keeps the probe tax under ~2% of a fully
    #: lockstep run while still re-detecting within one app iteration
    #: (32 processors x 2 sweeps probe every half-iteration).
    _adapt_probe = 64

    def __init__(self, env) -> None:
        cls = type(self)
        if "_lower_report" not in cls.__dict__:
            cls._lower_report = check_kernel_class(cls)
        self.env = env
        #: Whether this environment runs the batched executor; kernels
        #: build touch lists and staging buffers only when set.
        self.lowerable = bool(getattr(env, "_lowering", False))

    # --- adaptive policy --------------------------------------------------

    def want_lowered(self) -> bool:
        """Whether the batched executor is expected to beat the
        interpreter for the next execution of this region class.

        In a lockstep-contended schedule (all processors' events
        interleaved step by step) the horizon check bounds every batch
        at one step and the batched machinery is pure overhead; the
        interpreter is byte-identical, so falling back is free. The
        decision uses the class's last measured steps-per-batch ratio,
        with a periodic probe so changed schedules are re-detected.

        This is the *reference* form of the policy, with its state on
        the class. The runtime hot path (``WorkerEnv.run_region``)
        inlines an equivalent hoisted decision over per-simulation
        state — a bare ratio-vs-threshold compare in the lowered steady
        state, with the probe countdown kept per (env, kernel class)
        and only in the interpreting regime — so no per-entry counter
        increment or modulo runs on lockstep schedules.
        """
        cls = type(self)
        k = cls._adapt_execs
        cls._adapt_execs = k + 1
        if k % cls._adapt_probe == 0:
            return True
        return cls._adapt_ratio >= cls._adapt_threshold

    def note_execution(self, steps: int, batches: int) -> None:
        """Feedback for the reference form: one region execution took
        ``batches`` events to cover ``steps`` super-steps."""
        type(self)._adapt_ratio = steps / batches if batches else float("inf")

    # --- stage-3 hooks (batched execution) --------------------------------

    def begin(self) -> None:
        """Reset per-execution state; called once per region execution."""

    def ingest(self, i: int) -> None:
        """Copy step ``i``'s newly-readable input spans out of the page
        frames (runs right after step ``i``'s fault replay, i.e. at the
        simulated instant the interpreted body would have read them)."""

    def ingest_batch(self, lo: int, hi: int) -> None:
        """Ingest steps ``[lo, hi)`` at once. The executor defers warm
        steps' ingests to batch boundaries: sound because no event (and
        no fault) runs between a warm step and its batch boundary, so
        the frames hold the same bytes a per-step copy would have seen.
        Kernels whose input spans are contiguous across steps should
        override this with one vectorized copy."""
        for i in range(lo, hi):
            self.ingest(i)

    def materialize(self, lo: int, hi: int) -> None:
        """Commit the results of steps ``[lo, hi)`` to the page frames,
        bit-identical to what ``interp`` would have written."""
        raise NotImplementedError

    def interp(self, env):
        """The original per-step loop (generator); the ground truth."""
        raise NotImplementedError

    # --- introspection ----------------------------------------------------

    def describe(self) -> RegionDescriptor:
        reads: set[int] = set()
        writes: set[int] = set()
        for step in self.touches:
            for need, page in step:
                (writes if need >= WRITE else reads).add(page)
        cost = self.cost
        return RegionDescriptor(
            n=self.n,
            cpu_us=cost.cpu_us if cost is not None else 0.0,
            mem_bytes=cost.mem_bytes if cost is not None else 0.0,
            pages_read=tuple(sorted(reads)),
            pages_written=tuple(sorted(writes)),
            touches=tuple(tuple((int(need), page) for need, page in step)
                          for step in self.touches))

    # --- span helpers for subclasses --------------------------------------

    def span_pages(self, arr, lo: int, hi: int) -> list[int]:
        """Page ids covered by words ``[lo, hi)`` of ``arr``, ascending —
        the order ``get_block``/``set_block`` fault them."""
        shift = self.env._shift
        w0 = arr.base + lo
        w1 = arr.base + hi
        if w1 <= w0:
            return []
        return list(range(w0 >> shift, ((w1 - 1) >> shift) + 1))

    def read_span(self, arr, lo: int, hi: int, out: np.ndarray) -> None:
        """Copy words ``[lo, hi)`` of ``arr`` from the frames into ``out``."""
        env = self.env
        frames = env._frames
        shift, mask = env._shift, env._mask
        wpp = mask + 1
        w = arr.base + lo
        w1 = arr.base + hi
        pos = 0
        while w < w1:
            page = w >> shift
            off = w & mask
            take = min(wpp - off, w1 - w)
            out[pos:pos + take] = frames[page][off:off + take]
            pos += take
            w += take

    def write_span(self, arr, lo: int, values: np.ndarray) -> None:
        """Store ``values`` at word offset ``lo`` of ``arr`` via the frames."""
        env = self.env
        frames = env._frames
        shift, mask = env._shift, env._mask
        wpp = mask + 1
        w = arr.base + lo
        w1 = w + len(values)
        pos = 0
        while w < w1:
            page = w >> shift
            off = w & mask
            take = min(wpp - off, w1 - w)
            frames[page][off:off + take] = values[pos:pos + take]
            pos += take
            w += take
