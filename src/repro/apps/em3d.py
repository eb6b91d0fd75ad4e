"""Em3d: electromagnetic wave propagation in 3-D objects (Section 3.2).

A bipartite graph of electric (E) and magnetic (H) field nodes: each
iteration updates every E node from its dependent H nodes, a barrier,
then every H node from its dependent E nodes. Nodes are distributed in
equal contiguous shares; with the standard input, dependencies reach only
into the owner's or neighboring processors' shares, so communication is
boundary exchange — like SOR, but with a far lower
computation-to-communication ratio, which is why Em3d gains ~22% from the
two-level protocols and improves with clustering under them
(Sections 3.3.2-3.3.3). The paper ran 60106 nodes (49 Mbytes, 161.4 s).
"""

from __future__ import annotations

import numpy as np

from .base import Application, split_range

#: CPU cost per dependency multiply-add — Em3d does almost no math per
#: word communicated.
_FLOP_US = 8.0
#: Cache-miss bytes per node update (graph values stream through).
_MEM_BYTES = 64.0

#: Dependency stencil: offsets into the other field's array.
_OFFSETS = (-2, -1, 0, 1)
_WEIGHTS = (0.17, 0.23, 0.31, 0.29)


def _gather(block: np.ndarray, count: int) -> np.ndarray:
    """New values for ``count`` nodes from a source block covering their
    ``[lo-2, hi+2)`` neighborhood (edge-clamped: out-of-range lanes are
    zero)."""
    out = np.zeros(count)
    for off, w in zip(_OFFSETS, _WEIGHTS):
        out += w * block[2 + off:2 + off + count]
    return out


def _update(env, src, dst, lo: int, hi: int, blo: int, bhi: int) -> None:
    """One field update (E from H, or H from E) of nodes ``[lo, hi)``:
    read the ``src`` neighborhood ``[blo, bhi)`` and the old ``dst``
    share, then write the new share."""
    block = np.zeros(hi - lo + 4)
    block[blo - (lo - 2):bhi - (lo - 2)] = env.get_block(src, blo, bhi)
    new = env.get_block(dst, lo, hi) - 0.1 * _gather(block, hi - lo)
    env.set_block(dst, lo, new)


class Em3d(Application):
    name = "Em3d"
    paper_problem_size = "60106 nodes (49 Mbytes)"
    paper_seq_time_s = 161.4
    sync_style = "barriers"

    def default_params(self) -> dict:
        return {"nodes": 1024, "iters": 8}

    def small_params(self) -> dict:
        return {"nodes": 128, "iters": 3}

    def declare(self, segment, params: dict) -> None:
        n = params["nodes"]
        segment.alloc("e", n)
        segment.alloc("h", n)

    def worker(self, env, params: dict):
        n, iters = params["nodes"], params["iters"]
        e, h = env.arr("e"), env.arr("h")
        me, nprocs = env.rank, env.nprocs

        if me == 0:
            env.set_block(e, 0, np.sin(np.arange(n) * 0.37) + 1.0)
            env.set_block(h, 0, np.cos(np.arange(n) * 0.53))
            yield env.compute(n * 0.01, n * 8 * 0.2)
        env.end_init()
        yield from env.barrier()

        lo, hi = split_range(n, nprocs, me)
        count = hi - lo
        # Neighborhood bounds, clamped at the array edges.
        blo, bhi = max(0, lo - 2), min(n, hi + 2)
        phase_step = env.compute(count * len(_OFFSETS) * _FLOP_US,
                                 count * _MEM_BYTES)
        for _ in range(iters):
            if count:
                _update(env, h, e, lo, hi, blo, bhi)
                yield phase_step
            yield from env.barrier()
            if count:
                _update(env, e, h, lo, hi, blo, bhi)
                yield phase_step
            yield from env.barrier()

    def result_arrays(self, params: dict):
        return ["e", "h"]
