"""SOR: Red-Black Successive Over-Relaxation (Section 3.2).

Solves a Laplace-like relaxation on a 2-D grid stored as separate red and
black arrays (each ``rows × cols/2``). The arrays are divided into bands
of contiguous rows, one band per processor; communication happens across
band boundaries, and processors synchronize with barriers after each
half-sweep. The paper ran 3072×4096 (50 Mbytes, 195 s sequential); we run
a scaled-down grid with the same structure.

SOR has a high computation-to-communication ratio but is memory-bound
(its data set does not fit in the second-level cache), which is why
increasing the number of processors per node *hurts*: capacity-miss
traffic saturates the node's shared bus (Section 3.3.3).
"""

from __future__ import annotations

import numpy as np

from .base import Application, split_range

#: CPU cost per grid element update (4 flops on a 233 MHz Alpha plus loop
#: overhead).
_FLOP_US = 30.0
#: Cache-miss bytes per element update (5 streams of 8-byte words; the
#: data set exceeds the 1 Mbyte board cache, so most traffic misses).
_MEM_BYTES = 1150.0


def _half_sweep(env, src, dst, rows, halfc: int, red: bool, acc, row_step):
    """One half-sweep of a processor's band: reads one color, writes the
    other, yielding ``row_step`` once per row. ``red=True`` is the
    red sweep (left neighbour pattern shifts one way; the black sweep
    shifts the other). ``acc`` is the scratch row (set_block copies out
    of it); the shifted-neighbour accumulation and the add/scale order
    match the obvious elementwise formula bit for bit: addition is
    commutative per element, and the grouping (((up+mid)+down)+left) is
    preserved.
    """
    get_block, set_block = env.get_block, env.set_block
    # Within one half-sweep no remote invalidation can arrive (writes
    # become visible only at the next barrier), so row r+1's up/mid
    # rows are byte-identical to row r's mid/down reads — slide the
    # three-row window instead of re-reading. The first touch of each
    # new row (the ``down`` read) happens at the same point in the
    # instruction stream as before, so the fault set and all timings
    # are unchanged.
    down = None
    for r in rows:
        base = r * halfc
        if down is None:
            up = get_block(src, base - halfc, base)
            mid = get_block(src, base, base + halfc)
        else:
            up, mid = mid, down
        down = get_block(src, base + halfc, base + 2 * halfc)
        np.add(up, mid, out=acc)
        acc += down
        if red:
            acc[0] += mid[0]
            acc[1:] += mid[:-1]
        else:
            acc[:-1] += mid[1:]
            acc[-1] += mid[-1]
        acc *= 0.25
        set_block(dst, base, acc)
        yield row_step


class SOR(Application):
    name = "SOR"
    paper_problem_size = "3072x4096 (50 Mbytes)"
    paper_seq_time_s = 195.0
    write_double_us = 47.0
    sync_style = "barriers"

    def default_params(self) -> dict:
        return {"rows": 130, "cols": 64, "iters": 10}

    def small_params(self) -> dict:
        return {"rows": 18, "cols": 16, "iters": 3}

    def declare(self, segment, params: dict) -> None:
        rows, halfc = params["rows"], params["cols"] // 2
        segment.alloc("red", rows * halfc)
        segment.alloc("black", rows * halfc)

    def worker(self, env, params: dict):
        rows, halfc = params["rows"], params["cols"] // 2
        iters = params["iters"]
        red, black = env.arr("red"), env.arr("black")

        # Initialization (rank 0): fixed boundary rows.
        if env.rank == 0:
            env.set_block(red, 0, np.full(halfc, 1.0))
            env.set_block(black, 0, np.full(halfc, 1.0))
            env.set_block(red, (rows - 1) * halfc, np.full(halfc, 2.0))
            env.set_block(black, (rows - 1) * halfc, np.full(halfc, 2.0))
            yield env.compute(2.0 * halfc * _FLOP_US, 4 * 8 * halfc)
        env.end_init()
        yield from env.barrier()

        lo, hi = split_range(rows - 2, env.nprocs, env.rank)
        my_rows = range(1 + lo, 1 + hi)
        # One Compute instruction per row, identical every time — the
        # instruction is frozen, so a single instance can be re-yielded.
        row_step = env.compute(halfc * _FLOP_US, halfc * _MEM_BYTES)
        acc = np.empty(halfc)
        for _ in range(iters):
            yield from _half_sweep(env, black, red, my_rows, halfc, True,
                                   acc, row_step)
            yield from env.barrier()
            yield from _half_sweep(env, red, black, my_rows, halfc, False,
                                   acc, row_step)
            yield from env.barrier()

    def result_arrays(self, params: dict):
        return ["red", "black"]
