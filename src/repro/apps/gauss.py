"""Gauss: Gaussian elimination with back-substitution (Section 3.2).

Solves A·x = b on the augmented matrix [A | b]. Rows are distributed
cyclically for load balance; each row is computed on by exactly one
processor. A per-row flag announces that the row is available to others
for use as a pivot (single producer, multiple consumers — the paper notes
this access pattern is ideally a broadcast, which is precisely what the
two-level protocols approximate by coalescing the per-node fetches of the
pivot row).

Rows are padded to page boundaries, matching the paper's geometry (a
2046-element row is exactly two 8 Kbyte pages): rows of different owners
never share a page, so — as in the paper's Table 3 — Gauss produces no
shootdowns under 2LS. Gauss remains matrix-bound like SOR: its working
set misses the second-level cache, so clustering costs node-bus
bandwidth. The paper ran 2046×2046 (33 Mbytes, 953.7 s sequential).
"""

from __future__ import annotations

import numpy as np

from .base import Application

#: CPU cost per multiply-add of row elimination.
_FLOP_US = 0.54
#: Cache-miss bytes per element touched (streaming rows, cache-hostile).
_MEM_BYTES = 90.0


class Gauss(Application):
    name = "Gauss"
    paper_problem_size = "2046x2046 (33 Mbytes)"
    paper_seq_time_s = 953.7
    sync_style = "flags"
    write_double_us = 4.5

    def default_params(self) -> dict:
        return {"n": 224}

    def small_params(self) -> dict:
        return {"n": 24}

    def flags_needed(self, params: dict) -> dict[str, int]:
        return {"pivot": params["n"], "solved": 1}

    @staticmethod
    def _row_stride(n: int, words_per_page: int) -> int:
        """Augmented rows (n coefficients + the RHS element) padded to page
        boundaries, as at the paper's scale: rows of different owners
        never share a page."""
        return ((n + 1 + words_per_page - 1)
                // words_per_page) * words_per_page

    def declare(self, segment, params: dict) -> None:
        n = params["n"]
        stride = self._row_stride(n, segment.config.words_per_page)
        segment.alloc("A", n * stride)  # augmented: row i's RHS at col n
        segment.alloc("x", n)

    def worker(self, env, params: dict):
        n = params["n"]
        stride = self._row_stride(n, env.words_per_page)
        A, x = env.arr("A"), env.arr("x")
        me, nprocs = env.rank, env.nprocs

        if me == 0:
            for i in range(n):
                row = np.empty(n + 1)
                row[:n] = ((np.arange(n) * 11 + i * 17) % 19 - 9) / 19.0
                row[i] += n
                row[n] = ((i * 5 + 3) % 13) / 13.0  # RHS
                env.set_block(A, i * stride, row)
            yield env.compute(n * n * 0.002, n * n * 8 * 0.2)
        env.end_init()
        yield from env.barrier()

        my_rows = list(range(me, n, nprocs))
        get_block, set_block = env.get_block, env.set_block
        # Pipelined elimination: process pivots in order; when the pivot
        # index reaches one of our rows, that row is final — announce it.
        for k in range(n):
            if k % nprocs == me:
                env.flag_set("pivot", k)
            else:
                yield from env.flag_wait("pivot", k)
            # Pivot row columns k..n-1 plus its RHS element.
            pivot_row = get_block(A, k * stride + k, k * stride + n + 1)
            pivot_diag = pivot_row[0]
            m = n - k
            row_step = env.compute(2 * m * _FLOP_US, m * _MEM_BYTES)
            for i in my_rows:
                if i <= k:
                    continue
                row = get_block(A, i * stride + k, i * stride + n + 1)
                factor = row[0] / pivot_diag
                row -= factor * pivot_row  # the RHS transforms identically
                row[0] = 0.0
                set_block(A, i * stride + k, row)
                yield row_step

        yield from env.barrier()
        # Back-substitution on processor 0 (a small serial tail).
        if me == 0:
            sol = np.zeros(n)
            for i in range(n - 1, -1, -1):
                row = env.get_block(A, i * stride + i, i * stride + n + 1)
                s = row[n - i] - float(row[1:n - i] @ sol[i + 1:])
                sol[i] = s / row[0]
                yield env.compute(2 * (n - i) * _FLOP_US, (n - i) * 8.0)
            env.set_block(x, 0, sol)
            env.flag_set("solved", 0)
        else:
            yield from env.flag_wait("solved", 0)

    def result_arrays(self, params: dict):
        return ["A", "x"]
