"""LU: blocked dense LU factorization from SPLASH-2 (Section 3.2).

Factors A = L·U (no pivoting; the generated matrix is diagonally
dominant). The matrix is stored block-major — each B×B block contiguous —
for temporal and spatial locality, and each block is owned by one
processor in a 2-D scatter; owners perform all computation on their
blocks. Barriers separate the diagonal-factor, perimeter, and interior
phases of each step.

LU's blocks map cleanly onto pages, so interior blocks spend their life
in exclusive mode and are "stolen" in bursts right after a pivot step —
the access pattern behind the one-level protocols' clustering collapse
(Section 3.3.3: explicit exclusive-break requests pile onto one node).
The paper ran 2046×2046 (33 Mbytes, 254.8 s sequential).
"""

from __future__ import annotations

from bisect import bisect_left
from math import gcd

import numpy as np

from ..errors import ConfigError
from .base import Application

#: CPU cost per multiply-add in the blocked kernels.
_FLOP_US = 110.0
#: Cache-miss bytes per block operation: blocked layout keeps the working
#: set in cache, so traffic is a small fraction of the data touched.
_MEM_FRACTION = 0.15


def _factor_diag(blk: np.ndarray) -> None:
    """In-place LU of a diagonal block (unit lower-triangular L)."""
    n = blk.shape[0]
    for j in range(n):
        blk[j + 1:, j] /= blk[j, j]
        blk[j + 1:, j + 1:] -= np.outer(blk[j + 1:, j], blk[j, j + 1:])


def _bdiv(blk: np.ndarray, diag: np.ndarray) -> None:
    """Perimeter column block: blk := blk · U_kk^-1."""
    n = blk.shape[0]
    for j in range(n):
        blk[:, j] -= blk[:, :j] @ diag[:j, j]
        blk[:, j] /= diag[j, j]


def _bmodd(blk: np.ndarray, diag: np.ndarray) -> None:
    """Perimeter row block: blk := L_kk^-1 · blk (L unit lower)."""
    n = blk.shape[0]
    for i in range(n):
        blk[i, :] -= diag[i, :i] @ blk[:i, :]


def _own_blocks(me: int, nb: int, nprocs: int) -> list[tuple[int, int]]:
    """Blocks ``(I, J)`` of an ``nb`` x ``nb`` grid that processor ``me``
    owns under :meth:`LU._owner`, row-major: the full scan's order, at
    O(nb + own blocks) cost. In row ``I`` they are the ``J`` with
    ``3J = me - I (mod nprocs)``: none unless ``g = gcd(3, nprocs)``
    divides ``me - I``, else every ``nprocs / g``-th column from the
    solution mod ``nprocs / g``."""
    g = gcd(3, nprocs)
    step = nprocs // g
    inverse = pow(3 // g, -1, step)
    own = []
    for I in range(nb):
        d = (me - I) % nprocs
        if d % g == 0:
            own += [(I, J) for J in range(d // g * inverse % step, nb, step)]
    return own


class LU(Application):
    name = "LU"
    paper_problem_size = "2046x2046 (33 Mbytes)"
    paper_seq_time_s = 254.8
    write_double_us = 1150.0
    sync_style = "barriers"

    def default_params(self) -> dict:
        return {"n": 192, "block": 12}

    def small_params(self) -> dict:
        return {"n": 32, "block": 8}

    def declare(self, segment, params: dict) -> None:
        n, block = params["n"], params["block"]
        if n % block:
            raise ConfigError(f"LU matrix size n={n} must be a multiple of "
                              f"block={block}")
        segment.alloc("A", n * n)

    # --- block addressing -----------------------------------------------------

    @staticmethod
    def _block_base(I: int, J: int, nb: int, B: int) -> int:
        return (I * nb + J) * B * B

    @staticmethod
    def _owner(I: int, J: int, nprocs: int) -> int:
        return (I + J * 3) % nprocs

    def _get_block(self, env, A, I, J, nb, B) -> np.ndarray:
        base = self._block_base(I, J, nb, B)
        return env.get_block(A, base, base + B * B).reshape(B, B)

    def _set_block(self, env, A, I, J, nb, B, blk) -> None:
        base = self._block_base(I, J, nb, B)
        env.set_block(A, base, blk.reshape(B * B))

    # --- worker ------------------------------------------------------------------

    def worker(self, env, params: dict):
        n, B = params["n"], params["block"]
        nb = n // B
        A = env.arr("A")
        flops_diag = B * B * B / 3.0
        flops_block = B * B * B
        mem_block = 3 * B * B * 8 * _MEM_FRACTION
        interior_step = env.compute(2 * flops_block * _FLOP_US, mem_block)

        if env.rank == 0:
            # Deterministic diagonally dominant matrix, written block-major.
            for I in range(nb):
                for J in range(nb):
                    blk = np.empty((B, B))
                    for bi in range(B):
                        i = I * B + bi
                        row = (np.arange(J * B, (J + 1) * B) * 7 + i * 13) \
                            % 23 - 11.0
                        blk[bi] = row / 23.0
                        if I == J:
                            blk[bi, bi] += n
                    self._set_block(env, A, I, J, nb, B, blk)
            yield env.compute(n * n * _FLOP_US * 0.1, n * n * 8 * 0.2)
        env.end_init()
        yield from env.barrier()

        me, nprocs = env.rank, env.nprocs
        own = _own_blocks(me, nb, nprocs)
        for k in range(nb):
            # Phase 1: factor the diagonal block.
            if self._owner(k, k, nprocs) == me:
                diag = self._get_block(env, A, k, k, nb, B)
                _factor_diag(diag)
                self._set_block(env, A, k, k, nb, B, diag)
                yield env.compute(flops_diag * _FLOP_US, mem_block)
            yield from env.barrier()

            # Own blocks in row k, then below it (row-major, so each
            # loop below visits them in the full scan's order).
            row_k = bisect_left(own, (k,))
            below = bisect_left(own, (k + 1,))

            # Phase 2: perimeter blocks.
            diag = None
            for _, j in own[row_k:below]:
                if j <= k:
                    continue
                if diag is None:
                    diag = self._get_block(env, A, k, k, nb, B)
                blk = self._get_block(env, A, k, j, nb, B)
                _bmodd(blk, diag)
                self._set_block(env, A, k, j, nb, B, blk)
                yield env.compute(flops_block * _FLOP_US / 2, mem_block)
            for i, j in own[below:]:
                if j != k:
                    continue
                if diag is None:
                    diag = self._get_block(env, A, k, k, nb, B)
                blk = self._get_block(env, A, i, k, nb, B)
                _bdiv(blk, diag)
                self._set_block(env, A, i, k, nb, B, blk)
                yield env.compute(flops_block * _FLOP_US / 2, mem_block)
            yield from env.barrier()

            # Phase 3: interior updates; a pivot-row or pivot-column
            # block is fetched at the first owned block that needs it,
            # then served from these caches.
            row_cache: dict[int, np.ndarray] = {}
            col_cache: dict[int, np.ndarray] = {}
            for i, j in own[below:]:
                if j <= k:
                    continue
                if i not in col_cache:
                    col_cache[i] = self._get_block(env, A, i, k, nb, B)
                if j not in row_cache:
                    row_cache[j] = self._get_block(env, A, k, j, nb, B)
                blk = self._get_block(env, A, i, j, nb, B)
                blk -= col_cache[i] @ row_cache[j]
                self._set_block(env, A, i, j, nb, B, blk)
                yield interior_step
            yield from env.barrier()

    def result_arrays(self, params: dict):
        return ["A"]
