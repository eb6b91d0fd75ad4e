"""Water: molecular dynamics from SPLASH-1 (Section 3.2).

An N-body molecular simulation. The shared molecule array is divided into
equal contiguous chunks, one per processor. Each timestep computes
pairwise intermolecular forces — each processor handles the pairs
(i, j) with i in its chunk and j in the following half of the array
(wrapping) — accumulating contributions locally and then adding them into
the shared force array under per-chunk locks. This lock-protected
accumulation produces the *migratory* sharing pattern the paper
highlights, and (with chunk boundaries falling inside pages) the false
sharing that makes Water the one application where flush-updates,
incoming diffs, and shootdowns actually occur (Table 3). The paper ran
4096 molecules (4 Mbytes, 1847.6 s sequential).

The pair potential here is a simplified soft inverse-square interaction;
the lock/communication structure — not the chemistry — is what the
evaluation depends on.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .base import Application, split_range

#: CPU cost per pairwise interaction (the real Water does substantial
#: math per pair: O(100) flops for the water potential).
_PAIR_US = 352.0
#: Cache-miss bytes per pair (molecule records are compact; Water's data
#: set fits caches far better than SOR/Gauss).
_PAIR_MEM = 110.0
_DT = 0.002


class _Chunks(NamedTuple):
    """The chunk layout of one ``(mols, nprocs)`` run: processor ``r``
    owns molecules ``bounds[r]``; ``starts``/``ends`` hold the same
    bounds as read-only arrays for the vectorised hot-chunk test."""
    bounds: tuple[tuple[int, int], ...]
    starts: np.ndarray
    ends: np.ndarray


@lru_cache(maxsize=8)
def _chunk_layout(mols: int, nprocs: int) -> _Chunks:
    """The rank-invariant chunk table, built once and shared by every
    rank (immutable: a tuple and two read-only arrays)."""
    bounds = tuple(split_range(mols, nprocs, r) for r in range(nprocs))
    # Arrays over immutable bytes: read-only, and they cannot be made
    # writeable again.
    starts, ends = (np.frombuffer(np.array(column, dtype=np.intp).tobytes(),
                                  dtype=np.intp)
                    for column in zip(*bounds))
    return _Chunks(bounds, starts, ends)


def _hot_chunks(acc: np.ndarray, chunks: _Chunks) -> np.ndarray:
    """Per chunk, whether any of its rows of ``acc`` is nonzero (NaN
    counts; -0.0 does not): one ``np.any`` per chunk, vectorised. An
    empty chunk is never hot."""
    nonzero = np.zeros(len(acc) + 1, dtype=np.intp)
    np.cumsum(acc.any(axis=1), out=nonzero[1:])
    return nonzero[chunks.ends] > nonzero[chunks.starts]


def _forces(all_pos: np.ndarray, lo: int, hi: int) -> tuple[np.ndarray, int]:
    """Pairwise forces of molecules ``[lo, hi)`` on the following half of
    the array (wrapping): the processor's contribution to every
    molecule and the number of pairs. Every scratch array dies here."""
    n = len(all_pos)
    half = n // 2
    acc = np.zeros((n, 3))
    pairs = 0
    for i in range(lo, hi):
        js = np.arange(i + 1, i + half + 1) % n
        d = all_pos[js] - all_pos[i]
        r2 = (d * d).sum(axis=1) + 0.1
        f = d / (r2 * np.sqrt(r2))[:, None]
        acc[i] += f.sum(axis=0)
        acc[js] -= f
        pairs += len(js)
    return acc, pairs


def _integrate(env, pos, vel, force, lo: int, hi: int) -> None:
    """The integration phase for molecules ``[lo, hi)``: update the
    owner's slice of pos/vel and clear its force slice. The accumulation
    phase's locked writes to ``force`` are fenced off by the worker's
    barrier before this runs; each owner touches only its own slice.
    Phase reasoning is beyond the static lockset (the dynamic detector
    proves these runs race-free)."""
    f = env.get_block(force, lo * 3, hi * 3)
    v = env.get_block(vel, lo * 3, hi * 3) + _DT * f
    p = env.get_block(pos, lo * 3, hi * 3) + _DT * v
    env.set_block(vel, lo * 3, v)
    env.set_block(pos, lo * 3, p)
    env.set_block(force, lo * 3, np.zeros((hi - lo) * 3))


class Water(Application):
    name = "Water"
    paper_problem_size = "4096 mols (4 Mbytes)"
    paper_seq_time_s = 1847.6
    write_double_us = 23.0
    sync_style = "locks"

    def default_params(self) -> dict:
        return {"mols": 192, "steps": 3}

    def small_params(self) -> dict:
        return {"mols": 48, "steps": 2}

    def declare(self, segment, params: dict) -> None:
        n = params["mols"]
        segment.alloc("pos", n * 3)
        segment.alloc("vel", n * 3)
        segment.alloc("force", n * 3)

    def worker(self, env, params: dict):
        n, steps = params["mols"], params["steps"]
        pos, vel, force = env.arr("pos"), env.arr("vel"), env.arr("force")
        me, nprocs = env.rank, env.nprocs

        if me == 0:
            grid = np.arange(n)
            init = np.empty(n * 3)
            init[0::3] = (grid % 8) * 1.1
            init[1::3] = ((grid // 8) % 8) * 1.1
            init[2::3] = (grid // 64) * 1.1
            env.set_block(pos, 0, init)
            env.set_block(vel, 0, np.sin(np.arange(n * 3) * 0.7) * 0.05)
            yield env.compute(n * 0.05, n * 24 * 0.2)
        env.end_init()
        yield from env.barrier()

        chunks = _chunk_layout(n, nprocs)
        lo, hi = chunks.bounds[me]
        integrate_step = env.compute((hi - lo) * 0.3, (hi - lo) * 24)

        for _ in range(steps):
            # --- force computation phase -------------------------------------
            acc, pairs = _forces(
                env.get_block(pos, 0, n * 3).reshape(n, 3), lo, hi)
            yield env.compute(pairs * _PAIR_US, pairs * _PAIR_MEM)

            # Accumulate into the shared force array, chunk by chunk under
            # that chunk's lock (migratory sharing), from this
            # processor's own chunk onwards, skipping chunks it left
            # untouched.
            hot = np.flatnonzero(_hot_chunks(acc, chunks)).tolist()
            split = bisect_left(hot, me)
            for target in hot[split:] + hot[:split]:
                clo, chi = chunks.bounds[target]
                yield from env.acquire(target)
                cur = env.get_block(force, clo * 3, chi * 3)
                env.set_block(force, clo * 3, cur + acc[clo:chi].reshape(-1))
                yield env.compute((chi - clo) * 0.05, (chi - clo) * 24)
                env.release(target)
            yield from env.barrier()

            # --- integration phase: owners update their molecules ------------
            if hi > lo:
                _integrate(env, pos, vel, force, lo, hi)
                yield integrate_step
            yield from env.barrier()

    def result_arrays(self, params: dict):
        return ["pos", "vel"]

    def results_equal(self, name, expected, actual, rtol, atol):
        # Force accumulation order differs between schedules; allow
        # floating-point reassociation noise.
        return bool(np.allclose(expected, actual, rtol=1e-6, atol=1e-9))
