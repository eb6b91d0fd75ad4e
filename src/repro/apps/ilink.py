"""Ilink: genetic linkage analysis (FASTLINK 2.3P) — Section 3.2.

The real Ilink locates disease genes by iterating over a pool of sparse
arrays of genotype probabilities. Its *communication structure* — which
is what the DSM evaluation exercises — is master-slave: the master
updates the probability pool (one-to-all), all processors then update the
nonzero elements assigned to them round-robin for load balance, and the
master gathers and renormalizes the results (all-to-one). Scalability is
limited by the inherent serial component and load imbalance.

Per the substitution note in DESIGN.md, the genetic-likelihood inner math
is replaced by a deterministic sparse update with the same shape: a
round-robin scatter of nonzero elements (which interleaves every
processor's writes through every page of the pool — the multi-writer
pattern Cashmere's diffs must merge) between one-to-all and all-to-one
phases. The paper ran the CLP input (15 Mbytes, 899 s sequential).
"""

from __future__ import annotations

import numpy as np

from .base import Application

#: CPU cost per nonzero element update.
_ELEM_US = 780.0
#: Cache-miss bytes per element (sparse, pointer-chasing access).
_ELEM_MEM = 52.0
#: Serial (master) cost per element per iteration.
_SERIAL_US = 0.01


class Ilink(Application):
    name = "Ilink"
    paper_problem_size = "CLP (15 Mbytes)"
    paper_seq_time_s = 899.0
    write_double_us = 11.0
    sync_style = "barriers"
    param_max = {"density": 1.0}

    def default_params(self) -> dict:
        return {"elements": 1536, "iters": 6, "density": 0.6}

    def small_params(self) -> dict:
        return {"elements": 192, "iters": 2, "density": 0.6}

    def declare(self, segment, params: dict) -> None:
        n = params["elements"]
        segment.alloc("probs", n)     # genotype probability pool
        segment.alloc("update", n)    # per-iteration updates
        segment.alloc("norm", 1)      # the master's gathered normalizer

    @staticmethod
    def _nonzeros(params: dict) -> np.ndarray:
        n = params["elements"]
        keep = int(params["density"] * 97)
        return np.array([i for i in range(n) if (i * 31 + 7) % 97 < keep])

    def worker(self, env, params: dict):
        n, iters = params["elements"], params["iters"]
        probs, update = env.arr("probs"), env.arr("update")
        norm = env.arr("norm")
        me, nprocs = env.rank, env.nprocs
        nonzeros = self._nonzeros(params)
        mine = nonzeros[me::nprocs]  # round-robin assignment
        # Sparse-gather index vectors for the slave phase (fixed per run).
        ib = (mine * 7 + 3) % n
        ic = (mine * 13 + 11) % n
        mine_int = [int(i) for i in mine]

        if me == 0:
            env.set_block(probs, 0, 1.0 / (1.0 + np.arange(n) % 29))
            env.set(norm, 0, 1.0)
            yield env.compute(n * 0.02, n * 8 * 0.2)
        env.end_init()
        yield from env.barrier()

        slave_step = env.compute(len(mine_int) * _ELEM_US,
                                 len(mine_int) * _ELEM_MEM)
        set_ = env.set
        for _ in range(iters):
            # Master: serial recombination update of the pool (one-to-all).
            if me == 0:
                cur = env.get_block(probs, 0, n)
                scale = env.get(norm, 0)
                env.set_block(probs, 0, cur * (0.5 + 0.5 / max(scale, 1e-12)))
                yield env.compute(n * _SERIAL_US, n * 16)
            yield from env.barrier()

            # Slaves (and master): update assigned nonzero elements. The
            # three sparse reads per element are gathered from one block
            # read of the pool (the element math is the same, elementwise);
            # the scattered writes stay per-word — they are the multi-writer
            # pattern the diffs must merge.
            if mine_int:
                pool = env.get_block(probs, 0, n)
                vals = pool[mine] * (0.4 * pool[ib] + 0.6 * pool[ic]) + 1e-6
                for j, i in enumerate(mine_int):
                    set_(update, i, vals[j])
                yield slave_step
            yield from env.barrier()

            # Master: gather and renormalize (all-to-one).
            if me == 0:
                upd = env.get_block(update, 0, n)
                total = float(upd[nonzeros].sum())
                env.set(norm, 0, total)
                env.set_block(probs, 0, upd + 1e-9)
                yield env.compute(n * _SERIAL_US, n * 16)
            yield from env.barrier()

    def result_arrays(self, params: dict):
        return ["probs", "norm"]
