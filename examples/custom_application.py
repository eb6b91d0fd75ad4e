#!/usr/bin/env python3
"""Write your own shared-memory application against the DSM runtime.

This example implements a new workload from scratch — a parallel Jacobi
matrix-vector power iteration — showing everything a downstream user
needs:

* declare shared arrays,
* write a worker generator using the env API (get/set blocks, compute
  charges, barriers, end-of-initialization marker),
* run it sequentially and in parallel under any protocol,
* verify the results match.

The same worker code runs in both settings; anything that can block is a
``yield from env...`` call, and simulated time passes only at
``yield env.compute(...)`` points.
"""

import sys

import numpy as np

from repro import MachineConfig, run_and_verify
from repro.apps.base import Application, split_range


class PowerIteration(Application):
    """x <- normalize(A @ x), repeated; rows of A partitioned by processor."""

    name = "PowerIteration"
    sync_style = "barriers"

    def default_params(self) -> dict:
        return {"n": 64, "iters": 8}

    def declare(self, segment, params):
        n = params["n"]
        segment.alloc("A", n * n)
        segment.alloc("x", n)
        segment.alloc("y", n)
        segment.alloc("norm", 1)

    def worker(self, env, params):
        n, iters = params["n"], params["iters"]
        A, x, y = env.arr("A"), env.arr("x"), env.arr("y")
        norm = env.arr("norm")

        # --- initialization (rank 0), then first-touch homes arm --------
        if env.rank == 0:
            for i in range(n):
                row = 1.0 / (1.0 + np.abs(np.arange(n) - i))
                env.set_block(A, i * n, row)
            env.set_block(x, 0, np.ones(n))
            yield env.compute(n * n * 0.01, n * n * 8 * 0.1)
        env.end_init()
        yield from env.barrier()

        lo, hi = split_range(n, env.nprocs, env.rank)
        for _ in range(iters):
            if hi > lo:
                xv = env.get_block(x, 0, n)
                for i in range(lo, hi):
                    row = env.get_block(A, i * n, (i + 1) * n)
                    env.set(y, i, float(row @ xv))
                yield env.compute((hi - lo) * n * 25.0,
                                  (hi - lo) * n * 60.0)
            yield from env.barrier()
            if env.rank == 0:
                yv = env.get_block(y, 0, n)
                env.set(norm, 0, float(np.abs(yv).max()))
                yield env.compute(n * 25.0, n * 60.0)
            yield from env.barrier()
            if hi > lo:
                scale = env.get(norm, 0)
                yv = env.get_block(y, lo, hi)
                env.set_block(x, lo, yv / scale)
                yield env.compute((hi - lo) * 25.0, (hi - lo) * 60.0)
            yield from env.barrier()

    def result_arrays(self, params):
        return ["x", "norm"]


def main(quick: bool = False) -> None:
    quick = quick or "--quick" in sys.argv[1:]
    app = PowerIteration()
    params = {"n": 16, "iters": 2} if quick else app.default_params()
    nodes = 2 if quick else 4
    config = MachineConfig(nodes=nodes, procs_per_node=2, page_bytes=512)
    print("Running a custom application (power iteration) under all four "
          "protocols...\n")
    for protocol in ("2L", "2LS", "1LD", "1L"):
        cmp = run_and_verify(app, params, config,
                             protocol=protocol)
        x = cmp.run.array("x")
        print(f"  {protocol:4s} speedup {cmp.speedup:5.2f}  verified "
              f"{cmp.verified}  dominant eigenvalue "
              f"{cmp.run.array('norm')[0]:.6f}  |x|max {np.abs(x).max():.4f}")
    print("\nAll four protocols computed identical results through "
          "completely different coherence machinery.")


if __name__ == "__main__":
    main()
