"""Barnes: hierarchical Barnes-Hut N-body simulation from SPLASH-1
(Section 3.2).

Two shared arrays hold the bodies and the cells (internal quadtree nodes
summarizing bodies in close proximity). As in the paper's version, tree
construction is performed *sequentially* (processor 0 reads every body —
all-to-one — and writes the cell array — one-to-all), while the force
computation and position updates are parallelized with barriers between
phases and no locks at all (Table 3 shows zero lock acquires for
Barnes).

Barnes has a low computation-to-communication ratio and a huge appetite
for read-shared tree data, so coalescing page fetches within a node —
the two-level protocols' signature advantage — buys it the largest win
in the suite (46% over 1LD at 32 processors). The paper ran 128K bodies
(26 Mbytes, 469.4 s sequential).

The simulation is 2-D (quadtree) for compactness; the sharing structure
is identical to the 3-D oct-tree version.
"""

from __future__ import annotations

import numpy as np

from .base import Application, split_range

#: Words per body record: x, y, vx, vy, fx, fy.
_BODY_WORDS = 6
#: Words per cell record: mass, cx, cy, half-size, child0..3 (0 = empty;
#: >0 = cell index + 1; <0 = -(body index + 1)).
_CELL_WORDS = 8

#: CPU cost per body-cell interaction during force evaluation.
_INTERACT_US = 20.0
#: Cache-miss bytes per interaction (tree walks are pointer-chasing).
_INTERACT_MEM = 48.0
#: CPU cost per body insertion during (sequential) tree build.
_INSERT_US = 0.05
_DT = 0.025
_THETA = 0.6
_EPS2 = 0.05


class _Tree:
    """A plain-numpy quadtree used identically by rank 0 (to build into
    shared memory) and by readers (reconstructed from shared memory)."""

    def __init__(self, cells: np.ndarray) -> None:
        self.cells = cells  # (maxcells, _CELL_WORDS)
        self.count = 0

    def new_cell(self, cx: float, cy: float, half: float) -> int:
        idx = self.count
        self.count += 1
        if idx >= len(self.cells):
            raise RuntimeError("cell pool exhausted; raise maxcells")
        self.cells[idx] = 0.0
        self.cells[idx, 1] = cx
        self.cells[idx, 2] = cy
        self.cells[idx, 3] = half
        return idx

    def insert(self, cell: int, body: int, pos: np.ndarray) -> int:
        """Insert ``body`` under ``cell``; returns insertion steps."""
        steps = 1
        x, y = pos[body]
        cx, cy, half = self.cells[cell, 1:4]
        quad = (1 if x >= cx else 0) + (2 if y >= cy else 0)
        child = int(self.cells[cell, 4 + quad])
        if child == 0:
            self.cells[cell, 4 + quad] = -(body + 1)
        elif child < 0:
            other = -child - 1
            qhalf = half / 2
            qcx = cx + (qhalf if quad & 1 else -qhalf)
            qcy = cy + (qhalf if quad & 2 else -qhalf)
            sub = self.new_cell(qcx, qcy, qhalf)
            self.cells[cell, 4 + quad] = sub + 1
            steps += self.insert(sub, other, pos)
            steps += self.insert(sub, body, pos)
        else:
            steps += self.insert(child - 1, body, pos)
        return steps

    def summarize(self, cell: int, pos: np.ndarray) -> tuple[float, float,
                                                             float]:
        """Bottom-up center-of-mass computation (mass 1 per body)."""
        mass = 0.0
        mx = my = 0.0
        for q in range(4):
            child = int(self.cells[cell, 4 + q])
            if child == 0:
                continue
            if child < 0:
                b = -child - 1
                mass += 1.0
                mx += pos[b, 0]
                my += pos[b, 1]
            else:
                m, sx, sy = self.summarize(child - 1, pos)
                mass += m
                mx += sx
                my += sy
        self.cells[cell, 0] = mass
        # Store the center of mass in place of the geometric center once
        # summarized; the half-size stays for the opening criterion.
        if mass > 0:
            self.cells[cell, 1] = mx / mass
            self.cells[cell, 2] = my / mass
        return mass, mx, my


def _force_on(body: int, pos: np.ndarray, cells: np.ndarray,
              root: int) -> tuple[np.ndarray, int]:
    """Barnes-Hut force walk; returns (force, interactions)."""
    fx = fy = 0.0
    bx, by = pos[body]
    stack = [root]
    interactions = 0
    while stack:
        cell = stack.pop()
        mass, cx, cy, half = cells[cell, :4]
        if mass == 0:
            continue
        dx, dy = cx - bx, cy - by
        r2 = dx * dx + dy * dy
        if (2 * half) * (2 * half) < _THETA * _THETA * r2:
            # Far enough: treat the cell as a point mass.
            inv = mass / ((r2 + _EPS2) * np.sqrt(r2 + _EPS2))
            fx += dx * inv
            fy += dy * inv
            interactions += 1
            continue
        for q in range(4):
            child = int(cells[cell, 4 + q])
            if child == 0:
                continue
            if child < 0:
                b = -child - 1
                if b == body:
                    continue
                dxb, dyb = pos[b, 0] - bx, pos[b, 1] - by
                rb2 = dxb * dxb + dyb * dyb + _EPS2
                inv = 1.0 / (rb2 * np.sqrt(rb2))
                fx += dxb * inv
                fy += dyb * inv
                interactions += 1
            else:
                stack.append(child - 1)
    return np.array([fx, fy]), interactions


class Barnes(Application):
    name = "Barnes"
    paper_problem_size = "128K bodies (26 Mbytes)"
    paper_seq_time_s = 469.4
    write_double_us = 6.0
    sync_style = "barriers"

    def default_params(self) -> dict:
        return {"bodies": 224, "steps": 3}

    def small_params(self) -> dict:
        return {"bodies": 48, "steps": 2}

    def declare(self, segment, params: dict) -> None:
        n = params["bodies"]
        self._maxcells = 4 * n
        segment.alloc("bodies", n * _BODY_WORDS)
        segment.alloc("cells", self._maxcells * _CELL_WORDS)
        segment.alloc("treemeta", 2)  # cell count, root index

    def worker(self, env, params: dict):
        n, steps = params["bodies"], params["steps"]
        bodies, cells_arr = env.arr("bodies"), env.arr("cells")
        treemeta = env.arr("treemeta")
        me, nprocs = env.rank, env.nprocs
        maxcells = self._maxcells

        if me == 0:
            # Deterministic spiral of bodies.
            i = np.arange(n)
            r = 0.5 + 4.0 * i / n
            ang = i * 2.399963  # golden angle
            init = np.zeros(n * _BODY_WORDS)
            init[0::_BODY_WORDS] = r * np.cos(ang)
            init[1::_BODY_WORDS] = r * np.sin(ang)
            init[2::_BODY_WORDS] = -0.05 * np.sin(ang)
            init[3::_BODY_WORDS] = 0.05 * np.cos(ang)
            env.set_block(bodies, 0, init)
            yield env.compute(n * 0.1, n * 48 * 0.2)
        env.end_init()
        yield from env.barrier()

        lo, hi = split_range(n, nprocs, me)
        for _ in range(steps):
            # --- Phase 1: sequential tree build by processor 0 ------------
            if me == 0:
                data = env.get_block(bodies, 0, n * _BODY_WORDS) \
                    .reshape(n, _BODY_WORDS)
                pos = data[:, 0:2]
                half = float(np.abs(pos).max()) + 0.1
                tree = _Tree(np.zeros((maxcells, _CELL_WORDS)))
                root = tree.new_cell(0.0, 0.0, half)
                steps_total = 0
                for b in range(n):
                    steps_total += tree.insert(root, b, pos)
                tree.summarize(root, pos)
                env.set_block(cells_arr, 0,
                              tree.cells[:tree.count].reshape(-1))
                env.set(treemeta, 0, tree.count)
                env.set(treemeta, 1, root)
                yield env.compute(steps_total * _INSERT_US,
                                  n * 48 + tree.count * 64)
            yield from env.barrier()

            # --- Phase 2: parallel force computation ----------------------
            if hi > lo:
                meta = env.get_block(treemeta, 0, 2)
                count = int(meta[0])
                root = int(meta[1])
                cells = env.get_block(cells_arr, 0,
                                      count * _CELL_WORDS) \
                    .reshape(count, _CELL_WORDS)
                data = env.get_block(bodies, 0, n * _BODY_WORDS) \
                    .reshape(n, _BODY_WORDS)
                pos = data[:, 0:2].copy()
                interactions = 0
                forces = np.empty((hi - lo, 2))
                for b in range(lo, hi):
                    forces[b - lo], inter = _force_on(b, pos, cells, root)
                    interactions += inter
                for b in range(lo, hi):
                    env.set(bodies, b * _BODY_WORDS + 4, forces[b - lo, 0])
                    env.set(bodies, b * _BODY_WORDS + 5, forces[b - lo, 1])
                yield env.compute(interactions * _INTERACT_US,
                                  interactions * _INTERACT_MEM)
            yield from env.barrier()

            # --- Phase 3: parallel position update ------------------------
            if hi > lo:
                blk = env.get_block(bodies, lo * _BODY_WORDS,
                                    hi * _BODY_WORDS) \
                    .reshape(hi - lo, _BODY_WORDS)
                blk[:, 2:4] += _DT * blk[:, 4:6]
                blk[:, 0:2] += _DT * blk[:, 2:4]
                env.set_block(bodies, lo * _BODY_WORDS, blk.reshape(-1))
                yield env.compute((hi - lo) * 0.4, (hi - lo) * 48)
            yield from env.barrier()

    def result_arrays(self, params: dict):
        return ["bodies"]

    def results_equal(self, name, expected, actual, rtol, atol):
        return bool(np.allclose(expected, actual, rtol=1e-8, atol=1e-10))
