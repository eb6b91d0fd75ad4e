"""Unit tests for the applications' computational kernels.

These test the algorithm implementations directly (pure numpy level),
independent of the DSM machinery: LU's blocked kernels against a
reference factorization and its own-block lists against the full scan,
Barnes-Hut tree structure and force accuracy, TSP's distances/bounds/heap,
Em3d's stencil, Water's forces, chunk layout and hot-chunk test, and the
partitioning helpers. App-level end-to-end correctness lives in
test_apps.py.
"""

import numpy as np
import pytest

from repro.apps.barnes import _CELL_WORDS, _Tree, _force_on
from repro.apps.base import split_range
from repro.apps.lu import LU, _bdiv, _bmodd, _factor_diag, _own_blocks
from repro.apps.tsp import TSP, _distances
from repro.apps.water import _chunk_layout, _forces, _hot_chunks


class TestLUKernels:
    def _random_spd(self, n, seed=3):
        rng = np.random.RandomState(seed)
        a = rng.rand(n, n)
        a += n * np.eye(n)
        return a

    def test_factor_diag_reconstructs(self):
        a = self._random_spd(8)
        lu = a.copy()
        _factor_diag(lu)
        lower = np.tril(lu, -1) + np.eye(8)
        upper = np.triu(lu)
        assert np.allclose(lower @ upper, a)

    def test_bdiv_inverts_upper(self):
        diag = self._random_spd(6)
        _factor_diag(diag)
        upper = np.triu(diag)
        rng = np.random.RandomState(7)
        blk = rng.rand(6, 6)
        solved = blk.copy()
        _bdiv(solved, diag)
        assert np.allclose(solved @ upper, blk)

    def test_bmodd_inverts_unit_lower(self):
        diag = self._random_spd(6)
        _factor_diag(diag)
        lower = np.tril(diag, -1) + np.eye(6)
        rng = np.random.RandomState(11)
        blk = rng.rand(6, 6)
        solved = blk.copy()
        _bmodd(solved, diag)
        assert np.allclose(lower @ solved, blk)

    def test_full_blocked_factorization_matches_scipy_style(self):
        # Drive the three kernels exactly as the worker does, on a 4x4
        # block matrix, and compare L@U against the original.
        n, B = 16, 4
        nb = n // B
        a = self._random_spd(n, seed=5)
        blocks = {(i, j): a[i * B:(i + 1) * B, j * B:(j + 1) * B].copy()
                  for i in range(nb) for j in range(nb)}
        for k in range(nb):
            _factor_diag(blocks[k, k])
            for j in range(k + 1, nb):
                _bmodd(blocks[k, j], blocks[k, k])
            for i in range(k + 1, nb):
                _bdiv(blocks[i, k], blocks[k, k])
            for i in range(k + 1, nb):
                for j in range(k + 1, nb):
                    blocks[i, j] -= blocks[i, k] @ blocks[k, j]
        lu = np.block([[blocks[i, j] for j in range(nb)]
                       for i in range(nb)])
        lower = np.tril(lu, -1) + np.eye(n)
        upper = np.triu(lu)
        assert np.allclose(lower @ upper, a, atol=1e-8)


class TestLUOwnBlocks:
    NB = 12

    @pytest.mark.parametrize("nprocs", [1, 4, 24, 32, 128, NB * NB + 7])
    def test_equals_filtered_full_scan(self, nprocs):
        # 24: 3 divides P, so 3J = me - I (mod P) has no solution in
        # two rows of three and three in the third. NB*NB + 7: more
        # processors than blocks, most own none.
        nb = self.NB
        seen = []
        for me in range(nprocs):
            scan = [(i, j) for i in range(nb) for j in range(nb)
                    if LU._owner(i, j, nprocs) == me]
            assert _own_blocks(me, nb, nprocs) == scan
            seen += scan
        assert sorted(seen) == [(i, j) for i in range(nb) for j in range(nb)]


class TestWaterChunks:
    def _per_chunk_any(self, acc, layout):
        return np.array([np.any(acc[lo:hi].reshape(-1))
                         for lo, hi in layout.bounds])

    def test_hot_chunks_equal_per_chunk_any(self):
        mols, nprocs = 20, 6
        layout = _chunk_layout(mols, nprocs)
        acc = np.zeros((mols, 3))
        acc[1, 2] = np.nan        # chunk 0: NaN counts as nonzero
        acc[4, 0] = -0.0          # chunk 1: negative zero does not
        acc[9, 1] = 1e-300        # chunk 2: a tiny value does
        acc[19] = [0.0, -2.0, 0]  # chunk 5, its last row
        hot = _hot_chunks(acc, layout)
        assert hot.tolist() == [True, False, True, False, False, True]
        assert (hot == self._per_chunk_any(acc, layout)).all()
        assert not _hot_chunks(np.zeros((mols, 3)), layout).any()

    @pytest.mark.parametrize("mols,nprocs", [(3, 8), (5, 5), (1, 1)])
    def test_empty_chunks_are_never_hot(self, mols, nprocs):
        layout = _chunk_layout(mols, nprocs)
        assert layout.bounds == tuple(split_range(mols, nprocs, r)
                                      for r in range(nprocs))
        rng = np.random.RandomState(mols * 31 + nprocs)
        for acc in (np.full((mols, 3), np.nan), np.ones((mols, 3)),
                    rng.choice([0.0, -0.0, 1.0], size=(mols, 3))):
            hot = _hot_chunks(acc, layout)
            assert (hot == self._per_chunk_any(acc, layout)).all()
            assert not any(hot[r] for r, (lo, hi) in
                           enumerate(layout.bounds) if lo == hi)

    def test_layout_is_shared_and_immutable(self):
        layout = _chunk_layout(48, 4)
        assert _chunk_layout(48, 4) is layout
        with pytest.raises(TypeError):
            layout.bounds[0] = (0, 1)
        with pytest.raises(AttributeError):
            layout.bounds = ()
        for column in (layout.starts, layout.ends):
            with pytest.raises(ValueError):
                column[0] = 7
            with pytest.raises(ValueError):
                column.flags.writeable = True


class TestBarnesTree:
    def _build(self, n=64, seed=2):
        rng = np.random.RandomState(seed)
        pos = rng.uniform(-4, 4, size=(n, 2))
        tree = _Tree(np.zeros((4 * n, _CELL_WORDS)))
        root = tree.new_cell(0.0, 0.0, 5.0)
        for b in range(n):
            tree.insert(root, b, pos)
        tree.summarize(root, pos)
        return tree, root, pos

    def test_every_body_reachable_exactly_once(self):
        tree, root, pos = self._build()
        found = []
        stack = [root]
        while stack:
            cell = stack.pop()
            for q in range(4):
                child = int(tree.cells[cell, 4 + q])
                if child < 0:
                    found.append(-child - 1)
                elif child > 0:
                    stack.append(child - 1)
        assert sorted(found) == list(range(len(pos)))

    def test_root_mass_is_total(self):
        tree, root, pos = self._build()
        assert tree.cells[root, 0] == pytest.approx(len(pos))

    def test_center_of_mass(self):
        tree, root, pos = self._build()
        assert tree.cells[root, 1] == pytest.approx(pos[:, 0].mean())
        assert tree.cells[root, 2] == pytest.approx(pos[:, 1].mean())

    def test_force_approximates_direct_sum(self):
        tree, root, pos = self._build(n=128, seed=9)
        from repro.apps.barnes import _EPS2
        for body in (0, 17, 99):
            approx, inter = _force_on(body, pos, tree.cells, root)
            d = pos - pos[body]
            r2 = (d ** 2).sum(axis=1) + _EPS2
            inv = 1.0 / (r2 * np.sqrt(r2))
            inv[body] = 0.0
            direct = (d * inv[:, None]).sum(axis=0)
            # theta=0.6 multipole approximation: a few percent accuracy.
            assert np.linalg.norm(approx - direct) < \
                0.1 * np.linalg.norm(direct) + 1e-6
            assert inter < len(pos)  # strictly cheaper than direct sum

    def test_cell_pool_exhaustion_raises(self):
        tree = _Tree(np.zeros((2, _CELL_WORDS)))
        root = tree.new_cell(0.0, 0.0, 1.0)
        pos = np.array([[0.1, 0.1], [0.10001, 0.10001], [-0.5, -0.5],
                        [0.2, -0.2]])
        with pytest.raises(RuntimeError, match="cell pool"):
            for b in range(4):
                tree.insert(root, b, pos)
            # Deep splits on near-coincident bodies exhaust two cells.


class TestTSPPieces:
    def test_distances_symmetric_positive(self):
        d = _distances(8)
        assert (d == d.T).all()
        assert (np.diag(d) == 0).all()
        off = d[~np.eye(8, dtype=bool)]
        assert (off >= 1.0).all()

    def test_distances_deterministic(self):
        assert (_distances(7) == _distances(7)).all()

    def test_shared_heap_orders_by_bound(self):
        from repro import MachineConfig
        from repro.runtime.api import SharedSegment
        from repro.runtime.sequential import SequentialEnv
        app = TSP()
        params = {"cities": 6, "queue_slots": 64}
        cfg = MachineConfig(nodes=1, procs_per_node=1, page_bytes=512)
        seg = SharedSegment(cfg)
        app.declare(seg, params)
        env = SequentialEnv(cfg, seg)
        heap, meta = env.arr("heap"), env.arr("meta")
        import random
        rng = random.Random(4)
        bounds = [rng.uniform(0, 100) for _ in range(40)]
        for i, b in enumerate(bounds):
            app._heap_push(env, heap, meta, b, i)
        popped = [app._heap_pop(env, heap, meta)[0] for _ in bounds]
        assert popped == sorted(bounds)

    def test_freelist_roundtrip(self):
        from repro import MachineConfig
        from repro.runtime.api import SharedSegment
        from repro.runtime.sequential import SequentialEnv
        app = TSP()
        params = {"cities": 6, "queue_slots": 8}
        cfg = MachineConfig(nodes=1, procs_per_node=1, page_bytes=512)
        seg = SharedSegment(cfg)
        app.declare(seg, params)
        env = SequentialEnv(cfg, seg)
        freelist, meta = env.arr("freelist"), env.arr("meta")
        env.set_block(freelist, 0, np.arange(8, dtype=float))
        env.set(meta, 1, 8)
        slots = [app._alloc_slot(env, freelist, meta) for _ in range(8)]
        assert sorted(slots) == list(range(8))
        for s in slots:
            app._free_slot(env, freelist, meta, s)
        assert int(env.get(meta, 1)) == 8


class TestEm3dStencil:
    def test_gather_weights(self):
        from repro.apps.em3d import _gather, _OFFSETS, _WEIGHTS
        block = np.zeros(12)
        block[2:10] = np.arange(8.0)  # nodes 0..7 with 2-halo
        out = _gather(block, 8)
        for i in range(3, 6):
            expected = sum(w * block[2 + i + off]
                           for off, w in zip(_OFFSETS, _WEIGHTS))
            assert out[i] == pytest.approx(expected)


class TestWaterSymmetry:
    def test_pairwise_forces_sum_to_zero(self):
        # Newton's third law holds for the vectorized accumulation the
        # worker performs (even mol count: each pair counted once).
        n = 8
        rng = np.random.RandomState(1)
        all_pos = rng.rand(n, 3) * 3
        acc, pairs = _forces(all_pos, 0, n)
        assert pairs == n * (n // 2)
        # Every ordered pair is visited from exactly one side except the
        # antipodal pair at even n, which is visited from both; the total
        # momentum change is still zero by symmetry.
        assert np.allclose(acc.sum(axis=0), 0.0, atol=1e-12)
