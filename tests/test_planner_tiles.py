"""Tiled + parallel planner execution: identity, memory, knobs."""

import tracemalloc

import numpy as np
import pytest

from repro import Engine, QueryPlanner, config
from repro.constructions import (
    cluster_centers,
    clustered_disk_points,
    clustered_queries,
)
from repro.core.parallel import map_tiles, tile_ranges
from repro.errors import QueryError


def _workload(n=220, m=150, clusters=6, seed=40):
    centers = cluster_centers(clusters, seed=seed, box=150.0)
    points = clustered_disk_points(n, centers=centers, seed=seed + 1)
    Q = np.asarray(clustered_queries(m, centers=centers, seed=seed + 2))
    return points, Q


class TestTileRanges:
    def test_cover_and_order(self):
        assert tile_ranges(10, 4) == [(0, 4), (4, 8), (8, 10)]
        assert tile_ranges(0, 4) == [(0, 0)]
        assert tile_ranges(3, 100) == [(0, 3)]

    def test_map_tiles_backends_agree(self):
        tiles = tile_ranges(37, 5)
        fn = lambda lo, hi: list(range(lo, hi))
        serial = map_tiles(fn, tiles, backend="serial")
        threaded = map_tiles(fn, tiles, backend="thread", workers=4)
        assert serial == threaded
        with pytest.raises(QueryError):
            map_tiles(fn, tiles, backend="bogus")


class TestTiledIdentity:
    def test_tiled_equals_flat_bit_for_bit(self):
        points, Q = _workload()
        planner = QueryPlanner(points)
        with config.execution(tile_bytes=1 << 62):  # one tile == flat pass
            flat_mask = planner.candidate_mask(Q)
            flat_w, flat_v = planner.expected_nn_many(Q)
            flat_sets = planner.nonzero_nn_many(Q)
        with config.execution(tile_bytes=32 * 1024):  # many small tiles
            tiled_mask = planner.candidate_mask(Q)
            tiled_w, tiled_v = planner.expected_nn_many(Q)
            tiled_sets = planner.nonzero_nn_many(Q)
        assert np.array_equal(flat_mask, tiled_mask)
        assert np.array_equal(flat_w, tiled_w)
        assert np.array_equal(flat_v, tiled_v)
        assert flat_sets == tiled_sets

    def test_parallel_thread_backend_identical(self):
        points, Q = _workload()
        serial = QueryPlanner(points)
        threaded = QueryPlanner(points)
        with config.execution(tile_bytes=32 * 1024):
            sw, sv = serial.expected_nn_many(Q)
            s_sets = serial.nonzero_nn_many(Q)
        with config.execution(
            tile_bytes=32 * 1024, parallel_backend="thread", parallel_workers=4
        ):
            tw, tv = threaded.expected_nn_many(Q)
            t_sets = threaded.nonzero_nn_many(Q)
        assert np.array_equal(sw, tw) and np.array_equal(sv, tv)
        assert s_sets == t_sets

    def test_exact_tier_equals_pruned(self):
        points, Q = _workload(n=80, m=60)
        planner = QueryPlanner(points)
        pw, pv = planner.expected_nn_many(Q, tier="pruned")
        ew, ev = planner.expected_nn_many(Q, tier="exact")
        assert np.array_equal(pw, ew) and np.array_equal(pv, ev)
        assert planner.nonzero_nn_many(Q, tier="exact") == planner.nonzero_nn_many(Q)
        assert np.array_equal(
            planner.expected_knn_many(Q, 3, tier="exact"),
            planner.expected_knn_many(Q, 3),
        )


class TestSingleQueryPath:
    def test_m1_is_one_tile_with_row_sized_bounds(self):
        points, Q = _workload(n=150, m=8)
        planner = QueryPlanner(points)
        with config.execution(tile_bytes=1):  # floor: 1 row per tile
            w, v = planner.expected_nn_many(Q[:1])
            mask = planner.candidate_mask(Q[:1])
        wf, vf = QueryPlanner(points).expected_nn_many(Q)
        assert w.shape == (1,) and w[0] == wf[0] and v[0] == vf[0]
        assert mask.shape == (1, len(points))

    def test_empty_batch(self):
        points, _ = _workload(n=30, m=0)
        planner = QueryPlanner(points)
        w, v = planner.expected_nn_many(np.zeros((0, 2)))
        assert w.shape == (0,) and v.shape == (0,)
        assert planner.nonzero_nn_many([]) == []


class TestTiledMemory:
    def test_peak_stays_below_full_matrix(self):
        points, Q = _workload(n=400, m=500)
        m, n = Q.shape[0], len(points)
        planner = QueryPlanner(points)
        planner.expected_nn_many(Q[:4])  # warm caches outside the trace
        with config.execution(tile_bytes=128 * 1024):
            tracemalloc.start()
            planner.expected_nn_many(Q)
            _, peak_tiled = tracemalloc.get_traced_memory()
            tracemalloc.stop()
        # The dense reference: the exact tier in one huge tile
        # materializes the full dmin/dmax matrices (the pruned tier
        # never does, whatever the tile size).
        with config.execution(tile_bytes=1 << 62):
            tracemalloc.start()
            planner.nonzero_nn_many(Q, tier="exact")
            _, peak_dense = tracemalloc.get_traced_memory()
            tracemalloc.stop()
        # The tiled pass never materializes even one (m, n) float64.
        assert peak_tiled < m * n * 8
        assert peak_dense > m * n * 8
        # Neither does the engine's exact tier, which runs in the
        # planner's row tiles.
        engine = Engine(points)
        for spec in ({"method": "nonzero"}, {"method": "expected_knn", "k": 3}):
            engine.query(Q[:4], tier="exact", **spec)  # warm, uncounted
            with config.execution(tile_bytes=128 * 1024):
                tracemalloc.start()
                engine.query(Q, tier="exact", **spec)
                _, peak_engine = tracemalloc.get_traced_memory()
                tracemalloc.stop()
            assert peak_engine < m * n * 8, spec


class TestBackendAndTierGuards:
    def test_planner_rejects_process_backend(self):
        # There is no process backend: every tier rejects the live
        # config's.
        points, Q = _workload(n=30, m=4)
        with config.execution(parallel_backend="process"):
            planner = QueryPlanner(points)
            for tier in ("pruned", "exact"):
                with pytest.raises(QueryError, match="unknown parallel backend"):
                    planner.expected_nn_many(Q, tier=tier)
            with pytest.raises(QueryError, match="unknown parallel backend"):
                planner.expected_nn_many(Q, tier="approx", eps=0.5)
            with pytest.raises(QueryError, match="unknown parallel backend"):
                planner.candidate_mask(Q)
        # An engine spec naming it is rejected at construction.
        with pytest.raises(QueryError, match="parallel_backend must be one of"):
            Engine(points).query(
                Q, method="expected_nn", tier="exact",
                parallel_backend="process",
            )

    def test_unknown_backend_rejected_before_any_pass(self):
        # An approx batch whose rows all settle never fans out a tile
        # or a traversal, so every tier checks the backend up front.
        points, Q = _workload(n=50, m=20)
        planner = QueryPlanner(points)
        _, _, fallback, _ = planner.expected_nn_many(
            Q, tier="approx", eps=0.5, return_fallback=True
        )
        assert not fallback.any()
        with config.execution(parallel_backend="bogus"):
            for tier, eps in (("exact", None), ("pruned", None), ("approx", 0.5)):
                for call in (
                    lambda: planner.expected_nn_many(Q, tier=tier, eps=eps),
                    lambda: planner.nonzero_nn_many(Q, tier=tier, eps=eps),
                ):
                    with pytest.raises(
                        QueryError, match="unknown parallel backend 'bogus'"
                    ):
                        call()

    def test_facade_rejects_contradictory_exact_and_eps(self):
        from repro import batch

        points, Q = _workload(n=20, m=3)
        with pytest.raises(ValueError, match="contradictory"):
            batch.expected_nn_many(points, Q, exact=True, eps=0.5)
        with pytest.raises(ValueError, match="contradictory"):
            batch.nonzero_nn_many(points, Q, exact=True, eps=0.5)
        with pytest.raises(ValueError, match="contradictory"):
            batch.threshold_nn_exact_many(points, Q, 0.2, exact=True, eps=0.5)


class TestExecutionConfig:
    def test_context_manager_restores(self):
        before = config.EXECUTION.tile_bytes
        with config.execution(tile_bytes=123, parallel_backend="thread") as ex:
            assert ex.tile_bytes == 123
            assert config.current_execution().parallel_backend == "thread"
            # The block changes its context's settings, not the default.
            assert config.EXECUTION == config.Execution()
        assert config.EXECUTION.tile_bytes == before
        assert config.EXECUTION.parallel_backend == "serial"
        with pytest.raises(TypeError):
            with config.execution(bogus=1):
                pass
