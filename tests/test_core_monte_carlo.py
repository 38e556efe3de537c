"""Tests for the Monte-Carlo PNN structure (Theorems 4.3 / 4.5)."""

import math
import random
import tracemalloc

import numpy as np
import pytest

from repro import (
    Engine,
    MonteCarloPNN,
    QueryError,
    QuerySpec,
    UniformDiskPoint,
    discretize,
    quantification_probabilities,
    rounds_for_all_queries,
    rounds_for_fixed_query,
)
from repro.config import execution
from repro.constructions import (
    cluster_centers,
    clustered_discrete_points,
    clustered_disk_points,
    clustered_queries,
    random_discrete_points,
    random_disk_points,
)


class TestRoundFormulas:
    def test_fixed_query_formula(self):
        s = rounds_for_fixed_query(0.1, 0.05, n=10)
        want = math.ceil(math.log(2 * 10 / 0.05) / (2 * 0.01))
        assert s == want

    def test_all_queries_larger(self):
        fixed = rounds_for_fixed_query(0.1, 0.05, n=10)
        all_q = rounds_for_all_queries(0.1, 0.05, n=10, k=3)
        assert all_q > fixed

    def test_invalid_parameters(self):
        with pytest.raises(QueryError):
            rounds_for_fixed_query(0.0, 0.5, 10)
        with pytest.raises(QueryError):
            rounds_for_fixed_query(0.1, 1.5, 10)
        with pytest.raises(QueryError):
            MonteCarloPNN([UniformDiskPoint((0, 0), 1)])  # no s, no epsilon


class TestDiscreteAccuracy:
    def test_error_within_epsilon(self):
        # Theorem 4.3 guarantee, checked empirically per query.
        points = random_discrete_points(8, k=3, seed=2, box=20, scatter=6)
        eps, delta = 0.05, 0.01
        mc = MonteCarloPNN(points, epsilon=eps, delta=delta, seed=3)
        rng = random.Random(4)
        failures = 0
        trials = 0
        for _ in range(20):
            q = (rng.uniform(0, 20), rng.uniform(0, 20))
            exact = quantification_probabilities(points, q)
            est = mc.query_vector(q)
            for a, b in zip(exact, est):
                trials += 1
                if abs(a - b) > eps:
                    failures += 1
        assert failures <= max(1, int(0.02 * trials))

    def test_estimates_are_frequencies(self):
        points = random_discrete_points(5, k=2, seed=0)
        mc = MonteCarloPNN(points, s=100, seed=1)
        est = mc.query((10.0, 10.0))
        total = sum(est.values())
        assert math.isclose(total, 1.0, rel_tol=1e-12)
        for v in est.values():
            assert v * 100 == int(round(v * 100))  # multiples of 1/s

    def test_at_most_s_nonzero_estimates(self):
        points = random_discrete_points(50, k=2, seed=5)
        mc = MonteCarloPNN(points, s=10, seed=2)
        est = mc.query((50.0, 50.0))
        assert len(est) <= 10

    def test_locator_backends_agree(self):
        points = random_discrete_points(10, k=3, seed=7)
        kd = MonteCarloPNN(points, s=200, seed=9, locator="kdtree")
        vo = MonteCarloPNN(points, s=200, seed=9, locator="voronoi")
        q = (40.0, 60.0)
        assert kd.query(q) == vo.query(q)

    def test_unknown_locator_rejected(self):
        with pytest.raises(QueryError):
            MonteCarloPNN(
                random_discrete_points(3, k=2, seed=0), s=5, locator="quadtree"
            )


class TestContinuousAccuracy:
    def test_symmetric_disks_half_half(self):
        points = [UniformDiskPoint((-3, 0), 1.0), UniformDiskPoint((3, 0), 1.0)]
        mc = MonteCarloPNN(points, s=20_000, seed=11)
        est = mc.query((0.0, 0.0))
        assert abs(est.get(0, 0.0) - 0.5) < 0.02
        assert abs(est.get(1, 0.0) - 0.5) < 0.02

    def test_lemma_4_4_discretisation(self):
        # Sampling each continuous point into a discrete one preserves
        # pi up to alpha * n (Lemma 4.4): compare MC on the continuous
        # set against the exact sweep on the discretised set.
        rng = random.Random(13)
        points = random_disk_points(4, seed=13, box=12, radius_range=(1.5, 2.5))
        disc = [discretize(p, k=900, rng=rng) for p in points]
        mc = MonteCarloPNN(points, s=30_000, seed=14)
        q = (6.0, 6.0)
        est = mc.query_vector(q)
        exact_disc = quantification_probabilities(disc, q)
        for a, b in zip(est, exact_disc):
            assert abs(a - b) < 0.03

    def test_space_estimate(self):
        points = random_disk_points(7, seed=1)
        mc = MonteCarloPNN(points, s=50, seed=0)
        assert mc.space_estimate() == 7 * 50


class TestRoundsMemory:
    """Pruned rounds count wins by CSR position: admission reserves the
    counters and one round block over the survivors, never ``(m, n)``.
    Unpruned rounds run in row tiles sized by ``tile_bytes``."""

    def test_small_budget_answers_identically(self):
        centers = cluster_centers(8, seed=2, box=200.0)
        pts = clustered_discrete_points(2000, k=4, centers=centers, seed=3)
        Q = np.asarray(clustered_queries(256, centers=centers, seed=4))
        base = Engine(pts, result_cache_size=0)
        for spec in (
            QuerySpec("mc_pnn", s=64, seed=7),
            QuerySpec("mc_pnn", s=64, seed=7, adaptive=True, tol=0.1),
        ):
            want = base.query(Q, spec).answers
            # Both budgets lie below one (m, n) count matrix (4 MiB).
            for budget in (1 << 20, 2 << 20):
                with execution(memory_budget_bytes=budget):
                    got = Engine(pts, result_cache_size=0).query(Q, spec)
                assert got.answers == want

    def test_peak_stays_far_below_a_dense_matrix(self):
        centers = cluster_centers(20, seed=1, box=100.0)
        pts = clustered_disk_points(20_000, centers=centers, seed=5)
        Q = np.asarray(clustered_queries(512, centers=centers, seed=6))
        eng = Engine(pts, result_cache_size=0)
        spec = QuerySpec("mc_pnn", s=64, seed=7)
        eng.query(Q[:8], spec)  # builds the samples, columns and trees
        tracemalloc.start()
        try:
            eng.query(Q, spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        dense = Q.shape[0] * len(pts) * 8  # one (m, n) float64: 82 MB
        assert peak < dense / 4

    def test_unpruned_rounds_run_in_row_tiles(self):
        centers = cluster_centers(8, seed=2, box=200.0)
        pts = clustered_disk_points(2000, centers=centers, seed=3)
        Q = np.asarray(clustered_queries(128, centers=centers, seed=4))
        eng = Engine(pts, result_cache_size=0)
        spec = QuerySpec("mc_pnn", s=16, seed=7, tier="exact")
        want = eng.query(Q, spec).answers
        with execution(tile_bytes=256 * 1024):
            tracemalloc.start()
            try:
                got = eng.query(Q, spec).answers
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert got == want
        assert peak < Q.shape[0] * len(pts) * 8 / 2  # half an (m, n) float64
