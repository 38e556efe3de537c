"""Planner/brute-force parity: the pruned query paths must reproduce the
unpruned answers *exactly* — same winners, same values, same sets, same
probability dicts — for every uncertainty model type, serial and
thread-parallel pruning, and both uniform and clustered workloads.

This is the acceptance property of the prune-then-evaluate planner: an
object with ``dmin(q) > min_j dmax_j(q)`` can never be the (nonzero /
expected / probable) nearest neighbor, so dropping it before the exact
evaluators run is invisible in the output.
"""

import random

import numpy as np
import pytest

from repro import (
    ExpectedNNIndex,
    ModelColumns,
    MonteCarloPNN,
    QueryPlanner,
    TruncatedGaussianPoint,
    UncertainSet,
    UniformDiskPoint,
    UniformPolygonPoint,
    UniformRectPoint,
    batch,
    config,
    expected_knn_many,
    threshold_nn_exact_many,
)
from repro.constructions import (
    cluster_centers,
    clustered_discrete_points,
    clustered_disk_points,
    clustered_queries,
    random_discrete_points,
    random_disk_points,
    random_queries,
)

#: Pruned-tier execution settings (``config.execution``): the serial
#: dual-tree prune and its thread fan-out over query subtrees.
VARIANTS = {
    "dual": {},
    "thread": {"parallel_backend": "thread", "parallel_workers": 2},
}


def mixed_points(seed, n_per=6, box=80.0):
    """A set mixing all six model families."""
    rng = random.Random(seed)
    pts = []
    pts += random_discrete_points(n_per, k=4, seed=seed, box=box)
    pts += random_disk_points(n_per, seed=seed + 1, box=box, radius_range=(0.4, 3))
    for _ in range(n_per // 2):
        x, y = rng.uniform(0, box), rng.uniform(0, box)
        pts.append(
            UniformRectPoint((x, y, x + rng.uniform(1, 4), y + rng.uniform(1, 4)))
        )
        pts.append(
            TruncatedGaussianPoint(
                (rng.uniform(0, box), rng.uniform(0, box)), sigma=rng.uniform(0.5, 2)
            )
        )
        pts.append(
            UniformPolygonPoint(
                [(x, y), (x + 3, y), (x + 2.5, y + 2.5), (x + 0.5, y + 3)]
            )
        )
    return pts


def queries_for(seed, m=80, box=80.0):
    # Mix interior, exterior and far-away queries.
    qs = random_queries(m - 4, seed=seed, bbox=(-0.3 * box, -0.3 * box, 1.3 * box, 1.3 * box))
    qs += [(0.0, 0.0), (box / 2, box / 2), (-5 * box, 3 * box), (box, box)]
    return np.asarray(qs)


@pytest.mark.parametrize("variant", list(VARIANTS))
@pytest.mark.parametrize("seed", [1, 2, 3])
class TestMixedModelParity:
    def test_nonzero_nn_parity(self, variant, seed):
        points = mixed_points(seed)
        Q = queries_for(seed + 10)
        want = UncertainSet(points).nonzero_nn_many(Q)
        with config.execution(**VARIANTS[variant]):
            assert QueryPlanner(points).nonzero_nn_many(Q) == want

    def test_expected_nn_parity(self, variant, seed):
        points = mixed_points(seed)
        Q = queries_for(seed + 20, m=40)
        E = ExpectedNNIndex(points).expected_distance_matrix(Q)
        want_idx = E.argmin(axis=1)
        want_val = E[np.arange(E.shape[0]), want_idx]
        with config.execution(**VARIANTS[variant]):
            got_idx, got_val = QueryPlanner(points).expected_nn_many(Q)
        assert np.array_equal(got_idx, want_idx)
        assert np.array_equal(got_val, want_val)

    def test_expected_knn_parity(self, variant, seed):
        points = mixed_points(seed)
        Q = queries_for(seed + 30, m=30)
        planner = QueryPlanner(points)
        for k in (1, 2, 5, len(points)):
            want = expected_knn_many(points, Q, k)
            with config.execution(**VARIANTS[variant]):
                got = planner.expected_knn_many(Q, k)
            assert np.array_equal(got, want), k

    def test_monte_carlo_pnn_parity(self, variant, seed):
        points = mixed_points(seed)
        Q = queries_for(seed + 40, m=50)
        planner = QueryPlanner(points)
        mc = MonteCarloPNN(points, s=120, rng=seed)
        want_rows, want = mc.query_many(Q), mc.query_matrix(Q)
        with config.execution(**VARIANTS[variant]):
            got_rows = mc.query_many(Q, planner=planner)
            got = mc.query_matrix(Q, planner=planner)
        assert got_rows == want_rows
        assert np.array_equal(got, want)


@pytest.mark.parametrize("seed", [11, 12])
class TestDiscreteThresholdParity:
    def test_threshold_parity(self, seed):
        points = random_discrete_points(30, k=4, seed=seed, box=60)
        Q = queries_for(seed, m=40, box=60.0)
        for variant, settings in VARIANTS.items():
            planner = QueryPlanner(points)
            for tau in (0.0, 0.2, 0.6):
                want = threshold_nn_exact_many(points, Q, tau)
                with config.execution(**settings):
                    got = planner.threshold_nn_exact_many(Q, tau)
                assert got == want, (variant, tau)


class TestClusteredWorkloadParity:
    """The workload the planner is built for: heavy pruning must still be
    invisible in the answers."""

    def setup_method(self):
        centers = cluster_centers(12, seed=5, box=300.0)
        self.points = clustered_discrete_points(
            300, k=3, centers=centers, seed=6
        ) + clustered_disk_points(100, centers=centers, seed=7)
        self.Q = np.asarray(clustered_queries(120, centers=centers, seed=8))

    def test_pruning_is_effective_and_exact(self):
        planner = QueryPlanner(self.points)
        indptr, _ = planner.candidate_csr(self.Q)
        mean_fraction = indptr[-1] / (self.Q.shape[0] * len(self.points))
        assert mean_fraction < 0.25  # the prune actually bites
        assert planner.nonzero_nn_many(self.Q) == UncertainSet(
            self.points
        ).nonzero_nn_many(self.Q)

    def test_expected_nn_clustered_parity(self):
        idx = ExpectedNNIndex(self.points)
        gi, gv = idx.query_many(self.Q)
        xi, xv = idx.query_many(self.Q, exact=True)
        assert np.array_equal(gi, xi)
        assert np.array_equal(gv, xv)

    def test_monte_carlo_clustered_parity(self):
        mc = MonteCarloPNN(self.points, s=60, rng=1)
        planner = QueryPlanner(self.points)
        assert mc.query_many(self.Q, planner=planner) == mc.query_many(self.Q)


class TestBatchFacadeExactFlag:
    """`repro.batch` defaults to the planner; exact=True must agree."""

    def setup_method(self):
        self.points = mixed_points(21, n_per=4, box=50.0)
        self.Q = queries_for(22, m=30, box=50.0)

    def test_nonzero(self):
        assert batch.nonzero_nn_many(self.points, self.Q) == batch.nonzero_nn_many(
            self.points, self.Q, exact=True
        )

    def test_expected(self):
        gi, gv = batch.expected_nn_many(self.points, self.Q)
        xi, xv = batch.expected_nn_many(self.points, self.Q, exact=True)
        assert np.array_equal(gi, xi)
        assert np.array_equal(gv, xv)

    def test_expected_knn(self):
        got = batch.expected_knn_many(self.points, self.Q, 3)
        want = batch.expected_knn_many(self.points, self.Q, 3, exact=True)
        assert np.array_equal(got, want)

    def test_monte_carlo(self):
        got = batch.monte_carlo_pnn_many(self.points, self.Q, s=80, rng=3)
        want = batch.monte_carlo_pnn_many(
            self.points, self.Q, s=80, rng=3, exact=True
        )
        assert got == want

    def test_threshold(self):
        points = random_discrete_points(20, k=3, seed=9, box=40)
        Q = queries_for(10, m=25, box=40.0)
        got = batch.threshold_nn_exact_many(points, Q, 0.3)
        want = batch.threshold_nn_exact_many(points, Q, 0.3, exact=True)
        assert got == want


class TestPlannerReusesColumns:
    def test_prebuilt_columns_shared(self):
        points = mixed_points(31, n_per=4)
        cols = ModelColumns(points)
        p1 = QueryPlanner(points, columns=cols)
        p2 = QueryPlanner(points, columns=cols)
        Q = queries_for(32, m=20)
        with config.execution(parallel_backend="thread"):
            threaded = p2.nonzero_nn_many(Q)
        assert p1.nonzero_nn_many(Q) == threaded
        assert p1.columns is cols and p2.columns is cols

    def test_expected_nn_index_planner_cached(self):
        points = mixed_points(33, n_per=4)
        idx = ExpectedNNIndex(points)
        assert idx.planner is idx.planner  # lazily built once
