"""Uniform edge-case handling in the batched paths: empty query arrays,
a single uncertain object (pruning must never return an empty candidate
set), and ``(2,)`` vs ``(m, 2)`` query shapes."""

import numpy as np
import pytest

from repro import (
    ExpectedNNIndex,
    MonteCarloPNN,
    QueryPlanner,
    UncertainSet,
    UniformDiskPoint,
    batch,
)
from repro.constructions import random_discrete_points, random_disk_points
from repro.geometry.kernels import as_query_array

POINTS = random_disk_points(12, seed=3, box=30, radius_range=(0.5, 2))
DISCRETE = random_discrete_points(10, k=3, seed=4, box=30)

EMPTIES = [np.empty((0, 2)), [], np.empty((0,))]


class TestAsQueryArrayShapes:
    def test_empty_inputs_normalise_to_zero_rows(self):
        for qs in EMPTIES:
            arr = as_query_array(qs)
            assert arr.shape == (0, 2)

    def test_single_pair_becomes_one_row(self):
        assert as_query_array((1.0, 2.0)).shape == (1, 2)
        assert as_query_array([3, 4]).shape == (1, 2)

    def test_bad_shapes_rejected(self):
        with pytest.raises(ValueError):
            as_query_array([1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            as_query_array(np.zeros((4, 3)))

    def test_malformed_empty_shapes_still_rejected(self):
        # Empty but wrong-shaped arrays are shape bugs, not empty batches.
        for bad in (np.zeros((0, 3)), np.zeros((5, 0)), np.zeros((2, 0, 7))):
            with pytest.raises(ValueError):
                as_query_array(bad)


class TestEmptyQueryArrays:
    @pytest.mark.parametrize("qs", EMPTIES)
    def test_planner_paths(self, qs):
        planner = QueryPlanner(POINTS)
        mask = planner.candidate_mask(qs)
        assert mask.shape == (0, len(POINTS))
        assert planner.nonzero_nn_many(qs) == []
        idx, val = planner.expected_nn_many(qs)
        assert idx.shape == (0,) and val.shape == (0,)
        assert planner.expected_knn_many(qs, 2).shape == (0, 2)

    @pytest.mark.parametrize("qs", EMPTIES)
    def test_batch_facade(self, qs):
        assert batch.nonzero_nn_many(POINTS, qs) == []
        idx, val = batch.expected_nn_many(POINTS, qs)
        assert idx.shape == (0,)
        assert batch.dmin_matrix(POINTS, qs).shape == (0, len(POINTS))
        assert batch.monte_carlo_pnn_many(POINTS, qs, s=10) == []
        assert batch.threshold_nn_exact_many(DISCRETE, qs, 0.2) == []
        assert batch.expected_knn_many(POINTS, qs, 3).shape == (0, 3)

    @pytest.mark.parametrize("exact", [False, True])
    def test_monte_carlo_empty(self, exact):
        mc = MonteCarloPNN(POINTS, s=15, rng=0)
        planner = None if exact else QueryPlanner(POINTS)
        est = mc.query_matrix(np.empty((0, 2)), planner=planner)
        assert est.shape == (0, len(POINTS))
        assert mc.query_many(np.empty((0, 2)), planner=planner) == []

    def test_unpruned_scans_empty(self):
        uset = UncertainSet(POINTS)
        assert uset.nonzero_nn_many(np.empty((0, 2))) == []
        assert uset.dmin_matrix([]).shape == (0, len(POINTS))


class TestSingleObject:
    """With n = 1 the prune must keep the one candidate everywhere."""

    def setup_method(self):
        self.points = [UniformDiskPoint((5.0, 5.0), 1.5)]
        self.Q = np.array([[5.0, 5.0], [100.0, -40.0], [0.0, 0.0]])

    def test_candidate_mask_never_empty(self):
        planner = QueryPlanner(self.points)
        mask = planner.candidate_mask(self.Q)
        assert mask.all()

    def test_all_engines_single_object(self):
        assert batch.nonzero_nn_many(self.points, self.Q) == [
            frozenset({0}),
            frozenset({0}),
            frozenset({0}),
        ]
        idx, val = batch.expected_nn_many(self.points, self.Q)
        assert idx.tolist() == [0, 0, 0]
        xi, xv = batch.expected_nn_many(self.points, self.Q, exact=True)
        assert np.array_equal(val, xv)
        est = batch.monte_carlo_pnn_many(self.points, self.Q, s=20)
        assert est == [{0: 1.0}] * 3
        assert np.array_equal(
            batch.expected_knn_many(self.points, self.Q, 1),
            np.zeros((3, 1), dtype=np.intp),
        )

    def test_single_discrete_threshold(self):
        pts = random_discrete_points(1, k=4, seed=8, box=10)
        got = batch.threshold_nn_exact_many(pts, self.Q, 0.5)
        want = batch.threshold_nn_exact_many(pts, self.Q, 0.5, exact=True)
        assert got == want
        for ans in got:  # the lone point is certainly the NN
            assert set(ans) == {0}
            assert ans[0] == pytest.approx(1.0, abs=1e-12)


class TestScalarPairShapes:
    """A bare ``(x, y)`` query must behave as a one-row matrix everywhere."""

    def test_planner_accepts_pair(self):
        planner = QueryPlanner(POINTS)
        assert planner.candidate_mask((3.0, 4.0)).shape == (1, len(POINTS))
        [nz] = planner.nonzero_nn_many((3.0, 4.0))
        assert nz == UncertainSet(POINTS).nonzero_nn((3.0, 4.0))

    def test_batch_accepts_pair(self):
        idx, val = batch.expected_nn_many(POINTS, (3.0, 4.0))
        assert idx.shape == (1,)
        xi, xv = batch.expected_nn_many(POINTS, (3.0, 4.0), exact=True)
        assert idx[0] == xi[0] and val[0] == xv[0]
        [est] = batch.monte_carlo_pnn_many(POINTS, (3.0, 4.0), s=25)
        assert est and abs(sum(est.values()) - 1.0) < 1e-9
        [ans] = batch.threshold_nn_exact_many(DISCRETE, (3.0, 4.0), 0.1)
        assert isinstance(ans, dict)

    def test_monte_carlo_pair_matches_matrix_row(self):
        mc = MonteCarloPNN(POINTS, s=30, rng=2)
        planner = QueryPlanner(POINTS)
        single = mc.query_matrix((3.0, 4.0), planner=planner)
        matrix = mc.query_matrix(np.array([[3.0, 4.0], [7.0, 1.0]]), planner=planner)
        assert np.array_equal(single[0], matrix[0])


class TestExpectedNNIndexEdges:
    def test_empty_and_pair_queries(self):
        idx = ExpectedNNIndex(POINTS)
        for exact in (False, True):
            i0, v0 = idx.query_many(np.empty((0, 2)), exact=exact)
            assert i0.shape == (0,)
            i1, v1 = idx.query_many((3.0, 4.0), exact=exact)
            assert i1.shape == (1,)
        # Pair answer agrees with the scalar query winner value.
        wi, wv = idx.query((3.0, 4.0))
        _, v1 = idx.query_many((3.0, 4.0))
        assert v1[0] == pytest.approx(wv, abs=1e-6)
