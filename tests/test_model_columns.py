"""The SoA model store: envelope brackets, moments, tags, CSR columns,
and the array-based STR bulk loaders."""

import numpy as np
import pytest

from repro import ModelColumns, UncertainSet
from repro.uncertain.columns import (
    TAG_DISCRETE,
    TAG_DISK,
    TAG_GAUSSIAN,
    TAG_HISTOGRAM,
    TAG_POLYGON,
    TAG_RECT,
)
from repro import (
    DiscreteUncertainPoint,
    HistogramPoint,
    TruncatedGaussianPoint,
    UniformDiskPoint,
    UniformPolygonPoint,
    UniformRectPoint,
)
from repro.constructions import random_discrete_points, random_queries
from repro.index import str_leaves
from repro.index.bulk import str_hierarchy


def mixed_points():
    return [
        random_discrete_points(1, k=6, seed=3, box=10, scatter=3)[0],
        UniformRectPoint((1.0, 2.0, 4.0, 5.5)),
        UniformDiskPoint((2.0, 1.0), 2.5),
        TruncatedGaussianPoint((0.5, -1.0), sigma=1.2),
        HistogramPoint((0.0, 0.0), 1.5, [[0.2, 0.0, 0.1], [0.3, 0.4, 0.0]]),
        UniformPolygonPoint([(0, 0), (4, 0), (3, 3), (1, 4)]),
    ]


class TestModelColumns:
    def test_tags_cover_every_model(self):
        cols = ModelColumns(mixed_points())
        assert cols.tags.tolist() == [
            TAG_DISCRETE,
            TAG_RECT,
            TAG_DISK,
            TAG_GAUSSIAN,
            TAG_HISTOGRAM,
            TAG_POLYGON,
        ]

    def test_envelope_bounds_bracket_exact_extremal_distances(self):
        points = mixed_points()
        cols = ModelColumns(points)
        Q = np.asarray(random_queries(150, seed=7, bbox=(-8, -8, 14, 14)))
        lb, ub = cols.envelope_bounds_many(Q)
        for i, p in enumerate(points):
            dmin = p.dmin_many(Q)
            dmax = p.dmax_many(Q)
            assert np.all(lb[:, i] <= dmin * (1 + 1e-12) + 1e-12)
            assert np.all(dmax <= ub[:, i] * (1 + 1e-12) + 1e-12)

    def test_envelope_bounds_exact_for_disk_gaussian_rect(self):
        points = mixed_points()
        cols = ModelColumns(points)
        Q = np.asarray(random_queries(80, seed=8, bbox=(-8, -8, 14, 14)))
        lb, ub = cols.envelope_bounds_many(Q)
        for i in (1, 2, 3):  # rect, disk, gaussian
            p = points[i]
            np.testing.assert_allclose(lb[:, i], p.dmin_many(Q), rtol=1e-12)
            np.testing.assert_allclose(ub[:, i], p.dmax_many(Q), rtol=1e-12)

    def test_expected_bounds_bracket_expected_distance(self):
        points = mixed_points()
        cols = ModelColumns(points)
        Q = np.asarray(random_queries(60, seed=9, bbox=(-8, -8, 14, 14)))
        lb, ub = cols.expected_bounds_many(Q)
        for i, p in enumerate(points):
            E = p.expected_distance_many(Q)
            assert np.all(lb[:, i] <= E + 1e-6)
            assert np.all(E <= ub[:, i] + 1e-6)

    def test_means_match_analytic_first_moments(self):
        disk = UniformDiskPoint((2.0, -1.0), 3.0)
        rect = UniformRectPoint((0.0, 0.0, 4.0, 2.0))
        loc = [(0.0, 0.0), (2.0, 0.0), (0.0, 2.0)]
        w = [0.5, 0.25, 0.25]
        disc = DiscreteUncertainPoint(loc, w)
        cols = ModelColumns([disk, rect, disc])
        np.testing.assert_allclose(cols.means[0], (2.0, -1.0))
        np.testing.assert_allclose(cols.means[1], (2.0, 1.0))
        np.testing.assert_allclose(cols.means[2], (0.5, 0.5))
        assert cols.has_mean.all()

    def test_mean_reach_covers_support(self):
        points = mixed_points()
        cols = ModelColumns(points)
        # The mean plus its reach must cover the farthest support point.
        for i, p in enumerate(points):
            assert cols.mean_reach[i] == pytest.approx(
                p.dmax(tuple(cols.means[i])), abs=1e-9
            )

    def test_csr_location_columns(self):
        points = mixed_points()
        cols = ModelColumns(points)
        assert cols.loc_offsets[0] == 0
        assert cols.loc_offsets[-1] == len(cols.location_weights)
        assert cols.locations.shape == (len(cols.location_weights), 2)
        for i in range(cols.n):
            w = cols.location_weights[cols.loc_offsets[i] : cols.loc_offsets[i + 1]]
            assert w.sum() == pytest.approx(1.0, abs=1e-9)
        # Discrete CSR row reproduces the model's locations verbatim.
        np.testing.assert_allclose(
            cols.locations[cols.loc_offsets[0] : cols.loc_offsets[1]],
            np.asarray(points[0].locations),
        )

    def test_empty_point_set_rejected(self):
        with pytest.raises(ValueError):
            ModelColumns([])

    def test_mismatched_columns_rejected(self):
        from repro import QueryPlanner
        from repro.errors import QueryError

        points = mixed_points()
        cols = ModelColumns(points[:3])
        with pytest.raises(QueryError):
            QueryPlanner(points, columns=cols)


class TestBulkLeafBuilders:
    def _bboxes(self, n, seed):
        points = UncertainSet(
            random_discrete_points(n, k=3, seed=seed, box=100)
        )
        return np.asarray([p.support_bbox() for p in points], dtype=np.float64)

    @pytest.mark.parametrize("builder", ["str", "hierarchy"])
    @pytest.mark.parametrize("n", [1, 5, 16, 17, 100])
    def test_leaves_partition_indices(self, builder, n):
        B = self._bboxes(n, seed=n)
        if builder == "str":
            levels = [str_leaves(B, capacity=8)]
        else:
            # Every level partitions the level below, and its group
            # bboxes cover their members.
            levels, below = [], B
            for perm, starts, gb in str_hierarchy(B, 8, 4):
                groups = np.split(perm, starts[1:])
                for g, members in enumerate(groups):
                    sub = below[members]
                    assert np.all(gb[g, :2] <= sub[:, :2].min(axis=0))
                    assert np.all(gb[g, 2:] >= sub[:, 2:].max(axis=0))
                levels.append(groups)
                below = gb
            assert len(levels[-1]) == 1
        for leaves in levels:
            seen = np.concatenate(leaves)
            assert sorted(seen.tolist()) == list(range(seen.shape[0]))
            assert all(1 <= len(leaf) <= 8 for leaf in leaves)
        assert sum(len(leaf) for leaf in levels[0]) == n

    def test_empty_inputs(self):
        assert str_leaves(np.empty((0, 4))) == []
        assert str_hierarchy(np.empty((0, 4))) == []
        with pytest.raises(ValueError):
            str_leaves(np.empty((0, 4)), capacity=0)
        with pytest.raises(ValueError):
            str_hierarchy(np.empty((0, 4)), fanout=1)
