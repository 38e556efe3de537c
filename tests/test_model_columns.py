"""The SoA model store: envelope brackets, moments, tags, CSR columns,
support radii, and the array-based STR bulk loaders."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import Engine, ModelColumns, QuerySpec, UncertainSet
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


coords = st.floats(-100.0, 100.0, allow_nan=False)


@st.composite
def discrete_objects(draw):
    """k = 1..8 locations: scattered, near-cocircular, or duplicated."""
    k = draw(st.integers(1, 8))
    shape = draw(st.sampled_from(("scatter", "circle", "duplicates")))
    if shape == "circle":
        cx, cy = draw(coords), draw(coords)
        r = draw(st.floats(1e-3, 50.0))
        wobble = st.floats(-1e-9, 1e-9)
        locs = [
            (cx + r * math.cos(a) + draw(wobble), cy + r * math.sin(a) + draw(wobble))
            for a in draw(st.lists(st.floats(0.0, 2 * math.pi), min_size=k, max_size=k))
        ]
    elif shape == "duplicates":
        base = draw(st.lists(st.tuples(coords, coords), min_size=1, max_size=3))
        locs = [base[draw(st.integers(0, len(base) - 1))] for _ in range(k)]
    else:
        locs = draw(st.lists(st.tuples(coords, coords), min_size=k, max_size=k))
    return DiscreteUncertainPoint(locs, [1.0 / k] * k)


@st.composite
def cocircular_polygons(draw):
    """3..8 vertices on one circle, at least a degree apart."""
    cx, cy = draw(coords), draw(coords)
    r = draw(st.floats(1e-2, 50.0))
    turn = draw(st.floats(0.0, 1.0))
    degrees = draw(st.lists(st.integers(0, 359), min_size=3, max_size=8, unique=True))
    return UniformPolygonPoint([
        (cx + r * math.cos(math.radians(d + turn)), cy + r * math.sin(math.radians(d + turn)))
        for d in degrees
    ])


#: A discrete object one of whose locations lies 8e-12 relative outside
#: its smallest enclosing circle's radius (Welzl's inside test allows
#: 1e-10), and a certain point that beats it by 4e-12 at ``ROW``.
NEAR_COCIRCULAR = DiscreteUncertainPoint(
    [(58.13820877404199, 70.37454101336156), (58.90410328017087, 71.48851256655766),
     (59.0950422498526, 71.28938094890569), (59.08110913537973, 70.76733544616104)],
    [0.39403481169065885, 0.16715108914919427, 0.3403053962374821, 0.09850870292266471],
)
CERTAIN = DiscreteUncertainPoint([(58.13820877404426, 70.37454101336486)], [1.0])
ROW = [[58.08143592951698, 70.29221942369921]]


class TestSupportRadii:
    """Each discrete and polygon radius covers the object's support
    points, measured as the pair bounds measure distances."""

    @staticmethod
    def _support(p):
        if isinstance(p, DiscreteUncertainPoint):
            return p._loc_arr
        return np.asarray([(v.x, v.y) for v in p.vertices])

    @given(st.lists(st.one_of(discrete_objects(), cocircular_polygons()),
                    min_size=1, max_size=6))
    @settings(max_examples=150, deadline=None)
    @example([NEAR_COCIRCULAR])
    def test_every_support_point_lies_within_its_radius(self, points):
        cols = ModelColumns(points)
        for i, p in enumerate(points):
            support = self._support(p)
            dx = support[:, 0] - cols.centers[i, 0]
            dy = support[:, 1] - cols.centers[i, 1]
            assert np.all(np.sqrt(dx * dx + dy * dy) <= cols.radii[i]), i

    def test_pruned_tier_keeps_a_near_cocircular_answer(self):
        # dmin of the first object is 0.09999999999999411 and dmax of
        # the certain point 0.10000000000399502, so both are answers.
        engine = Engine([NEAR_COCIRCULAR, CERTAIN])
        exact = engine.query(ROW, QuerySpec("nonzero", tier="exact"))
        pruned = engine.query(ROW, QuerySpec("nonzero"))
        assert exact.answers == [frozenset({0, 1})]
        assert pruned.answers == exact.answers


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
