"""Tests for the uncertain-point distribution models.

Every model must satisfy the interface contracts the core algorithms
rely on: cdf monotone in r, 0 at dmin-, 1 at dmax+, consistent with
sampling, and dmin/dmax correct extremal distances.
"""

import math
import pickle
import random

import numpy as np
import pytest

from repro import Engine
from repro.config import default_rng
from repro.constructions import random_discrete_points
from repro.errors import DistributionError
from repro.geometry.convex_hull import convex_hull, farthest_point_from
from repro.geometry.sec import smallest_enclosing_circle
from repro.index.sampler import AliasSampler
from repro.uncertain import (
    DiscreteUncertainPoint,
    HistogramPoint,
    TruncatedGaussianPoint,
    UniformDiskPoint,
    UniformPolygonPoint,
    UniformRectPoint,
    discretize,
)


def _models():
    return [
        UniformDiskPoint((2.0, 3.0), 1.5),
        DiscreteUncertainPoint(
            [(0, 0), (1, 0), (0.5, 1.0)], [0.2, 0.3, 0.5]
        ),
        TruncatedGaussianPoint((1.0, -2.0), sigma=0.8),
        HistogramPoint((0, 0), 1.0, [[0.25, 0.25], [0.25, 0.25]]),
        UniformPolygonPoint([(0, 0), (2, 0), (2, 1), (0, 1)]),
        UniformRectPoint((-1.0, 0.5, 1.5, 2.0)),
    ]


QUERIES = [(5.0, 5.0), (0.0, 0.0), (-3.0, 2.0), (1.0, 1.0)]


class TestInterfaceContracts:
    @pytest.mark.parametrize("model", _models(), ids=lambda m: type(m).__name__)
    def test_cdf_monotone_and_bounded(self, model):
        for q in QUERIES:
            lo, hi = model.dmin(q), model.dmax(q)
            assert 0.0 <= lo <= hi
            prev = -1.0
            for frac in (0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0):
                r = lo + frac * (hi - lo)
                v = model.distance_cdf(q, r)
                assert 0.0 <= v <= 1.0 + 1e-12
                assert v >= prev - 1e-9
                prev = v

    @pytest.mark.parametrize("model", _models(), ids=lambda m: type(m).__name__)
    def test_cdf_saturates(self, model):
        for q in QUERIES:
            lo, hi = model.dmin(q), model.dmax(q)
            if not model.is_discrete:
                # Continuous models carry no atoms: negligible mass below
                # just-under the minimum distance.  (Discrete models may
                # legitimately have an atom exactly at dmin.)
                assert model.distance_cdf(q, max(lo - 1e-6, 0.0)) <= 1e-6 + 0.05
            assert model.distance_cdf(q, hi + 1e-6) >= 1.0 - 1e-6

    @pytest.mark.parametrize("model", _models(), ids=lambda m: type(m).__name__)
    def test_samples_within_support_and_distance_range(self, model):
        rng = random.Random(42)
        bbox = model.support_bbox()
        q = (7.0, -1.0)
        lo, hi = model.dmin(q), model.dmax(q)
        for _ in range(300):
            x, y = model.sample(rng)
            assert bbox[0] - 1e-9 <= x <= bbox[2] + 1e-9
            assert bbox[1] - 1e-9 <= y <= bbox[3] + 1e-9
            d = math.hypot(x - q[0], y - q[1])
            assert lo - 1e-9 <= d <= hi + 1e-9

    @pytest.mark.parametrize("model", _models(), ids=lambda m: type(m).__name__)
    def test_cdf_matches_sampling(self, model):
        rng = random.Random(7)
        assert model.check_distance_cdf((4.0, 1.0), rng)

    @pytest.mark.parametrize("model", _models(), ids=lambda m: type(m).__name__)
    def test_expected_distance_between_extremes(self, model):
        for q in QUERIES:
            e = model.expected_distance(q)
            assert model.dmin(q) - 1e-9 <= e <= model.dmax(q) + 1e-9

    @pytest.mark.parametrize("model", _models(), ids=lambda m: type(m).__name__)
    def test_expected_distance_matches_sampling(self, model):
        rng = random.Random(11)
        q = (3.0, 2.0)
        n = 6000
        est = (
            sum(math.dist(model.sample(rng), q) for _ in range(n)) / n
        )
        assert abs(est - model.expected_distance(q)) < 0.05 * (
            1.0 + model.expected_distance(q)
        )


class TestUniformDisk:
    def test_figure_1_pdf_shape(self):
        # Paper Fig. 1: disk R=5 at origin, q=(6,8): support [5, 15].
        p = UniformDiskPoint((0, 0), 5.0)
        q = (6.0, 8.0)
        assert p.dmin(q) == 5.0
        assert p.dmax(q) == 15.0
        assert p.distance_pdf(q, 4.9) == 0.0
        assert p.distance_pdf(q, 15.1) == 0.0
        assert p.distance_pdf(q, 7.0) > 0.0

    def test_pdf_integrates_to_one(self):
        from repro.quadrature import adaptive_simpson

        p = UniformDiskPoint((0, 0), 5.0)
        q = (6.0, 8.0)
        total = adaptive_simpson(lambda r: p.distance_pdf(q, r), 5.0, 15.0, tol=1e-10)
        assert math.isclose(total, 1.0, rel_tol=1e-6)

    def test_pdf_matches_cdf_derivative(self):
        p = UniformDiskPoint((1, 1), 2.0)
        q = (5.0, 4.0)
        for r in (3.5, 4.0, 5.0, 6.0):
            num = (p.distance_cdf(q, r + 1e-6) - p.distance_cdf(q, r - 1e-6)) / 2e-6
            assert math.isclose(p.distance_pdf(q, r), num, rel_tol=1e-4)

    def test_query_inside_disk(self):
        p = UniformDiskPoint((0, 0), 2.0)
        q = (0.5, 0.0)
        assert p.dmin(q) == 0.0
        assert math.isclose(p.distance_cdf(q, 1.0), (1.0 / 2.0) ** 2 * 0.0 + p.distance_cdf(q, 1.0))
        # Whole circle of radius r inside: cdf = r^2 / R^2 while r <= R - d.
        assert math.isclose(p.distance_cdf(q, 1.0), 1.0 / 4.0, rel_tol=1e-12)


class TestDiscrete:
    def test_validation(self):
        with pytest.raises(DistributionError):
            DiscreteUncertainPoint([], [])
        with pytest.raises(DistributionError):
            DiscreteUncertainPoint([(0, 0)], [0.5])
        with pytest.raises(DistributionError):
            DiscreteUncertainPoint([(0, 0), (1, 1)], [1.5, -0.5])

    def test_cdf_is_step_function_with_ties_closed(self):
        p = DiscreteUncertainPoint([(1, 0), (0, 1)], [0.4, 0.6])
        q = (0.0, 0.0)
        assert p.distance_cdf(q, 0.999999) == 0.0
        assert p.distance_cdf(q, 1.0) == 1.0  # both at distance exactly 1

    def test_exact_expected_distance(self):
        p = DiscreteUncertainPoint([(3, 4), (0, 0)], [0.5, 0.5])
        assert math.isclose(p.expected_distance((0, 0)), 2.5)

    def test_discretize_preserves_cdf(self):
        src = UniformDiskPoint((0, 0), 2.0)
        rng = random.Random(3)
        disc = discretize(src, k=4000, rng=rng)
        q = (3.0, 0.0)
        for r in (1.5, 2.5, 3.5, 4.5):
            assert abs(disc.distance_cdf(q, r) - src.distance_cdf(q, r)) < 0.03


class TestHistogram:
    def test_validation(self):
        with pytest.raises(DistributionError):
            HistogramPoint((0, 0), 1.0, [[0.0]])
        with pytest.raises(DistributionError):
            HistogramPoint((0, 0), 1.0, [[0.5, -0.1]])
        with pytest.raises(DistributionError):
            HistogramPoint((0, 0), 0.0, [[1.0]])

    def test_zero_cells_removed(self):
        p = HistogramPoint((0, 0), 1.0, [[0.5, 0.0], [0.0, 0.5]])
        assert len(p.masses) == 2

    def test_cdf_exact_for_single_cell(self):
        p = HistogramPoint((0, 0), 2.0, [[1.0]])
        # Query at the cell center; disk fully inside the cell.
        q = (1.0, 1.0)
        r = 0.5
        assert math.isclose(p.distance_cdf(q, r), math.pi * r * r / 4.0, rel_tol=1e-9)


class TestPolygonUniform:
    def test_degenerate_polygon_rejected(self):
        with pytest.raises(DistributionError):
            UniformPolygonPoint([(0, 0), (1, 1), (2, 2)])
        # Three hull vertices whose fan triangles sum to zero area.
        with pytest.raises(DistributionError):
            UniformPolygonPoint([
                (1.0, 0.0),
                (0.5403023058681398, 0.8414709848078965),
                (1.0, 4.71407264051071e-90),
            ])

    def test_cdf_exact_square(self):
        p = UniformPolygonPoint([(0, 0), (2, 0), (2, 2), (0, 2)])
        q = (1.0, 1.0)
        r = 0.5
        assert math.isclose(p.distance_cdf(q, r), math.pi * r * r / 4.0, rel_tol=1e-9)

    def test_dmin_dmax(self):
        p = UniformPolygonPoint([(0, 0), (2, 0), (2, 2), (0, 2)])
        assert p.dmin((1, 1)) == 0.0
        assert math.isclose(p.dmax((0, 0)), math.hypot(2, 2))
        assert math.isclose(p.dmin((4, 1)), 2.0)


#: Per-point structures built on first use, not by the constructor.
LAZY = ("hull", "enclosing", "_sampler")

#: The support lists, which a decoded point builds from its arrays on
#: first use (the constructor keeps the lists it validated).
LISTS = ("locations", "weights")


def _built(p):
    return [name for name in LAZY if name in p.__dict__]


def _held(p):
    return [name for name in LISTS + LAZY if name in p.__dict__]


class TestLazyGeometry:
    """Discrete points build their hull, enclosing circle and alias
    table on first use; restoring an engine builds none of them, and
    points decoded by a restore or a log replay hold no support lists
    either."""

    QS = [(0.0, 0.0), (50.0, 50.0), (120.0, -7.5)]

    @staticmethod
    def _points():
        # k=1 exercises the single-location dmax path.
        return random_discrete_points(12, 4, seed=31) + random_discrete_points(
            3, 1, seed=32
        )

    def test_constructor_builds_nothing(self):
        assert all(_built(p) == [] for p in self._points())
        h = HistogramPoint((0, 0), 1.0, [[0.25, 0.25], [0.25, 0.25]])
        assert "_sampler" not in h.__dict__

    def test_restored_points_build_nothing(self, tmp_path):
        engine = Engine(self._points())
        engine.save(str(tmp_path / "snap.npz"))
        loaded = Engine.load(str(tmp_path / "snap.npz"))
        assert all(_built(p) == [] for p in loaded.points)

        # A durable tenant whose log inserts points and removes them
        # again (plus two snapshot rows): recovery decodes the logged
        # points but never summarises them.
        ddir = str(tmp_path / "dur")
        durable = Engine.open_durable(ddir, self._points())
        durable.insert(random_discrete_points(3, 4, seed=33))
        durable.remove([0, 5, 15, 16, 17])
        durable.close()
        recovered = Engine.open_durable(ddir)
        try:
            assert len(recovered) == 13
            assert recovered.stats()["wal"]["replayed"] == 2
            assert all(_built(p) == [] for p in recovered.points)
        finally:
            recovered.close()

    def test_first_use_matches_eager_construction(self, tmp_path):
        engine = Engine(self._points())
        engine.save(str(tmp_path / "snap.npz"))
        for p in Engine.load(str(tmp_path / "snap.npz")).points:
            hull = convex_hull(p.locations)
            for q in self.QS:
                px, py = p.locations[0]
                want = (
                    farthest_point_from(hull, q)[1]
                    if len(hull) >= 2
                    else math.hypot(px - q[0], py - q[1])
                )
                assert p.dmax(q) == want
            assert p.enclosing == smallest_enclosing_circle(p.locations)

            sampler = AliasSampler(p.weights)
            rng, ref = random.Random(5), random.Random(5)
            got = [p.sample(rng) for _ in range(40)]
            assert got == [p.locations[sampler.sample(ref)] for _ in range(40)]
            want = p._loc_arr[sampler.sample_many(default_rng(9), 64)]
            assert np.array_equal(p.sample_many(9, 64), want)
            assert _built(p) == list(LAZY)

    def test_pickles_before_and_after_first_use(self):
        for p in self._points()[:3] + [
            HistogramPoint((0, 0), 1.0, [[0.1, 0.2], [0.3, 0.4]])
        ]:
            fresh = pickle.loads(pickle.dumps(p))
            assert _built(fresh) == []
            rng = random.Random(3)
            stream = [p.sample(rng) for _ in range(5)]
            if isinstance(p, DiscreteUncertainPoint):
                p.dmax((1.0, 2.0))  # builds the hull
                p.enclosing
            used = pickle.loads(pickle.dumps(p))
            assert _built(used) == _built(p) and _built(p)
            for twin in (fresh, used):
                rng = random.Random(3)
                assert [twin.sample(rng) for _ in range(5)] == stream
                if isinstance(p, DiscreteUncertainPoint):
                    assert twin.hull == p.hull
                    assert twin.enclosing == p.enclosing

    def test_loaded_points_hold_nothing_through_reads_and_saves(self, tmp_path):
        Engine(self._points()).save(str(tmp_path / "snap.npz"))
        loaded = Engine.load(str(tmp_path / "snap.npz"))
        assert all(_held(p) == [] for p in loaded.points)
        Q = np.asarray(self.QS)
        for method in ("nonzero", "expected_nn"):
            loaded.query(Q, method=method)
        loaded.save(str(tmp_path / "again.npz"))
        assert all(_held(p) == [] for p in loaded.points)

    def test_replayed_points_hold_only_what_the_summary_used(self, tmp_path):
        ddir = str(tmp_path / "dur")
        durable = Engine.open_durable(ddir, self._points())
        durable.insert(random_discrete_points(3, 4, seed=33))
        durable.insert(random_discrete_points(2, 4, seed=34))
        durable.remove([0, 5, 18, 19])  # two snapshot rows, the second batch
        durable.close()
        recovered = Engine.open_durable(ddir)
        try:
            base, logged = recovered.points[:13], recovered.points[13:]
            assert len(logged) == 3
            for _ in range(2):
                assert all(_held(p) == [] for p in base)
                # The replay inserts the kept points as a live insert
                # does: the column summary is the first use of their
                # hull and circle, and never reads the lists.
                assert all(_held(p) == ["hull", "enclosing"] for p in logged)
                recovered.save(str(tmp_path / "again.npz"))
        finally:
            recovered.close()

        # A replaced relation is held unsummarised until a read needs it.
        ddir = str(tmp_path / "replaced")
        durable = Engine.open_durable(ddir, self._points())
        durable.replace_points(random_discrete_points(5, 3, seed=35))
        durable.close()
        recovered = Engine.open_durable(ddir)
        try:
            assert len(recovered) == 5
            assert all(_held(p) == [] for p in recovered.points)
        finally:
            recovered.close()

    def test_decoded_first_use_matches_eager_construction(self, tmp_path):
        Engine(self._points()).save(str(tmp_path / "snap.npz"))
        decoded = Engine.load(str(tmp_path / "snap.npz")).points
        for p, eager in zip(decoded, self._points()):
            assert p.name == eager.name and p.k == eager.k
            assert p.support_bbox() == eager.support_bbox()
            for q in self.QS:
                assert p.dmax(q) == eager.dmax(q)
                assert p.dmin(q) == eager.dmin(q)
                assert p.expected_distance(q) == eager.expected_distance(q)
                assert p.distance_cdf(q, 40.0) == eager.distance_cdf(q, 40.0)
            assert p.hull == eager.hull
            assert p.enclosing == eager.enclosing
            assert p.locations == eager.locations
            assert p.weights == eager.weights
            rng, ref = random.Random(5), random.Random(5)
            assert [p.sample(rng) for _ in range(40)] == [
                eager.sample(ref) for _ in range(40)
            ]
            assert np.array_equal(p.sample_many(9, 64), eager.sample_many(9, 64))
            assert _held(p) == list(LISTS + LAZY)

    def test_decoded_points_pickle_before_and_after_first_use(self, tmp_path):
        Engine(self._points()).save(str(tmp_path / "snap.npz"))
        for p in Engine.load(str(tmp_path / "snap.npz")).points[-5:]:
            fresh = pickle.loads(pickle.dumps(p))
            assert _held(fresh) == []
            rng = random.Random(3)
            stream = [p.sample(rng) for _ in range(5)]
            p.dmax((1.0, 2.0))
            p.enclosing
            p.weights
            used = pickle.loads(pickle.dumps(p))
            assert _held(used) == _held(p) == list(LISTS + LAZY)
            for twin in (fresh, used):
                assert np.array_equal(twin._loc_arr, p._loc_arr)
                assert np.array_equal(twin._w_arr, p._w_arr)
                rng = random.Random(3)
                assert [twin.sample(rng) for _ in range(5)] == stream
                assert (twin.hull, twin.enclosing) == (p.hull, p.enclosing)
                assert (twin.locations, twin.weights) == (p.locations, p.weights)
