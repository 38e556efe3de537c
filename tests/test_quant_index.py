"""The ε-certificate of the quantized-envelope tier.

Property tests over every uncertain model type: approximate expected-NN
answers are within the certified budget of the exact ones, ε-relaxed
``NN!=0`` sets satisfy their sandwich, certified threshold rows are
exact, and the exact-fallback mask is honored end to end.  The cell
labels equal the exact tier's answers at the cell centers bit for bit,
because the index values them with the pruned tier's grouped kernels.
"""

import random

import numpy as np
import pytest

from repro import (
    DiscreteUncertainPoint,
    HistogramPoint,
    QuantizedEnvelopeIndex,
    QueryPlanner,
    TruncatedGaussianPoint,
    UncertainSet,
    UniformDiskPoint,
    UniformPolygonPoint,
    UniformRectPoint,
    batch,
)
from repro.constructions import random_discrete_points, random_disk_points
from repro.errors import QueryError

EPS = 0.4


def _model_zoo(seed=0, per_type=4, box=30.0):
    """A mixed set with every model type."""
    rng = random.Random(seed)

    def anchor():
        return rng.uniform(3, box - 3), rng.uniform(3, box - 3)

    points = []
    for _ in range(per_type):
        ax, ay = anchor()
        points.append(
            DiscreteUncertainPoint(
                [
                    (ax + rng.uniform(-1, 1), ay + rng.uniform(-1, 1))
                    for _ in range(3)
                ],
                [0.5, 0.3, 0.2],
            )
        )
        ax, ay = anchor()
        points.append(UniformRectPoint((ax, ay, ax + 1.5, ay + 1.0)))
        ax, ay = anchor()
        points.append(UniformDiskPoint((ax, ay), rng.uniform(0.4, 1.2)))
        ax, ay = anchor()
        points.append(TruncatedGaussianPoint((ax, ay), sigma=0.5))
        ax, ay = anchor()
        points.append(
            HistogramPoint((ax, ay), 0.8, [[0.25, 0.25], [0.25, 0.25]])
        )
        ax, ay = anchor()
        points.append(
            UniformPolygonPoint(
                [(ax, ay), (ax + 1.6, ay + 0.2), (ax + 0.8, ay + 1.4)]
            )
        )
    return points


def _queries(seed, m=60, lo=-5.0, hi=35.0):
    rng = random.Random(seed)
    return np.array(
        [[rng.uniform(lo, hi), rng.uniform(lo, hi)] for _ in range(m)]
    )


class TestExpectedCertificate:
    def test_value_and_winner_within_eps_all_models(self):
        points = _model_zoo(seed=1)
        Q = _queries(2)
        index = QuantizedEnvelopeIndex(points, eps=EPS, criterion="expected")
        ans = index.expected_nn_many(Q)
        exact_w, exact_v = batch.expected_nn_many(points, Q, exact=True)
        E = batch.expected_distance_matrix(points, Q)
        good = ~ans.fallback
        assert good.any()
        # |approx - exact| <= eps on the envelope value ...
        assert np.all(
            np.abs(ans.values[good] - exact_v[good]) <= EPS + 1e-6
        )
        # ... and the reported winner is eps-optimal.
        subopt = E[np.arange(len(Q)), ans.winners.clip(0)] - exact_v
        assert np.all(subopt[good] <= EPS + 1e-6)

    def test_relative_budget(self):
        points = _model_zoo(seed=3)
        Q = _queries(4)
        index = QuantizedEnvelopeIndex(
            points, eps=0.1, rel=0.2, criterion="expected"
        )
        ans = index.expected_nn_many(Q)
        _, exact_v = batch.expected_nn_many(points, Q, exact=True)
        good = ~ans.fallback
        budget = np.maximum(0.1, 0.2 * exact_v)
        assert np.all(np.abs(ans.values[good] - exact_v[good]) <= budget[good] + 1e-6)

    def test_fallback_mask_honored_by_facade(self):
        points = _model_zoo(seed=5)
        # Far-away queries are outside the quantized domain -> fallback.
        Q = np.vstack([_queries(6), [[500.0, 500.0], [-400.0, 80.0]]])
        index = QuantizedEnvelopeIndex(points, eps=EPS, criterion="expected")
        ans = index.expected_nn_many(Q)
        assert ans.fallback[-2:].all()
        assert np.all(ans.winners[ans.fallback] == -1)
        assert np.all(np.isnan(ans.values[ans.fallback]))
        # The facade resolves exactly those rows with the exact tier.
        wi, vv = batch.expected_nn_many(points, Q, eps=EPS)
        exact_w, exact_v = batch.expected_nn_many(points, Q, exact=True)
        fb = ans.fallback
        assert np.array_equal(wi[fb], exact_w[fb])
        assert np.array_equal(vv[fb], exact_v[fb])
        assert np.all(np.abs(vv - exact_v) <= EPS + 1e-6)

    def test_planner_tier_dispatch(self):
        points = _model_zoo(seed=7)
        Q = _queries(8, m=30)
        planner = QueryPlanner(points)
        wi, vv = planner.expected_nn_many(Q, tier="approx", eps=EPS)
        _, exact_v = planner.expected_nn_many(Q, tier="exact")
        assert np.all(np.abs(vv - exact_v) <= EPS + 1e-6)
        with pytest.raises(QueryError):
            planner.expected_nn_many(Q, tier="approx")  # eps missing
        with pytest.raises(QueryError):
            planner.expected_nn_many(Q, tier="nope")


class TestSupportCertificate:
    def test_nonzero_sandwich_all_models(self):
        points = _model_zoo(seed=11)
        Q = _queries(12)
        index = QuantizedEnvelopeIndex(points, eps=EPS, criterion="support")
        ans = index.nonzero_nn_many(Q)
        uset = UncertainSet(points)
        dmins = uset.dmin_matrix(Q)
        dmaxs = uset.dmax_matrix(Q)
        n = len(points)
        for r in range(Q.shape[0]):
            if ans.fallback[r]:
                continue
            S = ans.sets[r]
            for i in range(n):
                t_i = np.min(np.delete(dmaxs[r], i))
                if dmins[r, i] < t_i - EPS:
                    assert i in S
                if i in S:
                    assert dmins[r, i] <= t_i + EPS + 1e-9

    def test_facade_eps_routing_resolves_fallback(self):
        points = _model_zoo(seed=13)
        Q = np.vstack([_queries(14, m=20), [[999.0, 0.0]]])
        sets = batch.nonzero_nn_many(points, Q, eps=EPS)
        exact = batch.nonzero_nn_many(points, Q, exact=True)
        index = QuantizedEnvelopeIndex(points, eps=EPS, criterion="support")
        fb = index.nonzero_nn_many(Q).fallback
        assert fb[-1]
        for r in np.flatnonzero(fb):
            assert sets[r] == exact[r]

    def test_threshold_certified_rows_exact(self):
        rng = random.Random(17)
        points = [
            DiscreteUncertainPoint(
                [
                    (rng.uniform(0, 30), rng.uniform(0, 30))
                    for _ in range(2)
                ],
                [0.6, 0.4],
            )
            for _ in range(12)
        ]
        Q = _queries(18, m=40, lo=0.0, hi=30.0)
        index = QuantizedEnvelopeIndex(points, eps=EPS, criterion="support")
        tau = 0.25
        ans = index.threshold_nn_many(Q, tau)
        exact = batch.threshold_nn_exact_many(points, Q, tau, exact=True)

        def same_answer(a, b):
            # Certified cells report a certain winner at exactly 1.0;
            # the sweep's float accumulation can land at 1.0 +/- ulps.
            return a.keys() == b.keys() and all(
                abs(a[i] - b[i]) < 1e-12 for i in a
            )

        for r in range(Q.shape[0]):
            if not ans.fallback[r]:
                assert same_answer(ans.answers[r], exact[r])
        # eps routing through the facade matches the pruned answer sets.
        via_eps = batch.threshold_nn_exact_many(points, Q, tau, eps=EPS)
        assert all(same_answer(a, b) for a, b in zip(via_eps, exact))

    def test_continuous_quantification_many_parity(self):
        from repro import (
            continuous_quantification_all,
            continuous_quantification_many,
        )

        rng = random.Random(33)
        points = [
            UniformDiskPoint((rng.uniform(0, 8), rng.uniform(0, 8)), 1.0)
            for _ in range(4)
        ]
        Q = np.array([[2.0, 2.0], [6.0, 3.0], [0.5, 7.0]])
        got = continuous_quantification_many(points, Q)
        for r, q in enumerate(Q):
            want = continuous_quantification_all(points, tuple(q))
            assert np.allclose(got[r], want, atol=1e-9)
        # A candidate superset of NN!=0 restricts without changing values.
        cands = [range(len(points))] * len(Q)
        assert np.allclose(
            continuous_quantification_many(points, Q, candidates=cands), got
        )
        with pytest.raises(ValueError):
            continuous_quantification_many(points, Q, candidates=[[0]])

    def test_criterion_mismatch_raises(self):
        points = _model_zoo(seed=19, per_type=1)
        e_index = QuantizedEnvelopeIndex(points, eps=EPS, criterion="expected")
        s_index = QuantizedEnvelopeIndex(points, eps=EPS, criterion="support")
        with pytest.raises(QueryError):
            e_index.nonzero_nn_many([[0.0, 0.0]])
        with pytest.raises(QueryError):
            s_index.expected_nn_many([[0.0, 0.0]])


class TestConstruction:
    def test_parameter_validation(self):
        points = [UniformDiskPoint((0, 0), 1.0)]
        with pytest.raises(QueryError):
            QuantizedEnvelopeIndex(points, eps=0.0)
        with pytest.raises(QueryError):
            QuantizedEnvelopeIndex(points, eps=0.5, rel=-1.0)
        with pytest.raises(QueryError):
            QuantizedEnvelopeIndex(points, eps=0.5, criterion="bogus")
        with pytest.raises(QueryError):
            QuantizedEnvelopeIndex([], eps=0.5)

    def test_single_point_settles_at_root(self):
        index = QuantizedEnvelopeIndex(
            [UniformDiskPoint((2.0, 3.0), 1.0)], eps=0.5
        )
        stats = index.stats()
        assert stats["leaves"] == 1.0 and stats["settled_leaves"] == 1.0
        ans = index.expected_nn_many([[2.0, 3.0], [2.5, 3.5]])
        assert not ans.fallback.any()
        assert np.all(ans.winners == 0)

    def test_guard_produces_fallback_not_wrong_answers(self):
        points = _model_zoo(seed=23, per_type=2)
        index = QuantizedEnvelopeIndex(
            points, eps=0.05, criterion="expected", max_nodes=200
        )
        stats = index.stats()
        assert stats["fallback_leaves"] > 0
        Q = _queries(24, m=30, lo=0.0, hi=30.0)
        ans = index.expected_nn_many(Q)
        _, exact_v = batch.expected_nn_many(points, Q, exact=True)
        good = ~ans.fallback
        assert np.all(np.abs(ans.values[good] - exact_v[good]) <= 0.05 + 1e-6)

    def test_prelabel_matches_lazy(self):
        rng = random.Random(29)
        points = [
            UniformDiskPoint(
                (rng.uniform(2, 28), rng.uniform(2, 28)),
                rng.uniform(0.4, 1.0),
            )
            for _ in range(10)
        ]
        Q = _queries(30, m=25, lo=0.0, hi=30.0)
        lazy = QuantizedEnvelopeIndex(
            points, eps=1.0, rel=0.1, criterion="expected"
        )
        eager = QuantizedEnvelopeIndex(
            points, eps=1.0, rel=0.1, criterion="expected"
        )
        eager.prelabel()
        a = lazy.expected_nn_many(Q)
        b = eager.expected_nn_many(Q)
        assert np.array_equal(a.winners, b.winners)
        assert np.array_equal(a.values[~a.fallback], b.values[~b.fallback])


class TestOneEvaluator:
    @pytest.mark.parametrize("seed", [1, 3, 5])
    @pytest.mark.parametrize("criterion", ["expected", "support"])
    def test_labels_equal_the_exact_tier_at_cell_centers(self, criterion, seed):
        points = _model_zoo(seed=seed)
        planner = QueryPlanner(points)
        index = QuantizedEnvelopeIndex(
            points, eps=EPS, criterion=criterion, planner=planner
        )
        ids = index._quant_leaf_ids
        # The exact tier values each polygon and gaussian at a center by
        # quadrature (~30 ms a row here), so expected samples fewer cells.
        size = min(300 if criterion == "support" else 50, ids.size)
        rng = np.random.default_rng(seed)
        cells = np.sort(rng.choice(ids, size=size, replace=False))
        centers = np.column_stack((index._leaf_cx[cells], index._leaf_cy[cells]))
        # A center locates its own cell, so the query reads its label.
        assert np.array_equal(index.locate_many(centers), cells)
        if criterion == "expected":
            ans = index.expected_nn_many(centers)
            winners, values = planner.expected_nn_many(centers, tier="exact")
            assert np.array_equal(ans.winners, winners)
            assert np.array_equal(ans.values, values)
        else:
            ans = index.nonzero_nn_many(centers)
            assert ans.sets == planner.nonzero_nn_many(centers, tier="exact")
        assert not ans.fallback.any()

    def test_labels_and_settled_rows_call_no_model_method(self, monkeypatch):
        # Polygons keep their per-object fallback in the grouped
        # evaluator, so the set holds only the grouped families.
        points = random_disk_points(40, seed=7, box=60.0) + random_discrete_points(
            40, k=3, seed=8, box=60.0
        )
        planner = QueryPlanner(points)
        warm = _queries(9, m=5, lo=0.0, hi=60.0)
        for name in ("expected_nn_many", "nonzero_nn_many"):
            getattr(planner, name)(warm, tier="approx", eps=EPS)
        calls = []

        def counted(cls, name):
            method = getattr(cls, name)

            def wrapper(self, *args, **kwargs):
                calls.append((cls.__name__, name))
                return method(self, *args, **kwargs)

            monkeypatch.setattr(cls, name, wrapper)

        for cls in (UniformDiskPoint, DiscreteUncertainPoint):
            for name in ("expected_distance_many", "dmin_many", "dmax_many"):
                counted(cls, name)
        Q = _queries(10, m=200, lo=0.0, hi=60.0)
        for criterion, name in (
            ("expected", "expected_nn_many"), ("support", "nonzero_nn_many")
        ):
            index = planner.approx_index(EPS, criterion=criterion)
            leaf = index.locate_many(Q)
            kinds = index._leaf_kind[leaf]
            # The batch labels fresh cells and answers settled rows.
            assert not index._leaf_labelled[leaf[kinds == 1]].all()
            assert np.any(kinds == 0)
            assert not getattr(index, name)(Q).fallback.any()
            assert index._leaf_labelled[leaf[kinds == 1]].all()
        assert calls == []

