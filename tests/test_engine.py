"""The stateful :class:`repro.Engine` session API.

Acceptance properties of the PR 4 redesign:

* **Bit-identity** — every ``Engine`` answer equals the stateless
  :mod:`repro.batch` facade's for every method x tier x model-type
  combination (the facade itself is a throwaway-engine wrapper, so this
  also pins the facade to its pre-engine outputs, which the planner and
  batch parity suites check against the brute-force paths).
* **Build-once** — after the first query of a key, further query
  batches build nothing (asserted through the registry's build/hit
  instrumentation), and hot repeated batches hit the result cache.
* **Dynamic updates** — ``insert`` / ``remove`` followed by any query
  matches a freshly built engine exactly (including the in-place
  extended/shrunk column store), and removing down to an empty dataset
  leaves a queryable engine returning well-shaped empty results.
* **Declarative specs** — ``QuerySpec`` validates its fields eagerly.
"""

import random
import timeit

import numpy as np
import pytest

from repro import (
    Engine,
    HistogramPoint,
    ModelColumns,
    QueryError,
    QuerySpec,
    TruncatedGaussianPoint,
    UniformDiskPoint,
    UniformPolygonPoint,
    UniformRectPoint,
    batch,
)
from repro.constructions import (
    cluster_centers,
    clustered_disk_points,
    clustered_queries,
    random_discrete_points,
    random_disk_points,
    random_queries,
)


def model_points(kind, seed, n=8, box=60.0):
    rng = random.Random(seed)
    if kind == "discrete":
        return random_discrete_points(n, k=4, seed=seed, box=box)
    if kind == "disk":
        return random_disk_points(n, seed=seed, box=box, radius_range=(0.4, 2.5))
    pts = []
    for _ in range(n):
        x, y = rng.uniform(0, box), rng.uniform(0, box)
        if kind == "rect":
            pts.append(
                UniformRectPoint(
                    (x, y, x + rng.uniform(1, 4), y + rng.uniform(1, 4))
                )
            )
        elif kind == "gaussian":
            pts.append(
                TruncatedGaussianPoint((x, y), sigma=rng.uniform(0.5, 2))
            )
        elif kind == "polygon":
            pts.append(
                UniformPolygonPoint(
                    [(x, y), (x + 3, y), (x + 2.5, y + 2.5), (x + 0.5, y + 3)]
                )
            )
        else:  # histogram
            pts.append(
                HistogramPoint(
                    (x, y),
                    rng.uniform(0.5, 1.5),
                    [[0.3, 0.2], [0.1, 0.4]],
                )
            )
    return pts


def mixed_points(seed, box=60.0):
    pts = []
    for kind in ("discrete", "disk", "rect", "gaussian", "polygon", "histogram"):
        pts += model_points(kind, seed, n=4, box=box)
    return pts


def queries_for(seed, m=40, box=60.0):
    qs = random_queries(
        m - 3, seed=seed, bbox=(-0.3 * box, -0.3 * box, 1.3 * box, 1.3 * box)
    )
    qs += [(0.0, 0.0), (box / 2, box / 2), (-4 * box, 2 * box)]
    return np.asarray(qs)


MODEL_KINDS = ["discrete", "disk", "rect", "gaussian", "polygon", "histogram"]


def clustered_session():
    """400 clustered disks and a 200-row clustered batch: the serving
    workload the result cache is built for."""
    centers = cluster_centers(12, seed=171, box=250.0)
    points = clustered_disk_points(400, centers=centers, seed=172)
    Q = np.asarray(clustered_queries(200, centers=centers, seed=173))
    return points, Q, centers


def assert_same_answers(a, b):
    if isinstance(a, np.ndarray):
        assert np.array_equal(a, np.asarray(b))
    else:
        assert a == b


class TestFacadeBitIdentity:
    """Engine answers == repro.batch answers, method x tier x model."""

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    @pytest.mark.parametrize("exact", [False, True])
    def test_exact_and_pruned_tiers(self, kind, exact):
        points = model_points(kind, seed=11)
        Q = queries_for(17)
        engine = Engine(points)
        ei, ev = engine.expected_nn_many(Q, exact=exact)
        bi, bv = batch.expected_nn_many(points, Q, exact=exact)
        assert np.array_equal(ei, bi) and np.array_equal(ev, bv)
        assert engine.nonzero_nn_many(Q, exact=exact) == batch.nonzero_nn_many(
            points, Q, exact=exact
        )
        assert np.array_equal(
            engine.expected_knn_many(Q, 3, exact=exact),
            batch.expected_knn_many(points, Q, 3, exact=exact),
        )
        assert engine.monte_carlo_pnn_many(
            Q, s=32, rng=7, exact=exact
        ) == batch.monte_carlo_pnn_many(points, Q, s=32, rng=7, exact=exact)

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_approx_tier(self, kind):
        points = model_points(kind, seed=13)
        Q = queries_for(19)
        engine = Engine(points)
        ei, ev = engine.expected_nn_many(Q, eps=0.5, rel=0.1)
        bi, bv = batch.expected_nn_many(points, Q, eps=0.5, rel=0.1)
        assert np.array_equal(ei, bi) and np.array_equal(ev, bv)
        assert engine.nonzero_nn_many(Q, eps=0.5) == batch.nonzero_nn_many(
            points, Q, eps=0.5
        )

    @pytest.mark.parametrize("exact", [False, True])
    def test_threshold_tiers_discrete(self, exact):
        points = model_points("discrete", seed=23)
        Q = queries_for(29)
        engine = Engine(points)
        assert engine.threshold_nn_exact_many(
            Q, 0.2, exact=exact
        ) == batch.threshold_nn_exact_many(points, Q, 0.2, exact=exact)

    def test_threshold_approx_tier_discrete(self):
        points = model_points("discrete", seed=31)
        Q = queries_for(37)
        assert Engine(points).threshold_nn_exact_many(
            Q, 0.2, eps=0.5
        ) == batch.threshold_nn_exact_many(points, Q, 0.2, eps=0.5)

    def test_mixed_models_all_methods(self):
        points = mixed_points(41)
        Q = queries_for(43)
        engine = Engine(points)
        for exact in (False, True):
            assert_same_answers(
                engine.expected_nn_many(Q, exact=exact)[0],
                batch.expected_nn_many(points, Q, exact=exact)[0],
            )
            assert engine.nonzero_nn_many(
                Q, exact=exact
            ) == batch.nonzero_nn_many(points, Q, exact=exact)

    def test_matrix_and_sampling_helpers(self):
        points = mixed_points(47)
        Q = queries_for(53)
        engine = Engine(points)
        assert np.array_equal(
            engine.dmin_matrix(Q), batch.dmin_matrix(points, Q)
        )
        assert np.array_equal(
            engine.dmax_matrix(Q), batch.dmax_matrix(points, Q)
        )
        ea, evv = engine.envelope_many(Q)
        ba, bvv = batch.envelope_many(points, Q)
        assert np.array_equal(ea, ba) and np.array_equal(evv, bvv)
        assert np.array_equal(
            engine.expected_distance_matrix(Q),
            batch.expected_distance_matrix(points, Q),
        )
        assert np.array_equal(
            engine.instantiate_many(3, 9), batch.instantiate_many(points, 3, 9)
        )

    def test_monte_carlo_knn_shared_block(self):
        points = model_points("discrete", seed=59)
        Q = queries_for(61)
        engine = Engine(points)
        assert engine.monte_carlo_knn_many(
            Q, 3, s=40, rng=5
        ) == batch.monte_carlo_knn_many(points, Q, 3, s=40, rng=5)
        # The PNN block for the same (s, seed) is the identical array.
        block = engine.sample_block(40, 5)
        assert engine.monte_carlo_index(s=40, seed=5).samples is block

    def test_facade_requires_points(self):
        with pytest.raises(QueryError):
            batch.nonzero_nn_many([], queries_for(3))


class TestRegistryCaching:
    def test_exact_tier_builds_no_pruning_structures(self):
        engine = Engine(model_points("disk", seed=347, n=8))
        engine.expected_nn_many(queries_for(349, m=4), exact=True)
        built = engine.stats()["built_indexes"]
        assert not {"columns", "dual_tree", "eval_cache"} & set(built)

    def test_second_query_builds_nothing(self):
        engine = Engine(mixed_points(67))
        Q1 = queries_for(71)
        Q2 = queries_for(73)  # distinct: bypasses the result cache
        engine.expected_nn_many(Q1)
        builds = engine.stats()["registry_builds"]
        hits = engine.stats()["registry_hits"]
        engine.expected_nn_many(Q2)
        stats = engine.stats()
        assert stats["registry_builds"] == builds
        assert stats["registry_hits"] > hits

    def test_quantized_index_cached_per_key(self):
        engine = Engine(model_points("disk", seed=79))
        Q = queries_for(83)
        engine.expected_nn_many(Q, eps=0.5)
        builds = engine.stats()["registry_builds"]
        engine.expected_nn_many(queries_for(89), eps=0.5)
        assert engine.stats()["registry_builds"] == builds
        engine.expected_nn_many(Q, eps=0.25)  # new key -> one new build
        assert engine.stats()["registry_builds"] == builds + 1
        keys = engine.stats()["built_indexes"]
        assert sum(k.startswith("quant[") for k in keys) == 2

    def test_value_keyed_caches_are_bounded(self):
        from repro.engine import _FAMILY_LIMITS

        engine = Engine(model_points("disk", seed=353, n=6))
        Q = queries_for(359, m=3)
        for seed in range(_FAMILY_LIMITS["samples"] + 3):
            engine.monte_carlo_pnn_many(Q, s=8, rng=seed)
        keys = engine.registry.keys()
        assert sum(k[0] == "samples" for k in keys) == _FAMILY_LIMITS["samples"]
        assert sum(k[0] == "mc_pnn" for k in keys) == _FAMILY_LIMITS["mc_pnn"]
        for j in range(_FAMILY_LIMITS["quant"] + 2):
            engine.expected_nn_many(Q, eps=0.3 + 0.1 * j)
        assert (
            sum(k[0] == "quant" for k in engine.registry.keys())
            == _FAMILY_LIMITS["quant"]
        )
        # An evicted key transparently rebuilds (and stays correct).
        a = engine.monte_carlo_pnn_many(Q, s=8, rng=0)
        b = Engine(engine.points).monte_carlo_pnn_many(Q, s=8, rng=0)
        assert a == b

    def test_memory_accounting_counts_sample_blocks_once(self):
        engine = Engine(model_points("disk", seed=317, n=10))
        engine.monte_carlo_pnn_many(queries_for(331, m=4), s=100, rng=3)
        block = engine.sample_block(100, 3)
        cols = engine.columns()
        # The pruned-tier query also built the dual-tree object tree,
        # which the registry owns and therefore counts.
        otree = engine.object_tree()
        assert (
            engine.stats()["memory_bytes"]
            == block.nbytes + cols.nbytes + otree.nbytes
        )

    def test_mc_blocks_keyed_by_s_and_seed(self):
        engine = Engine(model_points("disk", seed=97))
        Q = queries_for(101)
        engine.monte_carlo_pnn_many(Q, s=16, rng=1)
        builds = engine.stats()["registry_builds"]
        engine.monte_carlo_pnn_many(queries_for(103), s=16, rng=1)
        assert engine.stats()["registry_builds"] == builds
        engine.monte_carlo_pnn_many(Q, s=16, rng=2)  # block + index
        assert engine.stats()["registry_builds"] == builds + 2

    def test_result_cache_hot_batch(self):
        engine = Engine(model_points("disk", seed=107))
        Q = queries_for(109)
        r1 = engine.query(Q, method="expected_nn")
        r2 = engine.query(Q, method="expected_nn")
        assert not r1.cached and r2.cached
        assert np.array_equal(r1.answers, r2.answers)
        assert np.array_equal(r1.values, r2.values)
        # Cached replicas are private copies: mutating one serving must
        # not corrupt the next.
        r2.answers[:] = -5
        r3 = engine.query(Q, method="expected_nn")
        assert np.array_equal(r1.answers, r3.answers)
        assert engine.stats()["result_cache_hits"] == 2

    def test_repeated_and_distinct_batches_match_facade(self):
        points, Q, centers = clustered_session()
        engine = Engine(points)
        want = batch.expected_nn_many(points, Q)
        for _ in range(3):  # one miss, then cache hits
            got = engine.expected_nn_many(Q)
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])
        assert engine.stats()["result_cache_hits"] == 2
        for seed in (180, 181, 182):
            Qj = np.asarray(clustered_queries(len(Q), centers=centers, seed=seed))
            got = engine.expected_nn_many(Qj)
            want = batch.expected_nn_many(points, Qj)
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])

    def test_hot_batch_cache_hit_5x_faster_than_facade(self):
        points, Q, _ = clustered_session()
        engine = Engine(points)
        engine.expected_nn_many(Q)  # the miss that fills the cache
        t_facade = min(timeit.repeat(
            lambda: batch.expected_nn_many(points, Q), number=1, repeat=3
        ))
        t_hit = min(timeit.repeat(
            lambda: engine.expected_nn_many(Q), number=1, repeat=3
        ))
        assert engine.stats()["result_cache_hits"] == 3
        assert t_facade >= 5.0 * t_hit, (t_facade, t_hit)

    def test_unseeded_monte_carlo_never_cached(self):
        engine = Engine(model_points("disk", seed=113))
        Q = queries_for(127)
        rng = np.random.default_rng(3)
        engine.monte_carlo_pnn_many(Q, s=8, rng=rng)
        assert engine.stats()["result_cache_entries"] == 0
        assert not any(
            k.startswith(("samples", "mc_pnn"))
            for k in engine.stats()["built_indexes"]
        )

    def test_diagnostics_not_dropped_by_cache_hits(self):
        engine = Engine(model_points("disk", seed=311))
        Q = queries_for(313, m=8)
        plain = engine.query(Q, method="expected_nn")
        diag = engine.query(Q, method="expected_nn", diagnostics=True)
        assert not diag.cached and "mean_candidates" in diag.diagnostics
        diag2 = engine.query(Q, method="expected_nn", diagnostics=True)
        assert diag2.cached and "mean_candidates" in diag2.diagnostics
        assert np.array_equal(plain.answers, diag.answers)

    def test_result_cache_lru_bound(self):
        engine = Engine(model_points("disk", seed=131), result_cache_size=2)
        for seed in (1, 2, 3, 4):
            engine.query(queries_for(seed, m=5), method="nonzero")
        assert engine.stats()["result_cache_entries"] == 2


class TestDynamicUpdates:
    def _assert_matches_fresh(self, engine, points):
        fresh = Engine(points)
        Q = queries_for(139)
        ei, ev = engine.expected_nn_many(Q)
        fi, fv = fresh.expected_nn_many(Q)
        assert np.array_equal(ei, fi) and np.array_equal(ev, fv)
        assert engine.nonzero_nn_many(Q) == fresh.nonzero_nn_many(Q)
        assert engine.monte_carlo_pnn_many(
            Q, s=16, rng=3
        ) == fresh.monte_carlo_pnn_many(Q, s=16, rng=3)
        ai, av = engine.expected_nn_many(Q, eps=0.5)
        bi, bv = fresh.expected_nn_many(Q, eps=0.5)
        assert np.array_equal(ai, bi) and np.array_equal(av, bv)
        # The in-place extended/shrunk column store equals a fresh one,
        # byte for byte: every row column and the location CSR.
        cols = engine.columns()
        ref = ModelColumns(points)
        for name in ModelColumns.ARRAY_FIELDS:
            got, want = getattr(cols, name), getattr(ref, name)
            assert got.dtype == want.dtype and got.shape == want.shape, name
            assert got.tobytes() == want.tobytes(), name

    def test_insert_matches_fresh_build(self):
        base = mixed_points(149)
        extra = model_points("disk", seed=151, n=5)
        engine = Engine(base)
        engine.expected_nn_many(queries_for(7))  # build, then mutate
        gen = engine.generation
        engine.insert(extra)
        assert engine.generation == gen + 1
        self._assert_matches_fresh(engine, base + extra)

    def test_remove_matches_fresh_build(self):
        base = mixed_points(157)
        engine = Engine(base)
        engine.expected_nn_many(queries_for(11))
        engine.remove([0, 5, 17])
        keep = [p for i, p in enumerate(base) if i not in (0, 5, 17)]
        self._assert_matches_fresh(engine, keep)

    def test_insert_then_remove_roundtrip(self):
        base = model_points("disk", seed=163)
        extra = model_points("gaussian", seed=167, n=4)
        engine = Engine(base)
        engine.nonzero_nn_many(queries_for(13))
        engine.insert(extra)
        engine.remove(np.arange(len(base), len(base) + len(extra)))
        self._assert_matches_fresh(engine, base)

    def test_remove_boolean_mask_and_validation(self):
        engine = Engine(model_points("disk", seed=173))
        n = len(engine)
        mask = np.zeros(n, dtype=bool)
        mask[::2] = True
        engine.remove(mask)
        assert len(engine) == n - int(mask.sum())
        with pytest.raises(QueryError):
            engine.remove([len(engine)])
        with pytest.raises(QueryError):
            engine.remove(np.ones(5, dtype=bool))

    def test_update_invalidates_result_cache(self):
        engine = Engine(model_points("disk", seed=179))
        Q = queries_for(181)
        engine.query(Q, method="expected_nn")
        engine.insert(model_points("disk", seed=191, n=2))
        res = engine.query(Q, method="expected_nn")
        assert not res.cached

    def test_handed_out_structures_survive_updates(self):
        base = model_points("disk", seed=401, n=10)
        engine = Engine(base)
        Q = queries_for(409, m=8)
        planner = engine.planner()
        wi, wv = planner.expected_nn_many(Q)
        engine.insert(model_points("disk", seed=419, n=3))
        # The stale planner keeps answering over its original dataset.
        ai, av = planner.expected_nn_many(Q)
        assert np.array_equal(wi, ai) and np.array_equal(wv, av)
        engine.remove([0])
        bi, bv = planner.expected_nn_many(Q)
        assert np.array_equal(wi, bi) and np.array_equal(wv, bv)

    def test_remove_rejects_float_indices(self):
        engine = Engine(model_points("disk", seed=421, n=5))
        with pytest.raises(QueryError):
            engine.remove([1.7])
        assert len(engine) == 5

    def test_update_sweeps_stale_registry_entries(self):
        engine = Engine(model_points("disk", seed=241))
        Q = queries_for(251, m=10)
        engine.expected_nn_many(Q, eps=0.5)
        engine.monte_carlo_pnn_many(Q, s=16, rng=1)
        assert len(engine.registry.keys()) > 1
        engine.insert(model_points("disk", seed=257, n=1))
        # Only the structures the write carried survive the generation
        # bump (the columns, and the dual tree the approx tier's fallback
        # rows built); superseded planner/quant/sample structures are
        # freed.
        assert engine.registry.keys() == [("columns",), ("dual_tree",)]
        # A write of more than an eighth of the objects drops the tree.
        engine.insert(model_points("disk", seed=263, n=2))
        assert engine.registry.keys() == [("columns",)]

    def test_writes_carry_tree(self):
        # A small write carries the column store and the dual tree
        # forward, so the next read builds only its planner and the eval
        # cache.
        engine = Engine(model_points("disk", seed=431, n=64) + mixed_points(433))
        Q = queries_for(439, m=12)
        engine.expected_nn_many(Q)
        stats = engine.stats()
        assert stats["registry_builds"] == 4  # planner, columns, tree, cache
        assert stats["registry_carried"] == 0
        assert stats["evaluators"]["cache_builds"] == 1
        tree = engine.object_tree()
        engine.insert(model_points("rect", seed=443, n=3))
        engine.remove([0, 5, 70])
        stats = engine.stats()
        assert stats["registry_carried"] == 4
        assert stats["built_indexes"] == ["columns", "dual_tree"]
        winners, values = engine.expected_nn_many(Q)
        stats = engine.stats()
        assert stats["registry_builds"] == 6  # planner and eval cache
        assert stats["evaluators"]["cache_builds"] == 1
        assert engine.object_tree() is not tree
        fresh = Engine(engine.points).expected_nn_many(Q, exact=True)
        assert np.array_equal(winners, fresh[0])
        assert np.array_equal(values, fresh[1])
        # Past an eighth of n the tree is dropped (the next read packs a
        # fresh one); the columns are still carried.
        engine.insert(model_points("disk", seed=449, n=12))
        assert engine.stats()["registry_carried"] == 5
        engine.expected_nn_many(Q)
        assert engine.stats()["registry_builds"] == 9  # planner, tree, cache


class TestEmptyEngine:
    def test_remove_to_empty_then_query(self):
        engine = Engine(model_points("disk", seed=193, n=3))
        engine.expected_nn_many(queries_for(197, m=4))
        engine.remove([0, 1, 2])
        assert len(engine) == 0
        Q = queries_for(199, m=6)
        winners, values = engine.expected_nn_many(Q)
        assert winners.shape == (6,) and (winners == -1).all()
        assert values.shape == (6,) and np.isinf(values).all()
        assert engine.nonzero_nn_many(Q) == [frozenset()] * 6
        assert engine.threshold_nn_exact_many(Q, 0.2) == [{}] * 6
        assert engine.monte_carlo_pnn_many(Q, s=4) == [{}] * 6
        assert engine.expected_knn_many(Q, 3).shape == (6, 0)
        # The approx tier keeps its array contract on empty engines.
        res = engine.query(Q, method="expected_nn", tier="approx", eps=0.5)
        assert res.fallback.shape == (6,) and not res.fallback.any()
        assert res.certificate.shape == (6,) and (res.certificate == 0).all()

    def test_empty_engine_matrices_and_zero_queries(self):
        engine = Engine([])
        Q = queries_for(211, m=5)
        assert engine.dmin_matrix(Q).shape == (5, 0)
        assert engine.dmax_matrix(Q).shape == (5, 0)
        assert engine.expected_distance_matrix(Q).shape == (5, 0)
        assert engine.instantiate_many(0, 7).shape == (7, 0, 2)
        answers = engine.approx_threshold_many(Q, 0.5, 0.1)
        assert len(answers) == 5
        assert all(a.above == {} and a.undecided == {} for a in answers)
        # Empty query batches against an empty engine (PR 2 empty-input
        # support composes with the empty dataset).
        winners, values = engine.expected_nn_many(np.empty((0, 2)))
        assert winners.shape == (0,) and values.shape == (0,)
        assert engine.nonzero_nn_many([]) == []

    def test_empty_engine_grows_by_insert(self):
        engine = Engine([])
        points = model_points("disk", seed=223, n=4)
        engine.insert(points)
        fresh = Engine(points)
        Q = queries_for(227, m=8)
        ei, ev = engine.expected_nn_many(Q)
        fi, fv = fresh.expected_nn_many(Q)
        assert np.array_equal(ei, fi) and np.array_equal(ev, fv)


#: Malformed spec field values as a client may send them, each with the
#: field it must be rejected for.  ``tests/test_service_http.py`` posts
#: the same specs over HTTP.
MALFORMED_SPECS = [
    ({"method": "expected_knn", "k": "3"}, "k"),
    ({"method": "expected_knn", "k": 2.5}, "k"),
    ({"method": "expected_knn", "k": True}, "k"),
    ({"method": "threshold", "tau": "0.2"}, "tau"),
    ({"method": "expected_nn", "tier": "approx", "eps": 0.1, "rel": "x"}, "rel"),
    ({"method": "expected_nn", "rel": float("nan")}, "rel"),
    ({"method": "expected_nn", "tier": "approx", "eps": float("inf")}, "eps"),
    ({"method": "expected_nn", "degrade_eps": "a"}, "degrade_eps"),
    ({"method": "expected_nn", "deadline_s": float("inf")}, "deadline_s"),
    ({"method": "mc_pnn", "s": -5}, "s"),
    ({"method": "mc_pnn", "s": "64"}, "s"),
    ({"method": "mc_pnn", "s": 8, "delta": 1.5}, "delta"),
    ({"method": "mc_pnn", "s": 8, "adaptive": 1, "tol": 0.5}, "adaptive"),
    ({"method": "mc_pnn", "epsilon": "0.1"}, "epsilon"),
    ({"method": "expected_nn", "tile_bytes": -1}, "tile_bytes"),
    ({"method": "expected_nn", "parallel_workers": 0}, "parallel_workers"),
    ({"method": "expected_nn", "parallel_backend": "bogus"}, "parallel_backend"),
    ({"method": "expected_nn", "parallel_backend": "process"}, "parallel_backend"),
    ({"method": "expected_nn", "diagnostics": "yes"}, "diagnostics"),
]
MALFORMED_IDS = [f"{field}={spec[field]!r}" for spec, field in MALFORMED_SPECS]


class TestQuerySpecValidation:
    @pytest.mark.parametrize("fields, field", MALFORMED_SPECS, ids=MALFORMED_IDS)
    def test_malformed_field_rejected(self, fields, field):
        with pytest.raises(QueryError) as err:
            QuerySpec(**fields)
        assert str(err.value).startswith(f"{field} must"), err.value

    def test_numpy_scalars_accepted(self):
        spec = QuerySpec(
            "mc_pnn", s=np.int64(8), delta=np.float32(0.1),
            tile_bytes=np.int32(1 << 20), adaptive=np.bool_(True),
            tol=np.float64(0.5),
        )
        assert spec.to_dict()["s"] == 8
        assert QuerySpec("expected_knn", k=np.intp(3)).k == 3

    def test_unknown_method_and_tier(self):
        with pytest.raises(QueryError):
            QuerySpec("nearest")
        with pytest.raises(QueryError):
            QuerySpec("expected_nn", tier="fuzzy")

    def test_approx_tier_requirements(self):
        with pytest.raises(QueryError):
            QuerySpec("expected_nn", tier="approx")  # eps missing
        with pytest.raises(QueryError):
            QuerySpec("expected_nn", tier="approx", eps=0.0)
        with pytest.raises(QueryError):
            QuerySpec("expected_nn", tier="approx", eps=0.5, rel=-1.0)
        with pytest.raises(QueryError):
            QuerySpec("expected_knn", tier="approx", eps=0.5, k=2)
        with pytest.raises(QueryError):
            QuerySpec("mc_pnn", tier="approx", eps=0.5, s=8)
        with pytest.raises(QueryError):
            QuerySpec("expected_nn", eps=0.5)  # eps without approx tier

    def test_method_parameter_requirements(self):
        with pytest.raises(QueryError):
            QuerySpec("expected_knn")  # k missing
        with pytest.raises(QueryError):
            QuerySpec("expected_knn", k=0)
        with pytest.raises(QueryError):
            QuerySpec("threshold")  # tau missing
        with pytest.raises(QueryError):
            QuerySpec("threshold", tau=1.0)
        with pytest.raises(QueryError):
            QuerySpec("mc_pnn")  # s / epsilon missing
        with pytest.raises(QueryError):
            QuerySpec("mc_pnn", s=8, adaptive=True)  # tol missing

    def test_contradictory_facade_knobs(self):
        engine = Engine(model_points("disk", seed=229, n=3))
        with pytest.raises(ValueError):
            engine.expected_nn_many(queries_for(233, m=3), exact=True, eps=0.5)

    def test_subset_normalisation_and_range(self):
        spec = QuerySpec("expected_nn", subset=[3, 1, 3, 2])
        assert spec.subset == (1, 2, 3)
        mask = np.array([True, False, True, False])
        assert QuerySpec("expected_nn", subset=mask).subset == (0, 2)
        with pytest.raises(QueryError):
            QuerySpec("expected_nn", subset=[-1, 2])
        engine = Engine(model_points("disk", seed=239, n=4))
        with pytest.raises(QueryError):
            engine.query(queries_for(241, m=3), method="expected_nn", subset=[9])

    def test_subset_boolean_mask_length_checked_against_n(self):
        engine = Engine(model_points("disk", seed=293, n=6))
        Q = queries_for(307, m=3)
        wrong = np.array([True, False, True])  # built against n=3, not 6
        with pytest.raises(QueryError):
            engine.query(Q, method="expected_nn", subset=wrong)
        right = np.zeros(6, dtype=bool)
        right[:3] = True
        res = engine.query(Q, method="expected_nn", subset=right)
        assert res.answers.shape == (3,)

    def test_invalid_mask_raises_even_when_cache_is_warm(self):
        engine = Engine(model_points("disk", seed=331, n=5))
        Q = queries_for(337, m=3)
        engine.query(Q, method="expected_nn", subset=[0, 2])  # warms cache
        bad = np.array([True, False, True])  # normalises to (0, 2) too
        with pytest.raises(QueryError):
            engine.query(Q, method="expected_nn", subset=bad)
        # ... including when kwargs trigger a dataclasses.replace.
        spec = QuerySpec("expected_nn", subset=bad)
        with pytest.raises(QueryError):
            engine.query(Q, spec, tile_bytes=1 << 20)

    def test_float_subset_indices_rejected(self):
        with pytest.raises(QueryError):
            QuerySpec("expected_nn", subset=[1.9, 3.2])
        assert QuerySpec("expected_nn", subset=()).subset == ()


class TestSubsetQueries:
    def test_subset_matches_sub_engine_in_parent_indices(self):
        points = mixed_points(251)
        Q = queries_for(257)
        engine = Engine(points)
        idx = list(range(0, len(points), 3))
        res = engine.query(Q, method="expected_nn", subset=idx)
        sub = Engine([points[i] for i in idx])
        si, sv = sub.expected_nn_many(Q)
        assert np.array_equal(res.answers, np.asarray(idx)[si])
        assert np.array_equal(res.values, sv)
        sets = engine.query(Q, method="nonzero", subset=idx).answers
        expected = [
            frozenset(int(np.asarray(idx)[j]) for j in s)
            for s in sub.nonzero_nn_many(Q)
        ]
        assert sets == expected

    def test_subset_engine_cache_is_bounded(self):
        from repro.engine import _FAMILY_LIMITS

        limit = _FAMILY_LIMITS["subset"]
        points = model_points("disk", seed=271, n=20)
        engine = Engine(points, result_cache_size=0)
        Q = queries_for(277, m=4)
        for start in range(limit + 4):
            engine.query(
                Q, method="expected_nn", subset=list(range(start, start + 5))
            )
        subset_keys = [
            k for k in engine.registry.keys() if k[0] == "subset"
        ]
        assert len(subset_keys) == limit


class TestResultStructure:
    def test_query_result_fields(self):
        engine = Engine(model_points("disk", seed=263))
        Q = queries_for(269, m=10)
        res = engine.query(
            Q, method="expected_nn", tier="approx", eps=0.5, diagnostics=True
        )
        assert res.m == 10 and res.n == len(engine)
        assert res.fallback.shape == (10,) and res.fallback.dtype == bool
        assert res.certificate.shape == (10,)
        assert (res.certificate[~res.fallback] >= 0.5).all()
        assert (res.certificate[res.fallback] == 0.0).all()
        assert res.elapsed >= 0.0 and res.plan["route"].startswith("expected_nn")
        assert "fallback_rows" in res.diagnostics
        pruned = engine.query(Q, method="expected_nn", diagnostics=True)
        assert "mean_candidates" in pruned.diagnostics

    def test_stats_and_repr(self):
        engine = Engine(mixed_points(271))
        engine.expected_nn_many(queries_for(277, m=6))
        stats = engine.stats()
        assert stats["n"] == len(engine)
        assert stats["models"]["disk"] == 4
        assert "planner" in stats["built_indexes"]
        assert stats["memory_bytes"] > 0
        text = repr(engine)
        assert "Engine(" in text and "generation=0" in text

    def test_execution_overrides_bit_identical(self):
        points = model_points("disk", seed=281, n=20)
        Q = queries_for(283, m=30)
        # Result caching off so the second query actually re-executes
        # under the overridden tiling/parallel regime.
        engine = Engine(points, result_cache_size=0)
        base = engine.query(Q, method="expected_nn")
        tiled = engine.query(
            Q, method="expected_nn", tile_bytes=4096,
            parallel_backend="thread",
        )
        assert not tiled.cached
        assert np.array_equal(base.answers, tiled.answers)
        assert np.array_equal(base.values, tiled.values)
