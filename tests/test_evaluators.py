"""Tag-grouped CSR survivor evaluation.

The acceptance property of the grouped evaluator is bit-identity: for
every float64 query path, the tag-grouped kernels of
``repro.core.evaluators`` must return *the same bits* as the models' own
``expected_distance_many`` / ``dmin_many`` / ``dmax_many``, which the
planner's exact tier calls and these tests use as the oracle, across all
six uncertainty model types and all four query methods.  Float32 mode is
certified rather than identical: answers must sit inside the per-row
error bound the kernels emit.
"""

import math
import random

import numpy as np
import pytest

from repro import Engine, ModelColumns, QueryPlanner, QuerySpec, config
from repro.constructions import (
    cluster_centers,
    clustered_disk_points,
    clustered_gaussian_points,
    clustered_queries,
    random_discrete_points,
    random_disk_points,
    random_queries,
)
from repro.core import evaluators, reducers
from repro.errors import QueryError
from repro.geometry import kernels
from repro.uncertain import (
    HistogramPoint,
    TruncatedGaussianPoint,
    UniformDiskPoint,
    UniformPolygonPoint,
    UniformRectPoint,
)


def six_model_points(seed, n_per=5, box=90.0):
    """A set mixing all six model families (incl. histogram)."""
    rng = random.Random(seed)
    pts = []
    pts += random_discrete_points(n_per, k=4, seed=seed, box=box)
    pts += random_disk_points(n_per, seed=seed + 1, box=box, radius_range=(0.4, 3))
    for _ in range(n_per):
        x, y = rng.uniform(0, box), rng.uniform(0, box)
        pts.append(
            UniformRectPoint((x, y, x + rng.uniform(1, 4), y + rng.uniform(1, 4)))
        )
        pts.append(
            TruncatedGaussianPoint(
                (rng.uniform(0, box), rng.uniform(0, box)),
                sigma=rng.uniform(0.5, 2),
            )
        )
        pts.append(
            UniformPolygonPoint(
                [(x, y), (x + 3, y), (x + 2.5, y + 2.5), (x + 0.5, y + 3)]
            )
        )
        pts.append(
            HistogramPoint(
                (rng.uniform(0, box), rng.uniform(0, box)),
                1.0 + rng.uniform(0, 1),
                [[0.2, 0.1], [0.3, 0.4]],
            )
        )
    return pts


def queries_for(seed, m=50, box=90.0):
    qs = random_queries(
        m - 4, seed=seed, bbox=(-0.3 * box, -0.3 * box, 1.3 * box, 1.3 * box)
    )
    qs += [(0.0, 0.0), (box / 2, box / 2), (-5 * box, 3 * box), (box, box)]
    return np.asarray(qs)


# ---------------------------------------------------------------------------
# Grouped kernels (pruned tier) vs the models' own methods (exact tier)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [11, 12, 13])
class TestGroupedObjectParity:
    def test_expected_nn(self, seed):
        planner = QueryPlanner(six_model_points(seed))
        Q = queries_for(seed + 10)
        # Every pair, not only the winners: the grouped kernels against
        # the exact tier's per-object expectation matrix.
        E = planner.expected_distance_matrix(Q, tier="exact")
        rows, cols = np.indices(E.shape).reshape(2, -1)
        values, _ = evaluators.expected_distance_pairs(
            planner.eval_cache(), Q, rows, cols
        )
        assert values.tobytes() == E.ravel().tobytes()
        wg, vg = planner.expected_nn_many(Q)
        wo, vo = planner.expected_nn_many(Q, tier="exact")
        assert np.array_equal(wg, wo)
        assert np.array_equal(vg, vo)

    def test_expected_matrix_and_knn(self, seed):
        planner = QueryPlanner(six_model_points(seed))
        Q = queries_for(seed + 20, m=25)
        pruned = planner.expected_distance_matrix(Q)
        exact = planner.expected_distance_matrix(Q, tier="exact")
        kept = np.isfinite(pruned)
        assert np.array_equal(pruned[kept], exact[kept])
        kg = planner.expected_knn_many(Q, 4)
        ko = planner.expected_knn_many(Q, 4, tier="exact")
        assert np.array_equal(np.asarray(kg), np.asarray(ko))

    def test_nonzero(self, seed):
        planner = QueryPlanner(six_model_points(seed))
        Q = queries_for(seed + 30, m=25)
        ng = planner.nonzero_nn_many(Q)
        no = planner.nonzero_nn_many(Q, tier="exact")
        assert all(set(a) == set(b) for a, b in zip(ng, no))

    def test_threshold_all_discrete(self, seed):
        points = random_discrete_points(40, k=3, seed=seed, box=60.0)
        planner = QueryPlanner(points)
        Q = queries_for(seed + 40, m=20, box=60.0)
        for tau in (0.1, 0.4):
            assert planner.threshold_nn_exact_many(
                Q, tau
            ) == planner.threshold_nn_exact_many(Q, tau, tier="exact")

    def test_exact_tier_matches_pruned(self, seed):
        planner = QueryPlanner(six_model_points(seed))
        Q = queries_for(seed + 50, m=20)
        we, ve = planner.expected_nn_many(Q, tier="exact")
        wp, vp = planner.expected_nn_many(Q, tier="pruned")
        assert np.array_equal(we, wp)
        assert np.array_equal(ve, vp)


def test_threshold_mixed_tags_raises_on_both():
    planner = QueryPlanner(six_model_points(21))
    Q = queries_for(31, m=5)
    with pytest.raises(QueryError):
        planner.threshold_nn_exact_many(Q, 0.2)
    with pytest.raises(QueryError):
        planner.threshold_nn_exact_many(Q, 0.2, tier="exact")


# ---------------------------------------------------------------------------
# Edge rows
# ---------------------------------------------------------------------------


class TestEdgeRows:
    def test_single_point_dataset(self):
        planner = QueryPlanner([UniformDiskPoint((3.0, 4.0), 1.5)])
        Q = np.asarray([(0.0, 0.0), (3.0, 4.0), (100.0, -7.0)])
        wg, vg = planner.expected_nn_many(Q)
        wo, vo = planner.expected_nn_many(Q, tier="exact")
        assert np.array_equal(wg, wo) and np.array_equal(vg, vo)
        assert wg.tolist() == [0, 0, 0]

    def test_min_reduce_empty_and_single_rows(self):
        indptr = np.asarray([0, 0, 1, 1, 4])
        cols = np.asarray([7, 2, 5, 9])
        values = np.asarray([3.0, 2.0, 2.0, 1.0])
        winners, best = reducers.min_reduce_csr(indptr, cols, values)
        assert best.tolist() == [np.inf, 3.0, np.inf, 1.0]
        assert winners[1] == 7 and winners[3] == 9

    def test_min_reduce_ties_pick_lowest_column(self):
        # Columns are ascending per row (the dual-tree CSR invariant);
        # the first position holding the minimum therefore maps to the
        # lowest tied column — the dense argmin's tie-break.
        indptr = np.asarray([0, 3])
        cols = np.asarray([2, 4, 8])
        values = np.asarray([1.0, 1.0, 1.0])
        winners, best = reducers.min_reduce_csr(indptr, cols, values)
        assert winners.tolist() == [2] and best.tolist() == [1.0]

    def test_min_reduce_matches_dense_argmin(self):
        rng = np.random.default_rng(5)
        m, n = 30, 17
        dense = rng.uniform(1, 9, (m, n))
        mask = rng.uniform(size=(m, n)) < 0.4
        mask[:, 0] = True  # keep every row non-empty
        indptr = np.concatenate([[0], np.cumsum(mask.sum(axis=1))])
        cols = np.nonzero(mask)[1]
        values = dense[mask]
        winners, best = reducers.min_reduce_csr(indptr, cols, values)
        masked = np.where(mask, dense, np.inf)
        assert np.array_equal(winners, masked.argmin(axis=1))
        assert np.array_equal(best, masked.min(axis=1))

    def test_max_reduce_empty_rows(self):
        indptr = np.asarray([0, 2, 2, 3])
        values = np.asarray([1.0, 5.0, 2.0])
        out = reducers.max_reduce_csr(indptr, values)
        assert out.tolist() == [5.0, 0.0, 2.0]


# ---------------------------------------------------------------------------
# Tag grouping + caches
# ---------------------------------------------------------------------------


def test_tag_groups_partition():
    points = six_model_points(25)
    cols = ModelColumns(points)
    rng = np.random.default_rng(3)
    sub = rng.integers(0, len(points), 40).astype(np.intp)
    seen = []
    for tag, positions in cols.tag_groups(sub):
        assert np.all(cols.tags[sub[positions]] == tag)
        seen.append(positions)
    all_pos = np.sort(np.concatenate(seen))
    assert np.array_equal(all_pos, np.arange(sub.shape[0]))


def test_gauss_legendre_nodes_cached_identity():
    a = kernels.gauss_legendre_nodes(16, 16)
    b = kernels.gauss_legendre_nodes(16, 16)
    assert a[0] is b[0] and a[1] is b[1]
    assert not a[0].flags.writeable
    assert math.isclose(a[1].sum(), 1.0, rel_tol=1e-12)


def test_eval_cache_hits_accumulate():
    grouped = QueryPlanner(six_model_points(26))
    Q = queries_for(36, m=10)
    grouped.expected_nn_many(Q)
    cache = grouped.eval_cache()
    first = cache.hits
    assert cache.builds == 1 and first >= 1
    grouped.expected_nn_many(Q)
    assert grouped.eval_cache() is cache
    assert cache.hits > first
    assert cache.pair_counts and sum(cache.pair_counts.values()) > 0


def test_discrete_stacks_view_the_store():
    # A location count whose objects hold one run of the store's
    # locations is stacked as a view of the store, which the cache's own
    # bytes leave to the store; a count interleaved with another is
    # gathered.  Either way each row holds its object's locations.
    points = (
        random_discrete_points(6, k=4, seed=3, box=90.0)
        + random_discrete_points(3, k=2, seed=4, box=90.0)
        + random_discrete_points(2, k=3, seed=5, box=90.0)
        + random_discrete_points(1, k=2, seed=6, box=90.0)
        + random_disk_points(2, seed=7, box=90.0)
    )
    cols = ModelColumns(points)
    cache = evaluators.EvalCache(points, cols)
    views = {k: np.shares_memory(cache.disc_locs[k], cols.locations) for k in cache.disc_locs}
    assert views == {2: False, 3: True, 4: True}
    assert all(
        np.shares_memory(cache.disc_w[k], cols.location_weights) == views[k]
        for k in cache.disc_w
    )
    offsets = cols.loc_offsets
    for i in range(12):
        k, row = cache.disc_group[i], cache.disc_row[i]
        at = slice(offsets[i], offsets[i + 1])
        assert np.array_equal(cache.disc_locs[k][row], cols.locations[at])
        assert np.array_equal(cache.disc_w[k][row], cols.location_weights[at])
    assert cache.disc_group[12:].tolist() == [-1, -1]
    held = [cache.nodes, cache.weights, cache.gnodes, cache.gweights,
            cache.disc_group, cache.disc_row, cache.hist_group, cache.hist_row]
    held += [a for a in (cache.gauss_mass, cache.rect_area) if a is not None]
    held += [cache.disc_locs[2], cache.disc_w[2]]
    assert not cache.hist_rects
    assert cache.nbytes == sum(a.nbytes for a in held)


def test_engine_diagnostics_and_stats():
    points = six_model_points(27)
    eng = Engine(points, result_cache_size=0)
    Q = queries_for(37, m=12)
    res = eng.query(Q, method="expected_nn", diagnostics=True)
    again = eng.query(Q, method="expected_nn", diagnostics=True)
    for key in ("eval_pairs", "eval_seconds", "prune_seconds", "eval_cache_hits"):
        assert key in res.diagnostics
    assert res.diagnostics["eval_pairs"] > 0
    stats = eng.stats()
    ev = stats["evaluators"]
    assert ev["cache_builds"] == 1
    assert sum(ev["pairs_by_tag"].values()) == ev["pairs"]
    # Exactly the two answer passes count, and each call's diagnostics
    # are its own share of the totals: nothing is re-run.
    diag = res.diagnostics
    assert ev["grouped_calls"] == 2
    assert ev["pairs"] == 2 * diag["eval_pairs"]
    assert ev["prune_seconds"] == pytest.approx(
        diag["prune_seconds"] + again.diagnostics["prune_seconds"], rel=1e-12
    )
    dual = stats["dual_tree"]
    assert dual["traversals"] == 2
    for key in ("node_pairs_visited", "refined_pairs", "survivors"):
        assert dual[key] == 2 * diag[key], key


@pytest.mark.parametrize(
    "spec", [QuerySpec("nonzero"), QuerySpec("expected_knn", k=3)],
    ids=["nonzero", "expected_knn"],
)
def test_eval_pairs_count_every_survivor(spec):
    # A tile budget of four rows: the reported pairs are the whole
    # batch's survivors, not one tile's.
    points = six_model_points(28)
    Q = queries_for(38, m=40)
    eng = Engine(points, result_cache_size=0)
    res = eng.query(Q, spec, diagnostics=True, tile_bytes=len(points) * 24 * 4)
    diag = res.diagnostics
    assert diag["survivors"] > 0
    assert diag["eval_pairs"] == diag["survivors"]


def test_unevaluated_calls_report_no_stale_eval():
    points = random_disk_points(60, seed=5, box=90.0)
    Q = queries_for(39, m=12)
    eng = Engine(points, result_cache_size=0)
    warm = eng.query(Q, QuerySpec("expected_nn"), diagnostics=True)
    assert warm.diagnostics["eval_pairs"] > 0
    # The Monte-Carlo rounds prune but never call the evaluators.
    mc = eng.query(Q[:5], QuerySpec("mc_pnn", s=32, seed=1), diagnostics=True)
    # An approx call values its settled rows' winners and the candidates
    # of each cell it labels (at eps = 10 these rows hit both kinds; the
    # far row would fall outside the quantized domain).
    near = Q[np.abs(Q).max(axis=1) < 200.0]
    res = eng.query(
        near, QuerySpec("expected_nn", tier="approx", eps=10.0), diagnostics=True
    )
    assert not np.any(res.fallback)
    index = eng.quantized_index(10.0)
    leaf = index.locate_many(near)
    kinds = index._leaf_kind[leaf]
    cells = np.searchsorted(index._quant_leaf_ids, np.unique(leaf[kinds == 1]))
    labelled = int(np.diff(index._quant_indptr)[cells].sum())
    assert np.count_nonzero(kinds == 0) and labelled
    tags = sum(v for k, v in res.diagnostics.items() if k.startswith("pairs_"))
    assert res.diagnostics["eval_pairs"] == tags
    assert tags == np.count_nonzero(kinds == 0) + labelled
    exact = eng.query(Q, QuerySpec("expected_nn", tier="exact"), diagnostics=True)
    for diag in (mc.diagnostics, exact.diagnostics):
        for key in ("eval_pairs", "eval_seconds", "prune_seconds"):
            assert key not in diag
        # Nor the eval cache's counters, which would describe other calls.
        assert not [k for k in diag if k.startswith(("eval_", "pairs_"))]


@pytest.mark.parametrize(
    "points,spec",
    [
        (six_model_points(29), QuerySpec("expected_nn", diagnostics=True)),
        (six_model_points(29), QuerySpec("nonzero", diagnostics=True)),
        (
            random_discrete_points(80, k=4, seed=29, box=90.0),
            QuerySpec("threshold", tau=0.1, diagnostics=True),
        ),
    ],
    ids=["expected_nn", "nonzero", "threshold"],
)
def test_repeated_diagnostics_report_the_call_alone(points, spec):
    # Identical queries on one engine (no result cache) report identical
    # evaluation counters: each describes its own call, not the eval
    # cache's lifetime.
    eng = Engine(points, result_cache_size=0)
    Q = queries_for(40, m=24)
    first, second, third = (eng.query(Q, spec).diagnostics for _ in range(3))
    counters = sorted(k for k in first if k.startswith("pairs_"))
    assert counters and first["eval_cache_hits"] > 0
    for diag in (second, third):
        assert sorted(k for k in diag if k.startswith("pairs_")) == counters
        for key in counters + ["eval_cache_hits", "eval_pairs", "survivors"]:
            assert diag[key] == first[key], key
    assert sum(first[k] for k in counters) == first["eval_pairs"]


def test_evaluator_chunks_follow_the_execution_budget(monkeypatch):
    # Every layer reads config.EXECUTION and the planner takes no
    # execution setting of its own: under a 1-byte budget each gaussian
    # pair is its own evaluator chunk.
    points = clustered_gaussian_points(300, seed=42, clusters=8, box=300.0)
    Q = np.asarray(
        clustered_queries(40, centers=cluster_centers(8, seed=41, box=300.0), seed=43)
    )
    with pytest.raises(TypeError):
        QueryPlanner(points, tile_bytes=1)
    planner = QueryPlanner(points)
    chunks = []
    checkpoint = evaluators._resilience.checkpoint

    def spy(site, index=None):
        if site == "evaluators.chunk":
            chunks.append(index)
        checkpoint(site, index)

    monkeypatch.setattr(evaluators._resilience, "checkpoint", spy)
    with config.execution(tile_bytes=1):
        planner.expected_nn_many(Q)
    assert planner.eval_totals["pairs"] > 40
    assert len(chunks) == planner.eval_totals["pairs"]
    assert chunks == list(range(len(chunks)))


# ---------------------------------------------------------------------------
# Certified float32 mode
# ---------------------------------------------------------------------------


class TestFloat32Certified:
    def _workload(self):
        centers = cluster_centers(8, seed=41, box=300.0)
        points = clustered_disk_points(300, centers=centers, seed=42)
        Q = np.asarray(clustered_queries(80, centers=centers, seed=43))
        return points, Q

    def _quadrature_workload(self):
        # Float32 covers the quadrature kernels only (disks run their
        # float64 closed form), so the certificate tests use gaussians.
        points = clustered_gaussian_points(300, seed=42, clusters=8, box=300.0)
        _, Q = self._workload()
        return points, Q

    def test_fallback_rows_within_certificate(self):
        points, Q = self._quadrature_workload()
        with config.execution(dtype="float32"):
            planner = QueryPlanner(points)
            wf, vf, fb, bounds = planner.expected_nn_many(
                Q, tier="approx", eps=1e-9, return_fallback=True
            )
        w64, v64 = QueryPlanner(points).expected_nn_many(Q)
        rows = np.flatnonzero(fb)
        if rows.size == 0:
            pytest.skip("no fallback rows at this eps")
        assert bounds is not None and bounds.shape == rows.shape
        assert np.all(np.abs(vf[rows] - v64[rows]) <= bounds)

    def test_float64_dtype_stays_bit_identical(self):
        # In float64 the approx tier's fallback rows resolve on the
        # pruned tier, so they equal the exact tier bit for bit.
        points, Q = self._workload()
        planner = QueryPlanner(points)
        wg, vg, fb, bounds = planner.expected_nn_many(
            Q, tier="approx", eps=1e-9, return_fallback=True
        )
        assert bounds is None
        rows = np.flatnonzero(fb)
        assert rows.size
        wo, vo = planner.expected_nn_many(Q[rows], tier="exact")
        assert np.array_equal(wg[rows], wo)
        assert np.array_equal(vg[rows], vo)

    def test_disk_fallback_rows_stay_float64(self):
        # Disk pairs run the float64 closed form under float32 too: the
        # fallback rows equal the float64 tier bit for bit, with zero
        # certificates.
        points, Q = self._workload()
        with config.execution(dtype="float32"):
            planner = QueryPlanner(points)
            wf, vf, fb, bounds = planner.expected_nn_many(
                Q, tier="approx", eps=1e-9, return_fallback=True
            )
            res = Engine(points).query(
                Q, method="expected_nn", tier="approx", eps=1e-9
            )
        rows = np.flatnonzero(fb)
        assert rows.size
        w64, v64 = QueryPlanner(points).expected_nn_many(Q[rows], tier="exact")
        assert np.array_equal(wf[rows], w64)
        assert np.array_equal(vf[rows], v64)
        assert np.array_equal(bounds, np.zeros(rows.size))
        assert np.array_equal(res.fallback, fb)
        assert np.all(res.certificate[rows] == 0.0)

    def test_engine_certificate_carries_bounds(self):
        points, Q = self._quadrature_workload()
        with config.execution(dtype="float32"):
            eng = Engine(points)
            res = eng.query(Q, method="expected_nn", tier="approx", eps=1e-9)
        rows = np.flatnonzero(res.fallback)
        if rows.size == 0:
            pytest.skip("no fallback rows at this eps")
        assert np.all(res.certificate[rows] > 0.0)

    def test_unknown_dtype_rejected(self):
        # The dtype only shapes the approx tier's fallback, so that is
        # where a bad value must fail loudly.
        points = random_disk_points(5, seed=2)
        with config.execution(dtype="float16"):
            planner = QueryPlanner(points)
            with pytest.raises(QueryError):
                planner.expected_nn_many(np.zeros((1, 2)), tier="approx", eps=0.5)
