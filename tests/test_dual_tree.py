"""Dual-tree candidate generation: survivor parity, answer identity,
output sensitivity, and the session/Monte-Carlo integrations.

The acceptance property of the traversal is twofold: the emitted CSR
survivor sets must be a superset-of-or-equal-to the flat prune's
survivors (so no winner is ever discarded — in fact they are *exactly
equal*, byte for byte, which these tests pin against the flat pass kept
here as the oracle), and every answer produced through the dual
generator must be bit-identical to the exact tier's across all six
uncertainty model types and all four query methods.
"""

import copy
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    DiscreteUncertainPoint,
    Engine,
    EnvelopeObjectTree,
    HistogramPoint,
    ModelColumns,
    MonteCarloPNN,
    QueryPlanner,
    QuerySpec,
    TruncatedGaussianPoint,
    UniformDiskPoint,
    UniformPolygonPoint,
    UniformRectPoint,
    config,
    dual_tree_candidates,
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
from repro.core import dual_tree as dual_tree_module
from repro.core import planner as planner_module
from repro.errors import QueryError
from repro.geometry import kernels


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


def queries_for(seed, m=60, box=90.0):
    qs = random_queries(
        m - 4, seed=seed, bbox=(-0.3 * box, -0.3 * box, 1.3 * box, 1.3 * box)
    )
    qs += [(0.0, 0.0), (box / 2, box / 2), (-5 * box, 3 * box), (box, box)]
    return np.asarray(qs)


def clustered_workload(n=400, m=200, clusters=10, seed=70):
    centers = cluster_centers(clusters, seed=seed, box=250.0)
    points = clustered_disk_points(n, centers=centers, seed=seed + 1)
    Q = np.asarray(clustered_queries(m, centers=centers, seed=seed + 2))
    return points, Q


def flat_survivors(cols, Q, k=1, criterion="support"):
    """The flat prune pass, the dual tree's oracle: the dense column
    bracket of every (query, object) pair, the planner's slacked k-th
    smallest upper bound per row, then ``lb <= cutoff``.  Returns the
    boolean mask and its CSR ``(indptr, indices)``."""
    if criterion == "expected":
        lb, ub = cols.expected_bounds_many(Q)
    else:
        lb, ub = cols.envelope_bounds_many(Q)
    cutoff = kernels.kth_smallest_rowwise(ub, k) * planner_module._CUTOFF_SLACK
    mask = lb <= cutoff[:, None]
    indptr = np.zeros(Q.shape[0] + 1, dtype=np.intp)
    np.cumsum(mask.sum(axis=1), out=indptr[1:])
    return mask, indptr, np.nonzero(mask)[1].astype(np.intp)


def parity_inputs(seed, offset, m):
    """The six-model mix for an integer seed; the clustered disk
    workload, where most pairs are pruned, for ``"clustered"``."""
    if seed == "clustered":
        return clustered_workload(n=300, m=150)
    return six_model_points(seed), queries_for(seed + offset, m=m)


@pytest.mark.parametrize("seed", [1, 2, 3, "clustered"])
@pytest.mark.parametrize("criterion", ["support", "expected"])
class TestSurvivorParity:
    """Dual survivors must contain — and in fact equal — flat survivors."""

    def test_superset_and_equality(self, seed, criterion):
        points, Q = parity_inputs(seed, 10, 60)
        cols = ModelColumns(points)
        for k in (1, 2, 7):
            mask, indptr, indices = flat_survivors(cols, Q, k, criterion)
            res = dual_tree_candidates(Q, cols, k=k, criterion=criterion)
            dual_mask = res.mask(len(points))
            assert np.all(mask <= dual_mask), (k, "flat survivor was pruned")
            assert res.indptr.tobytes() == indptr.tobytes(), k
            assert res.indices.tobytes() == indices.tobytes(), k

    def test_every_query_keeps_k(self, seed, criterion):
        points, Q = parity_inputs(seed, 20, 30)
        cols = ModelColumns(points)
        for k in (1, 3):
            res = dual_tree_candidates(Q, cols, k=k, criterion=criterion)
            assert res.counts().min() >= k


class TestSurvivorEdgeCases:
    def test_single_query(self):
        points = six_model_points(4)
        cols = ModelColumns(points)
        Q = queries_for(5)[:1]
        res = dual_tree_candidates(Q, cols)
        assert res.indptr.shape == (2,)
        assert np.array_equal(res.mask(len(points)), flat_survivors(cols, Q)[0])

    def test_empty_batch(self):
        cols = ModelColumns(six_model_points(6))
        res = dual_tree_candidates(np.zeros((0, 2)), cols)
        assert res.indptr.tolist() == [0]
        assert res.nnz == 0
        assert res.mask(cols.n).shape == (0, cols.n)

    def test_single_object(self):
        cols = ModelColumns([UniformDiskPoint((1.0, 2.0), 0.5)])
        Q = queries_for(7, m=20)
        res = dual_tree_candidates(Q, cols)
        assert np.all(res.counts() == 1)
        assert np.all(res.indices == 0)

    def test_planner_empty_queries_dual(self):
        planner = QueryPlanner(six_model_points(8))
        assert planner.candidate_mask([]).shape == (0, len(planner.points))
        indptr, indices = planner.candidate_csr([])
        assert indptr.tolist() == [0] and indices.size == 0


@pytest.mark.parametrize("seed", [1, 2])
class TestAnswerIdentity:
    """Dual-tree pruned vs exact-tier bit-identity for all four query
    methods over the six-model mix."""

    def test_expected_nn(self, seed):
        planner = QueryPlanner(six_model_points(seed))
        Q = queries_for(seed + 30, m=40)
        di, dv = planner.expected_nn_many(Q)
        ei, ev = planner.expected_nn_many(Q, tier="exact")
        assert np.array_equal(di, ei) and np.array_equal(dv, ev)

    def test_nonzero(self, seed):
        planner = QueryPlanner(six_model_points(seed))
        Q = queries_for(seed + 40, m=40)
        assert planner.nonzero_nn_many(Q) == planner.nonzero_nn_many(
            Q, tier="exact"
        )

    def test_threshold(self, seed):
        # The exact quantification sweep is defined for discrete models.
        points = random_discrete_points(30, k=4, seed=seed, box=60)
        Q = queries_for(seed + 50, m=25, box=60.0)
        planner = QueryPlanner(points)
        for tau in (0.0, 0.3):
            assert planner.threshold_nn_exact_many(Q, tau) == (
                planner.threshold_nn_exact_many(Q, tau, tier="exact")
            )

    def test_expected_knn(self, seed):
        points = six_model_points(seed)
        Q = queries_for(seed + 60, m=30)
        planner = QueryPlanner(points)
        for k in (1, 4, len(points)):
            assert np.array_equal(
                planner.expected_knn_many(Q, k),
                planner.expected_knn_many(Q, k, tier="exact"),
            )

    def test_monte_carlo_csr_rounds(self, seed):
        points = six_model_points(seed)
        Q = queries_for(seed + 70, m=30)
        planner = QueryPlanner(points)
        mc = MonteCarloPNN(points, s=80, rng=seed)
        full = mc.query_matrix(Q)
        assert np.array_equal(mc.query_matrix(Q, planner=planner), full)
        # Adaptive early stopping consumes the CSR layout directly too.
        adaptive = mc.query_matrix(Q, planner=planner, adaptive=True, tol=0.2)
        assert np.array_equal(
            adaptive, mc.query_matrix(Q, adaptive=True, tol=0.2)
        )


class TestOutputSensitivity:
    def test_visits_fewer_node_pairs_than_dense(self):
        points, Q = clustered_workload()
        cols = ModelColumns(points)
        res = dual_tree_candidates(Q, cols, criterion="expected")
        dense = Q.shape[0] * len(points)
        assert res.stats["node_pairs_visited"] < dense
        assert res.stats["refined_pairs"] < dense
        assert res.stats["survivors"] == res.nnz

    def test_planner_totals_accumulate(self):
        points, Q = clustered_workload(n=120, m=60)
        planner = QueryPlanner(points)
        planner.candidate_csr(Q)
        planner.candidate_csr(Q, criterion="expected")
        assert planner.dual_totals["traversals"] == 2.0
        assert planner.dual_totals["node_pairs_visited"] > 0

    def test_object_tree_reused_across_criteria(self):
        points, Q = clustered_workload(n=120, m=60)
        planner = QueryPlanner(points)
        planner.candidate_csr(Q)
        tree = planner.object_tree()
        planner.candidate_csr(Q, criterion="expected", k=3)
        assert planner.object_tree() is tree

    def test_memory_budget_chunks_are_invisible(self):
        points, Q = clustered_workload(n=200, m=120)
        cols = ModelColumns(points)
        with config.execution(tile_bytes=1 << 30):
            want = dual_tree_candidates(Q, cols)
        with config.execution(tile_bytes=4096):
            got = dual_tree_candidates(Q, cols)
        assert np.array_equal(want.indptr, got.indptr)
        assert np.array_equal(want.indices, got.indices)


class TestBackends:
    def test_thread_backend_identical(self):
        points, Q = clustered_workload(n=150, m=90)
        cols = ModelColumns(points)
        serial = dual_tree_candidates(Q, cols)
        with config.execution(parallel_backend="thread", parallel_workers=4):
            threaded = dual_tree_candidates(Q, cols)
        assert np.array_equal(serial.indptr, threaded.indptr)
        assert np.array_equal(serial.indices, threaded.indices)

    def test_process_backend_rejected(self):
        # "process" is no backend: rejected as unknown, like any other.
        points, Q = clustered_workload(n=40, m=10)
        for backend in ("process", "bogus"):
            with config.execution(parallel_backend=backend):
                with pytest.raises(QueryError, match="unknown parallel backend"):
                    dual_tree_candidates(Q, ModelColumns(points))
        with config.execution(parallel_backend="process"):
            with pytest.raises(QueryError, match="unknown parallel backend"):
                QueryPlanner(points).expected_nn_many(Q)

    def test_planner_thread_backend_identical(self):
        points, Q = clustered_workload(n=150, m=90)
        serial = QueryPlanner(points)
        threaded = QueryPlanner(points)
        si, sv = serial.expected_nn_many(Q)
        with config.execution(parallel_backend="thread"):
            ti, tv = threaded.expected_nn_many(Q)
        assert np.array_equal(si, ti) and np.array_equal(sv, tv)


class TestPruneKnob:
    def test_object_tree_validation(self):
        points = six_model_points(10)
        other = EnvelopeObjectTree(ModelColumns(points[:4]))
        with pytest.raises(QueryError, match="different"):
            dual_tree_candidates(
                queries_for(10, m=5), ModelColumns(points), object_tree=other
            )


class TestEngineIntegration:
    def test_object_tree_built_once_per_generation(self):
        points, Q = clustered_workload(n=120, m=50)
        engine = Engine(points)
        engine.expected_nn_many(Q)
        tree = engine.object_tree()
        builds = engine.stats()["registry_builds"]
        # A different criterion / method reuses the same tree.
        engine.nonzero_nn_many(Q + 0.5)
        assert engine.object_tree() is tree
        assert engine.stats()["registry_builds"] == builds
        assert "dual_tree" in engine.stats()["built_indexes"]
        # An update carries a refit copy to the next generation.
        engine.insert([UniformDiskPoint((1.0, 1.0), 0.2)])
        engine.expected_nn_many(Q)
        assert engine.object_tree() is not tree

    def test_stats_expose_dual_totals(self):
        points, Q = clustered_workload(n=120, m=50)
        engine = Engine(points)
        engine.expected_nn_many(Q)
        stats = engine.stats()
        assert stats["dual_tree"]["traversals"] >= 1
        assert stats["dual_tree"]["node_pairs_visited"] > 0
        assert stats["dual_tree"]["survivors"] > 0

    def test_query_diagnostics_include_traversal(self):
        points, Q = clustered_workload(n=120, m=50)
        engine = Engine(points)
        res = engine.query(Q, QuerySpec("expected_nn", diagnostics=True))
        for key in (
            "node_pairs_visited",
            "node_pairs_pruned",
            "refined_pairs",
            "survivors",
        ):
            assert key in res.diagnostics
        assert res.diagnostics["node_pairs_visited"] < Q.shape[0] * len(points)

    @pytest.mark.parametrize(
        "spec,criterion,k",
        [
            (QuerySpec("expected_nn", diagnostics=True), "expected", 1),
            (QuerySpec("expected_knn", k=3, diagnostics=True), "expected", 3),
            (QuerySpec("nonzero", diagnostics=True), "support", 1),
            (QuerySpec("mc_pnn", s=16, seed=1, diagnostics=True), "support", 1),
        ],
        ids=["expected_nn", "expected_knn", "nonzero", "mc_pnn"],
    )
    def test_diagnostics_come_from_the_answering_pass(
        self, spec, criterion, k, monkeypatch
    ):
        # One traversal per diagnostics query, counted once in the
        # totals, and its counters are those of a fresh pass.
        points, Q = clustered_workload(n=120, m=50)
        engine = Engine(points, result_cache_size=0)
        engine.expected_nn_many(Q[:3])  # build the planner and its tree
        passes = []
        real = planner_module.dual_tree_candidates

        def counted(*args, **kwargs):
            passes.append(real(*args, **kwargs))
            return passes[-1]

        monkeypatch.setattr(planner_module, "dual_tree_candidates", counted)
        before = engine.stats()["dual_tree"]["traversals"]
        diag = engine.query(Q, spec).diagnostics
        assert len(passes) == 1
        assert engine.stats()["dual_tree"]["traversals"] == before + 1
        fresh = planner_packed(Q, ModelColumns(points), k, criterion)
        for key in ("survivors", "node_pairs_visited", "refined_pairs"):
            assert diag[key] == fresh.stats[key], key
        assert diag["mean_candidates"] == fresh.counts().mean()


# ---------------------------------------------------------------------------
# The seeded cutoffs at the planner's packing
# ---------------------------------------------------------------------------


def tie_heavy_lattice(n, seed):
    """``n`` objects in the pattern of ``test_csr_reducers.lattice_points``
    at any size: disks and discrete points on the nodes of a unit
    lattice, discrete points with coincident locations and locations
    shared with disk centres, and exact duplicates (the same model
    twice), so distances and bounds tie everywhere."""
    rng = random.Random(seed)
    side = max(3, math.isqrt(n))

    def model(x, y):
        kind = int(x + y) % 3
        if kind == 0:
            return UniformDiskPoint((x, y), 0.5)
        if kind == 1:
            return DiscreteUncertainPoint(
                [(x, y), (x + 1.0, y), (x, y)], [0.25, 0.5, 0.25]
            )
        return DiscreteUncertainPoint([(x, y + 1.0), (x + 1.0, y)], [0.5, 0.5])

    pts = []
    while len(pts) < n:
        x, y = float(rng.randrange(side)), float(rng.randrange(side))
        pts.append(model(x, y))
        if rng.random() < 0.25:
            pts.append(model(x, y))
    return pts[:n]


def seeded_inputs(kind, n, seed, m):
    """Objects and query rows for the seeded-cutoff cases."""
    rng = np.random.default_rng(seed)
    if kind == "lattice":
        points = tie_heavy_lattice(n, seed)
        side = max(3, math.isqrt(n))
        Q = rng.integers(-2, 2 * side + 2, size=(m, 2)) / 2.0
        return points, Q
    centers = cluster_centers(10, seed=seed, box=250.0)
    points = clustered_disk_points(n, centers=centers, seed=seed + 1)
    Q = np.asarray(clustered_queries(m, centers=centers, seed=seed + 2))
    return points, Q


def planner_packed(Q, cols, k, criterion):
    """The dual pass at the planner's packing: 16-object leaves, fanout
    8 and 4-row query leaves."""
    tree = EnvelopeObjectTree(
        cols, planner_module._DUAL_LEAF_SIZE, planner_module._DUAL_FANOUT
    )
    return dual_tree_candidates(
        Q, cols, object_tree=tree, k=k, criterion=criterion,
        leaf_size=planner_module._QUERY_LEAF_SIZE,
        fanout=planner_module._DUAL_FANOUT,
        slack=planner_module._CUTOFF_SLACK,
    )


@st.composite
def seeded_cases(draw):
    return (
        draw(st.sampled_from(["clustered", "lattice"])),
        draw(st.integers(50, 3000)),
        draw(st.integers(0, 10**6)),
        draw(st.integers(1, 96)),
        draw(st.sampled_from([1, 2, 8, 16, 17, 40, "n"])),
        draw(st.sampled_from(["support", "expected"])),
        draw(st.sampled_from([4096, None])),
        draw(st.sampled_from(["serial", "thread"])),
    )


@settings(max_examples=60, deadline=None)
@given(seeded_cases())
def test_seeded_survivors_equal_flat(case):
    # Multi-level object and query trees, so every row's seeded cutoff
    # tightens the walk: k up to and above the 16-object leaf size, tie
    # heavy sets, 4 KiB refinement chunks and the thread fan-out.
    kind, n, seed, m, k, criterion, tile_bytes, backend = case
    points, Q = seeded_inputs(kind, n, seed, m)
    cols = ModelColumns(points)
    k = n if k == "n" else min(k, n)
    settings = {"parallel_backend": backend, "parallel_workers": 3}
    if tile_bytes is not None:
        settings["tile_bytes"] = tile_bytes
    with config.execution(**settings):
        res = planner_packed(Q, cols, k, criterion)
    _, indptr, indices = flat_survivors(cols, Q, k, criterion)
    assert res.indptr.tobytes() == indptr.tobytes()
    assert res.indices.tobytes() == indices.tobytes()


@pytest.mark.parametrize("criterion", ["support", "expected"])
def test_full_size_survivors_equal_flat(criterion):
    # The benchmark's scale: 2*10^4 clustered disks, 256 rows; the flat
    # oracle runs in 32-row tiles.
    centers = cluster_centers(20, seed=1, box=100.0)
    points = clustered_disk_points(20_000, centers=centers, seed=5)
    Q = np.asarray(clustered_queries(256, centers=centers, seed=6))
    cols = ModelColumns(points)
    for k in (1, 8):
        res = planner_packed(Q, cols, k, criterion)
        counts, indices = [], []
        for lo in range(0, Q.shape[0], 32):
            _, ptr, idx = flat_survivors(cols, Q[lo : lo + 32], k, criterion)
            counts.append(np.diff(ptr))
            indices.append(idx)
        indptr = np.zeros(Q.shape[0] + 1, dtype=np.intp)
        np.cumsum(np.concatenate(counts), out=indptr[1:])
        assert res.indptr.tobytes() == indptr.tobytes(), k
        assert res.indices.tobytes() == np.concatenate(indices).tobytes(), k


class TestSeededCounters:
    @pytest.mark.parametrize(
        "criterion,k,bound",
        [("support", 1, 10.0), ("expected", 1, 20.0), ("expected", 8, 8.0)],
    )
    def test_refined_pairs_per_survivor(self, criterion, k, bound):
        # Without the seed, refinement evaluated 17 (support), 39
        # (expected, k=1) and 11 (expected, k=8) member pairs per
        # survivor here; with it, 6.5, 12 and 5.7.
        points, Q = clustered_workload(n=2000, m=200)
        planner = QueryPlanner(points)
        planner.candidate_csr(Q, k=k, criterion=criterion)
        totals = planner.dual_totals
        assert totals["refined_pairs"] / totals["survivors"] < bound

    @pytest.mark.parametrize("criterion", ["support", "expected"])
    def test_seed_bounds_are_counted(self, criterion, monkeypatch):
        # Every exact member bound, the seed's included, is a refined
        # pair; every point-node bound, the seed descent's included, is
        # a point-node pair.
        points, Q = clustered_workload(n=600, m=80)
        cols = ModelColumns(points)
        members = []
        real = cols.member_pair_bounds

        def counted(qx, qy, c, crit):
            members.append(c.shape[0])
            return real(qx, qy, c, crit)

        monkeypatch.setattr(cols, "member_pair_bounds", counted)
        bounded = []
        pair_bounds = dual_tree_module._pair_bounds

        def counted_bounds(qb, otree, lvl, on, crit):
            bounded.append(on.shape[0])
            return pair_bounds(qb, otree, lvl, on, crit)

        monkeypatch.setattr(dual_tree_module, "_pair_bounds", counted_bounds)
        res = planner_packed(Q, cols, 1, criterion)
        seed_stats = {"point_node_pairs": 0, "refined_pairs": 0}
        tree = EnvelopeObjectTree(cols, 16, 8)
        members.clear()
        dual_tree_module._seed_cutoffs(
            Q, tree, cols, 1, criterion, 1 << 16, seed_stats
        )
        seeded = seed_stats["refined_pairs"]
        assert 0 < seeded == sum(members) <= Q.shape[0] * 16
        members.clear()
        bounded.clear()
        res = planner_packed(Q, cols, 1, criterion)
        assert res.stats["refined_pairs"] == sum(members)
        assert (
            res.stats["node_pairs_visited"] + res.stats["point_node_pairs"]
            == sum(bounded) + seed_stats["point_node_pairs"]
        )
        assert seed_stats["point_node_pairs"] >= Q.shape[0] * (tree.depth - 1)


# ---------------------------------------------------------------------------
# Vectorized STR packing == the per-slice / per-leaf loop packer
# ---------------------------------------------------------------------------


def _loop_str_leaves(B, capacity):
    """The loop packer the vectorized STR level replaced (the reference)."""
    n = B.shape[0]
    if n == 0:
        return []
    cx = B[:, 0] + B[:, 2]
    cy = B[:, 1] + B[:, 3]
    order = np.argsort(cx, kind="stable")
    n_leaves = math.ceil(n / capacity)
    slices = math.ceil(math.sqrt(n_leaves))
    per_slice = math.ceil(n / slices)
    leaves = []
    for s in range(0, n, per_slice):
        tile = order[s : s + per_slice]
        tile = tile[np.argsort(cy[tile], kind="stable")]
        for t in range(0, tile.shape[0], capacity):
            leaves.append(tile[t : t + capacity])
    return leaves


def _loop_bboxes(B, groups):
    out = np.empty((len(groups), 4), dtype=np.float64)
    for g, members in enumerate(groups):
        sub = B[members]
        out[g] = (sub[:, 0].min(), sub[:, 1].min(), sub[:, 2].max(), sub[:, 3].max())
    return out


def _loop_hierarchy(B, leaf_size, fanout):
    groups = _loop_str_leaves(B, leaf_size)
    gb = _loop_bboxes(B, groups)
    levels = [(groups, gb)]
    while len(groups) > 1:
        groups = _loop_str_leaves(gb, fanout)
        gb = _loop_bboxes(gb, groups)
        levels.append((groups, gb))
    return levels


def _loop_tree_arrays(levels):
    """The packed-tree arrays as the per-leaf loop built them."""
    depth = len(levels)
    out = {"bboxes": [levels[depth - 1 - l][1] for l in range(depth)]}
    out["child_ptr"], out["child_idx"] = [], []
    for l in range(depth - 1):
        groups = levels[depth - 1 - l][0]
        ptr = np.zeros(len(groups) + 1, dtype=np.intp)
        np.cumsum([g.size for g in groups], out=ptr[1:])
        out["child_ptr"].append(ptr)
        out["child_idx"].append(np.concatenate(groups).astype(np.intp))
    leaf_items = [np.sort(g.astype(np.intp)) for g in levels[0][0]]
    out["leaf_flat"] = np.concatenate(leaf_items)
    out["leaf_ptr"] = np.zeros(len(leaf_items) + 1, dtype=np.intp)
    np.cumsum([g.shape[0] for g in leaf_items], out=out["leaf_ptr"][1:])
    sizes = [None] * depth
    sizes[-1] = np.asarray([g.size for g in leaf_items], dtype=np.intp)
    for l in range(depth - 2, -1, -1):
        sizes[l] = np.add.reduceat(
            sizes[l + 1][out["child_idx"][l]], out["child_ptr"][l][:-1]
        )
    out["sizes"] = sizes
    return out


def _same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _bbox_sets(n, kind, seed):
    rng = np.random.default_rng(seed)
    if kind == "random":
        centers = rng.uniform(0.0, 100.0, size=(n, 2))
        half = rng.uniform(0.0, 3.0, size=(n, 2))
    else:
        # Tie-heavy: centers on a 4x4 lattice, so most centers repeat.
        centers = rng.integers(0, 4, size=(n, 2)).astype(float)
        half = rng.choice([0.0, 0.5, 1.5], size=(n, 2))
    return np.column_stack([centers - half, centers + half])


def _str_cases():
    cases = []
    for capacity in (4, 16):
        for n in (1, capacity - 1, capacity + 1, 2001):
            for kind in ("random", "ties"):
                cases.append((capacity, n, kind))
    return cases


class TestStrPackingIdentity:
    @pytest.mark.parametrize("capacity,n,kind", _str_cases())
    def test_leaves_and_levels_match_loop_packer(self, capacity, n, kind):
        from repro.index.bulk import str_hierarchy, str_leaves

        B = _bbox_sets(n, kind, seed=n + capacity)
        want = _loop_str_leaves(B, capacity)
        got = str_leaves(B, capacity)
        assert len(got) == len(want)
        assert all(_same_bytes(g, w) for g, w in zip(got, want))
        levels = str_hierarchy(B, capacity, 8)
        ref = _loop_hierarchy(B, capacity, 8)
        assert len(levels) == len(ref)
        for (perm, starts, gb), (groups, ref_gb) in zip(levels, ref):
            split = np.split(perm, starts[1:])
            assert len(split) == len(groups)
            assert all(_same_bytes(g, w) for g, w in zip(split, groups))
            assert _same_bytes(gb, ref_gb)

    @pytest.mark.parametrize("capacity,n,kind", _str_cases())
    def test_tree_arrays_byte_identical(self, capacity, n, kind, monkeypatch):
        from repro.core import dual_tree
        from repro.core.dual_tree import QueryBlockTree

        B = _bbox_sets(n, kind, seed=7 * n + capacity)
        Q = 0.5 * (B[:, :2] + B[:, 2:])
        cols = ModelColumns(
            [UniformDiskPoint((float(x), float(y)), 0.5) for x, y in Q]
        )
        otree = EnvelopeObjectTree(cols, capacity, 8)
        qtree = QueryBlockTree(Q, capacity, 8)
        for tree, boxes in (
            (otree, cols.bboxes),
            (qtree, np.concatenate([Q, Q], axis=1)),
        ):
            want = _loop_tree_arrays(_loop_hierarchy(boxes, capacity, 8))
            for name in ("bboxes", "child_ptr", "child_idx", "sizes"):
                got = getattr(tree, name)
                assert len(got) == len(want[name])
                assert all(_same_bytes(g, w) for g, w in zip(got, want[name])), name
            assert _same_bytes(tree.leaf_flat, want["leaf_flat"])
            assert _same_bytes(tree.leaf_ptr, want["leaf_ptr"])
        # The object tree's aggregates, packed from the loop packer's
        # levels, are the same bytes too.
        ref_levels = [
            (np.concatenate(groups), np.cumsum([0] + [g.size for g in groups[:-1]]), gb)
            for groups, gb in _loop_hierarchy(cols.bboxes, capacity, 8)
        ]
        monkeypatch.setattr(dual_tree, "str_hierarchy", lambda *a: ref_levels)
        ref_tree = EnvelopeObjectTree(cols, capacity, 8)
        aggregates = ("centers_bbox", "means_bbox", "max_radius", "max_reach", "all_mean")
        for name in aggregates:
            got, want = getattr(otree, name), getattr(ref_tree, name)
            assert all(_same_bytes(g, w) for g, w in zip(got, want)), name


# ---------------------------------------------------------------------------
# Carrying the object tree across small writes (EnvelopeObjectTree.refit)
# ---------------------------------------------------------------------------


def _packed(cols):
    """A fresh STR pack at the planner's object-tree packing."""
    return EnvelopeObjectTree(
        cols, planner_module._DUAL_LEAF_SIZE, planner_module._DUAL_FANOUT
    )


def _tree_bytes(tree):
    """Every array of a tree, as bytes (to show it was never written)."""
    return [
        a.tobytes()
        for name in ("bboxes", "centers_bbox", "means_bbox", "max_radius",
                     "max_reach", "all_mean", "sizes", "child_ptr", "child_idx")
        for a in getattr(tree, name)
    ] + [tree.leaf_flat.tobytes(), tree.leaf_ptr.tobytes()]


def assert_tree_exact(tree, cols):
    """Every object sits in exactly one leaf, ascending within it, and
    every node's ``sizes`` and aggregates are the true count, min or max
    over its current members."""
    assert tree.n == cols.n
    leaves = np.split(tree.leaf_flat, tree.leaf_ptr[1:-1])
    assert np.array_equal(np.sort(tree.leaf_flat), np.arange(cols.n))
    assert all(seg.size and np.all(np.diff(seg) > 0) for seg in leaves)
    members = [leaves]
    for lvl in range(tree.depth - 2, -1, -1):
        ptr, idx = tree.child_ptr[lvl], tree.child_idx[lvl]
        members.insert(0, [
            np.concatenate([members[0][c] for c in idx[ptr[j]:ptr[j + 1]]])
            for j in range(ptr.shape[0] - 1)
        ])
    for lvl, nodes in enumerate(members):
        for j, m in enumerate(nodes):
            assert tree.sizes[lvl][j] == m.size
            b, c, mu = cols.bboxes[m], cols.centers[m], cols.means[m]
            for got, want in (
                (tree.bboxes[lvl][j], (b[:, 0].min(), b[:, 1].min(),
                                       b[:, 2].max(), b[:, 3].max())),
                (tree.centers_bbox[lvl][j], (c[:, 0].min(), c[:, 1].min(),
                                             c[:, 0].max(), c[:, 1].max())),
                (tree.means_bbox[lvl][j], (mu[:, 0].min(), mu[:, 1].min(),
                                           mu[:, 0].max(), mu[:, 1].max())),
            ):
                assert tuple(got) == want, (lvl, j)
            assert tree.max_radius[lvl][j] == cols.radii[m].max()
            assert tree.max_reach[lvl][j] == cols.mean_reach[m].max()
            assert tree.all_mean[lvl][j] == cols.has_mean[m].all()


def _written(cols, points, rng, pool):
    """One seeded write: an insert (pool objects, exact duplicates of
    stored ones, a disk outside the root bbox) or a remove.  Returns
    ``(points, columns, removed ids or None)``."""
    if rng.random() < 0.5:
        new = [pool.pop() for _ in range(rng.randint(1, 12))]
        new += [points[rng.randrange(len(points))] for _ in range(rng.randint(0, 6))]
        if rng.random() < 0.3:
            new.append(UniformDiskPoint((rng.uniform(-900, 900), 1000.0), 2.0))
        return points + new, copy.copy(cols).extend(new), None
    removed = np.asarray(
        sorted(rng.sample(range(len(points)), rng.randint(1, 20))), dtype=np.intp
    )
    keep = np.setdiff1d(np.arange(len(points)), removed)
    return [points[i] for i in keep], copy.copy(cols).shrink(keep), removed


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_carried_tree_stays_exact(seed):
    # All six models plus tie-heavy lattice objects; writes insert
    # duplicates and objects outside the root bbox and remove at random.
    rng = random.Random(seed)
    points = six_model_points(seed, n_per=30) + tie_heavy_lattice(120, seed)
    pool = six_model_points(seed + 50, n_per=15) + tie_heavy_lattice(80, seed + 1)
    rng.shuffle(pool)
    cols = ModelColumns(points)
    tree = _packed(cols)
    Q = np.concatenate([queries_for(seed + 7, m=40), seeded_inputs("lattice", 300, seed, 20)[1]])
    carried = 0
    for _ in range(14):
        before = _tree_bytes(tree)
        points, cols, removed = _written(cols, points, rng, pool)
        refit = tree.refit(cols, removed)
        assert _tree_bytes(tree) == before  # the old tree is never written
        if refit is None:
            tree = _packed(cols)
            continue
        carried += 1
        tree = refit
        assert_tree_exact(tree, cols)
        fresh = _packed(cols)
        for criterion in ("support", "expected"):
            for k in (1, 8):
                _, indptr, indices = flat_survivors(cols, Q, k, criterion)
                for t in (tree, fresh):
                    res = dual_tree_candidates(
                        Q, cols, object_tree=t, k=k, criterion=criterion,
                        leaf_size=planner_module._QUERY_LEAF_SIZE,
                        slack=planner_module._CUTOFF_SLACK,
                    )
                    assert res.indptr.tobytes() == indptr.tobytes()
                    assert res.indices.tobytes() == indices.tobytes()
    assert carried >= 10


class TestRefitFallback:
    def test_emptied_leaf_falls_back(self):
        cols = ModelColumns(tie_heavy_lattice(300, 5))
        tree = _packed(cols)
        leaf = tree.leaf_flat[tree.leaf_ptr[2]:tree.leaf_ptr[3]]
        keep = np.setdiff1d(np.arange(cols.n), leaf)
        assert tree.refit(copy.copy(cols).shrink(keep), leaf) is None
        # One member fewer leaves the leaf non-empty: refit.
        keep = np.setdiff1d(np.arange(cols.n), leaf[1:])
        shrunk = copy.copy(cols).shrink(keep)
        assert_tree_exact(tree.refit(shrunk, leaf[1:]), shrunk)

    def test_overgrown_leaf_and_large_write_fall_back(self):
        points = six_model_points(9, n_per=100)  # 600 objects
        cols = ModelColumns(points)
        tree = _packed(cols)
        limit = dual_tree_module._REFIT_MAX_SHARE * cols.n
        # Copies of one object all join one leaf and overfill it.
        many = [points[0]] * int(limit)
        assert int(limit) + 1 > dual_tree_module._REFIT_MAX_GROWTH * 16
        assert tree.refit(copy.copy(cols).extend(many)) is None
        spread = six_model_points(10, n_per=5)
        assert len(spread) <= limit
        assert tree.refit(copy.copy(cols).extend(spread)) is not None
        big = six_model_points(11, n_per=int(limit) // 6 + 1)
        assert len(big) > limit
        assert tree.refit(copy.copy(cols).extend(big)) is None

    def test_refit_refused_once_the_window_turns_over(self):
        # Every refit adds its inserts and removes to ``churn``; the
        # write that takes it past n gets no refit, and a fresh pack
        # counts from 0 again.
        cols = ModelColumns(six_model_points(9, n_per=100))  # n = 600
        stream = six_model_points(10, n_per=100)
        tree = _packed(cols)
        assert tree.churn == 0
        for tick in range(10):  # 30 in, 30 out: churn reaches n = 600
            cols = copy.copy(cols).extend(stream[30 * tick : 30 * tick + 30])
            tree = tree.refit(cols)
            cols = copy.copy(cols).shrink(np.arange(30, cols.n))
            tree = tree.refit(cols, np.arange(30))
            assert tree.churn == 60 * (tick + 1)
        assert_tree_exact(tree, cols)
        grown = copy.copy(cols).extend(stream[300:301])
        assert tree.refit(grown) is None
        fresh = _packed(grown)
        assert fresh.churn == 0
        assert fresh.refit(copy.copy(grown).extend(stream[301:331])).churn == 30

    def test_leaf_choice_least_growth_then_fewer_members(self):
        # Two 16-disk leaves (centres x = 0..3 and x = 4..7) whose boxes
        # both cover the middle.  After 3 removes from the right leaf, a
        # small disk in the middle grows neither box and joins the leaf
        # with fewer members; disks past either edge join the leaf whose
        # box grows least.
        points = [
            UniformDiskPoint((float(x), float(y)), 12.0)
            for x in range(8) for y in range(4)
        ]
        cols = ModelColumns(points)
        tree = _packed(cols)
        assert tree.n_nodes(tree.depth - 1) == 2

        def leaf_of(t, i):
            pos = int(np.flatnonzero(t.leaf_flat == i)[0])
            return int(np.searchsorted(t.leaf_ptr, pos, side="right")) - 1

        removed = np.array([16, 17, 18])
        cols = copy.copy(cols).shrink(np.setdiff1d(np.arange(32), removed))
        tree = tree.refit(cols, removed)
        right = leaf_of(tree, 16)  # old id 19
        assert tree.sizes[-1][right] == 13 and leaf_of(tree, 0) != right
        new = [UniformDiskPoint(xy, 0.1) for xy in ((3.5, 1.5), (40.0, 1.5), (-30.0, 1.5))]
        cols = copy.copy(cols).extend(new)
        tree = tree.refit(cols)
        assert leaf_of(tree, 29) == right
        assert leaf_of(tree, 30) == right
        assert leaf_of(tree, 31) == leaf_of(tree, 0)
        assert_tree_exact(tree, cols)
        # Removes and an insert in one refit: the tie counts members
        # after the removes (14 right, 16 left).
        both = ModelColumns(points[:16] + points[18:] + new[:1])
        tree = _packed(ModelColumns(points)).refit(both, np.array([16, 17]))
        assert leaf_of(tree, 30) == leaf_of(tree, 16) != leaf_of(tree, 0)

    def test_single_leaf_tree(self):
        points = six_model_points(12, n_per=2)  # 12 objects, one leaf
        cols = ModelColumns(points)
        tree = _packed(cols)
        assert tree.depth == 1
        grown = copy.copy(cols).extend([UniformDiskPoint((500.0, -40.0), 1.0)])
        assert_tree_exact(tree.refit(grown), grown)


def test_seed_blocks_fit_budget_with_overgrown_leaf(monkeypatch):
    # Copies of one far disk all join one leaf, which grows to 3.5x the
    # leaf size.  Rows next to them seed in that leaf, and under the
    # smallest tile budget each seed block must still hold at most the
    # budget's (row, member) pairs.
    points = [UniformDiskPoint((float(x), float(y)), 0.3) for x in range(20) for y in range(20)]
    cols = ModelColumns(points)
    cols = copy.copy(cols).extend([UniformDiskPoint((100.0, 100.0), 0.3)] * 40)
    tree = _packed(ModelColumns(points)).refit(cols)
    assert tree.sizes[-1].max() == 56
    budget = dual_tree_module._pair_budget(1)
    blocks = []
    seed_block = dual_tree_module._seed_block

    def spy(Q, otree, columns, k, criterion, stats):
        before = stats["refined_pairs"]
        out = seed_block(Q, otree, columns, k, criterion, stats)
        blocks.append(stats["refined_pairs"] - before)
        return out

    monkeypatch.setattr(dual_tree_module, "_seed_block", spy)
    Q = 100.0 + np.random.default_rng(3).uniform(-0.1, 0.1, size=(200, 2))
    with config.execution(tile_bytes=1):
        res = dual_tree_candidates(
            Q, cols, object_tree=tree, leaf_size=planner_module._QUERY_LEAF_SIZE,
            slack=planner_module._CUTOFF_SLACK,
        )
    assert len(blocks) > 1 and max(blocks) <= budget
    assert sum(blocks) == 200 * 56
    _, indptr, indices = flat_survivors(cols, Q)
    assert res.indptr.tobytes() == indptr.tobytes()
    assert res.indices.tobytes() == indices.tobytes()


def test_carried_tree_drift_is_bounded():
    # A sliding window at n = 2000 clustered discrete points (the shape
    # of the durable-ingest workload): each tick inserts the 32 newest
    # points and removes the 32 oldest, carrying the tree by refit (a
    # refused refit packs afresh, as the engine's next read would).
    # After every 50 ticks the carried tree refines at most 1.25x the
    # member pairs a fresh pack does on the same batch, with the same
    # survivors.
    centers = cluster_centers(20, seed=1, box=100.0)
    cols = ModelColumns(clustered_discrete_points(2000, k=4, centers=centers, seed=7))
    stream = clustered_discrete_points(32 * 200, k=4, centers=centers, seed=8)
    Q = np.asarray(clustered_queries(256, centers=centers, seed=9))
    tree = _packed(cols)
    refits = 0
    for tick in range(200):
        cols = copy.copy(cols).extend(stream[32 * tick : 32 * tick + 32])
        for removed in (None, np.arange(32)):
            if removed is not None:
                cols = copy.copy(cols).shrink(np.arange(32, cols.n))
            refit = tree.refit(cols, removed)
            refits += refit is not None
            tree = refit if refit is not None else _packed(cols)
        if tick % 50 == 49:
            fresh = _packed(cols)
            for criterion, k in (("support", 1), ("expected", 1), ("expected", 8)):
                carried, packed = (
                    dual_tree_candidates(
                        Q, cols, object_tree=t, k=k, criterion=criterion,
                        leaf_size=planner_module._QUERY_LEAF_SIZE,
                        slack=planner_module._CUTOFF_SLACK,
                    )
                    for t in (tree, fresh)
                )
                assert carried.indices.tobytes() == packed.indices.tobytes()
                ratio = carried.stats["refined_pairs"] / packed.stats["refined_pairs"]
                assert ratio <= 1.25, (tick, criterion, k, ratio)
    assert refits >= 380
