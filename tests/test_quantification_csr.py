"""The batched Eq. (2) sweep against the scalar one, byte for byte.

:func:`repro.core.quantification.sweep_quantification_csr` must return,
for every row of a CSR batch, the very doubles
:func:`repro.core.quantification.sweep_quantification` returns for that
row's tuples.  The inputs stress the scalar sweep's branch points: tie
groups (duplicate locations inside one owner, equal distances across
owners), owners whose weights sum to ``1 ± ulp`` (the ``_ZERO`` factor
branch), owners with partial mass, single-survivor rows and one row of
hundreds of survivors.  The planner's pruned threshold tier, which runs
this sweep, is then held to the exact tier on tie-heavy discrete sets.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Engine, QueryPlanner, QuerySpec
from repro.core.evaluators import gather_sweep_entries
from repro.core.quantification import (
    entries_for_query,
    sweep_quantification,
    sweep_quantification_csr,
)
from repro.uncertain import DiscreteUncertainPoint


def _weights(draw, k):
    """``k`` weights: normalized (summing to 1 ± ulp), or a partial
    mass (the spiral search's truncated sets)."""
    raw = draw(st.lists(st.integers(1, 9), min_size=k, max_size=k))
    total = float(sum(raw))
    if draw(st.booleans()):
        return [r / total for r in raw]
    return [r / (total + draw(st.integers(1, 5))) for r in raw]


@st.composite
def batches(draw, max_rows=5, max_owners=8):
    """A CSR batch whose distances come from a small grid (many ties)."""
    rows = []
    for _ in range(draw(st.integers(1, max_rows))):
        owners = []
        for _ in range(draw(st.integers(1, max_owners))):
            k = draw(st.integers(1, 4))
            dists = [
                float(draw(st.integers(0, 6))) / 2.0 for _ in range(k)
            ]
            if k > 1 and draw(st.booleans()):
                dists[1] = dists[0]  # a duplicate location
            owners.append(list(zip(dists, _weights(draw, k))))
        rows.append(owners)
    return rows


def _layout(rows):
    indptr = np.cumsum([0] + [len(r) for r in rows]).astype(np.intp)
    lens = np.asarray([len(o) for r in rows for o in r], dtype=np.intp)
    flat = [e for r in rows for o in r for e in o]
    dist = np.asarray([d for d, _ in flat], dtype=np.float64)
    weight = np.asarray([w for _, w in flat], dtype=np.float64)
    return indptr, lens, dist, weight


def _assert_rows_match(rows):
    indptr, lens, dist, weight = _layout(rows)
    pi = sweep_quantification_csr(indptr, lens, dist, weight)
    assert pi.shape == (lens.shape[0],)
    for r, owners in enumerate(rows):
        entries = [(d, j, w) for j, o in enumerate(owners) for d, w in o]
        want = np.asarray(sweep_quantification(entries, len(owners)))
        got = pi[indptr[r] : indptr[r + 1]]
        assert got.tobytes() == want.tobytes(), (r, owners)


@settings(max_examples=300, deadline=None)
@given(batches())
def test_matches_scalar_sweep_bytewise(rows):
    _assert_rows_match(rows)


@settings(max_examples=50, deadline=None)
@given(batches(max_rows=6, max_owners=1))
def test_single_survivor_rows(rows):
    _assert_rows_match(rows)


def test_ulp_weight_sums_hit_zero_factor_branch():
    # 0.33 + 0.56 + 0.11 lands one ulp above 1 and 0.2 + 0.7 + 0.1 one
    # ulp below it: both owners' final factors fall under _ZERO.
    assert 0.33 + 0.56 + 0.11 > 1.0 > 0.2 + 0.7 + 0.1
    rows = [
        [
            [(1.0, 0.33), (2.0, 0.56), (3.0, 0.11)],
            [(1.0, 0.2), (2.0, 0.7), (3.0, 0.1)],
            [(3.0, 0.5), (4.0, 0.5)],
        ],
        [[(0.0, 0.2), (0.0, 0.7), (0.0, 0.1)], [(0.0, 1.0)]],
        [[(2.0, 0.33), (2.0, 0.56), (2.5, 0.11)], [(2.0, 0.2), (2.5, 0.8)]],
    ]
    _assert_rows_match(rows)


def test_rows_past_two_zero_factors():
    # Once two owners' factors are zero every later entry adds 0.0; the
    # batched sweep skips those entries, including whole rows of them.
    rows = [
        [[(1.0, 1.0)], [(1.0, 1.0)]],
        [[(1.0, 1.0)], [(1.0, 1.0)], [(0.5, 0.5), (3.0, 0.5)]],
        [[(2.0, 0.5), (0.5, 0.5)], [(1.0, 1.0)], [(1.5, 0.9), (9.0, 0.1)]],
        [[(0.0, 1.0)]],
    ]
    _assert_rows_match(rows)


def test_one_row_with_hundreds_of_survivors():
    rng = np.random.default_rng(11)
    owners = []
    for _ in range(400):
        k = int(rng.integers(1, 6))
        w = rng.integers(1, 10, k).astype(float)
        owners.append(
            list(zip((rng.integers(0, 40, k) / 4.0).tolist(), (w / w.sum()).tolist()))
        )
    _assert_rows_match([owners, owners[:3], owners[:1]])


def test_empty_batch():
    indptr = np.zeros(1, dtype=np.intp)
    empty = np.zeros(0)
    assert sweep_quantification_csr(
        indptr, np.zeros(0, dtype=np.intp), empty, empty
    ).shape == (0,)


# -- the planner's pruned threshold tier -----------------------------------------


@st.composite
def tie_heavy_sets(draw):
    """Discrete points on a half-unit grid, with shared and duplicate
    locations, plus queries on the same grid."""
    pts = []
    for _ in range(draw(st.integers(2, 12))):
        k = draw(st.integers(1, 4))
        locs = [
            (draw(st.integers(0, 8)) / 2.0, draw(st.integers(0, 8)) / 2.0)
            for _ in range(k)
        ]
        raw = draw(st.lists(st.integers(1, 9), min_size=k, max_size=k))
        pts.append(DiscreteUncertainPoint(locs, [r / sum(raw) for r in raw]))
    Q = np.asarray(
        draw(
            st.lists(
                st.tuples(st.integers(-2, 10), st.integers(-2, 10)),
                min_size=1,
                max_size=6,
            )
        ),
        dtype=float,
    ) / 2.0
    return pts, Q


@settings(max_examples=60, deadline=None)
@given(tie_heavy_sets(), st.sampled_from([0.0, 0.2]))
def test_pruned_threshold_equals_exact(data, tau):
    pts, Q = data
    planner = QueryPlanner(pts)
    pruned = planner.threshold_nn_exact_many(Q, tau)
    exact = planner.threshold_nn_exact_many(Q, tau, tier="exact")
    assert repr(pruned) == repr(exact)


def test_zero_cutoff_keeps_a_support_holding_the_query():
    # A certain point at the query makes the prune cutoff exactly 0.  The
    # other object has a location there too, on its enclosing circle,
    # where the disk bound d - r can round above 0; it must survive,
    # because Eq. (2) counts its tie with the certain point.
    pts = [
        DiscreteUncertainPoint([(3.5, 1.0), (0.0, 1.5), (1.0, 4.0)], [1 / 3] * 3),
        DiscreteUncertainPoint([(3.5, 1.0)], [1.0]),
    ]
    Q = np.array([[3.5, 1.0]])
    planner = QueryPlanner(pts)
    assert planner.candidate_csr(Q)[1].tolist() == [0, 1]
    exact = planner.threshold_nn_exact_many(Q, 0.0, tier="exact")
    assert exact == [{1: 1.0 - 1.0 / 3.0}]
    assert repr(planner.threshold_nn_exact_many(Q, 0.0)) == repr(exact)


def _rim_offsets(count=8, seed=2024):
    """Offsets ``(dx, dy)`` whose vectorized distances, ``np.hypot`` and
    ``sqrt(dx * dx + dy * dy)``, both differ from ``math.hypot``."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        dx, dy = (float(v) for v in rng.uniform(1.0, 40.0, 2))
        d = math.hypot(dx, dy)
        if math.sqrt(dx * dx + dy * dy) != d and float(np.hypot(dx, dy)) != d:
            out.append((dx, dy))
    return out


def _nudged(x, steps):
    for _ in range(abs(steps)):
        x = math.nextafter(x, math.copysign(math.inf, steps))
    return x


@pytest.mark.parametrize("dx,dy", _rim_offsets())
def test_entries_within_ulps_of_the_cutoff(dx, dy):
    # Every owner keeps a location next to the query (so all survive the
    # prune) and one on a rim of radius ~math.hypot(dx, dy): nudging dx
    # or dy by up to 3 ulps moves the scalar distance by 0-2 ulps, so
    # the row's skip cutoff (the second owner's zero factor) sits among
    # entries 1-2 ulps inside and outside it, where the vectorized
    # distances round to the other side of math.hypot's.
    pts = [
        DiscreteUncertainPoint([(0.01, 0.0), (dx, dy)], [0.5, 0.5]),
        DiscreteUncertainPoint([(0.0, 0.02), (dx, dy)], [0.25, 0.75]),
    ]
    for j, steps in enumerate((-3, -2, -1, 1, 2, 3)):
        near = (0.03 + 0.01 * j, 0.0)
        pts.append(
            DiscreteUncertainPoint(
                [near, (_nudged(dx, steps), dy), (dx, _nudged(dy, -steps))],
                [0.5, 0.25, 0.25],
            )
        )
    Q = np.array([[0.0, 0.0], [dx * 1e-3, -dy * 1e-3]])
    planner = QueryPlanner(pts)
    indptr, cols = planner.candidate_csr(Q)
    assert np.diff(indptr).tolist() == [len(pts)] * Q.shape[0]
    got = sweep_quantification_csr(
        indptr, *gather_sweep_entries(planner.eval_cache(), Q, indptr, cols)
    )
    for r, q in enumerate(Q):
        want = sweep_quantification(entries_for_query(pts, q), len(pts))
        assert got[indptr[r] : indptr[r + 1]].tobytes() == (
            np.asarray(want).tobytes()
        )
    exact = planner.threshold_nn_exact_many(Q, 0.0, tier="exact")
    assert repr(planner.threshold_nn_exact_many(Q, 0.0)) == repr(exact)


def test_threshold_telemetry_reaches_the_eval_cache():
    # Threshold pairs go through the grouped evaluator's cache like every
    # other pruned method: the per-tag histogram sums to the pair total
    # and every grouped call is a cache hit.
    rng = np.random.default_rng(5)
    pts = [
        DiscreteUncertainPoint(
            (rng.uniform(0, 50, (3, 2))).tolist(), [0.25, 0.25, 0.5]
        )
        for _ in range(300)
    ]
    Q = rng.uniform(0, 50, (20, 2))
    eng = Engine(pts, result_cache_size=0)
    res = eng.query(Q, QuerySpec("threshold", tau=0.1), diagnostics=True)
    assert res.diagnostics["pairs_discrete"] == res.diagnostics["eval_pairs"]
    eng.query(Q, QuerySpec("nonzero"))
    ev = eng.stats()["evaluators"]
    assert sum(ev["pairs_by_tag"].values()) == ev["pairs"]
    assert ev["cache_hits"] == ev["grouped_calls"] == 2
