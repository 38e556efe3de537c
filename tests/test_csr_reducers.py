"""Differential tests of the CSR survivor reducers (``repro.core.reducers``).

The reducers must give exactly what the dense reducers they replaced
gave on the ``+inf``-filled densified matrices.  Those dense reducers
(stable row argsorts) are kept here as the reference.  Random CSR
layouts are drawn with heavy ties: values from a small set, duplicated
minima, single-survivor rows, empty rows, ``n = 1`` and ``k`` equal to a
row's length.  At Engine level, the pruned tier must equal the exact
tier on a tie-heavy lattice of disks and discrete points with duplicate
and coincident locations.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Engine, QueryPlanner, QuerySpec
from repro.core import reducers
from repro.core.nonzero import UncertainSet, nonzero_from_matrices, support_report
from repro.errors import QueryError
from repro.uncertain import DiscreteUncertainPoint, UniformDiskPoint


# -- the dense reference reducers ----------------------------------------------

def dense_report(dmins: np.ndarray, dmaxs: np.ndarray) -> dict:
    """Lemma 2.1 by stable row argsort of the dense ``(m, n)`` matrices."""
    m, n = dmaxs.shape
    order = np.argsort(dmaxs, axis=1, kind="stable")
    best_idx = order[:, 0]
    best = dmaxs[np.arange(m), best_idx]
    if n > 1:
        second = dmaxs[np.arange(m), order[:, 1]]
    else:
        second = np.full(m, np.inf)
    threshold = np.where(
        np.arange(n)[None, :] == best_idx[:, None],
        second[:, None],
        best[:, None],
    )
    mask = dmins < threshold
    indptr = np.zeros(m + 1, dtype=np.intp)
    np.cumsum(mask.sum(axis=1), out=indptr[1:])
    rows, cols = np.nonzero(mask)
    return {
        "best": best,
        "best_idx": best_idx.astype(np.intp),
        "second": second,
        "indptr": indptr,
        "members": cols.astype(np.intp),
        "member_dmins": dmins[rows, cols],
    }


def dense_sets(dmins: np.ndarray, dmaxs: np.ndarray) -> list:
    rep = dense_report(dmins, dmaxs)
    ptr, members = rep["indptr"], rep["members"]
    return [
        frozenset(members[ptr[r] : ptr[r + 1]].tolist())
        for r in range(ptr.shape[0] - 1)
    ]


def dense_topk(E: np.ndarray, k: int):
    idx = np.argsort(E, axis=1, kind="stable")[:, :k]
    return idx, np.take_along_axis(E, idx, axis=1)


def assert_reports_equal(got: dict, want: dict) -> None:
    assert set(got) == set(want)
    for key in want:
        assert got[key].dtype == want[key].dtype, key
        assert got[key].tobytes() == want[key].tobytes(), key


def densify(indptr, cols, values, n):
    out = np.full((indptr.shape[0] - 1, n), np.inf)
    rows = np.repeat(np.arange(indptr.shape[0] - 1), np.diff(indptr))
    out[rows, cols] = values
    return out


# -- random tie-heavy CSR layouts -------------------------------------------------

_VALUES = st.sampled_from([0.0, 0.5, 1.0, 1.0, 2.0, 3.5])


@st.composite
def csr_layouts(draw, min_row: int = 0):
    """``(n, indptr, cols, dmins, dmaxs)`` with ascending unique columns
    per row; the values come from a small set so ties are everywhere."""
    n = draw(st.integers(1, 7))
    m = draw(st.integers(0, 6))
    rows = []
    for _ in range(m):
        size = draw(st.integers(min(min_row, n), n))
        picked = draw(st.sets(st.integers(0, n - 1), min_size=size, max_size=size))
        rows.append(sorted(picked))
    lens = [len(r) for r in rows]
    indptr = np.zeros(m + 1, dtype=np.intp)
    np.cumsum(lens, out=indptr[1:])
    cols = np.asarray([c for r in rows for c in r], dtype=np.intp)
    nnz = cols.shape[0]
    dmaxs = np.asarray(draw(st.lists(_VALUES, min_size=nnz, max_size=nnz)), dtype=float)
    dmins = np.asarray(draw(st.lists(_VALUES, min_size=nnz, max_size=nnz)), dtype=float)
    return n, indptr, cols, dmins, dmaxs


class TestAgainstDense:
    @settings(max_examples=300, deadline=None)
    @given(csr_layouts())
    def test_nonzero_and_report(self, layout):
        n, indptr, cols, dmins, dmaxs = layout
        Dmin = densify(indptr, cols, dmins, n)
        Dmax = densify(indptr, cols, dmaxs, n)
        assert_reports_equal(
            reducers.support_report_csr(indptr, cols, dmins, dmaxs),
            dense_report(Dmin, Dmax),
        )
        got = reducers.nonzero_csr(indptr, cols, dmins, dmaxs)
        assert got == dense_sets(Dmin, Dmax)

    @settings(max_examples=300, deadline=None)
    @given(csr_layouts(min_row=1), st.data())
    def test_topk(self, layout, data):
        n, indptr, cols, _, values = layout
        shortest = int(np.diff(indptr).min()) if indptr.shape[0] > 1 else n
        k = data.draw(st.integers(1, shortest))
        idx, vals = reducers.topk_csr(indptr, cols, values, k)
        want_idx, want_vals = dense_topk(densify(indptr, cols, values, n), k)
        assert idx.dtype == want_idx.dtype and idx.shape == want_idx.shape
        assert idx.tobytes() == want_idx.tobytes()
        assert vals.tobytes() == want_vals.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(csr_layouts(min_row=1))
    def test_min_reduce(self, layout):
        n, indptr, cols, _, values = layout
        E = densify(indptr, cols, values, n)
        winners, best = reducers.min_reduce_csr(indptr, cols, values)
        assert winners.tolist() == E.argmin(axis=1).tolist()
        assert best.tobytes() == E.min(axis=1).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 5),
        st.integers(1, 6),
        st.data(),
    )
    def test_dense_wrappers(self, m, n, data):
        draw = lambda: np.asarray(  # noqa: E731
            data.draw(st.lists(_VALUES, min_size=m * n, max_size=m * n)), dtype=float
        ).reshape(m, n)
        dmins, dmaxs = draw(), draw()
        assert_reports_equal(support_report(dmins, dmaxs), dense_report(dmins, dmaxs))
        assert nonzero_from_matrices(dmins, dmaxs) == dense_sets(dmins, dmaxs)
        k = data.draw(st.integers(1, n))
        idx, vals = reducers.topk_dense(dmaxs, k)
        want_idx, want_vals = dense_topk(dmaxs, k)
        assert idx.tobytes() == want_idx.tobytes()
        assert vals.tobytes() == want_vals.tobytes()


class TestExplicitCases:
    def test_duplicated_minimum_keeps_lowest_column(self):
        indptr = np.asarray([0, 3])
        cols = np.asarray([1, 4, 6])
        dmaxs = np.asarray([2.0, 1.0, 1.0])
        dmins = np.asarray([0.5, 0.9, 0.99])
        rep = reducers.support_report_csr(indptr, cols, dmins, dmaxs)
        assert rep["best_idx"].tolist() == [4]
        assert rep["best"].tolist() == [1.0] and rep["second"].tolist() == [1.0]
        # Column 4 is tested against second (1.0), the others against best.
        assert rep["members"].tolist() == [1, 4, 6]

    def test_single_survivor_second_is_inf(self):
        rep = reducers.support_report_csr(
            np.asarray([0, 1]), np.asarray([3]), np.asarray([7.0]), np.asarray([9.0])
        )
        assert rep["second"].tolist() == [np.inf]
        assert rep["members"].tolist() == [3]

    def test_topk_rejects_short_rows(self):
        with pytest.raises(QueryError):
            reducers.topk_csr(
                np.asarray([0, 2, 3]), np.asarray([0, 1, 0]), np.ones(3), 2
            )

    def test_empty_batch(self):
        indptr = np.zeros(1, dtype=np.intp)
        empty = np.zeros(0)
        assert reducers.nonzero_csr(indptr, indptr[:0], empty, empty) == []
        idx, vals = reducers.topk_csr(indptr, indptr[:0], empty, 3)
        assert idx.shape == (0, 3) and vals.shape == (0, 3)


# -- Engine level: pruned == exact on a tie-heavy lattice ----------------------

def lattice_points():
    """Disks and discrete points on a unit lattice, with exact duplicates
    (the same model twice), coincident locations inside one discrete
    point, and discrete points sharing locations with each other and
    with disk centers."""
    pts = []
    for x in range(0, 6):
        for y in range(0, 6):
            if (x + y) % 3 == 0:
                pts.append(UniformDiskPoint((float(x), float(y)), 0.5))
            elif (x + y) % 3 == 1:
                pts.append(
                    DiscreteUncertainPoint(
                        [(x, y), (x + 1.0, y), (x, y)], [0.25, 0.5, 0.25]
                    )
                )
            else:
                pts.append(
                    DiscreteUncertainPoint([(x, y + 1.0), (x + 1.0, y)], [0.5, 0.5])
                )
    pts.append(UniformDiskPoint((3.0, 0.0), 0.5))
    pts.append(UniformDiskPoint((2.0, 2.0), 1.0))
    pts.append(DiscreteUncertainPoint([(1.0, 0.0), (0.0, 1.0)], [0.5, 0.5]))
    pts.append(DiscreteUncertainPoint([(3.0, 3.0)], [1.0]))
    pts.append(DiscreteUncertainPoint([(3.0, 3.0)], [1.0]))
    return pts


def lattice_queries():
    grid = [(x / 2.0, y / 2.0) for x in range(-1, 13) for y in range(-1, 13)]
    return np.asarray(grid, dtype=float)


def test_engine_pruned_equals_exact_nonzero():
    pts = lattice_points()
    Q = lattice_queries()
    eng = Engine(pts, result_cache_size=0)
    uset = UncertainSet(pts)
    want = dense_sets(uset.dmin_matrix(Q), uset.dmax_matrix(Q))
    pruned = eng.query(Q, QuerySpec("nonzero")).answers
    exact = eng.query(Q, QuerySpec("nonzero", tier="exact")).answers
    assert list(pruned) == want
    assert list(exact) == want


@pytest.mark.parametrize("k", [1, 3, 8])
def test_engine_pruned_equals_exact_knn(k):
    pts = lattice_points()
    Q = lattice_queries()
    eng = Engine(pts, result_cache_size=0)
    E = np.column_stack([p.expected_distance_many(Q) for p in pts])
    want, _ = dense_topk(E, k)
    pruned = eng.query(Q, QuerySpec("expected_knn", k=k)).answers
    exact = eng.query(Q, QuerySpec("expected_knn", k=k, tier="exact")).answers
    assert np.asarray(pruned).tobytes() == want.tobytes()
    assert np.asarray(exact).tobytes() == want.tobytes()


def test_planner_reports_match_dense_on_lattice():
    pts = lattice_points()
    Q = lattice_queries()
    planner = QueryPlanner(pts)
    uset = UncertainSet(pts)
    dmins, dmaxs = uset.dmin_matrix(Q), uset.dmax_matrix(Q)
    # The pruned report's floats decide the same sets; its second value
    # may read +inf where a pruned object holds the dense one, so the
    # sets (not the raw seconds) are compared with the dense reference.
    rep = planner.nonzero_report_many(Q)
    ptr, members = rep["indptr"], rep["members"]
    got = [frozenset(members[ptr[r] : ptr[r + 1]].tolist()) for r in range(Q.shape[0])]
    assert got == dense_sets(dmins, dmaxs)
    assert_reports_equal(
        planner.nonzero_report_many(Q, tier="exact"), dense_report(dmins, dmaxs)
    )
    E = np.column_stack([p.expected_distance_many(Q) for p in pts])
    for k in (1, 3, 8):
        idx, vals = planner.expected_knn_report_many(Q, k)
        want_idx, want_vals = dense_topk(E, k)
        assert idx.tobytes() == want_idx.tobytes()
        assert vals.tobytes() == want_vals.tobytes()
