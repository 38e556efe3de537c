"""Segmented reducers over CSR survivor values, one per query method.

The pruned tier answers a query from its prune survivors alone.  The
candidate generators emit them in CSR form — ``indptr`` of shape
``(m + 1,)`` and ``cols`` holding each row's surviving object columns in
ascending order — and the evaluators return one value (or one
``dmin`` / ``dmax`` pair) per entry in the same order.  The reducers
here turn those flat arrays into answers without densifying them into
``(m, n)`` matrices:

* :func:`min_reduce_csr` — the expected-NN winner and its value;
* :func:`nonzero_csr` / :func:`support_report_csr` — Lemma 2.1's
  ``NN!=0`` sets and their shard-mergeable report;
* :func:`topk_csr` — the expected-kNN ranking and its values;
* :func:`csr_dicts` — the ``{index: probability}`` rows of the Eq. (2)
  threshold answers and the Monte-Carlo estimates.

Every tie resolves to the lowest column, exactly as the dense stable
``argmin`` / ``argsort`` over a ``+inf``-filled matrix did, so a pruned
answer equals the exact one whenever the pruning invariant holds (a
pruned entry lies strictly beyond every value that decides its row).
The exact tier's ``NN!=0`` and kNN answers feed their dense matrices
to the same functions as a full CSR (:func:`full_csr`), so each of
those methods has one reducer.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Tuple

import numpy as np

from ..errors import QueryError
from ..geometry import kernels

__all__ = [
    "csr_dicts",
    "full_csr",
    "min_reduce_csr",
    "max_reduce_csr",
    "nonzero_csr",
    "support_report_csr",
    "topk_csr",
    "topk_dense",
]


def full_csr(m: int, n: int) -> Tuple[np.ndarray, np.ndarray]:
    """``(indptr, cols)`` of the CSR layout in which every row holds all
    ``n`` columns — the row-major flattening of an ``(m, n)`` matrix."""
    indptr = np.arange(m + 1, dtype=np.intp) * n
    return indptr, np.tile(np.arange(n, dtype=np.intp), m)


def csr_dicts(
    indptr: np.ndarray,
    cols: np.ndarray,
    values: np.ndarray,
    keep: Optional[np.ndarray] = None,
) -> List[Dict[int, float]]:
    """One ``{column: value}`` dict per CSR row over the entries where
    ``keep`` holds (default: all), in the row's (ascending) column
    order, with Python ``int`` keys and ``float`` values."""
    if keep is None:
        bounds = indptr.tolist()
        keys = cols.tolist()
        vals = values.tolist()
    else:
        sel = np.flatnonzero(keep)
        bounds = np.searchsorted(sel, indptr).tolist()
        keys = cols[sel].tolist()
        vals = values[sel].tolist()
    return [
        dict(zip(keys[a:b], vals[a:b])) for a, b in zip(bounds[:-1], bounds[1:])
    ]


def _reduce_rows(
    ufunc, indptr: np.ndarray, values: np.ndarray, empty: float
) -> np.ndarray:
    """``ufunc`` folded over each row's segment (``empty`` on empty rows)."""
    out = np.full(indptr.shape[0] - 1, empty, dtype=np.float64)
    ne = np.diff(indptr) > 0
    if np.any(ne):
        out[ne] = ufunc.reduceat(values, indptr[:-1][ne])
    return out


def min_reduce_csr(
    indptr: np.ndarray, cols: np.ndarray, values: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-row ``(winner, min value)`` over CSR-ordered pair values.

    Reproduces the per-object fold's tie-breaking exactly: within each
    row the columns ascend, and the fold's strict ``<`` keeps the first
    column attaining the row minimum — here the ``min`` segment
    reduction followed by the first position where the value equals it.
    Empty rows keep ``(0, +inf)``, as the fold's initial state does.
    """
    best = _reduce_rows(np.minimum, indptr, values, np.inf)
    winners = np.zeros(best.shape[0], dtype=np.intp)
    ne = np.diff(indptr) > 0
    if not np.any(ne):
        return winners, best
    nnz = values.shape[0]
    pos = np.where(
        values == best[kernels.csr_rows(indptr)],
        np.arange(nnz, dtype=np.intp),
        nnz,
    )
    winners[ne] = cols[np.minimum.reduceat(pos, indptr[:-1][ne])]
    return winners, best


def max_reduce_csr(indptr: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Per-row max over CSR-ordered pair values (0 on empty rows) — the
    row aggregation of the float32 per-pair certificates: a row's value
    error is bounded by its worst pair bound (min is 1-Lipschitz in the
    sup norm)."""
    return _reduce_rows(np.maximum, indptr, values, 0.0)


def support_report_csr(
    indptr: np.ndarray,
    cols: np.ndarray,
    dmins: np.ndarray,
    dmaxs: np.ndarray,
) -> dict:
    """Lemma 2.1 over CSR survivors, in shard-mergeable form.

    Per row: ``best`` is the smallest ``dmax``, attained first at column
    ``best_idx``; ``second`` is the row minimum with that position
    masked out (``+inf`` when the row has one entry).  A member is an
    entry whose ``dmin`` lies below ``second`` if it is the ``best_idx``
    column and below ``best`` otherwise.  The report carries the
    members as their own CSR (``indptr`` / ``members`` /
    ``member_dmins``); see :func:`repro.core.nonzero.support_report` for
    why a supervisor can merge contiguous shards' reports exactly.
    Columns must be unique within each row.
    """
    best_idx, best = min_reduce_csr(indptr, cols, dmaxs)
    rows = kernels.csr_rows(indptr)
    is_best = cols == best_idx[rows]
    second = _reduce_rows(
        np.minimum, indptr, np.where(is_best, np.inf, dmaxs), np.inf
    )
    member = dmins < np.where(is_best, second[rows], best[rows])
    running = np.zeros(cols.shape[0] + 1, dtype=np.intp)
    np.cumsum(member, out=running[1:])
    return {
        "best": best,
        "best_idx": best_idx,
        "second": second,
        "indptr": running[indptr],
        "members": cols[member].astype(np.intp, copy=False),
        "member_dmins": dmins[member],
    }


def nonzero_csr(
    indptr: np.ndarray,
    cols: np.ndarray,
    dmins: np.ndarray,
    dmaxs: np.ndarray,
) -> List[FrozenSet[int]]:
    """``NN!=0`` per row (Lemma 2.1) from CSR survivors: the member sets
    of :func:`support_report_csr`."""
    report = support_report_csr(indptr, cols, dmins, dmaxs)
    members = report["members"].tolist()
    ptr = report["indptr"].tolist()
    return [frozenset(members[lo:hi]) for lo, hi in zip(ptr[:-1], ptr[1:])]


def topk_csr(
    indptr: np.ndarray, cols: np.ndarray, values: np.ndarray, k: int
) -> Tuple[np.ndarray, np.ndarray]:
    """The ``k`` smallest entries of every row: ``(columns, values)``,
    each ``(m, k)``, ascending by value.

    A stable ``lexsort((values, rows))`` over CSR order keeps equal
    values in ascending column order, exactly as a stable argsort of the
    dense row does.  Every row must hold at least ``k`` entries (the
    prune keeps ``k`` survivors per query).
    """
    if np.any(np.diff(indptr) < k):
        raise QueryError(f"every CSR row needs at least k={k} entries")
    order = np.lexsort((values, kernels.csr_rows(indptr)))
    take = order[indptr[:-1, None] + np.arange(k, dtype=np.intp)]
    return cols[take], values[take]


def topk_dense(values: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`topk_csr` over every column of an ``(m, n)`` matrix."""
    indptr, cols = full_csr(*values.shape)
    return topk_csr(indptr, cols, values.ravel(), k)
