"""Exact quantification probabilities for discrete distributions (Eq. 2).

For a query ``q``,

    ``pi_i(q) = sum over locations p_is of
                w_is * prod_{j != i} (1 - G_{q,j}(d(p_is, q)))``

with ``G_{q,j}(r)`` the total weight of ``P_j``'s locations within
(closed) distance ``r``.  A single sweep over the ``N = nk`` locations in
distance order maintains the running product across all ``j`` in
log-space (zero factors tracked separately), giving all probabilities in
``O(N log N)`` — the quantity the probabilistic Voronoi diagram of
Section 4.1 tabulates per cell.

:func:`sweep_quantification` runs that sweep for one query over Python
tuples; :func:`sweep_quantification_csr` runs it for a whole batch of
queries over flat NumPy entry arrays, bit for bit the same.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..errors import QueryError
from ..geometry import kernels
from .nonzero import UncertainSet

#: Factors below this threshold are treated as exactly zero (a point
#: whose whole distribution lies within the current radius).
_ZERO = 1e-15

Entry = Tuple[float, int, float]  # (distance, owner index, weight)


def sweep_quantification(entries: Sequence[Entry], n: int) -> List[float]:
    """Evaluate Eq. (2) over explicit ``(distance, owner, weight)`` entries.

    ``entries`` need not have per-owner weights summing to one — the
    spiral-search truncation of Section 4.3 reuses this sweep on a
    partial location set (Eq. (10)/(11)).

    Ties in distance are handled per Eq. (2)'s closed inequality: all
    entries at distance exactly ``r`` contribute to every ``G_j(r)``.
    """
    order = sorted(entries)
    pi = [0.0] * n
    G = [0.0] * n  # accumulated weight per owner
    log_sum = 0.0  # sum of log(1 - G_j) over owners with positive factor
    zeros = 0  # number of owners with factor 0
    m = len(order)
    pos = 0
    while pos < m:
        # Group of equal distances.
        end = pos
        r = order[pos][0]
        while end < m and order[end][0] == r:
            end += 1
        group = order[pos:end]
        # Update every owner's cdf first (ties included in G, Eq. (2)).
        for _, i, w in group:
            old = 1.0 - G[i]
            if old > _ZERO:
                log_sum -= math.log(old)
            else:
                zeros -= 1
            G[i] += w
            new = 1.0 - G[i]
            if new > _ZERO:
                log_sum += math.log(new)
            else:
                zeros += 1
        # Now credit each group entry with prod_{j != i} (1 - G_j(r)).
        for _, i, w in group:
            fi = 1.0 - G[i]
            if zeros == 0:
                prod_others = math.exp(log_sum - math.log(fi))
            elif zeros == 1 and fi <= _ZERO:
                prod_others = math.exp(log_sum)
            else:
                prod_others = 0.0
            pi[i] += w * prod_others
        pos = end
    return pi


def _running_sums(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Running sums of ``values`` within each CSR segment
    ``offsets[s]:offsets[s+1]``, each started from ``0.0`` and added in
    order, as a scalar ``acc += v`` loop would.

    Segments are grouped by length, so every group is one
    ``np.add.accumulate`` along the rows of a ``(segments, length)``
    block; accumulate adds strictly in sequence, so no float differs
    from the scalar loop (no padding, no difference of prefix sums).
    """
    out = np.empty_like(values)
    lens = np.diff(offsets)
    for length in np.unique(lens):
        if length == 0:
            continue
        idx = offsets[:-1][lens == length][:, None] + np.arange(length)
        block = values[idx]
        block[:, 0] += 0.0  # 0.0 + v: the scalar accumulator's first add
        np.add.accumulate(block, axis=1, out=block)
        out[idx] = block
    return out


def _log_list(x: np.ndarray) -> np.ndarray:
    # math.log, not np.log: the two differ in the last bit on some
    # inputs, and the scalar sweep is the oracle.
    return np.fromiter(map(math.log, x.tolist()), np.float64, x.shape[0])


def _offsets(lens: np.ndarray) -> np.ndarray:
    out = np.zeros(lens.shape[0] + 1, dtype=np.intp)
    np.cumsum(lens, out=out[1:])
    return out


def _segment_min(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Per-segment minimum (``+inf`` for empty segments)."""
    out = np.full(offsets.shape[0] - 1, np.inf)
    has = offsets[1:] > offsets[:-1]
    if np.any(has):
        out[has] = np.minimum.reduceat(values, offsets[:-1][has])
    return out


def _segment_last(starts: np.ndarray) -> np.ndarray:
    """For each position, the last position of its segment (segments
    begin where ``starts`` is true; ``starts[0]`` must be)."""
    begin = np.flatnonzero(starts)
    last = np.empty_like(begin)
    last[:-1] = begin[1:] - 1
    last[-1] = starts.shape[0] - 1
    return last[np.cumsum(starts) - 1]


def sweep_quantification_csr(
    indptr: np.ndarray,
    lens: np.ndarray,
    dist: np.ndarray,
    weight: np.ndarray,
) -> np.ndarray:
    """:func:`sweep_quantification` for a batch of queries at once.

    ``indptr`` (``(m + 1,)``) lays the ``nnz`` owners out per query row,
    as the planner's candidate CSR does; ``lens`` (``(nnz,)``) counts
    each owner's entries; ``dist`` / ``weight`` hold the entries row by
    row and owner by owner.  Returns ``pi`` of shape ``(nnz,)``:
    ``pi[indptr[r] + j]`` is, bit for bit, entry ``j`` of
    ``sweep_quantification(row r's (dist, j, weight) entries, count)``.

    One vectorized pass replays the scalar sweep's float operations in
    its order:

    * each owner's entries are put in (distance, weight) order, so ``G``
      and the owner's factors are running sums along its segment; a
      stable sort by (row, distance) then yields the scalar sweep's
      ``sorted`` order, (row, distance, owner, weight);
    * every running sum is sequential (:func:`_running_sums`): ``G``
      per owner, ``log_sum`` per row (a skipped increment adds ``+0.0``,
      which is exact: the sum never holds ``-0.0``) and ``pi`` per
      owner; the zero-factor count is an exact integer cumsum;
    * each tie group reads the state at the group's end;
    * logs and exps are ``math.log`` / ``math.exp`` mapped over lists,
      and ``exp`` runs only where the scalar sweep calls it.

    Entries at or beyond the distance where a row's second owner's
    factor drops to zero are skipped: every tie group there holds two
    zero factors, so the scalar sweep credits them exactly ``0.0`` and
    nothing before them depends on them.  In planner batches that is
    most of the entries.
    """
    m = indptr.shape[0] - 1
    nnz = lens.shape[0]
    pi = np.zeros(nnz, dtype=np.float64)
    if dist.shape[0] == 0:
        return pi
    eoff = _offsets(lens)
    # Each owner's entries in sweep order, then G and the factor after
    # each entry; factors only fall, so an owner's first dead factor
    # marks the distance from which it stays zero.
    order = np.arange(dist.shape[0], dtype=np.intp)
    for k in np.unique(lens[lens > 1]):
        idx = eoff[:-1][lens == k][:, None] + np.arange(k)
        sub = np.lexsort((weight[idx], dist[idx]), axis=-1)
        order[idx] = np.take_along_axis(idx, sub, axis=1)
    dist = dist[order]
    weight = weight[order]
    new = 1.0 - _running_sums(weight, eoff)
    live = new > _ZERO
    zero_at = _segment_min(np.where(live, np.inf, dist), eoff)
    # Per row, the second smallest zero distance.
    row_of = kernels.csr_rows(indptr)
    first = _segment_min(zero_at, indptr)
    tied = np.bincount(
        row_of[zero_at == first[row_of]], minlength=m
    ) >= 2
    second = _segment_min(
        np.where(zero_at == first[row_of], np.inf, zero_at), indptr
    )
    cutoff = np.where(tied, first, second)
    owner = np.repeat(np.arange(nnz, dtype=np.intp), lens)
    keep = np.flatnonzero(dist < cutoff[row_of[owner]])
    if keep.shape[0] == 0:
        return pi
    dist, weight, new, live, owner = (
        a[keep] for a in (dist, weight, new, live, owner)
    )
    row = row_of[owner]
    kept = np.bincount(owner, minlength=nnz)
    koff = _offsets(kept)
    starts_o = koff[:-1][kept > 0]
    # The factor before each entry is the one after the owner's
    # previous entry (1.0 - 0.0 before its first).
    log_new = np.zeros(keep.shape[0])
    log_new[live] = _log_list(new[live])
    log_old = np.empty_like(log_new)
    log_old[1:] = log_new[:-1]
    log_old[starts_o] = 0.0  # math.log(1.0)
    live_old = np.empty_like(live)
    live_old[1:] = live[:-1]
    live_old[starts_o] = True
    # Sweep order: stable, so ties keep (owner, weight) order.
    perm = np.lexsort((dist, row))
    s_dist, s_row, s_owner = dist[perm], row[perm], owner[perm]
    s_live, s_live_old = live[perm], live_old[perm]
    s_log_new = log_new[perm]
    # log_sum: per entry "-= log(old)" then "+= log(new)", per row.
    inc = np.empty(2 * perm.shape[0])
    inc[0::2] = np.where(s_live_old, -log_old[perm], 0.0)
    inc[1::2] = np.where(s_live, s_log_new, 0.0)
    roff = _offsets(np.bincount(row, minlength=m))
    log_sum = _running_sums(inc, 2 * roff)
    zeros = np.cumsum(s_live_old.astype(np.intp) - s_live.astype(np.intp))
    zeros -= np.concatenate(([0], zeros))[roff[:-1]][s_row]
    # Tie groups (equal distance within a row) and, inside them, runs of
    # one owner: an entry reads log_sum / zeros at its group's end and
    # its owner's factor at the run's end.
    starts = np.ones(perm.shape[0], dtype=bool)
    starts[1:] = (s_dist[1:] != s_dist[:-1]) | (s_row[1:] != s_row[:-1])
    group_end = _segment_last(starts)
    starts[1:] |= s_owner[1:] != s_owner[:-1]
    run_end = _segment_last(starts)
    L = log_sum[2 * group_end + 1]
    Z = zeros[group_end]
    free = Z == 0
    want = free | ((Z == 1) & ~s_live[run_end])
    prod = np.zeros(perm.shape[0])
    prod[want] = np.fromiter(
        map(math.exp, np.where(free, L - s_log_new[run_end], L)[want].tolist()),
        np.float64,
    )
    credit = np.empty_like(prod)
    credit[perm] = prod
    credit *= weight
    acc = _running_sums(credit, koff)
    has = kept > 0
    pi[has] = acc[koff[1:][has] - 1]
    return pi


#: Relative and absolute slack between a squared distance computed as
#: ``dx * dx + dy * dy`` and the square of the ``math.hypot`` distance
#: the sweep reads: the two differ by a few unit roundoffs relative,
#: plus subnormal rounding (below 1e-320) where the squares underflow.
_SQ_MARGIN = 1.0 + 3e-12
_SQ_FLOOR = 1e-300


def sweep_reach_sq(
    indptr: np.ndarray,
    lens: np.ndarray,
    sq: np.ndarray,
    weight: np.ndarray,
) -> np.ndarray:
    """Per query row, a squared distance past which
    :func:`sweep_quantification_csr` skips every entry, shape ``(m,)``.

    ``sq`` holds the entries' squared distances as ``dx * dx + dy * dy``
    computes them, in the layout of :func:`sweep_quantification_csr`.
    An owner whose weights sum to 1 in every summation order (within
    ``2 (len - 1)`` unit roundoffs of the sum) reaches a zero factor by
    its farthest entry, so the second smallest such distance in a row
    (with multiplicity; ``+inf`` for owners that may keep mass) bounds
    the row's skip cutoff from above.  An entry whose ``sq`` lies past
    the returned reach is farther than that bound, and the sweep's
    result does not depend on its distance as long as it stays past
    the bound: every entry up to the cutoff, so the cutoff itself, the
    factors before it and every credit, stays the same.
    """
    m = indptr.shape[0] - 1
    if sq.shape[0] == 0 or not np.all(lens > 0):
        return np.full(m, np.inf)
    starts = _offsets(lens)[:-1]
    total = np.add.reduceat(weight, starts)
    dies = (1.0 - total) + (lens - 1) * 2.3e-16 * total <= _ZERO
    far = np.maximum.reduceat(sq, starts) * _SQ_MARGIN + _SQ_FLOOR
    bound = np.where(dies, far, np.inf)
    row_of = kernels.csr_rows(indptr)
    first = _segment_min(bound, indptr)
    at_first = bound == first[row_of]
    tied = np.bincount(row_of[at_first], minlength=m) >= 2
    second = _segment_min(np.where(at_first, np.inf, bound), indptr)
    return np.where(tied, first, second) * _SQ_MARGIN + _SQ_FLOOR


def entries_for_query(points: Sequence, q) -> List[Entry]:
    """Flatten discrete uncertain points into sweep entries for ``q``."""
    qx, qy = q[0], q[1]
    entries: List[Entry] = []
    for i, p in enumerate(points):
        if not p.is_discrete:
            raise QueryError(
                "exact quantification requires discrete distributions; "
                "use MonteCarloPNN or continuous_quantification instead"
            )
        for (px, py), w in zip(p.locations, p.weights):
            entries.append((math.hypot(px - qx, py - qy), i, w))
    return entries


def quantification_probabilities(points: Sequence, q) -> List[float]:
    """All ``pi_i(q)`` exactly, via the sorted sweep (Eq. (2))."""
    return sweep_quantification(entries_for_query(points, q), len(points))


def quantification_naive(points: Sequence, q) -> List[float]:
    """O(N^2) literal evaluation of Eq. (2); the test oracle."""
    n = len(points)
    qx, qy = q[0], q[1]
    pi = [0.0] * n
    for i, p in enumerate(points):
        for (px, py), w in zip(p.locations, p.weights):
            r = math.hypot(px - qx, py - qy)
            prod = 1.0
            for j, pj in enumerate(points):
                if j == i:
                    continue
                prod *= 1.0 - pj.distance_cdf(q, r)
                if prod == 0.0:
                    break
            pi[i] += w * prod
    return pi


def nonzero_quantifications(points: Sequence, q, min_value: float = 0.0) -> Dict[int, float]:
    """The PNN answer: ``{ i : pi_i(q) }`` restricted to positive values."""
    pi = quantification_probabilities(points, q)
    return {i: v for i, v in enumerate(pi) if v > min_value}
