"""Dual-tree candidate generation: output-sensitive prune passes.

A flat prune pass evaluates the envelope bracket of **every** (query,
object) pair — O(m·n) bound work even when almost everything is
pruned.  This module is the planner's candidate generator instead, the
standard batch-NN acceleration of production spatial engines: a
best-first **dual
traversal** of a query-block tree against an object-envelope tree, both
STR-packed straight from the SoA arrays (:func:`repro.index.bulk.
str_hierarchy` — no node objects, no recursion), processed one level at
a time so every step is a handful of vectorized kernels over the
surviving node-pair frontier.

Per level the traversal

1. brackets every frontier pair ``(query block B, object group G)`` with
   ``pair_lb <= min dmin_i(q)`` and ``pair_ub >= max dmax_i(q)`` over
   the pair (rect–rect kernels over the group's support bbox, enclosing
   disks, and — for the expected criterion — first-moment aggregates);
2. maintains a per-query-block running best upper bound: sorting each
   block's pairs by ``pair_ub`` and scanning until the covered member
   count reaches ``k`` yields ``block_best_ub >= k``-th smallest
   ``ub_j(q)`` for *every* query in the block, cascaded down the query
   tree (children inherit ``min`` with their parent's bound);
3. prunes pairs with ``pair_lb > block_best_ub * slack`` and expands the
   survivors into the children cross product.

At the leaf level each query block refines its reachable members with
the **exact column bounds** (the same
:meth:`~repro.uncertain.ModelColumns.envelope_bounds_many` /
:meth:`~repro.uncertain.ModelColumns.expected_bounds_many` floats) and
the same ``k``-th-smallest-ub cutoff.  Because every object among the
``k`` smallest upper bounds of a query provably survives node pruning,
the member-level cutoff equals the flat pass's cutoff *bit for bit*,
and the emitted survivor sets are **exactly the flat pass's survivor
sets** (the tests keep that flat pass as the oracle) — a CSR layout
feeding the evaluators, so answers stay bit-identical to the exact tier
while the bound work becomes proportional to the surviving frontier
instead of ``m·n``.

Parallelism fans out over **query subtrees** (each root child's
traversal is independent) via :func:`repro.core.parallel.map_ordered`;
per-query survivor sets do not depend on the fan-out, so every backend
returns identical CSR bytes.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..config import EXECUTION
from ..errors import QueryError
from ..geometry import kernels
from ..index.bulk import str_hierarchy
from .. import resilience as _resilience
from . import parallel as _parallel

__all__ = [
    "DualTreeCandidates",
    "EnvelopeObjectTree",
    "QueryBlockTree",
    "dual_tree_candidates",
]

#: Mirrors the planner's cutoff slack so a bound a few ulps above its
#: true value can never discard a genuine candidate.
_CUTOFF_SLACK = 1.0 + 1e-12


class _PackedTree:
    """Array-form STR hierarchy shared by both traversal sides.

    Levels are stored **root-first**: ``bboxes[0]`` is the root group,
    ``bboxes[depth - 1]`` the leaves.  ``child_ptr[l]`` / ``child_idx[l]``
    are the CSR child lists of level ``l`` into level ``l + 1``;
    ``leaf_flat[leaf_ptr[j]:leaf_ptr[j + 1]]`` holds the (sorted)
    base-item indices of leaf ``j`` and ``sizes[l]`` the base-item count
    under every node.  Built from :func:`~repro.index.bulk.str_hierarchy`
    levels with array operations only.
    """

    def __init__(self, levels: List[Tuple[np.ndarray, np.ndarray, np.ndarray]]):
        if not levels:
            raise QueryError("cannot pack a tree over zero items")
        depth = len(levels)
        self.depth = depth
        self.bboxes: List[np.ndarray] = [
            levels[depth - 1 - l][2] for l in range(depth)
        ]
        self.child_ptr: List[np.ndarray] = []
        self.child_idx: List[np.ndarray] = []
        for l in range(depth - 1):
            perm, starts, _ = levels[depth - 1 - l]
            self.child_ptr.append(np.append(starts, perm.shape[0]))
            self.child_idx.append(perm)
        perm, starts, _ = levels[0]
        # Flat CSR view of the leaf partition, shared by every
        # refinement chunk / thread task; items ascend within each leaf.
        self.leaf_ptr: np.ndarray = np.append(starts, perm.shape[0])
        lens = np.diff(self.leaf_ptr)
        leaf_of = np.repeat(np.arange(lens.shape[0], dtype=np.intp), lens)
        self.leaf_flat: np.ndarray = perm[np.lexsort((perm, leaf_of))]
        sizes: List[Optional[np.ndarray]] = [None] * depth
        sizes[depth - 1] = lens
        for l in range(depth - 2, -1, -1):
            gathered = sizes[l + 1][self.child_idx[l]]
            sizes[l] = np.add.reduceat(gathered, self.child_ptr[l][:-1])
        self.sizes: List[np.ndarray] = sizes  # type: ignore[assignment]

    def n_nodes(self, level: int) -> int:
        return self.bboxes[level].shape[0]

    @property
    def node_count(self) -> int:
        return sum(b.shape[0] for b in self.bboxes)

    @property
    def nbytes(self) -> int:
        total = 0
        for arrs in (self.bboxes, self.child_ptr, self.child_idx, self.sizes):
            total += sum(a.nbytes for a in arrs)
        total += self.leaf_flat.nbytes + self.leaf_ptr.nbytes
        return int(total)


def _leaf_reduce(ufunc, values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    return ufunc.reduceat(values, starts)


class EnvelopeObjectTree(_PackedTree):
    """STR hierarchy over the object envelopes of a
    :class:`~repro.uncertain.ModelColumns` store.

    Every node aggregates, besides the support-bbox union the packer
    already keeps, the column summaries the pair bounds need: the bbox
    of member enclosing-disk centers plus the largest radius, and the
    bbox of member first moments plus the largest mean reach (with an
    ``all_mean`` flag so the Jensen terms are only used when every
    member has a known mean).  The tree depends only on the column
    store — one build serves every criterion, ``k``, and query batch,
    which is why the :class:`repro.Engine` registry caches it per
    generation.
    """

    def __init__(self, columns, leaf_size: int = 32, fanout: int = 8):
        super().__init__(str_hierarchy(columns.bboxes, leaf_size, fanout))
        self.n = int(columns.n)
        self.leaf_size = int(leaf_size)
        self.fanout = int(fanout)
        depth = self.depth
        order = self.leaf_flat
        starts = self.leaf_ptr[:-1]
        cx, cy = columns.centers[order, 0], columns.centers[order, 1]
        mx, my = columns.means[order, 0], columns.means[order, 1]
        cb = [None] * depth
        mb = [None] * depth
        mr = [None] * depth
        rc = [None] * depth
        am = [None] * depth
        cb[-1] = np.column_stack(
            [
                _leaf_reduce(np.minimum, cx, starts),
                _leaf_reduce(np.minimum, cy, starts),
                _leaf_reduce(np.maximum, cx, starts),
                _leaf_reduce(np.maximum, cy, starts),
            ]
        )
        mb[-1] = np.column_stack(
            [
                _leaf_reduce(np.minimum, mx, starts),
                _leaf_reduce(np.minimum, my, starts),
                _leaf_reduce(np.maximum, mx, starts),
                _leaf_reduce(np.maximum, my, starts),
            ]
        )
        mr[-1] = _leaf_reduce(np.maximum, columns.radii[order], starts)
        rc[-1] = _leaf_reduce(np.maximum, columns.mean_reach[order], starts)
        am[-1] = _leaf_reduce(
            np.minimum, columns.has_mean[order].astype(np.uint8), starts
        ).astype(bool)
        for l in range(depth - 2, -1, -1):
            idx = self.child_idx[l]
            ptr = self.child_ptr[l][:-1]
            cb[l] = np.column_stack(
                [
                    np.minimum.reduceat(cb[l + 1][idx, 0], ptr),
                    np.minimum.reduceat(cb[l + 1][idx, 1], ptr),
                    np.maximum.reduceat(cb[l + 1][idx, 2], ptr),
                    np.maximum.reduceat(cb[l + 1][idx, 3], ptr),
                ]
            )
            mb[l] = np.column_stack(
                [
                    np.minimum.reduceat(mb[l + 1][idx, 0], ptr),
                    np.minimum.reduceat(mb[l + 1][idx, 1], ptr),
                    np.maximum.reduceat(mb[l + 1][idx, 2], ptr),
                    np.maximum.reduceat(mb[l + 1][idx, 3], ptr),
                ]
            )
            mr[l] = np.maximum.reduceat(mr[l + 1][idx], ptr)
            rc[l] = np.maximum.reduceat(rc[l + 1][idx], ptr)
            am[l] = np.minimum.reduceat(
                am[l + 1][idx].astype(np.uint8), ptr
            ).astype(bool)
        self.centers_bbox: List[np.ndarray] = cb  # type: ignore[assignment]
        self.means_bbox: List[np.ndarray] = mb  # type: ignore[assignment]
        self.max_radius: List[np.ndarray] = mr  # type: ignore[assignment]
        self.max_reach: List[np.ndarray] = rc  # type: ignore[assignment]
        self.all_mean: List[np.ndarray] = am  # type: ignore[assignment]

    @property
    def nbytes(self) -> int:
        total = _PackedTree.nbytes.fget(self)  # type: ignore[attr-defined]
        for arrs in (
            self.centers_bbox,
            self.means_bbox,
            self.max_radius,
            self.max_reach,
            self.all_mean,
        ):
            total += sum(a.nbytes for a in arrs)
        return int(total)

    def stats(self) -> Dict[str, int]:
        return {
            "n": self.n,
            "depth": self.depth,
            "nodes": self.node_count,
            "leaves": self.n_nodes(self.depth - 1),
            "leaf_size": self.leaf_size,
            "fanout": self.fanout,
        }


class QueryBlockTree(_PackedTree):
    """STR hierarchy over the query points (degenerate point bboxes)."""

    def __init__(self, Q, leaf_size: int = 32, fanout: int = 8):
        Q = kernels.as_query_array(Q)
        if Q.shape[0] == 0:
            raise QueryError("QueryBlockTree requires at least one query")
        self.m = Q.shape[0]
        super().__init__(
            str_hierarchy(np.concatenate([Q, Q], axis=1), leaf_size, fanout)
        )


@dataclasses.dataclass
class DualTreeCandidates:
    """CSR survivor sets of one dual-tree prune pass.

    ``indptr`` has shape ``(m + 1,)``; ``indices[indptr[r]:indptr[r+1]]``
    are query ``r``'s surviving object columns in ascending order —
    exactly the flat pass's survivors.  ``stats`` records the traversal
    telemetry (node pairs visited / pruned, leaf pairs, member-level
    refinements, survivor count).
    """

    indptr: np.ndarray
    indices: np.ndarray
    stats: Dict[str, float]

    @property
    def m(self) -> int:
        return self.indptr.shape[0] - 1

    @property
    def nnz(self) -> int:
        return int(self.indices.shape[0])

    def counts(self) -> np.ndarray:
        """Survivor count per query, shape ``(m,)``."""
        return np.diff(self.indptr)

    def lists(self) -> List[np.ndarray]:
        """Per-query survivor index arrays (views into ``indices``)."""
        return [
            self.indices[self.indptr[r] : self.indptr[r + 1]]
            for r in range(self.m)
        ]

    def mask(self, n: int) -> np.ndarray:
        """Densify to a boolean ``(m, n)`` mask."""
        out = np.zeros((self.m, n), dtype=bool)
        out[kernels.csr_rows(self.indptr), self.indices] = True
        return out


def _pair_bounds(
    qb: np.ndarray, otree: EnvelopeObjectTree, lvl: int, on: np.ndarray,
    criterion: str,
) -> Tuple[np.ndarray, np.ndarray]:
    """Conservative ``(pair_lb, pair_ub)`` brackets for frontier pairs.

    ``pair_lb`` lower-bounds the criterion's ``lb_i(q)`` and ``pair_ub``
    upper-bounds ``ub_i(q)`` for every query in the block and every
    member of the group — the containment argument behind
    :meth:`ModelColumns.envelope_bounds_many` lifted to node aggregates.
    """
    sb = otree.bboxes[lvl][on]
    lb = kernels.rect_rect_mindist_pairs(qb, sb)
    ub = kernels.rect_rect_maxdist_pairs(qb, sb)
    cbb = otree.centers_bbox[lvl][on]
    r = otree.max_radius[lvl][on]
    lb = np.maximum(
        lb, np.maximum(kernels.rect_rect_mindist_pairs(qb, cbb) - r, 0.0)
    )
    ub = np.minimum(ub, kernels.rect_rect_maxdist_pairs(qb, cbb) + r)
    if criterion == "expected":
        am = otree.all_mean[lvl][on]
        mbb = otree.means_bbox[lvl][on]
        lb = np.maximum(
            lb,
            np.where(am, kernels.rect_rect_mindist_pairs(qb, mbb), 0.0),
        )
        reach = otree.max_reach[lvl][on]
        ub = np.minimum(
            ub,
            np.where(
                am,
                kernels.rect_rect_maxdist_pairs(qb, mbb) + reach,
                np.inf,
            ),
        )
    return lb, ub


#: The shared cutoff selector: one implementation keeps the leaf cutoff
#: the exact float the flat pass selects.
_kth_smallest = kernels.kth_smallest_rowwise


def _coverage_best(
    blocks_sorted: np.ndarray,
    ub_sorted: np.ndarray,
    sizes_sorted: np.ndarray,
    k: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-block best upper bound by the coverage scan.

    Inputs are pair arrays sorted by ``(block id, pair_ub)``: scanning
    each block's pairs in ascending ``pair_ub`` until the covered member
    count (``sizes``) reaches ``k`` yields a bound that dominates the
    ``k``-th smallest member ub for every query in the block.  Returns
    ``(unique block ids, per-block best)`` — the single implementation
    behind both the node-level traversal and the R1 per-query stage.
    """
    uniq, seg_starts = np.unique(blocks_sorted, return_index=True)
    seg_ends = np.append(seg_starts[1:], blocks_sorted.shape[0])
    cs = np.cumsum(sizes_sorted)
    base = np.where(seg_starts > 0, cs[seg_starts - 1], 0)
    pos = np.minimum(np.searchsorted(cs, base + k, side="left"), seg_ends - 1)
    return uniq, ub_sorted[pos]


def _traverse(
    Q: np.ndarray,
    qtree: QueryBlockTree,
    otree: EnvelopeObjectTree,
    columns,
    k: int,
    criterion: str,
    slack: float,
    qn: np.ndarray,
    ql: int,
    pair_budget: int,
) -> Tuple[Tuple[np.ndarray, np.ndarray, np.ndarray], Dict[str, int]]:
    """Level-at-a-time descent from query nodes ``qn`` (at level ``ql``)
    against the object root; returns per-query survivor arrays plus the
    traversal counters."""
    stats = {
        "node_pairs_visited": 0,
        "node_pairs_pruned": 0,
        "leaf_pairs": 0,
        "point_node_pairs": 0,
        "refined_pairs": 0,
    }
    on = np.zeros(qn.shape[0], dtype=np.intp)  # object root per pair
    ol = 0
    inherited = np.full(qtree.n_nodes(ql), np.inf)
    while True:
        _resilience.checkpoint("dual_tree.level")
        q_leaf = ql == qtree.depth - 1
        o_leaf = ol == otree.depth - 1
        qb = qtree.bboxes[ql][qn]
        lb, ub = _pair_bounds(qb, otree, ol, on, criterion)
        stats["node_pairs_visited"] += int(qn.shape[0])
        # Running best upper bound per query block: scan each block's
        # pairs by ascending pair_ub until >= k members are covered —
        # every query in the block then has k objects at distance
        # <= that pair_ub, so it dominates the k-th smallest ub.
        sizes = otree.sizes[ol][on]
        order = np.lexsort((ub, qn))
        uniq, best = _coverage_best(qn[order], ub[order], sizes[order], k)
        best = np.minimum(best, inherited[uniq])
        best_full = np.full(qtree.n_nodes(ql), np.inf)
        best_full[uniq] = best
        keep = lb <= best_full[qn] * slack
        stats["node_pairs_pruned"] += int(np.count_nonzero(~keep))
        qn = qn[keep]
        on = on[keep]
        if q_leaf and o_leaf:
            break
        # Expand survivors into the children cross product; a side that
        # already sits at its leaf level keeps its nodes.
        if q_leaf:
            nq = np.ones(qn.shape[0], dtype=np.intp)
        else:
            qptr = qtree.child_ptr[ql]
            nq = qptr[qn + 1] - qptr[qn]
        if o_leaf:
            no = np.ones(on.shape[0], dtype=np.intp)
        else:
            optr = otree.child_ptr[ol]
            no = optr[on + 1] - optr[on]
        tot = nq * no
        total = int(tot.sum())
        pid = np.repeat(np.arange(qn.shape[0], dtype=np.intp), tot)
        offs = np.zeros(qn.shape[0], dtype=np.intp)
        np.cumsum(tot[:-1], out=offs[1:])
        r = np.arange(total, dtype=np.intp) - offs[pid]
        qi, oi = np.divmod(r, no[pid])
        new_qn = qn[pid] if q_leaf else qtree.child_idx[ql][qptr[qn[pid]] + qi]
        new_on = on[pid] if o_leaf else otree.child_idx[ol][optr[on[pid]] + oi]
        if q_leaf:
            inherited = best_full
        else:
            inherited = np.full(qtree.n_nodes(ql + 1), np.inf)
            inherited[new_qn] = best_full[qn[pid]]
            ql += 1
        if not o_leaf:
            ol += 1
        qn, on = new_qn, new_on
    stats["leaf_pairs"] = int(qn.shape[0])
    # Group the surviving leaf pairs by query leaf and refine them in
    # chunks of whole query-leaf segments whose estimated member-pair
    # count stays under the budget — the refinement's per-pair
    # temporaries are the traversal's only batch-sized allocations, so
    # this keeps peak memory O(budget) exactly like the planner's row
    # tiles (a query's cutoff needs all of its reachable members, hence
    # the whole-segment granularity).
    order = np.argsort(qn, kind="stable")
    qn_s = qn[order]
    on_s = on[order]
    leaf_lvl = otree.depth - 1
    q_sizes = qtree.sizes[qtree.depth - 1]
    est = q_sizes[qn_s] * otree.sizes[leaf_lvl][on_s]
    uniq, seg_starts = np.unique(qn_s, return_index=True)
    seg_ends = np.append(seg_starts[1:], qn_s.shape[0])
    chunks: List[Tuple[int, int]] = []
    start = 0
    acc = 0
    for gi in range(uniq.shape[0]):
        seg_est = int(est[seg_starts[gi] : seg_ends[gi]].sum())
        if acc and acc + seg_est > pair_budget:
            chunks.append((start, int(seg_starts[gi])))
            start = int(seg_starts[gi])
            acc = 0
        acc += seg_est
    chunks.append((start, qn_s.shape[0]))
    parts = []
    for ci, (lo, hi) in enumerate(chunks):
        _resilience.checkpoint("dual_tree.refine", ci)
        parts.append(
            _refine(
                Q, qtree, otree, columns, k, criterion, slack,
                qn_s[lo:hi], on_s[lo:hi], stats,
            )
        )
    return (
        (
            np.concatenate([p[0] for p in parts]),
            np.concatenate([p[1] for p in parts]),
            np.concatenate([p[2] for p in parts]),
        ),
        stats,
    )


def _refine(
    Q: np.ndarray,
    qtree: QueryBlockTree,
    otree: EnvelopeObjectTree,
    columns,
    k: int,
    criterion: str,
    slack: float,
    qn: np.ndarray,
    on: np.ndarray,
    stats: Dict[str, int],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Member-level refinement of one chunk of (query leaf, object leaf)
    pairs (``qn`` sorted, whole query-leaf segments); returns
    ``(rows, per-row survivor counts, survivor columns)``."""
    leaf_lvl = otree.depth - 1
    # Stage R1 — expand each (query leaf, object leaf) pair into
    # individual (query row, object leaf) pairs and prune them with the
    # per-*query* node bounds: the block-level best upper bound is
    # replaced by each query's own coverage cutoff, so whole leaves die
    # per query before any member is touched.
    gather, reps = kernels.csr_segment_gather(qtree.leaf_ptr, qn)
    pair_row = qtree.leaf_flat[gather]
    pair_on = np.repeat(on, reps)
    qp = Q[pair_row]
    qb = np.concatenate([qp, qp], axis=1)
    lb1, ub1 = _pair_bounds(qb, otree, leaf_lvl, pair_on, criterion)
    stats["point_node_pairs"] += int(pair_row.shape[0])
    sizes = otree.sizes[leaf_lvl][pair_on]
    order = np.lexsort((ub1, pair_row))
    uniq, best = _coverage_best(
        pair_row[order], ub1[order], sizes[order], k
    )
    best_full = np.empty(Q.shape[0], dtype=np.float64)
    best_full[uniq] = best
    keep1 = lb1 <= best_full[pair_row] * slack
    # Stage R2 — member refinement of the surviving (row, leaf) pairs
    # with the exact column bounds and the flat pass's cutoff, one pair
    # batch for all queries at once.
    srt = np.argsort(pair_row[keep1], kind="stable")
    kept_row = pair_row[keep1][srt]
    kept_on = pair_on[keep1][srt]
    gather2, lens2 = kernels.csr_segment_gather(otree.leaf_ptr, kept_on)
    mem_col = otree.leaf_flat[gather2]
    mem_row = np.repeat(kept_row, lens2)
    stats["refined_pairs"] += int(mem_row.shape[0])
    lb2, ub2 = columns.member_pair_bounds(
        Q[mem_row, 0], Q[mem_row, 1], mem_col, criterion
    )
    row_uniq, row_starts = np.unique(mem_row, return_index=True)
    if k == 1:
        kth = np.minimum.reduceat(ub2, row_starts)
    else:
        # Pad the ragged per-row segments into one (rows, maxlen)
        # matrix (every row has >= k real members, so +inf padding
        # never reaches the k-th slot) and reuse the flat selector.
        seg_lens = np.append(row_starts[1:], mem_row.shape[0]) - row_starts
        seg_ids = np.repeat(
            np.arange(row_uniq.shape[0], dtype=np.intp), seg_lens
        )
        in_seg = np.arange(mem_row.shape[0], dtype=np.intp) - np.repeat(
            row_starts, seg_lens
        )
        dense = np.full((row_uniq.shape[0], int(seg_lens.max())), np.inf)
        dense[seg_ids, in_seg] = ub2
        kth = _kth_smallest(dense, min(k, dense.shape[1]))
    cut_full = np.empty(Q.shape[0], dtype=np.float64)
    cut_full[row_uniq] = kth * slack
    keep2 = lb2 <= cut_full[mem_row]
    counts = np.add.reduceat(keep2.astype(np.intp), row_starts)
    # Ascending columns per row: rows are already grouped in ascending
    # order; sort the surviving columns within each row.
    fin = np.lexsort((mem_col[keep2], mem_row[keep2]))
    return row_uniq, counts, mem_col[keep2][fin]


def dual_tree_candidates(
    qs,
    columns,
    object_tree: Optional[EnvelopeObjectTree] = None,
    k: int = 1,
    criterion: str = "support",
    leaf_size: int = 32,
    fanout: int = 8,
    slack: float = _CUTOFF_SLACK,
    backend: str = "serial",
    workers: Optional[int] = None,
    tile_bytes: Optional[int] = None,
) -> DualTreeCandidates:
    """The dual-tree prune pass: CSR survivor sets for a query batch.

    Parameters
    ----------
    qs:
        Query matrix (anything :func:`as_query_array` accepts).
    columns:
        The :class:`~repro.uncertain.ModelColumns` store.
    object_tree:
        Optional prebuilt :class:`EnvelopeObjectTree` over ``columns``
        (built here when omitted; sessions cache one per generation).
    leaf_size / fanout:
        Packing of the query-block tree, and of the object tree when it
        is built here.  The survivors do not depend on them.  The
        planner packs 4 query rows per leaf against 16-object leaves:
        small query blocks keep each block's running best bound tight,
        so fewer (query row, object leaf) pairs reach the refinement.
    k / criterion:
        The prune test — survivors of query ``q`` are exactly the flat
        pass's ``lb_i(q) <= k``-th smallest ``ub_j(q)`` set, with
        ``criterion`` selecting the support or expected-distance
        bracket.
    backend / workers:
        ``"serial"`` or ``"thread"`` — threads fan out over query
        subtrees (the traversal's closures are not picklable, so the
        process backend is rejected exactly like the planner's tiles).
    tile_bytes:
        Peak-memory budget for the leaf refinement's per-pair
        temporaries (defaults to :data:`repro.config.EXECUTION`'s
        ``tile_bytes``): refinement runs in chunks of whole query-leaf
        segments sized to the budget, mirroring the planner's row
        tiles.
    """
    Q = kernels.as_query_array(qs)
    m = Q.shape[0]
    n = int(columns.n)
    k = min(max(int(k), 1), n)
    if criterion not in ("support", "expected"):
        raise QueryError(f"unknown pruning criterion {criterion!r}")
    if backend == "process":
        raise QueryError(
            "the dual-tree traversal's closures are not picklable; use "
            "parallel_backend='thread' (the process backend serves "
            "picklable workloads via repro.core.parallel.map_tiles)"
        )
    if object_tree is None:
        object_tree = EnvelopeObjectTree(columns, leaf_size, fanout)
    if object_tree.n != n:
        raise QueryError("object tree was built over a different column store")
    base_stats = {
        "node_pairs_visited": 0.0,
        "node_pairs_pruned": 0.0,
        "leaf_pairs": 0.0,
        "point_node_pairs": 0.0,
        "refined_pairs": 0.0,
        "survivors": 0.0,
        "traversal_tasks": 0.0,
        "query_tree_depth": 0.0,
        "object_tree_depth": float(object_tree.depth),
    }
    if m == 0:
        return DualTreeCandidates(
            np.zeros(1, dtype=np.intp), np.zeros(0, dtype=np.intp), base_stats
        )
    qtree = QueryBlockTree(Q, leaf_size, fanout)
    base_stats["query_tree_depth"] = float(qtree.depth)
    if tile_bytes is None:
        tile_bytes = EXECUTION.tile_bytes
    # ~256 simultaneous bytes per (query, member) refinement pair across
    # the bound kernels' float temporaries and the CSR index arrays
    # (tracemalloc reads 180-240 bytes per refined pair for either
    # criterion).  Small query leaves make the chunk estimate tight, so
    # a chunk really holds about that many pairs.
    pair_budget = max(1024, int(tile_bytes) // 256)
    n_workers = _parallel.resolve_workers(workers)
    if backend == "thread" and qtree.depth > 1 and n_workers > 1:
        # Parallelize over query subtrees: each level-1 node descends
        # independently (its best-ub chain never reads a sibling's), so
        # chunked fan-out returns the same per-query survivors.
        nodes = np.arange(qtree.n_nodes(1), dtype=np.intp)
        chunks = np.array_split(nodes, min(n_workers, nodes.shape[0]))
        task_results = _parallel.map_ordered(
            lambda chunk: _traverse(
                Q, qtree, object_tree, columns, k, criterion, slack,
                chunk, 1, pair_budget,
            ),
            chunks,
            backend=backend,
            workers=n_workers,
        )
    else:
        task_results = [
            _traverse(
                Q,
                qtree,
                object_tree,
                columns,
                k,
                criterion,
                slack,
                np.zeros(1, dtype=np.intp),
                0,
                pair_budget,
            )
        ]
    for _, tstats in task_results:
        for key in (
            "node_pairs_visited",
            "node_pairs_pruned",
            "leaf_pairs",
            "point_node_pairs",
            "refined_pairs",
        ):
            base_stats[key] += float(tstats[key])
    # Tasks cover disjoint query rows; permute their concatenated CSR
    # segments back into query order.
    all_rows = np.concatenate([rows for (rows, _, _), _ in task_results])
    all_counts = np.concatenate([cnt for (_, cnt, _), _ in task_results])
    all_cols = np.concatenate([cols for (_, _, cols), _ in task_results])
    order = np.argsort(all_rows)  # all_rows is a permutation of range(m)
    task_indptr = np.zeros(all_rows.shape[0] + 1, dtype=np.intp)
    np.cumsum(all_counts, out=task_indptr[1:])
    gather, lens = kernels.csr_segment_gather(task_indptr, order)
    indices = all_cols[gather].astype(np.intp, copy=False)
    indptr = np.zeros(m + 1, dtype=np.intp)
    np.cumsum(lens, out=indptr[1:])
    base_stats["survivors"] = float(indptr[-1])
    base_stats["traversal_tasks"] = float(len(task_results))
    return DualTreeCandidates(indptr, indices, base_stats)
