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

Before the walk, every query row is **seeded**: it descends the object
tree to one leaf (per level, the child whose member-centre bbox lies
nearest — one segmented argmin), and its seeded cutoff ``c'(q)`` is the
``k``-th smallest exact member upper bound there (``+inf`` when that
leaf holds fewer than ``k`` members).  A ``k``-th smallest over a subset
of the objects is never below the one over all of them, so ``c'(q)``
bounds the flat pass's cutoff from above and every pruning test below
may use it.  This is the best-first dual-tree kNN's tightened query
threshold (Curtin et al., "Tree-Independent Dual-Tree Algorithms",
ICML 2013).  A query tree that is a single leaf (at most ``leaf_size``
rows) skips the seed: there the descent costs more than it saves (it
added ~20% to a one-row pass at n = 2·10^4 on a 2-CPU Xeon).

Per level the traversal

1. brackets every frontier pair ``(query block B, object group G)`` with
   ``pair_lb <= min dmin_i(q)`` and ``pair_ub >= max dmax_i(q)`` over
   the pair (rect–rect kernels over the group's support bbox, enclosing
   disks, and — for the expected criterion — first-moment aggregates);
2. maintains a per-query-block running best upper bound: sorting each
   block's pairs by ``pair_ub`` and scanning until the covered member
   count reaches ``k`` yields ``block_best_ub >= k``-th smallest
   ``ub_j(q)`` for *every* query in the block, cascaded down the query
   tree (children inherit ``min`` with their parent's bound), and
   started from the largest seeded cutoff of the block's rows;
3. prunes pairs with ``pair_lb > block_best_ub * slack`` and expands the
   survivors into the children cross product.

At the leaf level each (query block, object leaf) pair is refined:

* **R1** expands it into (query row, object leaf) pairs and prunes them
  against each row's own coverage bound, capped by its seeded cutoff;
* **R2** computes the **exact column bounds** (the same
  :meth:`~repro.uncertain.ModelColumns.envelope_bounds_many` /
  :meth:`~repro.uncertain.ModelColumns.expected_bounds_many` floats)
  best first: the members of each row's coverage leaves (its leaves up
  to the one whose pair ub covers ``k`` members) lower the row's cutoff
  to a ``k``-th smallest exact member ub, and only the row's other
  leaves whose ``pair_lb`` is still within that cutoff follow.

Every object among the ``k`` smallest upper bounds of a query provably
survives each of these tests, so the ``k``-th smallest exact ub over
the refined members equals the flat pass's cutoff *bit for bit*, and
the emitted survivor sets are **exactly the flat pass's survivor sets**
(the tests keep that flat pass as the oracle) — a CSR layout feeding
the evaluators, so answers stay bit-identical to the exact tier while
the bound work becomes proportional to the surviving frontier instead
of ``m·n``.

Parallelism fans out over **query subtrees** (each root child's
traversal is independent) via :func:`repro.core.parallel.map_ordered`;
per-query survivor sets do not depend on the fan-out, so every backend
returns identical CSR bytes.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..config import current_execution
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


#: The per-node aggregates of :class:`EnvelopeObjectTree` (one array per
#: level each), in the order :func:`_member_aggregates` and
#: :func:`_node_aggregates` return them.
_AGGREGATES = (
    "bboxes", "centers_bbox", "means_bbox", "max_radius", "max_reach", "all_mean",
)

#: Refit limits of :meth:`EnvelopeObjectTree.refit`: a write that
#: changes more than this share of the objects, or that would leave a
#: leaf empty or holding more than this multiple of the leaf size, gets
#: no refit (the next read packs a fresh tree).  So does any write once
#: the objects changed since the last pack outnumber the tree's.
_REFIT_MAX_SHARE = 0.125
_REFIT_MAX_GROWTH = 4

#: Rank of a leaf that cannot be an item's best (see ``_choose_leaves``).
_NO_RANK = np.iinfo(np.intp).max


def _pair_budget(tile_bytes: int) -> int:
    """Pairs per refinement (or leaf-choice) chunk for a byte budget:
    ~256 simultaneous bytes per pair across the bound kernels' float
    temporaries and the CSR index arrays (tracemalloc read 180-240 bytes
    per refined pair for either criterion)."""
    return max(1024, int(tile_bytes) // 256)


def _reduce_aggregates(parts, starts: np.ndarray):
    """The :data:`_AGGREGATES` of non-empty segments of ``parts``: per
    member (or child), three ``(p, 4)`` boxes, two values to take the
    maximum of and one flag to require of all."""
    boxes = tuple(
        np.concatenate(
            [np.minimum.reduceat(b[:, :2], starts), np.maximum.reduceat(b[:, 2:], starts)],
            axis=1,
        )
        for b in parts[:3]
    )
    maxima = tuple(np.maximum.reduceat(v, starts) for v in parts[3:5])
    return boxes + maxima + (np.logical_and.reduceat(parts[5], starts),)


def _member_aggregates(columns, members: np.ndarray, starts: np.ndarray):
    """The :data:`_AGGREGATES` of non-empty segments of object rows."""
    c = columns.centers[members]
    mu = columns.means[members]
    return _reduce_aggregates(
        (
            columns.bboxes[members],
            np.concatenate([c, c], axis=1),
            np.concatenate([mu, mu], axis=1),
            columns.radii[members],
            columns.mean_reach[members],
            columns.has_mean[members],
        ),
        starts,
    )


def _node_aggregates(tree, lvl: int, children: np.ndarray, starts: np.ndarray):
    """The :data:`_AGGREGATES` of level-``lvl`` nodes, from non-empty
    segments of their children at level ``lvl + 1``."""
    return _reduce_aggregates(
        [getattr(tree, name)[lvl + 1][children] for name in _AGGREGATES], starts
    )


def _enlargement(nodes: np.ndarray, items: np.ndarray) -> np.ndarray:
    """How much each node bbox's area grows to take in an item's bbox
    (exactly 0 when the node already covers the item); the two box
    arrays broadcast against each other on all but their last axis."""
    w = np.maximum(nodes[..., 2], items[..., 2]) - np.minimum(nodes[..., 0], items[..., 0])
    h = np.maximum(nodes[..., 3], items[..., 3]) - np.minimum(nodes[..., 1], items[..., 1])
    return w * h - (nodes[..., 2] - nodes[..., 0]) * (nodes[..., 3] - nodes[..., 1])


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
    generation, and a small write carries it forward by :meth:`refit`.
    """

    def __init__(self, columns, leaf_size: int = 32, fanout: int = 8):
        super().__init__(str_hierarchy(columns.bboxes, leaf_size, fanout))
        self.n = int(columns.n)
        self.leaf_size = int(leaf_size)
        self.fanout = int(fanout)
        #: Objects inserted or removed since this tree was packed.
        self.churn = 0
        for name in _AGGREGATES[1:]:
            setattr(self, name, [None] * self.depth)
        leaf = _member_aggregates(columns, self.leaf_flat, self.leaf_ptr[:-1])
        for name, values in zip(_AGGREGATES, leaf):
            getattr(self, name)[-1] = values
        for lvl in range(self.depth - 2, -1, -1):
            nodes = _node_aggregates(
                self, lvl, self.child_idx[lvl], self.child_ptr[lvl][:-1]
            )
            for name, values in zip(_AGGREGATES, nodes):
                getattr(self, name)[lvl] = values

    def refit(self, columns, removed=None) -> Optional["EnvelopeObjectTree"]:
        """This tree carried across a small write, as a new tree over
        ``columns``; ``None`` when the write is too large for a refit.

        ``columns`` is this tree's store with the rows ``removed`` (sorted
        unique old ids) dropped and re-indexed as
        :meth:`~repro.uncertain.ModelColumns.shrink` re-indexes them,
        then any new rows appended.  Removed objects leave their leaves,
        and every survivor ``i`` becomes ``i`` minus the removed ids
        below it.  Each new object joins the leaf whose bbox area grows
        least, a tie going to the leaf with fewer members, then to the
        lower leaf id (Guttman's ChooseLeaf, SIGMOD 1984, scanned over
        every leaf).  Only the touched leaves and their ancestors
        recompute their aggregates and ``sizes``, from their current
        members.

        Returns ``None`` (the caller packs a fresh tree) when the write
        changes more than :data:`_REFIT_MAX_SHARE` of the objects, or
        would leave a leaf empty or above :data:`_REFIT_MAX_GROWTH`
        times the leaf size, or once the objects changed since the last
        pack (:attr:`churn`, this write included) outnumber ``n``: a
        window that has turned over is repacked, so the carried tree's
        prune work cannot keep drifting away from a fresh pack's.  This
        tree's arrays are never written: a reader of the previous
        generation may still hold it.
        """
        removed = np.asarray([] if removed is None else removed, dtype=np.intp)
        kept = self.n - removed.shape[0]
        new_ids = np.arange(kept, int(columns.n), dtype=np.intp)
        changed = new_ids.shape[0] + removed.shape[0]
        if changed > _REFIT_MAX_SHARE * self.n or self.churn + changed > self.n:
            return None
        n_leaves = self.n_nodes(self.depth - 1)
        flat = self.leaf_flat
        lens = np.diff(self.leaf_ptr)
        touched = []
        if removed.shape[0]:
            gone = np.zeros(self.n, dtype=bool)
            gone[removed] = True
            at = np.flatnonzero(gone[flat])
            lost = np.searchsorted(self.leaf_ptr, at, side="right") - 1
            touched.append(lost)
            lens = lens - np.bincount(lost, minlength=n_leaves)
            flat = np.delete(flat, at)
            flat = flat - np.searchsorted(removed, flat)
        chosen = self._choose_leaves(columns.bboxes[new_ids], lens)
        touched.append(chosen)
        total = lens + np.bincount(chosen, minlength=n_leaves)
        if total.min() == 0 or total.max() > _REFIT_MAX_GROWTH * self.leaf_size:
            return None
        if new_ids.shape[0]:
            # Each leaf's new members follow its survivors in id order;
            # new ids exceed every survivor's, so leaves stay ascending.
            order = np.argsort(chosen, kind="stable")
            flat = np.insert(flat, np.cumsum(lens)[chosen[order]], new_ids[order])
        ptr = np.zeros(n_leaves + 1, dtype=np.intp)
        np.cumsum(total, out=ptr[1:])
        mark = np.zeros(n_leaves, dtype=bool)
        for leaves in touched:
            mark[leaves] = True
        tree = self._refitted(columns, flat, ptr, mark)
        tree.churn = self.churn + changed
        return tree

    def _choose_leaves(self, items: np.ndarray, sizes: np.ndarray) -> np.ndarray:
        """The leaf each item bbox joins: the least area enlargement over
        all leaves, then the fewest ``sizes`` members, then the lowest
        leaf id.  Items run in chunks whose (item, leaf) pairs fit the
        tile budget."""
        leaves = self.bboxes[-1]
        width = leaves.shape[0]
        rank = sizes * width + np.arange(width)
        step = max(1, _pair_budget(current_execution().tile_bytes) // width)
        out = [np.zeros(0, dtype=np.intp)]
        for lo in range(0, items.shape[0], step):
            grow = _enlargement(leaves, items[lo : lo + step, None, :])
            best = grow == grow.min(axis=1, keepdims=True)
            out.append(np.where(best, rank, _NO_RANK).min(axis=1) % width)
        return np.concatenate(out)

    def _refitted(self, columns, leaf_flat, leaf_ptr, touched) -> "EnvelopeObjectTree":
        """A copy of this tree with the leaf partition ``leaf_flat`` /
        ``leaf_ptr`` over ``columns``: the leaves flagged in ``touched``
        and their ancestors get fresh aggregates and sizes, every other
        node keeps its own, and the child lists are shared (never
        written)."""
        tree = object.__new__(type(self))
        tree.__dict__.update(self.__dict__)
        tree.n = int(columns.n)
        tree.leaf_flat = leaf_flat
        tree.leaf_ptr = leaf_ptr
        for name in _AGGREGATES + ("sizes",):
            setattr(tree, name, [a.copy() for a in getattr(self, name)])
        leaf = self.depth - 1
        tree.sizes[leaf] = np.diff(leaf_ptr)
        nodes = np.flatnonzero(touched)
        gather, lens = kernels.csr_segment_gather(leaf_ptr, nodes)
        fresh = _member_aggregates(columns, leaf_flat[gather], np.cumsum(lens) - lens)
        for name, values in zip(_AGGREGATES, fresh):
            getattr(tree, name)[leaf][nodes] = values
        for lvl in range(leaf - 1, -1, -1):
            # A node is touched when any of its children is.
            ptr, idx = self.child_ptr[lvl], self.child_idx[lvl]
            touched = np.logical_or.reduceat(touched[idx], ptr[:-1])
            nodes = np.flatnonzero(touched)
            gather, lens = kernels.csr_segment_gather(ptr, nodes)
            children, starts = idx[gather], np.cumsum(lens) - lens
            fresh = _node_aggregates(tree, lvl, children, starts)
            for name, values in zip(_AGGREGATES, fresh):
                getattr(tree, name)[lvl][nodes] = values
            tree.sizes[lvl][nodes] = np.add.reduceat(tree.sizes[lvl + 1][children], starts)
        return tree

    @property
    def nbytes(self) -> int:
        total = _PackedTree.nbytes.fget(self)  # type: ignore[attr-defined]
        for name in _AGGREGATES[1:]:
            total += sum(a.nbytes for a in getattr(self, name))
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


def _segment_kth(
    values: np.ndarray, starts: np.ndarray, lens: np.ndarray, k: int
) -> np.ndarray:
    """The ``k``-th smallest of each contiguous non-empty segment of
    ``values`` (``+inf`` where a segment holds fewer than ``k``)."""
    if k == 1:
        return np.minimum.reduceat(values, starts)
    width = int(lens.max())
    if k > width:
        return np.full(lens.shape[0], np.inf)
    # Pad the ragged segments into one (segments, width) matrix; +inf
    # padding reaches the k-th slot only of segments shorter than k.
    seg = np.repeat(np.arange(lens.shape[0], dtype=np.intp), lens)
    dense = np.full((lens.shape[0], width), np.inf)
    dense[seg, np.arange(values.shape[0]) - np.repeat(starts, lens)] = values
    return _kth_smallest(dense, k)


def _row_segments(
    rows: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(row ids, segment starts, segment lengths)`` of a non-empty
    pair array grouped by row."""
    edge = np.empty(rows.shape[0] + 1, dtype=bool)
    edge[0] = edge[-1] = True
    np.not_equal(rows[1:], rows[:-1], out=edge[1:-1])
    bounds = edge.nonzero()[0]
    starts = bounds[:-1]
    return rows[starts], starts, bounds[1:] - starts


def _grouped_order(rows: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The permutation sorting pairs by ``rows``, then by ascending
    ``values``.  Past a few hundred pairs this is two one-key sorts, the
    second on an exact integer key (row, rank of value), ~3x faster
    than ``np.lexsort`` at 4k pairs (2-CPU Xeon, NumPy 2.4); below
    that ``np.lexsort`` costs less.  Ties may order differently, which no caller depends on."""
    if values.shape[0] <= 512:
        return np.lexsort((values, rows))
    rank = np.empty(values.shape[0], dtype=np.intp)
    rank[np.argsort(values)] = np.arange(values.shape[0], dtype=np.intp)
    return np.argsort(rows * values.shape[0] + rank)


def _chunks(weights: np.ndarray, budget: int) -> List[Tuple[int, int]]:
    """Greedy runs ``[lo, hi)`` of consecutive items whose weights sum
    to at most ``budget`` (an item heavier than the budget runs alone)."""
    cum = np.cumsum(weights)
    if cum[-1] <= budget:
        return [(0, weights.shape[0])]
    out: List[Tuple[int, int]] = []
    lo, base = 0, 0
    while lo < weights.shape[0]:
        hi = int(np.searchsorted(cum, base + budget, side="right"))
        hi = max(hi, lo + 1)
        out.append((lo, hi))
        base = int(cum[hi - 1])
        lo = hi
    return out


def _coverage_best(
    blocks_sorted: np.ndarray,
    ub_sorted: np.ndarray,
    sizes_sorted: np.ndarray,
    k: int,
    covering: bool = False,
):
    """Per-block best upper bound by the coverage scan.

    Inputs are pair arrays sorted by ``(block id, pair_ub)``: scanning
    each block's pairs in ascending ``pair_ub`` until the covered member
    count (``sizes``) reaches ``k`` yields a bound that dominates the
    ``k``-th smallest member ub for every query in the block.  Returns
    ``(unique block ids, per-block best)``, plus with ``covering`` the
    per-pair mask of each block's pairs up to the covering one — the
    single implementation behind both the node-level traversal and the
    R1 per-query stage.
    """
    uniq, seg_starts, seg_lens = _row_segments(blocks_sorted)
    cs = np.cumsum(sizes_sorted)
    base = cs[seg_starts] - sizes_sorted[seg_starts]
    pos = np.minimum(
        np.searchsorted(cs, base + k, side="left"), seg_starts + seg_lens - 1
    )
    if not covering:
        return uniq, ub_sorted[pos]
    mask = np.arange(cs.shape[0]) <= np.repeat(pos, seg_lens)
    return uniq, ub_sorted[pos], mask


def _seed_cutoffs(
    Q: np.ndarray,
    otree: EnvelopeObjectTree,
    columns,
    k: int,
    criterion: str,
    pair_budget: int,
    stats: Dict[str, float],
) -> np.ndarray:
    """Every row's seeded cutoff ``c'(q)``, shape ``(m,)``.

    Each row descends the object tree to one leaf, taking per level the
    child whose member-centre bbox lies nearest (one segmented argmin),
    and ``c'(q)`` is the ``k``-th smallest exact member upper bound of
    that leaf (``+inf`` when it holds fewer than ``k`` members).  A
    ``k``-th smallest over a subset of the objects is never below the
    ``k``-th smallest over all of them, so ``c'(q)`` bounds the flat
    pass's cutoff from above and pruning against it is sound.  Rows run
    in blocks of at most ``pair_budget`` (row, node) or (row, member)
    pairs, sized by the largest leaf (a refit leaf may hold more than
    ``leaf_size`` members).
    """
    step = max(1, pair_budget // max(int(otree.sizes[-1].max()), otree.fanout))
    return np.concatenate([
        _seed_block(Q[lo : lo + step], otree, columns, k, criterion, stats)
        for lo in range(0, Q.shape[0], step)
    ])


def _seed_block(Q, otree, columns, k, criterion, stats) -> np.ndarray:
    m = Q.shape[0]
    rows = np.arange(m, dtype=np.intp)
    node = np.zeros(m, dtype=np.intp)
    for lvl in range(otree.depth - 1):
        gather, lens = kernels.csr_segment_gather(otree.child_ptr[lvl], node)
        child = otree.child_idx[lvl][gather]
        row = np.repeat(rows, lens)
        cbb = otree.centers_bbox[lvl + 1][child]
        qx, qy = Q[row, 0], Q[row, 1]
        dx = np.maximum(np.maximum(cbb[:, 0] - qx, qx - cbb[:, 2]), 0.0)
        dy = np.maximum(np.maximum(cbb[:, 1] - qy, qy - cbb[:, 3]), 0.0)
        key = dx * dx + dy * dy
        stats["point_node_pairs"] += child.shape[0]
        # Segmented argmin: the first position of each row's minimum.
        starts = np.cumsum(lens) - lens
        low = np.repeat(np.minimum.reduceat(key, starts), lens)
        hit = np.flatnonzero(key == low)
        node = child[hit[np.searchsorted(row[hit], rows)]]
    gather, lens = kernels.csr_segment_gather(otree.leaf_ptr, node)
    cols = otree.leaf_flat[gather]
    row = np.repeat(rows, lens)
    _, ub = columns.member_pair_bounds(Q[row, 0], Q[row, 1], cols, criterion)
    stats["refined_pairs"] += cols.shape[0]
    return _segment_kth(ub, np.cumsum(lens) - lens, lens, k)


def _node_seeds(qtree: QueryBlockTree, seed: np.ndarray) -> List[np.ndarray]:
    """Per query-tree level, the largest seeded cutoff under each node —
    a bound every row of the node satisfies."""
    out: List[Optional[np.ndarray]] = [None] * qtree.depth
    out[-1] = np.maximum.reduceat(seed[qtree.leaf_flat], qtree.leaf_ptr[:-1])
    for lvl in range(qtree.depth - 2, -1, -1):
        out[lvl] = np.maximum.reduceat(
            out[lvl + 1][qtree.child_idx[lvl]], qtree.child_ptr[lvl][:-1]
        )
    return out  # type: ignore[return-value]


def _traverse(
    Q: np.ndarray,
    qtree: QueryBlockTree,
    otree: EnvelopeObjectTree,
    columns,
    k: int,
    criterion: str,
    slack: float,
    seed: np.ndarray,
    node_seed: List[np.ndarray],
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
    inherited = node_seed[ql]
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
        # <= that pair_ub, so it dominates the k-th smallest ub.  The
        # block starts from its rows' largest seeded cutoff.
        sizes = otree.sizes[ol][on]
        order = _grouped_order(qn, ub)
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
            inherited = node_seed[ql + 1].copy()
            inherited[new_qn] = np.minimum(
                best_full[qn[pid]], inherited[new_qn]
            )
            ql += 1
        if not o_leaf:
            ol += 1
        qn, on = new_qn, new_on
    stats["leaf_pairs"] = int(qn.shape[0])
    # Refine the surviving leaf pairs in chunks of whole query-leaf
    # segments, each expanding to at most the budget's (query row,
    # object leaf) pairs; the refinement's temporaries are the
    # traversal's only batch-sized allocations, so this keeps peak
    # memory O(budget) like the planner's row tiles (a query's cutoff
    # needs all of its reachable members, hence whole segments).
    order = np.argsort(qn, kind="stable")
    qn_s = qn[order]
    on_s = on[order]
    uniq, seg_starts, seg_lens = _row_segments(qn_s)
    weights = qtree.sizes[qtree.depth - 1][uniq] * seg_lens
    bounds = np.append(seg_starts, qn_s.shape[0])
    parts = []
    for ci, (lo, hi) in enumerate(_chunks(weights, pair_budget)):
        _resilience.checkpoint("dual_tree.refine", ci)
        parts.append(
            _refine(
                Q, qtree, otree, columns, k, criterion, slack, seed,
                qn_s[bounds[lo] : bounds[hi]], on_s[bounds[lo] : bounds[hi]],
                pair_budget, stats,
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


def _members(
    Q: np.ndarray,
    otree: EnvelopeObjectTree,
    columns,
    k: int,
    criterion: str,
    slack: float,
    rows: np.ndarray,
    leaves: np.ndarray,
    cut: np.ndarray,
    pair_budget: int,
    stats: Dict[str, int],
) -> List[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Exact member bounds of the ``(row, object leaf)`` pairs ``rows`` /
    ``leaves`` (grouped by ascending row), in whole-row chunks of at most
    ``pair_budget`` member pairs.

    Lowers each row's ``cut`` in place to the ``k``-th smallest member
    upper bound seen when that is tighter, and returns per chunk the
    ``(row, column, lb, ub)`` of the members that can still matter:
    ``lb <= cut * slack`` (a possible survivor) or ``ub <= cut`` (a
    possible holder of the final cutoff).  The flat cutoff never
    exceeds ``cut``, so a member failing both neither survives nor
    holds it.
    """
    out: List[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []
    if rows.shape[0] == 0:
        return out
    sizes = otree.sizes[otree.depth - 1][leaves]
    if int(sizes.sum()) <= pair_budget:
        bounds = np.array([0, rows.shape[0]])
        runs = [(0, 1)]
    else:
        _, starts, _ = _row_segments(rows)
        bounds = np.append(starts, rows.shape[0])
        runs = _chunks(np.add.reduceat(sizes, starts), pair_budget)
    for lo, hi in runs:
        gather, reps = kernels.csr_segment_gather(
            otree.leaf_ptr, leaves[bounds[lo] : bounds[hi]]
        )
        col = otree.leaf_flat[gather]
        row = np.repeat(rows[bounds[lo] : bounds[hi]], reps)
        stats["refined_pairs"] += int(row.shape[0])
        lb, ub = columns.member_pair_bounds(
            Q[row, 0], Q[row, 1], col, criterion
        )
        ru, rs, rl = _row_segments(row)
        cut[ru] = np.minimum(cut[ru], _segment_kth(ub, rs, rl, k))
        c = cut[row]
        keep = (lb <= c * slack) | (ub <= c)
        out.append((row[keep], col[keep], lb[keep], ub[keep]))
    return out


def _refine(
    Q: np.ndarray,
    qtree: QueryBlockTree,
    otree: EnvelopeObjectTree,
    columns,
    k: int,
    criterion: str,
    slack: float,
    seed: np.ndarray,
    qn: np.ndarray,
    on: np.ndarray,
    pair_budget: int,
    stats: Dict[str, int],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Member-level refinement of one chunk of (query leaf, object leaf)
    pairs (``qn`` sorted, whole query-leaf segments); returns
    ``(rows, per-row survivor counts, survivor columns)``."""
    leaf_lvl = otree.depth - 1
    # Stage R1 — expand each (query leaf, object leaf) pair into
    # individual (query row, object leaf) pairs and prune them with the
    # per-*query* node bounds: each query's own coverage cutoff, capped
    # by its seeded cutoff, so whole leaves die per query before any
    # member is touched.
    gather, reps = kernels.csr_segment_gather(qtree.leaf_ptr, qn)
    pair_row = qtree.leaf_flat[gather]
    pair_on = np.repeat(on, reps)
    qp = Q[pair_row]
    lb1, ub1 = _pair_bounds(
        np.concatenate([qp, qp], axis=1), otree, leaf_lvl, pair_on, criterion
    )
    stats["point_node_pairs"] += int(pair_row.shape[0])
    order = _grouped_order(pair_row, ub1)
    row_s = pair_row[order]
    on_s = pair_on[order]
    lb1 = lb1[order]
    uniq, best, covered = _coverage_best(
        row_s, ub1[order], otree.sizes[leaf_lvl][on_s], k, covering=True
    )
    cut = np.full(Q.shape[0], np.inf)
    cut[uniq] = np.minimum(best, seed[uniq])
    keep = lb1 <= cut[row_s] * slack
    # Stage R2 — member refinement, best first: the coverage leaves
    # (each row's pairs up to the covering one, by ascending pair ub)
    # tighten the row's cutoff to a k-th smallest exact member ub, and
    # only the other leaves still within that cutoff follow.
    first = keep & covered
    kept = _members(
        Q, otree, columns, k, criterion, slack, row_s[first], on_s[first],
        cut, pair_budget, stats,
    )
    rest = ~covered & (lb1 <= cut[row_s] * slack)
    kept += _members(
        Q, otree, columns, k, criterion, slack, row_s[rest], on_s[rest],
        cut, pair_budget, stats,
    )
    # Every row's k smallest member ubs are among the kept members, so
    # their k-th smallest is the flat pass's cutoff bit for bit.
    mem_row = np.concatenate([p[0] for p in kept])
    mem_col = np.concatenate([p[1] for p in kept])
    fin = np.argsort(mem_row * otree.n + mem_col)
    mem_row = mem_row[fin]
    mem_col = mem_col[fin]
    lb2 = np.concatenate([p[2] for p in kept])[fin]
    ub2 = np.concatenate([p[3] for p in kept])[fin]
    row_uniq, row_starts, row_lens = _row_segments(mem_row)
    cut_full = np.empty(Q.shape[0], dtype=np.float64)
    cut_full[row_uniq] = _segment_kth(ub2, row_starts, row_lens, k) * slack
    keep2 = lb2 <= cut_full[mem_row]
    counts = np.add.reduceat(keep2.astype(np.intp), row_starts)
    return row_uniq, counts, mem_col[keep2]


def dual_tree_candidates(
    qs,
    columns,
    object_tree: Optional[EnvelopeObjectTree] = None,
    k: int = 1,
    criterion: str = "support",
    leaf_size: int = 32,
    fanout: int = 8,
    slack: float = _CUTOFF_SLACK,
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
        A batch that fits one query leaf skips the seeded cutoffs.
    k / criterion:
        The prune test — survivors of query ``q`` are exactly the flat
        pass's ``lb_i(q) <= k``-th smallest ``ub_j(q)`` set, with
        ``criterion`` selecting the support or expected-distance
        bracket.

    The execution settings come from
    :func:`repro.config.current_execution`.
    Under ``parallel_backend="thread"``, threads fan out over query
    subtrees after one seeding pass over the whole batch.
    ``tile_bytes`` bounds the leaf refinement's per-pair temporaries,
    at ~256 bytes per pair.  Each stage is sized from the pairs that
    actually reach it: R1 runs in chunks of whole query-leaf segments
    holding at most the budget's (query row, object leaf) pairs, and
    each R2 stage in chunks of whole rows holding at most the budget's
    member pairs (a single segment or row above the budget runs alone).
    """
    Q = kernels.as_query_array(qs)
    m = Q.shape[0]
    n = int(columns.n)
    k = min(max(int(k), 1), n)
    if criterion not in ("support", "expected"):
        raise QueryError(f"unknown pruning criterion {criterion!r}")
    backend = _parallel.check_backend(None)
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
    # The chunks count the pairs each stage really evaluates.
    pair_budget = _pair_budget(current_execution().tile_bytes)
    # The seed is one pass over the whole batch, shared by every task.
    if qtree.depth > 1:
        seed = _seed_cutoffs(
            Q, object_tree, columns, k, criterion, pair_budget, base_stats
        )
    else:
        seed = np.full(m, np.inf)
    node_seed = _node_seeds(qtree, seed)
    n_workers = _parallel.resolve_workers()
    if backend == "thread" and qtree.depth > 1 and n_workers > 1:
        # Parallelize over query subtrees: each level-1 node descends
        # independently (its best-ub chain never reads a sibling's), so
        # chunked fan-out returns the same per-query survivors.
        nodes = np.arange(qtree.n_nodes(1), dtype=np.intp)
        chunks = np.array_split(nodes, min(n_workers, nodes.shape[0]))
        task_results = _parallel.map_ordered(
            lambda chunk: _traverse(
                Q, qtree, object_tree, columns, k, criterion, slack, seed,
                node_seed, chunk, 1, pair_budget,
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
                seed,
                node_seed,
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
