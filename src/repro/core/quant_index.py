"""Sublinear ε-approximate answering: the quantized-envelope tier.

The paper's headline structures do not evaluate every distance function
per query — they ε-quantize the distance functions, take the lower
envelope of the quantized family, and preprocess the induced planar
subdivision for point location.  :class:`QuantizedEnvelopeIndex` is the
production form of that idea over the :class:`repro.ModelColumns` SoA
store:

* Every object contributes a *bracket* ``lb_i <= f_i <= ub_i`` of its
  criterion function (``f_i = E[d(q, P_i)]`` for ``criterion="expected"``,
  the ``dmin_i``/``dmax_i`` support pair for ``criterion="support"``),
  evaluated vectorized from the SoA columns.  All these functions are
  1-Lipschitz in ``q``, which is what makes quantization certifiable.
* The plane is compressed into an adaptive quadtree whose cells play the
  role of the ε-quantized lower-envelope subdivision: a cell is **settled**
  as soon as one object's bracket dominates every other bracket over the
  whole cell — or, for the expected criterion, as soon as some object is
  provably within the cell's certification budget of optimal everywhere
  in the cell — and is otherwise refined until its half-diagonal fits
  the budget (the envelope's ε-boundary strips).  Finished ε-cells are
  labelled with **exact** evaluations at the cell center; the Lipschitz
  property turns those labels into certified answers for every query in
  the cell.
* Every exact value the index needs (the ε-cell labels and the winners
  of settled rows) is a pruned-tier pass in all but name: a batch of
  cells is a CSR whose rows are the centers and whose columns are each
  cell's candidates in ascending order, valued by the planner's
  tag-grouped kernels (:meth:`repro.QueryPlanner._pair_values`) and
  reduced by :mod:`repro.core.reducers`.  So a label is bit-identical
  to the exact tier's answer at its cell center.
* The budget is ``max(ε, rel * dist)``: pure additive quantization with
  ``rel = 0``, and the paper's multiplicative ``(1 + ε)``-style regime
  with ``rel > 0``, which keeps far-field cells coarse (cell size grows
  linearly with the distance to the envelope) so the structure stays
  near-linear even when near-ties stretch across the whole domain.
* Queries run **batched point location**: a vectorized quadtree descent
  (O(log(diameter / ε)) arithmetic per query, no Python-object work),
  then array gathers of the precomputed labels.  Answers carry the
  certified ε bound and an **exact-fallback mask** marking the rows the
  certificate could not settle (queries outside the quantized domain or
  in cells that hit the refinement guards); callers route exactly those
  rows to an exact tier.

Certificates (``hd`` = cell half-diagonal ``<= ε/2``, ``c`` = center)
--------------------------------------------------------------------
Write ``δ(q) = max(ε, rel * min_i E_i(q))`` for the query's certification
budget (``δ = ε`` exactly when ``rel = 0``).

``expected``: an ε-cell's label stores ``w = argmin_i E_i(c)`` and
``v = min_i E_i(c)``; for any ``q`` in the cell 1-Lipschitzness gives
``|v - min_i E_i(q)| <= hd <= δ(q)/2`` and
``E_w(q) <= v + hd <= min_i E_i(q) + 2 hd <= min_i E_i(q) + δ(q)``.
On settled cells the winner's expectation is evaluated exactly at query
time: single-candidate cells are exact (error 0), budget-settled cells
return a value within ``δ(q)`` of the optimum by construction.

``support``: the label stores the Lemma 2.1 set at the center.  Writing
``t_i(q) = min_{j != i} dmax_j(q)`` and ``δ(q) = max(ε, rel * min_j
dmax_j(q))``, the returned set ``S`` satisfies
``{i : dmin_i(q) < t_i(q) - δ(q)} ⊆ S ⊆ {i : dmin_i(q) <= t_i(q) + δ(q)}``
— an ε-relaxation of ``NN!=0(q)``; on settled cells ``S = NN!=0(q)``
exactly.  Threshold answers are emitted only where they are exact
(settled singleton cells have ``pi_w = 1``); everything else lands in
the fallback mask.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import QueryError
from ..geometry import kernels
from .planner import QueryPlanner
from .reducers import min_reduce_csr, nonzero_csr

__all__ = [
    "ApproxNN",
    "ApproxSets",
    "ApproxThreshold",
    "QuantizedEnvelopeIndex",
]

#: Leaf kinds.
_SETTLED = 0
_QUANT = 1
_FALLBACK = 2

#: Relative slack on the candidate cutoff (mirrors the planner's guard
#: against bounds computed a few ulps high).
_SLACK = 1.0 + 1e-12

_SQRT2 = math.sqrt(2.0)


@dataclasses.dataclass
class ApproxNN:
    """ε-certified expected-NN answers for a query batch.

    ``winners[r]`` / ``values[r]`` are valid wherever ``fallback[r]`` is
    False, and then satisfy ``E_winner(q_r) <= min_i E_i(q_r) + d`` and
    ``|values[r] - min_i E_i(q_r)| <= d`` for the certified budget
    ``d = max(eps, rel * min_i E_i(q_r))`` (``d = eps`` when
    ``rel = 0``).  Fallback rows hold ``-1`` / ``nan`` and must be
    answered by an exact tier.
    """

    winners: np.ndarray
    values: np.ndarray
    fallback: np.ndarray
    eps: float
    rel: float = 0.0


@dataclasses.dataclass
class ApproxSets:
    """ε-relaxed ``NN!=0`` sets (exact on settled cells) + fallback mask."""

    sets: List[FrozenSet[int]]
    fallback: np.ndarray
    eps: float
    rel: float = 0.0


@dataclasses.dataclass
class ApproxThreshold:
    """Certified-exact threshold answers + fallback mask.

    Rows not in ``fallback`` are exactly the [DYM+05] answer.
    """

    answers: List[Dict[int, float]]
    fallback: np.ndarray
    eps: float
    rel: float = 0.0


class QuantizedEnvelopeIndex:
    """Point location in the ε-quantized lower envelope of a model set.

    Parameters
    ----------
    points:
        The uncertain points (any mix of models).
    eps:
        The additive certification radius, in distance units of the
        data.  Tree size grows like ``O(ambiguous-area / eps^2)``.
    rel:
        Optional relative certification factor: the per-cell budget
        becomes ``max(eps, rel * dist-to-envelope)``, so far-field cells
        stay coarse (the multiplicative quantization regime).  ``0``
        (default) keeps the pure additive ε contract.
    criterion:
        ``"expected"`` — quantize the expected-distance envelope (serves
        :meth:`expected_nn_many`); ``"support"`` — quantize the
        ``dmin``/``dmax`` envelope (serves :meth:`nonzero_nn_many` and
        :meth:`threshold_nn_many`).
    planner:
        Optional :class:`repro.QueryPlanner` over ``points``: its column
        store bounds the cells, and its grouped kernels value the labels
        and the settled rows' winners.  A private one is built when
        omitted.
    margin:
        Fractional padding of the quantized domain around the data
        bounding box; queries outside the domain fall back.
    max_nodes / max_depth:
        Refinement guards.  Cells still unresolved when a guard trips
        become fallback leaves (reported by :meth:`stats`), never wrong
        answers.
    """

    def __init__(
        self,
        points: Sequence,
        eps: float,
        criterion: str = "expected",
        rel: float = 0.0,
        planner: Optional[QueryPlanner] = None,
        margin: float = 0.5,
        max_nodes: int = 2_000_000,
        max_depth: int = 40,
    ):
        if not (eps > 0.0):
            raise QueryError("eps must be positive")
        if rel < 0.0:
            raise QueryError("rel must be non-negative")
        if criterion not in ("expected", "support"):
            raise QueryError(f"unknown quantization criterion {criterion!r}")
        points = list(points)
        if not points:
            raise QueryError("QuantizedEnvelopeIndex requires at least one point")
        self.planner = planner if planner is not None else QueryPlanner(points)
        if len(self.planner) != len(points):
            raise QueryError("planner was built over a different point set")
        self.columns = self.planner.columns
        self.eps = float(eps)
        self.rel = float(rel)
        self.criterion = criterion
        self.max_nodes = int(max_nodes)
        self.max_depth = int(max_depth)
        self._build_root(float(margin))
        self._build_tree()
        self._label_leaves()

    # -- construction --------------------------------------------------------
    def _build_root(self, margin: float) -> None:
        bb = self.columns.bboxes
        xmin = float(np.min(bb[:, 0]))
        ymin = float(np.min(bb[:, 1]))
        xmax = float(np.max(bb[:, 2]))
        ymax = float(np.max(bb[:, 3]))
        extent = max(xmax - xmin, ymax - ymin)
        pad = margin * extent + self.eps
        side = extent + 2.0 * pad
        self._root_cx = 0.5 * (xmin + xmax)
        self._root_cy = 0.5 * (ymin + ymax)
        self._root_half = 0.5 * side

    @staticmethod
    def _gather_segments(
        values: np.ndarray, indptr: np.ndarray, cells: np.ndarray, copies: int = 1
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Concatenate CSR segments of ``cells`` (each repeated ``copies``
        times consecutively).  Returns the gathered values and the
        per-run segment lengths."""
        gather, lens = kernels.csr_segment_gather(indptr, cells, copies)
        return values[gather], lens

    def _build_tree(self) -> None:
        n = self.columns.n
        node_cx: List[np.ndarray] = []
        node_cy: List[np.ndarray] = []
        node_child: List[np.ndarray] = []
        node_leaf: List[np.ndarray] = []
        leaf_kind: List[np.ndarray] = []
        leaf_winner: List[np.ndarray] = []
        leaf_cx: List[np.ndarray] = []
        leaf_cy: List[np.ndarray] = []
        leaf_hd: List[np.ndarray] = []
        quant_ids: List[np.ndarray] = []
        quant_chunks: List[np.ndarray] = []
        quant_counts: List[np.ndarray] = []

        level_cx = np.array([self._root_cx])
        level_cy = np.array([self._root_cy])
        indptr = np.array([0, n], dtype=np.intp)
        cand = np.arange(n, dtype=np.intp)
        h = self._root_half
        depth = 0
        node_count = 0
        leaf_count = 0
        while level_cx.size:
            hd = h * _SQRT2
            k = level_cx.size
            counts = np.diff(indptr)
            rows = np.repeat(np.arange(k, dtype=np.intp), counts)
            lb, ub = self.columns.member_pair_bounds(
                level_cx[rows], level_cy[rows], cand, self.criterion
            )
            minub = np.minimum.reduceat(ub, indptr[:-1])
            minlb = np.minimum.reduceat(lb, indptr[:-1])
            # The per-cell certification budget: absolute eps, widened to
            # rel * (a lower bound on the envelope value over the cell)
            # when the relative regime is enabled — the multiplicative
            # quantization that keeps far-field cells coarse.
            budget = np.maximum(self.eps, self.rel * (minlb - hd))
            keep = lb <= ((minub + 2.0 * hd) * _SLACK)[rows]
            new_counts = np.add.reduceat(keep.astype(np.intp), indptr[:-1])
            new_idx = cand[keep]
            new_indptr = np.concatenate(
                ([0], np.cumsum(new_counts))
            ).astype(np.intp)
            # The argmin-ub pair always survives the keep filter, so it
            # is the winner both of single-candidate cells and of cells
            # finished by the eps-settled test below.
            npairs = cand.shape[0]
            pair_pos = np.arange(npairs, dtype=np.intp)
            pos = np.where(ub == minub[rows], pair_pos, npairs)
            winner_ub = cand[np.minimum.reduceat(pos, indptr[:-1])]
            settled = new_counts == 1
            if self.criterion == "expected":
                # eps-settled: the argmin-ub object is budget-optimal
                # everywhere in the cell even if others survive.
                settled |= (minub + 2.0 * hd) <= (minlb + budget)
            resolved = (2.0 * hd <= budget) & ~settled
            guard = (
                depth >= self.max_depth
                or node_count + 1 + 4 * int((~settled).sum()) > self.max_nodes
            )
            if guard:
                resolved = ~settled
            open_mask = ~settled & ~resolved
            # -- emit this level's leaves (settled + resolved), in cell
            # order, with vectorized bookkeeping.
            emit = settled | resolved
            emit_cells = np.flatnonzero(emit)
            n_emit = emit_cells.size
            cur_leaf = np.full(k, -1, dtype=np.intp)
            cur_child = np.full(k, -1, dtype=np.intp)
            if n_emit:
                cur_leaf[emit_cells] = leaf_count + np.arange(
                    n_emit, dtype=np.intp
                )
                kinds = np.where(
                    settled[emit_cells],
                    _SETTLED,
                    np.where(
                        (2.0 * hd <= budget)[emit_cells], _QUANT, _FALLBACK
                    ),
                ).astype(np.int8)
                winners = np.where(
                    settled[emit_cells], winner_ub[emit_cells], -1
                ).astype(np.intp)
                leaf_kind.append(kinds)
                leaf_winner.append(winners)
                leaf_cx.append(level_cx[emit_cells])
                leaf_cy.append(level_cy[emit_cells])
                leaf_hd.append(np.full(n_emit, hd))
                q_local = np.flatnonzero(kinds == _QUANT)
                if q_local.size:
                    q_cells = emit_cells[q_local]
                    quant_ids.append(cur_leaf[q_cells])
                    seg_vals, seg_lens = self._gather_segments(
                        new_idx, new_indptr, q_cells
                    )
                    quant_chunks.append(seg_vals)
                    quant_counts.append(seg_lens)
                leaf_count += n_emit
            # -- split the remaining cells into 4 children (quadrant
            # order must match the descent rule (qx > cx) + 2*(qy > cy)).
            open_cells = np.flatnonzero(open_mask)
            n_split = open_cells.size
            child_base = node_count + k
            if n_split:
                cur_child[open_cells] = child_base + 4 * np.arange(
                    n_split, dtype=np.intp
                )
            node_cx.append(level_cx)
            node_cy.append(level_cy)
            node_child.append(cur_child)
            node_leaf.append(cur_leaf)
            node_count += k
            if not n_split:
                break
            h2 = 0.5 * h
            ccx = np.repeat(level_cx[open_cells], 4) + np.tile(
                [-h2, h2, -h2, h2], n_split
            )
            ccy = np.repeat(level_cy[open_cells], 4) + np.tile(
                [-h2, -h2, h2, h2], n_split
            )
            cand, child_counts = self._gather_segments(
                new_idx, new_indptr, open_cells, copies=4
            )
            indptr = np.concatenate(
                ([0], np.cumsum(child_counts))
            ).astype(np.intp)
            level_cx = ccx
            level_cy = ccy
            h = h2
            depth += 1

        self._node_cx = np.concatenate(node_cx)
        self._node_cy = np.concatenate(node_cy)
        self._node_child = np.concatenate(node_child)
        self._node_leaf = np.concatenate(node_leaf)
        self._leaf_kind = (
            np.concatenate(leaf_kind)
            if leaf_kind
            else np.zeros(0, dtype=np.int8)
        )
        self._leaf_winner = (
            np.concatenate(leaf_winner)
            if leaf_winner
            else np.zeros(0, dtype=np.intp)
        )
        self._leaf_cx = np.concatenate(leaf_cx) if leaf_cx else np.zeros(0)
        self._leaf_cy = np.concatenate(leaf_cy) if leaf_cy else np.zeros(0)
        self._leaf_hd = np.concatenate(leaf_hd) if leaf_hd else np.zeros(0)
        self._leaf_value = np.full(self._leaf_kind.shape[0], np.nan)
        self._leaf_set: List[Optional[FrozenSet[int]]] = [
            None
        ] * self._leaf_kind.shape[0]
        self._quant_leaf_ids = (
            np.concatenate(quant_ids)
            if quant_ids
            else np.zeros(0, dtype=np.intp)
        )
        self._quant_indptr = np.concatenate(
            (
                [0],
                np.cumsum(
                    np.concatenate(quant_counts)
                    if quant_counts
                    else np.zeros(0, dtype=np.intp)
                ),
            )
        ).astype(np.intp)
        self._quant_idx = (
            np.concatenate(quant_chunks).astype(np.intp)
            if quant_chunks
            else np.zeros(0, dtype=np.intp)
        )
        self._depth = depth

    def _label_leaves(self) -> None:
        """Allocate the lazy label store.  ε-cell labels (exact center
        evaluations) are computed on first touch by
        :meth:`_ensure_quant_labels` — queries pay only for the cells
        they actually land in; :meth:`prelabel` forces all of them."""
        self._leaf_labelled = np.zeros(self._leaf_kind.shape[0], dtype=bool)

    def prelabel(self) -> None:
        """Eagerly compute every ε-cell label (full preprocessing)."""
        self._ensure_quant_labels(self._quant_leaf_ids)

    def _ensure_quant_labels(self, lids: np.ndarray) -> None:
        """Label the (unique, QUANT-kind) leaf ids that are still
        unlabelled, as a pruned pass answers its rows: the cells form a
        CSR (rows the centers, columns their ascending candidates),
        valued by the grouped kernels and fed to the pass's reducer."""
        need = lids[~self._leaf_labelled[lids]]
        if need.size == 0:
            return
        ordinals = np.searchsorted(self._quant_leaf_ids, need)
        cols, lens = self._gather_segments(
            self._quant_idx, self._quant_indptr, ordinals
        )
        indptr = np.concatenate(([0], np.cumsum(lens))).astype(np.intp)
        C = np.column_stack((self._leaf_cx[need], self._leaf_cy[need]))
        values = self.planner._pair_values(self.criterion, C, indptr, cols)
        if self.criterion == "expected":
            self._leaf_winner[need], self._leaf_value[need] = min_reduce_csr(
                indptr, cols, values
            )
        else:
            # A support ε-cell answers with its set; only settled cells
            # read a winner.
            for lid, members in zip(need.tolist(), nonzero_csr(indptr, cols, *values)):
                self._leaf_set[lid] = members
        self._leaf_labelled[need] = True

    # -- batched point location ----------------------------------------------
    def locate_many(self, qs) -> np.ndarray:
        """Leaf id per query row (``-1`` outside the quantized domain) —
        the vectorized quadtree descent."""
        Q = kernels.as_query_array(qs)
        m = Q.shape[0]
        out = np.full(m, -1, dtype=np.intp)
        if m == 0:
            return out
        qx = Q[:, 0]
        qy = Q[:, 1]
        inside = (
            (np.abs(qx - self._root_cx) <= self._root_half)
            & (np.abs(qy - self._root_cy) <= self._root_half)
        )
        idx = np.flatnonzero(inside)
        if idx.size == 0:
            return out
        cur = np.zeros(idx.size, dtype=np.intp)
        cb = self._node_child[cur]
        live = cb >= 0
        while live.any():
            lcur = cur[live]
            quad = (qx[idx[live]] > self._node_cx[lcur]).astype(np.intp) + 2 * (
                qy[idx[live]] > self._node_cy[lcur]
            ).astype(np.intp)
            cur[live] = cb[live] + quad
            cb = self._node_child[cur]
            live = cb >= 0
        out[idx] = self._node_leaf[cur]
        return out

    def _leaf_rows(self, qs) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        Q = kernels.as_query_array(qs)
        leaf = self.locate_many(Q)
        fallback = leaf < 0
        valid = ~fallback
        fallback[valid] = self._leaf_kind[leaf[valid]] == _FALLBACK
        return Q, leaf, fallback

    # -- queries -------------------------------------------------------------
    def expected_nn_many(self, qs) -> ApproxNN:
        """ε-certified expected-distance NN for every query row.

        Settled rows report the exact winner with its expectation
        evaluated exactly at the query (error 0, one grouped kernel call
        over the (row, winner) pairs); ε-cell rows are pure label
        lookups with error at most ``eps``; fallback rows are left to
        the caller's exact tier.
        """
        if self.criterion != "expected":
            raise QueryError(
                "expected_nn_many requires criterion='expected'"
            )
        Q, leaf, fallback = self._leaf_rows(qs)
        m = Q.shape[0]
        winners = np.full(m, -1, dtype=np.intp)
        values = np.full(m, np.nan)
        good = ~fallback
        quant = good.copy()
        quant[good] = self._leaf_kind[leaf[good]] == _QUANT
        if quant.any():
            self._ensure_quant_labels(np.unique(leaf[quant]))
        winners[good] = self._leaf_winner[leaf[good]]
        values[quant] = self._leaf_value[leaf[quant]]
        rows = np.flatnonzero(good & ~quant)
        if rows.size:
            values[rows] = self.planner._pair_values(
                "expected", Q[rows], np.arange(rows.size + 1, dtype=np.intp),
                winners[rows],
            )
        return ApproxNN(winners, values, fallback, self.eps, self.rel)

    def nonzero_nn_many(self, qs) -> ApproxSets:
        """ε-relaxed ``NN!=0`` (exact on settled cells) per query row."""
        if self.criterion != "support":
            raise QueryError("nonzero_nn_many requires criterion='support'")
        Q, leaf, fallback = self._leaf_rows(qs)
        good = ~fallback
        quant = good.copy()
        quant[good] = self._leaf_kind[leaf[good]] == _QUANT
        if quant.any():
            self._ensure_quant_labels(np.unique(leaf[quant]))
        sets: List[FrozenSet[int]] = []
        for row in range(Q.shape[0]):
            if fallback[row]:
                sets.append(frozenset())
            elif quant[row]:
                sets.append(self._leaf_set[leaf[row]])
            else:
                sets.append(frozenset([int(self._leaf_winner[leaf[row]])]))
        return ApproxSets(sets, fallback, self.eps, self.rel)

    def threshold_nn_many(self, qs, tau: float) -> ApproxThreshold:
        """Threshold answers where the quantization certifies them.

        Settled singleton cells are exact (``pi_w = 1 > tau``); every
        other row is flagged in the fallback mask.
        """
        if self.criterion != "support":
            raise QueryError("threshold_nn_many requires criterion='support'")
        if not 0.0 <= tau < 1.0:
            raise QueryError("tau must lie in [0, 1)")
        Q, leaf, fallback = self._leaf_rows(qs)
        settled = ~fallback
        settled[settled] = self._leaf_kind[leaf[settled]] == _SETTLED
        answers: List[Dict[int, float]] = [{} for _ in range(Q.shape[0])]
        for row in np.flatnonzero(settled).tolist():
            answers[row] = {int(self._leaf_winner[leaf[row]]): 1.0}
        return ApproxThreshold(answers, ~settled, self.eps, self.rel)

    # -- introspection -------------------------------------------------------
    @property
    def nbytes(self) -> int:
        """Approximate memory footprint of the tree, label, and candidate
        arrays (cached-index accounting for :meth:`repro.Engine.stats`)."""
        return int(
            self._node_cx.nbytes
            + self._node_cy.nbytes
            + self._node_child.nbytes
            + self._node_leaf.nbytes
            + self._leaf_kind.nbytes
            + self._leaf_winner.nbytes
            + self._leaf_cx.nbytes
            + self._leaf_cy.nbytes
            + self._leaf_hd.nbytes
            + self._leaf_value.nbytes
            + self._quant_leaf_ids.nbytes
            + self._quant_indptr.nbytes
            + self._quant_idx.nbytes
        )

    def stats(self) -> Dict[str, float]:
        kinds = self._leaf_kind
        return {
            "n": float(self.columns.n),
            "eps": self.eps,
            "rel": self.rel,
            "criterion": self.criterion,
            "nodes": float(self._node_cx.shape[0]),
            "leaves": float(kinds.shape[0]),
            "settled_leaves": float(int((kinds == _SETTLED).sum())),
            "quant_leaves": float(int((kinds == _QUANT).sum())),
            "fallback_leaves": float(int((kinds == _FALLBACK).sum())),
            "depth": float(self._depth),
            "mean_quant_candidates": (
                float(np.diff(self._quant_indptr).mean())
                if self._quant_idx.size
                else 0.0
            ),
        }
