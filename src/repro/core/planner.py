"""The three-tier query planner: exact / pruned / approx.

Every exact structure in this library admits the same pruning argument:
an object ``P_i`` cannot be the (probable / expected / nonzero) nearest
neighbor of ``q`` when ``dmin_i(q) > min_j dmax_j(q)``.  The planner
evaluates that test **vectorized over the whole query matrix** using the
precomputed envelope brackets of :class:`repro.uncertain.ModelColumns`
(``lb <= dmin``, ``dmax <= ub`` ⇒ pruning on ``lb > min_j ub_j`` is
always safe), shrinks each query's candidate set, and dispatches only
the survivors to the existing batched evaluators.  Results are exactly
identical to the unpruned paths:

* the realized / expected winner always survives (its own ``lb`` is at
  most its ``dmax``, which bounds the cutoff);
* every pruned object is *strictly* farther than the per-query cutoff,
  so it can neither win nor tie any evaluator's minimum, and for
  Lemma 2.1 the minimum (and decisive second minimum) of the ``dmax``
  row is always attained at a candidate.

Tiered execution
----------------
The answer-producing methods take ``tier=``:

``"pruned"`` (default)
    Prune-then-evaluate, exactly identical to the unpruned answers.
``"exact"``
    Skip pruning; evaluate every object (the cross-check tier).
``"approx"``
    Point location in a lazily built
    :class:`repro.core.quant_index.QuantizedEnvelopeIndex` (pass
    ``eps=``, optionally ``rel=``): certified ε-approximate answers in
    O(log) per query, with the index's exact-fallback rows transparently
    resolved by the pruned tier.

Tiled execution
---------------
No tier materializes ``(m, n)`` floating-point matrices for a whole
batch.  The pruned tier is output-sensitive end to end: one dual-tree
prune pass emits the batch's survivors in CSR form, one evaluator call
fills their values in the same order, and one segmented reducer of
:mod:`repro.core.reducers` turns them into answers — nothing of size
``(rows, n)`` is allocated and nothing is row-tiled.  Under
``parallel_backend="thread"`` the dual traversal fans out over query
subtrees (:mod:`repro.core.dual_tree`, whose query tree packs
``_QUERY_LEAF_SIZE`` rows per leaf).  Only the exact tier runs in row
tiles, sized from ``config.EXECUTION.tile_bytes`` (so a tile's
simultaneous ``(rows, n)`` float64 temporaries fit the configured
budget); those tiles can be fanned out across cores by
:func:`repro.core.parallel.map_tiles` (``parallel_backend="thread"``;
results are assembled in tile order, so parallel answers are
bit-identical to serial — the ``"process"`` backend serves picklable
workloads through ``map_tiles`` directly, and the planner rejects it
since its tile closures hold model objects).

Candidate generation
--------------------
The pruned tier has one candidate generator, the **dual-tree
traversal** of :mod:`repro.core.dual_tree`: a query-block STR tree is
walked against a cached object-envelope STR tree level by level, node
pairs are pruned against per-block running best upper bounds, and the
surviving members are refined with the exact column bounds of
:class:`~repro.uncertain.ModelColumns`.  The emitted CSR survivor sets
equal the flat ``(rows, n)`` bound pass's survivors bit for bit (the
tests keep that flat pass as their oracle), but the bound work is
proportional to the surviving frontier instead of ``m * n``.  Survivors
are evaluated by the tag-grouped kernels of
:mod:`repro.core.evaluators`; the exact tier, which calls each object's
own ``*_many`` methods, is their oracle.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..config import EXECUTION
from ..errors import QueryError
from ..geometry import kernels
from .. import resilience as _resilience
from ..uncertain.columns import TAG_DISCRETE, ModelColumns
from . import evaluators as _evaluators
from . import parallel as _parallel
from .dual_tree import DualTreeCandidates, EnvelopeObjectTree, dual_tree_candidates
from .nonzero import nonzero_from_matrices, support_report
from .quantification import (
    entries_for_query,
    sweep_quantification,
    sweep_quantification_csr,
)
from .reducers import (
    csr_dicts,
    max_reduce_csr,
    min_reduce_csr,
    nonzero_csr,
    support_report_csr,
    topk_csr,
    topk_dense,
)

__all__ = ["QueryPlanner"]

#: Relative slack applied to every pruning cutoff so a bound computed a
#: few ulps above its true value can never discard a genuine candidate.
_CUTOFF_SLACK = 1.0 + 1e-12

#: Object-envelope tree parameters of the dual-tree candidate
#: generator; the query-block tree shares the fanout.
_DUAL_LEAF_SIZE = 16
_DUAL_FANOUT = 8

#: Rows per query-block leaf.  Survivors do not depend on it (the dual
#: pass emits exactly the flat bound pass's survivors); small blocks
#: keep each block's bounds tight, so fewer (query row, object leaf)
#: pairs reach the leaf refinement.
_QUERY_LEAF_SIZE = 4

#: Peak float64 working-set bytes per (query, object) pair in an
#: exact-tier tile (the dmin/dmax or expectation matrices and the
#: kernels' temporaries): 8 simultaneous arrays.
_BYTES_PER_PAIR = 64

#: Per-pair bytes of the pruned tier: no bound temporaries
#: materialize per row (the traversal, whose query leaves hold
#: ``_QUERY_LEAF_SIZE`` rows, budgets its own refinement chunks), so a
#: surviving pair costs its CSR column, its row id and its evaluated
#: value.  Sizes the admission gate's single-row worst case and the
#: engine's deadline chunks.
_BYTES_PER_PAIR_DUAL = 24

_TIERS = ("exact", "pruned", "approx")


class QueryPlanner:
    """Three-tier (exact / pruned / approx) planner over a fixed set.

    Parameters
    ----------
    points:
        The uncertain points (any mix of models).
    columns:
        Optional precomputed :class:`ModelColumns` for ``points``
        (otherwise built on first use: the exact tier never needs it).
    tile_bytes / parallel_backend / parallel_workers:
        Per-planner overrides of :data:`repro.config.EXECUTION` (``None``
        reads the live config at call time).
    object_tree:
        Optional prebuilt
        :class:`~repro.core.dual_tree.EnvelopeObjectTree` over the same
        columns, adopted instead of building lazily.
    cache:
        Optional ``cache(key, build)`` hook returning the structure
        stored under ``key``, built with ``build()`` on first use.  The
        planner fetches everything it builds lazily through it: the
        column store ``("columns",)``, the dual tree ``("dual_tree",)``,
        the grouped evaluator's ``("eval_cache",)`` and one quantized
        envelope per ``("quant", eps, rel, criterion)``.  The
        :class:`repro.Engine` passes its generation-tagged registry
        here, so those structures are session-owned and counted; a
        private dict serves when omitted.
    """

    def __init__(
        self,
        points: Sequence,
        columns: Optional[ModelColumns] = None,
        tile_bytes: Optional[int] = None,
        parallel_backend: Optional[str] = None,
        parallel_workers: Optional[int] = None,
        object_tree: Optional[EnvelopeObjectTree] = None,
        cache: Optional[Callable[[tuple, Callable[[], object]], object]] = None,
    ):
        self.points = list(points)
        if not self.points:
            raise QueryError("QueryPlanner requires at least one point")
        if columns is not None and columns.n != len(self.points):
            raise QueryError("columns were built over a different point set")
        if object_tree is not None and object_tree.n != len(self.points):
            raise QueryError("object tree was built over a different point set")
        self.tile_bytes = tile_bytes
        self.parallel_backend = parallel_backend
        self.parallel_workers = parallel_workers
        self._columns = columns
        self._object_tree = object_tree
        self._eval_cache = None
        self._entries: Dict[tuple, object] = {}
        self._cache = cache if cache is not None else self._own_cache
        #: Cumulative dual-tree telemetry across this planner's prune
        #: passes (surfaced by :meth:`repro.Engine.stats`).
        self.dual_totals: Dict[str, float] = {
            "traversals": 0.0,
            "node_pairs_visited": 0.0,
            "node_pairs_pruned": 0.0,
            "point_node_pairs": 0.0,
            "refined_pairs": 0.0,
            "survivors": 0.0,
        }
        #: Cumulative evaluation-phase telemetry: grouped kernel passes,
        #: pairs they evaluated, and the prune / evaluate wall-time
        #: split (prune seconds cover the dual traversal passes).
        self.eval_totals: Dict[str, float] = {
            "grouped_calls": 0.0,
            "pairs": 0.0,
            "prune_seconds": 0.0,
            "eval_seconds": 0.0,
        }
        self.last_eval_stats: Optional[Dict[str, float]] = None
        self._last_prune_seconds = 0.0
        #: After an approx-tier ``expected_nn_many`` under
        #: ``EXECUTION.dtype="float32"``: per-query certified float32
        #: error bounds for the fallback rows (``None`` when the
        #: fallback ran in float64 and is exact).
        self.last_fallback_bounds: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return len(self.points)

    def _own_cache(self, key: tuple, build: Callable[[], object]) -> object:
        if key not in self._entries:
            self._entries[key] = build()
        return self._entries[key]

    @property
    def columns(self) -> ModelColumns:
        """The column store behind the pruned and approx tiers (built on
        first use)."""
        if self._columns is None:
            self._columns = self._cache(
                ("columns",), lambda: ModelColumns(self.points)
            )
        return self._columns

    # -- tiled execution -----------------------------------------------------
    def _tile_rows(self, tier: str) -> int:
        tb = self.tile_bytes if self.tile_bytes is not None else EXECUTION.tile_bytes
        # Pruned rows stage no bound matrices; exact-tier tiles stage
        # their own full extremal matrices.
        per_pair = _BYTES_PER_PAIR_DUAL if tier == "pruned" else _BYTES_PER_PAIR
        rows = max(1, int(tb) // max(len(self.points) * per_pair, 1))
        # Admission control: when a memory budget is configured, the
        # tile height is clamped so one tile's working set fits it (or
        # the request is rejected when even a single row cannot).
        return _resilience.clamp_tile_rows(
            rows, len(self.points), per_pair,
            what=f"{tier}-tier bound-pass tile",
        )

    def _run_tiles(self, m: int, fn) -> List:
        """The exact tier's ``fn(lo, hi)`` over cache-sized row tiles,
        optionally fanned out across workers; results in tile order."""
        backend = (
            self.parallel_backend
            if self.parallel_backend is not None
            else EXECUTION.parallel_backend
        )
        if backend == "process":
            # Planner tile functions close over the planner (model
            # objects, bound state) and are not picklable; a process
            # pool would die inside the workers with an opaque error.
            raise QueryError(
                "the planner's tile functions are not picklable; use "
                "parallel_backend='thread' (the process backend serves "
                "picklable workloads via repro.core.parallel.map_tiles)"
            )
        tiles = _parallel.tile_ranges(m, self._tile_rows("exact"))
        return _parallel.map_tiles(
            fn,
            tiles,
            backend=backend,
            workers=self.parallel_workers,
        )

    @staticmethod
    def _check_tier(tier: str, eps: Optional[float]) -> None:
        if tier not in _TIERS:
            raise QueryError(f"unknown planner tier {tier!r}; expected {_TIERS}")
        if tier == "approx" and eps is None:
            raise QueryError("the approx tier requires eps")

    def approx_index(self, eps: float, rel: float = 0.0, criterion: str = "expected"):
        """The lazily built (and cached)
        :class:`~repro.core.quant_index.QuantizedEnvelopeIndex` behind
        ``tier="approx"`` — one per ``(eps, rel, criterion)``."""
        from .quant_index import QuantizedEnvelopeIndex

        return self._cache(
            ("quant", float(eps), float(rel), criterion),
            lambda: QuantizedEnvelopeIndex(
                self.points,
                eps=eps,
                rel=rel,
                criterion=criterion,
                columns=self.columns,
            ),
        )

    # -- candidate generation ------------------------------------------------
    def object_tree(self) -> EnvelopeObjectTree:
        """The (lazily built) object-envelope STR tree behind the
        pruned tier — one per planner, shared across batches,
        criteria, and ``k`` (the tree depends only on the column
        store)."""
        if self._object_tree is None:
            self._object_tree = self._cache(
                ("dual_tree",),
                lambda: EnvelopeObjectTree(
                    self.columns, _DUAL_LEAF_SIZE, _DUAL_FANOUT
                ),
            )
        return self._object_tree

    def eval_cache(self) -> "_evaluators.EvalCache":
        """The (lazily built) :class:`~repro.core.evaluators.EvalCache`
        behind the grouped evaluator — one per planner, shared across
        batches, criteria, and query methods (it depends only on the
        point set and its column store)."""
        if self._eval_cache is None:
            self._eval_cache = self._cache(
                ("eval_cache",),
                lambda: _evaluators.EvalCache(self.points, self.columns),
            )
        return self._eval_cache

    @staticmethod
    def _use_float32() -> bool:
        dtype = EXECUTION.dtype
        if dtype not in ("float64", "float32"):
            raise QueryError(
                f"unknown execution dtype {dtype!r}; expected 'float64' or "
                "'float32'"
            )
        return dtype == "float32"

    def _begin_answer(self) -> None:
        """Clear the last-call telemetry at the start of an answer call,
        so a call that evaluates nothing (an approx query without
        fallback rows, the exact tier) never reports an earlier call's
        ``last_eval_stats``."""
        self.last_eval_stats = None
        self._last_prune_seconds = 0.0

    def _note_eval(self, pairs: int, seconds: float) -> None:
        self.eval_totals["grouped_calls"] += 1.0
        self.eval_totals["pairs"] += float(pairs)
        self.eval_totals["eval_seconds"] += float(seconds)
        self.last_eval_stats = {
            "pairs": float(pairs),
            "eval_seconds": float(seconds),
            "prune_seconds": float(self._last_prune_seconds),
        }

    def _dual_csr(
        self, qs, k: int, criterion: str, record: bool = True
    ) -> DualTreeCandidates:
        """One dual-tree prune pass over the whole batch (the traversal
        is output-sensitive, so it is never row-tiled; threads fan out
        over query subtrees instead).

        ``record=False`` leaves the cumulative totals and the last-call
        fields untouched (the :meth:`prune_stats` re-run)."""
        Q = kernels.as_query_array(qs)
        n = len(self.points)
        k = min(max(int(k), 1), n)
        if criterion not in ("support", "expected"):
            raise QueryError(f"unknown pruning criterion {criterion!r}")
        # Admission gate: the traversal is never row-tiled, so the clamp
        # result is unused — the call rejects requests whose single-row
        # worst case (every object surviving) already exceeds the
        # configured memory budget.
        _resilience.clamp_tile_rows(
            Q.shape[0] if Q.shape[0] else 1,
            n,
            _BYTES_PER_PAIR_DUAL,
            what="dual-tree refinement working set",
        )
        backend = (
            self.parallel_backend
            if self.parallel_backend is not None
            else EXECUTION.parallel_backend
        )
        t0 = time.perf_counter()
        res = dual_tree_candidates(
            Q,
            self.columns,
            object_tree=self.object_tree(),
            k=k,
            criterion=criterion,
            leaf_size=_QUERY_LEAF_SIZE,
            fanout=_DUAL_FANOUT,
            slack=_CUTOFF_SLACK,
            backend=backend,
            workers=self.parallel_workers,
            tile_bytes=self.tile_bytes,
        )
        if not record:
            return res
        self._last_prune_seconds = time.perf_counter() - t0
        self.eval_totals["prune_seconds"] += self._last_prune_seconds
        self.dual_totals["traversals"] += 1.0
        for key in (
            "node_pairs_visited",
            "node_pairs_pruned",
            "point_node_pairs",
            "refined_pairs",
            "survivors",
        ):
            self.dual_totals[key] += res.stats[key]
        return res

    def candidate_mask(
        self, qs, k: int = 1, criterion: str = "support"
    ) -> np.ndarray:
        """Boolean ``(m, n)`` mask of objects surviving the prune.

        Object ``i`` survives query ``q`` when its lower bound does not
        exceed the ``k``-th smallest upper bound over the set (``k = 1``
        is the nearest-neighbor test ``dmin <= min dmax``); ``criterion``
        selects the support (``dmin``/``dmax``) or expected-distance
        bracket.  Every query keeps at least ``k`` candidates.

        The dual generator is output-sensitive (O(survivors) work and
        memory) and densifies its CSR only because the mask is the
        requested product here — prefer :meth:`candidate_csr` when a
        sparse layout will do.
        """
        Q = kernels.as_query_array(qs)
        n = len(self.points)
        _resilience.require_bytes(
            Q.shape[0] * n,
            f"candidate mask output (m={Q.shape[0]}, n={n})",
        )
        return self._dual_csr(Q, k, criterion).mask(n)

    def candidate_csr(
        self, qs, k: int = 1, criterion: str = "support"
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The prune survivors in CSR form: ``(indptr, indices)`` with
        ``indices[indptr[r]:indptr[r+1]]`` query ``r``'s surviving
        columns in ascending order.

        Native output of the dual generator (no ``(m, n)`` boolean is
        ever materialized).  The pruned answer paths and the
        Monte-Carlo candidate rounds consume this layout directly.
        """
        res = self._dual_csr(qs, k, criterion)
        return res.indptr, res.indices

    # -- survivor evaluation -------------------------------------------------
    def _expected_block(self, Q: np.ndarray) -> np.ndarray:
        """The exact tier's ``(rows, n)`` expectation matrix of one tile:
        one batched call per object."""
        E = np.empty((Q.shape[0], len(self.points)))
        for i, p in enumerate(self.points):
            E[:, i] = p.expected_distance_many(Q)
        return E

    def _support_matrices(self, Q: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The exact tier's ``(rows, n)`` dmin/dmax matrices of one tile."""
        n = len(self.points)
        dmins = np.empty((Q.shape[0], n))
        dmaxs = np.empty((Q.shape[0], n))
        for i, p in enumerate(self.points):
            dmins[:, i] = p.dmin_many(Q)
            dmaxs[:, i] = p.dmax_many(Q)
        return dmins, dmaxs

    def _expected_values(
        self, Q: np.ndarray, indptr: np.ndarray, cols: np.ndarray
    ) -> np.ndarray:
        """Expected distances of the CSR survivor pairs, in CSR order."""
        rows = kernels.csr_rows(indptr)
        t0 = time.perf_counter()
        values, _ = _evaluators.expected_distance_pairs(
            self.eval_cache(), Q, rows, cols
        )
        self._note_eval(cols.shape[0], time.perf_counter() - t0)
        return values

    def _support_values(
        self, Q: np.ndarray, indptr: np.ndarray, cols: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(dmin, dmax)`` of the CSR survivor pairs, in CSR order."""
        rows = kernels.csr_rows(indptr)
        t0 = time.perf_counter()
        dmin, dmax = _evaluators.support_bounds_pairs(
            self.eval_cache(), Q, rows, cols
        )
        self._note_eval(cols.shape[0], time.perf_counter() - t0)
        return dmin, dmax

    # -- dispatch ------------------------------------------------------------
    @staticmethod
    def _check_fallback_flag(return_fallback: bool, tier: str) -> None:
        if return_fallback and tier != "approx":
            raise QueryError("return_fallback requires tier='approx'")

    def nonzero_nn_many(
        self,
        qs,
        tier: str = "pruned",
        eps: Optional[float] = None,
        rel: float = 0.0,
        return_fallback: bool = False,
    ) -> Union[
        List[FrozenSet[int]], Tuple[List[FrozenSet[int]], np.ndarray]
    ]:
        """``NN!=0(q)`` (Lemma 2.1) per query row.

        ``exact`` and ``pruned`` are identical to
        :meth:`repro.UncertainSet.nonzero_nn_many`; ``approx`` returns
        the quantized index's ε-relaxed sets (exact on settled cells)
        with its fallback rows resolved by the pruned tier —
        ``return_fallback=True`` (approx only) additionally returns the
        mask of rows that needed that exact resolution, so session
        callers can surface per-row certificates without re-running the
        point location.
        """
        self._check_tier(tier, eps)
        self._check_fallback_flag(return_fallback, tier)
        self._begin_answer()
        Q = kernels.as_query_array(qs)
        if tier == "approx":
            ans = self.approx_index(eps, rel, "support").nonzero_nn_many(Q)
            out = list(ans.sets)
            rows = np.flatnonzero(ans.fallback)
            if rows.size:
                resolved = self.nonzero_nn_many(Q[rows], tier="pruned")
                for r, s in zip(rows, resolved):
                    out[r] = s
            if return_fallback:
                return out, ans.fallback
            return out
        if tier == "pruned":
            indptr, cols = self.candidate_csr(Q)
            return nonzero_csr(indptr, cols, *self._support_values(Q, indptr, cols))
        blocks = self._run_tiles(
            Q.shape[0],
            lambda lo, hi: nonzero_from_matrices(*self._support_matrices(Q[lo:hi])),
        )
        return [s for block in blocks for s in block]

    def nonzero_report_many(self, qs, tier: str = "pruned") -> dict:
        """The shard-mergeable ``NN!=0`` report (see
        :func:`repro.core.nonzero.support_report`): per-row two smallest
        ``dmax`` values (with the argmin's local index) plus the local
        membership CSR with each member's ``dmin``.

        Runs the same prune, evaluation and reduction as
        :meth:`nonzero_nn_many`, so the floats in the report are the
        exact values the local sets were decided by — the cluster
        supervisor merges reports from contiguous shards into the
        global sets bit-identically.
        """
        if tier not in ("exact", "pruned"):
            raise QueryError(
                f"nonzero_report_many supports exact/pruned, got {tier!r}")
        self._check_tier(tier, None)
        self._begin_answer()
        Q = kernels.as_query_array(qs)
        if tier == "pruned":
            indptr, cols = self.candidate_csr(Q)
            return support_report_csr(
                indptr, cols, *self._support_values(Q, indptr, cols)
            )
        blocks = self._run_tiles(
            Q.shape[0],
            lambda lo, hi: support_report(*self._support_matrices(Q[lo:hi])),
        )
        if len(blocks) == 1:
            return blocks[0]
        indptr = blocks[0]["indptr"]
        for b in blocks[1:]:
            indptr = np.concatenate([indptr, indptr[-1] + b["indptr"][1:]])
        return {
            "best": np.concatenate([b["best"] for b in blocks]),
            "best_idx": np.concatenate([b["best_idx"] for b in blocks]),
            "second": np.concatenate([b["second"] for b in blocks]),
            "indptr": indptr,
            "members": np.concatenate([b["members"] for b in blocks]),
            "member_dmins": np.concatenate(
                [b["member_dmins"] for b in blocks]
            ),
        }

    def expected_nn_many(
        self,
        qs,
        tier: str = "pruned",
        eps: Optional[float] = None,
        rel: float = 0.0,
        return_fallback: bool = False,
    ) -> Union[
        Tuple[np.ndarray, np.ndarray],
        Tuple[np.ndarray, np.ndarray, np.ndarray],
    ]:
        """Expected-distance NN winners: ``(indices, values)``.

        ``exact`` and ``pruned`` return identical winners and values
        (the full ``expected_distance_matrix`` argmin); ``approx``
        returns ε-certified winners/values from the quantized envelope
        (fallback rows resolved by the pruned tier;
        ``return_fallback=True`` appends the resolved-row mask).
        """
        self._check_tier(tier, eps)
        self._check_fallback_flag(return_fallback, tier)
        self._begin_answer()
        Q = kernels.as_query_array(qs)
        if tier == "approx":
            self.last_fallback_bounds = None
            # Validate the execution dtype up front so a bad config
            # fails loudly even when no row needs the fallback.
            use_f32 = self._use_float32()
            ans = self.approx_index(eps, rel, "expected").expected_nn_many(Q)
            winners = ans.winners.copy()
            values = ans.values.copy()
            rows = np.flatnonzero(ans.fallback)
            if rows.size:
                if use_f32:
                    # Certified float32 mode: fallback rows resolve
                    # through the grouped kernels in single precision;
                    # the per-row certificates land in
                    # ``last_fallback_bounds`` for the session layer to
                    # fold into the tier's eps budget.
                    wi, vv, bounds = self._expected_nn_pairs_f32(Q[rows])
                    self.last_fallback_bounds = bounds
                else:
                    wi, vv = self.expected_nn_many(Q[rows], tier="pruned")
                winners[rows] = wi
                values[rows] = vv
            if return_fallback:
                return winners, values, ans.fallback
            return winners, values

        if tier == "pruned":
            # The CSR min reduction keeps the lowest column on ties,
            # exactly as the exact tier's dense argmin does.
            indptr, cols = self.candidate_csr(Q, criterion="expected")
            return min_reduce_csr(
                indptr, cols, self._expected_values(Q, indptr, cols)
            )

        def run(lo: int, hi: int) -> Tuple[np.ndarray, np.ndarray]:
            E = self._expected_block(Q[lo:hi])
            arg = E.argmin(axis=1) if E.shape[0] else np.zeros(0, dtype=np.intp)
            return arg, E[np.arange(E.shape[0]), arg]

        blocks = self._run_tiles(Q.shape[0], run)
        if len(blocks) == 1:
            return blocks[0]
        return (
            np.concatenate([b[0] for b in blocks]),
            np.concatenate([b[1] for b in blocks]),
        )

    def _expected_nn_pairs_f32(
        self, Q: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Grouped expected-NN resolution in certified float32.

        Same prune pass and CSR reduction as the float64 pruned path,
        but the pair kernels run in single precision and return per-pair
        error bounds; a row's certificate is its worst surviving pair
        bound (the min reduction is 1-Lipschitz in the sup norm, so a
        row value moves by at most the largest pair perturbation — and
        the reported winner's true value is within bound + bound of the
        true minimum).
        """
        indptr, cols = self.candidate_csr(Q, k=1, criterion="expected")
        rows = kernels.csr_rows(indptr)
        t0 = time.perf_counter()
        values, pair_bounds = _evaluators.expected_distance_pairs(
            self.eval_cache(), Q, rows, cols, use_float32=True
        )
        winners, best = min_reduce_csr(indptr, cols, values)
        self._note_eval(cols.shape[0], time.perf_counter() - t0)
        bounds = max_reduce_csr(indptr, pair_bounds)
        return winners, best, bounds

    def expected_distance_matrix(
        self, qs, k: int = 1, tier: str = "pruned"
    ) -> np.ndarray:
        """``E[d(q, P_i)]`` on survivors, ``+inf`` on pruned pairs.

        The ``(m, n)`` output is the requested product here; no
        *additional* full-size temporaries are staged (the pruned tier
        scatters its survivor values, the exact tier fills it tile by
        tile).
        """
        if tier == "approx":
            raise QueryError("expected_distance_matrix has no approx tier")
        self._check_tier(tier, None)
        self._begin_answer()
        Q = kernels.as_query_array(qs)
        _resilience.require_bytes(
            Q.shape[0] * len(self.points) * 8,
            f"expected_distance_matrix output "
            f"(m={Q.shape[0]}, n={len(self.points)})",
        )
        if tier == "pruned":
            indptr, cols = self.candidate_csr(Q, k=k, criterion="expected")
            E = np.full((Q.shape[0], len(self.points)), np.inf)
            E[kernels.csr_rows(indptr), cols] = self._expected_values(Q, indptr, cols)
            return E
        blocks = self._run_tiles(
            Q.shape[0], lambda lo, hi: self._expected_block(Q[lo:hi])
        )
        return blocks[0] if len(blocks) == 1 else np.vstack(blocks)

    def expected_knn_many(
        self, qs, k: int, tier: str = "pruned"
    ) -> np.ndarray:
        """Expected-distance kNN ranking, ``(m, k)`` indices."""
        n = len(self.points)
        if not 1 <= k <= n:
            raise QueryError(f"k must lie in [1, {n}]")
        if tier == "approx":
            raise QueryError("expected_knn_many has no approx tier")
        self._check_tier(tier, None)
        return self._knn(kernels.as_query_array(qs), k, tier)[0]

    def expected_knn_report_many(
        self, qs, k: int, tier: str = "pruned"
    ) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`expected_knn_many` plus the ranked expectations:
        ``(indices, values)``, each ``(m, k)``.

        The values are the very expectations the ranking was sorted by,
        so a cross-shard merge can re-sort candidates by
        ``(value, global index)`` and reproduce the single-process
        stable ranking exactly.
        """
        n = len(self.points)
        if not 1 <= k <= n:
            raise QueryError(f"k must lie in [1, {n}]")
        if tier not in ("exact", "pruned"):
            raise QueryError(
                f"expected_knn_report_many supports exact/pruned, "
                f"got {tier!r}")
        self._check_tier(tier, None)
        return self._knn(kernels.as_query_array(qs), k, tier)

    def _knn(
        self, Q: np.ndarray, k: int, tier: str
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The stable top-``k`` of each row's expectations: over the
        pruned tier's CSR survivors, or over the exact tier's dense row
        tiles (both through the same reducer)."""
        self._begin_answer()
        if tier == "pruned":
            indptr, cols = self.candidate_csr(Q, k=k, criterion="expected")
            return topk_csr(indptr, cols, self._expected_values(Q, indptr, cols), k)
        blocks = self._run_tiles(
            Q.shape[0],
            lambda lo, hi: topk_dense(self._expected_block(Q[lo:hi]), k),
        )
        if len(blocks) == 1:
            return blocks[0]
        return (
            np.vstack([b[0] for b in blocks]),
            np.vstack([b[1] for b in blocks]),
        )

    def threshold_nn_exact_many(
        self,
        qs,
        tau: float,
        tier: str = "pruned",
        eps: Optional[float] = None,
        rel: float = 0.0,
        return_fallback: bool = False,
    ) -> Union[
        List[Dict[int, float]], Tuple[List[Dict[int, float]], np.ndarray]
    ]:
        """Exact threshold queries ([DYM+05] semantics).

        Only survivors can have ``pi_i(q) > 0`` and the realized NN is
        always a survivor, so the Eq. (2) sweep over the candidate
        subset returns the same probabilities as the full sweep.  The
        ``exact`` tier runs the scalar
        :func:`~repro.core.quantification.sweep_quantification` per row
        over every object.  The ``pruned`` tier gathers its discrete
        survivors' locations as flat CSR entries and runs
        :func:`~repro.core.quantification.sweep_quantification_csr` once
        for the whole batch; it replays the scalar sweep's float
        operations in order, with ``math.log`` / ``math.exp`` (``np.log``
        and ``np.exp`` differ from them in the last bit), so the two
        tiers agree bit for bit.  The ``approx`` tier answers certified
        rows from the quantized index (settled cells report their
        certain winner with probability exactly ``1.0``) and sweeps
        only the fallback rows: the answer *sets* equal the pruned
        tier's, and the probabilities agree up to the sweep's float
        accumulation (which can land a certain winner at ``1.0 ± a few
        ulps``).
        """
        if not 0.0 <= tau < 1.0:
            raise QueryError("tau must lie in [0, 1)")
        self._check_tier(tier, eps)
        self._check_fallback_flag(return_fallback, tier)
        self._begin_answer()
        Q = kernels.as_query_array(qs)
        if tier == "approx":
            ans = self.approx_index(eps, rel, "support").threshold_nn_many(
                Q, tau
            )
            out = list(ans.answers)
            rows = np.flatnonzero(ans.fallback)
            if rows.size:
                resolved = self.threshold_nn_exact_many(
                    Q[rows], tau, tier="pruned"
                )
                for r, d in zip(rows, resolved):
                    out[r] = d
            if return_fallback:
                return out, ans.fallback
            return out
        if tier == "exact":
            every = range(len(self.points))
            return [self._threshold_row(self.points, q, tau, every) for q in Q]
        indptr, cols = self.candidate_csr(Q, criterion="support")
        if cols.size and np.any(self.columns.tags[cols] != TAG_DISCRETE):
            # Mixed sets (including duck-typed discrete models the
            # column store tags "other") take the per-object path, which
            # preserves the historical validation / error semantics.
            return [
                self._threshold_row(
                    [self.points[i] for i in cols[indptr[r] : indptr[r + 1]]],
                    Q[r],
                    tau,
                    cols[indptr[r] : indptr[r + 1]],
                )
                for r in range(Q.shape[0])
            ]
        # All candidates are discrete-tagged: one vectorized Eq. (2)
        # sweep over their flat CSR location entries, bit-identical to
        # the per-row scalar sweep (the exact tier).
        t0 = time.perf_counter()
        lens, dist, weight = _evaluators.gather_sweep_entries(
            self.eval_cache(), Q, indptr, cols
        )
        pi = sweep_quantification_csr(indptr, lens, dist, weight)
        self._note_eval(cols.shape[0], time.perf_counter() - t0)
        return csr_dicts(indptr, cols, pi, pi > tau)

    @staticmethod
    def _threshold_row(points, q, tau: float, idx) -> Dict[int, float]:
        """One row by the scalar Eq. (2) sweep over ``points``, whose
        entry ``j`` is object ``idx[j]``."""
        pi = sweep_quantification(entries_for_query(points, q), len(points))
        return {int(idx[j]): v for j, v in enumerate(pi) if v > tau}

    # -- introspection -------------------------------------------------------
    def prune_stats(
        self, qs, criterion: str = "support", k: int = 1
    ) -> Dict[str, float]:
        """Mean/max candidate counts for a query matrix (diagnostics).

        ``criterion`` / ``k`` must match the answer path being diagnosed
        (``k`` is the expected-kNN neighbor count; 1 otherwise).  The
        result also carries this pass's traversal telemetry:
        ``node_pairs_visited`` / ``node_pairs_pruned`` (tree-node pairs
        bounded / discarded), ``point_node_pairs`` and ``refined_pairs``
        (leaf-stage bound evaluations), and ``survivors`` (total
        surviving pairs).  The pass is a diagnostic re-run: it adds
        nothing to :attr:`dual_totals` or :attr:`eval_totals` and leaves
        the last-call fields to the answer call it describes.
        """
        res = self._dual_csr(qs, k, criterion, record=False)
        counts = res.counts()
        n = float(len(self.points))
        out = {
            "n": n,
            "queries": float(res.m),
            "mean_candidates": float(counts.mean()) if counts.size else 0.0,
            "max_candidates": float(counts.max()) if counts.size else 0.0,
            "mean_fraction": float(counts.mean() / n) if counts.size else 0.0,
        }
        out.update(res.stats)
        return out
