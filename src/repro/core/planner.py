"""The three-tier query planner: exact / pruned / approx.

Every exact structure in this library admits the same pruning argument:
an object ``P_i`` cannot be the (probable / expected / nonzero) nearest
neighbor of ``q`` when ``dmin_i(q) > min_j dmax_j(q)``.  The planner
evaluates that test vectorized over the whole query matrix, on the
envelope brackets of :class:`repro.uncertain.ModelColumns` (``lb <=
dmin``, ``dmax <= ub``, so pruning on ``lb > min_j ub_j`` is safe).
The answers equal the unpruned ones: the winner always survives, and
every pruned object lies strictly beyond the per-query cutoff, so it
can neither win nor tie any minimum (for Lemma 2.1, the minimum and the
decisive second minimum of the ``dmax`` row are attained at candidates).

Every answer method prunes, evaluates the survivors and reduces each
row.  What differs per method is one row of :data:`PASSES`: the prune
criterion and ``k``, the pair kernel, the CSR reducer of
:mod:`repro.core.reducers` and, where there is one, the quantized-index
call.  :meth:`QueryPlanner._answer` runs any row on any tier:

``"pruned"`` (default)
    The dual-tree traversal of :mod:`repro.core.dual_tree` emits the
    survivors in CSR form (equal to the flat ``(rows, n)`` bound pass's
    bit for bit, with bound work that follows the surviving frontier),
    the tag-grouped kernels of :mod:`repro.core.evaluators` value them
    in the same order, and the reducer answers.  Nothing of size
    ``(rows, n)`` is allocated.
``"exact"``
    No prune: each row tile, sized from ``EXECUTION.tile_bytes``, is a
    full CSR valued by each object's own ``*_many`` methods (and the
    scalar Eq. (2) sweep) and fed to the same reducer.  Tiles fan out
    under ``parallel_backend="thread"`` and join in tile order.  This
    tier is the pruned tier's oracle.
``"approx"``
    Point location in a lazily built
    :class:`repro.core.quant_index.QuantizedEnvelopeIndex` (``eps=``,
    optionally ``rel=``): certified ε-approximate answers in O(log) per
    query, its fallback rows re-answered by the pruned pass — except
    that under ``EXECUTION.dtype="float32"`` expected-NN fallback rows
    run the grouped kernels in single precision, and the call returns a
    certified bound per fallback row with its answers.  The index values
    its cell labels and its settled rows' winners through this
    planner's :meth:`QueryPlanner._pair_values` and reduces them with
    the pruned tier's reducers, so the two tiers share one evaluator.

Every tier takes its tile budget, backend and worker count from
:func:`repro.config.current_execution` at call time, and the planner
keeps no per-call state: a call's telemetry is what it adds to the
cumulative ``dual_totals`` and ``eval_totals``.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..config import current_execution
from ..errors import QueryError
from ..geometry import kernels
from .. import resilience as _resilience
from ..uncertain.columns import TAG_DISCRETE, ModelColumns
from . import evaluators as _evaluators
from . import parallel as _parallel
from .dual_tree import DualTreeCandidates, EnvelopeObjectTree, dual_tree_candidates
from .quantification import (
    entries_for_query, sweep_quantification, sweep_quantification_csr,
)
from .reducers import (
    csr_dicts, full_csr, max_reduce_csr, min_reduce_csr, nonzero_csr,
    support_report_csr, topk_csr,
)

__all__ = ["PASSES", "Pass", "QueryPlanner"]

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
#: exact-tier tile (the dmin/dmax or expectation matrices, the full
#: CSR and the reducer's temporaries): 8 simultaneous arrays.
_BYTES_PER_PAIR = 64

#: Per-pair bytes of the pruned tier: no bound temporaries
#: materialize per row (the traversal, whose query leaves hold
#: ``_QUERY_LEAF_SIZE`` rows, budgets its own refinement chunks), so a
#: surviving pair costs its CSR column, its row id and its evaluated
#: value.  Sizes the admission gate's single-row worst case and the
#: engine's deadline chunks.
_BYTES_PER_PAIR_DUAL = 24

_TIERS = ("exact", "pruned", "approx")

#: The dual-traversal counters summed into ``dual_totals``.
_DUAL_COUNTERS = ("node_pairs_visited", "node_pairs_pruned",
                  "point_node_pairs", "refined_pairs", "survivors")


@dataclasses.dataclass(frozen=True)
class Pass:
    """One answer method, as :meth:`QueryPlanner._answer` runs it.

    ``name`` is the planner entry point.  The prune keeps the objects
    whose ``criterion`` bracket (``"support"`` or ``"expected"``) can
    reach the ``k``-th smallest upper bound, ``k`` being the argument
    when ``ranked`` and 1 otherwise.  ``kernel`` names the pair values
    (``"support"``, ``"expected"`` or the Eq. (2) ``"sweep"``) that
    ``reduce(indptr, cols, values, arg, n)`` turns into answers.
    ``approx(index, Q, arg)`` returns the ``criterion`` quantized index's
    ``(answers, fallback)``; ``check(arg, m, n)`` rejects a bad call.
    """

    name: str
    criterion: str
    kernel: str
    reduce: Callable[..., object]
    ranked: bool = False
    approx: Optional[Callable[..., tuple]] = None
    check: Optional[Callable[[object, int, int], None]] = None

    def prune(self, arg=None) -> Tuple[str, int]:
        """The pruned tier's ``(criterion, k)`` for argument ``arg``."""
        return self.criterion, int(arg) if self.ranked else 1


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise QueryError(message)


def _inf_scatter(indptr, cols, values, k, n: int) -> np.ndarray:
    E = np.full((indptr.shape[0] - 1, n), np.inf)
    E[kernels.csr_rows(indptr), cols] = values
    return E


def _approx_winners(index, Q, arg):
    ans = index.expected_nn_many(Q)
    return (ans.winners, ans.values), ans.fallback


def _approx_sets(index, Q, arg):
    ans = index.nonzero_nn_many(Q)
    return ans.sets, ans.fallback


def _approx_threshold(index, Q, tau):
    ans = index.threshold_nn_many(Q, tau)
    return ans.answers, ans.fallback


#: The answer methods by planner entry point (the kNN row also serves
#: ``expected_knn_report_many``).  Every reducer breaks ties towards the
#: lowest column, as a dense argmin / stable argsort does.
PASSES: Dict[str, Pass] = {p.name: p for p in (
    Pass("nonzero_nn_many", "support", "support",
         lambda indptr, cols, v, arg, n: nonzero_csr(indptr, cols, *v),
         approx=_approx_sets),
    Pass("nonzero_report_many", "support", "support",
         lambda indptr, cols, v, arg, n: support_report_csr(indptr, cols, *v)),
    Pass("expected_nn_many", "expected", "expected",
         lambda indptr, cols, v, arg, n: min_reduce_csr(indptr, cols, v),
         approx=_approx_winners),
    Pass("expected_distance_matrix", "expected", "expected", _inf_scatter,
         ranked=True, check=lambda k, m, n: _resilience.require_bytes(
             m * n * 8, f"expected_distance_matrix output (m={m}, n={n})")),
    Pass("expected_knn_many", "expected", "expected",
         lambda indptr, cols, v, k, n: topk_csr(indptr, cols, v, k),
         ranked=True, check=lambda k, m, n: _require(
             1 <= k <= n, f"k must lie in [1, {n}]")),
    Pass("threshold_nn_exact_many", "support", "sweep",
         lambda indptr, cols, pi, tau, n: csr_dicts(indptr, cols, pi, pi > tau),
         approx=_approx_threshold, check=lambda tau, m, n: _require(
             0.0 <= tau < 1.0, "tau must lie in [0, 1)")),
)}

#: Expected-NN fallback rows under ``EXECUTION.dtype="float32"``:
#: ``((winners, values), bounds)``, a row's bound being its worst pair
#: bound (the min reduction is 1-Lipschitz in the sup norm).
_FLOAT32_NN = Pass(
    "expected_nn_many", "expected", "float32",
    lambda indptr, cols, v, arg, n: (
        min_reduce_csr(indptr, cols, v[0]), max_reduce_csr(indptr, v[1])
    ),
)


def _join(blocks: List[object]) -> object:
    """Row tiles' answers, joined in row order."""
    head = blocks[0]
    if len(blocks) == 1:
        return head
    if isinstance(head, list):
        return [row for block in blocks for row in block]
    if isinstance(head, tuple):
        return tuple(np.concatenate(parts) for parts in zip(*blocks))
    if isinstance(head, np.ndarray):
        return np.concatenate(blocks)
    # A support report: its member CSR is rebuilt from the row counts.
    joined = {k: np.concatenate([b[k] for b in blocks]) for k in head if k != "indptr"}
    counts = np.concatenate([np.diff(b["indptr"]) for b in blocks])
    joined["indptr"] = np.concatenate([head["indptr"][:1], np.cumsum(counts)])
    return joined


def _put_rows(answers, rows: np.ndarray, resolved) -> None:
    """Overwrite ``rows`` of a row list or a tuple of row arrays."""
    if isinstance(answers, tuple):
        for part, new in zip(answers, resolved):
            part[rows] = new
        return
    for r, row in zip(rows.tolist(), resolved):
        answers[r] = row


class QueryPlanner:
    """Three-tier (exact / pruned / approx) planner over a fixed set.

    Parameters
    ----------
    points:
        The uncertain points (any mix of models).
    columns:
        Optional precomputed :class:`ModelColumns` for ``points``
        (otherwise built on first use: the exact tier never needs it).
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
        cache: Optional[Callable[[tuple, Callable[[], object]], object]] = None,
    ):
        self.points = list(points)
        if not self.points:
            raise QueryError("QueryPlanner requires at least one point")
        if columns is not None and columns.n != len(self.points):
            raise QueryError("columns were built over a different point set")
        self._columns = columns
        self._object_tree = None
        self._eval_cache = None
        self._entries: Dict[tuple, object] = {}
        self._cache = cache if cache is not None else self._own_cache
        #: Cumulative dual-tree telemetry across this planner's prune
        #: passes (surfaced by :meth:`repro.Engine.stats`).
        self.dual_totals: Dict[str, float] = dict.fromkeys(
            ("traversals",) + _DUAL_COUNTERS, 0.0
        )
        #: Cumulative evaluation-phase telemetry: grouped kernel passes,
        #: pairs they evaluated, and the prune / evaluate wall-time
        #: split (prune seconds cover the dual traversal passes).
        self.eval_totals: Dict[str, float] = dict.fromkeys(
            ("grouped_calls", "pairs", "prune_seconds", "eval_seconds"), 0.0
        )

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
        # Pruned rows stage no bound matrices; exact-tier tiles stage
        # their own full extremal matrices.
        per_pair = _BYTES_PER_PAIR_DUAL if tier == "pruned" else _BYTES_PER_PAIR
        budget = int(current_execution().tile_bytes)
        rows = max(1, budget // max(len(self.points) * per_pair, 1))
        # Admission control: when a memory budget is configured, the
        # tile height is clamped so one tile's working set fits it (or
        # the request is rejected when even a single row cannot).
        return _resilience.clamp_tile_rows(
            rows, len(self.points), per_pair, what=f"{tier}-tier bound-pass tile"
        )

    def _run_tiles(self, m: int, fn) -> List:
        """The exact tier's ``fn(lo, hi)`` over cache-sized row tiles,
        optionally fanned out across workers; results in tile order."""
        tiles = _parallel.tile_ranges(m, self._tile_rows("exact"))
        return _parallel.map_tiles(fn, tiles)

    @staticmethod
    def _check_tier(tier: str, eps: Optional[float], return_fallback: bool) -> None:
        if tier not in _TIERS:
            raise QueryError(f"unknown planner tier {tier!r}; expected {_TIERS}")
        if tier == "approx" and eps is None:
            raise QueryError("the approx tier requires eps")
        if return_fallback and tier != "approx":
            raise QueryError("return_fallback requires tier='approx'")

    def approx_index(self, eps: float, rel: float = 0.0, criterion: str = "expected"):
        """The lazily built (and cached)
        :class:`~repro.core.quant_index.QuantizedEnvelopeIndex` behind
        ``tier="approx"`` — one per ``(eps, rel, criterion)``."""
        from .quant_index import QuantizedEnvelopeIndex

        return self._cache(
            ("quant", float(eps), float(rel), criterion),
            lambda: QuantizedEnvelopeIndex(
                self.points, eps=eps, rel=rel, criterion=criterion, planner=self,
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

    def _dual_csr(self, qs, k: int, criterion: str) -> DualTreeCandidates:
        """One dual-tree prune pass over the whole batch (the traversal
        is output-sensitive, so it is never row-tiled; threads fan out
        over query subtrees instead), added to :attr:`dual_totals`."""
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
            max(Q.shape[0], 1), n, _BYTES_PER_PAIR_DUAL,
            what="dual-tree refinement working set",
        )
        t0 = time.perf_counter()
        res = dual_tree_candidates(
            Q, self.columns, object_tree=self.object_tree(), k=k,
            criterion=criterion, leaf_size=_QUERY_LEAF_SIZE,
            fanout=_DUAL_FANOUT, slack=_CUTOFF_SLACK,
        )
        self.eval_totals["prune_seconds"] += time.perf_counter() - t0
        self.dual_totals["traversals"] += 1.0
        for key in _DUAL_COUNTERS:
            self.dual_totals[key] += res.stats[key]
        return res

    def candidate_mask(self, qs, k: int = 1, criterion: str = "support") -> np.ndarray:
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
            Q.shape[0] * n, f"candidate mask output (m={Q.shape[0]}, n={n})"
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

    # -- the answer loop -----------------------------------------------------
    def _answer(self, qs, tier: str, p: Pass, arg=None, eps=None, rel=0.0,
                return_fallback: bool = False):
        """Pass ``p``'s answers for every query row on ``tier``: the pruned
        pass, the exact row tiles reduced the same way, or the quantized
        index with its fallback rows re-answered by the pruned pass
        (``return_fallback=True`` appends the fallback mask, and for
        expected NN the fallback rows' float32 bounds, ``None`` when
        they ran in float64)."""
        if tier == "approx" and p.approx is None:
            raise QueryError(f"{p.name} has no approx tier")
        self._check_tier(tier, eps, return_fallback)
        # Checked on every tier: an approx batch with no fallback rows
        # never reaches a tile or a traversal.
        _parallel.check_backend(None)
        Q = kernels.as_query_array(qs)
        if p.check is not None:
            p.check(arg, Q.shape[0], len(self.points))
        if tier == "pruned":
            return self._pruned(Q, p, arg)
        if tier == "exact":
            tiles = self._run_tiles(
                Q.shape[0], lambda lo, hi: self._exact(Q[lo:hi], p, arg)
            )
            return _join(tiles)
        # The dtype shapes expected-NN fallback rows only; a bad value
        # fails loudly even when no row needs the fallback.
        dtype = current_execution().dtype if p.kernel == "expected" else "float64"
        _require(dtype in ("float64", "float32"), f"unknown execution dtype "
                 f"{dtype!r}; expected 'float64' or 'float32'")
        float32 = dtype == "float32"
        answers, fallback = p.approx(self.approx_index(eps, rel, p.criterion), Q, arg)
        rows = np.flatnonzero(fallback)
        bounds = None
        if rows.size:
            resolved = self._pruned(Q[rows], _FLOAT32_NN if float32 else p, arg)
            if float32:
                resolved, bounds = resolved
            _put_rows(answers, rows, resolved)
        if not return_fallback:
            return answers
        if isinstance(answers, tuple):
            return (*answers, fallback, bounds)
        return answers, fallback

    def _pruned(self, Q: np.ndarray, p: Pass, arg):
        """Pass ``p`` over the prune survivors: one dual-tree pass, the
        survivors' grouped values in CSR order, one reducer call."""
        criterion, k = p.prune(arg)
        indptr, cols = self.candidate_csr(Q, k, criterion)
        values = self._pair_values(p.kernel, Q, indptr, cols)
        return p.reduce(indptr, cols, values, arg, len(self.points))

    def _pair_values(self, kernel: str, Q: np.ndarray, indptr, cols):
        """The CSR survivor pairs' ``kernel`` values, in CSR order, by
        the tag-grouped kernels."""
        if kernel == "sweep" and np.any(self.columns.tags[cols] != TAG_DISCRETE):
            # Mixed sets (and duck-typed discrete models, tagged "other")
            # keep the scalar sweep's per-object validation and errors.
            return self._scalar_sweep(Q, indptr, cols)
        rows = kernels.csr_rows(indptr)
        t0 = time.perf_counter()
        cache = self.eval_cache()
        if kernel == "support":
            values = _evaluators.support_bounds_pairs(cache, Q, rows, cols)
        elif kernel == "sweep":
            # Replays the scalar sweep's float operations in order, so
            # it equals the exact tier's per-row sweep bit for bit.
            entries = _evaluators.gather_sweep_entries(cache, Q, indptr, cols)
            values = sweep_quantification_csr(indptr, *entries)
        else:
            values = _evaluators.expected_distance_pairs(
                cache, Q, rows, cols, use_float32=kernel == "float32"
            )
            if kernel == "expected":
                values = values[0]
        self.eval_totals["grouped_calls"] += 1.0
        self.eval_totals["pairs"] += float(cols.shape[0])
        self.eval_totals["eval_seconds"] += time.perf_counter() - t0
        return values

    def _exact(self, Q: np.ndarray, p: Pass, arg):
        """Pass ``p`` over one row tile's full CSR, valued by each
        object's own batched methods (or the scalar Eq. (2) sweep)."""
        n = len(self.points)
        indptr, cols = full_csr(Q.shape[0], n)

        def flat(name: str) -> np.ndarray:
            return np.column_stack([getattr(o, name)(Q) for o in self.points]).ravel()

        if p.kernel == "sweep":
            values = self._scalar_sweep(Q, indptr, cols)
        elif p.kernel == "expected":
            values = flat("expected_distance_many")
        else:
            values = flat("dmin_many"), flat("dmax_many")
        return p.reduce(indptr, cols, values, arg, n)

    def _scalar_sweep(self, Q: np.ndarray, indptr, cols) -> np.ndarray:
        """Eq. (2) by the scalar sweep, one row at a time, over each
        row's CSR columns."""
        pi = np.empty(cols.shape[0])
        for r in range(Q.shape[0]):
            lo, hi = indptr[r], indptr[r + 1]
            points = [self.points[i] for i in cols[lo:hi]]
            entries = entries_for_query(points, Q[r])
            pi[lo:hi] = sweep_quantification(entries, len(points))
        return pi

    # -- answer methods ------------------------------------------------------
    def nonzero_nn_many(
        self, qs, tier: str = "pruned", eps: Optional[float] = None,
        rel: float = 0.0, return_fallback: bool = False,
    ) -> Union[List[FrozenSet[int]], Tuple[List[FrozenSet[int]], np.ndarray]]:
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
        return self._answer(
            qs, tier, PASSES["nonzero_nn_many"], None, eps, rel, return_fallback
        )

    def nonzero_report_many(self, qs, tier: str = "pruned") -> dict:
        """The shard-mergeable ``NN!=0`` report (see
        :func:`repro.core.nonzero.support_report`): per-row two smallest
        ``dmax`` values (with the argmin's local index) plus the local
        membership CSR with each member's ``dmin``.

        Runs the same prune, evaluation and reduction as
        :meth:`nonzero_nn_many`, so the floats in the report are the
        exact values the local sets were decided by — the cluster
        supervisor merges reports from contiguous shards into the
        global sets bit-identically.  Exact and pruned tiers only.
        """
        return self._answer(qs, tier, PASSES["nonzero_report_many"])

    def expected_nn_many(
        self, qs, tier: str = "pruned", eps: Optional[float] = None,
        rel: float = 0.0, return_fallback: bool = False,
    ) -> Tuple[Optional[np.ndarray], ...]:
        """Expected-distance NN winners: ``(indices, values)``.

        ``exact`` and ``pruned`` return identical winners and values
        (the full ``expected_distance_matrix`` argmin); ``approx``
        returns ε-certified winners/values from the quantized envelope
        (fallback rows resolved by the pruned tier, or in certified
        float32 under ``EXECUTION.dtype="float32"``).
        ``return_fallback=True`` returns ``(indices, values, fallback,
        bounds)``: the resolved-row mask and the fallback rows' certified
        float32 error bounds, in row order (``None`` when the fallback
        ran in float64 and is exact).
        """
        return self._answer(
            qs, tier, PASSES["expected_nn_many"], None, eps, rel, return_fallback
        )

    def expected_distance_matrix(self, qs, k: int = 1,
                                 tier: str = "pruned") -> np.ndarray:
        """``E[d(q, P_i)]`` on survivors, ``+inf`` on pruned pairs.

        The ``(m, n)`` output is the requested product here; no
        *additional* full-size temporaries are staged (the pruned tier
        scatters its survivor values, the exact tier fills it tile by
        tile).  Exact and pruned tiers only.
        """
        return self._answer(qs, tier, PASSES["expected_distance_matrix"], k)

    def expected_knn_many(self, qs, k: int, tier: str = "pruned") -> np.ndarray:
        """Expected-distance kNN ranking, ``(m, k)`` indices."""
        return self._answer(qs, tier, PASSES["expected_knn_many"], k)[0]

    def expected_knn_report_many(self, qs, k: int, tier: str = "pruned"
                                 ) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`expected_knn_many` plus the ranked expectations:
        ``(indices, values)``, each ``(m, k)``.

        The values are the very expectations the ranking was sorted by,
        so a cross-shard merge can re-sort candidates by
        ``(value, global index)`` and reproduce the single-process
        stable ranking exactly.
        """
        return self._answer(qs, tier, PASSES["expected_knn_many"], k)

    def threshold_nn_exact_many(
        self, qs, tau: float, tier: str = "pruned", eps: Optional[float] = None,
        rel: float = 0.0, return_fallback: bool = False,
    ) -> Union[List[Dict[int, float]], Tuple[List[Dict[int, float]], np.ndarray]]:
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
        return self._answer(
            qs, tier, PASSES["threshold_nn_exact_many"], tau, eps, rel,
            return_fallback,
        )
