"""The Monte-Carlo PNN structure (Section 4.2).

Preprocessing draws ``s`` instantiations ``R_1..R_s`` of the uncertain
set and indexes each for nearest-site location (the paper builds
``Vor(R_j)`` + point location; a kd-tree or the Delaunay-walk locator of
:mod:`repro.geometry.voronoi` are interchangeable here).  A query
counts, over the rounds, how often each point is the instantiated
nearest neighbor: ``pihat_i(q) = c_i / s``.

Theorems 4.3 (discrete) and 4.5 (continuous) choose

    ``s = (1 / (2 eps^2)) * ln(2 n |Q| / delta)``

to make ``|pihat_i(q) - pi_i(q)| <= eps`` hold for *all* queries
simultaneously with probability ``1 - delta``, where ``|Q| = O(N^4)``
counts the cells of ``VPr``.  For a *fixed* query the Chernoff bound
needs only ``s = (1 / (2 eps^2)) * ln(2 n / delta)``; both formulas are
provided.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..config import SeedLike, current_execution, default_rng
from ..errors import QueryError
from .. import resilience as _resilience
from ..geometry import kernels
from ..geometry.voronoi import VoronoiLocator
from ..index.kdtree import KdTree
from .nonzero import UncertainSet
from .reducers import csr_dicts


#: Float64 bytes per (round, candidate pair) of a pruned round block:
#: the block's ~6 simultaneous ``(rounds, nnz)`` temporaries.
_ROUND_PAIR_BYTES = 8 * 6

#: Bytes per candidate pair held across a pruned query: its win
#: counter plus the active rows' CSR arrays (positions, columns, row
#: ids and both query coordinates).
_HELD_PAIR_BYTES = 8 * 6

#: Bytes per (row, object) pair of an unpruned row tile: its win
#: counter and one round's squared-distance temporaries.
_DENSE_PAIR_BYTES = 8 * 5


def _round_block(nnz: int, held: int = 0) -> int:
    """Monte-Carlo rounds per vectorized block over ``nnz`` candidate
    pairs: as many rounds as keep the block's temporaries inside the
    ``EXECUTION.tile_bytes`` working-set budget and, under a memory
    budget, inside what the budget leaves beside the ``held`` bytes (the
    request is refused when not even one round fits)."""
    per_round = max(int(nnz) * _ROUND_PAIR_BYTES, 1)
    rounds = max(1, int(current_execution().tile_bytes) // per_round)
    _resilience.require_bytes(
        held + per_round,
        f"Monte-Carlo counters and one round over {nnz} candidate pairs",
    )
    budget = _resilience.admission.budget_bytes()
    if budget is not None:
        rounds = max(1, min(rounds, (budget - held) // per_round))
    return rounds


def _csr_round_positions(sx, sy, qx, qy, rows, starts, cols, j0, j1):
    """CSR positions of the winners of rounds ``j0..j1``, shape
    ``(j1 - j0, rows in the CSR)``.

    Every round gathers only the candidate pairs' coordinates from the
    sample views ``sx`` / ``sy`` (``(s, n)``, strided views of the
    sample block: no copy) and reduces each row's segment twice — its
    smallest squared distance, then the lowest position attaining it —
    so ties resolve to the lowest column, as a dense argmin does.
    Blocking rounds cannot change a winner: the squared distances are
    elementwise and min is exact.
    """
    nnz = cols.shape[0]
    dx = qx[None, :] - sx[j0:j1][:, cols]
    dy = qy[None, :] - sy[j0:j1][:, cols]
    d2 = dx * dx + dy * dy
    minv = np.minimum.reduceat(d2, starts, axis=1)
    pos = np.where(d2 == minv[:, rows], np.arange(nnz, dtype=np.intp), nnz)
    return np.minimum.reduceat(pos, starts, axis=1)


def rounds_for_fixed_query(epsilon: float, delta: float, n: int) -> int:
    """Chernoff-bound rounds for a per-query guarantee (Eq. (6) + union
    bound over the n points only)."""
    _check(epsilon, delta)
    return max(1, math.ceil(math.log(2.0 * n / delta) / (2.0 * epsilon * epsilon)))


def rounds_for_all_queries(
    epsilon: float, delta: float, n: int, k: int
) -> int:
    """Theorem 4.3 rounds: union bound over one representative per cell
    of ``VPr`` (``|Q| = O((nk)^4)``, Lemma 4.1)."""
    _check(epsilon, delta)
    q_cells = float(n * k) ** 4 + 1.0
    return max(
        1,
        math.ceil(
            math.log(2.0 * n * q_cells / delta) / (2.0 * epsilon * epsilon)
        ),
    )


def _check(epsilon: float, delta: float) -> None:
    if not (0.0 < epsilon < 1.0) or not (0.0 < delta < 1.0):
        raise QueryError("epsilon and delta must lie in (0, 1)")


class MonteCarloPNN:
    """The s-round instantiation structure of Theorems 4.3 / 4.5.

    Works uniformly for discrete and continuous distributions — the
    continuous case *is* the discrete algorithm run on continuous draws
    (Section 4.2's reduction shows the guarantee carries over).

    Parameters
    ----------
    points:
        Uncertain points (any mix of models).
    s:
        Number of rounds; if omitted it is derived from ``epsilon`` /
        ``delta`` with the per-query bound.
    locator:
        ``"kdtree"`` (default) or ``"voronoi"`` — the per-round
        nearest-site structure.  Both give identical answers; the
        Voronoi locator mirrors the paper's ``Vor(R_j)`` literally.
    rng:
        Optional seed-like value (int / ``numpy.random.Generator`` /
        ``random.Random``) for the new vectorized instantiation path:
        all ``s`` rounds are drawn as one ``(s, n, 2)`` array through
        the models' ``sample_many``.  When omitted, the legacy
        ``random.Random(seed)`` scalar stream is used, preserving the
        exact instantiations of earlier releases.
    samples:
        Optional precomputed ``(s, n, 2)`` instantiation block (as drawn
        by :meth:`repro.UncertainSet.instantiate_many`) — the
        :class:`repro.Engine` registry keys these blocks by
        ``(s, seed)`` and shares one block across the PNN and kNN
        estimators instead of redrawing per structure.  Must match ``s``
        and ``n``; ``rng`` / ``seed`` are ignored when given.
    uset:
        Optional :class:`UncertainSet` over the same points, adopted
        instead of building a fresh one.

    The per-round locators are built lazily on the first scalar
    :meth:`query`; the batch :meth:`query_many` works directly off the
    ``(s, n, 2)`` instantiation array and never needs them.
    """

    def __init__(
        self,
        points: Sequence,
        s: Optional[int] = None,
        epsilon: Optional[float] = None,
        delta: float = 0.05,
        seed: int = 0,
        locator: str = "kdtree",
        rng: Optional[SeedLike] = None,
        samples: Optional[np.ndarray] = None,
        uset: Optional[UncertainSet] = None,
    ):
        self.uset = uset if uset is not None else UncertainSet(points)
        n = len(self.uset)
        if s is None and samples is not None:
            s = samples.shape[0]
        if s is None:
            if epsilon is None:
                raise QueryError("provide either s or epsilon")
            s = rounds_for_fixed_query(epsilon, delta, n)
        self.s = int(s)
        self.epsilon = epsilon
        self.delta = delta
        if locator not in ("kdtree", "voronoi"):
            raise QueryError(f"unknown locator {locator!r}")
        if samples is not None:
            if samples.shape != (self.s, n, 2):
                raise QueryError(
                    f"samples must have shape {(self.s, n, 2)}, "
                    f"got {samples.shape}"
                )
            self._samples = samples
        elif rng is not None:
            self._samples = self.uset.instantiate_many(default_rng(rng), self.s)
        else:
            legacy = random.Random(seed)
            self._samples = np.asarray(
                [self.uset.instantiate(legacy) for _ in range(self.s)],
                dtype=np.float64,
            )
        self._locators: Optional[List] = None
        self._locator_kind = locator

    @property
    def samples(self) -> np.ndarray:
        """The stored instantiations ``R_1..R_s`` as an ``(s, n, 2)`` array."""
        return self._samples

    def _built_locators(self) -> List:
        if self._locators is None:
            self._locators = [
                KdTree(sample)
                if self._locator_kind == "kdtree"
                else VoronoiLocator([tuple(p) for p in sample])
                for sample in self._samples
            ]
        return self._locators

    # -- queries -------------------------------------------------------------
    def query(self, q) -> Dict[int, float]:
        """``{ i : pihat_i(q) }`` for the at most ``s`` points with a
        nonzero counter; all other estimates are implicitly 0."""
        counts: Dict[int, int] = {}
        if self._locator_kind == "kdtree":
            for tree in self._built_locators():
                i, _ = tree.nearest(q)
                counts[i] = counts.get(i, 0) + 1
        else:
            hint = None
            for loc in self._built_locators():
                i = loc.nearest(q, hint=hint)
                hint = i
                counts[i] = counts.get(i, 0) + 1
        return {i: c / self.s for i, c in counts.items()}

    def query_matrix(
        self,
        qs,
        planner=None,
        adaptive: bool = False,
        tol: Optional[float] = None,
        delta: float = 0.05,
        min_rounds: int = 16,
        check_every: int = 16,
        return_rounds: bool = False,
    ) -> np.ndarray:
        """``pihat`` estimates for an ``(m, 2)`` query matrix, ``(m, n)``.

        The counts come from the same rounds as :meth:`query_many`; this
        method densifies them only because the ``(m, n)`` matrix is its
        requested product.  Without a planner every round compares its
        instantiation against a tile of queries in one ``(rows, n)``
        squared-distance kernel and picks each winner with a vectorized
        argmin — no per-query tree walks; the row tiles keep each tile's
        counters and distances inside ``EXECUTION.tile_bytes``.

        With a :class:`repro.QueryPlanner` (built over the same points),
        each query is first reduced to its candidate set — an object
        with ``dmin(q) > min_j dmax_j(q)`` can never be the instantiated
        nearest neighbor in *any* round, so only candidate distances are
        computed (CSR layout, segment argmins), each round's winner is
        recorded by its CSR position and counted over the ``nnz``
        candidate pairs, and the estimates are identical to the
        unpruned pass over the same stored instantiations.

        ``adaptive=True`` turns on per-query empirical-Bernstein early
        stopping: rounds are consumed in blocks of ``check_every`` (in
        the stored order, so the procedure is deterministic), and after
        each block a query whose estimate-confidence half-width

            ``hw = sqrt(2 Vhat ln(3/delta) / t) + 3 ln(3/delta) / t``

        (``Vhat`` the largest empirical Bernoulli variance
        ``pihat (1 - pihat)`` over its objects, ``t`` the rounds used so
        far, at least ``min_rounds``) drops below ``tol`` stops drawing
        — easy queries far from any quantification boundary finish
        after a few rounds, hard ones use all ``s``.  Each row of the
        result is normalised by the rounds that query consumed;
        ``return_rounds=True`` additionally returns that ``(m,)`` count
        vector.  With ``adaptive=False`` (default) the exact fixed-``s``
        behavior of earlier releases is preserved bit for bit.
        """
        Q = kernels.as_query_array(qs)
        m = Q.shape[0]
        n = self._samples.shape[1]
        indptr, cols, values, rounds = self._estimates(
            Q, planner, adaptive, tol, delta, min_rounds, check_every
        )
        _resilience.require_bytes(
            m * n * 8, f"Monte-Carlo estimate matrix (m={m}, n={n})"
        )
        est = np.zeros((m, n), dtype=np.float64)
        est[kernels.csr_rows(indptr), cols] = values
        return (est, rounds) if return_rounds else est

    def query_many(
        self,
        qs,
        planner=None,
        adaptive: bool = False,
        tol: Optional[float] = None,
        delta: float = 0.05,
    ) -> List[Dict[int, float]]:
        """Batched :meth:`query`: one sparse ``{i: pihat_i}`` dict per row
        of the ``(m, 2)`` query matrix, built straight from the rows'
        nonzero win counters (no ``(m, n)`` matrix).  ``planner`` routes
        through the pruned candidate rounds (identical estimates);
        ``adaptive`` / ``tol`` turn on empirical-Bernstein early
        stopping (see :meth:`query_matrix`)."""
        Q = kernels.as_query_array(qs)
        indptr, cols, values, _ = self._estimates(
            Q, planner, adaptive, tol, delta
        )
        return csr_dicts(indptr, cols, values)

    def _estimates(
        self,
        Q: np.ndarray,
        planner,
        adaptive: bool,
        tol: Optional[float],
        delta: float,
        min_rounds: int = 16,
        check_every: int = 16,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(indptr, cols, values, rounds)``: each row's objects with a
        nonzero win count in CSR layout, their estimates ``count /
        rounds[row]`` and the rounds each row consumed."""
        n = self._samples.shape[1]
        if planner is not None and len(planner) != n:
            raise QueryError("planner was built over a different point set")
        stop = None
        if adaptive:
            if tol is None or not tol > 0.0:
                raise QueryError("adaptive stopping requires tol > 0")
            if not 0.0 < delta < 1.0:
                raise QueryError("delta must lie in (0, 1)")
            stop = (
                float(tol),
                math.log(3.0 / delta),
                max(1, min(int(min_rounds), self.s)),
                max(1, int(check_every)),
            )
        if planner is not None:
            return self._won(*self._count_wins(Q, planner, stop))
        # Unpruned rounds compare every row with all n objects; each row
        # counts its own wins, so row tiles keep the (rows, n) counters
        # and distances inside tile_bytes without changing a count.
        step = _resilience.clamp_tile_rows(
            max(1, int(current_execution().tile_bytes) // max(n * _DENSE_PAIR_BYTES, 1)),
            n,
            _DENSE_PAIR_BYTES,
            what="Monte-Carlo round tile",
        )
        parts = [
            self._won(*self._count_wins(Q[lo : lo + step], None, stop))
            for lo in range(0, max(Q.shape[0], 1), step)
        ]
        indptr = [parts[0][0]]
        for part in parts[1:]:
            indptr.append(indptr[-1][-1] + part[0][1:])
        return (
            np.concatenate(indptr),
            *(np.concatenate([part[i] for part in parts]) for i in (1, 2, 3)),
        )

    @staticmethod
    def _won(indptr, cols, counts, rounds):
        """:meth:`_count_wins` output narrowed to the pairs that won:
        ``(indptr, cols, count / rounds[row], rounds)``."""
        won = np.flatnonzero(counts)
        rows = np.searchsorted(indptr, won, side="right") - 1
        cols = won - indptr[rows] if cols is None else cols[won]
        values = counts[won] / np.maximum(rounds, 1).astype(np.float64)[rows]
        return np.searchsorted(won, indptr), cols, values, rounds

    def _count_wins(self, Q: np.ndarray, planner, stop):
        """Rounds in the stored order, win counts by candidate position.

        Returns ``(indptr, cols, counts, rounds)``: the candidate CSR
        (``cols=None`` without a planner, where every row's segment is
        all ``n`` objects in order), each candidate pair's win count and
        the rounds each row consumed.  ``stop = (tol, ln(3/delta),
        min_rounds, check_every)`` turns on the empirical-Bernstein
        stopping rule of :meth:`query_matrix`; without it every row runs
        all ``s`` rounds.
        """
        m = Q.shape[0]
        n = self._samples.shape[1]
        if planner is None:
            indptr = np.arange(m + 1, dtype=np.intp) * n
            cols = None
        else:
            indptr, cols = planner.candidate_csr(Q, criterion="support")
        nnz = int(indptr[-1])
        counts = np.zeros(nnz, dtype=np.int64)
        rounds = np.zeros(m, dtype=np.intp)
        sx = self._samples[:, :, 0]
        sy = self._samples[:, :, 1]
        active = np.arange(m, dtype=np.intp)
        t = 0
        while t < self.s and active.size:
            if stop is None:
                t1 = self.s
            else:
                # First block runs straight to min_rounds (the first
                # stopping check), then one check per check_every rounds.
                t1 = min(self.s, stop[2] if t < stop[2] else t + stop[3])
            if cols is None:
                Qa = Q[active]
                for j in range(t, t1):
                    _resilience.checkpoint("mc.round", j)
                    d2 = kernels.pairwise_sq_distances(Qa, self._samples[j])
                    counts[indptr[active] + d2.argmin(axis=1)] += 1
            else:
                # The active rows' candidate pairs, by CSR position.
                gather, lens = kernels.csr_segment_gather(indptr, active)
                starts = np.zeros(active.size, dtype=np.intp)
                np.cumsum(lens[:-1], out=starts[1:])
                sub = cols[gather]
                rows = np.repeat(np.arange(active.size, dtype=np.intp), lens)
                qx = Q[active[rows], 0]
                qy = Q[active[rows], 1]
                block = _round_block(gather.size, held=nnz * _HELD_PAIR_BYTES)
                for j0 in range(t, t1, block):
                    _resilience.checkpoint("mc.round", j0)
                    pos = _csr_round_positions(
                        sx, sy, qx, qy, rows, starts, sub, j0, min(j0 + block, t1)
                    )
                    counts += np.bincount(gather[pos].ravel(), minlength=nnz)
            rounds[active] += t1 - t
            t = t1
            if stop is not None and t >= stop[2]:
                # Empirical-Bernstein half-width from the largest
                # per-object Bernoulli variance c (t - c) / t^2; objects
                # that never won contribute 0.
                if cols is None:
                    c = counts.reshape(m, n)[active]
                    v = (c * (t - c)).max(axis=1) / float(t) ** 2
                else:
                    c = counts[gather]
                    v = np.maximum.reduceat(c * (t - c), starts) / float(t) ** 2
                hw = np.sqrt(2.0 * v * stop[1] / t) + 3.0 * stop[1] / t
                active = active[hw >= stop[0]]
        return indptr, cols, counts, rounds

    def estimate(self, q, i: int) -> float:
        """``pihat_i(q)`` for one point."""
        return self.query(q).get(i, 0.0)

    def query_vector(self, q) -> List[float]:
        est = self.query(q)
        return [est.get(i, 0.0) for i in range(len(self.uset))]

    # -- introspection -----------------------------------------------------------
    @property
    def nbytes(self) -> int:
        """Memory footprint of the stored instantiation block."""
        return int(self._samples.nbytes)

    def space_estimate(self) -> int:
        """Stored instantiation count: ``s * n`` points (Theorem 4.3's
        O((n / eps^2) log(nk / delta)) space)."""
        return self.s * len(self.uset)
