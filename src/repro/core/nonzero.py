"""Nonzero nearest neighbors: definitions and the exact oracle.

Lemma 2.1: ``P_i`` belongs to ``NN!=0(q, P)`` iff
``delta_i(q) < Delta_j(q)`` for every ``j``, equivalently (Eq. (4))
``delta_i(q) < Delta(q)`` where ``Delta`` is the lower envelope of the
``Delta_j``.  The oracle here evaluates that predicate directly in O(n)
and serves as ground truth for every index and subdivision in the
library.
"""

from __future__ import annotations

import math
import random
from typing import FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from ..config import SeedLike, default_rng
from ..errors import QueryError
from ..geometry import kernels
from ..uncertain.base import UncertainPoint
from .reducers import full_csr, nonzero_csr, support_report_csr


class UncertainSet:
    """A set ``P = {P_1, ..., P_n}`` of uncertain points.

    Thin container giving the core algorithms a uniform view: indexed
    access, vectorised ``delta``/``Delta`` evaluation, and the brute-force
    ``NN!=0`` oracle.

    ``copy=False`` adopts the caller's list without copying — the
    :class:`repro.Engine` session shares one canonical point list across
    every structure in its registry (the engine rebinds, never mutates,
    that list on dynamic updates, so adopted views stay consistent).
    """

    def __init__(self, points: Sequence[UncertainPoint], copy: bool = True):
        self.points: List[UncertainPoint] = (
            list(points) if copy or not isinstance(points, list) else points
        )
        if not self.points:
            raise QueryError("UncertainSet requires at least one point")

    def __len__(self) -> int:
        return len(self.points)

    def __getitem__(self, i: int) -> UncertainPoint:
        return self.points[i]

    def __iter__(self):
        return iter(self.points)

    # -- envelope values ------------------------------------------------------
    def delta(self, i: int, q) -> float:
        """``delta_i(q)``, the minimum distance from ``q`` to ``P_i``."""
        return self.points[i].dmin(q)

    def big_delta(self, i: int, q) -> float:
        """``Delta_i(q)``, the maximum distance from ``q`` to ``P_i``."""
        return self.points[i].dmax(q)

    def envelope(self, q) -> Tuple[int, float]:
        """``(argmin, Delta(q))`` — the lower envelope of the ``Delta_i``.

        The projection of the graph of ``Delta`` is the additively
        weighted Voronoi diagram ``M`` of Section 2.1.
        """
        best_i, best = 0, math.inf
        for i, p in enumerate(self.points):
            v = p.dmax(q)
            if v < best:
                best_i, best = i, v
        return best_i, best

    def _envelope_two(self, q) -> Tuple[int, float, float]:
        """``(argmin, min, second-min)`` of the ``Delta_j(q)`` values.

        Lemma 2.1 quantifies over ``j != i``, so testing point ``i``
        needs ``min_{j != i} Delta_j``: the global minimum unless ``i``
        itself attains it, in which case the second minimum.
        """
        best_i, best, second = -1, math.inf, math.inf
        for i, p in enumerate(self.points):
            v = p.dmax(q)
            if v < best:
                best_i, second, best = i, best, v
            elif v < second:
                second = v
        return best_i, best, second

    # -- the oracle --------------------------------------------------------------
    def nonzero_nn(self, q) -> FrozenSet[int]:
        """``NN!=0(q, P)`` as a frozen set of indices (Lemma 2.1)."""
        arg, best, second = self._envelope_two(q)
        return frozenset(
            i
            for i, p in enumerate(self.points)
            if p.dmin(q) < (second if i == arg else best)
        )

    def is_nonzero_nn(self, i: int, q) -> bool:
        """True iff ``pi_i(q) > 0`` (membership form of Lemma 2.1)."""
        di = self.points[i].dmin(q)
        return all(
            di < p.dmax(q) for j, p in enumerate(self.points) if j != i
        )

    # -- batch API ------------------------------------------------------------
    def dmin_matrix(self, qs) -> np.ndarray:
        """``delta_i(q)`` for every query/point pair, shape ``(m, n)``."""
        Q = kernels.as_query_array(qs)
        return np.column_stack([p.dmin_many(Q) for p in self.points])

    def dmax_matrix(self, qs) -> np.ndarray:
        """``Delta_i(q)`` for every query/point pair, shape ``(m, n)``."""
        Q = kernels.as_query_array(qs)
        return np.column_stack([p.dmax_many(Q) for p in self.points])

    def envelope_many(self, qs) -> Tuple[np.ndarray, np.ndarray]:
        """Batched :meth:`envelope`: ``(argmins, Delta(q) values)``."""
        dmaxs = self.dmax_matrix(qs)
        arg = dmaxs.argmin(axis=1)
        return arg, dmaxs[np.arange(dmaxs.shape[0]), arg]

    def nonzero_nn_many(self, qs) -> List[FrozenSet[int]]:
        """Batched :meth:`nonzero_nn` (Lemma 2.1 for a query matrix).

        One ``(m, n)`` dmin and one dmax matrix replace the ``2 m n``
        scalar extremal-distance calls of the query loop.
        """
        return nonzero_from_matrices(self.dmin_matrix(qs), self.dmax_matrix(qs))

    def instantiate_many(self, rng: SeedLike, s: int) -> np.ndarray:
        """``s`` random instantiations of every point, shape ``(s, n, 2)``.

        Draws each point's ``s`` locations with one vectorized
        ``sample_many`` call (per-point columns, not per-round rows — the
        joint distribution is the same by independence, but the stream
        order differs from looping :meth:`instantiate`).
        """
        g = default_rng(rng)
        out = np.empty((s, len(self.points), 2), dtype=np.float64)
        for i, p in enumerate(self.points):
            out[:, i, :] = p.sample_many(g, s)
        return out

    # -- misc helpers ---------------------------------------------------------------
    def bounding_box(self, margin: float = 0.0) -> Tuple[float, float, float, float]:
        """Bounding box of all supports, inflated by ``margin``."""
        boxes = [p.support_bbox() for p in self.points]
        return (
            min(b[0] for b in boxes) - margin,
            min(b[1] for b in boxes) - margin,
            max(b[2] for b in boxes) + margin,
            max(b[3] for b in boxes) + margin,
        )

    def instantiate(self, rng: random.Random) -> List[Tuple[float, float]]:
        """One random instantiation of every point (Section 4.2)."""
        return [p.sample(rng) for p in self.points]

    def all_discrete(self) -> bool:
        return all(p.is_discrete for p in self.points)

    def max_description_complexity(self) -> int:
        """``k``: the largest discrete support size (1 for continuous)."""
        return max(
            (len(p.locations) if p.is_discrete else 1) for p in self.points
        )


def nonzero_from_matrices(
    dmins: np.ndarray, dmaxs: np.ndarray
) -> List[FrozenSet[int]]:
    """Lemma 2.1 from precomputed ``(m, n)`` extremal-distance matrices:
    the CSR reducer :func:`repro.core.reducers.nonzero_csr` fed the full
    layout (every column of every row)."""
    indptr, cols = full_csr(*dmaxs.shape)
    return nonzero_csr(indptr, cols, dmins.ravel(), dmaxs.ravel())


def support_report(dmins: np.ndarray, dmaxs: np.ndarray) -> dict:
    """The shard-mergeable form of :func:`nonzero_from_matrices`
    (:func:`repro.core.reducers.support_report_csr` over the full
    layout).

    Returns per-row ``best`` / ``best_idx`` / ``second`` (the two
    smallest ``dmax`` entries, stable tie-break) plus the local
    membership CSR (``indptr`` / ``members`` / ``member_dmins``) under
    the *local* thresholds.  A supervisor holding one report per
    contiguous shard reconstructs the global Lemma 2.1 sets exactly:

    * the global two smallest ``dmax`` values are among the union of
      the shards' ``(best, second)`` pairs, and the stable argmin is
      the lowest global index attaining the global minimum — shard
      bests carry their indices and within a shard any ``second`` tied
      with ``best`` is attained at a *later* index, so shard bests
      alone decide the argmin;
    * each shard's local threshold is at least the global one, so local
      member sets are supersets of the shard's global contribution —
      filtering members by their ``dmin`` against the merged global
      threshold drops exactly the extras.
    """
    indptr, cols = full_csr(*dmaxs.shape)
    return support_report_csr(indptr, cols, dmins.ravel(), dmaxs.ravel())


def brute_force_nonzero(points: Sequence[UncertainPoint], q) -> FrozenSet[int]:
    """Standalone O(n) oracle for ``NN!=0(q)`` (Lemma 2.1)."""
    return UncertainSet(points).nonzero_nn(q)
