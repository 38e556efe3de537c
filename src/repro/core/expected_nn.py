"""Expected-distance nearest neighbors ([AESZ12] — the PODS 2012 sibling
paper "Nearest-neighbor searching under uncertainty I").

Ranks uncertain points by ``E[d(q, P_i)]``.  The paper under
reproduction discusses this criterion in Section 1.2: it is easier
(each expectation is computed independently) but "is not a good
indicator under large uncertainty" — the ablation benchmark measures how
often the expected-distance winner differs from the most-probable
nearest neighbor.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .. import resilience as _resilience
from ..geometry import kernels
from ..index.rtree import RTree
from .nonzero import UncertainSet
from .planner import QueryPlanner


class ExpectedNNIndex:
    """Expected-distance NN queries with R-tree branch-and-bound.

    ``rect_mindist(q, support bbox)`` lower-bounds the expected distance
    (every support point is at least that far), so best-first search
    prunes exactly.  Batched queries route through the SoA
    :class:`repro.QueryPlanner` by default.

    ``uset`` adopts an :class:`UncertainSet` the caller already holds
    over the same points (the :class:`repro.Engine` registry shares its
    cached one); it is built here when omitted.
    """

    def __init__(self, points: Sequence, uset: Optional[UncertainSet] = None):
        self.uset = uset if uset is not None else UncertainSet(points)
        self.points = list(points)
        self._rtree_cache: Optional[RTree] = None
        self._planner: Optional[QueryPlanner] = None

    @property
    def planner(self) -> QueryPlanner:
        """The lazily built prune-then-evaluate planner."""
        if self._planner is None:
            self._planner = QueryPlanner(self.points)
        return self._planner

    @property
    def _rtree(self) -> RTree:
        """Lazily built: only the scalar branch-and-bound paths need the
        recursive tree."""
        if self._rtree_cache is None:
            self._rtree_cache = RTree([p.support_bbox() for p in self.points])
        return self._rtree_cache

    def expected_distance(self, i: int, q) -> float:
        return self.points[i].expected_distance(q)

    def query(self, q) -> Tuple[int, float]:
        """``(argmin_i E[d(q, P_i)], value)``."""
        return self._rtree.best_first_min(
            q, lambda i: self.points[i].expected_distance(q)
        )

    def query_many(self, qs, exact: bool = False) -> Tuple[np.ndarray, np.ndarray]:
        """Batched :meth:`query`: ``(winner indices, expected distances)``,
        each of shape ``(m,)``.

        The default path prunes each query's candidate set through the
        planner's vectorized ``dmin <= min dmax`` envelope test and
        evaluates expectations only on survivors; ``exact=True`` falls
        back to evaluating the full ``(m, n)`` expectation matrix.  Both
        return identical winners and values (ties break to the lowest
        index).
        """
        if exact:
            E = self.expected_distance_matrix(qs)
            arg = E.argmin(axis=1)
            return arg, E[np.arange(E.shape[0]), arg]
        return self.planner.expected_nn_many(qs)

    def expected_distance_matrix(self, qs) -> np.ndarray:
        """``E[d(q, P_i)]`` for every query/point pair, shape ``(m, n)``."""
        Q = kernels.as_query_array(qs)
        _resilience.require_bytes(
            Q.shape[0] * len(self.points) * 8,
            f"expected_distance_matrix output "
            f"(m={Q.shape[0]}, n={len(self.points)})",
        )
        return np.column_stack(
            [p.expected_distance_many(Q) for p in self.points]
        )

    def rank(self, q, top: int = None) -> List[Tuple[int, float]]:
        """Points sorted by expected distance (the expected-kNN order).

        With ``top`` given, uses the R-tree best-first heap and stops as
        soon as no subtree's ``rect_mindist`` lower bound can displace
        the ``top``-th best — the full linear scan only happens for the
        complete ranking.
        """
        if top is not None:
            if top < 1:
                return []
            return self._rtree.best_first_topk(
                q, lambda i: self.points[i].expected_distance(q), top
            )
        values = [
            (p.expected_distance(q), i) for i, p in enumerate(self.points)
        ]
        values.sort()
        return [(i, v) for v, i in values]


def disagreement_rate(
    points: Sequence,
    queries: Sequence,
    most_likely,
) -> float:
    """Fraction of queries where the expected-distance NN differs from
    the most-likely NN.

    ``most_likely`` maps a query to the index with the largest
    quantification probability (e.g. an exact sweep or a Monte-Carlo
    estimate).
    """
    index = ExpectedNNIndex(points)
    disagreements = 0
    for q in queries:
        e_winner, _ = index.query(q)
        if e_winner != most_likely(q):
            disagreements += 1
    return disagreements / max(len(queries), 1)
