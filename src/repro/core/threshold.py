"""Threshold and top-k probabilistic NN queries.

Extensions the paper points to: [DYM+05] "considered the problem of
reporting points P_i for which pi_i(q) exceeds some given threshold",
the top-k variants of [BSI08], and the paper's own conclusion that its
structures support "threshold NN queries".

Exact versions run the Eq. (2) sweep; the approximate version runs the
spiral search and exploits its *one-sided* guarantee
``pihat <= pi <= pihat + eps`` (Lemma 4.6) to classify every point as
certainly-above, certainly-below, or undecided.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Sequence, Tuple

from ..errors import QueryError
from ..geometry import kernels
from .quantification import quantification_probabilities
from .spiral import SpiralSearchPNN


def threshold_nn_exact(points: Sequence, q, tau: float) -> Dict[int, float]:
    """All ``i`` with ``pi_i(q) > tau`` (exact, [DYM+05] semantics)."""
    if not 0.0 <= tau < 1.0:
        raise QueryError("tau must lie in [0, 1)")
    pi = quantification_probabilities(points, q)
    return {i: v for i, v in enumerate(pi) if v > tau}


def threshold_nn_exact_many(
    points: Sequence, qs, tau: float
) -> List[Dict[int, float]]:
    """Batched :func:`threshold_nn_exact`: one answer dict per query row.

    The Eq. (2) sweep is inherently per-query (a sorted event sweep), so
    this front-end loops it.  The :class:`repro.Engine` serves this
    query through the planner instead.
    """
    return [threshold_nn_exact(points, q, tau) for q in kernels.as_query_array(qs)]


def topk_probable_nn_exact(
    points: Sequence, q, k: int
) -> List[Tuple[int, float]]:
    """The ``k`` most probable nearest neighbors, ranked by ``pi_i(q)``.

    This is the "probabilistic top-k NN" ranking criterion ([BSI08]);
    ties break by index for determinism.
    """
    if k < 1:
        raise QueryError("k must be >= 1")
    pi = quantification_probabilities(points, q)
    order = sorted(range(len(pi)), key=lambda i: (-pi[i], i))
    return [(i, pi[i]) for i in order[:k] if pi[i] > 0.0]


@dataclasses.dataclass
class ThresholdAnswer:
    """Classification returned by :class:`ApproxThresholdIndex`.

    ``above`` — certainly ``pi_i(q) >= tau``; ``below`` is implicit
    (everything not listed); ``undecided`` — within the ``eps`` band
    around ``tau`` where the one-sided estimate cannot separate.
    """

    above: Dict[int, float]
    undecided: Dict[int, float]

    def candidates(self) -> Dict[int, float]:
        out = dict(self.above)
        out.update(self.undecided)
        return out


class ApproxThresholdIndex:
    """Threshold PNN queries with spiral-search certificates.

    By Lemma 4.6, ``pihat_i <= pi_i <= pihat_i + eps``; hence

    * ``pihat_i >= tau``        certifies ``pi_i >= tau``;
    * ``pihat_i + eps < tau``   certifies ``pi_i < tau``;
    * otherwise the point is reported as undecided (band of width eps).

    ``spiral`` adopts a prebuilt :class:`SpiralSearchPNN` over the same
    points (the :class:`repro.Engine` registry shares its cached one)
    instead of rebuilding the retrieval structure.
    """

    def __init__(self, points: Sequence, spiral: SpiralSearchPNN = None):
        self._spiral = spiral if spiral is not None else SpiralSearchPNN(points)
        self.n = len(points)

    def query(self, q, tau: float, eps: float) -> ThresholdAnswer:
        if not 0.0 < tau < 1.0:
            raise QueryError("tau must lie in (0, 1)")
        est = self._spiral.query(q, eps)
        above: Dict[int, float] = {}
        undecided: Dict[int, float] = {}
        for i, v in est.items():
            if v >= tau:
                above[i] = v
            elif v + eps >= tau:
                undecided[i] = v
        return ThresholdAnswer(above=above, undecided=undecided)

    def query_many(self, qs, tau: float, eps: float) -> List[ThresholdAnswer]:
        """Batched :meth:`query`: one :class:`ThresholdAnswer` per row of
        the ``(m, 2)`` query matrix (the spiral retrieval itself remains
        a per-query truncated sweep)."""
        return [self.query(q, tau, eps) for q in kernels.as_query_array(qs)]
