"""``repro.batch`` — the one-stop *stateless* batch-query facade.

Aggregation-style consumers (conformal aggregation over uncertain NN
answers, benchmark sweeps, tile servers) ask many queries of one fixed
uncertain data set.  This module is the stable surface for that
workload: every function takes the point set plus an ``(m, 2)`` query
matrix (anything :func:`repro.geometry.kernels.as_query_array` accepts)
and returns NumPy arrays or per-query containers, routing through the
vectorized ``*_many`` kernels threaded through
:mod:`repro.uncertain`, :mod:`repro.index` and :mod:`repro.core`.

Since PR 4 every helper here is a thin wrapper over a per-call
throwaway :class:`repro.Engine` session, so the facade and the session
API share one code path (and one set of semantics): prune-then-evaluate
by default, ``exact=True`` for the unpruned cross-check tier, ``eps=``
for the sublinear quantized-envelope tier — all with the tiled,
bounded-memory execution of :func:`repro.config.execution`.  Answers
are bit-identical to the pre-engine releases and to the session API.

Quick start::

    import numpy as np
    from repro import UniformDiskPoint
    from repro import batch

    points = [UniformDiskPoint((0, 0), 1), UniformDiskPoint((3, 0), 1)]
    Q = np.array([[1.4, 0.0], [2.0, 0.5], [-1.0, 3.0]])

    batch.nonzero_nn_many(points, Q)      # Lemma 2.1 for every row
    batch.expected_nn_many(points, Q)     # [AESZ12] winners + values
    batch.monte_carlo_pnn_many(points, Q, s=500, rng=7)

For **repeated** query batches against the same point set, build a
:class:`repro.Engine` once and query it — the session keeps the
:class:`repro.ModelColumns` store, the :class:`repro.QueryPlanner`,
quantized envelopes, and Monte-Carlo sample blocks cached across
batches (these helpers construct a throwaway engine per call for
one-shot convenience, discarding that state each time)::

    from repro import Engine

    engine = Engine(points)               # build once
    engine.expected_nn_many(Q)            # ... query many
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from .config import SeedLike
from .core.threshold import ThresholdAnswer
from .engine import Engine
from .errors import QueryError
from .geometry.kernels import as_query_array

__all__ = [
    "as_query_array",
    "dmin_matrix",
    "dmax_matrix",
    "envelope_many",
    "nonzero_nn_many",
    "expected_nn_many",
    "expected_distance_matrix",
    "monte_carlo_pnn_many",
    "monte_carlo_knn_many",
    "expected_knn_many",
    "threshold_nn_exact_many",
    "approx_threshold_many",
    "instantiate_many",
    "quantized_index",
]


def _session(points: Sequence) -> Engine:
    """A throwaway single-call session (no result caching — nothing
    would ever hit it)."""
    engine = Engine(points, result_cache_size=0)
    if len(engine) == 0:
        raise QueryError("the batch facade requires at least one point")
    return engine


def dmin_matrix(points: Sequence, qs) -> np.ndarray:
    """``delta_i(q)`` for every query/point pair, shape ``(m, n)``."""
    return _session(points).dmin_matrix(qs)


def dmax_matrix(points: Sequence, qs) -> np.ndarray:
    """``Delta_i(q)`` for every query/point pair, shape ``(m, n)``."""
    return _session(points).dmax_matrix(qs)


def envelope_many(points: Sequence, qs) -> Tuple[np.ndarray, np.ndarray]:
    """Batched lower envelope ``Delta(q)``: ``(argmins, values)``."""
    return _session(points).envelope_many(qs)


def nonzero_nn_many(
    points: Sequence,
    qs,
    exact: bool = False,
    eps: Optional[float] = None,
    rel: float = 0.0,
) -> List[FrozenSet[int]]:
    """``NN!=0(q, P)`` (Lemma 2.1) for every query row.

    Planner-pruned by default; ``exact=True`` runs the unpruned
    extremal-distance scan in row tiles.  Both return identical sets.
    ``eps=`` opts into the sublinear quantized-envelope tier: sets are
    ε-relaxed (exact on envelope interiors — see
    :class:`repro.QuantizedEnvelopeIndex`), uncertified rows fall back
    to the pruned scan automatically.
    """
    return _session(points).nonzero_nn_many(qs, exact=exact, eps=eps, rel=rel)


def expected_nn_many(
    points: Sequence,
    qs,
    exact: bool = False,
    eps: Optional[float] = None,
    rel: float = 0.0,
) -> Tuple[np.ndarray, np.ndarray]:
    """[AESZ12] expected-distance winners: ``(indices, values)``.

    Planner-pruned by default; ``exact=True`` evaluates every
    expectation, in row tiles.  Both return identical winners and
    values.
    ``eps=`` opts into the sublinear quantized-envelope tier: winners
    and values carry a certified error of at most
    ``max(eps, rel * true value)``; uncertified rows are resolved by the
    pruned tier automatically.
    """
    return _session(points).expected_nn_many(qs, exact=exact, eps=eps, rel=rel)


def expected_distance_matrix(points: Sequence, qs) -> np.ndarray:
    """``E[d(q, P_i)]`` for every query/point pair, shape ``(m, n)``."""
    return _session(points).expected_distance_matrix(qs)


def expected_knn_many(
    points: Sequence, qs, k: int, exact: bool = False
) -> np.ndarray:
    """Expected-distance kNN ranking, an ``(m, k)`` index matrix.

    Planner-pruned by default (candidates of the ``k``-th envelope
    test); ``exact=True`` ranks every expectation, in row tiles.
    """
    return _session(points).expected_knn_many(qs, k, exact=exact)


def monte_carlo_pnn_many(
    points: Sequence,
    qs,
    s: Optional[int] = None,
    epsilon: Optional[float] = None,
    delta: float = 0.05,
    rng: SeedLike = 0,
    exact: bool = False,
    adaptive: bool = False,
    tol: Optional[float] = None,
) -> List[Dict[int, float]]:
    """Theorem 4.3/4.5 estimates ``{i: pihat_i(q)}`` for every query row.

    Draws the ``(s, n, 2)`` instantiation block on the vectorized
    path and answers the whole matrix with the batched argmin engine —
    by default restricted to each query's planner candidates (an object
    with ``dmin(q) > min_j dmax_j(q)`` can never win a round, so the
    estimates are identical); ``exact=True`` compares all ``n`` objects
    in every round.  ``adaptive=True`` with a ``tol`` turns on
    per-query empirical-Bernstein early stopping (easy queries consume
    only a few of the stored rounds; see
    :meth:`repro.MonteCarloPNN.query_matrix`).
    """
    return _session(points).monte_carlo_pnn_many(
        qs,
        s=s,
        epsilon=epsilon,
        delta=delta,
        rng=rng,
        exact=exact,
        adaptive=adaptive,
        tol=tol,
    )


def monte_carlo_knn_many(
    points: Sequence,
    qs,
    k: int,
    s: int = 2000,
    rng: SeedLike = 0,
) -> List[Dict[int, float]]:
    """Monte-Carlo ``pi_i^(k)(q)`` estimates for every query row."""
    return _session(points).monte_carlo_knn_many(qs, k, s=s, rng=rng)


def threshold_nn_exact_many(
    points: Sequence,
    qs,
    tau: float,
    exact: bool = False,
    eps: Optional[float] = None,
    rel: float = 0.0,
) -> List[Dict[int, float]]:
    """Exact threshold answers ``{i: pi_i(q) > tau}`` for every row.

    Planner-pruned by default (the Eq. (2) sweep runs on each query's
    candidate subset); ``exact=True`` sweeps all ``N`` locations.
    ``eps=`` answers certified rows from the quantized-envelope tier
    (settled cells report their certain winner at probability exactly
    ``1.0``) and sweeps only the rest: the answer sets equal the pruned
    sweep's, with probabilities matching up to the sweep's float
    accumulation (a certain winner can land at ``1.0 ± a few ulps``).
    """
    return _session(points).threshold_nn_exact_many(
        qs, tau, exact=exact, eps=eps, rel=rel
    )


def approx_threshold_many(
    points: Sequence, qs, tau: float, eps: float
) -> List[ThresholdAnswer]:
    """Spiral-search threshold classification for every query row."""
    return _session(points).approx_threshold_many(qs, tau, eps)


def instantiate_many(points: Sequence, rng: SeedLike, s: int) -> np.ndarray:
    """``s`` instantiations of the whole set, shape ``(s, n, 2)``."""
    return _session(points).instantiate_many(rng, s)


def quantized_index(
    points: Sequence, eps: float, criterion: str = "expected", rel: float = 0.0
):
    """A :class:`repro.QuantizedEnvelopeIndex` over ``points`` — build
    it once when the same ``eps`` serves many query batches, or hold a
    :class:`repro.Engine` and let its registry cache one per
    ``(eps, rel, criterion)`` key."""
    return _session(points).quantized_index(eps, criterion=criterion, rel=rel)
