"""Probabilistic k-nearest-neighbor queries (Section 1.2 extensions).

The paper surveys kNN variants over uncertain data ([BSI08, CCCX09,
JCLY11]): with quantification-style semantics the natural quantity is

    ``pi_i^(k)(q) = Pr[P_i is among the k nearest neighbors of q]``,

which generalises ``pi_i = pi_i^(1)``.  For discrete distributions it is
exactly computable: conditioning on ``P_i = p_is`` at distance ``d``,
the other points are independent Bernoulli events "closer than ``d``"
with success probabilities ``G_{q,j}(d)``, so

    ``pi_i^(k)(q) = sum_s w_is * Pr[Binomial-mixture < k]``

evaluated by the standard Poisson-binomial dynamic program (O(n k) per
location, O(N n k) per query).  A Monte-Carlo estimator over full
instantiations covers continuous models.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Sequence

import numpy as np

from ..config import SeedLike, default_rng
from ..errors import QueryError
from ..geometry import kernels
from .nonzero import UncertainSet
from .reducers import topk_dense


def knn_probabilities(points: Sequence, q, k: int) -> List[float]:
    """Exact ``pi_i^(k)(q)`` for all ``i`` (discrete distributions).

    ``k = 1`` coincides with the quantification probabilities of
    Eq. (2) away from distance ties.
    """
    uset = UncertainSet(points)
    n = len(points)
    if not 1 <= k <= n:
        raise QueryError(f"k must lie in [1, {n}]")
    if not uset.all_discrete():
        raise QueryError(
            "exact kNN probabilities require discrete distributions; "
            "use monte_carlo_knn for continuous models"
        )
    qx, qy = q[0], q[1]
    out: List[float] = []
    for i, p in enumerate(points):
        total = 0.0
        for (px, py), w in zip(p.locations, p.weights):
            d = math.hypot(px - qx, py - qy)
            probs = [
                points[j].distance_cdf(q, d) for j in range(n) if j != i
            ]
            total += w * _poisson_binomial_below(probs, k)
        out.append(min(1.0, total))
    return out


def _poisson_binomial_below(probs: Sequence[float], k: int) -> float:
    """``Pr[sum of independent Bernoulli(probs) <= k - 1]``.

    Standard DP over the success-count distribution, truncated at ``k``
    successes (everything at or above ``k`` is failure for our purpose).
    """
    # dp[c] = probability of exactly c successes so far (c < k).
    dp = [0.0] * k
    dp[0] = 1.0
    for p in probs:
        if p <= 0.0:
            continue
        if p >= 1.0:
            # A certain success shifts everything up.
            dp = [0.0] + dp[: k - 1]
            if not any(dp):
                return 0.0
            continue
        q0 = 1.0 - p
        new = [0.0] * k
        for c in range(k - 1, -1, -1):
            new[c] = dp[c] * q0 + (dp[c - 1] * p if c > 0 else 0.0)
        dp = new
    return sum(dp)


def monte_carlo_knn(
    points: Sequence,
    q,
    k: int,
    s: int = 2000,
    seed: int = 0,
) -> Dict[int, float]:
    """Monte-Carlo ``pi_i^(k)(q)`` estimates (any distribution models).

    Instantiates the whole set ``s`` times and counts how often each
    point lands among the ``k`` nearest instantiated locations — the
    Section 4.2 estimator generalised from rank 1 to rank k.
    """
    uset = UncertainSet(points)
    n = len(points)
    if not 1 <= k <= n:
        raise QueryError(f"k must lie in [1, {n}]")
    rng = random.Random(seed)
    counts = [0] * n
    qx, qy = q[0], q[1]
    for _ in range(s):
        sample = uset.instantiate(rng)
        dists = sorted(
            (math.hypot(x - qx, y - qy), i) for i, (x, y) in enumerate(sample)
        )
        for _, i in dists[:k]:
            counts[i] += 1
    return {i: c / s for i, c in enumerate(counts) if c > 0}


def monte_carlo_knn_many(
    points: Sequence,
    qs,
    k: int,
    s: int = 2000,
    rng: SeedLike = 0,
    samples=None,
    uset: UncertainSet = None,
) -> List[Dict[int, float]]:
    """Batched :func:`monte_carlo_knn` for an ``(m, 2)`` query matrix.

    Draws all ``s`` instantiations as one ``(s, n, 2)`` array through the
    models' ``sample_many`` and ranks each round against every query with
    a vectorized partial sort — one answer dict per query row.  ``rng``
    follows the :func:`repro.config.default_rng` convention (the batch
    stream differs from the scalar function's ``random.Random`` draws;
    estimates agree within the usual ``O(1/sqrt(s))`` noise).
    ``samples`` accepts a precomputed ``(s, n, 2)`` block (the
    :class:`repro.Engine` registry shares one block per ``(s, seed)``
    across this estimator and :class:`repro.MonteCarloPNN`) instead of
    redrawing; ``uset`` likewise adopts a shared container.
    """
    if uset is None:
        uset = UncertainSet(points)
    n = len(points)
    if not 1 <= k <= n:
        raise QueryError(f"k must lie in [1, {n}]")
    Q = kernels.as_query_array(qs)
    m = Q.shape[0]
    if samples is None:
        samples = uset.instantiate_many(default_rng(rng), s)
    elif samples.shape != (s, n, 2):
        raise QueryError(
            f"samples must have shape {(s, n, 2)}, got {samples.shape}"
        )
    counts = np.zeros((m, n), dtype=np.int64)
    rows = np.arange(m)[:, None]
    for j in range(s):
        d2 = kernels.pairwise_sq_distances(Q, samples[j])
        if k < n:
            top = np.argpartition(d2, k - 1, axis=1)[:, :k]
        else:
            top = np.broadcast_to(np.arange(n)[None, :], (m, n))
        counts[rows, top] += 1
    out: List[Dict[int, float]] = []
    for row in counts:
        nz = np.nonzero(row)[0]
        out.append({int(i): float(row[i]) / s for i in nz})
    return out


def expected_knn(points: Sequence, q, k: int) -> List[int]:
    """The expected-distance kNN ranking ([AESZ12] semantics): simply the
    ``k`` smallest expected distances — the paper's Section 1.2 notes
    this ranking is straightforward, unlike probability-based ranking."""
    uset = UncertainSet(points)
    if not 1 <= k <= len(points):
        raise QueryError(f"k must lie in [1, {len(points)}]")
    order = sorted(
        range(len(points)), key=lambda i: points[i].expected_distance(q)
    )
    return order[:k]


def expected_knn_many(points: Sequence, qs, k: int) -> np.ndarray:
    """Batched :func:`expected_knn`: an ``(m, k)`` index matrix.

    One ``expected_distance_many`` call per point fills the full
    ``(m, n)`` expectation matrix, then the stable top-k reducer
    (:func:`repro.core.reducers.topk_dense`) reproduces the scalar
    tie-breaking (ascending index on equal expectations).  The
    :class:`repro.Engine` serves this query through the planner instead.
    """
    uset = UncertainSet(points)
    if not 1 <= k <= len(points):
        raise QueryError(f"k must lie in [1, {len(points)}]")
    Q = kernels.as_query_array(qs)
    E = np.column_stack([p.expected_distance_many(Q) for p in uset])
    return topk_dense(E, k)[0]
