"""Discrete uncertain points (Section 1.1, "discrete distribution of
description complexity k")."""

from __future__ import annotations

import math
import random
from functools import cached_property
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..config import SeedLike, default_rng, scalar_rng
from ..errors import DistributionError
from ..geometry import kernels
from ..geometry.convex_hull import convex_hull, farthest_point_from
from ..geometry.sec import smallest_enclosing_circle
from ..index.sampler import AliasSampler
from .base import UncertainPoint


class DiscreteUncertainPoint(UncertainPoint):
    """Uncertain point with locations ``p_1..p_k`` and weights ``w_1..w_k``.

    Weights must be positive and sum to one (up to rounding).  A point
    holds its support as two arrays, ``(k, 2)`` locations and ``(k,)``
    weights.  The constructor validates its input and keeps the
    ``locations`` / ``weights`` lists it built to do so; a point
    decoded by recovery (:func:`repro.io.points_from_wire`) sits on row
    views of one decoded array pair and builds those lists on first
    use.  The hull, the smallest enclosing circle and the alias table
    are built on first use too, and cached on the instance.  The hull
    drives ``dmax`` and the circle the column summary, so a restored
    relation, whose summary the snapshot holds, builds none of them
    until a caller needs them.
    """

    def __init__(self, locations: Sequence, weights: Sequence[float], name=None):
        locs = [(float(p[0]), float(p[1])) for p in locations]
        ws = [float(w) for w in weights]
        if len(locs) != len(ws):
            raise DistributionError("locations/weights length mismatch")
        if not locs:
            raise DistributionError("empty discrete distribution")
        if any(w <= 0.0 for w in ws):
            raise DistributionError("location probabilities must be positive")
        total = sum(ws)
        if abs(total - 1.0) > 1e-9:
            raise DistributionError(f"weights sum to {total}, expected 1")
        # The lists are built anyway to validate: keep them as the cache
        # (a cached_property yields to an instance attribute).
        self.locations = locs
        self.weights = ws
        self.name = name
        self._loc_arr = np.asarray(locs, dtype=np.float64)
        self._w_arr = np.asarray(ws, dtype=np.float64)

    @classmethod
    def _from_arrays(cls, loc_arr: np.ndarray, w_arr: np.ndarray, name=None):
        """A point on already validated ``(k, 2)`` / ``(k,)`` arrays,
        held as given (the batch decoder passes row views)."""
        self = cls.__new__(cls)
        self.name = name
        self._loc_arr = loc_arr
        self._w_arr = w_arr
        return self

    def __repr__(self) -> str:
        return f"DiscreteUncertainPoint(k={self.k})"

    @cached_property
    def locations(self) -> List[Tuple[float, float]]:
        """The support locations as ``(x, y)`` tuples."""
        return [tuple(loc) for loc in self._loc_arr.tolist()]

    @cached_property
    def weights(self) -> List[float]:
        """The location probabilities."""
        return self._w_arr.tolist()

    def _location_list(self) -> list:
        """The locations as a list without caching one: the cached list
        when there is one (whose floats the caller's results then
        share), else a temporary one."""
        return self.__dict__.get("locations") or self._loc_arr.tolist()

    def _weight_list(self) -> list:
        """The weights as :meth:`_location_list` gives the locations."""
        return self.__dict__.get("weights") or self._w_arr.tolist()

    @cached_property
    def hull(self) -> List:
        """Convex hull of the support, counter-clockwise."""
        return convex_hull(self._location_list())

    @cached_property
    def enclosing(self):
        """Smallest enclosing circle of the support."""
        return smallest_enclosing_circle(self._location_list())

    @cached_property
    def _sampler(self) -> AliasSampler:
        return AliasSampler(self._weight_list())

    @property
    def k(self) -> int:
        """Description complexity (number of possible locations)."""
        return self._w_arr.shape[0]

    @property
    def is_discrete(self) -> bool:
        return True

    # -- support ----------------------------------------------------------
    def support_bbox(self):
        locs = self._location_list()
        xs = [p[0] for p in locs]
        ys = [p[1] for p in locs]
        return (min(xs), min(ys), max(xs), max(ys))

    def dmin(self, q) -> float:
        qx, qy = q[0], q[1]
        return math.sqrt(
            min((px - qx) ** 2 + (py - qy) ** 2 for px, py in self.locations)
        )

    def dmax(self, q) -> float:
        if len(self.hull) >= 2:
            _, d = farthest_point_from(self.hull, q)
            return d
        px, py = self._loc_arr[0].tolist()
        return math.hypot(px - q[0], py - q[1])

    # -- probability --------------------------------------------------------
    def distance_cdf(self, q, r: float) -> float:
        """``G_{q,i}(r)``: total weight of locations with ``d <= r``
        (closed inequality, matching Eq. (2))."""
        qx, qy = q[0], q[1]
        r2 = r * r
        return sum(
            w
            for (px, py), w in zip(self.locations, self.weights)
            if (px - qx) ** 2 + (py - qy) ** 2 <= r2
        )

    def sample(self, rng: random.Random) -> Tuple[float, float]:
        return self.locations[self._sampler.sample(rng)]

    def expected_distance(self, q, tol: float = 0.0) -> float:
        """Exact expected distance (finite weighted sum)."""
        qx, qy = q[0], q[1]
        return sum(
            w * math.hypot(px - qx, py - qy)
            for (px, py), w in zip(self.locations, self.weights)
        )

    # -- batch API (vectorized over the query matrix) ----------------------
    def dmin_many(self, qs) -> np.ndarray:
        d2 = kernels.pairwise_sq_distances(qs, self._loc_arr)
        return np.sqrt(d2.min(axis=1))

    def dmax_many(self, qs) -> np.ndarray:
        d2 = kernels.pairwise_sq_distances(qs, self._loc_arr)
        return np.sqrt(d2.max(axis=1))

    def distance_cdf_many(self, qs, r) -> np.ndarray:
        d2 = kernels.pairwise_sq_distances(qs, self._loc_arr)
        rr = np.broadcast_to(np.asarray(r, dtype=np.float64), (d2.shape[0],))
        return (d2 <= (rr * rr)[:, None]) @ self._w_arr

    def expected_distance_many(self, qs, **_quad) -> np.ndarray:
        """Exact: the finite weighted sum, for the whole query matrix.

        Reduced with an elementwise product and per-row ``sum`` rather
        than a BLAS matvec: the rounding of each row's result then
        depends only on that row, so evaluating any query subset (the
        planner's pruned dispatch) reproduces the full-matrix values
        bit for bit.
        """
        D = kernels.pairwise_distances(qs, self._loc_arr)
        return (D * self._w_arr[None, :]).sum(axis=1)

    def sample_many(self, rng: SeedLike, size: int) -> np.ndarray:
        idx = self._sampler.sample_many(default_rng(rng), size)
        return self._loc_arr[idx]


def discretize(
    point: UncertainPoint,
    k: int,
    rng: Optional[SeedLike] = None,
) -> DiscreteUncertainPoint:
    """Random ``k``-sample discretisation of a continuous point.

    This is the reduction of Section 4.2 (continuous case): ``P_i-bar`` is
    a uniform discrete distribution over ``k`` draws from ``P_i``; by
    [VC71]/[LLS01] sampling theory (Eq. (7)) the distance cdf is preserved
    to ``+- alpha`` with ``k = O(alpha^-2 log(1/delta'))``.
    """
    # random.Random inputs keep their legacy stream; ints/Generators are
    # adapted through config.scalar_rng so one seed type works everywhere.
    rng = random.Random() if rng is None else scalar_rng(rng)
    locations = [point.sample(rng) for _ in range(k)]
    weights = [1.0 / k] * k
    return DiscreteUncertainPoint(locations, weights, name=point.name)
