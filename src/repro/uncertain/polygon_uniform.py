"""Uniform distribution over a convex polygon.

The semialgebraic-region example of Theorem 2.6: "a polygon with constant
number of edges ... is a semialgebraic set of constant description
complexity".  All quantities are exact (polygon/disk intersection areas).
"""

from __future__ import annotations

import math
import random
from typing import List, Tuple

import numpy as np

from ..config import SeedLike, default_rng
from ..errors import DistributionError
from ..geometry import kernels
from ..geometry.areas import polygon_circle_area
from ..geometry.convex_hull import convex_hull
from ..geometry.point import Point
from ..geometry.polygon import (
    convex_polygon_max_distance,
    convex_polygon_min_distance,
    polygon_area,
    triangulate_fan,
)
from .base import UncertainPoint


class UniformPolygonPoint(UncertainPoint):
    """Uncertain point uniform over a convex polygon."""

    def __init__(self, vertices, name=None):
        hull = convex_hull(vertices)
        if len(hull) < 3:
            raise DistributionError("polygon support must have positive area")
        self.vertices: List[Point] = hull  # CCW
        self.area = polygon_area(self.vertices)
        self.name = name
        self._triangles = triangulate_fan(self.vertices)
        self._tri_weights = [abs(polygon_area(t)) for t in self._triangles]
        total = sum(self._tri_weights)
        # A hull of three or more vertices can still span no area (its
        # fan triangles sum to 0 in floating point).
        if not (total > 0.0 and self.area > 0.0):
            raise DistributionError("polygon support must have positive area")
        self._tri_cdf = []
        acc = 0.0
        for w in self._tri_weights:
            acc += w / total
            self._tri_cdf.append(acc)
        self._vert_arr = np.asarray(
            [(v.x, v.y) for v in self.vertices], dtype=np.float64
        )
        self._tri_arr = np.asarray(
            [[(t[0].x, t[0].y), (t[1].x, t[1].y), (t[2].x, t[2].y)]
             for t in self._triangles],
            dtype=np.float64,
        )
        self._tri_cdf_arr = np.asarray(self._tri_cdf, dtype=np.float64)

    def __repr__(self) -> str:
        return f"UniformPolygonPoint(vertices={len(self.vertices)})"

    # -- support ----------------------------------------------------------
    def support_bbox(self):
        xs = [v.x for v in self.vertices]
        ys = [v.y for v in self.vertices]
        return (min(xs), min(ys), max(xs), max(ys))

    def dmin(self, q) -> float:
        return convex_polygon_min_distance(q, self.vertices)

    def dmax(self, q) -> float:
        return convex_polygon_max_distance(q, self.vertices)

    # -- probability --------------------------------------------------------
    def distance_cdf(self, q, r: float) -> float:
        if r <= 0.0:
            return 0.0
        if r >= self.dmax(q):
            return 1.0
        return polygon_circle_area(self.vertices, q, r) / self.area

    def sample(self, rng: random.Random) -> Tuple[float, float]:
        # Pick a fan triangle by area, then a uniform point inside it.
        u = rng.random()
        lo, hi = 0, len(self._tri_cdf) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if self._tri_cdf[mid] < u:
                lo = mid + 1
            else:
                hi = mid
        a, b, c = self._triangles[lo]
        r1, r2 = rng.random(), rng.random()
        s1 = math.sqrt(r1)
        x = (1 - s1) * a.x + s1 * (1 - r2) * b.x + s1 * r2 * c.x
        y = (1 - s1) * a.y + s1 * (1 - r2) * b.y + s1 * r2 * c.y
        return (x, y)

    # -- batch API ----------------------------------------------------------
    def dmin_many(self, qs) -> np.ndarray:
        """Vectorized ``delta(q)``: zero inside the polygon (crossing
        test), otherwise the minimum point-to-edge distance."""
        Q = kernels.as_query_array(qs)
        A = self._vert_arr
        B = np.roll(A, -1, axis=0)
        AB = B - A  # (k, 2)
        AQ = Q[:, None, :] - A[None, :, :]  # (m, k, 2)
        denom = (AB * AB).sum(axis=1)  # (k,)
        t = np.clip((AQ * AB[None, :, :]).sum(axis=2) / denom, 0.0, 1.0)
        closest = A[None, :, :] + t[:, :, None] * AB[None, :, :]
        edge_min = np.linalg.norm(Q[:, None, :] - closest, axis=2).min(axis=1)
        inside = kernels.points_in_polygon_many(Q, self._vert_arr)
        return np.where(inside, 0.0, edge_min)

    def dmax_many(self, qs) -> np.ndarray:
        """Vectorized ``Delta(q)``: always attained at a vertex."""
        return kernels.pairwise_distances(qs, self._vert_arr).max(axis=1)

    def sample_many(self, rng: SeedLike, size: int) -> np.ndarray:
        """Vectorized fan-triangle sampling (same square-root barycentric
        scheme as the scalar draw)."""
        g = default_rng(rng)
        idx = np.searchsorted(self._tri_cdf_arr, g.random(size))
        idx = np.minimum(idx, len(self._triangles) - 1)
        tri = self._tri_arr
        a, b, c = tri[idx, 0], tri[idx, 1], tri[idx, 2]
        s1 = np.sqrt(g.random(size))[:, None]
        r2 = g.random(size)[:, None]
        return (1.0 - s1) * a + s1 * (1.0 - r2) * b + s1 * r2 * c
