"""Uniform distribution over a disk (the paper's canonical example).

Figure 1 of the paper plots ``g_{q,i}(r)`` for ``P_i`` uniform on the
disk of radius 5 at the origin with ``q = (6, 8)``; the cdf, the pdf and
the expected distance here are all closed-form (lens area, boundary arc
length, and :func:`repro.geometry.kernels.disk_expected_distance`).
"""

from __future__ import annotations

import math
import random
from typing import Tuple

import numpy as np

from ..config import SeedLike, default_rng
from ..geometry import kernels
from ..geometry.circle import Circle, lens_area
from ..geometry.point import distance
from .base import UncertainPoint


class UniformDiskPoint(UncertainPoint):
    """Uncertain point uniform over the disk ``(center, radius)``."""

    def __init__(self, center, radius: float, name=None):
        if radius <= 0.0:
            raise ValueError("UniformDiskPoint requires positive radius")
        self.disk = Circle(center, radius)
        self.name = name

    def __repr__(self) -> str:
        c = self.disk.center
        return f"UniformDiskPoint(({c.x:.6g}, {c.y:.6g}), r={self.disk.radius:.6g})"

    # -- support ----------------------------------------------------------
    def support_bbox(self):
        return self.disk.bbox()

    def dmin(self, q) -> float:
        return self.disk.min_distance(q)

    def dmax(self, q) -> float:
        return self.disk.max_distance(q)

    # -- probability --------------------------------------------------------
    def distance_cdf(self, q, r: float) -> float:
        if r <= 0.0:
            return 0.0
        return lens_area(Circle(q, r), self.disk) / self.disk.area()

    def distance_pdf(self, q, r: float, dr=None) -> float:
        """Closed-form ``g_{q,i}(r)``: length of the circle of radius
        ``r`` about ``q`` inside the disk, over the disk area."""
        if r <= 0.0:
            return 0.0
        d = distance(q, self.disk.center)
        R = self.disk.radius
        if r <= d - R or r >= d + R:
            return 0.0
        if r <= R - d:
            # Whole circle inside the disk.
            return 2.0 * math.pi * r / self.disk.area()
        cos_half = (d * d + r * r - R * R) / (2.0 * d * r)
        half = math.acos(min(1.0, max(-1.0, cos_half)))
        return 2.0 * half * r / self.disk.area()

    def expected_distance(self, q, tol: float = 1e-9) -> float:
        """Closed-form ``E[d(q, P_i)]`` (``tol`` is unused); the same
        double as the one-row :meth:`expected_distance_many`."""
        return float(self.expected_distance_many(q)[0])

    def sample(self, rng: random.Random) -> Tuple[float, float]:
        theta = rng.uniform(0.0, 2.0 * math.pi)
        rad = self.disk.radius * math.sqrt(rng.random())
        return (
            self.disk.center.x + rad * math.cos(theta),
            self.disk.center.y + rad * math.sin(theta),
        )

    # -- batch API (vectorized over the query matrix) ----------------------
    def _center_distances(self, qs) -> np.ndarray:
        Q = kernels.as_query_array(qs)
        c = self.disk.center
        return np.hypot(Q[:, 0] - c.x, Q[:, 1] - c.y)

    def dmin_many(self, qs) -> np.ndarray:
        return np.maximum(self._center_distances(qs) - self.disk.radius, 0.0)

    def dmax_many(self, qs) -> np.ndarray:
        return self._center_distances(qs) + self.disk.radius

    def distance_cdf_many(self, qs, r) -> np.ndarray:
        d = self._center_distances(qs)
        rr = np.broadcast_to(np.asarray(r, dtype=np.float64), d.shape)
        lens = kernels.lens_area_many(d, rr, self.disk.radius)
        return np.where(rr > 0.0, lens / self.disk.area(), 0.0)

    def expected_distance_many(
        self, qs, panels: int = 16, order: int = 16
    ) -> np.ndarray:
        """Closed-form ``E[d(q, P_i)]`` per query row (``panels`` /
        ``order`` are unused: no quadrature runs)."""
        return kernels.disk_expected_distance(
            self._center_distances(qs), self.disk.radius
        )

    def sample_many(self, rng: SeedLike, size: int) -> np.ndarray:
        g = default_rng(rng)
        theta = g.uniform(0.0, 2.0 * math.pi, size)
        rad = self.disk.radius * np.sqrt(g.random(size))
        c = self.disk.center
        return np.column_stack(
            (c.x + rad * np.cos(theta), c.y + rad * np.sin(theta))
        )
