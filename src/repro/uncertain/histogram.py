"""Histogram (non-parametric) uncertain points.

Section 1.1 allows ``f_P`` to be "a non-parametric pdf such as a
histogram": piecewise-constant over a grid of cells.  The distance cdf
is exact via rectangle/disk intersection areas.
"""

from __future__ import annotations

import math
import random
from functools import cached_property
from typing import List, Sequence, Tuple

import numpy as np

from ..config import SeedLike, default_rng
from ..errors import DistributionError
from ..geometry import kernels
from ..geometry.areas import rect_circle_area
from ..index.rtree import rect_maxdist, rect_mindist
from ..index.sampler import AliasSampler
from .base import UncertainPoint


class HistogramPoint(UncertainPoint):
    """Piecewise-constant density over a grid of square cells.

    Parameters
    ----------
    origin:
        Lower-left corner ``(x0, y0)`` of the grid.
    cell:
        Side length of each square cell.
    weights:
        2-D nested sequence ``weights[row][col]`` of cell masses; rows
        advance in +y.  Zero cells are allowed and removed; the rest must
        sum to 1 up to rounding.
    """

    def __init__(self, origin, cell: float, weights: Sequence[Sequence[float]], name=None):
        if cell <= 0.0:
            raise DistributionError("cell size must be positive")
        x0, y0 = float(origin[0]), float(origin[1])
        self.origin = (x0, y0)
        self.grid_weights = [list(map(float, row)) for row in weights]
        self.cell = float(cell)
        self.rects: List[Tuple[float, float, float, float]] = []
        self.masses: List[float] = []
        for row, ws in enumerate(weights):
            for col, w in enumerate(ws):
                w = float(w)
                if w < 0.0:
                    raise DistributionError("negative histogram weight")
                if w == 0.0:
                    continue
                x = x0 + col * cell
                y = y0 + row * cell
                self.rects.append((x, y, x + cell, y + cell))
                self.masses.append(w)
        if not self.masses:
            raise DistributionError("histogram with no mass")
        total = sum(self.masses)
        if abs(total - 1.0) > 1e-9:
            raise DistributionError(f"histogram mass {total}, expected 1")
        self.name = name
        self._area = self.cell * self.cell
        self._rect_arr = np.asarray(self.rects, dtype=np.float64)
        self._mass_arr = np.asarray(self.masses, dtype=np.float64)

    @cached_property
    def _sampler(self) -> AliasSampler:
        """Alias table over the cells, built on first sample."""
        return AliasSampler(self.masses)

    def __repr__(self) -> str:
        return f"HistogramPoint(cells={len(self.masses)}, cell={self.cell:.6g})"

    # -- support ----------------------------------------------------------
    def support_bbox(self):
        return (
            min(r[0] for r in self.rects),
            min(r[1] for r in self.rects),
            max(r[2] for r in self.rects),
            max(r[3] for r in self.rects),
        )

    def dmin(self, q) -> float:
        return min(rect_mindist(q, r) for r in self.rects)

    def dmax(self, q) -> float:
        return max(rect_maxdist(q, r) for r in self.rects)

    # -- probability --------------------------------------------------------
    def distance_cdf(self, q, r: float) -> float:
        if r <= 0.0:
            return 0.0
        total = 0.0
        for rect, mass in zip(self.rects, self.masses):
            if rect_mindist(q, rect) > r:
                continue
            if rect_maxdist(q, rect) <= r:
                total += mass
            else:
                total += mass * rect_circle_area(rect, q, r) / self._area
        return min(1.0, max(0.0, total))

    def sample(self, rng: random.Random) -> Tuple[float, float]:
        rect = self.rects[self._sampler.sample(rng)]
        return (rng.uniform(rect[0], rect[2]), rng.uniform(rect[1], rect[3]))

    # -- batch API (vectorized over the query matrix) ----------------------
    def dmin_many(self, qs) -> np.ndarray:
        return kernels.rect_mindist_many(qs, self._rect_arr).min(axis=1)

    def dmax_many(self, qs) -> np.ndarray:
        return kernels.rect_maxdist_many(qs, self._rect_arr).max(axis=1)

    def distance_cdf_many(self, qs, r) -> np.ndarray:
        Q = kernels.as_query_array(qs)
        rr = np.broadcast_to(np.asarray(r, dtype=np.float64), (Q.shape[0],))
        mind = kernels.rect_mindist_many(Q, self._rect_arr)
        maxd = kernels.rect_maxdist_many(Q, self._rect_arr)
        r2d = rr[:, None]
        full = maxd <= r2d
        partial = (mind <= r2d) & ~full
        # Per-row multiply-and-sum reductions (not BLAS matvecs) so any
        # query subset reproduces the full-matrix values bit for bit —
        # the planner's pruned dispatch relies on this row independence.
        total = (full * self._mass_arr[None, :]).sum(axis=1)
        rows = np.nonzero(partial.any(axis=1))[0]
        if rows.size:
            # Exact areas only for the query rows that straddle a cell;
            # fully-covered and fully-excluded cells never pay for the
            # transcendental corner decomposition.
            areas = kernels.rect_circle_area_many(
                self._rect_arr, Q[rows], rr[rows]
            )
            contrib = np.where(partial[rows], areas / self._area, 0.0)
            total[rows] += (contrib * self._mass_arr[None, :]).sum(axis=1)
        return np.where(rr > 0.0, np.clip(total, 0.0, 1.0), 0.0)

    def sample_many(self, rng: SeedLike, size: int) -> np.ndarray:
        g = default_rng(rng)
        idx = self._sampler.sample_many(g, size)
        cells = self._rect_arr[idx]
        u = g.random((size, 2))
        return cells[:, :2] + u * (cells[:, 2:] - cells[:, :2])
