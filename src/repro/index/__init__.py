"""Database-style indexing substrate: kd-tree, R-tree, grid, samplers,
and the persistent label store of Section 2.1.

The tree indexes carry batched ``query_many`` probes (vectorized rect
mindist/maxdist against whole node levels) and the samplers a vectorized
``sample_many``, feeding the batch engines in :mod:`repro.core`."""

from .bulk import str_leaves
from .grid import GridIndex
from .kdtree import KdTree
from .persistence import DeltaSetStore
from .quadtree import QuadTree
from .rtree import (
    RTree,
    rect_intersects_disk,
    rect_maxdist,
    rect_mindist,
    rect_union,
    rects_intersect,
)
from .sampler import AliasSampler, CdfSampler

__all__ = [
    "AliasSampler",
    "CdfSampler",
    "DeltaSetStore",
    "GridIndex",
    "str_leaves",
    "KdTree",
    "QuadTree",
    "RTree",
    "rect_intersects_disk",
    "rect_maxdist",
    "rect_mindist",
    "rect_union",
    "rects_intersect",
]
