"""Array-based Sort-Tile-Recursive bulk loading of SoA bboxes.

The recursive pointer build of :class:`repro.index.RTree` constructs one
Python node per subtree; the dual-tree candidate generator
(:mod:`repro.core.dual_tree`) needs only the packed levels — partitions
of the items into spatially coherent groups plus one aggregate bbox per
group.  These builders produce exactly that, straight from the SoA
arrays with ``np.argsort`` / ``np.lexsort`` and no recursion:

* :func:`str_leaves` — one STR level over bbox centers (the classic
  R-tree bulk load), as a list of index arrays partitioning ``range(n)``;
* :func:`str_hierarchy` — the full bottom-up level hierarchy.
"""

from __future__ import annotations

import math
from typing import List, Tuple

import numpy as np

__all__ = ["str_leaves", "str_hierarchy"]


def _as_bboxes(bboxes, capacity: int) -> np.ndarray:
    if capacity < 1:
        raise ValueError("capacity must be >= 1")
    B = np.asarray(bboxes, dtype=np.float64)
    if B.ndim != 2 or B.shape[1] != 4:
        raise ValueError(f"bbox array of shape {B.shape}; expected (n, 4)")
    return B


def _str_level(
    B: np.ndarray, capacity: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One STR level over ``n >= 1`` bboxes: ``(perm, starts, bboxes)``,
    where group ``j`` is ``perm[starts[j]:starts[j + 1]]`` and
    ``bboxes[j]`` its aggregate bbox.

    The items are cut into ``ceil(sqrt(n_groups))`` vertical slices of
    the x-center order, each slice is sorted by y-center, and groups of
    ``capacity`` are cut from each slice.  The slice id is monotone in
    the x-order, so one stable lexsort by ``(slice id, y)`` sorts every
    slice by y while ties keep their x-order.
    """
    n = B.shape[0]
    cy = B[:, 1] + B[:, 3]
    order = np.argsort(B[:, 0] + B[:, 2], kind="stable")
    slices = math.ceil(math.sqrt(math.ceil(n / capacity)))
    per_slice = math.ceil(n / slices)
    pos = np.arange(n, dtype=np.intp)
    perm = order[np.lexsort((cy[order], pos // per_slice))]
    starts = np.flatnonzero(pos % per_slice % capacity == 0)
    S = B[perm]
    bboxes = np.column_stack(
        [
            np.minimum.reduceat(S[:, 0], starts),
            np.minimum.reduceat(S[:, 1], starts),
            np.maximum.reduceat(S[:, 2], starts),
            np.maximum.reduceat(S[:, 3], starts),
        ]
    )
    return perm, starts, bboxes


def str_leaves(bboxes, capacity: int = 16) -> List[np.ndarray]:
    """Partition bbox indices into STR tiles of at most ``capacity``."""
    B = _as_bboxes(bboxes, capacity)
    if B.shape[0] == 0:
        return []
    perm, starts, _ = _str_level(B, capacity)
    return np.split(perm, starts[1:])


def str_hierarchy(
    bboxes, leaf_size: int = 32, fanout: int = 8
) -> List[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Bottom-up STR packing of ``bboxes`` into a full level hierarchy.

    Level 0 partitions the items into leaves of at most ``leaf_size``
    (exactly :func:`str_leaves`); each subsequent level STR-packs the
    level below by ``fanout`` until a single root group remains.  Every
    level is a ``(perm, starts, bboxes)`` triple: group ``j`` of
    the level holds ``perm[starts[j]:starts[j + 1]]``, indices into the
    level below (level 0 indexes the items themselves).  This is the
    array-form tree behind the dual-tree candidate generator
    (:mod:`repro.core.dual_tree`) — no node objects, no recursion, no
    per-group Python loop.
    """
    if fanout < 2:
        raise ValueError("fanout must be >= 2")
    B = _as_bboxes(bboxes, leaf_size)
    if B.shape[0] == 0:
        return []
    levels = [_str_level(B, leaf_size)]
    while levels[-1][2].shape[0] > 1:
        levels.append(_str_level(levels[-1][2], fanout))
    return levels
