"""Smallest enclosing circle (Welzl's randomised incremental algorithm).

Used to bound ``Delta_i(q)`` for discrete uncertain points: with smallest
enclosing circle ``(c_i, R_i)`` of the support,
``max(d(q, c_i), R_i) - R_i <= Delta_i(q) <= d(q, c_i) + R_i``, which
drives the branch-and-bound of the discrete two-stage index (Theorem 3.2
practical analogue).
"""

from __future__ import annotations

import functools
import random
from typing import List, Optional, Sequence, Tuple

from ..errors import DegenerateInputError
from .circle import Circle, circumcircle
from .point import Point, distance, midpoint


@functools.lru_cache(maxsize=256)
def _shuffle_order(length: int, seed: int) -> Tuple[int, ...]:
    """The order ``random.Random(seed).shuffle`` puts ``length`` items
    in.  It depends on nothing else, so it is drawn once per
    ``(length, seed)``."""
    order = list(range(length))
    random.Random(seed).shuffle(order)
    return tuple(order)


def smallest_enclosing_circle(points: Sequence, seed: int = 0) -> Circle:
    """Smallest circle containing all ``points`` (expected linear time),
    visiting them in ``random.Random(seed)``'s shuffle order."""
    pts = [(float(p[0]), float(p[1])) for p in points]
    if not pts:
        raise ValueError("smallest enclosing circle of empty set")
    pts = [pts[i] for i in _shuffle_order(len(pts), seed)]
    circle: Optional[Circle] = None
    for i, p in enumerate(pts):
        if circle is None or not _inside(circle, p):
            circle = _sec_one_point(pts[: i + 1], p)
    return circle


def _inside(c: Circle, p, eps: float = 1e-10) -> bool:
    return distance(c.center, p) <= c.radius * (1.0 + eps) + eps


def _sec_one_point(pts: List, p) -> Circle:
    circle = Circle(Point(p[0], p[1]), 0.0)
    for i, q in enumerate(pts):
        if not _inside(circle, q):
            if circle.radius == 0.0:
                circle = _circle_two(p, q)
            else:
                circle = _sec_two_points(pts[: i + 1], p, q)
    return circle


def _sec_two_points(pts: List, p, q) -> Circle:
    circle = _circle_two(p, q)
    left: Optional[Circle] = None
    right: Optional[Circle] = None
    pq = Point(q[0] - p[0], q[1] - p[1])
    for r in pts:
        if _inside(circle, r):
            continue
        cross = pq.cross(Point(r[0] - p[0], r[1] - p[1]))
        try:
            c = circumcircle(p, q, r)
        except DegenerateInputError:
            continue
        if cross > 0.0 and (
            left is None
            or pq.cross(c.center - Point(p[0], p[1])) > pq.cross(
                left.center - Point(p[0], p[1])
            )
        ):
            left = c
        elif cross < 0.0 and (
            right is None
            or pq.cross(c.center - Point(p[0], p[1])) < pq.cross(
                right.center - Point(p[0], p[1])
            )
        ):
            right = c
    if left is None and right is None:
        return circle
    if left is None:
        return right
    if right is None:
        return left
    return left if left.radius <= right.radius else right


def _circle_two(p, q) -> Circle:
    center = midpoint(p, q)
    return Circle(center, max(distance(center, p), distance(center, q)))
