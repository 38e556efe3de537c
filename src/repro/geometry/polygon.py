"""Polygon utilities.

Convex polygons serve two roles in the paper: as semialgebraic
uncertainty regions of constant description complexity (Theorem 2.6), and
as the cells ``K_ij`` of the discrete nonzero Voronoi machinery
(Lemma 2.13), obtained by halfplane intersection.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

from .point import Point, as_point, distance
from .predicates import orientation
from .segment import Segment


def polygon_area(vertices: Sequence) -> float:
    """Signed area (positive for counter-clockwise orientation)."""
    n = len(vertices)
    s = 0.0
    for i in range(n):
        x1, y1 = vertices[i][0], vertices[i][1]
        x2, y2 = vertices[(i + 1) % n][0], vertices[(i + 1) % n][1]
        s += x1 * y2 - x2 * y1
    return 0.5 * s


def polygon_centroid(vertices: Sequence) -> Point:
    """Centroid of a simple polygon (area-weighted)."""
    a = polygon_area(vertices)
    if abs(a) < 1e-300:
        # Degenerate: fall back to vertex average.
        n = len(vertices)
        return Point(
            sum(v[0] for v in vertices) / n, sum(v[1] for v in vertices) / n
        )
    cx = cy = 0.0
    n = len(vertices)
    for i in range(n):
        x1, y1 = vertices[i][0], vertices[i][1]
        x2, y2 = vertices[(i + 1) % n][0], vertices[(i + 1) % n][1]
        w = x1 * y2 - x2 * y1
        cx += (x1 + x2) * w
        cy += (y1 + y2) * w
    return Point(cx / (6.0 * a), cy / (6.0 * a))


def point_in_polygon(q, vertices: Sequence, eps: float = 1e-12) -> bool:
    """True when ``q`` lies in the closed simple polygon (ray crossing)."""
    qx, qy = q[0], q[1]
    n = len(vertices)
    inside = False
    for i in range(n):
        x1, y1 = vertices[i][0], vertices[i][1]
        x2, y2 = vertices[(i + 1) % n][0], vertices[(i + 1) % n][1]
        # On-boundary test.
        if Segment((x1, y1), (x2, y2)).distance_to_point((qx, qy)) <= eps:
            return True
        if (y1 > qy) != (y2 > qy):
            xcross = x1 + (qy - y1) * (x2 - x1) / (y2 - y1)
            if qx < xcross:
                inside = not inside
    return inside


def point_in_convex_polygon(q, vertices: Sequence, eps: float = 1e-12) -> bool:
    """True when ``q`` lies in the closed convex polygon (CCW order)."""
    qx, qy = q[0], q[1]
    n = len(vertices)
    for i in range(n):
        x1, y1 = vertices[i][0], vertices[i][1]
        x2, y2 = vertices[(i + 1) % n][0], vertices[(i + 1) % n][1]
        if (x2 - x1) * (qy - y1) - (y2 - y1) * (qx - x1) < -eps:
            return False
    return True


def convex_polygon_min_distance(q, vertices: Sequence) -> float:
    """``delta(q)``: distance from ``q`` to the closed convex polygon.

    Zero when ``q`` is inside.
    """
    if point_in_convex_polygon(q, vertices):
        return 0.0
    n = len(vertices)
    best = math.inf
    for i in range(n):
        seg = Segment(vertices[i], vertices[(i + 1) % n])
        best = min(best, seg.distance_to_point(q))
    return best


def convex_polygon_max_distance(q, vertices: Sequence) -> float:
    """``Delta(q)``: distance from ``q`` to the farthest polygon point.

    Always attained at a vertex.
    """
    return max(distance(q, v) for v in vertices)


def triangulate_fan(vertices: Sequence) -> List[Tuple[Point, Point, Point]]:
    """Fan triangulation of a convex polygon (for area-weighted sampling)."""
    pts = [as_point(v) for v in vertices]
    return [(pts[0], pts[i], pts[i + 1]) for i in range(1, len(pts) - 1)]


def clip_polygon_halfplane(
    vertices: List[Point], a: float, b: float, c: float, eps: float = 1e-12
) -> List[Point]:
    """Sutherland–Hodgman clip of a convex polygon by ``a x + b y <= c``.

    Returns the (possibly empty) clipped polygon in the same orientation.
    This is the inner loop of halfplane intersection (``K_ij`` cells).
    The halfplane is normalised to a unit normal first, so ``eps`` is a
    distance whatever the length of ``(a, b)`` (the bisector of two
    sites ``1e-12`` apart has a normal of length ``2e-12``).
    """
    if not vertices:
        return []
    norm = math.hypot(a, b)
    if norm > 0.0:
        a, b, c = a / norm, b / norm, c / norm
    out: List[Point] = []
    n = len(vertices)
    for i in range(n):
        p = vertices[i]
        q = vertices[(i + 1) % n]
        fp = a * p.x + b * p.y - c
        fq = a * q.x + b * q.y - c
        if fp <= eps:
            out.append(p)
            if fq > eps and fp < -eps:
                t = fp / (fp - fq)
                out.append(p + (q - p) * t)
        elif fq < -eps:
            t = fp / (fp - fq)
            out.append(p + (q - p) * t)
    # Remove consecutive duplicates created by clipping through vertices.
    cleaned: List[Point] = []
    for p in out:
        if not cleaned or (p - cleaned[-1]).norm() > eps:
            cleaned.append(p)
    if len(cleaned) >= 2 and (cleaned[0] - cleaned[-1]).norm() <= eps:
        cleaned.pop()
    return cleaned


def regular_polygon(center, radius: float, sides: int, phase: float = 0.0) -> List[Point]:
    """Vertices of a regular polygon (CCW)."""
    cx, cy = center[0], center[1]
    return [
        Point(
            cx + radius * math.cos(phase + 2.0 * math.pi * i / sides),
            cy + radius * math.sin(phase + 2.0 * math.pi * i / sides),
        )
        for i in range(sides)
    ]
