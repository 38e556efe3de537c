"""Planar points and elementary vector arithmetic.

``Point`` is the basic currency of the geometry substrate.  It is an
immutable value type; all operations return new points.  Hot loops in the
library work on raw ``(x, y)`` floats or numpy arrays instead, so this
class favours clarity over micro-optimisation.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Sequence, Tuple


class Point:
    """An immutable point (or vector) in the plane."""

    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float):
        object.__setattr__(self, "x", float(x))
        object.__setattr__(self, "y", float(y))

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("Point is immutable")

    def __reduce__(self):
        # Pickle through the constructor: the default slot-state path
        # would restore ``x``/``y`` with the __setattr__ guard above.
        return (type(self), (self.x, self.y))

    # -- value semantics ---------------------------------------------------
    def __eq__(self, other) -> bool:
        if not isinstance(other, Point):
            return NotImplemented
        return self.x == other.x and self.y == other.y

    def __hash__(self) -> int:
        return hash((self.x, self.y))

    def __repr__(self) -> str:
        return f"Point({self.x:.12g}, {self.y:.12g})"

    def __iter__(self) -> Iterator[float]:
        yield self.x
        yield self.y

    def __getitem__(self, i: int) -> float:
        return (self.x, self.y)[i]

    # -- vector arithmetic -------------------------------------------------
    def __add__(self, other: "Point") -> "Point":
        return Point(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Point") -> "Point":
        return Point(self.x - other.x, self.y - other.y)

    def __mul__(self, s: float) -> "Point":
        return Point(self.x * s, self.y * s)

    __rmul__ = __mul__

    def __truediv__(self, s: float) -> "Point":
        return Point(self.x / s, self.y / s)

    def __neg__(self) -> "Point":
        return Point(-self.x, -self.y)

    # -- geometry ----------------------------------------------------------
    def dot(self, other: "Point") -> float:
        """Dot product with ``other``."""
        return self.x * other.x + self.y * other.y

    def cross(self, other: "Point") -> float:
        """Z component of the cross product with ``other``."""
        return self.x * other.y - self.y * other.x

    def norm(self) -> float:
        """Euclidean length."""
        return math.hypot(self.x, self.y)

    def norm2(self) -> float:
        """Squared Euclidean length."""
        return self.x * self.x + self.y * self.y

    def normalized(self) -> "Point":
        """Unit vector in the same direction.

        Raises
        ------
        ZeroDivisionError
            If the vector has zero length.
        """
        n = self.norm()
        return Point(self.x / n, self.y / n)

    def perp(self) -> "Point":
        """Counter-clockwise perpendicular vector."""
        return Point(-self.y, self.x)

    def angle(self) -> float:
        """Polar angle in ``[-pi, pi]``."""
        return math.atan2(self.y, self.x)

    def rotated(self, theta: float) -> "Point":
        """Rotate by ``theta`` radians counter-clockwise about the origin."""
        c, s = math.cos(theta), math.sin(theta)
        return Point(c * self.x - s * self.y, s * self.x + c * self.y)

    def as_tuple(self) -> Tuple[float, float]:
        return (self.x, self.y)


ORIGIN = Point(0.0, 0.0)


def as_point(p) -> Point:
    """Coerce a point-like object (``Point`` or 2-sequence) to ``Point``."""
    if isinstance(p, Point):
        return p
    x, y = p
    return Point(x, y)


def distance(a, b) -> float:
    """Euclidean distance between two point-like objects."""
    ax, ay = a
    bx, by = b
    return math.hypot(ax - bx, ay - by)


def distance2(a, b) -> float:
    """Squared Euclidean distance between two point-like objects."""
    ax, ay = a
    bx, by = b
    dx, dy = ax - bx, ay - by
    return dx * dx + dy * dy


def midpoint(a, b) -> Point:
    """Midpoint of the segment ``ab``."""
    ax, ay = a
    bx, by = b
    return Point(0.5 * (ax + bx), 0.5 * (ay + by))


def lerp(a, b, t: float) -> Point:
    """Point ``(1 - t) * a + t * b``."""
    ax, ay = a
    bx, by = b
    return Point(ax + (bx - ax) * t, ay + (by - ay) * t)


def centroid(points: Iterable[Sequence[float]]) -> Point:
    """Arithmetic mean of a non-empty collection of point-likes."""
    sx = sy = 0.0
    n = 0
    for p in points:
        sx += p[0]
        sy += p[1]
        n += 1
    if n == 0:
        raise ValueError("centroid of empty point set")
    return Point(sx / n, sy / n)
