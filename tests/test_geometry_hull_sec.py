"""Tests for convex hull and smallest enclosing circle."""

import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import (
    convex_hull,
    convex_position,
    distance,
    farthest_point_from,
    hull_diameter,
    point_in_convex_polygon,
    smallest_enclosing_circle,
)

coords = st.floats(min_value=-100, max_value=100, allow_nan=False)
point_lists = st.lists(st.tuples(coords, coords), min_size=1, max_size=40)


class TestConvexHull:
    def test_square_with_interior_points(self):
        pts = [(0, 0), (4, 0), (4, 4), (0, 4), (2, 2), (1, 3)]
        hull = convex_hull(pts)
        assert len(hull) == 4
        assert {(p.x, p.y) for p in hull} == {(0, 0), (4, 0), (4, 4), (0, 4)}

    def test_collinear_input(self):
        hull = convex_hull([(0, 0), (1, 0), (2, 0), (3, 0)])
        assert len(hull) == 2

    def test_single_and_duplicate_points(self):
        assert len(convex_hull([(1, 1)])) == 1
        assert len(convex_hull([(1, 1), (1, 1), (1, 1)])) == 1

    @given(point_lists)
    @settings(max_examples=100)
    def test_hull_contains_all_points(self, pts):
        hull = convex_hull(pts)
        if len(hull) < 3:
            return
        assert convex_position(hull)
        for p in pts:
            assert point_in_convex_polygon(p, hull, eps=1e-6)

    def test_ccw_orientation(self):
        hull = convex_hull([(0, 0), (2, 0), (2, 2), (0, 2)])
        area = 0.0
        n = len(hull)
        for i in range(n):
            area += hull[i].cross(hull[(i + 1) % n])
        assert area > 0

    def test_diameter(self):
        hull = convex_hull([(0, 0), (3, 0), (3, 4), (0, 4)])
        assert math.isclose(hull_diameter(hull), 5.0)

    def test_farthest_point(self):
        hull = convex_hull([(0, 0), (10, 0), (10, 10), (0, 10)])
        idx, d = farthest_point_from(hull, (1, 1))
        assert math.isclose(d, math.hypot(9, 9))


class TestSmallestEnclosingCircle:
    def test_two_points(self):
        c = smallest_enclosing_circle([(0, 0), (4, 0)])
        assert math.isclose(c.radius, 2.0)
        assert math.isclose(c.center.x, 2.0)

    def test_equilateral_triangle(self):
        pts = [(0, 0), (2, 0), (1, math.sqrt(3))]
        c = smallest_enclosing_circle(pts)
        assert math.isclose(c.radius, 2.0 / math.sqrt(3), rel_tol=1e-9)

    def test_point_inside_does_not_grow(self):
        pts = [(0, 0), (4, 0), (2, 1)]
        c = smallest_enclosing_circle(pts)
        assert math.isclose(c.radius, 2.0, rel_tol=1e-9)

    def test_cached_shuffle_order_is_randoms(self):
        # The Welzl visiting order is cached per (length, seed); it must
        # be exactly the order a fresh random.Random(seed) shuffles into.
        from repro.geometry.sec import _shuffle_order

        for seed in (0, 1, 7, 12345):
            for length in range(1, 17):
                order = list(range(length))
                random.Random(seed).shuffle(order)
                assert list(_shuffle_order(length, seed)) == order
                assert _shuffle_order(length, seed) is _shuffle_order(length, seed)

    @given(point_lists)
    @settings(max_examples=100)
    def test_circle_contains_all(self, pts):
        c = smallest_enclosing_circle(pts)
        for p in pts:
            assert distance(c.center, p) <= c.radius * (1 + 1e-7) + 1e-7

    @given(point_lists)
    @settings(max_examples=50)
    def test_minimality_vs_diameter(self, pts):
        # SEC radius is at least half the diameter of the point set.
        c = smallest_enclosing_circle(pts)
        diam = max(
            (distance(p, q) for p in pts for q in pts),
            default=0.0,
        )
        assert c.radius >= diam / 2 - 1e-7
