"""Tests for polygon utilities and halfplane intersection."""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.geometry import (
    Halfplane,
    Point,
    clip_polygon_halfplane,
    convex_polygon_max_distance,
    convex_polygon_min_distance,
    halfplane_intersection,
    point_in_convex_polygon,
    point_in_polygon,
    polygon_area,
    polygon_centroid,
    regular_polygon,
    triangulate_fan,
)

UNIT_SQUARE = [Point(0, 0), Point(1, 0), Point(1, 1), Point(0, 1)]


class TestPolygonBasics:
    def test_area_ccw_positive(self):
        assert polygon_area(UNIT_SQUARE) == 1.0
        assert polygon_area(list(reversed(UNIT_SQUARE))) == -1.0

    def test_centroid(self):
        c = polygon_centroid(UNIT_SQUARE)
        assert math.isclose(c.x, 0.5) and math.isclose(c.y, 0.5)

    def test_point_in_polygon(self):
        assert point_in_polygon((0.5, 0.5), UNIT_SQUARE)
        assert not point_in_polygon((1.5, 0.5), UNIT_SQUARE)
        assert point_in_polygon((0.0, 0.5), UNIT_SQUARE)  # boundary

    def test_point_in_convex_polygon(self):
        assert point_in_convex_polygon((0.5, 0.5), UNIT_SQUARE)
        assert not point_in_convex_polygon((-0.1, 0.5), UNIT_SQUARE)

    def test_min_max_distance(self):
        assert convex_polygon_min_distance((0.5, 0.5), UNIT_SQUARE) == 0.0
        assert math.isclose(convex_polygon_min_distance((2, 0.5), UNIT_SQUARE), 1.0)
        assert math.isclose(
            convex_polygon_max_distance((0, 0), UNIT_SQUARE), math.sqrt(2)
        )

    def test_triangulate_fan_area(self):
        hexagon = regular_polygon((0, 0), 2.0, 6)
        tris = triangulate_fan(hexagon)
        assert len(tris) == 4
        area = sum(abs(polygon_area(t)) for t in tris)
        assert math.isclose(area, polygon_area(hexagon), rel_tol=1e-12)

    def test_regular_polygon_vertex_count(self):
        assert len(regular_polygon((0, 0), 1.0, 7)) == 7


class TestClipping:
    def test_clip_keeps_half(self):
        # x <= 0.5
        clipped = clip_polygon_halfplane(UNIT_SQUARE, 1.0, 0.0, 0.5)
        assert math.isclose(abs(polygon_area(clipped)), 0.5, rel_tol=1e-12)

    def test_clip_everything_away(self):
        clipped = clip_polygon_halfplane(UNIT_SQUARE, 1.0, 0.0, -1.0)
        assert clipped == []

    def test_clip_no_op(self):
        clipped = clip_polygon_halfplane(UNIT_SQUARE, 1.0, 0.0, 5.0)
        assert math.isclose(abs(polygon_area(clipped)), 1.0, rel_tol=1e-12)


class TestHalfplaneIntersection:
    BBOX = (-10.0, -10.0, 10.0, 10.0)

    def test_bisector_side(self):
        h = Halfplane.bisector_side((0, 0), (2, 0))
        assert h.contains((0, 5))
        assert h.contains((1, 0))  # on the bisector
        assert not h.contains((2, 0))

    def test_triangle_from_three_halfplanes(self):
        hs = [
            Halfplane(-1.0, 0.0, 0.0),  # x >= 0
            Halfplane(0.0, -1.0, 0.0),  # y >= 0
            Halfplane(1.0, 1.0, 2.0),  # x + y <= 2
        ]
        poly = halfplane_intersection(hs, self.BBOX)
        assert math.isclose(abs(polygon_area(poly)), 2.0, rel_tol=1e-9)

    def test_empty_intersection(self):
        hs = [Halfplane(1.0, 0.0, 0.0), Halfplane(-1.0, 0.0, -1.0)]  # x<=0, x>=1
        assert halfplane_intersection(hs, self.BBOX) == []

    def test_unbounded_clipped_to_box(self):
        hs = [Halfplane(1.0, 0.0, 0.0)]  # x <= 0
        poly = halfplane_intersection(hs, self.BBOX)
        assert math.isclose(abs(polygon_area(poly)), 200.0, rel_tol=1e-9)

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=-5, max_value=5, allow_nan=False),
                st.floats(min_value=-5, max_value=5, allow_nan=False),
            ),
            min_size=2,
            max_size=8,
            unique=True,
        )
    )
    @settings(max_examples=50)
    # Sites 1e-12 apart: their bisector's normal has length 2e-12, so an
    # unnormalised clip cut the cell down to a sliver without the site.
    @example([(1e-12, 0.0), (0.5, 0.0), (0.0, 0.0)])
    def test_voronoi_cell_contains_site(self, pts):
        # The halfplane cell of the first site (bisectors toward all
        # others) must contain the site itself.
        site = pts[0]
        hs = [
            Halfplane.bisector_side(site, q)
            for q in pts[1:]
            if q != site
        ]
        poly = halfplane_intersection(hs, self.BBOX)
        if poly:
            assert point_in_convex_polygon(site, poly, eps=1e-7)
