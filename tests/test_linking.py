"""Linking-number tests: frozen linked pair, cone counting, viewpoint logic."""

import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from intrinsiclinks.errors import (
    ApexNotGeneral,
    GeneralPositionViolation,
    NonGenericViewpoint,
    PolylinesNotDisjoint,
)
from intrinsiclinks.geometry import Point3, Segment3, Triangle3, gp_points3, seg_hits_solid_triangle
from intrinsiclinks.linking import (
    SpatialPolyline,
    apex_general_position,
    check_unique_higher_side,
    closed_polygon,
    higher_central,
    linking_mod2_cone,
    linking_mod2_sampled,
    open_polyline,
    polylines_disjoint,
    sample_general_apex,
    triangle_polygon,
    triangles_linked,
)
from intrinsiclinks import linking
from intrinsiclinks.graphs import complete_graph, make_embedding
from intrinsiclinks.instances import gen_k6_points
from intrinsiclinks.invariants import oracle_count_linked_pairs
from intrinsiclinks.rng import SplitMix64

coord = st.integers(min_value=-20, max_value=20)
points3 = st.builds(Point3, coord, coord, coord)

LINKED_A = Triangle3(Point3(1, 1, 0), Point3(-1, 2, 0), Point3(-1, -2, 0))
LINKED_B = Triangle3(Point3(0, 0, 2), Point3(0, 0, -2), Point3(5, 0, 1))
FAR = Triangle3(Point3(10, 10, 10), Point3(11, 13, 10), Point3(10, 11, 14))


def six_gp_points(draw_pts):
    return gp_points3(draw_pts)


class TestPolylineConstruction:
    def test_open_and_closed_basic(self):
        arc = SpatialPolyline((Point3(0, 0, 0), Point3(1, 0, 0), Point3(1, 1, 0)))
        assert len(arc.sides()) == 2
        ring = SpatialPolyline((Point3(0, 0, 0), Point3(1, 0, 0), Point3(0, 1, 0)), closed=True)
        assert len(ring.sides()) == 3

    def test_straight_through_vertex_rejected(self):
        with pytest.raises(ValueError):
            SpatialPolyline((Point3(0, 0, 0), Point3(1, 0, 0), Point3(2, 0, 0)))

    def test_repeated_vertex_rejected(self):
        with pytest.raises(ValueError):
            SpatialPolyline((Point3(0, 0, 0), Point3(0, 0, 0), Point3(1, 1, 0)))

    def test_self_intersection_rejected(self):
        # a figure-four arc whose last side stabs back through the first
        with pytest.raises(ValueError):
            SpatialPolyline(
                (Point3(0, 0, 0), Point3(4, 0, 0), Point3(4, 2, 0), Point3(2, -1, 0))
            )

    def test_closed_polygon_normalizes_straight_corners(self):
        square_plus = closed_polygon(
            [Point3(0, 0, 0), Point3(1, 0, 0), Point3(2, 0, 0), Point3(2, 2, 0), Point3(0, 2, 0)]
        )
        assert len(square_plus.vertices) == 4

    def test_open_polyline_drops_duplicates(self):
        arc = open_polyline([Point3(0, 0, 0), Point3(0, 0, 0), Point3(1, 0, 0), Point3(1, 1, 0)])
        assert len(arc.vertices) == 3

    def test_closed_needs_three(self):
        with pytest.raises(ValueError):
            SpatialPolyline((Point3(0, 0, 0), Point3(1, 0, 0)), closed=True)


class TestTrianglesLinked:
    def test_frozen_linked_pair(self):
        assert triangles_linked(LINKED_A, LINKED_B)

    def test_frozen_pair_side_counts(self):
        # exactly one side of B crosses conv(A): the vertical side, at the origin
        hits = [seg_hits_solid_triangle(s, LINKED_A) for s in LINKED_B.sides()]
        assert hits == [1, 0, 0]

    def test_frozen_pair_symmetric(self):
        assert triangles_linked(LINKED_B, LINKED_A)

    def test_far_pair_unlinked(self):
        assert not triangles_linked(LINKED_A, FAR)

    def test_coplanar_input_raises(self):
        flat = Triangle3(Point3(3, 3, 0), Point3(4, 3, 0), Point3(3, 4, 0))
        with pytest.raises(GeneralPositionViolation):
            triangles_linked(LINKED_A, flat)

    @given(st.lists(points3, min_size=6, max_size=6, unique=True))
    @settings(max_examples=150)
    def test_symmetry(self, pts):
        assume(gp_points3(pts))
        t1 = Triangle3(*pts[:3])
        t2 = Triangle3(*pts[3:])
        assert triangles_linked(t1, t2) == triangles_linked(t2, t1)


class TestHigherCentral:
    def test_front_segment_wins(self):
        o = Point3(0, 0, 10)
        near = Segment3(Point3(-1, 1, 5), Point3(1, -1, 5))
        far = Segment3(Point3(-1, -1, 1), Point3(1, 1, 1))
        assert higher_central(o, near, far)
        assert not higher_central(o, far, near)

    def test_no_common_ray(self):
        o = Point3(0, 0, 10)
        a = Segment3(Point3(5, 5, 1), Point3(6, 7, 2))
        b = Segment3(Point3(-5, -5, 1), Point3(-6, -7, 3))
        assert not higher_central(o, a, b)
        assert not higher_central(o, b, a)

    def test_degenerate_viewpoint_raises(self):
        o = Point3(0, 0, 0)
        a = Segment3(Point3(1, 0, 0), Point3(0, 1, 0))
        b = Segment3(Point3(2, 0, 0), Point3(0, 2, 0))  # coplanar with o and a
        with pytest.raises(NonGenericViewpoint):
            higher_central(o, a, b)

    @given(st.lists(points3, min_size=5, max_size=5, unique=True))
    @settings(max_examples=150)
    def test_never_both_in_front(self, pts):
        assume(gp_points3(pts))
        o = pts[0]
        a = Segment3(pts[1], pts[2])
        b = Segment3(pts[3], pts[4])
        assert not (higher_central(o, a, b) and higher_central(o, b, a))


class TestUniqueHigherSide:
    def test_matches_hull_crossing_for_frozen_pair(self):
        for e in LINKED_A.sides():
            assert check_unique_higher_side(LINKED_A, e, LINKED_B)
        for e in FAR.sides():
            assert not check_unique_higher_side(FAR, e, LINKED_A)

    def test_side_must_belong_to_triangle(self):
        with pytest.raises(ValueError):
            check_unique_higher_side(LINKED_A, Segment3(Point3(9, 9, 9), Point3(8, 8, 7)), LINKED_B)

    @given(st.lists(points3, min_size=6, max_size=6, unique=True))
    @settings(max_examples=100)
    def test_agrees_with_triangles_linked_for_every_side(self, pts):
        # the number of sides of `other` in front of e equals the number of
        # crossings of `other` through the solid triangle, for any side e
        assume(gp_points3(pts))
        tri = Triangle3(*pts[:3])
        other = Triangle3(*pts[3:])
        expected = triangles_linked(tri, other)
        for e in tri.sides():
            assert check_unique_higher_side(tri, e, other) == expected


class TestApexGeneralPosition:
    a = triangle_polygon(LINKED_A)
    b = triangle_polygon(LINKED_B)

    def test_good_apex(self):
        assert apex_general_position(Point3(3, 7, 9), self.a, self.b)

    def test_apex_at_polygon_vertex_rejected(self):
        assert not apex_general_position(Point3(1, 1, 0), self.a, self.b)

    def test_apex_collinear_with_side_rejected(self):
        # on the line through (1,1,0) and (-1,2,0)
        assert not apex_general_position(Point3(3, 0, 0), self.a, self.b)

    def test_apex_with_spoke_through_b_rejected(self):
        # apex placed so the spoke to vertex (1,1,0) passes through b's vertical side:
        # (0,0,0) is on that side, so apex = (-1,-1,0) sees the spoke hit it
        assert not apex_general_position(Point3(-1, -1, 0), self.a, self.b)

    def test_open_polyline_rejected(self):
        arc = open_polyline([Point3(0, 0, 1), Point3(1, 0, 0), Point3(1, 1, 1)])
        with pytest.raises(ValueError):
            apex_general_position(Point3(5, 5, 5), self.a, arc)


class TestLinkingMod2Cone:
    a = triangle_polygon(LINKED_A)
    b = triangle_polygon(LINKED_B)
    far = triangle_polygon(FAR)

    def test_linked_pair_is_odd(self):
        assert linking_mod2_cone(self.a, self.b, Point3(3, 7, 9)) == 1

    def test_unlinked_pair_is_even(self):
        apex = sample_general_apex(self.a, self.far, SplitMix64(7))
        assert linking_mod2_cone(self.a, self.far, apex) == 0

    def test_bad_apex_raises(self):
        with pytest.raises(ApexNotGeneral):
            linking_mod2_cone(self.a, self.b, Point3(3, 0, 0))

    def test_sharing_polygons_raise(self):
        shifted = closed_polygon([Point3(1, 1, 0), Point3(5, 1, 1), Point3(5, -1, -1)])
        with pytest.raises(PolylinesNotDisjoint):
            linking_mod2_cone(self.a, shifted, Point3(3, 7, 9))

    def test_apex_sampling_deterministic(self):
        a1 = sample_general_apex(self.a, self.b, SplitMix64(123))
        a2 = sample_general_apex(self.a, self.b, SplitMix64(123))
        assert a1 == a2

    @given(st.lists(points3, min_size=6, max_size=6, unique=True), st.integers(0, 2**32))
    @settings(max_examples=100, deadline=None)
    def test_cone_count_matches_hull_crossing(self, pts, seed):
        # the two independent routes to the linking bit must agree
        assume(gp_points3(pts))
        t1 = Triangle3(*pts[:3])
        t2 = Triangle3(*pts[3:])
        p1, p2 = triangle_polygon(t1), triangle_polygon(t2)
        rng = SplitMix64(seed)
        apex = sample_general_apex(p1, p2, rng)
        bit = linking_mod2_cone(p1, p2, apex)
        assert bit == int(triangles_linked(t1, t2))

    @given(st.lists(points3, min_size=6, max_size=6, unique=True), st.integers(0, 2**32))
    @settings(max_examples=60, deadline=None)
    def test_apex_independence_and_symmetry(self, pts, seed):
        assume(gp_points3(pts))
        p1 = triangle_polygon(Triangle3(*pts[:3]))
        p2 = triangle_polygon(Triangle3(*pts[3:]))
        rng = SplitMix64(seed)
        apex1 = sample_general_apex(p1, p2, rng)
        apex2 = sample_general_apex(p1, p2, rng)
        bit1 = linking_mod2_cone(p1, p2, apex1)
        assert linking_mod2_cone(p1, p2, apex2) == bit1
        apex3 = sample_general_apex(p2, p1, rng)
        assert linking_mod2_cone(p2, p1, apex3) == bit1


class TestLinkingMod2Sampled:
    a = triangle_polygon(LINKED_A)
    b = triangle_polygon(LINKED_B)

    @given(st.lists(points3, min_size=6, max_size=6, unique=True), st.integers(0, 2**32))
    @settings(max_examples=60, deadline=None)
    def test_matches_sample_then_cone(self, pts, seed):
        assume(gp_points3(pts))
        p1 = triangle_polygon(Triangle3(*pts[:3]))
        p2 = triangle_polygon(Triangle3(*pts[3:]))
        rng_sampled, rng_split = SplitMix64(seed), SplitMix64(seed)
        bit = linking_mod2_sampled(p1, p2, rng_sampled)
        assert bit == linking_mod2_cone(p1, p2, sample_general_apex(p1, p2, rng_split))
        # same draws: both generators are left in the same state
        assert rng_sampled.next_u64() == rng_split.next_u64()

    def test_linked_and_unlinked(self):
        assert linking_mod2_sampled(self.a, self.b, SplitMix64(0)) == 1
        assert linking_mod2_sampled(self.a, triangle_polygon(FAR), SplitMix64(0)) == 0

    def test_touching_polygons_raise(self):
        touching = closed_polygon([Point3(1, 1, 0), Point3(2, 3, 1), Point3(4, 0, -1)])
        with pytest.raises(PolylinesNotDisjoint):
            linking_mod2_sampled(self.a, touching, SplitMix64(0))

    def test_open_polyline_rejected(self):
        arc = open_polyline([Point3(0, 0, 1), Point3(1, 0, 0), Point3(1, 1, 1)])
        with pytest.raises(ValueError):
            linking_mod2_sampled(self.a, arc, SplitMix64(0))

    def test_oracle_certifies_each_apex_once(self, monkeypatch):
        original = linking.apex_general_position
        callers = []

        def spy(apex, a, b):
            callers.append(sys._getframe(1).f_code.co_name)
            return original(apex, a, b)

        monkeypatch.setattr(linking, "apex_general_position", spy)
        k6 = make_embedding(
            complete_graph(6), {f"v{i}": p for i, p in enumerate(gen_k6_points(3), start=1)}
        )
        result = oracle_count_linked_pairs(k6, 3, 3, seed=3)
        assert result.total_pairs == 10
        assert callers and set(callers) == {"sample_general_apex"}


class TestPolylinesDisjoint:
    def test_disjoint(self):
        assert polylines_disjoint(triangle_polygon(LINKED_A), triangle_polygon(LINKED_B))

    def test_touching(self):
        other = closed_polygon([Point3(1, 1, 0), Point3(2, 3, 1), Point3(4, 0, -1)])
        assert not polylines_disjoint(triangle_polygon(LINKED_A), other)
