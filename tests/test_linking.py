"""Linking-number tests: frozen linked pair, cone counting, viewpoint logic."""

import time
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from intrinsiclinks.errors import (
    GeneralPositionViolation,
    PolylinesNotDisjoint,
    SearchExhausted,
)
from intrinsiclinks import geometry, linking
from intrinsiclinks.geometry import (
    Point2,
    Point3,
    Triangle3,
    _integer_scaled,
    collinear3,
    gp_points3,
    orient3d,
    seg_hits_solid_triangle,
)
from intrinsiclinks.linking import (
    SpatialPolyline,
    _check_polyline,
    _cone_matrix,
    linking_mod2_cone,
    linking_mod2_sampled,
    polylines_disjoint,
    triangles_linked,
)
from intrinsiclinks.graphs import PlanarPolyline, complete_graph, make_cycle, make_embedding, make_graph
from intrinsiclinks.instances import gen_k6_points
from intrinsiclinks.invariants import oracle_count_linked_pairs
from intrinsiclinks.projection import find_general_projection, lk_from_diagram
from intrinsiclinks.rng import SplitMix64

from helpers import (
    check_unique_higher_side,
    cone_matrix_reference,
    higher_central_reference,
    linking_mod2_cone_reference,
    point_on_segment3,
    polyline_self_check_reference,
    polylines_disjoint_reference,
    seeded_apexes,
    through_reference,
    triangle_polygon,
    zigzag_ring,
)

coord = st.integers(min_value=-20, max_value=20)
points3 = st.builds(Point3, coord, coord, coord)

LINKED_A = Triangle3(Point3(1, 1, 0), Point3(-1, 2, 0), Point3(-1, -2, 0))
LINKED_B = Triangle3(Point3(0, 0, 2), Point3(0, 0, -2), Point3(5, 0, 1))
FAR = Triangle3(Point3(10, 10, 10), Point3(11, 13, 10), Point3(10, 11, 14))


def six_gp_points(draw_pts):
    return gp_points3(draw_pts)


@st.composite
def grid_polylines(draw):
    """Vertices on the grid [-2, 2]^3, whole or a third of it moved by 1/2,
    and whether the polyline is closed, passing every check of a polyline
    but the self-intersection one; sides often touch, cross or overlap."""
    grid = st.builds(Point3, *[st.integers(-2, 2)] * 3)
    k, shift = draw(st.sampled_from([(1, Point3(0, 0, 0)), (Fraction(1, 3), Point3(Fraction(1, 2), 0, 0))]))
    vertices = tuple(p.scale(k) + shift for p in draw(st.lists(grid, min_size=3, max_size=9)))
    closed = draw(st.booleans())
    try:
        _check_polyline(vertices, closed, collinear3)
    except ValueError:
        assume(False)
    return vertices, closed


def raised(build, *args):
    """The message of the ValueError `build(*args)` raises, or None."""
    try:
        build(*args)
    except ValueError as ex:
        return str(ex)
    return None


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

    @given(grid_polylines())
    @example(((Point3(0, 0, 0), Point3(4, 0, 0), Point3(4, 2, 0), Point3(2, -1, 0)), False))
    @example(((Point3(0, 0, 0), Point3(2, 0, 0), Point3(2, 1, 0), Point3(1, 0, 0), Point3(1, 1, 1)), False))
    @example(((Point3(0, 0, 0), Point3(2, 2, 0), Point3(2, 0, 0), Point3(0, 2, 0)), True))
    @settings(max_examples=400, deadline=None)
    def test_pruned_self_check_matches_every_pair(self, case):
        # the box-pruned check raises what a test of every pair raises
        vertices, closed = case
        assert raised(SpatialPolyline, vertices, closed) == raised(polyline_self_check_reference, vertices, closed)

    def test_closed_polygon_normalizes_straight_corners(self):
        square_plus = SpatialPolyline.through(
            [Point3(0, 0, 0), Point3(1, 0, 0), Point3(2, 0, 0), Point3(2, 2, 0), Point3(0, 2, 0)], closed=True
        )
        assert len(square_plus.vertices) == 4

    def test_open_polyline_drops_duplicates(self):
        arc = SpatialPolyline.through([Point3(0, 0, 0), Point3(0, 0, 0), Point3(1, 0, 0), Point3(1, 1, 0)])
        assert len(arc.vertices) == 3

    def test_closed_needs_three(self):
        with pytest.raises(ValueError):
            SpatialPolyline((Point3(0, 0, 0), Point3(1, 0, 0)), closed=True)


# each polyline class with its point from plane coordinates
KINDS = [(SpatialPolyline, lambda x, y: Point3(x, y, 0)), (PlanarPolyline, Point2)]


def built(build):
    """The polyline `build()` returns, or the type and message of what it raises."""
    try:
        return build()
    except Exception as ex:  # noqa: BLE001 - both sides must raise alike
        return type(ex).__name__, str(ex)


THROUGH_KINDS = [(SpatialPolyline, Point3), (PlanarPolyline, lambda x, y, z: Point2(x, y))]


@pytest.mark.parametrize("cls, P", THROUGH_KINDS, ids=["spatial", "planar"])
class TestThroughInOnePass:
    """`through` drops the straight corners in one pass, the ones the loop of
    `through_reference` drops by scanning again after each one."""

    @given(points=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 1)), max_size=12),
           closed=st.booleans())
    @example(points=[(0, 0, 0), (2, 0, 0), (1, 0, 0), (1, 1, 0)], closed=False)  # a fold-back
    @example(points=[(0, 0, 0), (0, 0, 0), (1, 0, 0), (2, 0, 0), (2, 2, 0), (2, 2, 0)], closed=False)  # repeats
    @example(points=[(1, 0, 0), (2, 0, 0), (2, 2, 0), (0, 0, 0), (1, 0, 0)], closed=True)  # straight at the seam
    @example(points=[(0, 0, 0), (1, 0, 0), (2, 0, 0), (1, 0, 0)], closed=True)  # a ring along one line
    @example(points=[(0, 1, 0), (0, 0, 0), (1, 0, 0), (2, 0, 0), (2, 1, 0), (1, 1, 0)], closed=True)
    @settings(max_examples=400, deadline=None)
    def test_matches_the_rescanning_loop(self, cls, P, points, closed):
        pts = [P(*c) for c in points]
        assert built(lambda: cls.through(pts, closed)) == built(lambda: through_reference(cls, pts, closed))

    def test_straightness_calls_grow_linearly(self, cls, P, monkeypatch):
        # n zigzag corners, then n points along one line: the loop of
        # `through_reference` scans the zigzag again after each drop
        calls = []
        straight = cls._straight
        monkeypatch.setattr(cls, "_straight", staticmethod(lambda u, v, w: calls.append(1) or straight(u, v, w)))
        counts = []
        for n in (200, 400):
            calls.clear()
            points = [P(i, i % 2, 0) for i in range(n)] + [P(n + i, (n - 1) % 2, 0) for i in range(n)]
            assert len(cls.through(points).vertices) == n + 1
            counts.append(len(calls))
        assert counts[0] <= 4 * 2 * 200 and counts[1] <= 2.1 * counts[0]


@pytest.mark.parametrize("cls, P", KINDS, ids=["spatial", "planar"])
class TestPolylineInvariantsBothKinds:
    def test_too_few_vertices(self, cls, P):
        with pytest.raises(ValueError, match="at least 2"):
            cls((P(0, 0),))
        with pytest.raises(ValueError, match="closed needs 3"):
            cls((P(0, 0), P(1, 0)), closed=True)

    def test_equal_consecutive_vertices(self, cls, P):
        with pytest.raises(ValueError, match="coincide"):
            cls((P(0, 0), P(0, 0), P(1, 1)))

    def test_closed_repeats_first_vertex(self, cls, P):
        with pytest.raises(ValueError, match="repeat its first"):
            cls((P(0, 0), P(1, 0), P(0, 1), P(0, 0)), closed=True)

    def test_straight_through_corner(self, cls, P):
        with pytest.raises(ValueError, match="index 1"):
            cls((P(0, 0), P(1, 0), P(2, 0), P(2, 1)))
        # wraps around: the corner at index 0 runs straight from the last vertex
        with pytest.raises(ValueError, match="index 0"):
            cls((P(1, 0), P(2, 0), P(2, 2), P(0, 0)), closed=True)
        assert len(cls((P(1, 0), P(2, 0), P(2, 2), P(0, 0))).vertices) == 4  # open: ends are free

    def test_through_drops_repeats_and_straight_corners(self, cls, P):
        arc = cls.through([P(0, 0), P(0, 0), P(1, 0), P(2, 0), P(2, 2), P(2, 2)])
        assert arc == cls((P(0, 0), P(2, 0), P(2, 2)))
        ring = cls.through([P(1, 0), P(2, 0), P(2, 2), P(0, 0), P(1, 0)], closed=True)
        assert ring == cls((P(2, 0), P(2, 2), P(0, 0)), closed=True)
        with pytest.raises(ValueError):
            cls.through([P(0, 0), P(1, 1), P(2, 2)], closed=True)

    def test_value_and_repr_name_the_kind(self, cls, P):
        arc = cls((P(0, 0), P(1, 1)))
        assert arc == cls([P(0, 0), P(1, 1)]) and hash(arc) == hash(cls((P(0, 0), P(1, 1))))
        assert repr(arc).startswith(f"{cls.__name__}(vertices=(")
        assert arc.vertices == (P(0, 0), P(1, 1)) and not arc.closed

    def test_self_crossing(self, cls, P):
        figure_four = (P(0, 0), P(4, 0), P(4, 2), P(2, -1))
        if cls is SpatialPolyline:
            with pytest.raises(ValueError, match="self-intersection"):
                cls(figure_four)
        else:
            assert len(cls(figure_four).sides()) == 3  # a drawing's route may cross itself


def test_spatial_never_equals_planar():
    assert SpatialPolyline((Point3(0, 0, 0), Point3(1, 1, 1))) != PlanarPolyline((Point2(0, 0), Point2(1, 1)))


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
    """The sight-line test that `linear_analysis_reference` recomputes the
    linear finder's ledger with."""

    def test_front_segment_wins(self):
        o = Point3(0, 0, 10)
        near = (Point3(-1, 1, 5), Point3(1, -1, 5))
        far = (Point3(-1, -1, 1), Point3(1, 1, 1))
        assert higher_central_reference(o, near, far)
        assert not higher_central_reference(o, far, near)

    def test_no_common_ray(self):
        o = Point3(0, 0, 10)
        a = (Point3(5, 5, 1), Point3(6, 7, 2))
        b = (Point3(-5, -5, 1), Point3(-6, -7, 3))
        assert not higher_central_reference(o, a, b)
        assert not higher_central_reference(o, b, a)

    def test_degenerate_viewpoint_raises(self):
        o = Point3(0, 0, 0)
        a = (Point3(1, 0, 0), Point3(0, 1, 0))
        b = (Point3(2, 0, 0), Point3(0, 2, 0))  # coplanar with o and a
        with pytest.raises(GeneralPositionViolation):
            higher_central_reference(o, a, b)

    @given(st.lists(points3, min_size=5, max_size=5, unique=True))
    @settings(max_examples=150)
    def test_never_both_in_front(self, pts):
        assume(gp_points3(pts))
        o = pts[0]
        a = (pts[1], pts[2])
        b = (pts[3], pts[4])
        assert not (higher_central_reference(o, a, b) and higher_central_reference(o, b, a))


class TestUniqueHigherSide:
    def test_matches_hull_crossing_for_frozen_pair(self):
        for e in LINKED_A.sides():
            assert check_unique_higher_side(LINKED_A, e, LINKED_B)
        for e in FAR.sides():
            assert not check_unique_higher_side(FAR, e, LINKED_A)

    def test_side_must_belong_to_triangle(self):
        with pytest.raises(ValueError):
            check_unique_higher_side(LINKED_A, (Point3(9, 9, 9), Point3(8, 8, 7)), LINKED_B)

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
    """Apexes in and out of general position: cone counting is exact from
    each, including those the pair makes degenerate."""

    a = triangle_polygon(LINKED_A)
    b = triangle_polygon(LINKED_B)
    far = triangle_polygon(FAR)

    def test_good_apex(self):
        assert linking_mod2_cone(self.a, self.b, Point3(3, 7, 9)) == 1

    def test_apex_at_polygon_vertex_counts_exactly(self):
        assert Point3(1, 1, 0) in self.a.vertices
        assert linking_mod2_cone(self.a, self.b, Point3(1, 1, 0)) == 1
        assert linking_mod2_cone(self.b, self.a, Point3(1, 1, 0)) == 1

    def test_apex_on_side_line_counts_exactly(self):
        # on the line through (1,1,0) and (-1,2,0): that cone triangle is flat
        apex = Point3(3, 0, 0)
        assert collinear3(apex, Point3(1, 1, 0), Point3(-1, 2, 0))
        assert linking_mod2_cone(self.a, self.b, apex) == 1
        assert linking_mod2_cone(self.a, self.far, apex) == 0

    def test_apex_with_spoke_through_b_counts_exactly(self):
        # (0,0,0) is on b's vertical side, so the spoke from (-1,-1,0) to the
        # vertex (1,1,0) of a passes through b
        apex = Point3(-1, -1, 0)
        assert point_on_segment3(Point3(0, 0, 0), (apex, Point3(1, 1, 0)))
        assert linking_mod2_cone(self.a, self.b, apex) == 1

    def test_vertex_of_b_on_cone_plane_counts_exactly(self):
        # the vertex (5,0,1) of b lies in the plane of the cone triangle over
        # the side (1,1,0)-(-1,2,0): outside the triangle, inside it, and on
        # its spoke to (1,1,0)
        side = (Point3(1, 1, 0), Point3(-1, 2, 0))
        for apex in (Point3(1, 2, 1), Point3(10, Fraction(-3, 2), 2), Point3(9, -1, 2)):
            assert orient3d(apex, *side, Point3(5, 0, 1)) == 0
            assert linking_mod2_cone(self.a, self.b, apex) == 1

    def test_apex_on_other_polygon_counts_exactly(self):
        # the origin is on b's vertical side; (5,0,1) is a vertex of b
        for apex in (Point3(0, 0, 0), Point3(5, 0, 1)):
            assert linking_mod2_cone(self.a, self.b, apex) == 1
            assert linking_mod2_cone(self.a, self.far, apex) == 0

    def test_open_polyline_rejected(self):
        arc = SpatialPolyline.through([Point3(0, 0, 1), Point3(1, 0, 0), Point3(1, 1, 1)])
        with pytest.raises(ValueError):
            linking_mod2_cone(self.a, arc, Point3(5, 5, 5))


class TestLinkingMod2Cone:
    a = triangle_polygon(LINKED_A)
    b = triangle_polygon(LINKED_B)
    far = triangle_polygon(FAR)

    def test_linked_pair_is_odd(self):
        assert linking_mod2_cone(self.a, self.b, Point3(3, 7, 9)) == 1

    def test_unlinked_pair_is_even(self):
        for apex in seeded_apexes(SplitMix64(7)):
            assert linking_mod2_cone(self.a, self.far, apex) == 0

    def test_bad_apex_counts_exactly(self):
        # (3,0,0) is on the line of a's side (1,1,0)-(-1,2,0); its cone over
        # either polygon still gives the pair's parity, in both orders
        apex = Point3(3, 0, 0)
        assert linking_mod2_cone(self.a, self.b, apex) == 1
        assert linking_mod2_cone(self.b, self.a, apex) == 1
        assert linking_mod2_cone(self.far, self.a, apex) == 0

    def test_sharing_polygons_raise(self):
        shifted = SpatialPolyline.through([Point3(1, 1, 0), Point3(5, 1, 1), Point3(5, -1, -1)], closed=True)
        with pytest.raises(PolylinesNotDisjoint):
            linking_mod2_cone(self.a, shifted, Point3(3, 7, 9))

    def test_apex_sampling_deterministic(self):
        # the drawn apex depends on the seed only, and one apex is drawn
        r1, r2 = SplitMix64(123), SplitMix64(123)
        assert linking_mod2_sampled(self.a, self.b, r1) == linking_mod2_sampled(self.a, self.b, r2)
        reference = SplitMix64(123)
        seeded_apexes(reference, 1)
        assert r1.next_u64() == r2.next_u64() == reference.next_u64()

    def test_collinear_sides_counted_exactly(self):
        # the side (0,0,0)-(1,0,0) of one triangle and (2,0,0)-(3,0,0) of the
        # other lie on one line, so every apex sees them in one cone plane
        first = SpatialPolyline.through([Point3(0, 0, 0), Point3(1, 0, 0), Point3(0, 1, 0)], closed=True)
        second = SpatialPolyline.through([Point3(2, 0, 0), Point3(3, 0, 0), Point3(2, 0, 1)], closed=True)
        for apex in [Point3(0, 0, 0), Point3(5, 0, 0), Point3(1, 1, 1)] + seeded_apexes(SplitMix64(0)):
            assert linking_mod2_cone(first, second, apex) == 0
            assert linking_mod2_cone(second, first, apex) == 0

    def test_cone_test_budget(self, monkeypatch):
        # two triangles: 3 * 3 side-pair cone tests, refused past the budget before the first
        tests = []
        monkeypatch.setattr(linking, "_cone_passes", lambda points, rel, u, v, sides: tests.extend(sides) or 0)
        monkeypatch.setattr(linking, "CONE_TEST_BUDGET", 9)
        assert linking_mod2_cone(self.a, self.b, Point3(3, 7, 9)) == 0 and len(tests) == 9
        monkeypatch.setattr(linking, "CONE_TEST_BUDGET", 8)
        for count in (lambda: linking_mod2_cone(self.a, self.b, Point3(3, 7, 9)),
                      lambda: linking_mod2_sampled(self.a, self.b, SplitMix64(0))):
            with pytest.raises(SearchExhausted, match="^9 side-pair cone tests exceed the budget of 8$"):
                count()
        assert len(tests) == 9

    def test_rings_past_the_budget_are_refused(self):
        # 1,004 * 1,004 side pairs pass the box-pruned disjointness test, then exceed 10^6
        a, b = zigzag_ring(1004, 0), zigzag_ring(1004, 1)
        with pytest.raises(SearchExhausted, match="^1008016 side-pair cone tests exceed the budget of 1000000$"):
            linking_mod2_sampled(a, b, SplitMix64(0))

    @given(st.lists(points3, min_size=6, max_size=6, unique=True), st.integers(0, 2**32))
    @settings(max_examples=100, deadline=None)
    def test_cone_count_matches_hull_crossing(self, pts, seed):
        # the two independent routes to the linking bit must agree
        assume(gp_points3(pts))
        t1 = Triangle3(*pts[:3])
        t2 = Triangle3(*pts[3:])
        p1, p2 = triangle_polygon(t1), triangle_polygon(t2)
        (apex,) = seeded_apexes(SplitMix64(seed), 1)
        bit = linking_mod2_cone(p1, p2, apex)
        assert bit == int(triangles_linked(t1, t2))

    @given(st.lists(points3, min_size=6, max_size=6, unique=True), st.integers(0, 2**32))
    @settings(max_examples=60, deadline=None)
    def test_apex_independence_and_symmetry(self, pts, seed):
        assume(gp_points3(pts))
        p1 = triangle_polygon(Triangle3(*pts[:3]))
        p2 = triangle_polygon(Triangle3(*pts[3:]))
        apex1, apex2, apex3 = seeded_apexes(SplitMix64(seed))
        bit1 = linking_mod2_cone(p1, p2, apex1)
        assert linking_mod2_cone(p1, p2, apex2) == bit1
        assert linking_mod2_cone(p2, p1, apex3) == bit1
        # apexes the pair itself makes degenerate: its vertices and the
        # midpoints of its sides
        for v in p1.vertices + p2.vertices:
            assert linking_mod2_cone(p1, p2, v) == bit1
        for s in p1.sides():
            assert linking_mod2_cone(p1, p2, (s[0] + s[1]).scale(Fraction(1, 2))) == bit1


TWO_TRIANGLES = make_graph(
    ("t1", "t2", "t3", "u1", "u2", "u3"),
    (("t1", "t2"), ("t2", "t3"), ("t1", "t3"), ("u1", "u2"), ("u2", "u3"), ("u1", "u3")),
)
small = st.integers(min_value=-3, max_value=3)
grid_points3 = st.builds(Point3, small, small, small)
rational = st.builds(Fraction, st.integers(-400, 400), st.integers(1, 40))
rat_points3 = st.builds(Point3, rational, rational, rational)
# coordinates near 2^100, whole and rational
huge = st.builds(lambda k, q: Fraction(2**100 + k, q), st.integers(-60, 60), st.integers(1, 7))
huge_points3 = st.builds(Point3, huge, huge, huge)


def diagram_bit(pts, seed):
    """The diagram route: mod-2 linking read off a generic projection."""
    emb = make_embedding(TWO_TRIANGLES, dict(zip(TWO_TRIANGLES.vertices, pts)))
    diag = find_general_projection(emb, seed=seed)
    c1 = make_cycle(TWO_TRIANGLES, ("t1", "t2", "t3"))
    c2 = make_cycle(TWO_TRIANGLES, ("u1", "u2", "u3"))
    return lk_from_diagram(diag, c1, c2)


class TestTwoRouteAgreement:
    """Cone counting, the direct triangle test and the diagram route give the
    same bit beyond small integers: on rationals, near 2^100, and on a small
    grid where the apex and the pair are often degenerate."""

    @staticmethod
    def check_three_routes(pts, seed):
        assume(gp_points3(pts))
        p1, p2 = (SpatialPolyline.through(half, closed=True) for half in (pts[:3], pts[3:]))
        reference = int(triangles_linked(Triangle3(*pts[:3]), Triangle3(*pts[3:])))
        for apex in seeded_apexes(SplitMix64(seed)) + [pts[0], pts[3]]:
            assert linking_mod2_cone(p1, p2, apex) == reference
        assert diagram_bit(pts, seed) == reference

    @given(st.lists(rat_points3, min_size=6, max_size=6, unique=True), st.integers(0, 2**32))
    @settings(max_examples=40, deadline=None)
    def test_rational_coordinates(self, pts, seed):
        self.check_three_routes(pts, seed)

    @given(st.lists(huge_points3, min_size=6, max_size=6, unique=True), st.integers(0, 2**32))
    @settings(max_examples=40, deadline=None)
    def test_coordinates_near_2_100(self, pts, seed):
        self.check_three_routes(pts, seed)

    @given(st.lists(grid_points3, min_size=6, max_size=6, unique=True), grid_points3)
    @settings(max_examples=150, deadline=None)
    def test_degenerate_grid_pairs(self, pts, apex):
        # no general position asked of the pair: only disjoint, non-flat triangles
        assume(not collinear3(*pts[:3]) and not collinear3(*pts[3:]))
        p1, p2 = (SpatialPolyline.through(half, closed=True) for half in (pts[:3], pts[3:]))
        assume(polylines_disjoint(p1, p2))
        bit = diagram_bit(pts, 0)
        assert linking_mod2_cone(p1, p2, apex) == bit
        assert linking_mod2_cone(p2, p1, apex) == bit


HALF = st.integers(-3, 3).map(lambda k: Fraction(k, 2))


@st.composite
def tied_chains(draw, chains=(2, 4), corners=(2, 4)):
    """An integer apex and broken lines on the half-integer grid centred on
    it, with one tie forced: the apex on a corner, on the line of a side, or
    in the plane of a side and a corner of the next line."""
    apex = draw(grid_points3)
    offset = st.tuples(HALF, HALF, HALF).map(lambda o: apex + Point3(*o))
    lines = draw(st.lists(st.lists(offset, min_size=corners[0], max_size=corners[1]),
                          min_size=chains[0], max_size=chains[1]))
    e = draw(st.integers(0, len(lines) - 1))
    k = draw(st.integers(0, len(lines[e]) - 2))
    p, q = lines[e][k], lines[e][k + 1]
    tie = draw(st.sampled_from(["corner", "line", "plane"]))
    if tie == "corner":
        lines[e][k] = apex
    elif tie == "line":
        lines[e][k + 1] = apex + (p - apex).scale(draw(st.sampled_from([-1, Fraction(1, 2), 2])))
    else:
        other = lines[(e + 1) % len(lines)]
        other[draw(st.integers(0, len(other) - 1))] = apex + (p - apex).scale(draw(HALF)) + (q - apex).scale(draw(HALF))
    assume(all(c[i] != c[i + 1] for c in lines for i in range(len(c) - 1)))
    return apex, lines


def integer_scaled(apex: Point3, chains) -> tuple:
    """The apex and the chains as the coordinates `_cone_matrix` reads: all
    scaled to integers by one lcm, as its callers scale them."""
    points = _integer_scaled([p.coords() for p in (apex, *(p for chain in chains for p in chain))])
    out, k = [], 1
    for chain in chains:
        out.append(points[k : k + len(chain)])
        k += len(chain)
    return points[0], out


class TestConeKernelMatchesReference:
    """The dot-product cone kernel against the all-`orient3d_sos` reference
    on tied configurations, where some dot products are 0 and the kernel
    must fall back to `orient3d_sos` with the same sign."""

    @staticmethod
    def count_fallbacks(monkeypatch) -> list:
        calls = []
        real = linking._orient3_sos
        monkeypatch.setattr(linking, "_orient3_sos", lambda *args: calls.append(args) or real(*args))
        return calls

    def test_matrix_matches_reference(self, monkeypatch):
        calls, fired = self.count_fallbacks(monkeypatch), []

        @settings(max_examples=300, deadline=None)
        @given(tied_chains())
        def check(case):
            apex, chains = case
            disjoint = [[f for f, theirs in enumerate(chains) if f != e and set(mine).isdisjoint(theirs)]
                        for e, mine in enumerate(chains)]
            before = len(calls)
            assert _cone_matrix(*integer_scaled(apex, chains), disjoint) == cone_matrix_reference(apex, chains, disjoint)
            fired.append(len(calls) > before)

        check()
        assert sum(fired) >= len(fired) // 4

    def test_linking_mod2_cone_matches_reference(self, monkeypatch):
        calls, fired = self.count_fallbacks(monkeypatch), []

        @settings(max_examples=200, deadline=None)
        @given(tied_chains(chains=(2, 2), corners=(3, 5)))
        def check(case):
            apex, (first, second) = case
            try:
                a, b = (SpatialPolyline.through(c, closed=True) for c in (first, second))
            except ValueError:
                assume(False)
            assume(polylines_disjoint(a, b))
            before = len(calls)
            assert linking_mod2_cone(a, b, apex) == linking_mod2_cone_reference(a, b, apex)
            assert linking_mod2_cone(b, a, apex) == linking_mod2_cone_reference(b, a, apex)
            fired.append(len(calls) > before)

        check()
        assert sum(fired) >= len(fired) // 4


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
        assert bit == linking_mod2_cone(p1, p2, seeded_apexes(rng_split, 1)[0])
        # same draws: both generators are left in the same state
        assert rng_sampled.next_u64() == rng_split.next_u64()

    def test_linked_and_unlinked(self):
        assert linking_mod2_sampled(self.a, self.b, SplitMix64(0)) == 1
        assert linking_mod2_sampled(self.a, triangle_polygon(FAR), SplitMix64(0)) == 0

    def test_touching_polygons_raise(self):
        touching = SpatialPolyline.through([Point3(1, 1, 0), Point3(2, 3, 1), Point3(4, 0, -1)], closed=True)
        with pytest.raises(PolylinesNotDisjoint):
            linking_mod2_sampled(self.a, touching, SplitMix64(0))

    def test_open_polyline_rejected(self):
        arc = SpatialPolyline.through([Point3(0, 0, 1), Point3(1, 0, 0), Point3(1, 1, 1)])
        with pytest.raises(ValueError):
            linking_mod2_sampled(self.a, arc, SplitMix64(0))

    def test_oracle_builds_no_triangle(self, monkeypatch):
        built = []
        original = geometry.Triangle3.__init__

        def spy(self, *args, **kwargs):
            built.append(args)
            original(self, *args, **kwargs)

        monkeypatch.setattr(geometry.Triangle3, "__init__", spy)
        # the spy sees every construction
        geometry.Triangle3(Point3(0, 0, 0), Point3(1, 0, 0), Point3(0, 1, 0))
        assert len(built) == 1
        built.clear()
        k6 = make_embedding(
            complete_graph(6), {f"v{i}": p for i, p in enumerate(gen_k6_points(3), start=1)}
        )
        result = oracle_count_linked_pairs(k6, 3, 3, seed=3)
        assert result.total_pairs == 10
        assert built == []

    def test_collinear_side_pair_oracle(self):
        # two triangles with a side each on the x-axis: the old apex search
        # found no apex for this pair
        emb = make_embedding(TWO_TRIANGLES, dict(zip(TWO_TRIANGLES.vertices, [
            Point3(0, 0, 0), Point3(1, 0, 0), Point3(0, 1, 0),
            Point3(2, 0, 0), Point3(3, 0, 0), Point3(2, 0, 1),
        ])))
        start = time.perf_counter()
        result = oracle_count_linked_pairs(emb, 3, 3, seed=0)
        assert time.perf_counter() - start < 1.0
        assert (result.count, result.total_pairs) == (0, 1)


class TestPolylinesDisjoint:
    def test_disjoint(self):
        assert polylines_disjoint(triangle_polygon(LINKED_A), triangle_polygon(LINKED_B))

    def test_touching(self):
        other = SpatialPolyline.through([Point3(1, 1, 0), Point3(2, 3, 1), Point3(4, 0, -1)], closed=True)
        assert not polylines_disjoint(triangle_polygon(LINKED_A), other)

    @given(grid_polylines(), grid_polylines())
    @example(((Point3(0, 0, 0), Point3(2, 0, 0), Point3(2, 2, 0)), False),
             ((Point3(1, 0, 0), Point3(1, 1, 1), Point3(3, 1, 1)), False))  # an end inside a side
    @example(((Point3(0, 0, 0), Point3(2, 0, 0), Point3(2, 2, 0)), True),
             ((Point3(1, 0, 0), Point3(3, 0, 0), Point3(3, -1, 1)), False))  # a collinear overlap
    @settings(max_examples=300, deadline=None)
    def test_matches_every_pair(self, first, second):
        # the box-pruned test answers what a test of every side pair answers
        assume(raised(SpatialPolyline, *first) is None and raised(SpatialPolyline, *second) is None)
        a, b = SpatialPolyline(*first), SpatialPolyline(*second)
        assert polylines_disjoint(a, b) == polylines_disjoint_reference(a, b)
        assert polylines_disjoint(b, a) == polylines_disjoint(a, b)

    def test_meet3_calls_grow_linearly(self, monkeypatch):
        """Two disjoint zigzag rings of n and 2n sides: only the pairs across
        whose boxes meet are tested, about three per side, not n^2."""
        rings = [(zigzag_ring(n, 0), zigzag_ring(n, 1)) for n in (200, 400)]
        calls = []
        original = linking._meet3
        monkeypatch.setattr(linking, "_meet3", lambda s, t: calls.append(1) or original(s, t))
        counts = []
        for a, b in rings:
            calls.clear()
            assert polylines_disjoint(a, b)
            counts.append(len(calls))
        assert 0 < counts[0] <= 4 * 200
        assert counts[1] <= 2 * counts[0]
