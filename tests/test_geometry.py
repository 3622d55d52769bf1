"""Exact-predicate tests: frozen examples plus algebraic properties."""

from fractions import Fraction
from itertools import combinations, permutations
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intrinsiclinks.errors import ParseError
from intrinsiclinks.geometry import (
    NON_GENERIC,
    OVERLAP,
    Point2,
    Point3,
    Triangle3,
    _collinear3,
    _meet3,
    _on_side3,
    _orient3,
    _orient3_sos,
    collinear3,
    gp_points2,
    gp_points3,
    key_point,
    orient2d,
    orient3d,
    orient3d_sos,
    parse_rational,
    rational_str,
    seg_hits_solid_triangle,
)
from intrinsiclinks.graphs import PlanarPolyline
from intrinsiclinks.linking import SpatialPolyline

from helpers import (
    cross3,
    dot3,
    is_zero3,
    meet_point3,
    meet_segments3,
    point_on_segment2,
    point_on_segment3,
    seg_intersect2,
    seg_intersect2_four_signs,
    segment_param,
)

coord = st.integers(min_value=-50, max_value=50)
frac = st.builds(Fraction, st.integers(-400, 400), st.integers(1, 40))
points2 = st.builds(Point2, coord, coord)
points3 = st.builds(Point3, coord, coord, coord)
rat_points2 = st.builds(Point2, frac, frac)
rat_points3 = st.builds(Point3, frac, frac, frac)
# coordinates near 2^100, whole and rational
huge = st.builds(lambda k, q: Fraction(2**100 + k, q), st.integers(-60, 60), st.integers(1, 7))
huge_points3 = st.builds(Point3, huge, huge, huge)
# two segments on one family of points: a small grid, where shared,
# collinear and coplanar endpoints are common, the same grid moved to near
# 2^100, and a rational grid near 2^100
grid = st.integers(-2, 2)
grid3 = st.builds(Point3, grid, grid, grid)
_NEAR = Point3(2**100, 2**100 + 3, 2**100 - 5)


def _segment_pairs(point):
    ends = st.lists(point, min_size=2, max_size=2, unique=True)
    return st.tuples(ends, ends).map(lambda pair: (tuple(pair[0]), tuple(pair[1])))


_FAMILIES = (grid3, grid3.map(lambda p: _NEAR + p), grid3.map(lambda p: _NEAR + p.scale(Fraction(1, 3))))
segment_pairs3 = st.one_of(*map(_segment_pairs, _FAMILIES))


def tied_points3(k):
    """k points of one family of the grid above, where ties are common."""
    return st.one_of(*(st.lists(family, min_size=k, max_size=k) for family in _FAMILIES))


def side(p, q):
    """The side pq as a kernel reads it: p's coordinates, then q's."""
    return p.coords() + q.coords()


def moment_curve(n=6):
    return [Point3(i, i * i, i * i * i) for i in range(1, n + 1)]


class TestPointContract:
    def test_assignment_raises(self):
        p = Point3(1, 2, 3)
        with pytest.raises(AttributeError):
            p.x = 5
        with pytest.raises(AttributeError):
            Point2(1, 2).y = 0
        with pytest.raises(AttributeError):
            del p.z
        assert p == Point3(1, 2, 3)

    def test_whole_coordinates_stored_as_int(self):
        p = Point3(Fraction(4, 2), 0, Fraction(-3))
        assert type(p.x) is int and p.x == 2
        assert type(p.z) is int and p.z == -3
        assert type(Point2(Fraction(1, 2), 7).x) is Fraction
        with pytest.raises(TypeError):
            Point3(1.0, 0, 0)

    def test_hash_is_hash_of_coordinates(self):
        for p in (Point3(1, Fraction(1, 3), -4), Point2(0, 2**100)):
            assert hash(p) == hash(p.coords())
        assert Point3(Fraction(6, 3), 0, 0) == Point3(2, 0, 0)
        assert hash(Point3(Fraction(6, 3), 0, 0)) == hash(Point3(2, 0, 0))

    def test_equality_needs_the_same_class(self):
        assert Point2(1, 2) != Point3(1, 2, 0)
        assert Point3(1, 2, 0) != Point2(1, 2)
        assert Point2(1, 2) != (1, 2)
        assert Point2(1, 2) == Point2(1, 2)

    def test_repr(self):
        assert repr(Point3(1, 2, 3)) == "Point3(x=1, y=2, z=3)"
        assert repr(Point2(Fraction(1, 2), -1)) == "Point2(x=Fraction(1, 2), y=-1)"

    def test_vars_is_the_coordinate_dict(self):
        # perfbench/tracer.py reads the coordinates through vars(p)
        assert vars(Point3(1, Fraction(1, 2), 3)) == {"x": 1, "y": Fraction(1, 2), "z": 3}
        assert vars(Point2(4, 5)) == {"x": 4, "y": 5}

    def test_polyline_sides_built_once(self):
        a, b, c = Point3(0, 0, 0), Point3(1, 0, 0), Point3(0, 1, 1)
        for poly in (SpatialPolyline.through([a, b, c]), SpatialPolyline.through([a, b, c], closed=True)):
            assert poly.sides() is poly.sides()
            v = poly.vertices
            fresh = [(v[i], v[(i + 1) % len(v)]) for i in range(len(poly.sides()))]
            assert poly.sides() == tuple(fresh)
        flat = PlanarPolyline.through([Point2(0, 0), Point2(2, 0), Point2(2, 2)], closed=True)
        assert flat.sides() is flat.sides()
        assert flat.sides() == (
            (Point2(0, 0), Point2(2, 0)),
            (Point2(2, 0), Point2(2, 2)),
            (Point2(2, 2), Point2(0, 0)),
        )
        assert Triangle3(a, b, c).sides() == ((a, b), (b, c), (c, a))


def _on_segment_by_definition(p, s):
    a, b = s
    d, e = b - a, p - a
    return is_zero3(cross3(d, e)) and 0 <= dot3(e, d) <= dot3(d, d)


def _on_line(a, b, t):
    """The point a + t (b - a); on segment ab exactly when 0 <= t <= 1."""
    return a + (b - a).scale(t)


line_params = st.builds(Fraction, st.integers(-40, 80), st.integers(1, 40))


def _check_on_segment(a, b, p, t, on_line):
    if a == b:
        return
    if on_line:
        p = _on_line(a, b, t)
    s = (a, b)
    assert point_on_segment3(p, s) == _on_segment_by_definition(p, s)
    if on_line:
        assert point_on_segment3(p, s) == (0 <= t <= 1)


def _check_collinear(a, b, c, t, on_line):
    if on_line:
        c = _on_line(a, b, t)
    assert collinear3(a, b, c) == is_zero3(cross3(b - a, c - a))
    if on_line:
        assert collinear3(a, b, c)


class TestScalarOnSegment:
    @given(rat_points3, rat_points3, rat_points3, line_params, st.booleans())
    @settings(max_examples=150)
    def test_point_on_segment3_rational(self, a, b, p, t, on_line):
        _check_on_segment(a, b, p, t, on_line)

    @given(huge_points3, huge_points3, huge_points3, line_params, st.booleans())
    @settings(max_examples=150)
    def test_point_on_segment3_near_2_100(self, a, b, p, t, on_line):
        _check_on_segment(a, b, p, t, on_line)

    @given(rat_points3, rat_points3, rat_points3, line_params, st.booleans())
    @settings(max_examples=150)
    def test_collinear3_rational(self, a, b, c, t, on_line):
        _check_collinear(a, b, c, t, on_line)

    @given(huge_points3, huge_points3, huge_points3, line_params, st.booleans())
    @settings(max_examples=150)
    def test_collinear3_near_2_100(self, a, b, c, t, on_line):
        _check_collinear(a, b, c, t, on_line)

    @given(tied_points3(3))
    @settings(max_examples=400)
    def test_kernels_match_record_references_on_ties(self, pts):
        a, b, p = pts
        assert _collinear3(a.coords(), b.coords(), p.coords()) == collinear3(a, b, p) == is_zero3(cross3(b - a, p - a))
        if a != b:
            assert _on_side3(p.coords(), side(a, b)) == point_on_segment3(p, (a, b))

    def test_no_point_is_built(self, monkeypatch):
        s = (Point3(0, 0, 0), Point3(4, 2, Fraction(2, 3)))
        probes = [Point3(2, 1, Fraction(1, 3)), Point3(8, 4, Fraction(4, 3)), Point3(1, 1, 1)]
        built = []
        original = Point3.__init__

        def counting_init(self, *args):
            built.append(args)
            original(self, *args)

        monkeypatch.setattr(Point3, "__init__", counting_init)
        Point3(0, 0, 0)  # the counter sees a construction
        assert len(built) == 1
        built.clear()
        assert [point_on_segment3(p, s) for p in probes] == [True, False, False]
        assert [collinear3(*s, p) for p in probes] == [True, True, False]
        assert built == []


class TestRationalParsing:
    def test_integer_and_fraction_forms(self):
        assert parse_rational(7) == Fraction(7)
        assert parse_rational("-3") == Fraction(-3)
        assert parse_rational("3/4") == Fraction(3, 4)
        assert parse_rational("6/4") == Fraction(3, 2)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ParseError):
            parse_rational("3/0")

    def test_negative_denominator_rejected(self):
        with pytest.raises(ParseError):
            parse_rational("1/-2")

    def test_garbage_rejected(self):
        for bad in ("", "a/b", "1.5", None, True):
            with pytest.raises(ParseError):
                parse_rational(bad)

    @given(st.integers(-10**6, 10**6), st.integers(1, 10**4))
    @settings(max_examples=200)
    def test_round_trip(self, p, q):
        f = Fraction(p, q)
        assert parse_rational(rational_str(f)) == f

    @given(st.integers(-100, 100), st.integers(1, 40), st.integers(-100, 100), st.integers(1, 40))
    @settings(max_examples=200)
    def test_addition_two_ways_bit_for_bit(self, a, b, c, d):
        # exactness: the normalized sum equals the cross-multiplied sum
        lhs = Fraction(a, b) + Fraction(c, d)
        rhs = Fraction(a * d + c * b, b * d)
        assert lhs == rhs
        assert (lhs.numerator, lhs.denominator) == (rhs.numerator, rhs.denominator)


class TestOrientation:
    def test_orient3d_standard_basis(self):
        assert orient3d(Point3(0, 0, 0), Point3(1, 0, 0), Point3(0, 1, 0), Point3(0, 0, 1)) == 1

    def test_orient2d_left_turn(self):
        assert orient2d(Point2(0, 0), Point2(1, 0), Point2(0, 1)) == 1
        assert orient2d(Point2(0, 0), Point2(1, 0), Point2(0, -1)) == -1
        assert orient2d(Point2(0, 0), Point2(1, 0), Point2(2, 0)) == 0

    @given(points3, points3, points3, points3)
    @settings(max_examples=200)
    def test_orient3d_swap_antisymmetry(self, a, b, c, d):
        assert orient3d(a, b, c, d) == -orient3d(b, a, c, d)

    @given(points3, points3, points3, points3, points3)
    @settings(max_examples=200)
    def test_orient3d_translation_invariant(self, a, b, c, d, t):
        assert orient3d(a, b, c, d) == orient3d(a + t, b + t, c + t, d + t)

    @given(tied_points3(4))
    @settings(max_examples=400)
    def test_kernel_matches_triple_product_on_ties(self, pts):
        a, b, c, d = pts
        triple = dot3(b - a, cross3(c - a, d - a))
        assert _orient3(*(p.coords() for p in pts)) == orient3d(a, b, c, d) == (triple > 0) - (triple < 0)

    @given(rat_points2, rat_points2, rat_points2)
    @settings(max_examples=100)
    def test_orient2d_rational_matches_scaled_integer(self, a, b, c):
        # scale invariance: a positive scale that clears every denominator keeps the sign
        k = lcm(*range(1, 41))
        scale = lambda p: Point2(p.x * k, p.y * k)
        assert orient2d(a, b, c) == orient2d(scale(a), scale(b), scale(c))

    @given(rat_points3, rat_points3, rat_points3, rat_points3)
    @settings(max_examples=100)
    def test_orient3d_rational_matches_scaled_integer(self, a, b, c, d):
        # scale invariance: a positive scale that clears every denominator keeps the sign
        k = lcm(*range(1, 41))
        scale = lambda p: Point3(p.x * k, p.y * k, p.z * k)
        assert orient3d(a, b, c, d) == orient3d(scale(a), scale(b), scale(c), scale(d))


def sos_by_expansion(points, idx):
    """orient3d_sos from its definition: expand det[[p + moves, 1]] for the
    rows in the given order as a polynomial in eps, with point n moved by
    eps^(2^(3n+c)) in coordinate c, and take minus the sign of the lowest
    nonzero coefficient."""
    def times(f, g):
        out = {}
        for e1, c1 in f.items():
            for e2, c2 in g.items():
                out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
        return out

    rows = [[{0: points[n].coords()[c], 1 << (3 * n + c): 1} for c in range(3)] + [{0: 1}] for n in idx]
    det = {}
    for perm in permutations(range(4)):
        inversions = sum(x > y for x, y in combinations(perm, 2))
        term = {0: (-1) ** inversions}
        for r in range(4):
            term = times(term, rows[r][perm[r]])
        for e, c in term.items():
            det[e] = det.get(e, 0) + c
    lowest = det[min(e for e, c in det.items() if c)]
    return -1 if lowest > 0 else 1


tiny = st.integers(min_value=-2, max_value=2)
# a few points on a tiny grid (repeats allowed, so ties are common) and four
# distinct indices into them, in any order
indexed_points = st.lists(st.builds(Point3, tiny, tiny, tiny), min_size=4, max_size=7).flatmap(
    lambda pts: st.tuples(st.just(pts), st.permutations(range(len(pts))).map(lambda p: tuple(p[:4])))
)


class TestOrient3dSoS:
    @given(indexed_points)
    @settings(max_examples=400)
    def test_never_zero_and_exact_when_decided(self, case):
        pts, idx = case
        s = orient3d_sos(pts, *idx)
        assert s in (1, -1)
        exact = orient3d(*(pts[n] for n in idx))
        if exact:
            assert s == exact

    @given(indexed_points)
    @settings(max_examples=300, deadline=None)
    def test_matches_eps_expansion(self, case):
        pts, idx = case
        assert orient3d_sos(pts, *idx) == sos_by_expansion(pts, idx)

    @given(indexed_points)
    @settings(max_examples=200)
    def test_swap_flips_sign(self, case):
        pts, idx = case
        s = orient3d_sos(pts, *idx)
        for x, y in combinations(range(4), 2):
            swapped = list(idx)
            swapped[x], swapped[y] = swapped[y], swapped[x]
            assert orient3d_sos(pts, *swapped) == -s

    @given(indexed_points, st.builds(Point3, coord, coord, coord), frac)
    @settings(max_examples=200)
    def test_translation_and_positive_scaling_invariant(self, case, t, k):
        pts, idx = case
        s = orient3d_sos(pts, *idx)
        assert orient3d_sos([p + t for p in pts], *idx) == s
        scale = abs(k) or 1
        assert orient3d_sos([p.scale(scale) for p in pts], *idx) == s

    @given(indexed_points, st.sampled_from([Point3(0, 0, 0), _NEAR]), st.sampled_from([1, Fraction(1, 3)]))
    @settings(max_examples=300, deadline=None)
    def test_kernel_matches_eps_expansion_on_fractions_and_near_2_100(self, case, shift, k):
        pts, idx = case
        moved = [shift + p.scale(k) for p in pts]
        assert _orient3_sos([p.coords() for p in moved], *idx) == orient3d_sos(moved, *idx) == sos_by_expansion(moved, idx)

    def test_repeated_index_rejected(self):
        pts = [Point3(0, 0, 0), Point3(1, 0, 0), Point3(0, 1, 0)]
        with pytest.raises(ValueError):
            orient3d_sos(pts, 0, 1, 2, 0)

    def test_coincident_points_are_told_apart(self):
        # four copies of one point: only the perturbation decides, and the
        # sign follows the order of the indices
        pts = [Point3(1, 1, 1)] * 4
        assert orient3d_sos(pts, 0, 1, 2, 3) == -orient3d_sos(pts, 1, 0, 2, 3)
        assert orient3d_sos(pts, 0, 1, 2, 3) == sos_by_expansion(pts, (0, 1, 2, 3))


class TestSegmentParam:
    def test_planar_and_spatial(self):
        assert segment_param((Point2(1, 1), Point2(5, 3)), Point2(2, Fraction(3, 2))) == Fraction(1, 4)
        assert segment_param((Point3(0, 0, 0), Point3(0, 0, 3)), Point3(0, 0, 3)) == 1
        # a vertical side reads its parameter from y
        assert segment_param((Point2(2, 0), Point2(2, -4)), Point2(2, -1)) == Fraction(1, 4)


class TestGeneralPosition:
    def test_three_points_vacuous(self):
        assert gp_points3([Point3(0, 0, 0), Point3(0, 0, 1), Point3(0, 0, 2)])

    def test_moment_curve_is_general(self):
        assert gp_points3(moment_curve())

    def test_octahedron_is_not_general(self):
        octa = [
            Point3(1, 0, 0), Point3(-1, 0, 0),
            Point3(0, 1, 0), Point3(0, -1, 0),
            Point3(0, 0, 1), Point3(0, 0, -1),
        ]
        assert not gp_points3(octa)

    def test_plane_square_not_general(self):
        sq = [Point2(0, 0), Point2(1, 0), Point2(2, 0), Point2(0, 1)]
        assert not gp_points2(sq)

    def test_plane_pentagon_is_general(self):
        pent = [Point2(0, 2), Point2(2, 1), Point2(1, -2), Point2(-1, -2), Point2(-2, 1)]
        assert gp_points2(pent)

    @given(st.lists(points3, min_size=4, max_size=6))
    @settings(max_examples=100)
    def test_gp_permutation_invariant(self, pts):
        assert gp_points3(pts) == gp_points3(list(reversed(pts)))


class TestSegIntersect2:
    def test_square_diagonals_cross_at_center(self):
        s = (Point2(0, 0), Point2(2, 2))
        t = (Point2(0, 2), Point2(2, 0))
        assert seg_intersect2(s, t) == (1, 1, 1)

    def test_parallel_sides_disjoint(self):
        s = (Point2(0, 0), Point2(1, 0))
        t = (Point2(0, 1), Point2(1, 1))
        assert seg_intersect2(s, t) is None

    def test_t_configuration_non_generic(self):
        s = (Point2(0, 0), Point2(2, 0))
        t = (Point2(1, 0), Point2(1, 1))
        assert seg_intersect2(s, t) is NON_GENERIC

    def test_shared_endpoint_non_generic(self):
        s = (Point2(0, 0), Point2(1, 0))
        t = (Point2(1, 0), Point2(1, 1))
        assert seg_intersect2(s, t) is NON_GENERIC

    def test_collinear_overlap_non_generic(self):
        s = (Point2(0, 0), Point2(2, 0))
        t = (Point2(1, 0), Point2(3, 0))
        assert seg_intersect2(s, t) is NON_GENERIC

    def test_collinear_disjoint_is_empty(self):
        s = (Point2(0, 0), Point2(1, 0))
        t = (Point2(2, 0), Point2(3, 0))
        assert seg_intersect2(s, t) is None

    @pytest.mark.parametrize("step", [(0, 1), (1, 1), (-2, 1)])
    def test_collinear_contacts_off_the_x_axis(self, step):
        # an end on the other's line touches it only inside its box, in
        # both coordinates: on a vertical line the x-range alone holds every end
        u = Point2(*step)
        a, b, c, d, e = (u.scale(k) for k in (0, 1, 2, 3, 4))
        assert seg_intersect2((a, b), (c, d)) is None
        assert seg_intersect2((d, c), (b, a)) is None
        assert seg_intersect2((a, c), (c, e)) is NON_GENERIC
        assert seg_intersect2((a, d), (c, e)) is NON_GENERIC

    @given(points2, points2, points2, points2)
    @settings(max_examples=200)
    def test_symmetry(self, a, b, c, d):
        if a == b or c == d:
            return
        s, t = (a, b), (c, d)
        assert seg_intersect2(s, t) == seg_intersect2(t, s)

    @given(points2, points2, points2, points2)
    @settings(max_examples=200)
    def test_reported_point_lies_on_both(self, a, b, c, d):
        if a == b or c == d:
            return
        s, t = (a, b), (c, d)
        r = seg_intersect2(s, t)
        if isinstance(r, tuple):
            r = key_point(r)
            assert point_on_segment2(r, s) and point_on_segment2(r, t)
            assert r not in (a, b, c, d)

    @given(st.one_of(st.tuples(*[st.builds(Point2, grid, grid)] * 4), st.tuples(*[points2] * 4),
                     st.tuples(*[rat_points2] * 4)))
    @settings(max_examples=600)
    def test_early_outs_match_four_signs(self, ends):
        a, b, c, d = ends
        if a == b or c == d:
            return
        for s, t in (((a, b), (c, d)), ((c, d), (b, a))):
            assert seg_intersect2(s, t) == seg_intersect2_four_signs(s, t)


class TestSegHitsSolidTriangle:
    tri = Triangle3(Point3(0, 0, 0), Point3(3, 0, 0), Point3(0, 3, 0))

    def test_transversal_hit(self):
        assert seg_hits_solid_triangle((Point3(1, 1, -1), Point3(1, 1, 1)), self.tri) == 1

    def test_miss_outside(self):
        assert seg_hits_solid_triangle((Point3(10, 10, -1), Point3(10, 10, 1)), self.tri) == 0

    def test_same_side_miss(self):
        assert seg_hits_solid_triangle((Point3(1, 1, 1), Point3(1, 1, 5)), self.tri) == 0

    def test_endpoint_in_plane_non_generic(self):
        assert seg_hits_solid_triangle((Point3(0, 0, 0), Point3(1, 1, 1)), self.tri) is NON_GENERIC

    def test_through_boundary_non_generic(self):
        # pierces the plane exactly on side y = 0
        assert seg_hits_solid_triangle((Point3(1, 0, -1), Point3(1, 0, 1)), self.tri) is NON_GENERIC

    def test_through_vertex_non_generic(self):
        assert seg_hits_solid_triangle((Point3(0, 0, -1), Point3(0, 0, 1)), self.tri) is NON_GENERIC

    @pytest.mark.parametrize("x", [-1, 4])
    def test_through_a_side_line_outside_the_side_misses(self, x):
        # pierces the plane on the line y = 0 of one side, beyond its ends
        s = (Point3(x, 0, -1), Point3(x, 0, 1))
        assert seg_hits_solid_triangle(s, self.tri) == 0
        a, b, c = self.tri.vertices()
        assert seg_hits_solid_triangle(s, Triangle3(a, c, b)) == 0

    @given(points3, points3, points3, points3, points3)
    @settings(max_examples=200)
    def test_general_position_is_decisive(self, a, b, c, p, q):
        if not gp_points3([a, b, c, p, q]):
            return
        r = seg_hits_solid_triangle((p, q), Triangle3(a, b, c))
        assert r in (0, 1)

    @given(points3, points3, points3, points3, points3)
    @settings(max_examples=200)
    def test_orientation_of_triangle_irrelevant(self, a, b, c, p, q):
        if a == b or b == c or a == c or p == q:
            return
        try:
            t1 = Triangle3(a, b, c)
            t2 = Triangle3(a, c, b)
        except ValueError:
            return
        s = (p, q)
        assert seg_hits_solid_triangle(s, t1) == seg_hits_solid_triangle(s, t2)


class TestMeetSegments3:
    def test_skew_disjoint(self):
        s = (Point3(0, 0, 0), Point3(1, 0, 0))
        t = (Point3(0, 1, 1), Point3(1, 1, 2))
        assert meet_segments3(s, t) is False

    def test_coplanar_crossing(self):
        s = (Point3(0, 0, 0), Point3(2, 2, 0))
        t = (Point3(0, 2, 0), Point3(2, 0, 0))
        assert meet_segments3(s, t) is True

    def test_endpoint_touch(self):
        s = (Point3(0, 0, 0), Point3(1, 1, 1))
        t = (Point3(1, 1, 1), Point3(2, 0, 0))
        assert meet_segments3(s, t) is True

    def test_collinear_overlap(self):
        s = (Point3(0, 0, 0), Point3(2, 0, 0))
        t = (Point3(1, 0, 0), Point3(3, 0, 0))
        assert meet_segments3(s, t) is OVERLAP

    def test_collinear_point_touch(self):
        s = (Point3(0, 0, 0), Point3(1, 0, 0))
        t = (Point3(1, 0, 0), Point3(2, 0, 0))
        assert meet_segments3(s, t) is True

    def test_parallel_disjoint(self):
        s = (Point3(0, 0, 0), Point3(1, 0, 0))
        t = (Point3(0, 1, 0), Point3(1, 1, 0))
        assert meet_segments3(s, t) is False

    @given(points3, points3, points3, points3)
    @settings(max_examples=200)
    def test_symmetry(self, a, b, c, d):
        if a == b or c == d:
            return
        s, t = (a, b), (c, d)
        r1, r2 = meet_segments3(s, t), meet_segments3(t, s)
        assert r1 == r2 or (r1 is OVERLAP and r2 is OVERLAP)

    @given(segment_pairs3)
    @settings(max_examples=1500, deadline=None)
    def test_kernel_matches_record_reference(self, pair):
        (p1, q1), (p2, q2) = pair
        assert _meet3(side(p1, q1), side(p2, q2)) is meet_segments3(*pair)

    @given(segment_pairs3)
    @settings(max_examples=1500, deadline=None)
    def test_class_matches_reference_point(self, pair):
        # the reference builds the common point; the predicate reports only
        # whether there is none, one, or a common sub-segment
        s, t = pair
        ref = meet_point3(s, t)
        if isinstance(ref, Point3):
            assert point_on_segment3(ref, s) and point_on_segment3(ref, t)
        expected = {type(None): False, Point3: True}.get(type(ref), ref)
        assert meet_segments3(s, t) is expected
