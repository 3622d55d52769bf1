"""Tests for orthogonal and central projection and diagram linking."""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from intrinsiclinks import graphs, invariants, projection
from intrinsiclinks.errors import (
    ApexNotExtremal,
    CyclesNotDisjoint,
    EmbeddingInvalid,
    GeneralPositionViolation,
    InternalParityFailure,
    ProjectionNotGeneral,
)
from intrinsiclinks.geometry import (
    Point2,
    Point3,
    gp_points2,
    gp_points3,
    key_point,
)
from intrinsiclinks.graphs import (
    complete_graph,
    enumerate_disjoint_cycle_pairs,
    extract_crossings,
    make_cycle,
    make_drawing,
    make_embedding,
    make_graph,
    smooth,
)
from intrinsiclinks.instances import gen_k6_pl_subdivided, gen_k6_points, gen_k44_linear
from intrinsiclinks.linking import linking_mod2_cone
from intrinsiclinks.projection import (
    ProjectedDiagram,
    canonical_direction,
    find_general_projection,
    front_parity,
    lk_from_diagram,
    project_central,
    project_orthogonal,
)
from intrinsiclinks.rng import SplitMix64

from helpers import (
    central_sweep_reference,
    check_crossing_parity_identity,
    cycle_route,
    dot3,
    front_parity_reference,
    higher_central_reference,
    plane_basis,
    project_central_reference,
    project_orthogonal_reference,
    reference_diagram,
    seeded_apexes,
    seg_intersect2,
    strand_height,
)

K6 = complete_graph(6)
MOMENT = {f"v{i}": Point3(i, i * i, i ** 3) for i in range(1, 7)}
MOMENT_POINTS = [MOMENT[f"v{i}"] for i in range(1, 7)]


def moment_k6():
    return make_embedding(K6, MOMENT)


TWO_EDGES = make_graph(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
_NEAR = Point3(2**100, 2**100 - 7, 2**100 + 1)
_small = st.integers(-3, 3)
_grid3 = st.builds(Point3, _small, _small, _small)
_rat = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 9))
# the ends of a-b: a small grid, rationals, and the grid moved to near
# 2^100 with whole or rational offsets
_ab = st.one_of(
    *(
        st.lists(point, min_size=2, max_size=2, unique=True)
        for point in (
            _grid3,
            st.builds(Point3, _rat, _rat, _rat),
            _grid3.map(lambda p: _NEAR + p),
            _grid3.map(lambda p: _NEAR + p.scale(Fraction(1, 5))),
        )
    )
)
_param = st.integers(1, 8).map(lambda i: Fraction(i, 9))


def _crossing_case(ab, v, direction, t, s, k):
    """Positions of a, b, c, d where c-d passes through the point m at
    parameter s, and m lies k * direction away from the point of a-b at
    parameter t: along `direction` the two strands cross, in front or
    behind by the sign of k, unless v makes the case degenerate."""
    a, b = ab
    m = a + (b - a).scale(t) + direction.scale(k)
    return dict(zip("abcd", (a, b, m - v.scale(s), m + v.scale(1 - s)))), direction


_nonzero3 = _grid3.filter(lambda p: p != Point3(0, 0, 0))
crossing_cases = st.builds(
    _crossing_case,
    _ab,
    _nonzero3,
    _nonzero3,
    _param,
    _param,
    st.sampled_from([-2, -1, Fraction(-1, 3), Fraction(1, 3), 1, 2]),
)


class TestCanonicalDirection:
    def test_scaling(self):
        assert canonical_direction(Point3(2, 4, 6)) == Point3(1, 2, 3)

    def test_sign(self):
        assert canonical_direction(Point3(-1, 2, 3)) == Point3(1, -2, -3)
        assert canonical_direction(Point3(0, -2, 4)) == Point3(0, 1, -2)

    def test_fractions(self):
        assert canonical_direction(
            Point3(Fraction(1, 2), Fraction(0), Fraction(1, 3))
        ) == Point3(3, 0, 2)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            canonical_direction(Point3(0, 0, 0))

    @given(st.tuples(st.integers(-20, 20), st.integers(-20, 20), st.integers(-20, 20)),
           st.integers(1, 7))
    def test_scale_invariant(self, coords, k):
        assume(any(c != 0 for c in coords))
        p = Point3(*coords)
        assert canonical_direction(p) == canonical_direction(p.scale(k))
        assert canonical_direction(p) == canonical_direction(p.scale(-k))


class TestPlaneBasis:
    @given(st.tuples(st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9)))
    def test_orthogonal_and_right_handed(self, coords):
        assume(any(c != 0 for c in coords))
        d = Point3(*coords)
        e1, e2 = plane_basis(d)
        assert dot3(e1, d) == 0
        assert dot3(e2, d) == 0
        from helpers import cross3
        assert dot3(cross3(e1, e2), d) > 0


class TestProjectOrthogonal:
    def test_moment_k6_along_z(self):
        diag = project_orthogonal(moment_k6(), Point3(0, 0, 1))
        # six points in convex position: every 4-subset crosses once
        assert len(diag.crossings) == 15
        assert all(c.upper is not None for c in diag.crossings)

    def test_direction_through_two_vertices_rejected(self):
        d = MOMENT["v2"] - MOMENT["v1"]
        with pytest.raises(ProjectionNotGeneral):
            project_orthogonal(moment_k6(), d)

    def test_flattened_corner_rejected(self):
        g = make_graph(["u", "v"], [("u", "v")])
        pos = {"u": Point3(0, 0, 0), "v": Point3(4, 0, 0)}
        emb = make_embedding(g, pos, {("u", "v"): [Point3(2, 3, 1)]})
        # (1, 0, 0) lies in the plane of the bent route, so the corner
        # straightens out in the shadow
        with pytest.raises(ProjectionNotGeneral):
            project_orthogonal(emb, Point3(1, 0, 0))

    def test_upper_strand(self):
        g = make_graph(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
        pos = {"a": Point3(0, 0, 0), "b": Point3(2, 2, 0),
               "c": Point3(2, 0, 5), "d": Point3(0, 2, 5)}
        emb = make_embedding(g, pos)
        diag = project_orthogonal(emb, Point3(0, 0, 1))
        assert len(diag.crossings) == 1
        assert diag.crossings[0].upper == ("c", "d")

    @given(crossing_cases)
    @settings(max_examples=2000, deadline=None)
    def test_upper_matches_reference_heights(self, case):
        # the over/under sign against the height of each strand above the
        # crossing point, worked out in Fraction
        pos, direction = case
        emb = make_embedding(TWO_EDGES, pos)
        try:
            diag = project_orthogonal(emb, direction)
        except (EmbeddingInvalid, ProjectionNotGeneral):
            return
        for c in diag.crossings:
            h1, h2 = (
                strand_height(emb, diag.drawing, diag.direction, edge, side, key_point(c.key))
                for edge, side in ((c.edge1, c.side1), (c.edge2, c.side2))
            )
            assert h1 != h2
            assert c.upper == (c.edge1 if h1 > h2 else c.edge2)

    def test_opposite_direction_same_diagram(self):
        a = project_orthogonal(moment_k6(), Point3(0, 0, 1))
        b = project_orthogonal(moment_k6(), Point3(0, 0, -1))
        assert a.direction == b.direction
        assert a.crossings == b.crossings


class TestDiagramLinking:
    def test_moment_k6_pair_values(self):
        emb = moment_k6()
        diag = project_orthogonal(emb, Point3(0, 0, 1))
        values = {}
        for c1, c2 in enumerate_disjoint_cycle_pairs(K6, 3, 3):
            values[(c1.vertices, c2.vertices)] = lk_from_diagram(diag, c1, c2)
        assert sum(values.values()) % 2 == 1
        # on the moment curve exactly the alternating pair is linked
        assert values[(("v1", "v3", "v5"), ("v2", "v4", "v6"))] == 1
        assert sum(values.values()) == 1

    def test_diagram_agrees_with_cone_counting(self):
        emb = moment_k6()
        diag = project_orthogonal(emb, Point3(0, 0, 1))
        rng = SplitMix64(42)
        for c1, c2 in enumerate_disjoint_cycle_pairs(K6, 3, 3):
            p1, p2 = cycle_route(emb, c1), cycle_route(emb, c2)
            for apex in seeded_apexes(rng):
                assert lk_from_diagram(diag, c1, c2) == linking_mod2_cone(p1, p2, apex)

    def test_parity_identity(self):
        diag = project_orthogonal(moment_k6(), Point3(0, 0, 1))
        for c1, c2 in enumerate_disjoint_cycle_pairs(K6, 3, 3):
            assert check_crossing_parity_identity(diag, c1, c2)
            e1, e2 = set(K6.cycle_edges(c1)), set(K6.cycle_edges(c2))
            over1, over2 = front_parity(diag, e1, e2), front_parity(diag, e2, e1)
            assert over1 == over2 == lk_from_diagram(diag, c1, c2)
            total = sum(
                (c.edge1 in e1 and c.edge2 in e2) or (c.edge1 in e2 and c.edge2 in e1)
                for c in diag.crossings
            )
            assert total % 2 == 0

    def test_mutant_crossings(self):
        diag = project_orthogonal(moment_k6(), Point3(0, 0, 1))
        c1, c2 = make_cycle(K6, ("v1", "v3", "v5")), make_cycle(K6, ("v2", "v4", "v6"))
        e1, e2 = set(K6.cycle_edges(c1)), set(K6.cycle_edges(c2))
        between = next(c for c in diag.crossings if {c.edge1, c.edge2} & e1 and {c.edge1, c.edge2} & e2)
        # a flipped front strand moves one crossing from one order's count to
        # the other's: lk flips and the two orders still agree
        other = between.edge2 if between.upper == between.edge1 else between.edge1
        flipped = diag.replace(crossings=tuple(
            c.replace(upper=other) if c == between else c for c in diag.crossings
        ))
        assert lk_from_diagram(flipped, c1, c2) == 1 - lk_from_diagram(diag, c1, c2)
        assert lk_from_diagram(flipped, c2, c1) == lk_from_diagram(flipped, c1, c2)
        # a dropped crossing leaves the two closed curves an odd number
        dropped = diag.replace(crossings=tuple(c for c in diag.crossings if c != between))
        for first, second in ((c1, c2), (c2, c1)):
            with pytest.raises(InternalParityFailure, match="depends on the cycle order"):
                lk_from_diagram(dropped, first, second)

    def test_absent_edges_rejected(self):
        diag = project_orthogonal(moment_k6(), Point3(0, 0, 1))
        c1 = make_cycle(K6, ("v1", "v2", "v3"))
        with pytest.raises(ValueError, match="is not a vertex"):
            lk_from_diagram(diag, c1, make_cycle(complete_graph(7), ("v4", "v5", "v7")))
        with pytest.raises(ValueError, match="is not an edge"):
            front_parity(diag, K6.cycle_edges(c1), [("v4", "v7")])

    def test_unlabelled_crossings_rejected(self):
        d = find_general_projection(gen_k6_pl_subdivided(0))
        assert d.drawing.crossings and all(c.upper is None for c in d.drawing.crossings)
        with pytest.raises(ValueError, match="has upper None, not one of its strands"):
            ProjectedDiagram(d.direction, d.drawing, d.drawing.crossings)
        c = d.crossings[0]
        third = next(e for e in d.graph.edges if e not in (c.edge1, c.edge2))
        with pytest.raises(ValueError, match="not one of its strands"):
            d.replace(crossings=(c.replace(upper=third),))

    def test_crossing_outside_the_graph_rejected(self):
        d = find_general_projection(gen_k6_pl_subdivided(0))
        c = d.crossings[0]
        for stray in (c.replace(edge1=("zz", "yy"), upper=("zz", "yy")), c.replace(edge2=("zz", "yy"))):
            with pytest.raises(ValueError, match=r"names an edge outside the graph"):
                ProjectedDiagram(d.direction, d.drawing, (stray,))

    def test_overlapping_cycles_rejected(self):
        diag = project_orthogonal(moment_k6(), Point3(0, 0, 1))
        c1 = make_cycle(K6, ("v1", "v2", "v3"))
        c2 = make_cycle(K6, ("v3", "v4", "v5"))
        with pytest.raises(CyclesNotDisjoint):
            lk_from_diagram(diag, c1, c2)


class TestFrontMatrixMatchesReference:
    """front_parity and lk_from_diagram, read off the front matrix, against
    one scan of the labelled crossings per call."""

    @pytest.mark.parametrize("seed", range(30))
    @pytest.mark.parametrize("source", ["k6-pl", "k44-linear", "k6-points"])
    def test_matches_reference(self, source, seed):
        diag = reference_diagram(source, seed)
        g = diag.graph
        length = 4 if source == "k44-linear" else 3
        pairs = enumerate_disjoint_cycle_pairs(g, length, length)
        assert len(pairs) == {"k6-pl": 10, "k44-linear": 18, "k6-points": 0}[source]
        for c1, c2 in pairs:
            e1, e2 = g.cycle_edges(c1), g.cycle_edges(c2)
            ref = front_parity_reference(diag, e1, e2)
            assert front_parity(diag, e1, e2) == front_parity(diag, e2, e1) == ref
            assert lk_from_diagram(diag, c1, c2) == lk_from_diagram(diag, c2, c1) == ref
        # edge sets that share vertices: each edge in the first set, the
        # second or neither, some given end first
        rng = SplitMix64(seed)
        for _ in range(40):
            sets = ([], [], [])
            for e in g.edges:
                sets[rng.randint(0, 2)].append(e)
            first, second, _ = sets
            flipped = [e[::-1] if rng.randint(0, 1) else e for e in first]
            for a, b in ((first, second), (second, first)):
                assert front_parity(diag, a, b) == front_parity_reference(diag, a, b)
            assert front_parity(diag, flipped, second) == front_parity_reference(diag, first, second)


class TestFindGeneralProjection:
    def test_deterministic(self):
        a = find_general_projection(moment_k6(), seed=7)
        b = find_general_projection(moment_k6(), seed=7)
        assert a.direction == b.direction
        assert a.crossings == b.crossings

    def test_found_diagram_is_usable(self):
        diag = find_general_projection(moment_k6(), seed=1)
        total = 0
        for c1, c2 in enumerate_disjoint_cycle_pairs(K6, 3, 3):
            total += lk_from_diagram(diag, c1, c2)
        assert total % 2 == 1


class TestCentralPlan:
    """`_central` reads the complete graph on its names and the graph's
    disjoint edge pairs from a plan kept per names tuple."""

    ARGS = (MOMENT_POINTS, MOMENT_POINTS[5], Point3(0, 0, 1))

    def test_second_call_builds_no_plan_and_repeated_names_raise_on_every_call(self, monkeypatch):
        projection._central_plan.cache_clear()
        built = []
        make = projection.make_graph
        monkeypatch.setattr(projection, "make_graph", lambda names, edges: built.append(names) or make(names, edges))
        names = [f"v{i}" for i in range(1, 6)]
        first = projection._central(*self.ARGS, names)
        assert built == [tuple(names)]
        assert projection._central(*self.ARGS, names) == first
        assert built == [tuple(names)]
        for calls in (2, 3):
            with pytest.raises(ValueError, match="repeated vertex name"):
                projection._central(*self.ARGS, ["a"] * 5)
            assert len(built) == calls

    def test_planned_pairs_are_the_disjoint_edge_pairs_in_sweep_order(self):
        graph, pairs = projection._central_plan(("p1", "p2", "p3", "p4", "p5"))
        assert graph == make_graph(graph.vertices, combinations(graph.vertices, 2))
        assert pairs == [(e1, e2) for e1, e2 in combinations(graph.edges, 2) if not set(e1) & set(e2)]
        assert len(pairs) == 15


class TestProjectCentral:
    def test_moment_curve_from_top(self):
        diag = project_central(
            MOMENT_POINTS, MOMENT_POINTS[5], Point3(0, 0, 1),
            names=[f"v{i}" for i in range(1, 6)],
        )
        crossings = extract_crossings(diag.drawing)
        assert len(crossings) == 5
        assert all(set(c.edge1).isdisjoint(c.edge2) for c in crossings)

    def test_apex_must_be_strict_max(self):
        with pytest.raises(ApexNotExtremal):
            project_central(MOMENT_POINTS, MOMENT_POINTS[2], Point3(0, 0, 1))

    def test_apex_must_be_among_points(self):
        with pytest.raises(ValueError):
            project_central(MOMENT_POINTS, Point3(100, 100, 100), Point3(0, 0, 1))

    def test_equal_depth_crossing_raises(self):
        """The diagonals of a square below the apex meet in space, so their
        images cross with neither strand in front."""
        square = [Point3(2, 0, 0), Point3(0, 1, 0), Point3(-2, 0, 0), Point3(0, -1, 0)]
        with pytest.raises(GeneralPositionViolation):
            project_central(square + [Point3(1, 1, 5)], Point3(1, 1, 5), Point3(0, 0, 1))

    def test_two_points_on_one_ray_rejected_before_the_sweep(self, monkeypatch):
        """Two points on one ray from the apex share their image.  The
        general-position check refuses them; without it the coincident
        images raise the bare ValueError of the drawing's constructor."""
        apex = Point3(0, 0, 10)
        pts = [apex, Point3(1, 0, 0), Point3(2, 0, -10), Point3(0, 3, 1), Point3(-2, -1, 2), Point3(3, -2, -1)]
        with pytest.raises(ProjectionNotGeneral, match="projected points are not in general position"):
            project_central(pts, apex, Point3(0, 0, 1))
        monkeypatch.setattr(projection, "_collinear_images", lambda rows: False)
        with pytest.raises(ValueError, match="polyline needs at least 2 vertices"):
            project_central(pts, apex, Point3(0, 0, 1))

    def test_hexagon_diagonals_rejected_by_the_sweep(self):
        """Six images on a centrally symmetric hexagon, no three collinear,
        at different depths: the points are in general position in space,
        but the three long diagonals of the images meet at one point."""
        apex = Point3(0, 0, 1)
        plane = [(3, 0), (-3, 0), (1, 2), (-1, -2), (-1, 3), (1, -3)]
        assert gp_points2([Point2(x, y) for x, y in plane])
        # p = apex + t (x, y, -1) has the image of (x, y, 0)
        below = [Point3(t * x, t * y, 1 - t) for t, (x, y) in zip((1, 1, 1, 2, 2, 2), plane)]
        assert gp_points3([apex, *below])
        with pytest.raises(ProjectionNotGeneral, match="central image drawing has 1 degenerate contacts"):
            project_central([apex, *below], apex, Point3(0, 0, 1))

    @staticmethod
    def assert_sight_lines(pts, apex, normal):
        """An image crossing exists exactly when one segment blocks the
        other's line of sight from the apex, and its `upper` edge is the
        blocking one."""
        below = [p for p in pts if p != apex]
        names = [f"p{i}" for i in range(1, 6)]
        diag = project_central(pts, apex, normal, names=names)
        upper = {(c.edge1, c.edge2): c.upper for c in diag.crossings}
        for (i, j), (k, l) in combinations(combinations(range(5), 2), 2):
            if {i, j} & {k, l}:
                continue
            s1 = (below[i], below[j])
            s2 = (below[k], below[l])
            im1 = (diag.drawing.position[names[i]], diag.drawing.position[names[j]])
            im2 = (diag.drawing.position[names[k]], diag.drawing.position[names[l]])
            crosses = isinstance(seg_intersect2(im1, im2), tuple)
            front1 = higher_central_reference(apex, s1, s2)
            front2 = higher_central_reference(apex, s2, s1)
            assert crosses == (front1 or front2)
            e1, e2 = (names[i], names[j]), (names[k], names[l])
            assert upper.get((e1, e2)) == (e1 if front1 else e2 if front2 else None)

    def test_sight_line_bridge(self):
        self.assert_sight_lines(MOMENT_POINTS, MOMENT_POINTS[5], Point3(0, 0, 1))

    @settings(max_examples=30, deadline=None)
    @given(st.lists(
        st.tuples(st.integers(-25, 25), st.integers(-25, 25), st.integers(-25, 25)),
        min_size=6, max_size=6, unique=True,
    ))
    def test_integer_images_cross_like_plane_images(self, coords):
        """The integer images are a translate of a positive multiple of the
        plane images, so both straight-line drawings have the same crossing
        edge pairs."""
        pts = [Point3(*c) for c in coords]
        assume(gp_points3(pts))
        normal = Point3(0, 0, 1)
        assume(len({p.z for p in pts}) == 6)
        apex = max(pts, key=lambda p: p.z)
        below = [p for p in pts if p != apex]
        names = [f"p{i}" for i in range(1, 6)]
        try:
            drawing = project_central(pts, apex, normal, names=names).drawing
        except ProjectionNotGeneral:
            assume(False)
        for p in drawing.position.values():
            assert type(p.x) is int and type(p.y) is int

        # the plane images themselves, with rational coordinates
        apex_val = dot3(apex, normal)
        plane_val = Fraction(apex_val + max(dot3(p, normal) for p in below), 2)
        e1, e2 = plane_basis(canonical_direction(normal))
        plane_images = {}
        for name, p in zip(names, below):
            t = Fraction(plane_val - apex_val, dot3(p, normal) - apex_val)
            q = apex + (p - apex).scale(t)
            plane_images[name] = Point2(dot3(q, e1), dot3(q, e2))
        plane_drawing = make_drawing(drawing.graph, plane_images)

        def pairs(d):
            return {(c.edge1, c.edge2) for c in extract_crossings(d)}

        assert pairs(drawing) == pairs(plane_drawing)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(
        st.tuples(st.integers(-25, 25), st.integers(-25, 25), st.integers(-25, 25)),
        min_size=6, max_size=6, unique=True,
    ))
    def test_sight_line_bridge_random(self, coords):
        pts = [Point3(*c) for c in coords]
        assume(gp_points3(pts))
        heights = [p.z for p in pts]
        assume(len(set(heights)) == 6)
        apex = pts[max(range(6), key=lambda i: heights[i])]
        try:
            self.assert_sight_lines(pts, apex, Point3(0, 0, 1))
        except ProjectionNotGeneral:
            assume(False)


def outcome(call):
    """What `call()` returns, or the class and message of what it raises."""
    try:
        return call()
    except Exception as ex:  # noqa: BLE001 - the class is the result
        return type(ex), str(ex)


def first_candidates(emb, seed: int, count: int) -> list[Point3]:
    """The first `count` directions the seeded search hands its projector, as points."""
    tried = []

    def record(emb, d):
        tried.append(Point3(*d))
        if len(tried) < count:
            raise ProjectionNotGeneral("next")

    projection._direction_search(seed, record, emb)
    return tried


def degenerate_directions(emb) -> list[Point3]:
    """Directions that drop one vertex's shadow onto another's, or onto the
    midpoint of a side of a route away from it, and, where a route bends,
    that make its first side vanish or flatten its first corner."""
    (u, pu), (w, pw) = list(emb.position.items())[:2]
    key = next(e for e in emb.graph.edges if u not in e)
    p, q = emb.route[key].sides()[0]
    out = [pw - pu, pu.scale(2) - p - q]
    bent = next((r.vertices for r in emb.route.values() if len(r.vertices) > 2), None)
    if bent:
        out += [bent[1] - bent[0], bent[2] - bent[0]]
    return [canonical_direction(d) for d in out]


def orthogonal_rows(emb, d):
    """The front matrix the finders read off `_orthogonal`, given the embedding's own coordinates."""
    where, chains = graphs._coordinates(emb)
    routes = [chains[key] for key in emb.graph.edges]
    return projection._front_rows(emb.graph, projection._orthogonal(emb.graph, where, routes, d.coords())[5])


def central_rows(*args):
    """The front matrix the linear finder reads off `_central`."""
    _, graph, _, _, strands = projection._central(*args)
    return projection._front_rows(graph, strands)


def assert_core_matches(core_rows, public, reference):
    """The core's front rows are the public diagram's, which equals the
    reference's; or all three raise the same class with the same message."""
    if isinstance(public, ProjectedDiagram):
        assert public == reference
        assert core_rows == public._front
    else:
        assert core_rows == public == reference


class TestOrthogonalCoreMatchesPublicPath:
    """`_orthogonal`, which the finders run, against `project_orthogonal`
    and against the record-building reference, on the first 20 directions
    of each seeded search and on hand-made degenerate directions."""

    @pytest.mark.parametrize("seed", range(30))
    @pytest.mark.parametrize("source", [gen_k6_pl_subdivided, gen_k44_linear], ids=lambda f: f.__name__)
    def test_directions(self, source, seed):
        emb = smooth(source(seed))
        rejected = 0
        for i, d in enumerate(first_candidates(emb, seed, 20) + degenerate_directions(emb)):
            core = outcome(lambda: orthogonal_rows(emb, d))
            public = outcome(lambda: project_orthogonal(emb, d))
            assert_core_matches(core, public, outcome(lambda: project_orthogonal_reference(emb, d)))
            if i >= 20:
                assert public[0] is ProjectionNotGeneral
            rejected += not isinstance(public, ProjectedDiagram)
        assert rejected >= len(degenerate_directions(emb))


class TestCentralCoreMatchesPublicPath:
    """`_central`, which the linear finder runs, against `project_central`
    and against the record-building reference."""

    @pytest.mark.parametrize("seed", range(30))
    def test_every_apex(self, seed):
        pts = gen_k6_points(seed)
        total = sum(pts[1:], pts[0])
        for apex in pts:
            outward = apex.scale(6) - total  # from the centroid to the apex
            for normal in (outward, Point3(0, 0, 0) - outward):  # the second is not extremal
                core = outcome(lambda: central_rows(pts, apex, normal))
                public = outcome(lambda: project_central(pts, apex, normal))
                assert_core_matches(core, public, outcome(lambda: project_central_reference(pts, apex, normal)))
            assert public == (ApexNotExtremal, "apex does not strictly maximize the functional")

    HEXAGON_APEX = Point3(0, 0, 1)
    HEXAGON = [HEXAGON_APEX] + [Point3(t * x, t * y, 1 - t) for t, (x, y) in zip(
        (1, 1, 1, 2, 2, 2), [(3, 0), (-3, 0), (1, 2), (-1, -2), (-1, 3), (1, -3)])]
    RAY_APEX = Point3(0, 0, 10)
    RAY = [RAY_APEX, Point3(1, 0, 0), Point3(2, 0, -10), Point3(0, 3, 1), Point3(-2, -1, 2), Point3(3, -2, -1)]
    SQUARE_APEX = Point3(1, 1, 5)
    SQUARE = [Point3(2, 0, 0), Point3(0, 1, 0), Point3(-2, 0, 0), Point3(0, -1, 0), SQUARE_APEX]

    @pytest.mark.parametrize("points, apex, names, expected", [
        (HEXAGON, HEXAGON_APEX, None, (ProjectionNotGeneral, "central image drawing has 1 degenerate contacts")),
        (RAY, RAY_APEX, None, (ProjectionNotGeneral, "projected points are not in general position")),
        (SQUARE, SQUARE_APEX, None, (GeneralPositionViolation, "edges ('p1', 'p3') and ('p2', 'p4') meet in space")),
        (MOMENT_POINTS, Point3(9, 9, 9), None, (ValueError, "apex must be one of the points")),
        (MOMENT_POINTS + MOMENT_POINTS[-1:], MOMENT_POINTS[-1], None,
         (ValueError, "apex occurs more than once among the points")),
        (MOMENT_POINTS, MOMENT_POINTS[-1], ["a", "b"], (ValueError, "need one name per non-apex point")),
        (MOMENT_POINTS, MOMENT_POINTS[-1], ["a"] * 5, (ValueError, "repeated vertex name")),
    ], ids=["hexagon-sweep", "ray-general-position", "square-equal-depth", "apex-missing", "apex-repeated",
            "too-few-names", "repeated-name"])
    def test_rejections(self, points, apex, names, expected):
        normal = Point3(0, 0, 1)
        core = outcome(lambda: projection._central(points, apex, normal, names))
        public = outcome(lambda: project_central(points, apex, normal, names))
        assert core == public == outcome(lambda: project_central_reference(points, apex, normal, names)) == expected

    def test_coincident_images_past_the_general_position_check(self, monkeypatch):
        """Without the general-position check the core raises, as the
        drawing's constructor does, a bare ValueError on two coincident
        images; so does the public path, which runs the core."""
        monkeypatch.setattr(projection, "_collinear_images", lambda rows: False)
        expected = (ValueError, "polyline needs at least 2 vertices, closed needs 3")
        core = outcome(lambda: projection._central(self.RAY, self.RAY_APEX, Point3(0, 0, 1)))
        assert core == outcome(lambda: project_central(self.RAY, self.RAY_APEX, Point3(0, 0, 1))) == expected


SMALL = st.integers(-3, 3)
NORMALS = st.builds(Point3, *[st.integers(-2, 2)] * 3).filter(lambda n: n != Point3(0, 0, 0))


class TestCentralCoreMatchesSweep:
    """`_central` decides the crossings on volumes about the apex and sweeps
    nothing; the drawing sweep run on the images and one-side chains
    finds the same crossings in the same order, the same strands and the
    same refusals.  With six or more images three edges can pass through
    one point, which both refuse with one degenerate contact per point."""

    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.builds(Point3, SMALL, SMALL, SMALL), min_size=6, max_size=8, unique=True), NORMALS)
    @example(TestCentralCoreMatchesPublicPath.HEXAGON, Point3(0, 0, 1))
    @example(TestCentralCoreMatchesPublicPath.HEXAGON + [Point3(-3, -2, 0)], Point3(0, 0, 1))  # two such points
    def test_raw_crossings_strands_and_refusals(self, points, normal):
        apex = max(points, key=lambda p: dot3(p, normal))
        core = outcome(lambda: projection._central(points, apex, normal))
        assert core == outcome(lambda: central_sweep_reference(points, apex, normal))

    def test_a_touch_past_the_general_position_check_is_a_bug_signal(self, monkeypatch):
        """Without the volume check the image of p2 lies inside the image
        edge p1-p3, which p2-p4 touches there: a zero volume differs from a
        nonzero one, so the core takes the touch for a crossing, and
        `project_central` never records such a contact, it raises."""
        apex = Point3(0, 0, 1)
        points = [apex, Point3(-2, 0, 0), Point3(0, 0, -1), Point3(2, 0, 0), Point3(0, 2, 0), Point3(1, -3, -1)]
        monkeypatch.setattr(projection, "_collinear_images", lambda rows: False)
        assert outcome(lambda: project_central(points, apex, Point3(0, 0, 1))) == (
            InternalParityFailure, "images of ('p1', 'p3') and ('p2', 'p4') cross by their volumes but not transversally")


TINY = st.integers(-4, 4)


class TestCentralOnVolumes:
    """`_central` decides on volumes about the apex and builds no image;
    `project_central` builds the images, and a key for each crossing the
    core found.  Small integer point sets give apex-coplanar triples, two
    points on one ray, equal-depth crossings and concurrent image edges."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.builds(Point3, TINY, TINY, TINY), min_size=3, max_size=8, unique=True), NORMALS)
    @example(TestCentralCoreMatchesPublicPath.HEXAGON, Point3(0, 0, 1))
    @example(TestCentralCoreMatchesPublicPath.HEXAGON + [Point3(-3, -2, 0)], Point3(0, 0, 1))
    @example(TestCentralCoreMatchesPublicPath.SQUARE, Point3(0, 0, 1))
    @example([Point3(0, 0, 1), Point3(1, 0, 0), Point3(2, 0, -1)], Point3(0, 0, 1))  # one ray, two points
    def test_core_and_builder_match_the_sweep_references(self, points, normal):
        apex = max(points, key=lambda p: dot3(p, normal))
        core = outcome(lambda: projection._central(points, apex, normal))
        assert core == outcome(lambda: central_sweep_reference(points, apex, normal))
        public = outcome(lambda: project_central(points, apex, normal))
        assert public == outcome(lambda: project_central_reference(points, apex, normal))
        if len(points) <= 6 and core[0] is ProjectionNotGeneral:  # no three disjoint edges among five images
            assert core[1] == "projected points are not in general position"


@pytest.fixture
def meets(monkeypatch):
    """The image edge pairs handed to `projection._meet2`."""
    calls = []
    original = projection._meet2
    monkeypatch.setattr(projection, "_meet2", lambda *c: calls.append(c) or original(*c))
    return calls


class TestCentralWork:
    """The linear finder's central core tests no image edge pair, and
    `project_central` keys only the crossings the core found."""

    @pytest.mark.parametrize("seed", range(10))
    def test_linear_analysis_meets_no_image_edges(self, seed, meets):
        _, ledger = invariants._linear_analysis(gen_k6_points(seed), seed)
        assert ledger.total % 2 == 1
        assert meets == []

    def test_project_central_keys_each_crossing_once(self, meets):
        diag = project_central(MOMENT_POINTS, MOMENT_POINTS[5], Point3(0, 0, 1))
        assert len(projection._central_plan(("p1", "p2", "p3", "p4", "p5"))[1]) == 15
        assert len(meets) == len(diag.crossings) == 5
