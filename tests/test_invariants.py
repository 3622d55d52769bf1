"""Tests for the crossing-parity invariant, finders, ledgers and oracle."""

import hashlib
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, given, settings, strategies as st

import intrinsiclinks
from intrinsiclinks import cli, graphs, invariants, linking, projection
from intrinsiclinks.errors import (
    DrawingsNotComparable,
    EmbeddingInvalid,
    GeneralPositionViolation,
    InternalParityFailure,
    IntrinsicLinksError,
    PolylinesNotDisjoint,
    ProjectionNotGeneral,
    SearchExhausted,
)
from intrinsiclinks.geometry import Point2, Point3, Triangle3, gp_points2, gp_points3
from intrinsiclinks.graphs import (
    ValidEmbedding,
    complete_bipartite,
    complete_graph,
    enumerate_disjoint_cycle_pairs,
    extract_crossings,
    make_cycle,
    make_drawing,
    make_embedding,
    make_graph,
    require_valid,
    smooth,
    validate_drawing,
    validate_embedding,
)
from intrinsiclinks.instances import (
    bend_drawing,
    gen_k5_drawing,
    gen_k6_pl_subdivided,
    gen_k6_points,
    gen_k33_drawing,
    gen_k44_linear,
    gen_polygon_pair,
    move_vertex_star,
)
from intrinsiclinks.invariants import (
    LinkReport,
    ParityLedger,
    find_linked_cycles_k6,
    find_linked_cycles_k44,
    find_linked_triangles_linear,
    k6_parity_ledgers,
    k44_parity_ledgers,
    linear_parity_ledger,
    oracle_confirm,
    oracle_count_linked_pairs,
    van_kampen_drawing,
    van_kampen_points,
    vk_invariance_probe,
)
from intrinsiclinks.linking import SpatialPolyline, linking_mod2_sampled, triangles_linked
from intrinsiclinks.projection import find_general_projection, project_central, project_orthogonal

from intrinsiclinks.rng import SplitMix64

from helpers import (
    ScriptedRng,
    cycle_route,
    ledger_entries_reference,
    linear_analysis_reference,
    oracle_reference,
    reference_diagram,
    smooth_reference,
    subdivided,
    unplanned_hub_analysis,
    unplanned_linear_analysis,
)

K6 = complete_graph(6)
K5 = complete_graph(5)
K44 = complete_bipartite(4, 4)
K33 = complete_bipartite(3, 3)

MOMENT6 = [Point3(i, i * i, i ** 3) for i in range(1, 7)]
MOMENT8 = [Point3(i, i * i, i ** 3) for i in range(1, 9)]

PENTAGON = {
    "v1": Point2(0, 2),
    "v2": Point2(2, 1),
    "v3": Point2(1, -2),
    "v4": Point2(-1, -2),
    "v5": Point2(-2, 1),
}

# a straight drawing of the 3+3 bipartite graph with no degeneracies;
# symmetric hexagon placements fail (three main diagonals concurrent)
K33_POSITIONS = {
    "a1": Point2(0, 8),
    "a2": Point2(3, 5),
    "a3": Point2(6, -4),
    "b1": Point2(6, -1),
    "b2": Point2(2, 3),
    "b3": Point2(7, 2),
}

# two linked triangles; their union is a general-position 6-point set
LINKED_SIX = [
    Point3(1, 1, 0), Point3(-1, 2, 0), Point3(-1, -2, 0),
    Point3(0, 0, 2), Point3(0, 0, -2), Point3(5, 0, 1),
]


def moment_k6_embedding():
    return make_embedding(K6, {f"v{i}": MOMENT6[i - 1] for i in range(1, 7)})


def subdivided_moment_k6_embedding():
    emb = moment_k6_embedding()
    mid = (emb.position["v1"] + emb.position["v2"]).scale(Fraction(1, 2))
    return subdivided(emb, ("v1", "v2"), [mid])


def moment_k44_embedding():
    return make_embedding(K44, dict(zip(K44.vertices, MOMENT8)))


def folded_subdivided_k6():
    """A subdivided K6 whose edge v1-v2 folds back over itself at v1.v2.1, so
    smoothing it without validating first would build a self-intersecting route."""
    w = "v1.v2.1"
    vertices = [f"v{i}" for i in range(1, 7)] + [w]
    edges = [e for e in combinations(vertices[:6], 2) if e != ("v1", "v2")]
    graph = make_graph(vertices, edges + [("v1", w), (w, "v2")])
    pos = {
        "v1": Point3(0, 0, 0), "v2": Point3(1, -1, 0), w: Point3(4, 0, 0),
        "v3": Point3(1, 2, 9), "v4": Point3(-3, 5, -7),
        "v5": Point3(6, -4, 11), "v6": Point3(-5, -6, -13),
    }
    return make_embedding(graph, pos, {("v1", w): [Point3(2, 3, 0)], (w, "v2"): [Point3(1, 3, 0)]})


def k44_with_a_vertex_on_a_route():
    """The moment-curve K4,4 with b4 moved to the midpoint of the route a1-b1."""
    pos = dict(zip(K44.vertices, MOMENT8))
    pos["b4"] = (pos["a1"] + pos["b1"]).scale(Fraction(1, 2))
    return make_embedding(K44, pos)


class TestParityLedger:
    def test_total_is_xor(self):
        led = ParityLedger("x", (("a", 1), ("b", 1), ("c", 0), ("d", 1)))
        assert led.total == 1
        assert ParityLedger("y", ()).total == 0


class TestVanKampenPoints:
    def test_pentagon(self):
        assert van_kampen_points(list(PENTAGON.values())) == 1

    def test_collinear_rejected(self):
        pts = [Point2(0, 0), Point2(1, 0), Point2(2, 0), Point2(0, 1), Point2(3, 5)]
        with pytest.raises(GeneralPositionViolation):
            van_kampen_points(pts)

    def test_wrong_count_rejected(self):
        with pytest.raises(ValueError):
            van_kampen_points(list(PENTAGON.values())[:4])

    _coordinate = st.one_of(st.integers(-40, 40),
                            st.builds(Fraction, st.integers(-120, 120), st.sampled_from((2, 3, 7))))

    @settings(max_examples=120, deadline=None)
    @given(st.lists(st.tuples(_coordinate, _coordinate), min_size=5, max_size=5, unique=True))
    def test_always_one(self, coords):
        pts = [Point2(*c) for c in coords]
        assume(gp_points2(pts))
        assert van_kampen_points(pts) == 1

    def test_builds_and_sweeps_no_drawing(self, monkeypatch):
        built = []
        init = graphs.PlanarDrawing.__init__
        monkeypatch.setattr(graphs.PlanarDrawing, "__init__", lambda self, *args: built.append(1) or init(self, *args))
        monkeypatch.setattr(graphs, "_scan_drawing", lambda *args: pytest.fail("swept a drawing"))
        assert van_kampen_points(list(PENTAGON.values())) == 1
        assert built == []


class TestVanKampenDrawing:
    def test_pentagon_k5(self):
        assert van_kampen_drawing(make_drawing(K5, PENTAGON)) == 1

    def test_bent_k5(self):
        routes = {("v1", "v2"): [Point2(2, 3)], ("v2", "v5"): [Point2(0, 4)]}
        d = make_drawing(K5, PENTAGON, routes)
        assert validate_drawing(d) == ()
        assert van_kampen_drawing(d) == 1

    def test_straight_k33(self):
        d = make_drawing(K33, K33_POSITIONS)
        assert validate_drawing(d) == ()
        assert van_kampen_drawing(d) == 1

    def test_planar_k4(self):
        K4 = complete_graph(4)
        pos = {"v1": Point2(0, 6), "v2": Point2(-6, -3), "v3": Point2(6, -3), "v4": Point2(0, 1)}
        assert van_kampen_drawing(make_drawing(K4, pos)) == 0

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(-30, 30), st.integers(-30, 30)),
                    min_size=5, max_size=5, unique=True))
    def test_straight_k5_always_one(self, coords):
        pts = [Point2(*c) for c in coords]
        assume(gp_points2(pts))
        d = make_drawing(K5, dict(zip(K5.vertices, pts)))
        assert van_kampen_drawing(d) == 1


# -3..3 over a denominator of 1, 2, 3 or 7
_small_rational = st.builds(Fraction, st.integers(-3, 3), st.sampled_from((1, 2, 3, 7)))


class TestLinearFinder:
    def test_moment_curve(self):
        rep = find_linked_triangles_linear(MOMENT6)
        assert rep.cycle1.vertices == ("v1", "v3", "v5")
        assert rep.cycle2.vertices == ("v2", "v4", "v6")
        assert rep.lk_value == 1
        assert rep.method == "linear-central"

    def test_report_confirmed_by_triangle_predicate(self):
        rep = find_linked_triangles_linear(MOMENT6)
        by = {f"v{i}": MOMENT6[i - 1] for i in range(1, 7)}
        t1 = Triangle3(*(by[v] for v in rep.cycle1.vertices))
        t2 = Triangle3(*(by[v] for v in rep.cycle2.vertices))
        assert triangles_linked(t1, t2)

    def test_linked_pair_union(self):
        rep = find_linked_triangles_linear(LINKED_SIX)
        # recovers exactly the two triangles the set was built from
        assert rep.cycle1.vertices == ("v1", "v2", "v3")
        assert rep.cycle2.vertices == ("v4", "v5", "v6")

    def test_ledger(self):
        led = linear_parity_ledger(MOMENT6)
        assert len(led.entries) == 10
        assert led.total == 1

    def test_octahedron_rejected(self):
        octa = [Point3(1, 0, 0), Point3(-1, 0, 0), Point3(0, 1, 0),
                Point3(0, -1, 0), Point3(0, 0, 1), Point3(0, 0, -1)]
        with pytest.raises(GeneralPositionViolation):
            find_linked_triangles_linear(octa)

    def test_deterministic(self):
        assert find_linked_triangles_linear(MOMENT6, seed=3) == find_linked_triangles_linear(MOMENT6, seed=3)

    def test_builds_no_spatial_polyline(self, monkeypatch):
        # the central diagram is a drawing and its labels: no embedding of the points is built
        built = []
        init = SpatialPolyline.__init__
        monkeypatch.setattr(SpatialPolyline, "__init__", lambda self, *args: built.append(1) or init(self, *args))
        find_linked_triangles_linear(MOMENT6)
        assert built == []

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.integers(-40, 40), st.integers(-40, 40), st.integers(-40, 40)),
                    min_size=6, max_size=6, unique=True))
    def test_random_sets(self, coords):
        pts = [Point3(*c) for c in coords]
        assume(gp_points3(pts))
        rep = find_linked_triangles_linear(pts)
        names = set(rep.cycle1.vertices) | set(rep.cycle2.vertices)
        assert names == {f"v{i}" for i in range(1, 7)}
        by = {f"v{i}": pts[i - 1] for i in range(1, 7)}
        t1 = Triangle3(*(by[v] for v in rep.cycle1.vertices))
        t2 = Triangle3(*(by[v] for v in rep.cycle2.vertices))
        assert triangles_linked(t1, t2)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(_small_rational, _small_rational, _small_rational),
                    min_size=6, max_size=6, unique=True), st.integers(0, 100))
    def test_matches_sight_line_reference(self, coords, seed):
        """On a small grid of rationals, where coplanar points, tied
        functionals and rejected viewpoints are common, the ledger and the
        report are those the general sight-line test gives from the finder's
        viewpoint, and where one fails the other fails with the same
        exception class."""
        pts = [Point3(*c) for c in coords]
        try:
            entries, report = linear_analysis_reference(pts, seed)
        except IntrinsicLinksError as ex:
            for call in (find_linked_triangles_linear, linear_parity_ledger):
                with pytest.raises(IntrinsicLinksError) as info:
                    call(pts, seed)
                assert type(info.value) is type(ex)
            return
        assert linear_parity_ledger(pts, seed).entries == entries
        assert find_linked_triangles_linear(pts, seed) == report


class TestK6Finder:
    def test_moment_curve(self):
        rep = find_linked_cycles_k6(moment_k6_embedding(), seed=0)
        assert {rep.cycle1.vertices, rep.cycle2.vertices} == {
            ("v1", "v3", "v5"), ("v2", "v4", "v6")
        }
        assert rep.method == "pl-orthogonal"

    def test_oracle_confirms(self):
        emb = moment_k6_embedding()
        rep = oracle_confirm(emb, find_linked_cycles_k6(emb, seed=0))
        assert rep.oracle_confirmed is True

    def test_ledgers(self):
        leds = k6_parity_ledgers(moment_k6_embedding(), seed=0)
        assert len(leds) == 7
        assert leds[0].total == 1  # lk sum over the ten pairs
        assert leds[1].total == 1  # flat sum = subdrawing invariant
        assert all(led.total == 0 for led in leds[2:])  # spoke cancellations
        assert len(leds[0].entries) == 10

    def test_subdivided_input(self):
        sub = subdivided_moment_k6_embedding()
        rep = find_linked_cycles_k6(sub, seed=0)
        assert {rep.cycle1.vertices, rep.cycle2.vertices} == {
            ("v1", "v3", "v5"), ("v2", "v4", "v6")
        }
        assert oracle_confirm(sub, rep).oracle_confirmed is True

    def test_invalid_embedding(self):
        pos = {f"v{i}": MOMENT6[i - 1] for i in range(1, 7)}
        pos["v6"] = Point3(Fraction(3, 2), Fraction(5, 2), Fraction(9, 2))  # on route v1-v2
        with pytest.raises(EmbeddingInvalid):
            find_linked_cycles_k6(make_embedding(K6, pos), seed=0)

    def test_invalid_subdivided_input_is_rejected_before_smoothing(self):
        emb = folded_subdivided_k6()
        with pytest.raises(ValueError):
            smooth_reference(emb)
        with pytest.raises(EmbeddingInvalid) as info:
            smooth(emb)
        assert info.value.violations == validate_embedding(emb) != ()
        with pytest.raises(EmbeddingInvalid) as info:
            find_linked_cycles_k6(emb, seed=0)
        assert info.value.violations == validate_embedding(emb) != ()

    def test_wrong_graph(self):
        emb = make_embedding(K5, {f"v{i}": MOMENT6[i - 1] for i in range(1, 6)})
        with pytest.raises(ValueError):
            find_linked_cycles_k6(emb, seed=0)


class TestK44Finder:
    def test_moment_positions(self):
        emb = moment_k44_embedding()
        rep = find_linked_cycles_k44(emb, seed=0)
        assert rep.lk_value == 1
        assert len(rep.cycle1) == 4 and len(rep.cycle2) == 4
        assert oracle_confirm(emb, rep).oracle_confirmed is True

    def test_ledgers(self):
        leds = k44_parity_ledgers(moment_k44_embedding(), seed=0)
        assert [led.total for led in leds] == [1, 0, 0, 0, 1]
        assert len(leds[0].entries) == 9

    def test_seed_changes_nothing_for_oracle(self):
        emb = moment_k44_embedding()
        a = oracle_count_linked_pairs(emb, 4, 4, seed=0)
        b = oracle_count_linked_pairs(emb, 4, 4, seed=77)
        assert a.count == b.count
        assert a.linked_pairs == b.linked_pairs

    def test_vertex_on_route_rejected(self):
        pts = list(MOMENT8)
        # b1 at the midpoint of the a1-b2 segment
        pts[4] = Point3(Fraction(7, 2), Fraction(37, 2), Fraction(217, 2))
        emb = make_embedding(K44, dict(zip(K44.vertices, pts)))
        with pytest.raises(EmbeddingInvalid):
            find_linked_cycles_k44(emb, seed=0)

    def test_wrong_graph(self):
        emb = make_embedding(K33, dict(zip(K33.vertices, MOMENT8[:6])))
        with pytest.raises(ValueError):
            find_linked_cycles_k44(emb, seed=0)


class TestFlatLedger:
    """A flat ledger counts each crossing of two disjoint hub-free edges
    once, so its forced odd total is the crossing-parity invariant of the
    hub-free subdrawing: without one such crossing the total fails."""

    @staticmethod
    def assert_total_needs_every_crossing(diag, hubs, rows):
        def flat(d):  # the far cycles of the plan of a script whose one other ledger is flat
            script = lambda g: ("main", [(e, far.vertices, far.vertices) for far, e in rows], [("flat", 1, lambda e: e)])
            _, pairs, ((_, _, plan),) = invariants._hub_plan(d.graph, script)
            return invariants._front_ledger("flat", plan, [graphs._xor_rows(d._front, far[1]) for far, _, _ in pairs], 1)

        assert flat(diag).total == 1
        hub_free = {e for e in diag.graph.edges if not set(e) & set(hubs)}
        dropped = next(c for c in diag.crossings if set(c.edge1).isdisjoint(c.edge2) and {c.edge1, c.edge2} <= hub_free)
        mutant = diag.replace(crossings=tuple(c for c in diag.crossings if c != dropped))
        with pytest.raises(InternalParityFailure):
            flat(mutant)

    def test_k6(self):
        diag = find_general_projection(moment_k6_embedding(), seed=0)
        g = diag.graph
        rows = [(make_cycle(g, [w for w in g.vertices[1:] if w not in e]), e)
                for e in g.edges if "v1" not in e]
        self.assert_total_needs_every_crossing(diag, ("v1",), rows)

    def test_k44(self):
        diag = find_general_projection(moment_k44_embedding(), seed=0)
        g = diag.graph
        rows = []
        for end_a, end_b in g.edges:
            if "a1" in (end_a, end_b) or "b1" in (end_a, end_b):
                continue
            rest_a = [x for x in ("a2", "a3", "a4") if x != end_a]
            rest_b = [y for y in ("b2", "b3", "b4") if y != end_b]
            rows.append((make_cycle(g, (rest_a[0], rest_b[0], rest_a[1], rest_b[1])), (end_a, end_b)))
        self.assert_total_needs_every_crossing(diag, ("a1", "b1"), rows)


class TestHubPairLedger:
    def test_both_orders_checked(self, monkeypatch):
        # two closed curves cross an even number of times, so without one of
        # their crossings the two front parities of a cycle pair differ
        diag = find_general_projection(moment_k6_embedding(), seed=0)
        g = diag.graph
        for far, near in enumerate_disjoint_cycle_pairs(g, 3, 3):
            e1, e2 = set(g.cycle_edges(far)), set(g.cycle_edges(near))
            between = [c for c in diag.crossings if {c.edge1, c.edge2} & e1 and {c.edge1, c.edge2} & e2]
            if between:
                break
        mutant = diag.replace(crossings=tuple(c for c in diag.crossings if c != between[0]))
        monkeypatch.setattr(invariants, "_front_rows", lambda g, strands: mutant._front)
        for c1, c2 in ((far, near), (near, far)):
            with pytest.raises(InternalParityFailure, match="depends on the cycle order"):
                invariants._hub_analysis(moment_k6_embedding(), 0, lambda g: ("pair", [(None, c1.vertices, c2.vertices)], []))


class TestScriptsOnMasks:
    """The scripts read each cycle as vertices and an edge mask, and build
    `Cycle` records only for the report."""

    @pytest.mark.parametrize("call, source", [
        (find_linked_cycles_k6, gen_k6_pl_subdivided), (k6_parity_ledgers, gen_k6_pl_subdivided),
        (find_linked_cycles_k44, gen_k44_linear), (k44_parity_ledgers, gen_k44_linear),
        (find_linked_triangles_linear, gen_k6_points), (linear_parity_ledger, gen_k6_points),
    ], ids=lambda f: f.__name__)
    def test_two_cycle_records_per_call(self, monkeypatch, call, source):
        arg = source(4)
        built = []
        init = graphs.Cycle.__init__
        monkeypatch.setattr(graphs.Cycle, "__init__", lambda self, *args: built.append(1) or init(self, *args))
        call(arg, seed=4)
        assert len(built) == 2

    def test_one_bipartition_per_k44_analysis(self, monkeypatch):
        emb = gen_k44_linear(5)
        calls = []
        bipartition = graphs.bipartition
        for module in (graphs, invariants):
            monkeypatch.setattr(module, "bipartition", lambda g: calls.append(g) or bipartition(g))
        invariants._hub_plan.cache_clear()
        invariants._hub_analysis(emb, 5, invariants._k44_script)
        assert len(calls) == 1
        calls.clear()
        invariants._hub_analysis(emb, 5, invariants._k44_script)
        assert len(calls) == 0  # the second analysis of an equal core builds no plan

    def test_non_edge_in_a_report_is_a_value_error(self):
        emb = gen_k44_linear(1, bound=1000)
        cycle = graphs.Cycle(("a1", "a2", "b1"))
        report = find_linked_cycles_k44(emb).replace(cycle1=cycle)
        for call in (lambda: cycle_route(emb, cycle), lambda: oracle_confirm(emb, report),
                     lambda: make_cycle(emb.graph, cycle.vertices)):
            with pytest.raises(ValueError, match=r"^\(a1, a2\) is not an edge$"):
                call()


def renamed(emb, name):
    """`emb` with each vertex v named name(v), in the same order."""
    g = emb.graph
    return make_embedding(make_graph(list(map(name, g.vertices)), [(name(u), name(v)) for u, v in g.edges]),
                          {name(v): p for v, p in emb.position.items()},
                          {(name(u), name(v)): emb.route[u, v].vertices for u, v in g.edges})


class TestPlans:
    """The graph-only tables of the analyses and the oracle are built once per
    core graph, kept for at most 8 graphs, and hold no answer."""

    @staticmethod
    def count_cycles(monkeypatch) -> list:
        calls = []
        original = graphs._cycle
        for module in (graphs, invariants):
            monkeypatch.setattr(module, "_cycle", lambda g, seq: calls.append(seq) or original(g, seq))
        return calls

    def test_second_hub_analysis_of_an_equal_core_builds_no_plan(self, monkeypatch):
        first, second = gen_k6_pl_subdivided(3), gen_k6_pl_subdivided(4)
        assert first.position != second.position
        assert require_valid(first)._core[0] == require_valid(second)._core[0]
        scripted = []
        script = invariants._k6_script
        monkeypatch.setattr(invariants, "_k6_script", lambda g: scripted.append(g) or script(g))
        cycles = self.count_cycles(monkeypatch)
        find_linked_cycles_k6(first, seed=3)
        assert (len(scripted), len(cycles)) == (1, 20)  # 10 far and 10 near triangles
        k6_parity_ledgers(second, seed=4)
        find_linked_cycles_k6(first, seed=5)
        assert (len(scripted), len(cycles)) == (1, 20)

    def test_second_linear_analysis_builds_no_plan(self, monkeypatch):
        pts = gen_k6_points(2)
        invariants._hub_plan.cache_clear()
        cycles = self.count_cycles(monkeypatch)
        invariants._linear_analysis(pts, 2)
        assert len(cycles) == 20  # 10 far triangles of the K5 and 10 near ones of K6
        invariants._linear_analysis(pts, 2)
        assert len(cycles) == 20

    def test_second_oracle_count_builds_no_plan(self, monkeypatch):
        emb = moment_k6_embedding()
        invariants._oracle_plan.cache_clear()
        walks = []
        walk = graphs._cycle_walk
        monkeypatch.setattr(graphs, "_cycle_walk", lambda g, n: walks.append(n) or walk(g, n))
        first = oracle_count_linked_pairs(emb, 3, 3)
        assert walks == [3]
        assert oracle_count_linked_pairs(emb, 3, 3, seed=5) == first
        assert walks == [3]

    def test_renamed_and_reordered_cores_are_labelled_with_their_own_names(self):
        k6, k44 = gen_k6_pl_subdivided(5), gen_k44_linear(5)
        k6_parity_ledgers(k6, 5), k44_parity_ledgers(k44, 5)  # warm plans for the generators' names
        cases = [
            (renamed(k6, lambda v: v.replace("v", "q")), invariants._k6_script),
            (reordered(moment_k6_embedding(), ("v4", "v2", "v6", "v1", "v5", "v3")), invariants._k6_script),
            (reordered(k44, ("b2", "a3", "b1", "a1", "b4", "a2", "b3", "a4")), invariants._k44_script),
        ]
        for emb, script in cases:
            names = set(require_valid(emb)._core[0].vertices)
            report, ledgers = invariants._hub_analysis(emb, 5, script)
            assert (report, ledgers) == unplanned_hub_analysis(emb, 5, script)
            for ledger in ledgers:
                for label, _ in ledger.entries:
                    assert set(label[len("lk("):-1].replace(" | ", "-").split("-")) <= names

    def test_wrong_shape_raises_on_every_call(self, monkeypatch):
        k33 = make_embedding(K33, dict(zip(K33.vertices, MOMENT8[:6])))
        invariants._hub_plan.cache_clear()
        invariants._oracle_plan.cache_clear()
        for _ in range(2):
            with pytest.raises(ValueError, match=r"^embedding does not smooth to a complete bipartite 4\+4 graph$"):
                find_linked_cycles_k44(k33)
            with pytest.raises(ValueError, match="^embedding does not smooth to a complete graph on 6 vertices$"):
                k6_parity_ledgers(moment_k44_embedding())
            with pytest.raises(ValueError, match="^cycle length must be at least 3$"):
                oracle_count_linked_pairs(k33, 2, 4)
        monkeypatch.setattr(graphs, "CYCLE_SEARCH_BUDGET", 19)
        for _ in range(2):
            with pytest.raises(SearchExhausted, match="^40 vertex orders for 3-cycles exceed the budget of 19$"):
                oracle_count_linked_pairs(moment_k6_embedding(), 3, 3)
        assert invariants._hub_plan.cache_info().currsize == invariants._oracle_plan.cache_info().currsize == 0

    def test_a_kept_oracle_plan_is_not_checked_against_the_budget_again(self, monkeypatch):
        emb = moment_k6_embedding()
        invariants._oracle_plan.cache_clear()
        count = oracle_count_linked_pairs(emb, 3, 3).count
        monkeypatch.setattr(graphs, "CYCLE_SEARCH_BUDGET", 19)
        assert oracle_count_linked_pairs(emb, 3, 3).count == count  # the budget bounds the walk, not kept
        with pytest.raises(SearchExhausted, match="^40 vertex orders for 3-cycles exceed the budget of 19$"):
            oracle_count_linked_pairs(emb, 3, 4)

    def test_lengths_other_than_ints_meet_the_walks_own_checks(self):
        emb = moment_k6_embedding()
        with pytest.raises(TypeError, match="^'<' not supported between instances of 'list' and 'int'$"):
            oracle_count_linked_pairs(emb, [3], 3)
        with pytest.raises(TypeError, match="^'float' object cannot be interpreted as an integer$"):
            oracle_count_linked_pairs(emb, 3.0, 3)
        with pytest.raises(ValueError, match="^cycle length must be at least 3$"):
            oracle_count_linked_pairs(emb, True, 3)

    def test_caches_keep_at_most_8_graphs(self):
        plans = (invariants._hub_plan, invariants._oracle_plan)
        assert [plan.cache_info().maxsize for plan in plans] == [8, 8]
        emb = moment_k6_embedding()
        for i in range(10):
            named = renamed(emb, lambda v: f"{v}_{i}")
            assert k6_parity_ledgers(named)[0].total == 1
            assert oracle_count_linked_pairs(named, 3, 3).count == 1
        assert invariants._hub_plan.cache_info().currsize <= 8
        assert invariants._oracle_plan.cache_info().currsize <= 8

    @pytest.mark.parametrize("source", ["k6-pl", "k44-linear", "k6-points"])
    def test_equal_to_the_unplanned_reference(self, source):
        for seed in list(range(20)) * 2:  # cold plans, then warm ones
            if source == "k6-points":
                pts = gen_k6_points(seed)
                assert invariants._linear_analysis(pts, seed) == unplanned_linear_analysis(pts, seed)
                continue
            emb, script = ((gen_k6_pl_subdivided(seed), invariants._k6_script) if source == "k6-pl"
                           else (gen_k44_linear(seed), invariants._k44_script))
            assert invariants._hub_analysis(emb, seed, script) == unplanned_hub_analysis(emb, seed, script)


def reordered(emb, order):
    """`emb` with its vertices listed in `order`: the same positions and
    routes, so edge keys and route orientations follow the new order."""
    edges = emb.graph.edges
    return make_embedding(make_graph(order, edges), emb.position, {e: emb.route[e].vertices for e in edges})


class TestVertexOrders:
    """Reports and ledgers on vertex orders no generator lists: an
    interleaved K4,4, whose hub-free edge keys start in either part, and a
    K6 whose hub is not v1.  Pinned by the sha256 of their reprs, seeds
    0-19, recorded before the two analyses became one runner."""

    @staticmethod
    def digest(analyses):
        h = hashlib.sha256()
        for report, ledgers in analyses:
            h.update(repr((report, ledgers)).encode())
        return h.hexdigest()

    def test_interleaved_k44(self):
        order = ("b3", "a2", "b1", "a4", "a1", "b4", "b2", "a3")
        embs = [reordered(gen_k44_linear(seed), order) for seed in range(20)]
        assert {u[0] for u, _ in embs[0].graph.edges} == {"a", "b"}  # keys start in either part
        analyses = [(find_linked_cycles_k44(emb, seed), k44_parity_ledgers(emb, seed)) for seed, emb in enumerate(embs)]
        assert self.digest(analyses) == "d6bb03cdd31ebbcc2304d5fa4497bcc62eb120f970bb90a8ccf0811aa26bf16a"

    def test_permuted_k6(self):
        analyses = []
        for seed in range(20):
            emb = gen_k6_pl_subdivided(seed)
            emb = reordered(emb, ("v4", "v2", "v6", "v1", "v5", "v3") + emb.graph.vertices[6:])
            analyses.append((find_linked_cycles_k6(emb, seed), k6_parity_ledgers(emb, seed)))
        assert self.digest(analyses) == "f33e723c10e02ee2bf0bece75c7b5100e8ffbce282aa1eb79e726871bf4b6319"


class TestLedgersMatchReference:
    """Every ledger entry, a bit of a far cycle's front row or a popcount
    against a near cycle's edge mask, against one scan of the labelled
    crossings per entry."""

    @pytest.mark.parametrize("seed", range(30))
    @pytest.mark.parametrize("source, ledgers", [
        ("k6-pl", lambda seed: k6_parity_ledgers(gen_k6_pl_subdivided(seed), seed)),
        ("k44-linear", lambda seed: k44_parity_ledgers(gen_k44_linear(seed), seed)),
        ("k6-points", lambda seed: (linear_parity_ledger(gen_k6_points(seed), seed),)),
    ], ids=["k6-pl", "k44-linear", "k6-points"])
    def test_entries(self, source, ledgers, seed):
        diag = reference_diagram(source, seed)
        for ledger in ledgers(seed):
            assert ledger.entries == ledger_entries_reference(diag, ledger)


class TestFrontMatrixBuiltOnce:
    @pytest.mark.parametrize("analysis", [
        lambda: k6_parity_ledgers(subdivided_moment_k6_embedding()),
        lambda: find_linked_cycles_k44(moment_k44_embedding()),
        lambda: linear_parity_ledger(MOMENT6),
    ], ids=["k6", "k44", "linear"])
    def test_one_scan_of_the_crossings(self, analysis, monkeypatch):
        # each analysis reads its front matrix off the coordinate core of its
        # projection, folded once from the core's strands, and builds no
        # diagram, drawing, crossing record or planar point
        built = {cls: 0 for cls in (projection.ProjectedDiagram, graphs.GenericDrawing, graphs.Crossing, Point2)}
        for cls in built:
            def counted(self, *args, cls=cls, init=cls.__init__, **kwargs):
                built[cls] += 1
                init(self, *args, **kwargs)
            monkeypatch.setattr(cls, "__init__", counted)
        folds = []
        front_rows = invariants._front_rows
        monkeypatch.setattr(invariants, "_front_rows", lambda g, strands: folds.append(g) or front_rows(g, strands))
        analysis()
        assert list(built.values()) == [0, 0, 0, 0]
        assert len(folds) == 1


class TestReadersBuildNoRecords:
    """The finders, the ledgers and both oracles read the smoothing core's
    point chains: none builds a merged `SpatialPolyline` or a smoothed
    `ValidEmbedding`, where public `smooth` builds one polyline per merged
    route and one embedding."""

    @pytest.mark.parametrize("make, seed, find, ledgers, smoothing", [
        *[(gen_k6_pl_subdivided, seed, find_linked_cycles_k6, k6_parity_ledgers, (15, 1)) for seed in range(5)],
        (lambda seed: require_valid(subdivided_moment_k6_embedding()), 0,
         find_linked_cycles_k6, k6_parity_ledgers, (1, 1)),
        (gen_k44_linear, 0, find_linked_cycles_k44, k44_parity_ledgers, (0, 0)),
    ], ids=[f"k6-pl-{seed}" for seed in range(5)] + ["k6-one-edge-subdivided", "k44-linear-0"])
    def test_no_polyline_and_no_embedding(self, make, seed, find, ledgers, smoothing, monkeypatch):
        emb = make(seed)
        report = find(emb, seed)
        built = {SpatialPolyline: 0, ValidEmbedding: 0}
        for cls in built:
            def counted(self, *args, cls=cls, init=cls.__init__, **kwargs):
                built[cls] += 1
                init(self, *args, **kwargs)
            monkeypatch.setattr(cls, "__init__", counted)
        calls = {
            "finder": lambda: find(emb, seed),
            "ledgers": lambda: ledgers(emb, seed),
            "oracle_confirm": lambda: oracle_confirm(emb, report, seed),
            "oracle_count_linked_pairs": lambda: oracle_count_linked_pairs(emb, 3, 3, seed),
            "smooth": lambda: smooth(emb),
        }
        counts = {}
        for name, call in calls.items():
            built.update({SpatialPolyline: 0, ValidEmbedding: 0})
            call()
            counts[name] = tuple(built.values())
        assert counts == {**{name: (0, 0) for name in calls}, "smooth": smoothing}


class TestInvalidInputRefusedFirst:
    """Each analysis and each oracle refuses an invalid embedding with every
    violation, before smoothing and before any shape check."""

    @pytest.mark.parametrize("make", [folded_subdivided_k6, k44_with_a_vertex_on_a_route],
                             ids=["folded-k6", "k44-vertex-on-route"])
    @pytest.mark.parametrize("entry", [
        lambda emb: find_linked_cycles_k6(emb, seed=0),
        lambda emb: k6_parity_ledgers(emb, seed=0),
        lambda emb: find_linked_cycles_k44(emb, seed=0),
        lambda emb: k44_parity_ledgers(emb, seed=0),
        lambda emb: oracle_count_linked_pairs(emb, 3, 3),
        lambda emb: oracle_confirm(emb, _K6_REPORT),
    ], ids=["find_linked_cycles_k6", "k6_parity_ledgers", "find_linked_cycles_k44", "k44_parity_ledgers",
            "oracle_count_linked_pairs", "oracle_confirm"])
    def test_embedding_invalid(self, make, entry):
        emb = make()
        with pytest.raises(EmbeddingInvalid) as info:
            entry(emb)
        assert info.value.violations == validate_embedding(emb) != ()


class TestConfirmMatchesReference:
    """`oracle_confirm` reads lk off the cone matrix of the two cycles'
    edge routes; the reference cones one cycle's closed polygon over the
    other's, from the same apex."""

    @pytest.mark.parametrize("seed", range(30))
    @pytest.mark.parametrize("source, ledgers, pairs", [
        (gen_k6_pl_subdivided, k6_parity_ledgers, 10), (gen_k44_linear, k44_parity_ledgers, 9),
    ], ids=["k6-pl", "k44-linear"])
    def test_every_hub_pair(self, source, ledgers, pairs, seed):
        emb = source(seed)
        sm = smooth(emb)
        entries = ledgers(emb, seed)[0].entries
        assert len(entries) == pairs
        for label, _ in entries:
            far, near = (make_cycle(sm.graph, names.split("-")) for names in label[len("lk("):-1].split(" | "))
            lk = linking_mod2_sampled(cycle_route(sm, far), cycle_route(sm, near), SplitMix64(seed))
            report = LinkReport(far, near, lk, "pl-orthogonal")
            assert oracle_confirm(emb, report, seed).oracle_confirmed
            assert oracle_confirm(emb, report.replace(lk_value=1 - lk), seed).oracle_confirmed is False

    def test_cycles_sharing_a_vertex(self):
        report = _K6_REPORT.replace(cycle2=make_cycle(K6, ("v1", "v2", "v4")))
        with pytest.raises(PolylinesNotDisjoint, match="^the two polygons share a point$"):
            oracle_confirm(subdivided_moment_k6_embedding(), report)


class TestOracle:
    def test_moment_k6(self):
        res = oracle_count_linked_pairs(moment_k6_embedding(), 3, 3)
        assert res.total_pairs == 10
        assert res.count == 1
        assert res.linked_pairs[0][0].vertices == ("v1", "v3", "v5")
        assert res.linked_pairs[0][1].vertices == ("v2", "v4", "v6")

    def test_moment_k44(self):
        res = oracle_count_linked_pairs(moment_k44_embedding(), 4, 4)
        assert res.total_pairs == 18
        assert res.count == 2

    def test_k44_hub_family_count_is_odd(self):
        res = oracle_count_linked_pairs(moment_k44_embedding(), 4, 4)
        hub_family = sum(
            1
            for c1, c2 in res.linked_pairs
            if {"a1", "b1"} <= set(c1.vertices) or {"a1", "b1"} <= set(c2.vertices)
        )
        assert hub_family % 2 == 1

    def test_seed_independent(self):
        emb = moment_k6_embedding()
        assert (
            oracle_count_linked_pairs(emb, 3, 3, seed=1).linked_pairs
            == oracle_count_linked_pairs(emb, 3, 3, seed=99).linked_pairs
        )

    def test_cone_count_budget(self, monkeypatch):
        # 15 straight edges, each vertex-disjoint from 6: 90 side-pair tests
        monkeypatch.setattr(linking, "CONE_TEST_BUDGET", 90)
        assert oracle_count_linked_pairs(moment_k6_embedding(), 3, 3).total_pairs == 10
        monkeypatch.setattr(linking, "CONE_TEST_BUDGET", 89)
        with pytest.raises(SearchExhausted, match="^90 side-pair cone tests exceed the budget of 89$"):
            oracle_count_linked_pairs(moment_k6_embedding(), 3, 3)

    def test_confirmation_shares_the_cone_test_budget(self, monkeypatch):
        # two straight triangles: 3 * 3 side-pair cone tests
        monkeypatch.setattr(linking, "CONE_TEST_BUDGET", 9)
        assert oracle_confirm(moment_k6_embedding(), _K6_REPORT).oracle_confirmed
        monkeypatch.setattr(linking, "CONE_TEST_BUDGET", 8)
        with pytest.raises(SearchExhausted, match="^9 side-pair cone tests exceed the budget of 8$"):
            oracle_confirm(moment_k6_embedding(), _K6_REPORT)

    def test_no_cycle_polygons(self, monkeypatch):
        # the oracle and the confirmation read cycles off the cone matrix of
        # the edge routes: no closed polygon is built, none checked disjoint
        called = []
        init = SpatialPolyline.__init__

        def counted(self, vertices, closed=False):
            if closed:
                called.append("closed polygon")
            init(self, vertices, closed)

        monkeypatch.setattr(SpatialPolyline, "__init__", counted)
        monkeypatch.setattr(linking, "polylines_disjoint", lambda *args: called.append("polylines_disjoint"))
        assert oracle_count_linked_pairs(subdivided_moment_k6_embedding(), 3, 3).count == 1
        assert oracle_count_linked_pairs(moment_k44_embedding(), 4, 4).count == 2
        assert oracle_confirm(subdivided_moment_k6_embedding(), _K6_REPORT).oracle_confirmed
        assert called == []

    @pytest.mark.parametrize("n, linked, pairs", [(7, 7, 70), (8, 28, 280)])
    def test_conway_gordon_sachs_count(self, n, linked, pairs):
        # a straight moment-curve K_n links exactly one triangle pair per
        # 6-subset of its vertices (Conway-Gordon, Sachs): C(7, 6) and C(8, 6)
        g = complete_graph(n)
        emb = make_embedding(g, {v: Point3(i, i * i, i**3) for i, v in enumerate(g.vertices, 1)})
        first, *others = (oracle_count_linked_pairs(emb, 3, 3, seed=seed) for seed in (0, 1, 2))
        assert (first.count, first.total_pairs) == (linked, pairs)
        assert others == [first, first]


grid_coord = st.integers(-6, 6).map(lambda k: Fraction(k, 2))  # whole values become ints


@st.composite
def grid_embeddings(draw, centre: Point3):
    """A valid PL K6 or K4,4 with its cycle length, every vertex and corner
    on the half-integer grid in `centre` + [-3, 3]^3.  Coplanar quadruples,
    corners on the lines of other routes' sides, and lines from the centre
    through a corner that meet other routes are common."""
    g, length = draw(st.sampled_from([(K6, 3), (K44, 4)]))
    corners = st.builds(lambda x, y, z: centre + Point3(x, y, z), grid_coord, grid_coord, grid_coord)
    n = len(g.vertices)
    pos = dict(zip(g.vertices, draw(st.lists(corners, min_size=n, max_size=n, unique=True))))
    routes = {(u, v): [pos[u], *draw(st.lists(corners, max_size=1)), pos[v]] for u, v in g.edges}
    try:
        emb = make_embedding(g, pos, routes)
    except ValueError:  # a repeated or straight-through corner
        assume(False)
    assume(not validate_embedding(emb))
    return emb, length


class TestOracleMatchesReference:
    """The cone-crossing matrix against the oracle one pair at a time, which
    builds each pair's polygons and draws each pair its own apex."""

    @given(st.integers(0, 2**32), st.data())
    @settings(max_examples=50, deadline=None)
    def test_grid_embeddings(self, seed, data):
        # centred on the oracle's apex, so that the apex often lies on a
        # corner or in the plane of a side and a corner
        emb, n = data.draw(grid_embeddings(linking._draw_apex(SplitMix64(seed))))
        assert oracle_count_linked_pairs(emb, n, n, seed) == oracle_reference(emb, n, n, seed)

    def test_generators(self):
        for seed in range(30):
            straight = make_embedding(K6, dict(zip(K6.vertices, gen_k6_points(seed))))
            for emb, n in ((straight, 3), (gen_k6_pl_subdivided(seed), 3), (gen_k44_linear(seed), 4)):
                assert oracle_count_linked_pairs(emb, n, n, seed) == oracle_reference(emb, n, n, seed)

    def test_rational_and_mixed_lengths(self):
        emb = subdivided_moment_k6_embedding()
        assert oracle_count_linked_pairs(emb, 3, 3, 5) == oracle_reference(emb, 3, 3, 5)
        k7 = complete_graph(7)
        emb = make_embedding(k7, {v: Point3(i, i * i, i**3) for i, v in enumerate(k7.vertices, 1)})
        for lengths in ((3, 4), (4, 3)):
            result = oracle_count_linked_pairs(emb, *lengths, seed=2)
            assert result == oracle_reference(emb, *lengths, seed=2)
            assert result.total_pairs == 105


class TestInvarianceProbe:
    def test_identical(self):
        d = make_drawing(K5, PENTAGON)
        assert vk_invariance_probe(d, d)

    def test_moved_vertex_outside(self):
        d1 = make_drawing(K5, PENTAGON)
        moved = dict(PENTAGON)
        moved["v1"] = Point2(1, 3)
        d2 = make_drawing(K5, moved)
        assert validate_drawing(d2) == ()
        assert vk_invariance_probe(d1, d2)

    def test_moved_vertex_inside(self):
        d1 = make_drawing(K5, PENTAGON)
        moved = dict(PENTAGON)
        moved["v1"] = Point2(0, 0)  # into the hull: crossing pattern changes
        d2 = make_drawing(K5, moved)
        assert validate_drawing(d2) == ()
        assert vk_invariance_probe(d1, d2)

    def test_rerouted_star_without_moving(self):
        d1 = make_drawing(K5, PENTAGON)
        routes = {("v1", "v2"): [Point2(2, 3)], ("v1", "v3"): [Point2(3, 0)]}
        d2 = make_drawing(K5, PENTAGON, routes)
        assert validate_drawing(d2) == ()
        assert vk_invariance_probe(d1, d2)

    def test_different_graphs(self):
        with pytest.raises(DrawingsNotComparable):
            vk_invariance_probe(make_drawing(K5, PENTAGON), make_drawing(K33, K33_POSITIONS))

    def test_two_moved_vertices(self):
        d1 = make_drawing(K5, PENTAGON)
        moved = dict(PENTAGON)
        moved["v1"] = Point2(0, 3)
        moved["v2"] = Point2(3, 1)
        d2 = make_drawing(K5, moved)
        with pytest.raises(DrawingsNotComparable):
            vk_invariance_probe(d1, d2)

    def test_changed_routes_without_common_vertex(self):
        d1 = make_drawing(K5, PENTAGON)
        routes = {("v1", "v2"): [Point2(2, 3)], ("v3", "v4"): [Point2(0, -3)]}
        d2 = make_drawing(K5, PENTAGON, routes)
        with pytest.raises(DrawingsNotComparable):
            vk_invariance_probe(d1, d2)


@pytest.fixture
def validations(monkeypatch):
    """Every embedding passed to `validate_embedding`, whichever module
    namespace the call goes through."""
    calls = []
    original = graphs.validate_embedding

    def counted(emb):
        calls.append(emb)
        return original(emb)

    for module in (intrinsiclinks, graphs, projection, invariants, cli):
        if hasattr(module, "validate_embedding"):
            monkeypatch.setattr(module, "validate_embedding", counted)
    return calls


_K6_REPORT = LinkReport(
    make_cycle(K6, ("v1", "v3", "v5")),
    make_cycle(K6, ("v2", "v4", "v6")),
    1, "pl-orthogonal",
)

_ENTRY_POINTS = {
    "find_linked_cycles_k6": lambda: find_linked_cycles_k6(subdivided_moment_k6_embedding(), seed=0),
    "k6_parity_ledgers": lambda: k6_parity_ledgers(subdivided_moment_k6_embedding(), seed=0),
    "oracle_confirm": lambda: oracle_confirm(subdivided_moment_k6_embedding(), _K6_REPORT),
    "oracle_count_linked_pairs": lambda: oracle_count_linked_pairs(subdivided_moment_k6_embedding(), 3, 3),
    "find_linked_cycles_k44": lambda: find_linked_cycles_k44(moment_k44_embedding(), seed=0),
    "k44_parity_ledgers": lambda: k44_parity_ledgers(moment_k44_embedding(), seed=0),
    "find_general_projection": lambda: find_general_projection(moment_k6_embedding(), seed=0),
}


class TestBoundedSearchPastMachineWords:
    """A search whose candidate cube doubles every 16 rejections still ends
    in SearchExhausted once its coordinates outgrow 64-bit words."""

    def test_projection_direction_search(self, monkeypatch):
        tried = []

        def reject(emb, direction):
            tried.append(direction)
            raise ProjectionNotGeneral("rejected")

        monkeypatch.setattr(projection, "project_orthogonal", reject)
        with pytest.raises(SearchExhausted):
            find_general_projection(moment_k6_embedding())
        assert max(abs(c) for d in tried for c in d.coords()).bit_length() > 63

    def test_viewpoint_search(self, monkeypatch):
        tried = []

        def reject(points, apex, normal, names=None):
            tried.append(normal)
            raise ProjectionNotGeneral("rejected")

        monkeypatch.setattr(invariants, "_central", reject)
        with pytest.raises(SearchExhausted):
            find_linked_triangles_linear(MOMENT6)
        assert max(abs(c) for n in tried for c in n.coords()).bit_length() > 63


class TestDirectionSearchDrawRules:
    """The draw sequences of the two direction searches, pinned with a
    scripted generator and a projector that rejects and records every
    candidate it is given."""

    def test_projection_direction_search(self, monkeypatch):
        """The zero vector is skipped, a candidate whose canonical direction
        was tried is skipped, and the cube [-8, 8]^3 doubles after every 16
        rejections; a skip uses a try but is not a rejection."""
        tried = []

        def reject(emb, direction):
            tried.append(direction.coords())
            raise ProjectionNotGeneral("rejected")

        canonical = [(1, 0, k) for k in range(1, 9)] + [(1, 1, k) for k in range(1, 7)]
        rng = ScriptedRng([(0, 0, 0), (2, 4, 6), (-1, -2, -3), (0, 0, -5), *canonical, (9, 16, -16), (0, 0, 0)])
        monkeypatch.setattr(projection, "SplitMix64", rng)
        monkeypatch.setattr(projection, "project_orthogonal", reject)
        monkeypatch.setattr(projection, "DIRECTION_TRIES", 20)
        with pytest.raises(SearchExhausted, match="in 20 tries"):
            find_general_projection(moment_k6_embedding())
        assert tried == [(1, 2, 3), (0, 0, 1), *canonical, (9, 16, -16)]
        assert rng.ranges == [(-8, 8)] * 3 * 18 + [(-16, 16)] * 3 * 2

    def test_viewpoint_search(self, monkeypatch):
        """The first functional is (1, 0, 0) and takes no draw; a zero
        vector is drawn again at once; a repeated candidate is tried again;
        a functional tying two points is rejected unprojected; and the cube
        [-4, 4]^3 doubles after every 16 rejections."""
        tried = []

        def reject(points, apex, normal, names=None):
            tried.append(normal.coords())
            raise ProjectionNotGeneral("rejected")

        # each of these takes distinct values on the moment curve
        distinct = [(0, 0, 1), (1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1), (2, 0, 0),
                    (0, 2, 0), (0, 0, 2), (1, 2, 0), (1, 0, 2), (2, 1, 0), (0, 1, 2)]
        tie = (-3, 1, 0)  # v1 and v2 both at -2
        rng = ScriptedRng([(0, 0, 0), (0, 1, 0), (0, 1, 0), tie, *distinct, (5, 0, 0), (1, 0, 0)])
        monkeypatch.setattr(invariants, "SplitMix64", rng)
        monkeypatch.setattr(invariants, "_central", reject)
        monkeypatch.setattr(invariants, "VIEWPOINT_TRIES", 17)
        with pytest.raises(SearchExhausted, match="in 17 tries"):
            find_linked_triangles_linear(MOMENT6)
        assert tried == [(1, 0, 0), (0, 1, 0), (0, 1, 0), *distinct, (5, 0, 0)]
        assert rng.ranges == [(-4, 4)] * 3 * 16 + [(-8, 8)] * 3 * 2


class TestValidateOnce:
    @pytest.mark.parametrize("name", sorted(_ENTRY_POINTS))
    def test_raw_input_is_validated_once(self, name, validations):
        _ENTRY_POINTS[name]()
        assert len(validations) == 1

    def test_project_orthogonal_validates_raw_input_once(self, validations):
        emb = moment_k6_embedding()
        direction = find_general_projection(require_valid(emb), seed=0).direction
        validations.clear()
        project_orthogonal(emb, direction)
        assert len(validations) == 1

    @pytest.mark.parametrize("maker", [gen_k6_pl_subdivided, gen_k44_linear, gen_polygon_pair])
    def test_generators_return_validated_embeddings(self, maker):
        emb = maker(0)
        assert isinstance(emb, ValidEmbedding)
        assert require_valid(emb) is emb

    def test_generated_embedding_is_not_checked_again(self, validations):
        emb = gen_k6_pl_subdivided(0)
        raw = make_embedding(emb.graph, emb.position, {e: r.vertices for e, r in emb.route.items()})
        for subject, expected in ((emb, 0), (raw, 3)):
            validations.clear()
            report = find_linked_cycles_k6(subject, seed=0)
            oracle_confirm(subject, report, seed=0)
            k6_parity_ledgers(subject, seed=0)
            assert len(validations) == expected

    def test_validated_input_is_not_checked_again(self, validations):
        valid = require_valid(moment_k6_embedding())
        validations.clear()
        diag = find_general_projection(valid, seed=0)
        project_orthogonal(valid, diag.direction)
        report = find_linked_cycles_k6(valid, seed=0)
        oracle_confirm(valid, report)
        assert validations == []


@pytest.fixture
def smoothings(monkeypatch):
    """The graphs handed to `graphs._core_of`, the smoothing core that every
    `ValidEmbedding` builds once, in its constructor."""
    calls = []
    original = graphs._core_of

    def counted(g, position, route):
        calls.append(g)
        return original(g, position, route)

    monkeypatch.setattr(graphs, "_core_of", counted)
    return calls


class TestSmoothOnce:
    """A validated embedding carries its smoothed core: the finders, ledgers
    and oracles read it, so they smooth raw input once per call and a
    `ValidEmbedding` never."""

    @pytest.mark.parametrize("make, find, ledgers, length", [
        (gen_k6_pl_subdivided, find_linked_cycles_k6, k6_parity_ledgers, 3),
        (gen_k44_linear, find_linked_cycles_k44, k44_parity_ledgers, 4),
    ], ids=["k6-pl", "k44-linear"])
    @pytest.mark.parametrize("seed", range(3))
    def test_readers_smooth_raw_input_once_and_validated_input_never(self, make, find, ledgers, length, seed,
                                                                      smoothings):
        valid = make(seed)
        raw = graphs.PLEmbedding(valid.graph, valid.position, valid.route)
        report = find(valid, seed)
        calls = {
            "finder": lambda emb: find(emb, seed),
            "ledgers": lambda emb: ledgers(emb, seed),
            "oracle_confirm": lambda emb: oracle_confirm(emb, report, seed),
            "oracle_count_linked_pairs": lambda emb: oracle_count_linked_pairs(emb, length, length, seed),
        }
        # on the generated input, finder, oracle_confirm and ledgers are a `pl-projection` op
        for subject, expected in ((valid, []), (raw, [valid.graph])):
            for name, call in calls.items():
                smoothings.clear()
                call(subject)
                assert (name, smoothings) == (name, expected)

    def test_require_valid_smooths_once_and_smooth_reads_the_core(self, smoothings):
        valid = gen_k6_pl_subdivided(0)
        raw = graphs.PLEmbedding(valid.graph, valid.position, valid.route)
        smoothings.clear()
        assert require_valid(raw)._core == valid._core
        assert smoothings == [valid.graph]
        # `smooth` builds the smoothed copy, which smooths its core graph again
        # and absorbs nothing; on a ValidEmbedding that is the only call
        for subject, expected in ((raw, [valid.graph, K6]), (valid, [K6])):
            smoothings.clear()
            sm = smooth(subject)
            assert smoothings == expected
            assert sm._core[0] is sm.graph and sm._core[2] == valid._core[2]

    def test_replace_smooths_the_changed_copy(self, smoothings):
        # the straight cut of v1-v2 smooths away until its first half bends
        valid = require_valid(subdivided_moment_k6_embedding())
        p, bend, mid = valid.position["v1"], Point3(1, 2, 3), valid.position["v1.v2.1"]
        smoothings.clear()
        bent = valid.replace(route={**valid.route, ("v1", "v1.v2.1"): SpatialPolyline.through([p, bend, mid])})
        assert smoothings == [valid.graph]
        assert valid._core[2][0] == (p, Point3(2, 4, 8)) and bent._core[2][0] == (p, bend, mid, Point3(2, 4, 8))


@pytest.fixture
def sweeps(monkeypatch):
    """The arguments of every sweep by `graphs._scan_drawing`, the one sweep
    behind `validate_drawing`, `require_generic` and the projections."""
    calls = []
    original = graphs._scan_drawing

    def counted(*args):
        calls.append(args)
        return original(*args)

    for module in (graphs, projection):
        monkeypatch.setattr(module, "_scan_drawing", counted)
    return calls


class TestSweepOnce:
    def test_project_orthogonal_sweeps_once(self, sweeps):
        valid = require_valid(moment_k6_embedding())
        direction = find_general_projection(valid, seed=0).direction
        sweeps.clear()
        drawing = project_orthogonal(valid, direction).drawing
        assert len(sweeps) == 1
        self.assert_carried_crossings_read_without_sweep(drawing, sweeps)

    def test_project_central_sweeps_once(self, sweeps):
        # the central core tests each pair of disjoint image edges and sweeps nothing
        drawing = project_central(MOMENT6, MOMENT6[-1], Point3(1, 0, 0)).drawing
        assert sweeps == []
        self.assert_carried_crossings_read_without_sweep(drawing, sweeps)

    @pytest.mark.parametrize("seed", range(4))
    def test_van_kampen_on_a_plain_drawing_sweeps_once_and_builds_no_record(self, seed, sweeps, monkeypatch):
        k5, k33 = gen_k5_drawing(seed), gen_k33_drawing(seed)
        drawings = [k5, k33, bend_drawing(k5, seed), move_vertex_star(k33, seed)]
        built = {graphs.Crossing: 0, graphs.GenericDrawing: 0}
        for cls in built:
            def counted(self, *args, cls=cls, init=cls.__init__, **kwargs):
                built[cls] += 1
                init(self, *args, **kwargs)
            monkeypatch.setattr(cls, "__init__", counted)
        for d in drawings:
            sweeps.clear()
            assert van_kampen_drawing(d) == 1
            assert len(sweeps) == 1
        assert built == {graphs.Crossing: 0, graphs.GenericDrawing: 0}
        extract_crossings(k5)  # the counters see the records of a generic copy
        assert built[graphs.Crossing] > 0 and built[graphs.GenericDrawing] == 1

    @staticmethod
    def assert_carried_crossings_read_without_sweep(drawing, sweeps):
        sweeps.clear()
        carried = (extract_crossings(drawing), van_kampen_drawing(drawing))
        assert sweeps == []
        plain = make_drawing(drawing.graph, drawing.position, {e: r.vertices for e, r in drawing.route.items()})
        assert carried == (extract_crossings(plain), van_kampen_drawing(plain))

    @pytest.mark.parametrize("points", [
        MOMENT6,
        # two x-ties: the first functional is rejected before any projection
        [Point3(0, 0, 0), Point3(0, 1, 5), Point3(1, 0, 2), Point3(2, 3, 1), Point3(3, 1, 4), Point3(3, 5, 9)],
    ])
    def test_linear_analysis_sweeps_once_per_viewpoint(self, points, sweeps, monkeypatch):
        viewpoints = []
        original = invariants._central

        def counted(*args, **kwargs):
            viewpoints.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(invariants, "_central", counted)
        invariants._linear_analysis(points, seed=0)
        assert len(viewpoints) >= 1
        assert sweeps == []  # each viewpoint's central core tests its image edges pair by pair
