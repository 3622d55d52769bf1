"""Tests for graphs, cycles, embeddings, drawings and their validators."""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from intrinsiclinks import graphs, projection
from intrinsiclinks.errors import (
    DrawingNotGeneral,
    EmbeddingInvalid,
    SearchExhausted,
)
from intrinsiclinks.geometry import Point2, Point3, gp_points3
from intrinsiclinks.graphs import (
    GenericDrawing,
    PlanarDrawing,
    PlanarPolyline,
    PLEmbedding,
    ValidEmbedding,
    bipartition,
    complete_bipartite,
    complete_graph,
    enumerate_cycles,
    enumerate_disjoint_cycle_pairs,
    extract_crossings,
    is_complete,
    is_complete_bipartite,
    make_cycle,
    make_drawing,
    make_embedding,
    make_graph,
    require_generic,
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
from intrinsiclinks.invariants import van_kampen_drawing
from intrinsiclinks.linking import SpatialPolyline
from intrinsiclinks.projection import find_general_projection, project_orthogonal

from helpers import (
    bipartition_reference,
    bits_reference,
    box_groups_reference,
    box_pairs_reference,
    box_reference,
    cycle_route,
    disjoint_cycle_pairs_reference,
    enumerate_cycles_reference,
    moment_curve_k6,
    neighbors,
    reference_key,
    scan_drawing_reference,
    smooth_reference,
    subdivided,
    validate_embedding_reference,
)


def P2(x, y):
    return Point2(Fraction(x), Fraction(y))


def P3(x, y, z):
    return Point3(Fraction(x), Fraction(y), Fraction(z))


def moment_positions(n):
    return {f"v{i}": P3(i, i * i, i * i * i) for i in range(1, n + 1)}


K6 = complete_graph(6)
K44 = complete_bipartite(4, 4)
K33 = complete_bipartite(3, 3)
K5 = complete_graph(5)
K4 = complete_graph(4)

PENTAGON = {
    "v1": P2(0, 2),
    "v2": P2(2, 1),
    "v3": P2(1, -2),
    "v4": P2(-1, -2),
    "v5": P2(-2, 1),
}


class TestGraphBasics:
    def test_complete_graph_sizes(self):
        assert len(K6.vertices) == 6
        assert len(K6.edges) == 15
        assert is_complete(K6)

    def test_complete_bipartite_sizes(self):
        assert len(K44.vertices) == 8
        assert len(K44.edges) == 16
        assert len(K33.edges) == 9
        assert is_complete_bipartite(K44, 4, 4)
        assert not is_complete_bipartite(K44, 3, 3)
        assert not is_complete(K44)

    def test_edge_key_uses_vertex_order(self):
        assert K6.edge_key("v5", "v2") == ("v2", "v5")
        assert K44.edge_key("b1", "a3") == ("a3", "b1")

    def test_neighbors_and_degree(self):
        assert neighbors(K44, "a1") == ("b1", "b2", "b3", "b4")
        assert len(neighbors(K44, "b2")) == 4
        assert not K44.has_edge("a1", "a2")
        assert K6.has_edge("v6", "v1")

    def test_index_tables_stay_out_of_value(self):
        g = make_graph(["x", "y", "z"], [("z", "x"), ("y", "x")])
        assert [g.index(v) for v in g.vertices] == [0, 1, 2]
        assert g.has_edge("x", "z") and not g.has_edge("y", "z")
        with pytest.raises(ValueError, match="'w' is not a vertex"):
            g.has_edge("x", "w")
        same = make_graph(["x", "y", "z"], [("x", "y"), ("x", "z")])
        assert g == same and hash(g) == hash(same)
        assert repr(g) == "Graph(vertices=('x', 'y', 'z'), edges=(('x', 'y'), ('x', 'z')))"

    def test_make_graph_rejects_bad_input(self):
        with pytest.raises(ValueError):
            make_graph(["a", "a"], [])
        with pytest.raises(ValueError):
            make_graph(["a", "b"], [("a", "c")])
        with pytest.raises(ValueError):
            make_graph(["a", "b"], [("a", "a")])

    def test_bipartition(self):
        assert bipartition(K44) == (("a1", "a2", "a3", "a4"), ("b1", "b2", "b3", "b4"))
        with pytest.raises(ValueError):
            bipartition(K6)  # odd cycles


@st.composite
def small_graphs(draw):
    """Graphs of at most 8 vertices listed in any order, the empty one
    included: any edges, or only edges across a random two-colouring, so
    that bipartite graphs, connected or not, are common."""
    n = draw(st.integers(0, 8))
    names = draw(st.permutations([f"x{i}" for i in range(n)]))
    colour = dict(zip(names, draw(st.lists(st.booleans(), min_size=n, max_size=n))))
    across = draw(st.booleans())
    pairs = [(u, v) for u, v in combinations(names, 2) if not across or colour[u] != colour[v]]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return make_graph(names, edges)


class TestBipartitionMatchesReference:
    @settings(max_examples=400, deadline=None)
    @given(small_graphs())
    @example(make_graph([], []))
    @example(make_graph(["x", "y", "z", "w"], [("x", "y"), ("z", "w")]))  # bipartite, not connected
    @example(make_graph(["x", "y", "z", "w"], [("w", "x"), ("x", "y"), ("y", "w")]))  # odd cycle, not connected
    def test_same_parts_or_same_message(self, g):
        try:
            parts = bipartition_reference(g)
        except ValueError as ex:
            with pytest.raises(ValueError) as info:
                bipartition(g)
            assert str(info.value) == str(ex)
            parts = None
        else:
            assert bipartition(g) == parts
        for m in range(len(g.vertices) + 1):
            n = len(g.vertices) - m
            expected = parts is not None and {len(parts[0]), len(parts[1])} == {m, n} and len(g.edges) == m * n
            assert is_complete_bipartite(g, m, n) is expected


class TestCycles:
    def test_canonical_form(self):
        c = make_cycle(K6, ("v3", "v2", "v1"))
        assert c.vertices == ("v1", "v2", "v3")
        d = make_cycle(K6, ("v4", "v6", "v5"))
        assert d.vertices == ("v4", "v5", "v6")
        # all rotations and reflections collapse to one object
        reps = {make_cycle(K44, seq) for seq in [
            ("a1", "b1", "a2", "b2"),
            ("b1", "a2", "b2", "a1"),
            ("a1", "b2", "a2", "b1"),
            ("b2", "a2", "b1", "a1"),
        ]}
        assert len(reps) == 1

    def test_make_cycle_rejects_non_cycles(self):
        with pytest.raises(ValueError):
            make_cycle(K6, ("v1", "v2"))
        with pytest.raises(ValueError):
            make_cycle(K6, ("v1", "v2", "v1"))
        with pytest.raises(ValueError):
            make_cycle(K44, ("a1", "a2", "b1"))  # a1a2 not an edge

    def test_triangle_counts(self):
        assert len(enumerate_cycles(K6, 3)) == 20
        assert len(enumerate_cycles(K4, 3)) == 4
        assert len(enumerate_cycles(K33, 3)) == 0

    def test_four_cycle_counts(self):
        assert len(enumerate_cycles(K33, 4)) == 9
        assert len(enumerate_cycles(K44, 4)) == 36

    def test_enumeration_is_sorted(self):
        tris = enumerate_cycles(K6, 3)
        assert tris[0].vertices == ("v1", "v2", "v3")
        assert tris[-1].vertices == ("v4", "v5", "v6")
        assert list(tris) == sorted(tris, key=lambda c: c.vertices)

    def test_disjoint_pair_counts(self):
        assert len(enumerate_disjoint_cycle_pairs(K6, 3, 3)) == 10
        assert len(enumerate_disjoint_cycle_pairs(K44, 4, 4)) == 18
        assert len(enumerate_disjoint_cycle_pairs(K6, 3, 4)) == 0  # needs 7 vertices

    def test_enumeration_over_budget_raises(self):
        assert enumerate_cycles(K4, 5) == ()
        with pytest.raises(SearchExhausted):
            enumerate_cycles(complete_graph(14), 9)  # 80,720,640 vertex orders
        with pytest.raises(SearchExhausted):
            enumerate_disjoint_cycle_pairs(complete_graph(12), 6, 5)  # 55,440 x 9,504 pairs

    def test_cycle_edges(self):
        c = make_cycle(K44, ("a1", "b1", "a2", "b2"))
        assert set(K44.cycle_edges(c)) == {("a1", "b1"), ("a2", "b1"), ("a2", "b2"), ("a1", "b2")}


class TestBitsMatchReference:
    """`_bits` reads a mask in one pass over its digits; the reference clears
    one bit of the whole mask at a time.  Short, long, sparse and dense."""

    MASKS = st.one_of(
        st.integers(0, 2**70),
        st.integers(0, 2**2100),
        st.sets(st.integers(0, 2100), max_size=8).map(lambda bits: sum(1 << b for b in bits)),
        st.integers(0, 2**2100).map(lambda m: ~m & (2**2100 - 1)),
    )

    @settings(max_examples=300)
    @given(MASKS)
    def test_equal(self, mask):
        assert graphs._bits(mask) == bits_reference(mask)

    def test_edges(self):
        assert graphs._bits(0) == [] and graphs._bits(1) == [0] and graphs._bits(0b1011) == [0, 1, 3]
        assert graphs._bits(1 << 2000 | 1) == [0, 2000]


class TestEnumerationMatchesReference:
    """Walks and bitmask pairing against every vertex order of every vertex
    subset, outputs compared in full, order included."""

    @staticmethod
    def check(g, lengths, pair_lengths):
        for length in lengths:
            assert enumerate_cycles(g, length) == enumerate_cycles_reference(g, length)
        for len1, len2 in pair_lengths:
            assert enumerate_disjoint_cycle_pairs(g, len1, len2) == disjoint_cycle_pairs_reference(g, len1, len2)

    @pytest.mark.parametrize(
        "g",
        [complete_graph(n) for n in range(3, 9)] + [complete_bipartite(m, n) for m, n in ((1, 3), (2, 3), (3, 3), (3, 4), (4, 4))],
        ids=lambda g: f"{len(g.vertices)}v{len(g.edges)}e",
    )
    def test_complete_graphs(self, g):
        n = len(g.vertices)
        self.check(g, range(3, n + 2), [(3, 3), (3, 4), (4, 3), (4, 4), (3, max(3, n - 3))])

    def test_names_out_of_lexical_order(self):
        # "v10" sorts before "v2" and "v9": canonical forms follow the names
        names = ["v10", "v2", "v9", "v1", "v11", "v3", "v20"]
        self.check(make_graph(names, combinations(names, 2)), range(3, 8), [(3, 3), (3, 4), (4, 3)])

    def test_names_listed_in_reverse(self):
        # the walk runs on name ranks, which here reverse the index order
        names = [f"v{i}" for i in range(12, 5, -1)]
        self.check(make_graph(names, combinations(names, 2)), range(3, 8), [(3, 3), (3, 4), (4, 3)])
        left, right = names[:3], names[3:]
        self.check(make_graph(names, [(u, v) for u in left for v in right]), (4, 6), [(4, 4)])

    @given(st.lists(st.integers(1, 30), min_size=3, max_size=9, unique=True), st.data())
    @settings(max_examples=60, deadline=None)
    def test_random_graphs(self, labels, data):
        names = [f"v{k}" for k in labels]
        pairs = list(combinations(names, 2))
        keep = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        g = make_graph(names, [e for e, k in zip(pairs, keep) if k])
        self.check(g, range(3, min(len(names), 6) + 1), [(3, 3), (3, 4), (4, 3), (4, 4)])


class TestEmbeddingConstruction:
    def test_straight_default(self):
        emb = make_embedding(K6, moment_positions(6))
        assert len(emb.route) == 15
        for key, poly in emb.route.items():
            assert poly.vertices == (emb.position[key[0]], emb.position[key[1]])

    def test_route_orientation_normalized(self):
        pos = {"v1": P3(0, 0, 0), "v2": P3(4, 0, 0), "v3": P3(0, 4, 0)}
        g = make_graph(["v1", "v2", "v3"], [("v1", "v2"), ("v2", "v3"), ("v1", "v3")])
        # give the v1v2 route backwards and with an explicit bend
        emb = make_embedding(g, pos, {("v2", "v1"): [P3(4, 0, 0), P3(2, 1, 0), P3(0, 0, 0)]})
        assert emb.route[("v1", "v2")].vertices == (P3(0, 0, 0), P3(2, 1, 0), P3(4, 0, 0))
        assert emb.route[("v1", "v2")].vertices[::-1] == (P3(4, 0, 0), P3(2, 1, 0), P3(0, 0, 0))

    def test_interior_points_only(self):
        pos = {"u": P3(0, 0, 0), "v": P3(4, 0, 0)}
        g = make_graph(["u", "v"], [("u", "v")])
        emb = make_embedding(g, pos, {("u", "v"): [P3(2, 3, 1)]})
        assert emb.route[("u", "v")].vertices == (P3(0, 0, 0), P3(2, 3, 1), P3(4, 0, 0))

    def test_mismatched_route_raises(self):
        pos = {"u": P3(0, 0, 0), "v": P3(4, 0, 0)}
        g = make_graph(["u", "v"], [("u", "v")])
        with pytest.raises(ValueError):
            make_embedding(g, pos, {("u", "v"): [P3(0, 0, 0), P3(9, 9, 9)]})


class TestValidateEmbedding:
    def test_moment_curve_k6_is_valid(self):
        emb = make_embedding(K6, moment_positions(6))
        assert validate_embedding(emb) == ()

    def test_crossing_diagonals(self):
        g = make_graph(["a", "b", "c", "d"], [("a", "c"), ("b", "d")])
        pos = {"a": P3(0, 0, 0), "c": P3(2, 2, 0), "b": P3(2, 0, 0), "d": P3(0, 2, 0)}
        kinds = {v.kind for v in validate_embedding(make_embedding(g, pos))}
        assert "routes-cross" in kinds

    def test_coincident_vertices(self):
        pos = {v: moment_positions(8)[f"v{i+1}"] for i, v in enumerate(K44.vertices)}
        pos["a2"] = pos["a1"]
        kinds = {v.kind for v in validate_embedding(make_embedding(K44, pos))}
        assert "coincident-vertices" in kinds

    def test_vertex_on_route(self):
        pos = {"v1": P3(0, 0, 0), "v2": P3(4, 0, 0), "v3": P3(0, 4, 0), "v4": P3(2, 0, 0)}
        kinds = {v.kind for v in validate_embedding(make_embedding(K4, pos))}
        assert "vertex-on-route" in kinds

    def test_adjacent_routes_meeting_off_vertex(self):
        g = make_graph(["u", "v", "w"], [("u", "v"), ("u", "w")])
        pos = {"u": P3(0, 0, 0), "v": P3(4, 0, 0), "w": P3(4, 4, 0)}
        # both routes bend through (2, 1, 0)
        emb = make_embedding(g, pos, {
            ("u", "v"): [P3(2, 1, 0)],
            ("u", "w"): [P3(2, 1, 0)],
        })
        kinds = {v.kind for v in validate_embedding(emb)}
        assert "adjacent-routes-meet-off-vertex" in kinds

    def test_overlapping_routes(self):
        g = make_graph(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
        pos = {"a": P3(0, 0, 0), "b": P3(4, 0, 0), "c": P3(1, 0, 0), "d": P3(1, 4, 0)}
        # c sits inside route ab, and route cd leaves along it? no: cd is
        # vertical, so the contact is a single point: c on ab.
        kinds = {v.kind for v in validate_embedding(make_embedding(g, pos))}
        assert "vertex-on-route" in kinds
        assert "routes-cross" in kinds

    def test_adjacent_routes_collinear_from_shared_vertex(self):
        g = make_graph(["u", "v", "w"], [("u", "v"), ("u", "w")])
        pos = {"u": P3(0, 0, 0), "v": P3(2, 0, 0), "w": P3(4, 0, 0)}
        kinds = {v.kind for v in validate_embedding(make_embedding(g, pos))}
        assert "routes-overlap" in kinds
        assert "vertex-on-route" in kinds

    def test_bent_routes_sharing_a_segment(self):
        g = make_graph(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
        pos = {"a": P3(0, 0, 0), "b": P3(3, 0, 0), "c": P3(0, 2, 0), "d": P3(3, 2, 0)}
        emb = make_embedding(g, pos, {
            ("a", "b"): [P3(1, 1, 0), P3(2, 1, 0)],
            ("c", "d"): [P3(1, 1, 0), P3(2, 1, 0)],
        })
        overlaps = [v for v in validate_embedding(emb) if v.kind == "routes-overlap"]
        assert [v.subjects for v in overlaps] == [(("a", "b"), ("c", "d"), 1, 1)]

    def test_terminal_sides_meeting_only_at_shared_vertex(self):
        g = make_graph(["u", "v", "w"], [("u", "v"), ("u", "w")])
        pos = {"u": P3(0, 0, 0), "v": P3(4, 0, 0), "w": P3(0, 4, 0)}
        # the terminal sides at u are u-(1,1,1) and u-(1,1,-1): one common point, u
        emb = make_embedding(g, pos, {("u", "v"): [P3(1, 1, 1)], ("u", "w"): [P3(1, 1, -1)]})
        assert validate_embedding(emb) == ()

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(-30, 30), st.integers(-30, 30), st.integers(-30, 30)),
                    min_size=4, max_size=4, unique=True))
    def test_generic_straight_k4_always_valid(self, coords):
        pts = [P3(*c) for c in coords]
        from hypothesis import assume
        assume(gp_points3(pts))
        emb = make_embedding(K4, dict(zip(K4.vertices, pts)))
        assert validate_embedding(emb) == ()


def midpoint(p, q):
    return (p + q).scale(Fraction(1, 2))


class TestSubdivideSmooth:
    def test_smooth_inverts_subdivide(self):
        emb = make_embedding(K6, moment_positions(6))
        mid = midpoint(emb.position["v1"], emb.position["v2"])
        sub = subdivided(emb, ("v1", "v2"), [mid])
        assert len(neighbors(sub.graph, "v1.v2.1")) == 2
        assert validate_embedding(sub) == ()
        back = smooth(sub)
        assert back == emb

    def test_smooth_keeps_bent_corner(self):
        pos = {"u": P3(0, 0, 0), "v": P3(4, 0, 0)}
        g = make_graph(["u", "v"], [("u", "v")])
        emb = make_embedding(g, pos, {("u", "v"): [P3(2, 3, 1)]})
        sub = subdivided(emb, ("u", "v"), [P3(2, 3, 1)])
        assert len(sub.graph.vertices) == 3
        back = smooth(sub)
        # the subdivision point was a genuine corner, so the bend survives
        assert back.route[("u", "v")].vertices == (P3(0, 0, 0), P3(2, 3, 1), P3(4, 0, 0))
        assert back == emb

    def test_multiple_points_in_order(self):
        pos = {"u": P3(0, 0, 0), "v": P3(8, 0, 0)}
        g = make_graph(["u", "v"], [("u", "v")])
        emb = make_embedding(g, pos)
        sub = subdivided(emb, ("u", "v"), [P3(2, 0, 0), P3(5, 0, 0)])
        assert len(sub.graph.vertices) == 4
        assert sub.route[("u", "u.v.1")].vertices == (P3(0, 0, 0), P3(2, 0, 0))
        assert smooth(sub) == emb

    def test_smooth_stops_at_triangle(self):
        # the graph is one cycle: absorbing the later-listed vertex first
        # gives back v1, v2, v3 rather than some other triangle
        g = make_graph(["v1", "v2", "v3"], [("v1", "v2"), ("v2", "v3"), ("v1", "v3")])
        pos = {"v1": P3(0, 0, 0), "v2": P3(4, 0, 0), "v3": P3(0, 4, 0)}
        emb = make_embedding(g, pos)
        sub = subdivided(emb, ("v1", "v2"), [P3(2, 0, 0)])
        back = smooth(sub)
        assert set(back.graph.vertices) == {"v1", "v2", "v3"}
        assert back == emb


SMOOTHING_CORES = (
    K4,
    K6,
    make_graph(["v1", "v2", "v3", "v4"], [("v1", "v2"), ("v2", "v3"), ("v3", "v4"), ("v1", "v4")]),
    # theta graphs: three s-t paths, one of them the direct edge or not
    make_graph(["s", "t", "a", "b"], [("s", "a"), ("a", "t"), ("s", "b"), ("b", "t"), ("s", "t")]),
    make_graph(["s", "t", "a", "b", "c"], [("s", "a"), ("a", "t"), ("s", "b"), ("b", "t"), ("s", "c"), ("c", "t")]),
)


@st.composite
def cut_embeddings(draw):
    """A straight embedding of a small graph with 1 to 3 edges cut by new
    vertices c0, c1, ...: a cut on the route is straight and smooths away,
    a cut off it is a bend.  The cut vertices are listed after, before or
    among the original ones.  Only valid embeddings are kept."""
    g = draw(st.sampled_from(SMOOTHING_CORES))
    coord = st.integers(-4, 4)
    point = st.builds(Point3, coord, coord, coord)
    positions = dict(zip(g.vertices, draw(st.lists(point, min_size=len(g.vertices), max_size=len(g.vertices), unique=True))))
    chains = {e: [positions[e[0]], positions[e[1]]] for e in g.edges}
    cuts = []
    for n in range(draw(st.integers(1, 3))):
        u, v = key = draw(st.sampled_from(sorted(chains)))
        chain = chains.pop(key)
        i = draw(st.integers(0, len(chain) - 2))
        if draw(st.booleans()):
            p = chain[i] + (chain[i + 1] - chain[i]).scale(Fraction(draw(st.integers(1, 3)), 4))
        else:
            p = draw(point)
        w = f"c{n}"
        positions[w] = p
        chains[u, w] = chain[: i + 1] + [p]
        chains[w, v] = [p] + chain[i + 1 :]
        cuts.append(w)
    order = draw(st.sampled_from(["after", "before", "among"]))
    if order == "after":
        vertices = [*g.vertices, *cuts]
    elif order == "before":
        vertices = [*cuts, *g.vertices]
    else:
        vertices = list(g.vertices)
        for w in cuts:
            vertices.insert(draw(st.integers(0, len(vertices))), w)
    try:
        emb = make_embedding(make_graph(vertices, chains), positions, chains)
    except ValueError:  # a cut on a corner or a route through itself
        assume(False)
    assume(validate_embedding(emb) == ())
    return emb


class TestSmoothOnePass:
    @settings(max_examples=300, deadline=None)
    @given(cut_embeddings())
    def test_matches_reference(self, emb):
        sm = smooth(emb)
        ref = smooth_reference(emb)
        assert sm == ref
        assert list(sm.position) == list(ref.position)
        assert isinstance(sm, ValidEmbedding)
        assert smooth(sm) is sm

    def test_nothing_to_absorb_returns_the_validated_input(self):
        # K6 and K4,4 have no degree-2 vertex, and a triangle keeps its three
        for emb in (require_valid(make_embedding(K6, moment_positions(6))), gen_k44_linear(3), gen_polygon_pair(3)):
            assert smooth(emb) is emb
        raw = make_embedding(K6, moment_positions(6))
        sm = smooth(raw)
        assert isinstance(sm, ValidEmbedding) and sm == raw and sm is not raw
        assert sm.position is not raw.position and sm.route is not raw.route

    def test_builds_core_graph_and_each_merged_route_once(self, monkeypatch):
        # each merged route is built once, by the constructor, which checks
        # every corner; only its junctions were tested for straightness.  The
        # core graph is built once, directly, by `require_valid` of the raw
        # input, and `smooth` reads it: its vertices are the input's, in their
        # order, and its edges are ordered as `make_graph` orders them
        counts = {"make_graph": 0, "Graph": 0, "through": 0, "SpatialPolyline": 0}

        def counted(name, original):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)
            return wrapper

        embeddings = [gen_k6_pl_subdivided(seed) for seed in range(5)]
        monkeypatch.setattr(graphs, "make_graph", counted("make_graph", graphs.make_graph))
        through = SpatialPolyline.through.__func__
        monkeypatch.setattr(SpatialPolyline, "through", classmethod(counted("through", through)))
        monkeypatch.setattr(SpatialPolyline, "__init__", counted("SpatialPolyline", SpatialPolyline.__init__))
        monkeypatch.setattr(graphs.Graph, "__init__", counted("Graph", graphs.Graph.__init__))
        for emb in embeddings:
            for given, graphs_built in ((PLEmbedding(emb.graph, emb.position, emb.route), 1), (emb, 0)):
                counts.update(make_graph=0, Graph=0, through=0, SpatialPolyline=0)
                assert smooth(given).graph == K6
                assert counts == {"make_graph": 0, "Graph": graphs_built, "through": 0, "SpatialPolyline": 15}


def bent_k6():
    """A K6 on the moment curve whose route v1-v2 bends once, at B."""
    emb = make_embedding(K6, moment_positions(6), {("v1", "v2"): [B]})
    assert validate_embedding(emb) == ()
    return emb


B = P3(1, 3, 5)


def along(p, q, t):
    return p + (q - p).scale(Fraction(t))


@st.composite
def cut_k6_embeddings(draw):
    """Some edges of a moment-curve K6 cut at 1-3 points each: a bent cut is
    moved off the edge, a straight one lies on the segment between its
    neighbouring bent cuts or ends.  Only valid embeddings are kept."""
    emb = make_embedding(K6, {v: p.scale(6) for v, p in moment_positions(6).items()})
    jitter = st.tuples(*[st.integers(-1, 1)] * 3).filter(any)
    for u, v in draw(st.lists(st.sampled_from(K6.edges), min_size=1, max_size=15, unique=True)):
        bent = draw(st.lists(st.booleans(), min_size=1, max_size=3))
        p, q = emb.position[u], emb.position[v]
        points = [along(p, q, Fraction(j, len(bent) + 1)) + P3(*draw(jitter)) if b else None
                  for j, b in enumerate(bent, start=1)]
        anchors = [(-1, p)] + [(j, x) for j, x in enumerate(points) if x is not None] + [(len(points), q)]
        for (i, a), (k, b) in zip(anchors, anchors[1:]):
            for j in range(i + 1, k):
                points[j] = along(a, b, Fraction(j - i, k - i))
        emb = subdivided(emb, (u, v), points)
    assume(validate_embedding(emb) == ())
    return emb


class TestSmoothStraightJunctions:
    """An absorbed vertex on the line of its two sides is dropped from the
    joined route, and one off it stays as a corner, as the reference does."""

    @staticmethod
    def assert_smooths_to(sub, route):
        sm = smooth(sub)
        assert sm == smooth_reference(sub)
        assert sm.graph == K6
        assert sm.route["v1", "v2"].vertices == route

    def test_straight_junction_is_dropped(self):
        emb = bent_k6()
        p, q = emb.position["v1"], emb.position["v2"]
        # v1.v2.1 lies on the side p-B, v1.v2.2 is the bend itself
        sub = subdivided(emb, ("v1", "v2"), [along(p, B, "1/3"), B])
        self.assert_smooths_to(sub, (p, B, q))

    def test_two_consecutive_straight_junctions_are_dropped(self):
        emb = bent_k6()
        p, q = emb.position["v1"], emb.position["v2"]
        sub = subdivided(emb, ("v1", "v2"), [B, along(B, q, "1/3"), along(B, q, "2/3")])
        self.assert_smooths_to(sub, (p, B, q))
        straight = make_embedding(K6, moment_positions(6))
        sub = subdivided(straight, ("v1", "v2"), [along(p, q, "1/3"), along(p, q, "2/3")])
        self.assert_smooths_to(sub, (p, q))

    @settings(max_examples=60, deadline=None)
    @given(cut_k6_embeddings())
    def test_matches_reference(self, emb):
        sm, ref = smooth(emb), smooth_reference(emb)
        assert sm == ref and sm.graph == K6
        assert list(sm.position) == list(ref.position)


def cycle_embedding(points, last=()):
    """The closed polygon through `points` as a graph that is one cycle, with
    vertices c1, c2, ... in the polygon's order, those at the indices `last`
    listed after the others."""
    names = [f"c{i}" for i in range(1, len(points) + 1)]
    listed = [v for i, v in enumerate(names) if i not in last] + [names[i] for i in last]
    return make_embedding(make_graph(listed, zip(names, names[1:] + names[:1])), dict(zip(names, points)))


def stopped_triangle():
    g = make_graph(["v1", "v2", "v3"], [("v1", "v2"), ("v2", "v3"), ("v1", "v3")])
    emb = make_embedding(g, {"v1": P3(0, 0, 0), "v2": P3(4, 0, 0), "v3": P3(0, 4, 0)})
    return subdivided(emb, ("v1", "v2"), [P3(2, 0, 0)])


def straight_junctions():
    emb = bent_k6()
    p, q = emb.position["v1"], emb.position["v2"]
    return subdivided(emb, ("v1", "v2"), [along(p, B, "1/3"), B, along(B, q, "1/3"), along(B, q, "2/3")])


def assert_core_matches_reference(emb):
    """The carried core gives the reference's graph, positions and routes; and,
    for the carrier argument that lets it skip the check, every chain passes
    the checked `SpatialPolyline` constructor and the embedding rebuilt from
    the chains validates.  The core's coordinates are the reference's, scaled
    by the core's m to integers.  Returns the core graph and the chains as points."""
    g, position, chains, m = require_valid(emb)._core
    ref = smooth_reference(emb)
    assert g == ref.graph
    assert list(position.items()) == [(v, p.scale(m).coords()) for v, p in ref.position.items()]
    assert chains == tuple(tuple(p.scale(m).coords() for p in ref.route[key].vertices) for key in g.edges)
    assert all(type(chain) is tuple for chain in chains)
    assert all(type(c) is int for chain in chains for p in chain for c in p)
    points = tuple(tuple(Point3(*p).scale(Fraction(1, m)) for p in chain) for chain in chains)
    rebuilt = PLEmbedding(g, ref.position, {key: SpatialPolyline(chain) for key, chain in zip(g.edges, points)})
    assert validate_embedding(rebuilt) == ()
    return g, points


SQUARE = [P3(0, 0, 0), P3(2, 0, 0), P3(4, 0, 0), P3(4, 4, 0), P3(0, 4, 0)]
HEXAGON = [P3(0, 0, 0), P3(2, 0, 1), P3(4, 0, 0), P3(4, 4, 1), P3(0, 4, 0), P3(0, 2, 2)]


class TestSmoothingCore:
    """The core a `ValidEmbedding` carries, which the finders and oracles
    read, against the record-building reference, on straight junctions,
    stopped triangles and graphs that are one cycle."""

    @settings(max_examples=300, deadline=None)
    @given(cut_embeddings())
    def test_cut_small_graphs(self, emb):
        assert_core_matches_reference(emb)

    @settings(max_examples=60, deadline=None)
    @given(cut_k6_embeddings())
    def test_cut_k6(self, emb):
        assert assert_core_matches_reference(emb)[0] == K6

    @pytest.mark.parametrize("make, vertices, merged", [
        (straight_junctions, K6.vertices, [(P3(1, 1, 1), B, P3(2, 4, 8))]),
        (stopped_triangle, ("v1", "v2", "v3"), [(P3(0, 0, 0), P3(4, 0, 0))]),
        # c2 is a straight junction listed last, c5 a corner; then every
        # degree-2 vertex has adjacent neighbours
        (lambda: cycle_embedding(SQUARE, last=(1,)), ("c1", "c3", "c4"),
         [(SQUARE[0], SQUARE[2]), (SQUARE[0], SQUARE[4], SQUARE[3])]),
        (lambda: cycle_embedding(HEXAGON), ("c1", "c2", "c3"), [(HEXAGON[0], *HEXAGON[:1:-1])]),
    ], ids=["straight-junctions", "stopped-triangle", "square-with-straight-cut", "bent-hexagon"])
    def test_hand_made(self, make, vertices, merged):
        emb = make()
        assert validate_embedding(emb) == ()
        g, chains = assert_core_matches_reference(emb)
        assert g.vertices == vertices
        assert [chain for key, chain in zip(g.edges, chains) if not emb.graph.has_edge(*key)] == merged

    def test_nothing_to_absorb_hands_back_the_input(self):
        for emb in (gen_k44_linear(3), gen_polygon_pair(3)):
            g, position, chains, m = emb._core
            assert g is emb.graph and position == {v: p.coords() for v, p in emb.position.items()} and m == 1
            assert chains == tuple(tuple(p.coords() for p in emb.route[key].vertices) for key in g.edges)


def midpoint_subdivided_k6(edges):
    emb = make_embedding(K6, moment_positions(6))
    for u, v in edges:
        emb = subdivided(emb, (u, v), [midpoint(emb.position[u], emb.position[v])])
    return emb


class TestValidEmbedding:
    def test_smoothing_keeps_validity(self):
        embeddings = [midpoint_subdivided_k6([e]) for e in K6.edges]
        embeddings.append(midpoint_subdivided_k6(K6.edges))
        embeddings += [gen_k6_pl_subdivided(seed) for seed in range(20)]
        for emb in embeddings:
            assert validate_embedding(emb) == ()
            assert validate_embedding(smooth(emb)) == ()
            assert isinstance(smooth(require_valid(emb)), ValidEmbedding)

    def test_require_valid_copies_and_compares_equal(self):
        emb = make_embedding(K4, moment_positions(4))
        valid = require_valid(emb)
        assert isinstance(valid, ValidEmbedding) and not isinstance(emb, ValidEmbedding)
        assert valid == emb and emb == valid
        assert require_valid(valid) is valid
        emb.position["v1"] = P3(2, 4, 8)  # now coincides with v2
        del emb.route[("v1", "v2")]
        assert valid != emb and emb != valid
        assert valid.position["v1"] == P3(1, 1, 1)
        assert ("v1", "v2") in valid.route
        assert validate_embedding(valid) == ()

    def test_require_valid_lists_every_violation(self):
        pos = {"v1": P3(0, 0, 0), "v2": P3(2, 2, 0), "v3": P3(2, 0, 0), "v4": P3(0, 2, 0)}
        emb = make_embedding(K4, pos)
        with pytest.raises(EmbeddingInvalid) as info:
            require_valid(emb)
        assert info.value.violations == validate_embedding(emb) != ()


class TestCycleRoute:
    def test_straight_triangle(self):
        emb = make_embedding(K6, moment_positions(6))
        c = make_cycle(K6, ("v1", "v2", "v3"))
        poly = cycle_route(emb, c)
        assert poly.closed
        assert set(poly.vertices) == {emb.position["v1"], emb.position["v2"], emb.position["v3"]}

    def test_subdivided_triangle_same_carrier(self):
        emb = make_embedding(K6, moment_positions(6))
        sub = subdivided(emb, ("v1", "v2"), [midpoint(emb.position["v1"], emb.position["v2"])])
        c = make_cycle(sub.graph, ("v1", "v1.v2.1", "v2", "v3"))
        poly = cycle_route(sub, c)
        # the flat subdivision corner is dropped in the closed polygon
        assert set(poly.vertices) == {emb.position["v1"], emb.position["v2"], emb.position["v3"]}


class TestValidateDrawing:
    def test_pentagon_k5(self):
        d = make_drawing(K5, PENTAGON)
        assert validate_drawing(d) == ()

    def test_pentagon_crossings(self):
        d = make_drawing(K5, PENTAGON)
        crossings = extract_crossings(d)
        assert len(crossings) == 5
        assert all(set(c.edge1).isdisjoint(c.edge2) for c in crossings)
        # deterministic order
        assert [c.key for c in crossings] == [c.key for c in extract_crossings(d)]

    def test_planar_k4_has_no_crossings(self):
        pos = {"v1": P2(0, 6), "v2": P2(-6, -3), "v3": P2(6, -3), "v4": P2(0, 1)}
        d = make_drawing(K4, pos)
        assert validate_drawing(d) == ()
        assert extract_crossings(d) == ()

    def test_triple_point(self):
        g = make_graph(["a", "b", "c", "d", "e", "f"], [("a", "b"), ("c", "d"), ("e", "f")])
        pos = {"a": P2(-1, 0), "b": P2(1, 0), "c": P2(0, -1), "d": P2(0, 1),
               "e": P2(-1, -1), "f": P2(1, 1)}
        kinds = {v.kind for v in validate_drawing(make_drawing(g, pos))}
        assert "triple-point" in kinds
        with pytest.raises(DrawingNotGeneral):
            extract_crossings(make_drawing(g, pos))

    def test_route_may_cross_itself(self):
        g = make_graph(["u", "v"], [("u", "v")])
        pos = {"u": P2(0, 0), "v": P2(2, -2)}
        d = make_drawing(g, pos, {("u", "v"): [P2(4, 0), P2(4, 2)]})
        assert validate_drawing(d) == ()
        assert extract_crossings(d) == ()  # self-crossings are not listed

    def test_corner_touch_is_a_violation(self):
        g = make_graph(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
        pos = {"a": P2(0, 0), "b": P2(2, 0), "c": P2(0, 2), "d": P2(2, 2)}
        d = make_drawing(g, pos, {("a", "b"): [P2(1, 1)], ("c", "d"): [P2(1, 1)]})
        kinds = {v.kind for v in validate_drawing(d)}
        assert "routes-touch" in kinds

    def test_vertex_inside_foreign_side(self):
        g = make_graph(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
        pos = {"a": P2(-2, 0), "b": P2(2, 0), "c": P2(0, 0), "d": P2(0, 3)}
        kinds = {v.kind for v in validate_drawing(make_drawing(g, pos))}
        assert "degenerate-contact" in kinds

    def test_shared_vertex_meeting_is_fine(self):
        g = make_graph(["a", "b", "c"], [("a", "b"), ("a", "c")])
        pos = {"a": P2(0, 0), "b": P2(4, 0), "c": P2(0, 4)}
        assert validate_drawing(make_drawing(g, pos)) == ()

    def test_overlapping_sides(self):
        g = make_graph(["a", "b", "c"], [("a", "b"), ("a", "c")])
        pos = {"a": P2(0, 0), "b": P2(4, 0), "c": P2(2, 0)}
        kinds = {v.kind for v in validate_drawing(make_drawing(g, pos))}
        assert "sides-overlap" in kinds or "degenerate-contact" in kinds


class TestGenericDrawing:
    def test_require_generic_copies_and_compares_equal(self):
        d = make_drawing(K5, PENTAGON)
        generic = require_generic(d)
        assert isinstance(generic, GenericDrawing) and not isinstance(d, GenericDrawing)
        assert generic == d and d == generic
        assert require_generic(generic) is generic
        assert generic.crossings == extract_crossings(d)
        d.position["v1"] = P2(2, 1)  # now coincides with v2
        del d.route[("v1", "v2")]
        assert generic != d and d != generic
        assert generic.position["v1"] == P2(0, 2)
        assert ("v1", "v2") in generic.route
        assert validate_drawing(generic) == ()

    def test_require_generic_lists_every_violation(self):
        g = make_graph(["a", "b", "c", "d", "e", "f"], [("a", "b"), ("c", "d"), ("e", "f")])
        pos = {"a": P2(-1, 0), "b": P2(1, 0), "c": P2(0, -1), "d": P2(0, 1),
               "e": P2(-1, -1), "f": P2(0, 0)}
        d = make_drawing(g, pos)
        with pytest.raises(DrawingNotGeneral) as info:
            require_generic(d)
        assert info.value.violations == validate_drawing(d)
        assert len(info.value.violations) >= 2


class TestPlacements:
    """Embeddings and drawings share one base class and one builder."""

    def test_embedding_never_equals_drawing(self):
        empty = make_graph([], [])
        pairs = [(make_embedding(empty, {}), make_drawing(empty, {}))]
        pairs.append((require_valid(pairs[0][0]), require_generic(pairs[0][1])))
        for emb, d in pairs:
            assert emb.position == d.position and emb.route == d.route
            assert emb != d and d != emb
        assert make_embedding(empty, {}) == require_valid(make_embedding(empty, {}))
        assert make_drawing(empty, {}) == require_generic(make_drawing(empty, {}))

    def test_repr_names_the_class(self):
        g = make_graph(["a", "b"], [("a", "b")])
        emb = make_embedding(g, {"a": P3(0, 0, 0), "b": P3(1, 0, 0)})
        d = make_drawing(g, {"a": P2(0, 0), "b": P2(1, 0)})
        cases = (
            (emb, "PLEmbedding", "SpatialPolyline"),
            (require_valid(emb), "ValidEmbedding", "SpatialPolyline"),
            (d, "PlanarDrawing", "PlanarPolyline"),
            (require_generic(d), "GenericDrawing", "PlanarPolyline"),
        )
        for obj, name, polyline in cases:
            assert repr(obj).startswith(f"{name}(graph=Graph(")
            assert f"route={{('a', 'b'): {polyline}(vertices=" in repr(obj)
        assert repr(require_generic(d)).endswith("crossings=())")

    def test_placements_are_unhashable(self):
        g = make_graph(["a", "b"], [("a", "b")])
        emb = make_embedding(g, {"a": P3(0, 0, 0), "b": P3(1, 0, 0)})
        d = make_drawing(g, {"a": P2(0, 0), "b": P2(1, 0)})
        for obj in (emb, require_valid(emb), d, require_generic(d)):
            with pytest.raises(TypeError, match=f"{type(obj).__name__} is not hashable"):
                hash(obj)

    def test_drawing_routes_oriented_like_embedding_routes(self):
        g = make_graph(["a", "b"], [("a", "b")])
        d = make_drawing(g, {"a": P2(0, 0), "b": P2(2, 0)}, {("b", "a"): [P2(2, 0), P2(1, 1), P2(0, 0)]})
        assert d.route[("a", "b")].vertices == (P2(0, 0), P2(1, 1), P2(2, 0))
        assert d.route[("a", "b")].vertices[::-1] == (P2(2, 0), P2(1, 1), P2(0, 0))


# ---------------------------------------------------------------------------
# the pruned side sweeps against their all-pairs references

ROUTE_SHAPES = ("straight", "bent", "reversed", "mismatched", "revisit", "copy", "closed")


@st.composite
def raw_placements(draw, cls, point):
    """A placement of class `cls` of a small graph on a tiny integer grid,
    built without `make_*`, so that vertices may coincide and routes may be
    reversed, miss an endpoint, revisit a point, repeat an earlier route or
    be closed.  The grid makes shared endpoints, collinear overlaps in
    either direction, identical sides, corners on sides and triple points
    common.  A route its polyline class refuses is left out."""
    names = ["a", "b", "c", "d", "e"][: draw(st.integers(2, 5))]
    edges = draw(st.lists(st.sampled_from(list(combinations(names, 2))), min_size=1, max_size=7, unique=True))
    graph = make_graph(names, edges)
    pos = {v: draw(point) for v in names}
    chains: list[list] = []
    route = {}
    for u, v in graph.edges:
        shape = draw(st.sampled_from(ROUTE_SHAPES))
        chain = [pos[u], pos[v]]
        if shape in ("bent", "reversed", "mismatched", "closed"):
            chain[1:1] = draw(st.lists(point, min_size=1, max_size=3))
        if shape == "reversed":
            chain.reverse()
        elif shape == "mismatched":
            chain[draw(st.sampled_from([0, -1]))] = draw(point)
        elif shape == "revisit":
            p, q, r = draw(point), draw(point), draw(point)
            chain[1:1] = [p, q, r, p]
        elif shape == "copy" and chains:
            chain = list(draw(st.sampled_from(chains)))
            if draw(st.booleans()):
                chain.reverse()
        chains.append(chain)
        try:
            route[u, v] = cls._polyline.through(chain, closed=shape == "closed")
        except ValueError:
            continue
    return cls(graph, pos, route)


GRID = st.integers(-2, 2)
RAW_DRAWINGS = raw_placements(PlanarDrawing, st.builds(Point2, GRID, GRID))
# the grid of halves and thirds in [-2, 2], so that most coordinates are Fractions
RATIONAL_GRID = st.sampled_from(sorted({Fraction(k, m) for m in (2, 3) for k in range(-2 * m, 2 * m + 1)}))
RAW_RATIONAL_DRAWINGS = raw_placements(PlanarDrawing, st.builds(Point2, RATIONAL_GRID, RATIONAL_GRID))
RAW_EMBEDDINGS = raw_placements(PLEmbedding, st.builds(Point3, GRID, GRID, st.integers(0, 1)))


def generated_drawings(seed):
    k5, k33 = gen_k5_drawing(seed, bound=20), gen_k33_drawing(seed, bound=20)
    return [k5, k33, bend_drawing(k5, seed, bound=20), move_vertex_star(k33, seed, bound=20)]


def scan(d):
    """`graphs._scan_drawing` of a drawing, read as `require_generic` reads it."""
    return graphs._scan_drawing(d.graph, *graphs._coordinates(d))


def drawing_of(g, where, chains) -> PlanarDrawing:
    """The drawing whose sweep reads the vertex coordinates `where` and the
    coordinate chains `chains`."""
    return PlanarDrawing(g, {v: Point2(*c) for v, c in where.items()},
                         {key: PlanarPolyline(tuple(Point2(*c) for c in chain)) for key, chain in chains.items()})


def assert_scan_matches_reference(d):
    """The same violations, and a crossing for each of the reference's, in
    its order, keyed by the reduced triple of its point."""
    violations, crossings = scan(d)
    ref_violations, ref_crossings = scan_drawing_reference(d)
    assert violations == ref_violations
    assert crossings == tuple((*rec[:4], reference_key(rec[4])) for rec in ref_crossings)


class TestSweepsMatchReference:
    """The pruned sweeps return what the all-pairs references return,
    violations and crossings in the same order."""

    @settings(max_examples=400, deadline=2000)
    @given(RAW_DRAWINGS)
    def test_drawing_sweep(self, d):
        assert_scan_matches_reference(d)

    @settings(max_examples=400, deadline=2000)
    @given(RAW_RATIONAL_DRAWINGS)
    def test_rational_drawing_sweep(self, d):
        """The same on Fraction coordinates, where the early outs multiply
        two rational signs and the contact tests compare rationals."""
        assert_scan_matches_reference(d)

    @settings(max_examples=300, deadline=2000)
    @given(RAW_EMBEDDINGS)
    def test_embedding_sweep(self, emb):
        assert validate_embedding(emb) == validate_embedding_reference(emb)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_generated_instances(self, seed, monkeypatch):
        """Every drawing and embedding the generators and a projection
        search sweep, rejected candidates included."""
        drawings, embeddings = [], []
        sweep, validate, validation = graphs._scan_drawing, graphs.validate_embedding, graphs._validation
        monkeypatch.setattr(graphs, "_scan_drawing", lambda *args: drawings.append(drawing_of(*args)) or sweep(*args))
        monkeypatch.setattr(projection, "_scan_drawing", graphs._scan_drawing)
        monkeypatch.setattr(graphs, "_validation", lambda e: embeddings.append(e) or validation(e))
        generated_drawings(seed)
        find_general_projection(smooth(gen_k6_pl_subdivided(seed)), seed=seed)
        assert drawings and embeddings
        monkeypatch.undo()  # the comparison below sweeps too
        for d in drawings:
            assert_scan_matches_reference(d)
        for emb in embeddings:
            assert validate(emb) == validate_embedding_reference(emb)


# drawings whose side pairs have contacts the sign rejection must pass on to
# classification: (vertex positions, edge routes with their ends, the kinds reported)
CONTACTS = {
    "end-inside-side": ({"a": (0, 0), "b": (4, 0), "c": (0, 3), "d": (4, 3)},
                        {("a", "b"): [(0, 0), (4, 0)], ("c", "d"): [(0, 3), (2, 0), (4, 3)]},
                        {"degenerate-contact"}),
    "collinear-overlap": ({"a": (0, 0), "b": (4, 0), "c": (2, 3), "d": (8, 3)},
                          {("a", "b"): [(0, 0), (4, 0)], ("c", "d"): [(2, 3), (2, 0), (6, 0), (8, 3)]},
                          {"degenerate-contact"}),
    "identical-terminal-sides": ({"u": (0, 0), "v": (4, 4), "w": (4, -4)},
                                 {("u", "v"): [(0, 0), (2, 0), (4, 4)], ("u", "w"): [(0, 0), (2, 0), (4, -4)]},
                                 {"sides-identical", "routes-touch"}),
    "overlapping-terminal-sides": ({"u": (0, 0), "v": (4, 4), "w": (4, -4)},
                                   {("u", "v"): [(0, 0), (2, 0), (4, 4)], ("u", "w"): [(0, 0), (3, 0), (4, -4)]},
                                   {"sides-overlap", "degenerate-contact"}),
    "opposite-terminal-rays": ({"u": (0, 0), "v": (4, 4), "w": (-4, -4)},
                               {("u", "v"): [(0, 0), (2, 0), (4, 4)], ("u", "w"): [(0, 0), (-2, 0), (-4, -4)]},
                               set()),
    "route-revisits-point": ({"u": (0, 0), "v": (4, 4)},
                             {("u", "v"): [(0, 0), (2, 0), (3, 1), (3, -1), (2, 0), (4, 4)]},
                             {"route-revisits-point"}),
    "triple-point": ({"a": (-2, 0), "b": (2, 0), "c": (0, -2), "d": (0, 2), "e": (-2, -2), "f": (2, 2)},
                     {("a", "b"): [(-2, 0), (2, 0)], ("c", "d"): [(0, -2), (0, 2)], ("e", "f"): [(-2, -2), (2, 2)]},
                     {"triple-point"}),
}


@pytest.mark.parametrize("scale, shift", [(1, 0), (Fraction(1, 3), Fraction(1, 2))], ids=["int", "Fraction"])
@pytest.mark.parametrize("name", CONTACTS)
def test_contacts_pass_the_sign_rejection(name, scale, shift):
    """Zero signs, parallel terminal sides at a shared vertex, a revisited
    point and a triple point reach classification and are reported as the
    all-pairs reference reports them, on integer and Fraction coordinates."""
    positions, routes, kinds = CONTACTS[name]
    def pt(c):
        return Point2(c[0] * scale + shift, c[1] * scale + shift)

    g = make_graph(list(positions), routes)
    d = make_drawing(g, {v: pt(c) for v, c in positions.items()}, {e: [pt(c) for c in r] for e, r in routes.items()})
    assert_scan_matches_reference(d)
    assert {v.kind for v in scan(d)[0]} == kinds


class TestSignRejection:
    """The sweep settles by one sign test in its loop, with no call, the
    pairs of sides sharing no vertex where one lies strictly on one side of
    the other's line, so `_meet2` sees fewer pairs than share no vertex."""

    @pytest.mark.parametrize("which, apart_pairs, calls", [("k6-shadow", 167, 27), ("k5", 6, 5)])
    def test_meet2_calls(self, which, apart_pairs, calls, monkeypatch):
        if which == "k5":
            d = gen_k5_drawing(1)
            args = (d.graph, *graphs._coordinates(d))
        else:  # the shadow the K6 analysis of seed 1 sweeps
            args = projection._direction_search(1, projection._orthogonal, *gen_k6_pl_subdivided(1)._core[:3])[1:4]
        sides, boxes = graphs._side_table(*args)[2:]
        # the box-meeting pairs of sides that share no vertex and are not adjacent on one route
        apart = [(a, b) for a, b in box_pairs_reference(boxes) if not sides[a][2] & sides[b][2]
                 and not (sides[a][0] == sides[b][0] and b - a == 1)]
        made = []
        meet = graphs._meet2
        monkeypatch.setattr(graphs, "_meet2", lambda *c: made.append(c) or meet(*c))
        graphs._scan_drawing(*args)
        assert len(apart) == apart_pairs
        assert len(made) == calls < apart_pairs


SELF_CROSSING_DRAWINGS = [
    # a route of K5 and one of K3,3 that cross themselves
    make_drawing(complete_graph(5), {"v1": Point2(0, 0), "v2": Point2(10, 0), "v3": Point2(14, 12),
                                     "v4": Point2(5, 20), "v5": Point2(-4, 12)},
                 {("v1", "v2"): [Point2(10, 5), Point2(0, 5)]}),
    make_drawing(complete_bipartite(3, 3), {"a1": Point2(0, 0), "a2": Point2(1, 10), "a3": Point2(-1, 21),
                                            "b1": Point2(10, 1), "b2": Point2(11, 12), "b3": Point2(9, 22)},
                 {("a1", "b3"): [Point2(8, 4), Point2(7, 7), Point2(3, 1)]}),
]


def van_kampen_reference(d) -> int:
    """The parity of the disjoint crossings of the drawing's generic copy."""
    return sum(set(c.edge1).isdisjoint(c.edge2) for c in extract_crossings(d)) % 2


class TestVanKampenOffRawCrossings:
    """`van_kampen_drawing` counts the disjoint pairs among a plain drawing's
    raw crossings: the parity the `Crossing` records give, and the refusal
    `require_generic` gives."""

    @pytest.mark.parametrize("seed", range(20))
    def test_generated_drawings(self, seed):
        k5, k33 = gen_k5_drawing(seed), gen_k33_drawing(seed)
        for d in [k5, k33, bend_drawing(k5, seed), bend_drawing(k33, seed), move_vertex_star(k5, seed),
                  move_vertex_star(bend_drawing(k33, seed), seed)]:
            assert van_kampen_drawing(d) == van_kampen_reference(d) == van_kampen_drawing(require_generic(d)) == 1

    @pytest.mark.parametrize("d", SELF_CROSSING_DRAWINGS, ids=["k5", "k33"])
    def test_routes_that_cross_themselves(self, d):
        assert any(e1 == e2 for e1, _, e2, _, _ in scan(d)[1])
        assert van_kampen_drawing(d) == van_kampen_reference(d) == 1

    @settings(max_examples=400, deadline=2000)
    @given(st.one_of(RAW_DRAWINGS, RAW_RATIONAL_DRAWINGS))
    def test_raw_drawings(self, d):
        violations = validate_drawing(d)
        if not violations:
            assert van_kampen_drawing(d) == van_kampen_reference(d)
            return
        with pytest.raises(DrawingNotGeneral) as refused:
            van_kampen_drawing(d)
        assert str(refused.value) == f"{len(violations)} general-position violations"
        assert refused.value.violations == violations


@st.composite
def box_lists(draw):
    """Closed boxes as `graphs._box` builds them, all planar (z-range
    [0, 0]) or all spatial, on a small grid of integers and Fractions, so
    that equal x-starts and one-point boxes are common."""
    coordinate = st.one_of(GRID, RATIONAL_GRID)
    point = st.tuples(*[coordinate] * draw(st.sampled_from([2, 3])))
    boxes = []
    for _ in range(draw(st.integers(0, 14))):
        p = draw(point)
        boxes.append(graphs._box(p, p if draw(st.booleans()) else draw(point)))
    return boxes


def flat_box_pairs(boxes) -> list[tuple[int, int]]:
    """The groups of `graphs._box_pairs` as sorted (min, max) pairs, having
    checked that they list every box once, in order of least x, and that
    each `near` holds only boxes later in that order, so no pair comes twice."""
    groups = graphs._box_pairs(boxes)
    place = {a: k for k, (a, _) in enumerate(groups)}
    assert sorted(place) == list(range(len(boxes))) and len(groups) == len(boxes)
    assert [boxes[a][0] for a, _ in groups] == sorted(box[0] for box in boxes)
    assert all(place[b] > place[a] for a, near in groups for b in near)
    return sorted((a, b) if a < b else (b, a) for a, near in groups for b in near)


class TestBoxPairs:
    """The bisected slice of `_box_pairs` pairs what the copied tail paired."""

    @settings(max_examples=500, deadline=2000)
    @given(box_lists())
    def test_matches_reference(self, boxes):
        assert flat_box_pairs(boxes) == box_pairs_reference(boxes)

    def test_equal_starts_and_points(self):
        boxes = [graphs._box(p, q) for p, q in [((0, 0), (2, 2)), ((0, 1), (0, 1)), ((0, 3), (1, 0)),
                                                 ((2, 2), (2, 2)), ((Fraction(5, 2), 0), (3, 1))]]
        assert flat_box_pairs(boxes) == box_pairs_reference(boxes) == [(0, 1), (0, 2), (0, 3), (1, 2)]

    @settings(max_examples=300, deadline=2000)
    @given(st.sampled_from([2, 3]).flatmap(lambda n: st.tuples(*[st.tuples(*[st.one_of(GRID, RATIONAL_GRID)] * n)] * 2)))
    def test_box_matches_reference(self, ends):
        box = graphs._box(*ends)
        assert box == box_reference(*ends)
        assert [type(c) for c in box] == [type(c) for c in box_reference(*ends)]

    @settings(max_examples=500, deadline=2000)
    @given(box_lists())
    def test_groups_match_reference(self, boxes):
        assert graphs._box_pairs(boxes) == box_groups_reference(boxes)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_duplicate_boxes_and_tied_starts_keep_index_order(self, dim):
        ends = [((1, 1, 1), (0, 0, 0)), ((0, 0, 0), (1, 1, 1)), ((0, 2, 0), (0, 2, 0)), ((0, 0, 0), (1, 1, 1)),
                ((Fraction(0), 1, 1), (1, Fraction(1, 2), 0)), ((1, 1, 1), (1, 1, 1))]
        boxes = [graphs._box(p[:dim], q[:dim]) for p, q in ends]
        assert boxes == [box_reference(p[:dim], q[:dim]) for p, q in ends]
        groups = graphs._box_pairs(boxes)
        assert groups == box_groups_reference(boxes)
        assert [a for a, _ in groups] == [2, 0, 1, 3, 4, 5]  # the equal boxes 0, 1 and 3 in index order
        assert groups[1] == (0, [1, 3, 4, 5])


def assert_raw_crossings_in_edge_order(d):
    rank = {e: k for k, e in enumerate(d.graph.edges)}
    for e1, _, e2, _, _ in scan(d)[1]:
        assert rank[e1] <= rank[e2]


class TestRawCrossingOrder:
    """The side table lists sides in `graph.edges` order and the box pairs
    come as (a, b) with a < b, so every raw crossing names its first edge no
    later than its second: `require_generic` never has to swap the two."""

    @settings(max_examples=400, deadline=2000)
    @given(st.one_of(RAW_DRAWINGS, RAW_RATIONAL_DRAWINGS))
    def test_raw_drawings(self, d):
        assert_raw_crossings_in_edge_order(d)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_generated_drawings(self, seed):
        projected = find_general_projection(gen_k6_pl_subdivided(seed), seed=seed).drawing
        for d in [*generated_drawings(seed), projected]:
            assert extract_crossings(d)
            assert_raw_crossings_in_edge_order(d)


class TestSidePruning:
    """The sweep tests only the side pairs whose boxes meet."""

    @pytest.fixture
    def tested(self, monkeypatch):
        calls = []
        original = graphs._meet2

        def counted(*coordinates):
            calls.append(coordinates)
            return original(*coordinates)

        monkeypatch.setattr(graphs, "_meet2", counted)
        return calls

    def test_far_apart_triangles_are_never_paired(self, tested):
        g = make_graph(["a1", "a2", "a3", "b1", "b2", "b3"],
                       [("a1", "a2"), ("a2", "a3"), ("a1", "a3"), ("b1", "b2"), ("b2", "b3"), ("b1", "b3")])
        pos = {"a1": P2(0, 0), "a2": P2(4, 0), "a3": P2(0, 4),
               "b1": P2(100, 100), "b2": P2(104, 100), "b3": P2(100, 104)}
        assert validate_drawing(make_drawing(g, pos)) == ()
        # the sides of one triangle meet only at shared vertices
        assert tested == []

    def test_subdivided_k6_projection_tests_under_half_the_pairs(self, tested):
        drawing = project_orthogonal(gen_k6_pl_subdivided(1), Point3(4, 4, 1)).drawing
        n = sum(len(r.sides()) for r in drawing.route.values())
        assert 0 < len(tested) < n * (n - 1) // 4

    def test_vertex_on_route_tests_only_vertices_in_a_side_box(self, monkeypatch):
        emb = gen_k6_pl_subdivided(1)
        tested = []
        original = graphs._on_side3
        monkeypatch.setattr(graphs, "_on_side3", lambda p, side: tested.append(p) or original(p, side))
        assert validate_embedding(emb) == ()
        # every vertex off an edge against every side of its route: 1,376 tests
        every = sum(len(r.sides()) * (len(emb.graph.vertices) - 2) for r in emb.route.values())
        assert every == 1376
        assert 0 < len(tested) < every // 10


# embeddings whose side pairs have contacts the embedding sweep's sign tests
# must pass on to `_meet3`: (vertex positions, edge routes with their ends, the kinds reported)
CONTACTS3 = {
    "terminal-sides-along-one-ray": ({"u": (0, 0, 0), "v": (4, 4, 4), "w": (4, -4, -4)},
                                     {("u", "v"): [(0, 0, 0), (2, 0, 0), (4, 4, 4)],
                                      ("u", "w"): [(0, 0, 0), (3, 0, 0), (4, -4, -4)]},
                                     {"routes-overlap", "adjacent-routes-meet-off-vertex"}),
    "terminal-sides-along-opposite-rays": ({"u": (0, 0, 0), "v": (4, 4, 4), "w": (-4, -4, 4)},
                                           {("u", "v"): [(0, 0, 0), (2, 0, 0), (4, 4, 4)],
                                            ("u", "w"): [(0, 0, 0), (-2, 0, 0), (-4, -4, 4)]},
                                           set()),
    "identical-terminal-sides": ({"u": (0, 0, 0), "v": (4, 4, 4), "w": (4, -4, 4)},
                                 {("u", "v"): [(0, 0, 0), (2, 0, 0), (4, 4, 4)],
                                  ("u", "w"): [(0, 0, 0), (2, 0, 0), (4, -4, 4)]},
                                 {"routes-overlap", "adjacent-routes-meet-off-vertex"}),
    "coplanar-crossing": ({"a": (0, 0, 0), "b": (4, 4, 4), "c": (0, 4, 0), "d": (4, 0, 4)},
                          {("a", "b"): [(0, 0, 0), (4, 4, 4)], ("c", "d"): [(0, 4, 0), (4, 0, 4)]},
                          {"routes-cross"}),
    "adjacent-routes-off-vertex": ({"u": (0, 0, 0), "v": (4, 0, 4), "w": (2, -2, 2)},
                                   {("u", "v"): [(0, 0, 0), (4, 0, 4)],
                                    ("u", "w"): [(0, 0, 0), (2, 2, 2), (2, -2, 2)]},
                                   {"adjacent-routes-meet-off-vertex"}),
    "end-inside-side": ({"a": (0, 0, 0), "b": (4, 0, 4), "c": (0, 4, 0), "d": (4, 4, 0)},
                        {("a", "b"): [(0, 0, 0), (4, 0, 4)], ("c", "d"): [(0, 4, 0), (2, 0, 2), (4, 4, 0)]},
                        {"routes-cross"}),
    "collinear-overlap": ({"a": (0, 0, 0), "b": (4, 4, 4), "c": (2, -2, 0), "d": (4, 0, 5)},
                          {("a", "b"): [(0, 0, 0), (4, 4, 4)],
                           ("c", "d"): [(2, -2, 0), (1, 1, 1), (3, 3, 3), (4, 0, 5)]},
                          {"routes-overlap", "routes-cross"}),
    "vertex-on-foreign-route": ({"a": (0, 0, 0), "b": (4, 4, 4), "w": (2, 2, 2), "x": (2, 5, 0)},
                                {("a", "b"): [(0, 0, 0), (4, 4, 4)], ("w", "x"): [(2, 2, 2), (2, 5, 0)]},
                                {"vertex-on-route", "routes-cross"}),
}


@pytest.mark.parametrize("scale, shift", [(1, 0), (Fraction(1, 3), Fraction(1, 2))], ids=["int", "Fraction"])
@pytest.mark.parametrize("name", CONTACTS3)
def test_contacts3_pass_the_sign_tests(name, scale, shift):
    """Parallel terminal sides at a shared vertex, coplanar sides and a vertex
    on a route reach `_meet3` or `_on_side3` and are reported as the all-pairs
    reference reports them, on integer and Fraction coordinates."""
    positions, routes, kinds = CONTACTS3[name]
    def pt(c):
        return Point3(*(x * scale + shift for x in c))

    g = make_graph(list(positions), routes)
    emb = make_embedding(g, {v: pt(c) for v, c in positions.items()}, {e: [pt(c) for c in r] for e, r in routes.items()})
    assert validate_embedding(emb) == validate_embedding_reference(emb)
    assert {v.kind for v in validate_embedding(emb)} == kinds


def straight_k6(seed):
    return make_embedding(K6, dict(zip(K6.vertices, gen_k6_points(seed))))


class TestEmbeddingSignRejection:
    """The embedding sweep settles in its loop, with no call, terminal sides at
    a shared vertex that are not parallel and sides on skew lines, and sorts
    only the contacts it reports."""

    @pytest.fixture
    def meet3(self, monkeypatch):
        calls = []
        original = graphs._meet3
        monkeypatch.setattr(graphs, "_meet3", lambda s, t: calls.append((s, t)) or original(s, t))
        return calls

    @pytest.mark.parametrize("which", ["straight-k6", "subdivided-k6"])
    def test_valid_seed_1_inputs_make_no_meet3_call(self, which, meet3):
        # every box-meeting pair of sides of two routes there is skew or a non-parallel terminal pair
        emb = straight_k6(1) if which == "straight-k6" else gen_k6_pl_subdivided(1)
        emb = PLEmbedding(emb.graph, dict(emb.position), dict(emb.route))
        assert validate_embedding(emb) == ()
        assert meet3 == []

    def test_axis_star_makes_no_meet3_call(self, meet3):
        """Terminal sides along the axes: each cross product of two of them
        has two zero components and one that is not, so none is parallel."""
        g = make_graph(["o", "x", "y", "z", "t"], [("o", "x"), ("o", "y"), ("o", "z"), ("o", "t")])
        pos = {"o": P3(0, 0, 0), "x": P3(4, 0, 0), "y": P3(0, 4, 0), "z": P3(0, 0, 4), "t": P3(-4, -4, -4)}
        assert validate_embedding(make_embedding(g, pos)) == ()
        assert meet3 == []

    def test_report_order_is_not_the_sweep_order(self, meet3):
        """Two coplanar crossings, the later route pair's at smaller x: the
        sweep meets it first, and the report still lists route pair by route pair."""
        pos = {"a": (10, 0, 0), "b": (14, 4, 4), "c": (10, 4, 0), "d": (14, 0, 4),
               "e": (0, 0, 0), "f": (4, 4, 4), "g": (0, 4, 0), "h": (4, 0, 4)}
        g = make_graph(list(pos), [("a", "b"), ("c", "d"), ("e", "f"), ("g", "h")])
        emb = make_embedding(g, {v: Point3(*c) for v, c in pos.items()})
        found = validate_embedding(emb)
        assert found == validate_embedding_reference(emb)
        assert [v.subjects for v in found] == [(("a", "b"), ("c", "d"), 0, 0), (("e", "f"), ("g", "h"), 0, 0)]
        assert [v.message for v in found] == ["routes of ('a', 'b') and ('c', 'd') meet away from a shared vertex",
                                              "routes of ('e', 'f') and ('g', 'h') meet away from a shared vertex"]
        assert [s[0] for s, _ in meet3] == [0, 10]  # the sides from e, then from a

    def test_meet3_calls_and_box_pairs_grow_linearly(self, meet3, monkeypatch):
        """On the moment-curve K6 cut into k and 2k sides per edge."""
        paired = []
        original = graphs._box_pairs
        monkeypatch.setattr(graphs, "_box_pairs", lambda boxes: paired.append(original(boxes)) or paired[-1])
        counts = []
        for k in (50, 100):
            meet3.clear()
            assert validate_embedding(moment_curve_k6(k)) == ()
            counts.append((len(meet3), sum(len(near) for _, near in paired.pop())))
        (calls, pairs), (calls2, pairs2) = counts
        assert calls2 <= 2 * calls
        assert 0 < pairs2 <= 2 * pairs
