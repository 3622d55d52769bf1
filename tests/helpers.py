"""Checks and references that only the tests use: each restates a fact the
package proves another way, so it lives here rather than in the library."""

from fractions import Fraction
from itertools import combinations, permutations
from math import gcd

from intrinsiclinks import invariants
from intrinsiclinks.errors import DrawingNotGeneral, GeneralPositionViolation, SearchExhausted
from intrinsiclinks.geometry import (
    OVERLAP,
    Point2,
    Point3,
    Segment3,
    Triangle3,
    NON_GENERIC,
    coprime3,
    cross2,
    cross3,
    dot2,
    dot3,
    gp_points3,
    is_zero3,
    meet_segments3,
    orient2d,
    orient3d,
    point_on_segment2,
    point_on_segment3,
    seg_hits_solid_triangle,
)
from intrinsiclinks.graphs import (
    Cycle,
    EdgeKey,
    GenericDrawing,
    PlanarDrawing,
    PLEmbedding,
    Violation,
    _check_vertices_and_routes,
    canonical_cycle_order,
    complete_graph,
    cycle_route,
    make_cycle,
    make_drawing,
    make_embedding,
    make_graph,
    require_generic,
    smooth,
)
from intrinsiclinks.instances import CANDIDATE_TRIES, gen_k6_pl_subdivided, gen_k6_points, gen_k44_linear
from intrinsiclinks.invariants import LinkReport, OracleResult
from intrinsiclinks.linking import SpatialPolyline, linking_mod2_sampled
from intrinsiclinks.projection import ProjectedDiagram, find_general_projection, front_parity
from intrinsiclinks.rng import SplitMix64


def higher_central_reference(o: Point3, a: Segment3, b: Segment3) -> bool:
    """Does segment `a` pass in front of segment `b` as seen from `o`, that
    is, does some ray from `o` meet `a` strictly before `b`?  Decided as: `a`
    crosses the interior of the solid triangle spanned by `o` and `b`, after
    checking the five points in general position, which makes the sighting
    unambiguous.  The linear finder counts the same crossings without the
    check, which it makes once for all six points."""
    if not gp_points3([o, a.p, a.q, b.p, b.q]):
        raise GeneralPositionViolation("viewpoint and segment endpoints are not in general position")
    return seg_hits_solid_triangle(a, Triangle3(o, b.p, b.q)) == 1


def linear_analysis_reference(points, seed: int):
    """The ledger entries and the report of the linear finder, recomputed
    with `higher_central_reference` from the viewpoint the finder chooses:
    for each edge u-v missing the apex, the parity of the far edges in front
    of u-v; the report names the first odd entry's triangles."""
    pts = list(points)
    if not gp_points3(pts):
        raise GeneralPositionViolation("four of the points are coplanar")
    top, _ = invariants._choose_viewpoint(pts, seed)
    names = [f"v{i}" for i in range(1, 7)]
    by_name = dict(zip(names, pts))
    k6 = complete_graph(6)
    entries, hits = [], []
    for u, v in k6.edges:
        if names[top] in (u, v):
            continue
        rest = [w for w in names if w not in (names[top], u, v)]
        base = Segment3(by_name[u], by_name[v])
        far = [Segment3(by_name[x], by_name[y]) for x, y in combinations(rest, 2)]
        bit = sum(higher_central_reference(pts[top], s, base) for s in far) % 2
        entries.append((f"lk({'-'.join(rest)} | {u}-{v})", bit))
        if bit:
            hits.append((rest, (names[top], u, v)))
    far, near = hits[0]
    return tuple(entries), LinkReport(make_cycle(k6, far), make_cycle(k6, near), 1, "linear-central")


def check_unique_higher_side(apex_triangle: Triangle3, e: Segment3, other: Triangle3) -> bool:
    """From the vertex of `apex_triangle` opposite side `e`, is exactly one
    side of `other` in front of `e`?

    An affirmative answer certifies that `apex_triangle` and `other` are
    linked: the sides of `other` in front of `e` correspond one to one with
    the points where `other` crosses conv(apex_triangle).
    """
    verts = set(apex_triangle.vertices())
    if e.p not in verts or e.q not in verts:
        raise ValueError("e must be a side of apex_triangle")
    rest = [v for v in apex_triangle.vertices() if v not in (e.p, e.q)]
    if len(rest) != 1:
        raise ValueError("e must span exactly two vertices of apex_triangle")
    apex = rest[0]
    six = list(apex_triangle.vertices()) + list(other.vertices())
    if not gp_points3(six):
        raise GeneralPositionViolation("the six vertices are not in general position")
    count = sum(1 for side in other.sides() if higher_central_reference(apex, side, e))
    return count == 1


def front_parity_reference(diag: ProjectedDiagram, first_edges, second_edges) -> int:
    """`projection.front_parity` as one scan of the diagram's crossings: the
    parity of those whose front strand is in the first edge set and whose
    other strand is in the second.  Edges are canonical keys."""
    first, second = set(first_edges), set(second_edges)
    if first & second:
        raise ValueError("edge sets overlap")
    return sum(1 for c in diag.crossings if c.upper in first and (c.edge1 in second or c.edge2 in second)) % 2


def reference_diagram(source: str, seed: int) -> ProjectedDiagram:
    """The diagram a finder reads for seed `seed` of a generator: the seeded
    orthogonal projection of the smoothed `gen_k6_pl_subdivided` ("k6-pl")
    or `gen_k44_linear` ("k44-linear") embedding, or the central one the
    linear finder takes of `gen_k6_points` ("k6-points")."""
    if source == "k6-points":
        return invariants._choose_viewpoint(gen_k6_points(seed), seed)[1]
    emb = gen_k6_pl_subdivided(seed) if source == "k6-pl" else gen_k44_linear(seed)
    return find_general_projection(smooth(emb), seed)


def ledger_entries_reference(diag: ProjectedDiagram, ledger) -> tuple:
    """A ledger's entries recomputed from their labels 'lk(FAR | REST)' with
    `front_parity_reference`: FAR is a cycle passing in front of REST, a
    base edge x-y or a near cycle; for a near cycle both orders must agree."""
    g = diag.graph
    out = []
    for label, _ in ledger.entries:
        far, rest = label[len("lk("):-1].split(" | ")
        far_edges = g.cycle_edges(Cycle(far.split("-")))
        names = rest.split("-")
        if len(names) == 2:
            value = front_parity_reference(diag, far_edges, {g.edge_key(*names)})
        else:
            near_edges = g.cycle_edges(Cycle(names))
            value = front_parity_reference(diag, far_edges, near_edges)
            assert value == front_parity_reference(diag, near_edges, far_edges)
        out.append((label, value))
    return tuple(out)


def check_crossing_parity_identity(
    diag: ProjectedDiagram, cycle1: Cycle, cycle2: Cycle
) -> bool:
    """True when both front-strand parities agree, so that the total
    crossing count between the cycles is even."""
    e1 = diag.graph.cycle_edges(cycle1)
    e2 = diag.graph.cycle_edges(cycle2)
    return front_parity(diag, e1, e2) == front_parity(diag, e2, e1)


def seeded_apexes(rng: SplitMix64, count: int = 3) -> list[Point3]:
    """`count` integer apexes drawn from [-8, 8]^3, none of them certified:
    cone counting must give the exact answer from each."""
    return [Point3(rng.randint(-8, 8), rng.randint(-8, 8), rng.randint(-8, 8)) for _ in range(count)]


def triangle_polygon(t: Triangle3) -> SpatialPolyline:
    return SpatialPolyline((t.a, t.b, t.c), closed=True)


def subdivided(emb: PLEmbedding, edge: EdgeKey, points) -> PLEmbedding:
    """`emb` with the route of `edge` = (u, v) replaced by a straight path
    through new degree-2 vertices u.v.1, u.v.2, ... placed at `points` in
    order and listed after the old vertices: a subdivision that `smooth`
    undoes.  The carrier stays when the points lie on the route and take
    in each of its bends."""
    u, v = edge
    names = [f"{u}.{v}.{j}" for j in range(1, len(points) + 1)]
    path = [u, *names, v]
    kept = [e for e in emb.graph.edges if e != edge]
    graph = make_graph([*emb.graph.vertices, *names], kept + list(zip(path, path[1:])))
    positions = {**emb.position, **dict(zip(names, points))}
    return make_embedding(graph, positions, {e: emb.route[e].vertices for e in kept})


def smooth_reference(emb: PLEmbedding) -> PLEmbedding:
    """The reference for `smooth`, which absorbs the same vertices in the
    same order in one pass: rebuild the graph and the merged route after
    each absorbed vertex.  The result has the type of the input; the input
    must be valid."""
    g = emb.graph
    pos = dict(emb.position)
    routes: dict[EdgeKey, SpatialPolyline] = dict(emb.route)
    while True:
        target = None
        for w in reversed(g.vertices):
            if len(g.neighbors(w)) != 2:
                continue
            u, x = g.neighbors(w)
            if u != x and not g.has_edge(u, x):
                target = (w, u, x)
                break
        if target is None:
            return type(emb)(g, pos, routes)
        w, u, x = target
        k1, k2 = g.edge_key(u, w), g.edge_key(w, x)
        chain1 = routes[k1].vertices if k1[0] == u else tuple(reversed(routes[k1].vertices))
        chain2 = routes[k2].vertices if k2[0] == w else tuple(reversed(routes[k2].vertices))
        merged = list(chain1) + list(chain2[1:])
        new_vertices = [v for v in g.vertices if v != w]
        new_edges = [e for e in g.edges if e not in (k1, k2)] + [(u, x)]
        g = make_graph(new_vertices, new_edges)
        del pos[w]
        del routes[k1]
        del routes[k2]
        new_key = g.edge_key(u, x)
        if new_key[0] != u:
            merged = list(reversed(merged))
        routes[new_key] = SpatialPolyline.through(merged)


def segment_param(s, p) -> Fraction:
    """The parameter t with p = s.p + t (s.q - s.p), for p on the line of s."""
    a, b, c = next(abc for abc in zip(s.p.coords(), s.q.coords(), p.coords()) if abc[0] != abc[1])
    return Fraction(c - a, b - a)


def strand_height(
    emb: PLEmbedding,
    drawing: PlanarDrawing,
    d: Point3,
    edge: EdgeKey,
    side: int,
    p: Point2,
) -> Fraction:
    """Height along `d` of the point of `edge`'s spatial side `side` that
    projects to the crossing point `p`: the reference for the over/under
    sign of `project_orthogonal`."""
    u = segment_param(drawing.route[edge].sides()[side], p)
    s3 = emb.route[edge].sides()[side]
    q3 = s3.p + (s3.q - s3.p).scale(u)
    return dot3(q3, d)


def meet_point3(s: Segment3, t: Segment3):
    """The common point of two closed segments in space: None when
    disjoint, the single common Point3, or OVERLAP for a common
    sub-segment.  The reference for `meet_segments3`, which builds no
    point."""
    p1, q1 = s.p, s.q
    p2, q2 = t.p, t.q
    if orient3d(p1, q1, p2, q2) != 0:
        return None
    d1 = q1 - p1
    d2 = q2 - p2
    r = p2 - p1
    w = cross3(d1, d2)
    if not is_zero3(w):
        ww = dot3(w, w)
        u = Fraction(dot3(cross3(r, d2), w), ww)
        v = Fraction(dot3(cross3(r, d1), w), ww)
        if 0 <= u <= 1 and 0 <= v <= 1:
            return p1 + d1.scale(u)
        return None
    if not is_zero3(cross3(r, d1)):
        return None
    length = dot3(d1, d1)
    b0 = dot3(r, d1)
    b1 = dot3(q2 - p1, d1)
    lo = max(0, min(b0, b1))
    hi = min(length, max(b0, b1))
    if lo > hi:
        return None
    if lo == hi:
        return p1 + d1.scale(Fraction(lo, length))
    return OVERLAP


def gen_planar_polygon_pair(seed: int, bound: int = 1000) -> GenericDrawing:
    """A generic drawing of two disjoint cycles, a1 a2 ... and b1 b2 ...,
    of 3 to 6 straight sides each, with vertices drawn from [-bound, bound]^2.
    A cycle may cross itself; every contact is a transversal crossing
    interior to two sides."""
    rng = SplitMix64(seed)
    for _ in range(CANDIDATE_TRIES):
        sizes = {"a": rng.randint(3, 6), "b": rng.randint(3, 6)}
        names = {c: [f"{c}{i}" for i in range(1, k + 1)] for c, k in sizes.items()}
        edges = [(cycle[i - 1], cycle[i]) for cycle in names.values() for i in range(len(cycle))]
        graph = make_graph(names["a"] + names["b"], edges)
        positions = {
            v: Point2(rng.randint(-bound, bound), rng.randint(-bound, bound)) for v in graph.vertices
        }
        try:
            return require_generic(make_drawing(graph, positions))
        except (ValueError, DrawingNotGeneral):
            continue
    raise SearchExhausted(f"no clean polygon pair in {CANDIDATE_TRIES} tries (seed {seed})")


def crossings_between_cycles(d: GenericDrawing) -> int:
    """The crossings of `d` between an edge of the a-cycle and one of the
    b-cycle of `gen_planar_polygon_pair`."""
    return sum(c.edge1[0][0] != c.edge2[0][0] for c in d.crossings)


def terminal_side_at(poly, p):
    """Index of the terminal side of an open polyline ending at p, if any."""
    if poly.vertices[0] == p:
        return 0
    if poly.vertices[-1] == p:
        return len(poly.vertices) - 2
    return None


def validate_embedding_reference(emb: PLEmbedding) -> tuple:
    """The reference for `validate_embedding`: every side pair of distinct
    routes goes through `meet_segments3`, and a meeting is legal when both
    sides are the terminal sides of their routes at the shared vertex."""
    g = emb.graph
    pos = emb.position
    out, usable = _check_vertices_and_routes(emb)
    for key in usable:
        poly = emb.route[key]
        for w in g.vertices:
            if w in key:
                continue
            for s in poly.sides():
                if point_on_segment3(pos[w], s):
                    out.append(
                        Violation("vertex-on-route", f"route of {key} passes through vertex {w}", (key, w))
                    )
    for i, e1 in enumerate(usable):
        r1 = emb.route[e1]
        for e2 in usable[i + 1 :]:
            r2 = emb.route[e2]
            shared = set(e1) & set(e2)
            meet_at = pos[next(iter(shared))] if shared else None
            for i1, s1 in enumerate(r1.sides()):
                for i2, s2 in enumerate(r2.sides()):
                    m = meet_segments3(s1, s2)
                    if not m:
                        continue
                    if m is OVERLAP:
                        out.append(
                            Violation("routes-overlap", f"routes of {e1} and {e2} overlap", (e1, e2, i1, i2))
                        )
                        continue
                    if meet_at is not None:
                        if terminal_side_at(r1, meet_at) == i1 and terminal_side_at(r2, meet_at) == i2:
                            continue
                    kind = "routes-cross" if not shared else "adjacent-routes-meet-off-vertex"
                    out.append(
                        Violation(kind, f"routes of {e1} and {e2} meet away from a shared vertex", (e1, e2, i1, i2))
                    )
    return tuple(out)


def seg_intersect2_reference(s, t):
    """`geometry.seg_intersect2` with the crossing point built as a Point2
    through `Fraction` rather than keyed: the reference for its keys."""
    a, b = s.p, s.q
    c, d = t.p, t.q
    d1 = orient2d(a, b, c)
    d2 = orient2d(a, b, d)
    d3 = orient2d(c, d, a)
    d4 = orient2d(c, d, b)
    if d1 != 0 and d2 != 0 and d3 != 0 and d4 != 0:
        if d1 != d2 and d3 != d4:
            e = d - c
            u = Fraction(cross2(c - a, e), cross2(b - a, e))
            return Point2(a.x + u * (b.x - a.x), a.y + u * (b.y - a.y))
        return None
    if d1 == 0 and point_on_segment2(c, s):
        return NON_GENERIC
    if d2 == 0 and point_on_segment2(d, s):
        return NON_GENERIC
    if d3 == 0 and point_on_segment2(a, t):
        return NON_GENERIC
    if d4 == 0 and point_on_segment2(b, t):
        return NON_GENERIC
    return None


def seg_intersect2_four_signs(s, t):
    """`geometry.seg_intersect2` with all four orientation signs taken before
    any is read: the reference for its early outs."""
    a, b = s.p, s.q
    c, d = t.p, t.q
    d1 = orient2d(a, b, c)
    d2 = orient2d(a, b, d)
    d3 = orient2d(c, d, a)
    d4 = orient2d(c, d, b)
    if d1 != 0 and d2 != 0 and d3 != 0 and d4 != 0:
        if d1 != d2 and d3 != d4:
            e = d - c
            num = cross2(c - a, e)
            den = cross2(b - a, e)
            x = a.x * den + num * (b.x - a.x)
            y = a.y * den + num * (b.y - a.y)
            return coprime3(x, y, den, 1 if den > 0 else -1)
        return None
    if d1 == 0 and point_on_segment2(c, s):
        return NON_GENERIC
    if d2 == 0 and point_on_segment2(d, s):
        return NON_GENERIC
    if d3 == 0 and point_on_segment2(a, t):
        return NON_GENERIC
    if d4 == 0 and point_on_segment2(b, t):
        return NON_GENERIC
    return None


def reference_key(p: Point2) -> tuple[int, int, int]:
    """The key (X, Y, D) of a point, from its coordinates in lowest terms:
    D is the lcm of their denominators, which leaves gcd(X, Y, D) = 1."""
    x, y = Fraction(p.x), Fraction(p.y)
    d = x.denominator * y.denominator // gcd(x.denominator, y.denominator)
    return (int(x * d), int(y * d), d)


def scan_drawing_reference(d: PlanarDrawing):
    """The reference for `graphs._scan_drawing`: every side pair goes
    through `seg_intersect2_reference`, and each degenerate contact is
    classified by the endpoints the two sides share.  Returns (violations,
    raw crossings, each with its Point2)."""
    out, usable = _check_vertices_and_routes(d)
    sides = [(key, i, s) for key in usable for i, s in enumerate(d.route[key].sides())]
    crossings = []
    for a in range(len(sides)):
        e1, i1, s1 = sides[a]
        for b in range(a + 1, len(sides)):
            e2, i2, s2 = sides[b]
            if e1 == e2 and abs(i1 - i2) == 1:
                continue
            r = seg_intersect2_reference(s1, s2)
            if r is None:
                continue
            if isinstance(r, Point2):
                crossings.append((e1, i1, e2, i2, r))
                continue
            ends1 = {s1.p, s1.q}
            ends2 = {s2.p, s2.q}
            common = ends1 & ends2
            if len(common) == 2:
                out.append(Violation("sides-identical", f"{e1}[{i1}] and {e2}[{i2}] coincide", (e1, e2, i1, i2)))
                continue
            if len(common) == 1:
                p = next(iter(common))
                u = next(iter(ends1 - {p}))
                w = next(iter(ends2 - {p}))
                if orient2d(p, u, w) == 0 and dot2(u - p, w - p) > 0:
                    out.append(Violation("sides-overlap", f"{e1}[{i1}] and {e2}[{i2}] overlap", (e1, e2, i1, i2)))
                    continue
                if e1 == e2:
                    out.append(Violation("route-revisits-point", f"route of {e1} revisits {p.coords()}", (e1, i1, i2)))
                    continue
                shared_vertex = next((x for x in set(e1) & set(e2) if d.position[x] == p), None)
                if (
                    shared_vertex is not None
                    and terminal_side_at(d.route[e1], p) == i1
                    and terminal_side_at(d.route[e2], p) == i2
                ):
                    continue
                out.append(Violation("routes-touch", f"routes of {e1} and {e2} touch at {p.coords()}", (e1, e2, i1, i2)))
                continue
            out.append(
                Violation(
                    "degenerate-contact",
                    f"{e1}[{i1}] and {e2}[{i2}] meet at an endpoint of one inside the other, or overlap",
                    (e1, e2, i1, i2),
                )
            )
    seen_points: dict = {}
    for rec in crossings:
        seen_points.setdefault(rec[4], []).append(rec)
    for p, recs in seen_points.items():
        if len(recs) > 1:
            involved = tuple(sorted({(r[0], r[1]) for r in recs} | {(r[2], r[3]) for r in recs}))
            out.append(Violation("triple-point", f"three or more sides pass through {p.coords()}", involved))
    return tuple(out), tuple(crossings)


def enumerate_cycles_reference(g, length: int) -> tuple[Cycle, ...]:
    """`enumerate_cycles` by brute force: every vertex subset of the length,
    its first vertex fixed and the others tried in every order."""
    found = set()
    for subset in combinations(g.vertices, length):
        first = subset[0]
        for order in permutations(subset[1:]):
            seq = (first,) + order
            if all(g.has_edge(seq[i], seq[(i + 1) % length]) for i in range(length)):
                found.add(Cycle(canonical_cycle_order(seq)))
    return tuple(sorted(found, key=lambda c: c.vertices))


def disjoint_cycle_pairs_reference(g, len1: int, len2: int) -> tuple[tuple[Cycle, Cycle], ...]:
    """`enumerate_disjoint_cycle_pairs` by testing every pair of reference
    cycles, in the same order."""
    first = enumerate_cycles_reference(g, len1)
    second = enumerate_cycles_reference(g, len2)
    return tuple(
        (c1, c2)
        for c1 in first
        for c2 in second
        if set(c1.vertices).isdisjoint(c2.vertices) and (len1 != len2 or c1.vertices < c2.vertices)
    )


def oracle_reference(emb: PLEmbedding, len1: int, len2: int, seed: int = 0) -> OracleResult:
    """`oracle_count_linked_pairs` one cycle pair at a time: each pair's two
    polygons are built with `cycle_route`, checked disjoint, and
    cone-counted from their own apex, the apexes drawn in turn from one
    generator seeded with `seed`."""
    sm = smooth(emb)
    pairs = disjoint_cycle_pairs_reference(sm.graph, len1, len2)
    rng = SplitMix64(seed)
    linked = tuple(
        (c1, c2) for c1, c2 in pairs if linking_mod2_sampled(cycle_route(sm, c1), cycle_route(sm, c2), rng)
    )
    return OracleResult(len(linked), linked, len(pairs))
