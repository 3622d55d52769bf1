"""Checks and references that only the tests use: each restates a fact the
package proves another way, so it lives here rather than in the library."""

from bisect import bisect_right
from fractions import Fraction
from itertools import combinations, permutations
from math import gcd, lcm

from intrinsiclinks import invariants
from intrinsiclinks.errors import (
    ApexNotExtremal,
    DrawingNotGeneral,
    GeneralPositionViolation,
    InternalParityFailure,
    ProjectionNotGeneral,
    SearchExhausted,
)
from intrinsiclinks.geometry import (
    OVERLAP,
    Point2,
    Point3,
    Triangle3,
    NON_GENERIC,
    _meet2,
    _meet3,
    coprime3,
    gp_points2,
    gp_points3,
    key_point,
    orient2d,
    orient3d,
    orient3d_sos,
    seg_hits_solid_triangle,
)
from intrinsiclinks.graphs import (
    Cycle,
    EdgeKey,
    GenericDrawing,
    Graph,
    PlanarDrawing,
    PlanarPolyline,
    PLEmbedding,
    Violation,
    _coordinates,
    _cycle,
    _scan_drawing,
    _side_table,
    _xor_rows,
    complete_graph,
    make_cycle,
    make_drawing,
    make_embedding,
    make_graph,
    require_generic,
    require_valid,
    smooth,
)
from intrinsiclinks.instances import CANDIDATE_TRIES, gen_k6_pl_subdivided, gen_k6_points, gen_k44_linear
from intrinsiclinks.invariants import LinkReport, OracleResult
from intrinsiclinks.linking import SpatialPolyline, linking_mod2_sampled
from intrinsiclinks.projection import (
    ProjectedDiagram,
    _direction_search,
    _front_rows,
    _lk,
    _orthogonal,
    canonical_direction,
    find_general_projection,
    front_parity,
    plane_basis,
    project_central,
)
from intrinsiclinks.rng import SplitMix64


def cross2(u: Point2, v: Point2):
    return u.x * v.y - u.y * v.x


def dot2(u: Point2, v: Point2):
    return u.x * v.x + u.y * v.y


def point_on_segment2(p: Point2, s) -> bool:
    """Closed membership: p lies on the segment s = (a, b), endpoints included."""
    a, b = s
    if orient2d(a, b, p) != 0:
        return False
    return (
        min(a.x, b.x) <= p.x <= max(a.x, b.x)
        and min(a.y, b.y) <= p.y <= max(a.y, b.y)
    )


def seg_intersect2(s, t):
    """The package's segment intersection predicate, `geometry._meet2`, on two point pairs."""
    (a, b), (c, d) = s, t
    return _meet2(*a.coords(), *b.coords(), *c.coords(), *d.coords())


def higher_central_reference(o: Point3, a: tuple[Point3, Point3], b: tuple[Point3, Point3]) -> bool:
    """Does segment `a` pass in front of segment `b` as seen from `o`, that
    is, does some ray from `o` meet `a` strictly before `b`?  Decided as: `a`
    crosses the interior of the solid triangle spanned by `o` and `b`, after
    checking the five points in general position, which makes the sighting
    unambiguous.  The linear finder counts the same crossings without the
    check, which it makes once for all six points."""
    if not gp_points3([o, *a, *b]):
        raise GeneralPositionViolation("viewpoint and segment endpoints are not in general position")
    return seg_hits_solid_triangle(a, Triangle3(o, *b)) == 1


def linear_analysis_reference(points, seed: int):
    """The ledger entries and the report of the linear finder, recomputed
    with `higher_central_reference` from the viewpoint the finder chooses:
    for each edge u-v missing the apex, the parity of the far edges in front
    of u-v; the report names the first odd entry's triangles."""
    pts = list(points)
    if not gp_points3(pts):
        raise GeneralPositionViolation("four of the points are coplanar")
    top = invariants._choose_viewpoint(pts, seed)[0]
    names = [f"v{i}" for i in range(1, 7)]
    by_name = dict(zip(names, pts))
    k6 = complete_graph(6)
    entries, hits = [], []
    for u, v in k6.edges:
        if names[top] in (u, v):
            continue
        rest = [w for w in names if w not in (names[top], u, v)]
        base = (by_name[u], by_name[v])
        far = [(by_name[x], by_name[y]) for x, y in combinations(rest, 2)]
        bit = sum(higher_central_reference(pts[top], s, base) for s in far) % 2
        entries.append((f"lk({'-'.join(rest)} | {u}-{v})", bit))
        if bit:
            hits.append((rest, (names[top], u, v)))
    far, near = hits[0]
    return tuple(entries), LinkReport(make_cycle(k6, far), make_cycle(k6, near), 1, "linear-central")


def check_unique_higher_side(apex_triangle: Triangle3, e: tuple[Point3, Point3], other: Triangle3) -> bool:
    """From the vertex of `apex_triangle` opposite side `e`, is exactly one
    side of `other` in front of `e`?

    An affirmative answer certifies that `apex_triangle` and `other` are
    linked: the sides of `other` in front of `e` correspond one to one with
    the points where `other` crosses conv(apex_triangle).
    """
    verts = set(apex_triangle.vertices())
    if not verts.issuperset(e):
        raise ValueError("e must be a side of apex_triangle")
    rest = [v for v in apex_triangle.vertices() if v not in e]
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
        pts = gen_k6_points(seed)
        top, normal, _ = invariants._choose_viewpoint(pts, seed)
        names = [v for i, v in enumerate(complete_graph(6).vertices) if i != top]
        return project_central(pts, pts[top], normal, names=names)
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


class ScriptedRng:
    """A stand-in for the SplitMix64 class: every generator it makes returns
    the scripted candidates' coordinates from `randint`, in order, and the
    range of each call is recorded in `ranges`."""

    def __init__(self, candidates):
        self.values = iter([c for p in candidates for c in p])
        self.ranges: list[tuple[int, int]] = []

    def __call__(self, seed: int) -> "ScriptedRng":
        return self

    def randint(self, lo: int, hi: int) -> int:
        self.ranges.append((lo, hi))
        value = next(self.values)
        assert lo <= value <= hi
        return value


def cycle_route(emb: PLEmbedding, cycle: Cycle) -> SpatialPolyline:
    """The closed polygon traced by a cycle's edge routes: the reference
    polygons of `oracle_reference` and of `oracle_confirm`."""
    points: list[Point3] = []
    seq = cycle.vertices
    for u, v in zip(seq, seq[1:] + seq[:1]):
        key = emb.graph.edge_key(u, v)
        if key not in emb.graph._edge_bit:
            raise ValueError(f"({u}, {v}) is not an edge")
        chain = emb.route[key].vertices
        points.extend(chain[:-1] if key[0] == u else chain[:0:-1])
    return SpatialPolyline.through(points, closed=True)


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


def neighbors(g: Graph, v: str) -> tuple[str, ...]:
    """The neighbours of v, in vertex order, read off the edge list."""
    out = []
    for a, b in g.edges:
        if a == v:
            out.append(b)
        elif b == v:
            out.append(a)
    return tuple(sorted(out, key=g.index))


def bipartition_reference(g: Graph) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The reference for `bipartition`: breadth first from the first
    vertex, reading each dequeued vertex's neighbours off `neighbors`."""
    if not g.vertices:
        raise ValueError("empty graph")
    color: dict[str, int] = {g.vertices[0]: 0}
    queue = [g.vertices[0]]
    while queue:
        v = queue.pop(0)
        for w in neighbors(g, v):
            if w not in color:
                color[w] = 1 - color[v]
                queue.append(w)
            elif color[w] == color[v]:
                raise ValueError("graph is not bipartite")
    if len(color) != len(g.vertices):
        raise ValueError("graph is not connected")
    part0 = tuple(v for v in g.vertices if color[v] == 0)
    part1 = tuple(v for v in g.vertices if color[v] == 1)
    return part0, part1


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
            if len(neighbors(g, w)) != 2:
                continue
            u, x = neighbors(g, w)
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
    """The parameter t with p = a + t (b - a), for p on the line of s = (a, b)."""
    a, b, c = next(abc for abc in zip(s[0].coords(), s[1].coords(), p.coords()) if abc[0] != abc[1])
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
    a, b = emb.route[edge].sides()[side]
    q3 = a + (b - a).scale(u)
    return dot3(q3, d)


def project_orthogonal_reference(emb: PLEmbedding, direction: Point3) -> ProjectedDiagram:
    """`project_orthogonal` as records: the shadows as points, a
    `PlanarPolyline` per route, one `require_generic` sweep, and each
    crossing labelled with its higher strand by `strand_height`.  Raises
    what `project_orthogonal` raises, with the same messages."""
    d = canonical_direction(direction)
    emb = require_valid(emb)
    e1, e2 = plane_basis(d)

    def shadow(p: Point3) -> Point2:
        return Point2(dot3(p, e1), dot3(p, e2))

    routes = {}
    for key, poly in emb.route.items():
        try:
            routes[key] = PlanarPolyline(tuple(map(shadow, poly.vertices)))
        except ValueError as ex:
            raise ProjectionNotGeneral(f"route of {key} degenerates in projection: {ex}")
    try:
        drawing = require_generic(PlanarDrawing(emb.graph, {v: shadow(p) for v, p in emb.position.items()}, routes))
    except DrawingNotGeneral as ex:
        raise ProjectionNotGeneral(f"projected drawing has {len(ex.violations)} degenerate contacts")
    labeled = []
    for c in drawing.crossings:
        h1, h2 = (strand_height(emb, drawing, d, edge, side, key_point(c.key))
                  for edge, side in ((c.edge1, c.side1), (c.edge2, c.side2)))
        if h1 == h2:
            raise InternalParityFailure("two strands of a valid embedding project to equal heights")
        labeled.append(c.replace(upper=c.edge1 if h1 > h2 else c.edge2))
    return ProjectedDiagram(d, drawing, tuple(labeled))


def project_central_reference(points, apex: Point3, normal: Point3, names=None) -> ProjectedDiagram:
    """`project_central` as records, on integer points: the images as
    points, `gp_points2`, `make_drawing` and one `require_generic` sweep,
    and each crossing labelled with the edge nearer the apex by
    `higher_central_reference`, after the equal-depth check.  Raises what
    `project_central` raises, with the same messages."""
    pts = list(points)
    if apex not in pts:
        raise ValueError("apex must be one of the points")
    others = [p for p in pts if p != apex]
    if len(others) != len(pts) - 1:
        raise ValueError("apex occurs more than once among the points")
    gaps = [dot3(apex - p, normal) for p in others]
    if any(g <= 0 for g in gaps):
        raise ApexNotExtremal("apex does not strictly maximize the functional")
    d = canonical_direction(normal)
    e1, e2 = plane_basis(d)
    scale = lcm(*gaps)
    images = [Point2(dot3(p - apex, e1) * (scale // g), dot3(p - apex, e2) * (scale // g)) for p, g in zip(others, gaps)]
    if not gp_points2(images):
        raise ProjectionNotGeneral("projected points are not in general position")
    names = list(names or [f"p{i}" for i in range(1, len(others) + 1)])
    if len(names) != len(others):
        raise ValueError("need one name per non-apex point")
    graph = make_graph(names, combinations(names, 2))
    try:
        drawing = require_generic(make_drawing(graph, dict(zip(names, images))))
    except DrawingNotGeneral as ex:
        raise ProjectionNotGeneral(f"central image drawing has {len(ex.violations)} degenerate contacts")
    at = dict(zip(names, others))
    labeled = []
    for c in drawing.crossings:
        s1, s2 = tuple(map(at.get, c.edge1)), tuple(map(at.get, c.edge2))
        if orient3d(*s1, *s2) == 0:
            raise GeneralPositionViolation(f"edges {c.edge1} and {c.edge2} meet in space")
        labeled.append(c.replace(upper=c.edge1 if higher_central_reference(apex, s1, s2) else c.edge2))
    return ProjectedDiagram(d, drawing, tuple(labeled))


def central_sweep_reference(points, apex: Point3, normal: Point3):
    """`projection._central` with the drawing sweep, on integer points and
    default names: the same images, graph and one-side chains, then
    `_scan_drawing` on them for the raw crossings, refusing every violation
    the sweep finds, and each crossing's strand nearer the apex by
    `higher_central_reference`, after the equal-depth check."""
    pts = list(points)
    if apex not in pts:
        raise ValueError("apex must be one of the points")
    others = [p for p in pts if p != apex]
    if len(others) != len(pts) - 1:
        raise ValueError("apex occurs more than once among the points")
    gaps = [dot3(apex - p, normal) for p in others]
    if any(g <= 0 for g in gaps):
        raise ApexNotExtremal("apex does not strictly maximize the functional")
    d = canonical_direction(normal)
    e1, e2 = plane_basis(d)
    scale = lcm(*gaps)
    images = [(dot3(p - apex, e1) * (scale // g), dot3(p - apex, e2) * (scale // g)) for p, g in zip(others, gaps)]
    if not gp_points2([Point2(*c) for c in images]):  # coincident images too, with three or more
        raise ProjectionNotGeneral("projected points are not in general position")
    names = [f"p{i}" for i in range(1, len(others) + 1)]
    graph = make_graph(names, combinations(names, 2))
    where = dict(zip(names, images))
    chains = {(u, v): [where[u], where[v]] for u, v in graph.edges}
    violations, raw = _scan_drawing(graph, where, chains)
    if violations:
        raise ProjectionNotGeneral(f"central image drawing has {len(violations)} degenerate contacts")
    at = dict(zip(names, others))
    strands = []
    for e1, _, e2, _, _ in raw:
        s1, s2 = tuple(map(at.get, e1)), tuple(map(at.get, e2))
        if orient3d(*s1, *s2) == 0:
            raise GeneralPositionViolation(f"edges {e1} and {e2} meet in space")
        strands.append((e1, e2, e1 if higher_central_reference(apex, s1, s2) else e2))
    return d, graph, where, chains, list(raw), strands


def cross3(u: Point3, v: Point3) -> Point3:
    return Point3(
        u.y * v.z - u.z * v.y,
        u.z * v.x - u.x * v.z,
        u.x * v.y - u.y * v.x,
    )


def dot3(u: Point3, v: Point3) -> Fraction:
    return u.x * v.x + u.y * v.y + u.z * v.z


def is_zero3(u: Point3) -> bool:
    return u.x == 0 and u.y == 0 and u.z == 0


def point_on_segment3(p: Point3, s: tuple[Point3, Point3]) -> bool:
    """Closed membership: p lies on the segment s = (a, b), endpoints
    included.  The record reference for `geometry._on_side3`."""
    a, b = s
    dx, dy, dz = b.x - a.x, b.y - a.y, b.z - a.z
    ex, ey, ez = p.x - a.x, p.y - a.y, p.z - a.z
    if dy * ez != dz * ey or dz * ex != dx * ez or dx * ey != dy * ex:
        return False
    return 0 <= ex * dx + ey * dy + ez * dz <= dx * dx + dy * dy + dz * dz


def meet_segments3(s: tuple[Point3, Point3], t: tuple[Point3, Point3]):
    """Whether two closed segments in space, each a point pair, meet: False
    when disjoint, True when in exactly one point, OVERLAP when collinear
    with a common sub-segment.  The record reference for `geometry._meet3`."""
    p1, q1 = s
    p2, q2 = t
    if orient3d(p1, q1, p2, q2) != 0:
        return False  # skew lines share no point
    d1 = q1 - p1
    d2 = q2 - p2
    r = p2 - p1
    w = cross3(d1, d2)
    if not is_zero3(w):
        # the lines meet at p1 + (u/ww) d1 = p2 + (v/ww) d2
        ww = dot3(w, w)
        u = dot3(cross3(r, d2), w)
        v = dot3(cross3(r, d1), w)
        return 0 <= u <= ww and 0 <= v <= ww
    # parallel lines
    if not is_zero3(cross3(r, d1)):
        return False
    # collinear: compare parameter intervals along d1
    length = dot3(d1, d1)
    b0 = dot3(r, d1)
    b1 = dot3(q2 - p1, d1)
    lo = max(0, min(b0, b1))
    hi = min(length, max(b0, b1))
    if lo > hi:
        return False
    return True if lo == hi else OVERLAP


def polyline_self_check_reference(vertices, closed: bool) -> None:
    """The self-intersection check of `SpatialPolyline` over every pair of
    non-adjacent sides, a closed polygon's last and first side being
    adjacent: raises the same ValueError at the least meeting pair."""
    n = len(vertices)
    sides = [(vertices[i], vertices[(i + 1) % n]) for i in range(n if closed else n - 1)]
    m = len(sides)
    for i in range(m):
        for j in range(i + 2, m - 1 if closed and i == 0 else m):
            if meet_segments3(sides[i], sides[j]):
                raise ValueError(f"self-intersection between sides {i} and {j}")


def meet_point3(s: tuple[Point3, Point3], t: tuple[Point3, Point3]):
    """The common point of two closed segments in space: None when
    disjoint, the single common Point3, or OVERLAP for a common
    sub-segment.  The reference for `meet_segments3`, which builds no
    point."""
    p1, q1 = s
    p2, q2 = t
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
    out, usable = _side_table(g, *_coordinates(emb))[:2]
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
    a, b = s
    c, d = t
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
    a, b = s
    c, d = t
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


def box_pairs_reference(boxes) -> list[tuple[int, int]]:
    """The pairs of `graphs._box_pairs` as sorted (min, max) index pairs,
    found with a copied tail: each box in x-order scans the boxes sorted
    after it until one starts past its end."""
    order = sorted((*box, a) for a, box in enumerate(boxes))
    pairs = []
    for k, (_, x1, y0, y1, z0, z1, a) in enumerate(order):
        for x0b, _, y0b, y1b, z0b, z1b, b in order[k + 1 :]:
            if x0b > x1:
                break
            if y0b <= y1 and y0 <= y1b and z0b <= z1 and z0 <= z1b:
                pairs.append((a, b) if a < b else (b, a))
    pairs.sort()
    return pairs


def box_reference(p: tuple, q: tuple) -> tuple:
    """The closed box (x0, x1, y0, y1, z0, z1) of `geometry._box`, grown one
    ordered coordinate pair at a time; a planar box gets the z-range [0, 0]."""
    box = ()
    for a, b in zip(p, q):
        box += (a, b) if a <= b else (b, a)
    return box if len(box) == 6 else box + (0, 0)


def box_groups_reference(boxes) -> list[tuple[int, list[int]]]:
    """The groups of `geometry._box_pairs`, from a sort of (box, index)
    7-tuples, so equal boxes come in index order: each box in x-order with
    the later boxes that start before it ends and meet it in y and z."""
    order = sorted((*box, a) for a, box in enumerate(boxes))
    starts = [box[0] for box in order]
    return [(a, [b for _, _, y0b, y1b, z0b, z1b, b in order[k + 1 : bisect_right(starts, x1, k + 1)]
                 if y0b <= y1 and y0 <= y1b and z0b <= z1 and z0 <= z1b])
            for k, (_, x1, y0, y1, z0, z1, a) in enumerate(order)]


def scan_drawing_reference(d: PlanarDrawing):
    """The reference for `graphs._scan_drawing`: every side pair goes
    through `seg_intersect2_reference`, and each degenerate contact is
    classified by the endpoints the two sides share.  Returns (violations,
    raw crossings, each with its Point2)."""
    out, usable = _side_table(d.graph, *_coordinates(d))[:2]
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
            ends1 = set(s1)
            ends2 = set(s2)
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


def canonical_cycle_order(seq) -> tuple[str, ...]:
    """The canonical order of `Cycle`: the least name first, then the lesser
    of its two neighbours."""
    seq = tuple(seq)
    start = seq.index(min(seq))
    rotated = seq[start:] + seq[:start]
    return rotated if rotated[1] <= rotated[-1] else rotated[:1] + rotated[:0:-1]


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


def cone_passes_reference(points, u: int, v: int, chain, side_of: dict) -> int:
    """`linking._cone_passes` by `orient3d_sos` alone: the parity of the
    passes of the broken line through the points indexed by `chain` through
    the cone triangle (points[0], points[u], points[v]), by the five signs
    of `seg_hits_solid_triangle`, each taken by `orient3d_sos` on `points`.
    `side_of` keeps the sides of the triangle's plane found so far."""
    for p in chain:
        if p not in side_of:
            side_of[p] = orient3d_sos(points, 0, u, v, p)
    passes = 0
    for p, q in zip(chain, chain[1:]):
        passes ^= side_of[p] != side_of[q] and (
            orient3d_sos(points, p, q, 0, u) == orient3d_sos(points, p, q, u, v) == orient3d_sos(points, p, q, v, 0)
        )
    return passes


def cone_matrix_reference(apex: Point3, chains, disjoint) -> list[int]:
    """`linking._cone_matrix` on `cone_passes_reference`: bit f of row e,
    for f in `disjoint[e]`, is the parity of the passes of chain f through
    the cone triangles (apex, side of chain e), all signs taken on the apex
    and then every distinct corner once, scaled to integers."""
    index = {p: k for k, p in enumerate(dict.fromkeys(p for chain in chains for p in chain), 1)}
    m = lcm(*(c.denominator for p in index for c in p.coords()))
    points = [p.scale(m) for p in (apex, *index)] if m > 1 else [apex, *index]
    ids = [[index[p] for p in chain] for chain in chains]
    rows = [0] * len(chains)
    for e, chain in enumerate(ids):
        for u, v in zip(chain, chain[1:]):
            side_of: dict[int, int] = {}
            for f in disjoint[e]:
                rows[e] ^= cone_passes_reference(points, u, v, ids[f], side_of) << f
    return rows


def linking_mod2_cone_reference(a: SpatialPolyline, b: SpatialPolyline, apex: Point3) -> int:
    """`linking.linking_mod2_cone` on `cone_passes_reference`, for closed
    polygons already known to be disjoint: the signs are taken on the apex,
    then a's corners, then b's."""
    points = (apex, *a.vertices, *b.vertices)
    n, m = len(a.vertices), len(b.vertices)
    ring = [*range(n + 1, n + m + 1), n + 1]
    return sum(cone_passes_reference(points, 1 + i, 1 + (i + 1) % n, ring, {}) for i in range(n)) & 1


def polylines_disjoint_reference(a: SpatialPolyline, b: SpatialPolyline) -> bool:
    """`linking.polylines_disjoint` testing every pair of sides, one from each."""
    mine, theirs = ([p.coords() + q.coords() for p, q in poly.sides()] for poly in (a, b))
    return not any(_meet3(s, t) for s in mine for t in theirs)


def moment_curve_k6(k: int) -> PLEmbedding:
    """The straight K6 on the points (i, i^2, i^3) k, i = 1..6, with each edge
    cut into k sides: its interior points are vertices, listed after the six,
    and every odd one is raised one unit in z.  A valid embedding with
    6 + 15 (k - 1) vertices and 15 k straight edges."""
    corners = {f"v{i}": (i * k, i * i * k, i ** 3 * k) for i in range(1, 7)}
    positions = {v: Point3(*c) for v, c in corners.items()}
    edges = []
    for u, v in complete_graph(6).edges:
        (x0, y0, z0), (x1, y1, z1) = corners[u], corners[v]
        path = [u]
        for j in range(1, k):
            path.append(f"{u}{v}.{j}")
            positions[path[-1]] = Point3(x0 + (x1 - x0) // k * j, y0 + (y1 - y0) // k * j, z0 + (z1 - z0) // k * j + j % 2)
        path.append(v)
        edges += zip(path, path[1:])
    return make_embedding(make_graph(list(positions), edges), positions)


def zigzag_ring(n: int, lift: int) -> SpatialPolyline:
    """A closed polygon of n sides (n a multiple of 4, at least 8) round the
    square [0, n/4]^2, its corners at heights lift and lift + 1 in turn.  The
    rings at lifts 0 and 1 are disjoint: over each side of one runs a side of
    the other, one unit higher, so their boxes meet side by side."""
    m = n // 4
    walk = [(j, 0) for j in range(m)] + [(m, j) for j in range(m)]
    walk += [(m - j, m) for j in range(m)] + [(0, m - j) for j in range(m)]
    return SpatialPolyline([Point3(x, y, lift + k % 2) for k, (x, y) in enumerate(walk)], closed=True)


def through_reference(cls, points, closed: bool = False):
    """`_Polyline.through` as a loop that drops the leftmost straight corner
    and scans again from the first: quadratic on long straight runs."""
    out = []
    for p in points:
        if not out or out[-1] != p:
            out.append(p)
    if closed and len(out) > 1 and out[0] == out[-1]:
        out.pop()
    changed = True
    while changed and len(out) >= 3:
        changed = False
        n = len(out)
        for i in range(n) if closed else range(1, n - 1):
            if cls._straight(out[i - 1], out[i], out[(i + 1) % n]):
                del out[i]
                changed = True
                break
    return cls(tuple(out), closed)


def read_cycle_reference(g, front, seq) -> tuple:
    """A cycle read as the analyses read each one on every call before they
    kept plans: (canonical vertices, edge mask, front row, label)."""
    vertices, mask = _cycle(g, seq)
    return vertices, mask, _xor_rows(front, mask), "-".join(vertices)


def front_ledger_reference(g, label: str, rows, expect: int):
    """A ledger of the front rows of read far cycles against edges (x, y)."""
    entries = [(f"lk({name} | {x}-{y})", (row & g._edge_bit[x, y]).bit_count()) for (_, _, row, name), (x, y) in rows]
    return invariants._forced(label, entries, expect)


def unplanned_hub_analysis(emb: PLEmbedding, seed: int, script):
    """`invariants._hub_analysis` with every cycle read by `read_cycle_reference`."""
    g, position, routes = require_valid(emb)._core
    label, rows, specs = script(g)
    front = _front_rows(g, _direction_search(seed, _orthogonal, g, position, routes)[5])
    read = [(e, read_cycle_reference(g, front, far), read_cycle_reference(g, front, near)) for e, far, near in rows]
    entries = [(f"lk({name1} | {name2})", _lk((row1 & mask2).bit_count() & 1, (row2 & mask1).bit_count() & 1))
               for _, (_, mask1, row1, name1), (_, mask2, row2, name2) in read]
    main = invariants._forced(label, entries, 1)
    far, near = next((far, near) for (_, far, near), (_, lk) in zip(read, entries) if lk)
    return LinkReport(Cycle(far[0]), Cycle(near[0]), 1, "pl-orthogonal"), (main,) + tuple(
        front_ledger_reference(g, name, [(far, x) for e, far, _ in read if (x := pick(e))], expect)
        for name, expect, pick in specs)


def unplanned_linear_analysis(points, seed: int):
    """`invariants._linear_analysis` with every cycle read by `read_cycle_reference`."""
    pts = list(points)
    top, _, (_, g, _, _, _, strands) = invariants._choose_viewpoint(pts, seed)
    front = _front_rows(g, strands)
    rows = [(read_cycle_reference(g, front, [w for w in g.vertices if w not in e]), e) for e in g.edges]
    ledger = front_ledger_reference(g, "sight-blocking lk over the 10 base edges", rows, 1)
    far, (u, v) = next(row for row, (_, bit) in zip(rows, ledger.entries) if bit)
    k6 = complete_graph(6)
    return LinkReport(Cycle(far[0]), make_cycle(k6, (k6.vertices[top], u, v)), 1, "linear-central"), ledger
