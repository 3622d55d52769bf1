"""Projections of spatial embeddings to planar diagrams.

Orthogonal projection flattens an embedding along a direction and keeps,
for every crossing of the resulting drawing, which strand passed in front.
Central projection maps points onto a plane from an extremal viewpoint and
is the bridge between cone counting and diagram counting: two projected
segments cross exactly when one blocks the other's line of sight.

Both projections refuse non-generic directions instead of producing a
defective diagram; callers that need some direction use the seeded search.

Each projection has one core on coordinate tuples, which finds the crossings
once and names each front strand: the orthogonal core on the shadows, the
central core on the signs of volumes about the apex, which images of points
below it keep, so it builds no image.  The analyses hand the orthogonal core
the smoothed chains that a `ValidEmbedding` carries, and fold a core's strands
into a front matrix, one bitmask row per edge, building no diagram; the public
functions build a `ProjectedDiagram` from the core's result, `project_central`
its images and a key for each crossing the core found.  Every linking number
is an XOR of rows read at a mask.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import chain, combinations
from math import lcm
from typing import Sequence

from .errors import (
    ApexNotExtremal,
    CyclesNotDisjoint,
    GeneralPositionViolation,
    InternalParityFailure,
    ProjectionNotGeneral,
    SearchExhausted,
)
from .geometry import (NON_GENERIC, Point2, Point3, _collinear2, _integer_scaled, _meet2, _orient3, _Record, _set, _sign,
                       coprime3)
from .graphs import (
    Crossing,
    Cycle,
    GenericDrawing,
    Graph,
    PlanarDrawing,
    PlanarPolyline,
    PLEmbedding,
    ValidEmbedding,
    _coordinates,
    _generic,
    _scan_drawing,
    _validated,
    _xor_rows,
    make_graph,
)
from .linking import _check_polyline
from .rng import SplitMix64


def canonical_direction(p: Point3) -> Point3:
    """Scale a nonzero vector to coprime integers with the first nonzero
    coordinate positive, so each line through the origin has one name."""
    return Point3(*_canonical(p.coords()))


def _canonical(v: tuple) -> tuple[int, int, int]:
    """`canonical_direction` on coordinates."""
    first = next((c for c in v if c), 0)
    if not first:
        raise ValueError("zero vector has no direction")
    return coprime3(*v, 1 if first > 0 else -1)


def _cross(u: tuple, v: tuple) -> tuple:
    """The cross product u x v of two coordinate triples."""
    (ux, uy, uz), (vx, vy, vz) = u, v
    return uy * vz - uz * vy, uz * vx - ux * vz, ux * vy - uy * vx


def _plane_basis(d: tuple) -> tuple[tuple, tuple]:
    """Two independent vectors spanning the plane normal to the coordinates d,
    with (e1, e2, d) positively oriented.  Not normalized: shadow coordinates
    are a fixed invertible linear image of the true orthogonal shadow,
    which preserves incidence, crossings and general position."""
    e1 = _cross(d, (0, 0, 1) if d[0] or d[1] else (1, 0, 0))  # d x (1, 0, 0) along the z-axis
    return e1, _cross(d, e1)


class ProjectedDiagram(_Record):
    """A drawing obtained by flattening an embedding, with every crossing
    labeled by the edge whose strand passes in front: the one with the
    larger component along the projection direction in an orthogonal
    projection, the one nearer the apex in a central projection."""

    def __init__(self, direction: Point3, drawing: GenericDrawing, crossings: tuple[Crossing, ...]):
        _set(self, "direction", direction)
        _set(self, "drawing", drawing)
        _set(self, "crossings", crossings)
        # the front matrix, not a field
        _set(self, "_front", _front_rows(drawing.graph, [(c.edge1, c.edge2, c.upper) for c in crossings]))

    @property
    def graph(self):
        return self.drawing.graph


def _front_rows(g: Graph, strands) -> tuple[int, ...]:
    """The front matrix of `g` from the (edge1, edge2, upper) strands of its
    crossings: bit f of row k is the parity of edges[k]'s passes over edges[f]."""
    bit, front = g._edge_bit, [0] * len(g.edges)
    for e1, e2, upper in strands:  # the lower strand's bit is the pair's bits without the upper's
        if e1 not in bit or e2 not in bit:
            raise ValueError(f"crossing of {e1} and {e2} names an edge outside the graph")
        if upper != e1 and upper != e2:
            raise ValueError(f"crossing of {e1} and {e2} has upper {upper}, not one of its strands")
        front[bit[upper].bit_length() - 1] ^= bit[e1] ^ bit[e2] ^ bit[upper]
    return tuple(front)


def _diagram(d: tuple, graph: Graph, where, chains, crossings, strands) -> ProjectedDiagram:
    """The public diagram of a projection core's result: the generic drawing
    `require_generic` builds from the core's crossings, labelled by its strands."""
    drawing = _generic(PlanarDrawing(graph, {v: Point2(*c) for v, c in where.items()}, {
        key: PlanarPolyline(tuple(Point2(*c) for c in chain)) for key, chain in chains.items()
    }), crossings)
    upper = {rec[:4]: up for rec, (_, _, up) in zip(crossings, strands)}
    labelled = (c.replace(upper=upper[c.edge1, c.side1, c.edge2, c.side2]) for c in drawing.crossings)
    return ProjectedDiagram(Point3(*d), drawing, tuple(labelled))


def _orthogonal(g: Graph, position, routes, d: tuple):
    """`project_orthogonal` on coordinates, of a valid embedding as `g`, its vertices' and each edge's
    route points' coordinates in `g.edges` order, along the canonical direction d: d, the graph, the
    vertex and route-point shadows, the crossings of distinct edges and their strands."""
    route = dict(zip(g.edges, routes))
    (ax, ay, az), (bx, by, bz) = _plane_basis(d)
    points = {*position.values(), *chain.from_iterable(routes)}
    shade = {(x, y, z): (x * ax + y * ay + z * az, x * bx + y * by + z * bz) for x, y, z in points}  # once a point
    where = {v: shade[c] for v, c in position.items()}
    chains = {}
    for key, r in route.items():
        chains[key] = shadow = [shade[c] for c in r]
        try:  # sides must stay in bijection with the spatial sides, so a flattened corner is a rejection
            _check_polyline(shadow, False, _collinear2)
        except ValueError as ex:
            raise ProjectionNotGeneral(f"route of {key} degenerates in projection: {ex}")
    violations, raw = _scan_drawing(g, where, chains)
    if violations:
        raise ProjectionNotGeneral(f"projected drawing has {len(violations)} degenerate contacts")

    crossings, strands = [], []
    for rec in raw:
        e1, i1, e2, i2, _ = rec
        if e1 == e2:
            continue
        (p1, q1), (p2, q2) = route[e1][i1 : i1 + 2], route[e2][i2 : i2 + 2]
        (r1x, r1y), (s1x, s1y) = chains[e1][i1 : i1 + 2]
        (r2x, r2y), (s2x, s2y) = chains[e2][i2 : i2 + 2]
        # (e1, e2, d) is positively oriented, so with a, b the spatial side
        # directions, sign det[a; b; d] = sign cross2(shadow a, shadow b) =
        # `turn`; and p2 - p1 = t a - u b + lam d at the crossing, with
        # lam > 0 exactly when strand 2 is higher, so `det` = -sign(lam) turn:
        # strand 1 is in front exactly when det == turn
        det = _orient3(p1, q1, p2, q2)
        if det == 0:
            raise InternalParityFailure("two strands of a valid embedding project to equal heights")
        turn = _sign((s1x - r1x) * (s2y - r2y) - (s1y - r1y) * (s2x - r2x))
        crossings.append(rec)
        strands.append((e1, e2, e1 if det == turn else e2))
    return d, g, where, chains, crossings, strands


def project_orthogonal(emb: PLEmbedding, direction: Point3) -> ProjectedDiagram:
    """Flatten an embedding along a direction.

    Raises EmbeddingInvalid when the embedding fails validation (a
    ValidEmbedding is not checked again), and ProjectionNotGeneral when the
    direction flattens a corner, makes a side vanish, or yields a drawing
    with degenerate contacts.
    """
    return _diagram(*_orthogonal(*_own(emb), canonical_direction(direction).coords()))


def _own(emb: PLEmbedding) -> tuple:
    """The graph of an embedding that must be valid, and its vertices' and each edge's route points' own
    coordinates, in `graph.edges` order.  A `ValidEmbedding` is not validated again, any other once, building no core."""
    if not isinstance(emb, ValidEmbedding):
        _validated(emb)
    where, chains = _coordinates(emb)
    return emb.graph, where, [chains[key] for key in emb.graph.edges]


# directions the projection search tries before it raises SearchExhausted
DIRECTION_TRIES = 10000


def _direction_search(seed: int, project, *args):
    """The first `project(*args, d)` not rejected, d a canonical direction's coordinates as
    `find_general_projection` draws it."""
    rng, bound, rejections, seen = SplitMix64(seed), 8, 0, set()
    for _ in range(DIRECTION_TRIES):
        cand = (rng.randint(-bound, bound), rng.randint(-bound, bound), rng.randint(-bound, bound))
        if not any(cand):
            continue
        cand = _canonical(cand)
        if cand in seen:
            continue
        seen.add(cand)
        try:
            return project(*args, cand)
        except ProjectionNotGeneral:
            rejections += 1
            if rejections % 16 == 0:
                bound *= 2
    raise SearchExhausted(f"no generic projection direction in {DIRECTION_TRIES} tries")


def find_general_projection(emb: PLEmbedding, seed: int = 0) -> ProjectedDiagram:
    """Seeded search for a direction whose projection is generic.

    Directions are drawn from an integer cube that doubles in size every 16
    rejections; almost every direction works, so the search normally ends
    within a handful of tries.  Deterministic for a fixed embedding + seed.
    """
    return _diagram(*_direction_search(seed, _orthogonal, *_own(emb)))


@lru_cache(maxsize=8)
def _central_plan(names: tuple) -> tuple:
    """The complete graph on `names` and its disjoint edge pairs, in the order a sweep lists their crossings."""
    graph = make_graph(names, combinations(names, 2))
    return graph, [(e1, e2) for e1, e2 in combinations(graph.edges, 2) if e1[0] not in e2 and e1[1] not in e2]


def _collinear_images(rows) -> bool:
    """Some image lies on the line of two others: a row of volumes about the apex vanishes off its own pair."""
    return any(row.count(0) > 2 for row in rows)


def _central(points: Sequence[Point3], apex: Point3, normal: Point3, names: Sequence[str] | None = None):
    """`project_central` decided on volumes about the apex a, on the input's coordinates scaled to integers,
    building no image: the normal, the complete graph on the names (`_central_plan`), the points' coordinates
    about a, their gaps below it, and the (edge1, edge2, upper) strand of each crossing.  Images of points
    strictly below a keep the orientation of their volumes about it: the image of p is a + t_p (p - a) with
    t_p > 0, and a volume about a is linear in each of its three points."""
    pts = list(points)
    if apex not in pts:
        raise ValueError("apex must be one of the points")
    others = [p for p in pts if p != apex]
    if len(others) != len(pts) - 1:
        raise ValueError("apex occurs more than once among the points")
    # a uniform positive scale of space and of the functional moves no sign
    (ax, ay, az), n, *rel = _integer_scaled([p.coords() for p in (apex, normal, *others)])
    rel = [(x - ax, y - ay, z - az) for x, y, z in rel]
    gaps = [-(x * n[0] + y * n[1] + z * n[2]) for x, y, z in rel]
    if any(g <= 0 for g in gaps):
        raise ApexNotExtremal("apex does not strictly maximize the functional")

    # the normal of each pair's plane through a, in the graph's edge order, and the sign of its volume with
    # every point: orient3d(a, p, q, r), the orientation of the images of p, q and r
    normals = [_cross(p, q) for p, q in combinations(rel, 2)]
    rows = [[_sign(x * cx + y * cy + z * cz) for x, y, z in rel] for cx, cy, cz in normals]
    if _collinear_images(rows):
        raise ProjectionNotGeneral("projected points are not in general position")

    names = [f"p{i}" for i in range(1, len(others) + 1)] if names is None else list(names)
    if len(names) != len(others):
        raise ValueError("need one name per non-apex point")
    graph, pairs = _central_plan(tuple(names))
    if not all(map(any, normals)):  # two points on one ray, past the check above: `make_drawing` refuses the edge
        raise ValueError("polyline needs at least 2 vertices, closed needs 3")
    side, at = dict(zip(graph.edges, rows)), graph._index
    # no three images collinear: only disjoint edges meet, and they cross when each parts the other's ends
    crossing = [(e1, e2) for e1, e2 in pairs
                if (s := side[e1])[at[e2[0]]] != s[at[e2[1]]] and (s := side[e2])[at[e1[0]]] != s[at[e1[1]]]]
    if len(rel) > 5:  # three edges through one point are pairwise disjoint: fewer than six images have none
        # a crossing is the image of the ray from the apex along the cross product of its two planes' normals
        plane = dict(zip(graph.edges, normals))
        rays = Counter(_canonical(_cross(plane[e1], plane[e2])) for e1, e2 in crossing)
        repeated = sum(k > 1 for k in rays.values())
        if repeated:
            raise ProjectionNotGeneral(f"central image drawing has {repeated} degenerate contacts")

    strands = []
    for e1, e2 in crossing:
        (p, q), (r, w) = ([rel[at[v]] for v in e] for e in (e1, e2))
        # about the line pq, r and w lie on either side of the plane apq, and
        # rw passes beyond pq from the apex a (behind it) exactly when the turn
        # from r to w has the sense of the turn from a to r: orient3d(p, q, a, r),
        # an even permutation of orient3d(a, p, q, r), the volume side[pq][r]
        det = _orient3(p, q, r, w)
        if det == 0:
            raise GeneralPositionViolation(f"edges {e1} and {e2} meet in space")
        strands.append((e1, e2, e1 if det == side[e1][at[e2[0]]] else e2))
    return n, graph, rel, gaps, strands


def project_central(points: Sequence[Point3], apex: Point3, normal: Point3,
                    names: Sequence[str] | None = None) -> ProjectedDiagram:
    """Project the points other than the apex from the apex, and return the
    diagram of the straight complete graph on them: the canonical normal,
    the drawing of their images, and each crossing labeled with the strand
    nearer the apex.

    The functional x -> <x, normal> must take its strict maximum over the
    points at the apex a.  `_central` decides the diagram on volumes about
    a; only then are the images built, here, and a key for each crossing it
    found.  With (e1, e2) the plane basis of the normal, g_p = <a - p,
    normal> > 0 and L the lcm of the g_p, the image of p is (<p - a, e1>,
    <p - a, e2>) * (L // g_p): its central image in a plane below the apex,
    up to a translation and a positive scale, so the two cross alike.
    Rational input is first scaled to integers.

    Raises ApexNotExtremal when the apex is not the unique maximizer,
    ProjectionNotGeneral when three images become collinear or two
    coincide, or three image edges meet at a point, and
    GeneralPositionViolation when two images cross at equal depth: their
    segments meet in space.
    """
    n, graph, rel, gaps, strands = _central(points, apex, normal, names)
    d = _canonical(n)
    (bx, by, bz), (cx, cy, cz) = _plane_basis(d)
    m = lcm(*gaps)
    where = {v: ((x * bx + y * by + z * bz) * (m // g), (x * cx + y * cy + z * cz) * (m // g))
             for v, (x, y, z), g in zip(graph.vertices, rel, gaps)}
    crossings = []
    for e1, e2, _ in strands:
        key = _meet2(*where[e1[0]], *where[e1[1]], *where[e2[0]], *where[e2[1]])
        if key is None or key is NON_GENERIC:
            raise InternalParityFailure(f"images of {e1} and {e2} cross by their volumes but not transversally")
        crossings.append((e1, 0, e2, 0, key))
    return _diagram(d, graph, where, {(u, v): [where[u], where[v]] for u, v in graph.edges}, crossings, strands)


def front_parity(diag: ProjectedDiagram, first_edges, second_edges) -> int:
    """Parity of crossings between two disjoint sets of edges, given as
    vertex pairs in either order, at which the front strand is in the first.

    For open strand sets this genuinely depends on the argument order;
    only for a pair of disjoint closed cycles are the two orders forced to
    agree, which is what lk_from_diagram checks and exploits."""
    first, second = diag.graph._edge_mask(first_edges), diag.graph._edge_mask(second_edges)
    if first & second:
        raise ValueError("edge sets overlap")
    return (_xor_rows(diag._front, first) & second).bit_count() & 1


def _lk(over1: int, over2: int) -> int:
    """The lk of two disjoint cycles from the front parity each way, which must agree."""
    if over1 != over2:
        raise InternalParityFailure("front-strand parity depends on the cycle order; diagram data is inconsistent")
    return over1


def lk_from_diagram(diag: ProjectedDiagram, cycle1: Cycle, cycle2: Cycle) -> int:
    """Mod-2 linking number read off a projected diagram: the parity of
    crossings between the two cycles at which the first passes in front.
    For disjoint closed cycles the choice of 'first' does not matter; that
    equality is enforced, not assumed."""
    if set(cycle1.vertices) & set(cycle2.vertices):
        raise CyclesNotDisjoint(f"{cycle1.vertices} and {cycle2.vertices} share a vertex")
    e1, e2 = diag.graph.cycle_edges(cycle1), diag.graph.cycle_edges(cycle2)
    return _lk(front_parity(diag, e1, e2), front_parity(diag, e2, e1))
