"""Projections of spatial embeddings to planar diagrams.

Orthogonal projection flattens an embedding along a direction and keeps,
for every crossing of the resulting drawing, which strand passed in front.
Central projection maps points onto a plane from an extremal viewpoint and
is the bridge between cone counting and diagram counting: two projected
segments cross exactly when one blocks the other's line of sight.

Both projections refuse non-generic directions instead of producing a
defective diagram; callers that need some direction use the seeded search.

Each projection has one core on coordinate tuples, which finds the crossings
of the shadows or images once and names each front strand.  The analyses hand
the orthogonal core the smoothed chains that a `ValidEmbedding` carries, and
fold its strands into a front matrix, one bitmask row per edge, building no
diagram; the public functions build a `ProjectedDiagram` from the core's
result.  Every linking number is an XOR of rows read at a mask.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations
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
    _generic,
    _scan_drawing,
    _xor_rows,
    make_graph,
    require_valid,
)
from .linking import _check_polyline
from .rng import SplitMix64


def canonical_direction(p: Point3) -> Point3:
    """Scale a nonzero vector to coprime integers with the first nonzero
    coordinate positive, so each line through the origin has one name."""
    fr = (p.x, p.y, p.z)
    if all(f == 0 for f in fr):
        raise ValueError("zero vector has no direction")
    first = next(f for f in fr if f != 0)
    return Point3(*coprime3(*fr, 1 if first > 0 else -1))


def plane_basis(d: Point3) -> tuple[Point3, Point3]:
    """Two independent vectors spanning the plane normal to d, with
    (e1, e2, d) positively oriented.  Not normalized: shadow coordinates
    are a fixed invertible linear image of the true orthogonal shadow,
    which preserves incidence, crossings and general position."""
    x, y, z = d.coords()
    a, b, c = (y, -x, 0) if x or y else (0, z, -y)  # d x (0, 0, 1), or d x (1, 0, 0) along the z-axis
    return Point3(a, b, c), Point3(y * c - z * b, z * a - x * c, x * b - y * a)  # e2 = d x e1


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

    def __hash__(self):
        raise TypeError("diagrams are not hashable")

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


def _diagram(d: Point3, graph: Graph, where, chains, crossings, strands) -> ProjectedDiagram:
    """The public diagram of a projection core's result: the generic drawing
    `require_generic` builds from the core's crossings, labelled by its strands."""
    drawing = _generic(PlanarDrawing(graph, {v: Point2(*c) for v, c in where.items()}, {
        key: PlanarPolyline(tuple(Point2(*c) for c in chain)) for key, chain in chains.items()
    }), crossings)
    upper = {rec[:4]: up for rec, (_, _, up) in zip(crossings, strands)}
    labelled = (c.replace(upper=upper[c.edge1, c.side1, c.edge2, c.side2]) for c in drawing.crossings)
    return ProjectedDiagram(d, drawing, tuple(labelled))


def _orthogonal(g: Graph, position, routes, d: Point3):
    """`project_orthogonal` on coordinates, of a valid embedding as `g`, its positions and
    each edge's route points in `g.edges` order: the canonical direction, the graph, the
    vertex and route-point shadows, the crossings of distinct edges and their strands."""
    route = {key: [p.coords() for p in r] for key, r in zip(g.edges, routes)}
    (ax, ay, az), (bx, by, bz) = (e.coords() for e in plane_basis(d))
    spots = {v: p.coords() for v, p in position.items()}
    points = {*spots.values(), *(c for r in route.values() for c in r)}
    shade = {(x, y, z): (x * ax + y * ay + z * az, x * bx + y * by + z * bz) for x, y, z in points}  # once a point
    where = {v: shade[c] for v, c in spots.items()}
    chains = {}
    for key, r in route.items():
        chains[key] = chain = [shade[c] for c in r]
        try:  # sides must stay in bijection with the spatial sides, so a flattened corner is a rejection
            _check_polyline(chain, False, _collinear2)
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
    d = canonical_direction(direction)
    emb = require_valid(emb)
    return _diagram(*_orthogonal(emb.graph, emb.position, [emb.route[key].vertices for key in emb.graph.edges], d))


# directions the projection search tries before it raises SearchExhausted
DIRECTION_TRIES = 10000


def _direction_search(seed: int, project, *args):
    """The first `project(*args, d)`, d as `find_general_projection` draws it, that is not rejected."""
    rng = SplitMix64(seed)
    bound = 8
    rejections = 0
    seen: set[Point3] = set()
    for _ in range(DIRECTION_TRIES):
        cand = Point3(*(rng.randint(-bound, bound) for _ in range(3)))
        if cand.x == 0 and cand.y == 0 and cand.z == 0:
            continue
        cand = canonical_direction(cand)
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
    return _direction_search(seed, project_orthogonal, require_valid(emb))


def _central(points: Sequence[Point3], apex: Point3, normal: Point3, names: Sequence[str] | None = None):
    """`project_central` on coordinates: the canonical normal, the complete graph on the
    names, the images of its vertices and edges, their crossings, found with no sweep, and their strands."""
    pts = list(points)
    if apex not in pts:
        raise ValueError("apex must be one of the points")
    others = [p for p in pts if p != apex]
    if len(others) != len(pts) - 1:
        raise ValueError("apex occurs more than once among the points")
    # a uniform positive scale of space and of the functional moves no sign
    a, (nx, ny, nz), *others = _integer_scaled([p.coords() for p in (apex, normal, *others)])
    ax, ay, az = a
    rel = [(x - ax, y - ay, z - az) for x, y, z in others]
    gaps = [-(x * nx + y * ny + z * nz) for x, y, z in rel]
    if any(g <= 0 for g in gaps):
        raise ApexNotExtremal("apex does not strictly maximize the functional")

    d = canonical_direction(normal)
    (bx, by, bz), (cx, cy, cz) = (e.coords() for e in plane_basis(d))
    lcm_gap = lcm(*gaps)
    images = [((x * bx + y * by + z * bz) * (lcm_gap // g), (x * cx + y * cy + z * cz) * (lcm_gap // g))
              for (x, y, z), g in zip(rel, gaps)]
    if any(_collinear2(*abc) for abc in combinations(images, 3)):
        raise ProjectionNotGeneral("projected points are not in general position")

    names = [f"p{i}" for i in range(1, len(others) + 1)] if names is None else list(names)
    if len(names) != len(others):
        raise ValueError("need one name per non-apex point")
    graph = make_graph(names, combinations(names, 2))
    where = dict(zip(names, images))
    if len(set(images)) < len(images):  # two images, past the check above: `make_drawing` refuses the edge
        raise ValueError("polyline needs at least 2 vertices, closed needs 3")
    chains = {(u, v): [where[u], where[v]] for u, v in graph.edges}
    raw = []  # no three images collinear: only disjoint edges meet, and only by crossing
    for e1, e2 in combinations(graph.edges, 2):  # the order in which a sweep lists one-side routes' crossings
        key = e1[0] not in e2 and e1[1] not in e2 and _meet2(*where[e1[0]], *where[e1[1]], *where[e2[0]], *where[e2[1]])
        if key is NON_GENERIC:
            raise InternalParityFailure(f"images of {e1} and {e2} touch past the general-position check")
        if key:
            raw.append((e1, 0, e2, 0, key))
    repeated = sum(n > 1 for n in Counter(rec[4] for rec in raw).values())  # three or more edges through a point
    if repeated:
        raise ProjectionNotGeneral(f"central image drawing has {repeated} degenerate contacts")

    at = dict(zip(names, others))
    strands = []
    for e1, _, e2, _, _ in raw:  # one side per edge, so in the order of the drawing's crossings
        (p, q), (r, w) = map(at.get, e1), map(at.get, e2)
        # about the line pq, r and w lie on either side of the plane apq, and
        # rw passes beyond pq from a (behind it) exactly when the turn from r
        # to w has the sense of the turn from a to r
        det = _orient3(p, q, r, w)
        if det == 0:
            raise GeneralPositionViolation(f"edges {e1} and {e2} meet in space")
        strands.append((e1, e2, e1 if det == _orient3(p, q, a, r) else e2))
    return d, graph, where, chains, raw, strands


def project_central(
    points: Sequence[Point3],
    apex: Point3,
    normal: Point3,
    names: Sequence[str] | None = None,
) -> ProjectedDiagram:
    """Project the points other than the apex from the apex, and return the
    diagram of the straight complete graph on them: the canonical normal,
    the drawing of their images with each pair of disjoint edges tested
    once, and each crossing labeled with the strand nearer the apex.

    The functional x -> <x, normal> must take its strict maximum over the
    points at the apex a.  With (e1, e2) the plane basis of the normal,
    g_p = <a - p, normal> > 0 and L the lcm of the g_p, the image of p is
    (<p - a, e1>, <p - a, e2>) * (L // g_p): its central image in a plane
    below the apex, up to a translation and a positive scale, so the two
    cross alike.  Rational input is first scaled to integers.

    Raises ApexNotExtremal when the apex is not the unique maximizer,
    ProjectionNotGeneral when three images become collinear or two
    coincide, and GeneralPositionViolation when two images cross at equal
    depth: their segments meet in space.
    """
    return _diagram(*_central(points, apex, normal, names))


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
