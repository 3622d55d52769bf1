"""Projections of spatial embeddings to planar diagrams.

Orthogonal projection flattens an embedding along a direction and keeps,
for every crossing of the resulting drawing, which strand passed in front.
Central projection maps points onto a plane from an extremal viewpoint and
is the bridge between cone counting and diagram counting: two projected
segments cross exactly when one blocks the other's line of sight.

Both projections refuse non-generic directions instead of producing a
defective diagram; callers that need some direction use the seeded search.

A diagram's front matrix, built once from its labelled crossings, has one
bitmask row per edge; every linking number is an XOR of rows read at a mask.
"""

from __future__ import annotations

from itertools import combinations
from math import lcm
from typing import Sequence

from .errors import (
    ApexNotExtremal,
    CyclesNotDisjoint,
    DrawingNotGeneral,
    GeneralPositionViolation,
    InternalParityFailure,
    ProjectionNotGeneral,
    SearchExhausted,
)
from .geometry import Point2, Point3, _Record, _set, coprime3, cross3, dot3, gp_points2, is_zero3, orient2d, orient3d
from .graphs import (
    Crossing,
    Cycle,
    EdgeKey,
    GenericDrawing,
    PlanarDrawing,
    PlanarPolyline,
    PLEmbedding,
    _xor_rows,
    make_drawing,
    make_embedding,
    make_graph,
    require_generic,
    require_valid,
)
from .rng import SplitMix64

_EX = Point3(1, 0, 0)
_EZ = Point3(0, 0, 1)


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
    e1 = cross3(d, _EZ)
    if is_zero3(e1):
        e1 = cross3(d, _EX)
    e2 = cross3(d, e1)
    return e1, e2


class ProjectedDiagram(_Record):
    """A drawing obtained by flattening an embedding, with every crossing
    labeled by the edge whose strand passes in front: the one with the
    larger component along the projection direction in an orthogonal
    projection, the one nearer the apex in a central projection."""

    def __init__(
        self, embedding: PLEmbedding, direction: Point3,
        drawing: GenericDrawing, crossings: tuple[Crossing, ...],
    ):
        _set(self, "embedding", embedding)
        _set(self, "direction", direction)
        _set(self, "drawing", drawing)
        _set(self, "crossings", crossings)
        # the front matrix, not a field: bit f of row k is the parity of edges[k]'s passes over edges[f]
        bit, front = embedding.graph._edge_bit, [0] * len(embedding.graph.edges)
        for c in crossings:  # the lower strand's bit is the pair's bits without the upper's
            front[bit[c.upper].bit_length() - 1] ^= bit[c.edge1] ^ bit[c.edge2] ^ bit[c.upper]
        _set(self, "_front", tuple(front))

    def __hash__(self):
        raise TypeError("diagrams are not hashable")

    @property
    def graph(self):
        return self.embedding.graph

    def _cycle_front(self, cycle: Cycle) -> tuple[int, int]:
        """A cycle's front row, the XOR of its edges' rows, and its edge mask."""
        mask = self.graph._cycle_mask(cycle.vertices)
        return _xor_rows(self._front, mask), mask


def project_orthogonal(emb: PLEmbedding, direction: Point3) -> ProjectedDiagram:
    """Flatten an embedding along a direction.

    Raises EmbeddingInvalid when the embedding fails validation (a
    ValidEmbedding is not checked again), and ProjectionNotGeneral when the
    direction flattens a corner, makes a side vanish, or yields a drawing
    with degenerate contacts.
    """
    d = canonical_direction(direction)
    emb = require_valid(emb)
    e1, e2 = plane_basis(d)

    def shadow(p: Point3) -> Point2:
        return Point2(dot3(p, e1), dot3(p, e2))

    pos2 = {v: shadow(p) for v, p in emb.position.items()}
    routes2: dict[EdgeKey, PlanarPolyline] = {}
    for key, poly in emb.route.items():
        pts = tuple(shadow(p) for p in poly.vertices)
        try:
            # sides must stay in bijection with the spatial sides, so no
            # normalizing factory here; a flattened corner is a rejection
            routes2[key] = PlanarPolyline(pts, closed=False)
        except ValueError as ex:
            raise ProjectionNotGeneral(f"route of {key} degenerates in projection: {ex}")
    try:
        drawing = require_generic(PlanarDrawing(emb.graph, pos2, routes2))
    except DrawingNotGeneral as ex:
        raise ProjectionNotGeneral(f"projected drawing has {len(ex.violations)} degenerate contacts")

    labeled = []
    for c in drawing.crossings:
        s1 = emb.route[c.edge1].sides()[c.side1]
        s2 = emb.route[c.edge2].sides()[c.side2]
        t1 = drawing.route[c.edge1].sides()[c.side1]
        t2 = drawing.route[c.edge2].sides()[c.side2]
        # (e1, e2, d) is positively oriented, so with a, b the spatial side
        # directions, sign det[a; b; d] = sign cross2(shadow a, shadow b) =
        # `turn`; and p2 - p1 = t a - u b + lam d at the crossing, with
        # lam > 0 exactly when strand 2 is higher, so `det` = -sign(lam) turn:
        # strand 1 is in front exactly when det == turn
        det = orient3d(s1.p, s1.q, s2.p, s2.q)
        if det == 0:
            raise InternalParityFailure(
                "two strands of a valid embedding project to equal heights"
            )
        turn = orient2d(t1.p, t1.q, t1.p + (t2.q - t2.p))
        upper = c.edge1 if det == turn else c.edge2
        labeled.append(Crossing(c.edge1, c.edge2, c.side1, c.side2, c.key, c.disjoint, upper))
    return ProjectedDiagram(emb, d, drawing, tuple(labeled))


# directions the projection search tries before it raises SearchExhausted
DIRECTION_TRIES = 10000


def find_general_projection(emb: PLEmbedding, seed: int = 0) -> ProjectedDiagram:
    """Seeded search for a direction whose projection is generic.

    Directions are drawn from an integer cube that doubles in size every 16
    rejections; almost every direction works, so the search normally ends
    within a handful of tries.  Deterministic for a fixed embedding + seed.
    """
    emb = require_valid(emb)
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
            return project_orthogonal(emb, cand)
        except ProjectionNotGeneral:
            rejections += 1
            if rejections % 16 == 0:
                bound *= 2
    raise SearchExhausted(f"no generic projection direction in {DIRECTION_TRIES} tries")


def project_central(
    points: Sequence[Point3],
    apex: Point3,
    normal: Point3,
    names: Sequence[str] | None = None,
) -> ProjectedDiagram:
    """Project the points other than the apex from the apex, and return the
    diagram of the straight complete graph on them: their straight
    embedding, the canonical normal, the drawing of their images swept
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
    pts = list(points)
    if apex not in pts:
        raise ValueError("apex must be one of the points")
    below = [p for p in pts if p != apex]
    if len(below) != len(pts) - 1:
        raise ValueError("apex occurs more than once among the points")
    a, n, others = apex, normal, below
    m = lcm(*(c.denominator for p in (a, n, *others) for c in p.coords()))  # 1 on ints
    if m > 1:  # a uniform positive scale of space and of the functional moves no sign
        a, n, *others = (Point3(*(c.numerator * (m // c.denominator) for c in p.coords())) for p in (a, n, *others))
    apex_val = dot3(a, n)
    gaps = [apex_val - dot3(p, n) for p in others]
    if any(g <= 0 for g in gaps):
        raise ApexNotExtremal("apex does not strictly maximize the functional")

    d = canonical_direction(n)
    e1, e2 = plane_basis(d)
    lcm_gap = lcm(*gaps)
    images = []
    for p, g in zip(others, gaps):
        k = lcm_gap // g
        images.append(Point2(dot3(p - a, e1) * k, dot3(p - a, e2) * k))
    if not gp_points2(images):
        raise ProjectionNotGeneral("projected points are not in general position")

    if names is None:
        names = [f"p{i}" for i in range(1, len(others) + 1)]
    names = list(names)
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
        (p, q), (r, w) = map(at.get, c.edge1), map(at.get, c.edge2)
        # about the line pq, r and w lie on either side of the plane apq, and
        # rw passes beyond pq from a (behind it) exactly when the turn from r
        # to w has the sense of the turn from a to r
        det = orient3d(p, q, r, w)
        if det == 0:
            raise GeneralPositionViolation(f"edges {c.edge1} and {c.edge2} meet in space")
        upper = c.edge1 if det == orient3d(p, q, a, r) else c.edge2
        labeled.append(Crossing(c.edge1, c.edge2, c.side1, c.side2, c.key, c.disjoint, upper))
    return ProjectedDiagram(make_embedding(graph, dict(zip(names, below))), d, drawing, tuple(labeled))


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
