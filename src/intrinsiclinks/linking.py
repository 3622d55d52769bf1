"""Mod-2 linking of closed spatial polygons, decided exactly.

Two disjoint closed polygons are linked (mod 2) exactly when `b` passes an
odd number of times through the cone from an apex over `a`: the cone is a
singular disk bounded by `a`, and the passes are counted per cone triangle,
so where two triangles overlap a pass through both counts twice.  The count
needs every pass to be transversal through the interior of a triangle.
Any apex gives that once the signs are taken with `orient3d_sos`, which
moves the apex and every vertex by an infinitesimal amount (Simulation of
Simplicity): after the move no four of the points are coplanar, so no
triangle is flat, no vertex of `b` lies in a triangle's plane and no side
of `b` meets a triangle's boundary.  The polygons are first checked
disjoint, exactly, so a small enough move keeps them disjoint and
embedded, and mod-2 linking does not change under it; the count is exact
for the input itself.

The count sums over pairs of sides, so on one embedding it is bilinear in
the edge routes: lk(c1, c2) mod 2 sums the bits (e, f) of `_cone_matrix`,
the passes of route f through the cone over route e, over the edges e of c1
and f of c2.  That is exact because every sign is taken on one point
sequence, the apex and then each distinct corner once, so all describe one
moved embedding: in it the cone over a cycle is its edges' cones glued along
the segments from the apex to their shared ends, a corner where a cycle runs
straight through stays a (moved) corner, and vertex-disjoint cycles, whose
routes meet nowhere, stay disjoint.
"""

from __future__ import annotations

from math import lcm

from .errors import GeneralPositionViolation, PolylinesNotDisjoint
from .geometry import (
    Point3,
    Segment3,
    Triangle3,
    _Record,
    _set,
    collinear3,
    gp_points3,
    meet_segments3,
    orient3d_sos,
    seg_hits_solid_triangle,
)
from .rng import SplitMix64


class _Polyline(_Record):
    """A broken line: open arc or closed polygon.

    Invariants enforced at construction: at least 2 vertices (3 when
    closed), consecutive vertices distinct, a closed polyline not repeating
    its first vertex, and every vertex a genuine corner (no straight run
    through it; for closed polylines this wraps around).  The sides are
    built once.  Subclasses name their segment class and their straightness
    test; `through` builds one from raw points.
    """

    def __init__(self, vertices, closed: bool = False):
        vertices = tuple(vertices)
        n = len(vertices)
        if n < 2 or (closed and n < 3):
            raise ValueError("polyline needs at least 2 vertices, closed needs 3")
        for i in range(n - 1):
            if vertices[i] == vertices[i + 1]:
                raise ValueError("consecutive vertices coincide")
        if closed and vertices[0] == vertices[-1]:
            raise ValueError("closed polyline must not repeat its first vertex")
        for i in range(n) if closed else range(1, n - 1):
            if self._straight(vertices[i - 1], vertices[i], vertices[(i + 1) % n]):
                raise ValueError(f"straight-through vertex at index {i}")
        sides = [self._segment(vertices[i], vertices[i + 1]) for i in range(n - 1)]
        if closed:
            sides.append(self._segment(vertices[-1], vertices[0]))
        _set(self, "vertices", vertices)
        _set(self, "closed", closed)
        _set(self, "_sides", tuple(sides))

    def sides(self) -> tuple:
        return self._sides

    @classmethod
    def through(cls, points, closed: bool = False):
        """The polyline through `points`, with repeats collapsed and every
        straight-through corner removed."""
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


class SpatialPolyline(_Polyline):
    """A broken line in space, which must not intersect itself;
    `SpatialPolyline.through(points[, closed=True])` builds one from raw points."""

    _segment = Segment3

    @staticmethod
    def _straight(u: Point3, v: Point3, w: Point3) -> bool:
        return collinear3(u, v, w)

    def __init__(self, vertices, closed: bool = False):
        super().__init__(vertices, closed)
        sides = self._sides
        m = len(sides)
        for i in range(m):
            # each side meets the next at their corner, and a closed
            # polygon's last side meets its first
            for j in range(i + 2, m - 1 if closed and i == 0 else m):
                if meet_segments3(sides[i], sides[j]):
                    raise ValueError(f"self-intersection between sides {i} and {j}")


def polylines_disjoint(a: SpatialPolyline, b: SpatialPolyline) -> bool:
    """True when the two polylines share no point at all."""
    for s in a.sides():
        for t in b.sides():
            if meet_segments3(s, t):
                return False
    return True


def triangles_linked(t1: Triangle3, t2: Triangle3) -> bool:
    """Linked test for straight triangles: t2 crosses conv(t1) exactly once.

    Requires the six vertices in general position; then each side of t2
    meets the solid triangle conv(t1) in zero or one transversal point, and
    the pair is linked exactly when the total is one (a two-point total
    means t2 dips through and back out, which is unlinked).
    """
    six = list(t1.vertices()) + list(t2.vertices())
    if not gp_points3(six):
        raise GeneralPositionViolation("the six triangle vertices are not in general position")
    # general position leaves every count 0 or 1, never NON_GENERIC
    return sum(seg_hits_solid_triangle(side, t1) for side in t2.sides()) == 1


def _cone_passes(points, u: int, v: int, chain, side_of: dict) -> int:
    """Parity of the passes of the broken line through the points indexed
    by `chain` through the cone triangle (points[0], points[u], points[v]):
    the five signs of `seg_hits_solid_triangle`, taken by `orient3d_sos` on
    `points`, so none is 0 and no triangle, flat or not, is built.
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


def _cone_matrix(apex: Point3, chains, disjoint) -> list[int]:
    """The cone-crossing matrix of the broken lines `chains`, a row per
    chain: bit f of row e, for f in `disjoint[e]`, is the parity of the
    passes of chain f through the cone triangles (apex, side of chain e).
    The apex is point 0, then every distinct corner once, all scaled to
    integers, which moves no sign."""
    index = {p: k for k, p in enumerate(dict.fromkeys(p for chain in chains for p in chain), 1)}
    m = lcm(*(c.denominator for p in index for c in p.coords()))  # 1 on ints
    points = [p.scale(m) for p in (apex, *index)] if m > 1 else [apex, *index]
    ids = [[index[p] for p in chain] for chain in chains]
    rows = [0] * len(chains)
    for e, chain in enumerate(ids):
        for u, v in zip(chain, chain[1:]):
            side_of: dict[int, int] = {}
            for f in disjoint[e]:
                rows[e] ^= _cone_passes(points, u, v, ids[f], side_of) << f
    return rows


def linking_mod2_cone(a: SpatialPolyline, b: SpatialPolyline, apex: Point3) -> int:
    """Mod-2 linking number of disjoint closed polygons: the parity of the
    passes of `b` through the cone triangles from the apex over the sides
    of `a`, for any apex (see the module docstring)."""
    if not a.closed or not b.closed:
        raise ValueError("linking is defined for closed polygons")
    if not polylines_disjoint(a, b):
        raise PolylinesNotDisjoint("the two polygons share a point")
    points = (apex, *a.vertices, *b.vertices)
    n, m = len(a.vertices), len(b.vertices)
    ring = [*range(n + 1, n + m + 1), n + 1]
    return sum(_cone_passes(points, 1 + i, 1 + (i + 1) % n, ring, {}) for i in range(n)) & 1


def linking_mod2_sampled(a: SpatialPolyline, b: SpatialPolyline, rng: SplitMix64) -> int:
    """Mod-2 linking number by cone counting from an apex drawn from `rng`
    (`_draw_apex`).  The answer does not depend on the draw; the draw only
    picks which count shows it."""
    return linking_mod2_cone(a, b, _draw_apex(rng))


def _draw_apex(rng: SplitMix64) -> Point3:
    """Three draws in [-8, 8], one per coordinate."""
    return Point3(rng.randint(-8, 8), rng.randint(-8, 8), rng.randint(-8, 8))
