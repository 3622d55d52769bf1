"""Mod-2 linking of closed spatial polygons, decided exactly.

Two disjoint closed polygons are linked (mod 2) exactly when `b` passes an
odd number of times through the cone from an apex over `a`: the cone is a
singular disk bounded by `a`, and the passes are counted per cone triangle,
so where two triangles overlap a pass through both counts twice.  A side pq
of `b` passes the cone triangle (o, u, v) when five signs agree, as in
`seg_hits_solid_triangle`: p and q lie on opposite sides of the plane ouv,
and pq passes the edges ou, uv and vo the same way round.  With the apex o
at the origin each sign is one dot product, with the normal n = u x v taken
once per cone triangle and the Pluecker line of pq, d = q - p and
m = p x q, once per side: p lies on side n.p, and the edges are passed on
sides m.u, d.n + m.(v - u) and -m.v, which are orient3d(p, q, o, u),
orient3d(p, q, u, v) and orient3d(p, q, v, o).  A sign that is 0 is taken
again by `orient3d_sos`, which moves the apex and every vertex by an
infinitesimal amount (Simulation of Simplicity): after the move no four of
the points are coplanar, so no triangle is flat, no vertex of `b` lies in
a triangle's plane and no side of `b` meets a triangle's boundary, and any
apex gives transversal passes only.  The polygons are first checked
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

from functools import reduce
from operator import xor

from .errors import GeneralPositionViolation, PolylinesNotDisjoint, SearchExhausted
from .geometry import (
    Point3,
    Triangle3,
    _box,
    _box_pairs,
    _integer_scaled,
    _meet3,
    _orient3_sos,
    _Record,
    _set,
    collinear3,
    gp_points3,
    seg_hits_solid_triangle,
)
from .rng import SplitMix64


def _check_polyline(vertices, closed: bool, straight) -> None:
    """The checks of `_Polyline` on the points `vertices`, with `straight` its straightness test."""
    n = len(vertices)
    if n < 2 or (closed and n < 3):
        raise ValueError("polyline needs at least 2 vertices, closed needs 3")
    for i in range(n - 1):
        if vertices[i] == vertices[i + 1]:
            raise ValueError("consecutive vertices coincide")
    if closed and vertices[0] == vertices[-1]:
        raise ValueError("closed polyline must not repeat its first vertex")
    for i in range(n) if closed else range(1, n - 1):
        if straight(vertices[i - 1], vertices[i], vertices[(i + 1) % n]):
            raise ValueError(f"straight-through vertex at index {i}")


class _Polyline(_Record):
    """A broken line: open arc or closed polygon.

    Invariants enforced at construction: at least 2 vertices (3 when
    closed), consecutive vertices distinct, a closed polyline not repeating
    its first vertex, and every vertex a genuine corner (no straight run
    through it; for closed polylines this wraps around).  The sides, the
    pairs (p, q) of consecutive vertices with a closed polyline's last
    vertex followed by its first, are built once.  Subclasses name their
    straightness test; `through` builds one from raw points.
    """

    def __init__(self, vertices, closed: bool = False):
        vertices = tuple(vertices)
        _check_polyline(vertices, closed, self._straight)
        _set(self, "vertices", vertices)
        _set(self, "closed", closed)
        ends = vertices[1:] + vertices[:1] if closed else vertices[1:]
        _set(self, "_sides", tuple(zip(vertices, ends)))

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
        kept, lo = [], 0  # in one pass, the corners a rescan from the first after each drop would keep
        for k, p in enumerate(out):
            while len(kept) > 1 and len(kept) + len(out) - k > 2 and cls._straight(kept[-2], kept[-1], p):
                kept.pop()
            kept.append(p)
        while closed and len(kept) - lo > 2:  # then the seam of a ring, its first corner first
            if cls._straight(kept[-1], kept[lo], kept[lo + 1]):
                lo += 1
            elif cls._straight(kept[-2], kept[-1], kept[lo]):
                kept.pop()
            else:
                break
        return cls(tuple(kept[lo:]), closed)


class SpatialPolyline(_Polyline):
    """A broken line in space, which must not intersect itself;
    `SpatialPolyline.through(points[, closed=True])` builds one from raw points."""

    _straight = staticmethod(collinear3)

    def __init__(self, vertices, closed: bool = False):
        super().__init__(vertices, closed)
        if len(self.vertices) < 4:
            return  # each side meets its neighbours at corners, and has no other
        # a closed polygon's last side meets its first; of the other pairs, those
        # whose boxes meet are tested in order, so the least meeting pair raises
        at = [p.coords() for p in self.vertices]
        ends = at[1:] + at[:1] if closed else at[1:]
        m = len(ends)
        near = [(a, b) if a < b else (b, a) for a, bs in _box_pairs([_box(p, q) for p, q in zip(at, ends)]) for b in bs]
        for i, j in sorted(near):
            if 1 < j - i < (m - 1 if closed else m) and _meet3(at[i] + ends[i], at[j] + ends[j]):
                raise ValueError(f"self-intersection between sides {i} and {j}")


def polylines_disjoint(a: SpatialPolyline, b: SpatialPolyline) -> bool:
    """True when the two polylines share no point: `_meet3` tests the box-meeting side pairs across."""
    mine, theirs = ([p.coords() + q.coords() for p, q in poly.sides()] for poly in (a, b))
    sides, n = mine + theirs, len(mine)
    groups = _box_pairs([_box(s[:3], s[3:]) for s in sides])
    return not any((i < n) != (j < n) and _meet3(sides[i], sides[j]) for i, near in groups for j in near)


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


def _cone_passes(points, rel, u: int, v: int, sides) -> int:
    """The XOR of the bits of the sides that pass through the cone triangle
    (points[0], points[u], points[v]), by the five signs of the module
    docstring.  `rel` holds the coordinates of `points` relative to the
    apex points[0], and each side is (bit, p, q, p's and q's coordinates in
    `rel`, moment p x q); d.n is taken as n.q - n.p."""
    (ux, uy, uz), (vx, vy, vz) = rel[u], rel[v]
    nx, ny, nz = uy * vz - uz * vy, uz * vx - ux * vz, ux * vy - uy * vx
    wx, wy, wz = vx - ux, vy - uy, vz - uz
    row = 0
    for bit, p, q, px, py, pz, qx, qy, qz, mx, my, mz in sides:
        s, t = nx * px + ny * py + nz * pz, nx * qx + ny * qy + nz * qz
        if (s > 0 if s else _orient3_sos(points, 0, u, v, p) > 0) == (t > 0 if t else _orient3_sos(points, 0, u, v, q) > 0):
            continue
        a = mx * ux + my * uy + mz * uz
        first = a > 0 if a else _orient3_sos(points, p, q, 0, u) > 0
        b = t - s + mx * wx + my * wy + mz * wz
        if first != (b > 0 if b else _orient3_sos(points, p, q, u, v) > 0):
            continue
        c = mx * vx + my * vy + mz * vz
        if first == (c < 0 if c else _orient3_sos(points, p, q, v, 0) > 0):
            row ^= bit
    return row


# side-pair cone tests past which every cone count raises SearchExhausted before
# the first: 0.3 us each on 2 CPUs, Python 3.11 (0.6 near 2^60; a zigzag K6 of 100
# sides per route), so 10^6 take under 1 s
CONE_TEST_BUDGET = 10**6


def _cone_matrix(apex: tuple, chains, disjoint) -> list[int]:
    """The cone-crossing matrix of the broken lines `chains`, a row per
    chain: bit f of row e, for f in `disjoint[e]`, is the parity of the
    passes of chain f through the cone triangles (apex, side of chain e).
    The apex and the chains' points are integer coordinates; callers scale
    them at their boundary, which moves no sign.  The apex is point 0, then
    every distinct corner once.  Refused before any cone test past
    CONE_TEST_BUDGET side pairs: sides(e) * sides(f) over f in disjoint[e]."""
    tests = sum((len(chains[e]) - 1) * sum(len(chains[f]) - 1 for f in fs) for e, fs in enumerate(disjoint))
    if tests > CONE_TEST_BUDGET:
        raise SearchExhausted(f"{tests} side-pair cone tests exceed the budget of {CONE_TEST_BUDGET}")
    index: dict[tuple, int] = {}
    ids = [[index.setdefault(p, len(index) + 1) for p in chain] for chain in chains]
    points = [apex, *index]
    ax, ay, az = apex
    rel = [(x - ax, y - ay, z - az) for x, y, z in points]
    # the sides of chain f as `_cone_passes` reads them, with bit 1 << f
    lines = [[(1 << f, p, q, px, py, pz, qx, qy, qz, py * qz - pz * qy, pz * qx - px * qz, px * qy - py * qx)
              for p, q in zip(chain, chain[1:]) for (px, py, pz), (qx, qy, qz) in [(rel[p], rel[q])]]
             for f, chain in enumerate(ids)]
    rows = []
    for chain, fs in zip(ids, disjoint):
        sides = [side for f in fs for side in lines[f]]
        rows.append(reduce(xor, [_cone_passes(points, rel, u, v, sides) for u, v in zip(chain, chain[1:])], 0))
    return rows


def linking_mod2_cone(a: SpatialPolyline, b: SpatialPolyline, apex: Point3) -> int:
    """Mod-2 linking number of disjoint closed polygons: the parity of the
    passes of `b` through the cone triangles from the apex over the sides
    of `a`, for any apex (see the module docstring): bit 1 of row 0 of the
    cone-crossing matrix of the two rings."""
    if not a.closed or not b.closed:
        raise ValueError("linking is defined for closed polygons")
    if not polylines_disjoint(a, b):
        raise PolylinesNotDisjoint("the two polygons share a point")
    o, *points = _integer_scaled([p.coords() for p in (apex, *a.vertices, *b.vertices)])
    ring_a, ring_b = points[: len(a.vertices)], points[len(a.vertices) :]
    return _cone_matrix(o, [[*ring_a, ring_a[0]], [*ring_b, ring_b[0]]], [[1], []])[0] >> 1


def linking_mod2_sampled(a: SpatialPolyline, b: SpatialPolyline, rng: SplitMix64) -> int:
    """Mod-2 linking number by cone counting from an apex drawn from `rng`
    (`_draw_apex`).  The answer does not depend on the draw; the draw only
    picks which count shows it."""
    return linking_mod2_cone(a, b, Point3(*_draw_apex(rng)))


def _draw_apex(rng: SplitMix64) -> tuple[int, int, int]:
    """The coordinates of an apex: three draws in [-8, 8], one per coordinate."""
    return (rng.randint(-8, 8), rng.randint(-8, 8), rng.randint(-8, 8))
