"""Mod-2 linking of closed spatial polygons, decided exactly.

Two disjoint closed polygons are linked (mod 2) exactly when the cone from
a general-position apex over one of them crosses the other an odd number of
times.  The apex condition makes that count finite and multiplicity-free:
every crossing is then a transversal pass of a side of `b` through the
interior of a single cone triangle.  A violated condition is reported, never
silently absorbed, because the caller can always resample the apex.

An apex is certified exactly once, by `apex_general_position`: inside
`sample_general_apex` for a drawn apex (`linking_mod2_sampled` counts on
that certificate), or inside `linking_mod2_cone` for an apex the caller
supplies.

The module also provides the one-viewpoint comparison `higher_central`:
seen from a point `o`, segment `a` passes in front of segment `b` when some
ray from `o` meets `a` strictly before `b`.  Equivalently, `a` crosses the
interior of the sighting triangle spanned by `o` and `b`, which is how it
is decided here.  Note the geometric reading: "in front of" means nearer
to the viewpoint.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    ApexNotGeneral,
    ApexSearchExhausted,
    GeneralPositionViolation,
    NonGenericViewpoint,
    PolylinesNotDisjoint,
)
from .geometry import (
    NON_GENERIC,
    Point3,
    Segment3,
    Triangle3,
    collinear3,
    cross3,
    dot3,
    gp_points3,
    is_zero3,
    meet_segments3,
    point_in_triangle3,
    point_on_segment3,
    seg_hits_solid_triangle,
)
from .rng import SplitMix64


@dataclass(frozen=True)
class SpatialPolyline:
    """A broken line in space: open arc or closed polygon.

    Invariants enforced at construction: consecutive vertices are distinct,
    every vertex is a genuine corner (no three consecutive vertices are
    collinear; for closed polylines this wraps around), and the polyline
    does not intersect itself.  Use `open_polyline` / `closed_polygon` to
    build one from raw points with straight-through corners dropped.
    """

    vertices: tuple[Point3, ...]
    closed: bool = False

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(self.vertices))
        _check_corners(self.vertices, self.closed, collinear3)
        sides = _polyline_sides(self.vertices, self.closed, Segment3)
        object.__setattr__(self, "_sides", sides)
        m = len(sides)
        for i in range(m):
            for j in range(i + 1, m):
                if self._adjacent(i, j, m):
                    continue
                if meet_segments3(sides[i], sides[j]) is not None:
                    raise ValueError(f"self-intersection between sides {i} and {j}")

    def _adjacent(self, i: int, j: int, m: int) -> bool:
        if j == i + 1:
            return True
        return self.closed and i == 0 and j == m - 1

    def sides(self) -> tuple[Segment3, ...]:
        return self._sides


def _polyline_sides(vertices: tuple, closed: bool, segment) -> tuple:
    """The sides of a polyline, built once at construction; `segment` is
    `Segment2` or `Segment3`.  Shared by spatial and planar polylines."""
    out = [segment(vertices[i], vertices[i + 1]) for i in range(len(vertices) - 1)]
    if closed:
        out.append(segment(vertices[-1], vertices[0]))
    return tuple(out)


def _check_corners(vertices: tuple, closed: bool, straight) -> None:
    """Raise ValueError unless the polyline has enough vertices, no two
    equal consecutive ones and only genuine corners; `straight(u, v, w)`
    says whether v lies on a straight run from u to w.  Shared by spatial
    and planar polylines."""
    n = len(vertices)
    if n < 2 or (closed and n < 3):
        raise ValueError("polyline needs at least 2 vertices, closed needs 3")
    for i in range(n - 1):
        if vertices[i] == vertices[i + 1]:
            raise ValueError("consecutive vertices coincide")
    if closed and vertices[0] == vertices[-1]:
        raise ValueError("closed polyline must not repeat its first vertex")
    for i in range(n) if closed else range(1, n - 1):
        if straight(vertices[(i - 1) % n], vertices[i], vertices[(i + 1) % n]):
            raise ValueError(f"straight-through vertex at index {i}")


def _drop_straight_corners(points, closed: bool, straight) -> list:
    """The points with repeats collapsed and every straight-through corner
    removed, `straight` as in `_check_corners`."""
    # collapse exact duplicates first
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
        rng = range(n) if closed else range(1, n - 1)
        for i in rng:
            if straight(out[(i - 1) % n], out[i], out[(i + 1) % n]):
                del out[i]
                changed = True
                break
    return out


def open_polyline(points) -> SpatialPolyline:
    """Build an open polyline, dropping repeated and straight-through points."""
    return SpatialPolyline(tuple(_drop_straight_corners(points, False, collinear3)), closed=False)


def closed_polygon(points) -> SpatialPolyline:
    """Build a closed polygon, dropping repeated and straight-through points."""
    return SpatialPolyline(tuple(_drop_straight_corners(points, True, collinear3)), closed=True)


def triangle_polygon(t: Triangle3) -> SpatialPolyline:
    return SpatialPolyline((t.a, t.b, t.c), closed=True)


def polylines_disjoint(a: SpatialPolyline, b: SpatialPolyline) -> bool:
    """True when the two polylines share no point at all."""
    for s in a.sides():
        for t in b.sides():
            if meet_segments3(s, t) is not None:
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
    total = 0
    for side in t2.sides():
        r = seg_hits_solid_triangle(side, t1)
        if r is NON_GENERIC:  # unreachable under general position; belt and braces
            raise GeneralPositionViolation("degenerate side-triangle contact")
        total += r
    return total == 1


def higher_central(o: Point3, a: Segment3, b: Segment3) -> bool:
    """Does segment `a` pass in front of segment `b` as seen from `o`?

    True when some ray from `o` meets `a` at a point strictly between `o`
    and its meeting point with `b`.  Decided as: `a` crosses the interior
    of the solid triangle spanned by `o` and `b`.  The five points must be
    in general position, otherwise the sighting is ambiguous.
    """
    pts = [o, a.p, a.q, b.p, b.q]
    if not gp_points3(pts):
        raise NonGenericViewpoint("viewpoint and segment endpoints are not in general position")
    sighting = Triangle3(o, b.p, b.q)
    r = seg_hits_solid_triangle(a, sighting)
    if r is NON_GENERIC:  # unreachable under the check above
        raise NonGenericViewpoint("degenerate sighting of the two segments")
    return r == 1


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
    count = sum(1 for side in other.sides() if higher_central(apex, side, e))
    return count == 1


def _line_hit_segment_in_plane(apex: Point3, d: Point3, seg: Segment3, normal: Point3):
    """Hit of the line {apex + t d} with `seg`, all inside the plane through
    apex with the given normal.  Returns (t, u) parameters or None."""
    e = seg.q - seg.p
    den = dot3(cross3(d, e), normal)
    if den == 0:
        return None  # line parallel to the segment's line
    r = seg.p - apex
    t = Fraction(dot3(cross3(r, e), normal), den)
    u = Fraction(dot3(cross3(r, d), normal), den)
    if 0 <= u <= 1:
        return (t, u)
    return None


def apex_general_position(apex: Point3, a: SpatialPolyline, b: SpatialPolyline) -> bool:
    """Is `apex` a valid cone apex for counting crossings of cone(apex, a)
    with `b`?

    The conditions checked, each decided exactly:
      - apex is off both polylines and off the line of every side of `a`
        (otherwise some cone triangle collapses);
      - the segment from apex to each vertex of `a` misses `b` (no crossing
        may sit over a cone-triangle boundary);
      - no vertex of `b` lies in any cone triangle;
      - for every pair of sides of `a` seen along a common ray from apex,
        the segment from apex to the farther hit misses `b` (no crossing may
        sit over a doubly covered ray);
      - every side-of-b versus cone-triangle predicate is decisive (no
        vertex of `b` even lies in a cone triangle's plane).
    This is marginally stricter than necessary (a coincidence far outside
    the cone also rejects), which only costs the caller a resample.
    """
    if not a.closed or not b.closed:
        raise ValueError("cone counting needs closed polygons")
    a_sides = a.sides()
    b_sides = b.sides()

    normals = []
    for s in a_sides:
        n = cross3(s.p - apex, s.q - apex)
        if is_zero3(n):
            return False
        normals.append(n)
    for t in b_sides:
        if point_on_segment3(apex, t):
            return False

    for v in a.vertices:
        spoke = Segment3(apex, v)
        for t in b_sides:
            if meet_segments3(spoke, t) is not None:
                return False

    for w in b.vertices:
        for s in a_sides:
            if point_in_triangle3(w, Triangle3(apex, s.p, s.q)):
                return False

    for s in a_sides:
        tri = Triangle3(apex, s.p, s.q)
        for t in b_sides:
            if seg_hits_solid_triangle(t, tri) is NON_GENERIC:
                return False

    m = len(a_sides)
    for i in range(m):
        for j in range(i + 1, m):
            d = cross3(normals[i], normals[j])
            if is_zero3(d):
                return False  # cone triangles coplanar: reject conservatively
            hit1 = _line_hit_segment_in_plane(apex, d, a_sides[i], normals[i])
            if hit1 is None:
                continue
            hit2 = _line_hit_segment_in_plane(apex, d, a_sides[j], normals[j])
            if hit2 is None:
                continue
            t1, t2 = hit1[0], hit2[0]
            if t1 == 0 or t2 == 0:
                return False  # apex on a side of a; cannot happen past the checks above
            if (t1 > 0) != (t2 > 0):
                continue  # hits on opposite rays, no common ray
            if t1 == t2:
                continue  # shared vertex of adjacent sides; spoke check covers it
            t_far = t1 if abs(t1) > abs(t2) else t2
            far_point = apex + d.scale(t_far)
            forbidden = Segment3(apex, far_point)
            for t_side in b_sides:
                if meet_segments3(forbidden, t_side) is not None:
                    return False
    return True


def _require_disjoint_closed(a: SpatialPolyline, b: SpatialPolyline):
    if not a.closed or not b.closed:
        raise ValueError("linking is defined for closed polygons")
    if not polylines_disjoint(a, b):
        raise PolylinesNotDisjoint("the two polygons share a point")


def _cone_parity(a: SpatialPolyline, b: SpatialPolyline, apex: Point3) -> int:
    total = 0
    for s in a.sides():
        tri = Triangle3(apex, s.p, s.q)
        for t in b.sides():
            r = seg_hits_solid_triangle(t, tri)
            if r is NON_GENERIC:  # unreachable for a certified apex
                raise ApexNotGeneral("degenerate cone-triangle contact")
            total += r
    return total & 1


def linking_mod2_cone(a: SpatialPolyline, b: SpatialPolyline, apex: Point3) -> int:
    """Mod-2 linking number of disjoint closed polygons via cone counting.

    Counts the crossings of `b` through the cone triangles spanned by the
    apex over the sides of `a`; under the apex condition every crossing of
    `b` with the cone is such a transversal pass through exactly one
    triangle, so the parity of the total is the linking number mod 2.
    The caller's apex is certified here with `apex_general_position`.
    """
    _require_disjoint_closed(a, b)
    if not apex_general_position(apex, a, b):
        raise ApexNotGeneral("apex fails the cone general-position condition")
    return _cone_parity(a, b, apex)


def linking_mod2_sampled(a: SpatialPolyline, b: SpatialPolyline, rng: SplitMix64) -> int:
    """Mod-2 linking number by cone counting from an apex drawn with
    `sample_general_apex`.

    The sampler certifies the apex, so it is not checked a second time.
    The draws from `rng` are those of `sample_general_apex`, so the answer
    equals `linking_mod2_cone(a, b, sample_general_apex(a, b, rng))`.
    """
    _require_disjoint_closed(a, b)
    return _cone_parity(a, b, sample_general_apex(a, b, rng))


def sample_general_apex(
    a: SpatialPolyline,
    b: SpatialPolyline,
    rng: SplitMix64,
    max_tries: int = 10000,
    start_bound: int = 8,
) -> Point3:
    """Draw integer points from an expanding cube until one passes
    `apex_general_position` for the pair.  Valid apexes fill a full-measure
    open set, so rejection terminates quickly in practice."""
    bound = start_bound
    for attempt in range(max_tries):
        apex = Point3(
            rng.randint(-bound, bound),
            rng.randint(-bound, bound),
            rng.randint(-bound, bound),
        )
        if apex_general_position(apex, a, b):
            return apex
        if attempt % 16 == 15:
            bound *= 2
    raise ApexSearchExhausted(f"no general apex found in {max_tries} tries")
