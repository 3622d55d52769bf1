"""Exact geometric primitives over the rationals.

Every predicate in this module is decided by the sign of an integer or
rational determinant; nothing is ever rounded.  A single misclassified sign
would silently flip a crossing parity downstream, so there is no floating
point anywhere on these paths.

Rational values are `fractions.Fraction`, exact under +-*/, and whole values
are ints, so no predicate builds a `Fraction` on integer input.  Degenerate
predicate outcomes (tangency, shared endpoints, collinear overlap) are
returned as the first-class sentinel NON_GENERIC rather than raised, because
for samplers a degenerate outcome is an ordinary value meaning "resample".

Each predicate the sweeps, projections and cone counts run has one kernel on
coordinate tuples (`_meet2`, `_collinear2`, `_orient3`, `_orient3_sos`,
`_collinear3`, `_on_side3`, `_meet3`), a side read as p's coordinates then
q's; `orient3d`, `orient3d_sos` and `collinear3` adapt them to `Point3`s.

Orientation conventions:
  orient2d(a, b, c)    > 0 iff c lies to the left of the directed line a->b.
  orient3d(a, b, c, d) > 0 iff d lies on the positive side of the plane
                       through a, b, c oriented by the right-hand rule; the
                       standard basis ((0,0,0),(1,0,0),(0,1,0),(0,0,1))
                       gives +1.
  orient3d_sos(points, i, j, k, m) is orient3d of four indexed points with
                       every tie broken by Simulation of Simplicity; never 0.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from functools import cache
from itertools import combinations, permutations
from math import gcd, lcm
from operator import attrgetter
from typing import Sequence, Union

from .errors import ParseError

RationalLike = Union[int, Fraction]


def parse_rational(value) -> Fraction:
    """Parse an exact rational from an int or a 'p/q' / 'p' string.

    The denominator must be positive; 'p/0' and 'p/-q' are rejected.
    """
    if isinstance(value, bool):
        raise ParseError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        text = value.strip()
        if "/" in text:
            num_s, _, den_s = text.partition("/")
            try:
                num, den = int(num_s), int(den_s)
            except ValueError as exc:
                raise ParseError(f"malformed rational {value!r}") from exc
            if den <= 0:
                raise ParseError(f"denominator must be positive in {value!r}")
            return Fraction(num, den)
        try:
            return Fraction(int(text))
        except ValueError as exc:
            raise ParseError(f"malformed rational {value!r}") from exc
    raise ParseError(f"not a rational: {value!r}")


def rational_str(value: Fraction) -> str:
    """Canonical serialization: 'p' for integers, 'p/q' otherwise."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


class _Sentinel:
    """A named one-off value, compared by identity."""

    __slots__ = ("_name",)

    def __init__(self, name: str):
        self._name = name

    def __repr__(self) -> str:
        return self._name


# a predicate outcome that is not stable under perturbation
NON_GENERIC = _Sentinel("NON_GENERIC")
# two collinear segments sharing more than one point
OVERLAP = _Sentinel("OVERLAP")


def _coerce(value: RationalLike) -> RationalLike:
    """Normal form for exact coordinates: whole values as int, rest as Fraction.

    Keeping whole values as machine ints makes the bulk arithmetic fast;
    mixed int/Fraction expressions stay exact because Fraction coerces ints.
    Equal values in either representation compare and hash identically.
    """
    if isinstance(value, int):
        return int(value)
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else value
    raise TypeError(f"coordinate must be an int or Fraction, got {type(value).__name__}")


_set = object.__setattr__


class _Record:
    """An immutable record.  Its fields are the parameters of its class's
    `__init__`, which sets each one once; after that no attribute can be
    set or deleted.  Equal only to a record of the same class with equal
    fields, hashed as the tuple of its fields, and shown as
    `Name(field=value, ...)`, as a frozen dataclass would be.

    The fields are plain instance attributes, set through
    `object.__setattr__` rather than by writing `self.__dict__`: touching
    `__dict__` makes CPython give the instance a separate dict, after which
    every field read is about twice as slow.
    """

    def __init_subclass__(cls):
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1 : code.co_argcount]
        # the fields behind == and hash (one comes bare, so hash wraps it)
        cls._values = attrgetter(*cls._fields)
        if len(cls._fields) == 1 and "__hash__" not in vars(cls):
            cls.__hash__ = lambda self: hash((self._values(self),))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}: {type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}: {type(self).__name__} is immutable")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def replace(self, **changes):
        """A copy with the named fields changed, built by the constructor,
        so its checks run again."""
        values = {f: changes.pop(f, getattr(self, f)) for f in self._fields}
        if changes:
            raise TypeError(f"{type(self).__name__} has no field {min(changes)!r}")
        return type(self)(**values)


class Point2(_Record):
    def __init__(self, x: RationalLike, y: RationalLike):
        _set(self, "x", x if type(x) is int else _coerce(x))
        _set(self, "y", y if type(y) is int else _coerce(y))

    def __sub__(self, other: "Point2") -> "Point2":
        return Point2(self.x - other.x, self.y - other.y)

    def __add__(self, other: "Point2") -> "Point2":
        return Point2(self.x + other.x, self.y + other.y)

    def scale(self, k: RationalLike) -> "Point2":
        k = _coerce(k)
        return Point2(self.x * k, self.y * k)

    def coords(self) -> tuple[Fraction, Fraction]:
        return (self.x, self.y)

    def __eq__(self, other):  # written out: faster than the record comparison
        if other.__class__ is Point2:
            return self.x == other.x and self.y == other.y
        return NotImplemented

    __hash__ = _Record.__hash__


class Point3(_Record):
    def __init__(self, x: RationalLike, y: RationalLike, z: RationalLike):
        _set(self, "x", x if type(x) is int else _coerce(x))
        _set(self, "y", y if type(y) is int else _coerce(y))
        _set(self, "z", z if type(z) is int else _coerce(z))

    def __sub__(self, other: "Point3") -> "Point3":
        return Point3(self.x - other.x, self.y - other.y, self.z - other.z)

    def __add__(self, other: "Point3") -> "Point3":
        return Point3(self.x + other.x, self.y + other.y, self.z + other.z)

    def scale(self, k: RationalLike) -> "Point3":
        k = _coerce(k)
        return Point3(self.x * k, self.y * k, self.z * k)

    def coords(self) -> tuple[Fraction, Fraction, Fraction]:
        return (self.x, self.y, self.z)

    def __eq__(self, other):
        if other.__class__ is Point3:
            return self.x == other.x and self.y == other.y and self.z == other.z
        return NotImplemented

    __hash__ = _Record.__hash__


class Triangle3(_Record):
    def __init__(self, a: Point3, b: Point3, c: Point3):
        if a == b or b == c or a == c:
            raise ValueError("degenerate triangle: repeated vertex")
        if collinear3(a, b, c):
            raise ValueError("degenerate triangle: collinear vertices")
        _set(self, "a", a)
        _set(self, "b", b)
        _set(self, "c", c)

    def vertices(self) -> tuple[Point3, Point3, Point3]:
        return (self.a, self.b, self.c)

    def sides(self) -> tuple[tuple[Point3, Point3], ...]:
        """The three sides as point pairs (a, b), (b, c), (c, a)."""
        return ((self.a, self.b), (self.b, self.c), (self.c, self.a))


def _sign(value) -> int:
    return (value > 0) - (value < 0)


def orient2d(a: Point2, b: Point2, c: Point2) -> int:
    """Sign of the doubled signed area of triangle a, b, c."""
    return _sign((b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x))


def _collinear2(a: tuple, b: tuple, c: tuple) -> bool:
    """orient2d(a, b, c) is 0, for points given by their coordinates."""
    (ax, ay), (bx, by), (cx, cy) = a, b, c
    return (bx - ax) * (cy - ay) == (by - ay) * (cx - ax)


def _orient3(a: tuple, b: tuple, c: tuple, d: tuple) -> int:
    """orient3d(a, b, c, d), for points given by their coordinates."""
    (ax, ay, az), (bx, by, bz), (cx, cy, cz), (dx, dy, dz) = a, b, c, d
    b1, b2, b3 = bx - ax, by - ay, bz - az
    c1, c2, c3 = cx - ax, cy - ay, cz - az
    d1, d2, d3 = dx - ax, dy - ay, dz - az
    return _sign(b1 * (c2 * d3 - c3 * d2) - b2 * (c1 * d3 - c3 * d1) + b3 * (c1 * d2 - c2 * d1))


def orient3d(a: Point3, b: Point3, c: Point3, d: Point3) -> int:
    """Sign of det[b-a; c-a; d-a], i.e. the side of plane abc that d is on."""
    return _orient3(a.coords(), b.coords(), c.coords(), d.coords())


@cache  # built on the first tie: most processes never read them
def _sos_terms() -> tuple:
    """The tie-breaking terms of `orient3d_sos`, most significant first.

    Rank the four points 0..3 by index and write them as the rows (x, y, z, 1)
    of a 4x4 matrix M.  Moving the point of rank r by eps^(2^(3r+c)) in
    coordinate c turns det M into a polynomial in eps whose monomials have
    distinct exponents: a set S of moved entries, at most one per row and per
    coordinate column, gives eps^(sum of 2^(3r+c) over S).  Its coefficient
    is det M with each row of S replaced by the unit row of its column, that
    is `sign` times the minor of M on the `rows` and `cols` that S leaves.
    The term with S empty is det M itself; the other 72 are listed here by
    increasing exponent.  With three moved entries the minor left is the
    1x1 minor 1, so some term always decides.
    """
    terms = []
    for k in range(1, 4):
        for moved_rows in combinations(range(4), k):
            for moved_cols in permutations(range(3), k):
                rows = tuple(r for r in range(4) if r not in moved_rows)
                cols = tuple(c for c in range(4) if c not in moved_cols)
                column_of = dict(zip(moved_rows + rows, moved_cols + cols))
                order = [column_of[r] for r in range(4)]
                inversions = sum(x > y for x, y in combinations(order, 2))
                exponent = sum(1 << (3 * r + c) for r, c in zip(moved_rows, moved_cols))
                terms.append((exponent, (-1) ** inversions, rows, cols))
    terms.sort()
    return tuple(term[1:] for term in terms)


def _det(m: list) -> RationalLike:
    """Determinant of a small square matrix, by cofactors along the first row."""
    if len(m) == 1:
        return m[0][0]
    return sum(
        (-1) ** j * m[0][j] * _det([row[:j] + row[j + 1:] for row in m[1:]])
        for j in range(len(m))
    )


def _orient3_sos(points: Sequence[tuple], i: int, j: int, k: int, m: int) -> int:
    """`orient3d_sos` on coordinate tuples; reads only the four indexed points."""
    s = _orient3(points[i], points[j], points[k], points[m])
    if s:
        return s
    idx = (i, j, k, m)
    if len(set(idx)) < 4:
        raise ValueError("orient3d_sos needs four distinct indices")
    matrix = [(*points[n], 1) for n in sorted(idx)]
    for sign, rows, cols in _sos_terms():
        minor = _det([[matrix[r][c] for c in cols] for r in rows])
        if minor:
            break
    # orient3d is minus the sign of det M with the rows in the given order,
    # and putting them in rank order multiplies det M by the sign of the sort
    swaps = sum(x > y for x, y in combinations(idx, 2))
    return -sign * _sign(minor) * (-1) ** swaps


def orient3d_sos(points: Sequence[Point3], i: int, j: int, k: int, m: int) -> int:
    """`orient3d(points[i], points[j], points[k], points[m])` under Simulation
    of Simplicity (Edelsbrunner and Muecke, ACM TOG 1990); never 0.

    Point n of `points` is moved by eps^(2^(3n+c)) in coordinate c, for an
    infinitesimal eps > 0.  After the move no four points with distinct
    indices are coplanar, and every sign taken on one `points` sequence
    describes the same moved configuration.  A nonzero `orient3d` is
    returned as it is; a zero one is decided by the first nonzero term of
    `_sos_terms()`, so the result is exact and deterministic.
    """
    return _orient3_sos({n: points[n].coords() for n in (i, j, k, m)}, i, j, k, m)


def gp_points2(points: Sequence[Point2]) -> bool:
    """No three of the points are collinear (vacuously true below 3)."""
    return all(orient2d(a, b, c) != 0 for a, b, c in combinations(points, 3))


def gp_points3(points: Sequence[Point3]) -> bool:
    """No four of the points are coplanar (vacuously true below 4)."""
    return all(_orient3(a, b, c, d) != 0 for a, b, c, d in combinations([p.coords() for p in points], 4))


def _on_side3(p: tuple, side: tuple) -> bool:
    """The point p lies on the closed side ab: with d = b - a and e = p - a,
    cross3(d, e) is zero and 0 <= dot3(e, d) <= dot3(d, d)."""
    (x, y, z), (ax, ay, az, bx, by, bz) = p, side
    dx, dy, dz = bx - ax, by - ay, bz - az
    ex, ey, ez = x - ax, y - ay, z - az
    return (dy * ez == dz * ey and dz * ex == dx * ez and dx * ey == dy * ex
            and 0 <= ex * dx + ey * dy + ez * dz <= dx * dx + dy * dy + dz * dz)


def _within(lo, hi, v) -> bool:
    """v lies in the closed range between lo and hi, in either order."""
    return lo <= v <= hi or hi <= v <= lo


def _meet2(ax, ay, bx, by, cx, cy, dx, dy):
    """Intersect the closed planar segments ab and cd, given by their
    coordinates.

    Returns the key (X, Y, D) of the crossing point (X/D, Y/D) when they
    cross transversally at a point interior to both, None when they are
    disjoint, and NON_GENERIC for every degenerate contact: a shared endpoint,
    an endpoint of one inside the other, or a collinear overlap.  Keys are
    `coprime3` with D > 0, so equal points have equal keys.  d1..d4 are
    orient2d(a, b, c), orient2d(a, b, d), orient2d(c, d, a) and
    orient2d(c, d, b) before their signs are taken.
    """
    ux, uy, vx, vy = bx - ax, by - ay, dx - cx, dy - cy
    d1 = ux * (cy - ay) - uy * (cx - ax)
    d2 = ux * (dy - ay) - uy * (dx - ax)
    if d1 * d2 > 0:  # c-d strictly on one side of the line ab: no contact, at an end or not
        return None
    d3 = vx * (ay - cy) - vy * (ax - cx)
    d4 = vx * (by - cy) - vy * (bx - cx)
    if d3 * d4 > 0:
        return None
    if d1 and d2 and d3 and d4:  # so each pair has opposite signs
        den = ux * vy - uy * vx  # nonzero: the lines are not parallel
        num = (cx - ax) * vy - (cy - ay) * vx
        # the point is (x/den, y/den)
        return coprime3(ax * den + num * ux, ay * den + num * uy, den, _sign(den))
    # an end on the other's line touches that segment exactly when it is in its box
    if (
        d1 == 0 and _within(ax, bx, cx) and _within(ay, by, cy)
        or d2 == 0 and _within(ax, bx, dx) and _within(ay, by, dy)
        or d3 == 0 and _within(cx, dx, ax) and _within(cy, dy, ay)
        or d4 == 0 and _within(cx, dx, bx) and _within(cy, dy, by)
    ):
        return NON_GENERIC
    return None


def coprime3(x: RationalLike, y: RationalLike, z: RationalLike, sign: int) -> tuple[int, int, int]:
    """The coprime integers k(x, y, z) for rationals x, y, z, not all zero, and
    k of sign `sign`: one name for a line through the origin or a point (x/z, y/z)."""
    m = lcm(x.denominator, y.denominator, z.denominator)  # 1 on ints
    x, y, z = (x * m).numerator, (y * m).numerator, (z * m).numerator
    g = gcd(x, y, z) * sign
    return (x // g, y // g, z // g)


def key_point(key: tuple[int, int, int]) -> Point2:
    """The point (X/D, Y/D) of a crossing key (X, Y, D)."""
    x, y, d = key
    return Point2(Fraction(x, d), Fraction(y, d))


def seg_hits_solid_triangle(s: tuple[Point3, Point3], t: Triangle3):
    """Count |s .. conv(t)| for a segment s = (p, q) vs a solid (filled, flat) triangle.

    Returns 0 or 1 when the intersection is empty or a single transversal
    point interior to both the segment and the triangle.  Returns
    NON_GENERIC when s meets the triangle's plane non-transversally (an
    endpoint on the plane, or s inside the plane) or the piercing point
    falls on the triangle's boundary.  When the five points involved are in
    general position the result is always 0 or 1.
    """
    p, q, a, b, c = (x.coords() for x in (*s, *t.vertices()))
    sp = _orient3(a, b, c, p)
    sq = _orient3(a, b, c, q)
    if sp == 0 or sq == 0:
        return NON_GENERIC
    if sp == sq:
        return 0
    o1 = _orient3(p, q, a, b)
    o2 = _orient3(p, q, b, c)
    if o1 != 0 and o2 != 0 and o1 != o2:
        return 0
    o3 = _orient3(p, q, c, a)
    if 1 in (o1, o2, o3) and -1 in (o1, o2, o3):
        return 0  # beyond the line of a side, even if on the line of another
    if o1 == 0 or o2 == 0 or o3 == 0:
        return NON_GENERIC
    return 1


def _meet3(s: tuple, t: tuple):
    """Whether the closed sides s = p1q1 and t = p2q2 in space meet: False when
    disjoint, True in exactly one point (a crossing, an end touching, a T),
    OVERLAP when collinear with a common sub-segment.  Decided by signs alone,
    building no point.  With d1 = q1 - p1, d2 = q2 - p2, r = p2 - p1 and
    w = cross3(d1, d2), orient3d(p1, q1, p2, q2) is the sign of -dot3(r, w)."""
    ax, ay, az, bx, by, bz = s
    cx, cy, cz, dx, dy, dz = t
    ux, uy, uz = bx - ax, by - ay, bz - az
    vx, vy, vz = dx - cx, dy - cy, dz - cz
    rx, ry, rz = cx - ax, cy - ay, cz - az
    wx, wy, wz = uy * vz - uz * vy, uz * vx - ux * vz, ux * vy - uy * vx
    if rx * wx + ry * wy + rz * wz:
        return False  # skew lines share no point
    if wx or wy or wz:
        # the lines meet at p1 + (u/ww) d1 = p2 + (v/ww) d2, with u and v
        # the dot products of cross3(r, d2) and cross3(r, d1) with w
        ww = wx * wx + wy * wy + wz * wz
        u = (ry * vz - rz * vy) * wx + (rz * vx - rx * vz) * wy + (rx * vy - ry * vx) * wz
        v = (ry * uz - rz * uy) * wx + (rz * ux - rx * uz) * wy + (rx * uy - ry * ux) * wz
        return 0 <= u <= ww and 0 <= v <= ww
    # parallel lines
    if ry * uz != rz * uy or rz * ux != rx * uz or rx * uy != ry * ux:
        return False
    # collinear: compare parameter intervals along d1
    length = ux * ux + uy * uy + uz * uz
    b0 = rx * ux + ry * uy + rz * uz
    b1 = b0 + vx * ux + vy * uy + vz * uz
    lo = max(0, min(b0, b1))
    hi = min(length, max(b0, b1))
    if lo > hi:
        return False
    return True if lo == hi else OVERLAP


def _collinear3(a: tuple, b: tuple, c: tuple) -> bool:
    """cross3(b - a, c - a) is zero, for points given by their coordinates."""
    (ax, ay, az), (bx, by, bz), (cx, cy, cz) = a, b, c
    ux, uy, uz = bx - ax, by - ay, bz - az
    vx, vy, vz = cx - ax, cy - ay, cz - az
    return uy * vz == uz * vy and uz * vx == ux * vz and ux * vy == uy * vx


def collinear3(a: Point3, b: Point3, c: Point3) -> bool:
    """The three points lie on one line (no point is built)."""
    return _collinear3(a.coords(), b.coords(), c.coords())


def _integer_scaled(points: list[tuple]) -> list[tuple]:
    """The coordinate tuples `points` scaled to integers by the lcm of their
    denominators, which moves no sign; integer input itself, after one pass."""
    m = lcm(*(c.denominator for p in points for c in p))
    return points if m == 1 else [tuple(c.numerator * (m // c.denominator) for c in p) for p in points]


def _box(p: tuple, q: tuple) -> tuple:
    """The closed box (x0, x1, y0, y1, z0, z1) of two points given by their
    coordinates; a planar box has the z-range [0, 0]."""
    if len(p) == 2:
        (px, py), (qx, qy) = p, q
        pz = qz = 0
    else:
        (px, py, pz), (qx, qy, qz) = p, q
    return (px if px <= qx else qx, qx if px <= qx else px, py if py <= qy else qy,
            qy if py <= qy else py, pz if pz <= qz else qz, qz if pz <= qz else pz)


def _box_pairs(boxes: Sequence[tuple]) -> list[tuple[int, list[int]]]:
    """The closed axis-aligned boxes (x0, x1, y0, y1, z0, z1) that meet, as
    (a, near) for each box a in sorted order, equal boxes by index, with `near`
    the later boxes in that order that meet a, so each pair comes once,
    unsorted.  Sort and prune (Bentley and Ottmann, IEEE TC 1979): each box
    scans only those that start before it ends, found by bisection, for y- and z-ranges that meet."""
    order = sorted(range(len(boxes)), key=boxes.__getitem__)
    starts = [boxes[a][0] for a in order]
    groups = []
    for k, a in enumerate(order):
        _, x1, y0, y1, z0, z1 = boxes[a]
        near = []
        for b in order[k + 1 : bisect_right(starts, x1, k + 1)]:
            _, _, y0b, y1b, z0b, z1b = boxes[b]
            if y0b <= y1 and y0 <= y1b and z0b <= z1 and z0 <= z1b:
                near.append(b)
        groups.append((a, near))
    return groups
