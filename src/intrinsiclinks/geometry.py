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

from fractions import Fraction
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

    def __eq__(self, other):  # written out: the sweeps compare points the most
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


def cross2(u: Point2, v: Point2) -> Fraction:
    return u.x * v.y - u.y * v.x


def dot2(u: Point2, v: Point2) -> Fraction:
    return u.x * v.x + u.y * v.y


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


class _Segment(_Record):
    """A segment between two distinct points; equal only to a segment of
    the same class."""

    def __init__(self, p: _Record, q: _Record):
        if p == q:
            raise ValueError("degenerate segment: endpoints coincide")
        _set(self, "p", p)
        _set(self, "q", q)


class Segment2(_Segment):
    """A segment in the plane, between two Point2."""


class Segment3(_Segment):
    """A segment in space, between two Point3."""


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

    def sides(self) -> tuple[Segment3, Segment3, Segment3]:
        return (
            Segment3(self.a, self.b),
            Segment3(self.b, self.c),
            Segment3(self.c, self.a),
        )


def _sign(value) -> int:
    return (value > 0) - (value < 0)


def orient2d(a: Point2, b: Point2, c: Point2) -> int:
    """Sign of the doubled signed area of triangle a, b, c."""
    return _sign((b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x))


def orient3d(a: Point3, b: Point3, c: Point3, d: Point3) -> int:
    """Sign of det[b-a; c-a; d-a], i.e. the side of plane abc that d is on."""
    b1, b2, b3 = b.x - a.x, b.y - a.y, b.z - a.z
    c1, c2, c3 = c.x - a.x, c.y - a.y, c.z - a.z
    d1, d2, d3 = d.x - a.x, d.y - a.y, d.z - a.z
    det = (
        b1 * (c2 * d3 - c3 * d2)
        - b2 * (c1 * d3 - c3 * d1)
        + b3 * (c1 * d2 - c2 * d1)
    )
    return _sign(det)


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


_SOS_TERMS = _sos_terms()


def _det(m: list) -> RationalLike:
    """Determinant of a small square matrix, by cofactors along the first row."""
    if len(m) == 1:
        return m[0][0]
    return sum(
        (-1) ** j * m[0][j] * _det([row[:j] + row[j + 1:] for row in m[1:]])
        for j in range(len(m))
    )


def orient3d_sos(points: Sequence[Point3], i: int, j: int, k: int, m: int) -> int:
    """`orient3d(points[i], points[j], points[k], points[m])` under Simulation
    of Simplicity (Edelsbrunner and Muecke, ACM TOG 1990); never 0.

    Point n of `points` is moved by eps^(2^(3n+c)) in coordinate c, for an
    infinitesimal eps > 0.  After the move no four points with distinct
    indices are coplanar, and every sign taken on one `points` sequence
    describes the same moved configuration.  A nonzero `orient3d` is
    returned as it is; a zero one is decided by the first nonzero term of
    `_SOS_TERMS`, so the result is exact and deterministic.
    """
    s = orient3d(points[i], points[j], points[k], points[m])
    if s:
        return s
    idx = (i, j, k, m)
    if len(set(idx)) < 4:
        raise ValueError("orient3d_sos needs four distinct indices")
    matrix = [(*points[n].coords(), 1) for n in sorted(idx)]
    for sign, rows, cols in _SOS_TERMS:
        minor = _det([[matrix[r][c] for c in cols] for r in rows])
        if minor:
            break
    # orient3d is minus the sign of det M with the rows in the given order,
    # and putting them in rank order multiplies det M by the sign of the sort
    swaps = sum(x > y for x, y in combinations(idx, 2))
    return -sign * _sign(minor) * (-1) ** swaps


def gp_points2(points: Sequence[Point2]) -> bool:
    """No three of the points are collinear (vacuously true below 3)."""
    return all(orient2d(a, b, c) != 0 for a, b, c in combinations(points, 3))


def gp_points3(points: Sequence[Point3]) -> bool:
    """No four of the points are coplanar (vacuously true below 4)."""
    return all(orient3d(a, b, c, d) != 0 for a, b, c, d in combinations(points, 4))


def point_on_segment2(p: Point2, s: Segment2) -> bool:
    """Closed membership: p lies on segment s, endpoints included."""
    if orient2d(s.p, s.q, p) != 0:
        return False
    return (
        min(s.p.x, s.q.x) <= p.x <= max(s.p.x, s.q.x)
        and min(s.p.y, s.q.y) <= p.y <= max(s.p.y, s.q.y)
    )


def point_on_segment3(p: Point3, s: Segment3) -> bool:
    """Closed membership: p lies on segment s, endpoints included.

    With d = s.q - s.p and e = p - s.p: cross3(d, e) is zero and
    0 <= dot3(e, d) <= dot3(d, d), written out on the coordinates so that
    no intermediate point is built."""
    a, b = s.p, s.q
    dx, dy, dz = b.x - a.x, b.y - a.y, b.z - a.z
    ex, ey, ez = p.x - a.x, p.y - a.y, p.z - a.z
    if dy * ez != dz * ey or dz * ex != dx * ez or dx * ey != dy * ex:
        return False
    return 0 <= ex * dx + ey * dy + ez * dz <= dx * dx + dy * dy + dz * dz


def seg_intersect2(s: Segment2, t: Segment2):
    """Intersect two closed planar segments.

    Returns the key (X, Y, D) of the crossing point (X/D, Y/D) when they
    cross transversally at a point interior to both, None when they are
    disjoint, and NON_GENERIC for every degenerate contact: a shared endpoint,
    an endpoint of one inside the other, or a collinear overlap.  Keys are
    `coprime3` with D > 0, so equal points have equal keys.
    """
    a, b = s.p, s.q
    c, d = t.p, t.q
    d1 = orient2d(a, b, c)
    d2 = orient2d(a, b, d)
    if d1 == d2 != 0:  # c-d strictly on one side of the line ab: no contact, at an end or not
        return None
    d3 = orient2d(c, d, a)
    d4 = orient2d(c, d, b)
    if d3 == d4 != 0:
        return None
    if d1 != 0 and d2 != 0 and d3 != 0 and d4 != 0:  # so d1 != d2 and d3 != d4
        e = d - c
        num = cross2(c - a, e)
        den = cross2(b - a, e)
        # den != 0 (the lines are not parallel); the point is (x/den, y/den)
        x = a.x * den + num * (b.x - a.x)
        y = a.y * den + num * (b.y - a.y)
        return coprime3(x, y, den, _sign(den))
    if d1 == 0 and point_on_segment2(c, s):
        return NON_GENERIC
    if d2 == 0 and point_on_segment2(d, s):
        return NON_GENERIC
    if d3 == 0 and point_on_segment2(a, t):
        return NON_GENERIC
    if d4 == 0 and point_on_segment2(b, t):
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


def seg_hits_solid_triangle(s: Segment3, t: Triangle3):
    """Count |s .. conv(t)| for a segment vs a solid (filled, flat) triangle.

    Returns 0 or 1 when the intersection is empty or a single transversal
    point interior to both the segment and the triangle.  Returns
    NON_GENERIC when s meets the triangle's plane non-transversally (an
    endpoint on the plane, or s inside the plane) or the piercing point
    falls on the triangle's boundary.  When the five points involved are in
    general position the result is always 0 or 1.
    """
    a, b, c = t.a, t.b, t.c
    sp = orient3d(a, b, c, s.p)
    sq = orient3d(a, b, c, s.q)
    if sp == 0 or sq == 0:
        return NON_GENERIC
    if sp == sq:
        return 0
    o1 = orient3d(s.p, s.q, a, b)
    o2 = orient3d(s.p, s.q, b, c)
    if o1 != 0 and o2 != 0 and o1 != o2:
        return 0
    o3 = orient3d(s.p, s.q, c, a)
    if 1 in (o1, o2, o3) and -1 in (o1, o2, o3):
        return 0  # beyond the line of a side, even if on the line of another
    if o1 == 0 or o2 == 0 or o3 == 0:
        return NON_GENERIC
    return 1


def meet_segments3(s: Segment3, t: Segment3):
    """Decide whether two closed segments in space meet.

    Returns False when disjoint, True when they meet in exactly one point
    (any kind of contact: crossing, endpoint touch, T shape), and OVERLAP
    when they are collinear with a common sub-segment.  Decided by integer
    or rational signs alone; the common point is never built.
    """
    p1, q1 = s.p, s.q
    p2, q2 = t.p, t.q
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


def collinear3(a: Point3, b: Point3, c: Point3) -> bool:
    """cross3(b - a, c - a) is zero, on the coordinates (no point is built)."""
    ux, uy, uz = b.x - a.x, b.y - a.y, b.z - a.z
    vx, vy, vz = c.x - a.x, c.y - a.y, c.z - a.z
    return uy * vz == uz * vy and uz * vx == ux * vz and ux * vy == uy * vx
