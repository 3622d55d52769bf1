"""Independent output checks in exact integer arithmetic.

Nothing here imports `intrinsiclinks.geometry`: every predicate is written
from scratch on plain integer tuples, so a fault in the package's own
predicates cannot hide a wrong answer.  Each check returns a list of error
strings; an empty list means the output passed.  The `negative_controls_*`
functions feed each check a deliberately wrong answer, which it must reject.
"""

from __future__ import annotations

import json
import xml.etree.ElementTree as ET
from itertools import combinations


class Degenerate(ValueError):
    """A predicate met a zero determinant where general position was promised."""


def ints(p) -> tuple[int, ...]:
    """Integer coordinates of a package point; refuses non-integers."""
    coords = (p.x, p.y) if not hasattr(p, "z") else (p.x, p.y, p.z)
    out = []
    for c in coords:
        if c != int(c):
            raise Degenerate(f"non-integer coordinate {c}")
        out.append(int(c))
    return tuple(out)


def _sign(v: int) -> int:
    return (v > 0) - (v < 0)


def orient3(a, b, c, d) -> int:
    b1, b2, b3 = b[0] - a[0], b[1] - a[1], b[2] - a[2]
    c1, c2, c3 = c[0] - a[0], c[1] - a[1], c[2] - a[2]
    d1, d2, d3 = d[0] - a[0], d[1] - a[1], d[2] - a[2]
    return _sign(b1 * (c2 * d3 - c3 * d2) - b2 * (c1 * d3 - c3 * d1) + b3 * (c1 * d2 - c2 * d1))


def orient2(a, b, c) -> int:
    return _sign((b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]))


def pierces(p, q, a, b, c) -> int:
    """1 when segment pq passes through the interior of solid triangle abc,
    0 when it misses; Degenerate on any contact that is not transversal."""
    s1, s2 = orient3(a, b, c, p), orient3(a, b, c, q)
    if s1 == 0 or s2 == 0:
        raise Degenerate("segment endpoint on the triangle's plane")
    if s1 == s2:
        return 0
    t1, t2, t3 = orient3(p, q, a, b), orient3(p, q, b, c), orient3(p, q, c, a)
    if 0 in (t1, t2, t3):
        raise Degenerate("segment meets a triangle side")
    return 1 if t1 == t2 == t3 else 0


def lk2(poly1, poly2) -> int:
    """Mod-2 linking number of two disjoint closed straight polygons: the
    parity of poly2's passes through a fan triangulation of poly1.  Exact
    whenever no four of the vertices involved are coplanar."""
    c0 = poly1[0]
    n = len(poly2)
    total = 0
    for i in range(1, len(poly1) - 1):
        a, b = poly1[i], poly1[i + 1]
        for j in range(n):
            total += pierces(poly2[j], poly2[(j + 1) % n], c0, a, b)
    return total & 1


def crosses2(p, q, r, s) -> int:
    """1 when planar segments pq and rs cross at a point interior to both."""
    d1, d2 = orient2(p, q, r), orient2(p, q, s)
    d3, d4 = orient2(r, s, p), orient2(r, s, q)
    if 0 in (d1, d2, d3, d4):
        raise Degenerate("planar segments touch")
    return 1 if d1 != d2 and d3 != d4 else 0


def _pair_key(c1, c2) -> frozenset:
    return frozenset((frozenset(c1), frozenset(c2)))


_K6_NAMES = tuple(f"v{i}" for i in range(1, 7))
# the 10 ways to split v1..v6 into two triangles, v1 always in the first
_K6_SPLITS = tuple(
    (("v1",) + t, tuple(n for n in _K6_NAMES[1:] if n not in t))
    for t in combinations(_K6_NAMES[1:], 2)
)


def linked_triangle_pairs(points) -> set:
    """Every linked pair among the 10 complementary triangle pairs of six
    points named v1..v6, as a set of frozensets of vertex-name frozensets."""
    pos = dict(zip(_K6_NAMES, (ints(p) for p in points)))
    return {
        _pair_key(first, second)
        for first, second in _K6_SPLITS
        if lk2([pos[n] for n in first], [pos[n] for n in second])
    }


def disjoint_crossings(drawing) -> int:
    """Crossings between routes of vertex-disjoint edges of a drawing."""
    routes = {e: [ints(p) for p in drawing.route[e].vertices] for e in drawing.graph.edges}
    total = 0
    for e, f in combinations(drawing.graph.edges, 2):
        if set(e) & set(f):
            continue
        r, s = routes[e], routes[f]
        for i in range(len(r) - 1):
            for j in range(len(s) - 1):
                total += crosses2(r[i], r[i + 1], s[j], s[j + 1])
    return total


def ledger_expectation(label: str) -> int:
    """The total a ledger's theorem forces: cancellations sum to 0, the main
    and flat sums to 1."""
    return 0 if "cancellation" in label else 1


def _ledgers_errors(name: str, totals: list[tuple[str, int]], count: int) -> list[str]:
    errors = []
    if len(totals) != count:
        errors.append(f"{name}: {len(totals)} ledgers, expected {count}")
    for label, total in totals:
        if total != ledger_expectation(label):
            errors.append(f"{name}: ledger '{label}' totals {total}")
    return errors


# ---------------------------------------------------------------------------
# per-workload checks; each takes plain data extracted from one op's outputs


def check_linear(points, finder_pair, ledger_total: int, oracle_pairs) -> list[str]:
    """finder_pair: two vertex-name sequences; oracle_pairs: the oracle's
    linked pairs in the same form."""
    errors = []
    try:
        ours = linked_triangle_pairs(points)
    except Degenerate as exc:
        return [f"linear-k6: points not in general position ({exc})"]
    theirs = {_pair_key(a, b) for a, b in oracle_pairs}
    if ours != theirs:
        errors.append(f"linear-k6: oracle reports {len(theirs)} linked pairs, piercing test finds {len(ours)}")
    if _pair_key(*finder_pair) not in ours:
        errors.append("linear-k6: finder's pair is not linked by the piercing test")
    if len(ours) % 2 != 1:
        errors.append(f"linear-k6: {len(ours)} linked pairs, Conway-Gordon-Sachs forces an odd number")
    if ledger_total != 1:
        errors.append(f"linear-k6: ledger total {ledger_total}, expected 1")
    return errors


def check_pl(k6: dict, k44: dict, k44_positions: dict) -> list[str]:
    """k6 / k44: {"pair", "confirmed", "ledgers": [(label, total)]};
    k44_positions: vertex name -> integer point of the straight K4,4."""
    errors = []
    for name, rep, count in (("k6", k6, 7), ("k44", k44, 5)):
        if rep["confirmed"] is not True:
            errors.append(f"pl-projection: {name} report not confirmed by the oracle")
        errors += _ledgers_errors(f"pl-projection {name}", rep["ledgers"], count)
    c1, c2 = k44["pair"]
    try:
        value = lk2([k44_positions[v] for v in c1], [k44_positions[v] for v in c2])
    except Degenerate as exc:
        return errors + [f"pl-projection: K4,4 points not in general position ({exc})"]
    if value != 1:
        errors.append("pl-projection: K4,4 finder's 4-cycles are unlinked by the fan test")
    return errors


def check_planar(crossings: int, vk: int, probe) -> list[str]:
    errors = []
    if crossings % 2 != 1:
        errors.append(f"planar-drawings: {crossings} disjoint-edge crossings, parity must be 1")
    if crossings % 2 != vk:
        errors.append(f"planar-drawings: van_kampen_drawing {vk} disagrees with counted parity")
    if probe is not True:
        errors.append("planar-drawings: invariance probe did not return True")
    return errors


def canonical_json_errors(blob: bytes, where: str) -> list[str]:
    try:
        doc = json.loads(blob)
    except ValueError as exc:
        return [f"{where}: stdout is not JSON ({exc})"]
    again = (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("utf-8")
    return [] if again == blob else [f"{where}: JSON output is not canonical"]


def svg_errors(blob: bytes, where: str) -> list[str]:
    try:
        root = ET.fromstring(blob)
    except ET.ParseError as exc:
        return [f"{where}: SVG does not parse as XML ({exc})"]
    return [] if root.tag.endswith("svg") else [f"{where}: root element is {root.tag}"]


# ---------------------------------------------------------------------------
# negative controls: each feeds a check a wrong answer built from real data

_HOPF = ([(0, 0, 0), (4, 0, 1), (0, 4, 2)], [(1, 1, -3), (1, 1, 3), (9, 9, 1)])
_APART = ([(0, 0, 0), (4, 0, 1), (0, 4, 2)], [(50, 50, 50), (57, 51, 50), (50, 58, 53)])


def negative_controls_geometry() -> list[tuple[str, bool]]:
    """The from-scratch linking test itself must tell a linked pair from an
    unlinked one."""
    return [
        ("linking test calls a far-apart pair linked", lk2(*_APART) == 0),
        ("linking test calls a threaded pair unlinked", lk2(*_HOPF) == 1),
    ]


def negative_controls_linear(points, finder_pair, oracle_pairs) -> list[tuple[str, bool]]:
    ours = linked_triangle_pairs(points)
    # linear K6 has 1 or 3 linked pairs of 10, so an unlinked one exists
    unlinked = next(split for split in _K6_SPLITS if _pair_key(*split) not in ours)
    return [
        ("unlinked pair reported as the finder's", bool(check_linear(points, unlinked, 1, oracle_pairs))),
        ("oracle set with an unlinked pair added",
         bool(check_linear(points, finder_pair, 1, list(oracle_pairs) + [unlinked]))),
        ("ledger total flipped to 0", bool(check_linear(points, finder_pair, 0, oracle_pairs))),
    ]


def negative_controls_pl(k6: dict, k44: dict, k44_positions: dict) -> list[tuple[str, bool]]:
    # an unlinked 4-cycle pair, found by the fan test itself
    names = sorted(k44_positions)
    side_a = [v for v in names if v.startswith("a")]
    side_b = [v for v in names if v.startswith("b")]
    unlinked = None
    for pa in combinations(side_a, 2):
        for pb in combinations(side_b, 2):
            c1 = (pa[0], pb[0], pa[1], pb[1])
            qa = [v for v in side_a if v not in pa]
            qb = [v for v in side_b if v not in pb]
            c2 = (qa[0], qb[0], qa[1], qb[1])
            if lk2([k44_positions[v] for v in c1], [k44_positions[v] for v in c2]) == 0:
                unlinked = (c1, c2)
                break
        if unlinked:
            break
    flipped = dict(k6, ledgers=[(label, 1 - t) for label, t in k6["ledgers"]])
    controls = [
        ("K6 report marked unconfirmed", bool(check_pl(dict(k6, confirmed=False), k44, k44_positions))),
        ("K6 ledger totals flipped", bool(check_pl(flipped, k44, k44_positions))),
    ]
    if unlinked is not None:
        controls.append(
            ("unlinked 4-cycle pair reported for K4,4",
             bool(check_pl(k6, dict(k44, pair=unlinked), k44_positions)))
        )
    return controls


def negative_controls_planar(crossings: int, vk: int) -> list[tuple[str, bool]]:
    return [
        ("drawing with one crossing removed", bool(check_planar(crossings - 1, vk, True))),
        ("invariance probe returning False", bool(check_planar(crossings, vk, False))),
    ]
