"""Crossing-parity invariants, linked-cycle finders, and the brute oracle.

Every finder follows the same constructive script: project the spatial
input to a planar diagram, read off mod-2 linking numbers for a family of
complementary cycle pairs, and verify that their sum is odd, which forces
at least one linked pair to exist.  The parity sums themselves are exposed
as ledgers so the whole argument is inspectable, and an independent
cone-counting oracle re-checks any reported pair from first definitions.

Parity sums that the underlying theorems force are enforced here with
InternalParityFailure: if one of them comes out wrong the code is broken,
no input can legitimately do that.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import Sequence

from .errors import (
    DrawingsNotComparable,
    GeneralPositionViolation,
    InternalParityFailure,
    PolylinesNotDisjoint,
    ProjectionNotGeneral,
    SearchExhausted,
)
from .geometry import Point2, Point3, _meet2, _Record, _set, gp_points2, gp_points3
from .graphs import (
    Cycle,
    GenericDrawing,
    PlanarDrawing,
    PLEmbedding,
    _bits,
    _cycle,
    _cycle_pairs,
    _disjoint_pairs,
    _swept,
    _xor_rows,
    bipartition,
    complete_graph,
    is_complete,
    require_valid,
)
from .linking import _cone_matrix, _draw_apex
from .projection import _central, _direction_search, _front_rows, _lk, _orthogonal
from .rng import SplitMix64


class LinkReport(_Record):
    """A finder's conclusion: two vertex-disjoint cycles with odd mod-2
    linking number.  `oracle_confirmed` stays None until the independent
    cone-counting oracle has re-checked the pair."""

    def __init__(
        self, cycle1: Cycle, cycle2: Cycle, lk_value: int, method: str, oracle_confirmed: bool | None = None
    ):
        _set(self, "cycle1", cycle1)
        _set(self, "cycle2", cycle2)
        _set(self, "lk_value", lk_value)
        _set(self, "method", method)
        _set(self, "oracle_confirmed", oracle_confirmed)


class ParityLedger(_Record):
    """One parity sum from a constructive argument, itemized."""

    def __init__(self, label: str, entries: tuple[tuple[str, int], ...]):
        _set(self, "label", label)
        _set(self, "entries", entries)

    @property
    def total(self) -> int:
        t = 0
        for _, bit in self.entries:
            t ^= bit & 1
        return t


def _forced(label: str, entries, expect: int) -> ParityLedger:
    """A ledger whose total the theorem forces; any other total is a bug."""
    ledger = ParityLedger(label, tuple(entries))
    if ledger.total != expect:
        raise InternalParityFailure(f"parity sum '{label}' is {ledger.total}, expected {expect}")
    return ledger


class OracleResult(_Record):
    def __init__(self, count: int, linked_pairs: tuple[tuple[Cycle, Cycle], ...], total_pairs: int):
        _set(self, "count", count)
        _set(self, "linked_pairs", linked_pairs)
        _set(self, "total_pairs", total_pairs)


# ---------------------------------------------------------------------------
# crossing-parity invariant of planar data


def van_kampen_points(points: Sequence[Point2]) -> int:
    """Parity of the number of crossing pairs among the 15 endpoint-disjoint
    segment pairs spanned by 5 plane points, i.e. `van_kampen_drawing` of
    their straight-line drawing.  Always 1 in general position; computing
    it is still worthwhile because that is the testable claim.  With no
    three points collinear each pair crosses or misses: one `_meet2` each."""
    pts = list(points)
    if len(pts) != 5:
        raise ValueError("need exactly 5 points")
    if not gp_points2(pts):
        raise GeneralPositionViolation("three of the points are collinear")
    pairs = combinations(combinations([p.coords() for p in pts], 2), 2)
    return sum(len({a, b, c, d}) == 4 and _meet2(*a, *b, *c, *d) is not None for (a, b), (c, d) in pairs) % 2


def van_kampen_drawing(d: PlanarDrawing) -> int:
    """Parity of crossings between routes of vertex-disjoint edge pairs, read
    off a GenericDrawing's crossings or off one sweep's raw crossings of any
    other drawing, building no record.  Graph-generic; the classical values
    (1 for any drawing of K5 or K3,3) are asserted by the tests, not assumed."""
    carried = isinstance(d, GenericDrawing)
    pairs = [(c.edge1, c.edge2) for c in d.crossings] if carried else [(e1, e2) for e1, _, e2, _, _ in _swept(d)]
    return sum(e1[0] not in e2 and e1[1] not in e2 for e1, e2 in pairs) % 2


def vk_invariance_probe(d1: PlanarDrawing, d2: PlanarDrawing) -> bool:
    """Compare the crossing-parity invariant of two drawings that differ
    at most in one vertex's star (its position and/or its incident edge
    routes).  Raises DrawingsNotComparable when they differ more broadly;
    returns whether the two invariant values agree."""
    if d1.graph != d2.graph:
        raise DrawingsNotComparable("drawings are of different graphs")
    g = d1.graph
    moved = [v for v in g.vertices if d1.position[v] != d2.position[v]]
    if len(moved) > 1:
        raise DrawingsNotComparable(f"vertices {moved} all changed position")
    changed = [e for e in g.edges if d1.route[e] != d2.route[e]]
    if moved:
        off_star = [e for e in changed if moved[0] not in e]
        if off_star:
            raise DrawingsNotComparable(f"routes {off_star} changed away from the moved vertex {moved[0]}")
    elif changed and not set(changed[0]).intersection(*changed[1:]):
        raise DrawingsNotComparable("changed routes share no common vertex")
    return van_kampen_drawing(d1) == van_kampen_drawing(d2)


# ---------------------------------------------------------------------------
# linear finder: straight triangles from 6 points, via central projection


_K6 = complete_graph(6)


# functionals the viewpoint search tries before it raises SearchExhausted
VIEWPOINT_TRIES = 1000


def _choose_viewpoint(pts: list[Point3], seed: int):
    """Index of the top point of a linear functional giving the 6 points distinct
    values, the functional, and `_central` of the rest from the top point, whose
    drawing must be generic.  Tries the first-coordinate functional first."""
    rng = SplitMix64(seed)
    bound = 4
    rejections = 0
    cand = Point3(1, 0, 0)
    for _ in range(VIEWPOINT_TRIES):
        vals = [x * cand.x + y * cand.y + z * cand.z for x, y, z in map(Point3.coords, pts)]
        if len(set(vals)) == 6:
            top = max(range(6), key=lambda i: vals[i])
            below_names = [v for i, v in enumerate(_K6.vertices) if i != top]
            try:
                return top, cand, _central(pts, pts[top], cand, names=below_names)
            except ProjectionNotGeneral:
                pass
        rejections += 1
        if rejections % 16 == 0:
            bound *= 2
        while True:
            cand = Point3(*(rng.randint(-bound, bound) for _ in range(3)))
            if cand.x != 0 or cand.y != 0 or cand.z != 0:
                break
    raise SearchExhausted(f"no usable viewpoint functional in {VIEWPOINT_TRIES} tries")


def _linear_analysis(points: Sequence[Point3], seed: int):
    pts = list(points)
    if len(pts) != 6:
        raise ValueError("need exactly 6 points")
    if not gp_points3(pts):
        raise GeneralPositionViolation("four of the points are coplanar")
    top, _, (*_, strands) = _choose_viewpoint(pts, seed)
    # the K6 plan with the top point as its hub: a far edge blocks sight lines from
    # the apex to the base edge u-v exactly when it passes in front of u-v in the
    # central diagram, whose strands name edges of K6 (the top's have no image)
    _, pairs, ((_, _, plan), *_) = _hub_plan(_K6, _k6_script, _K6.vertices[top])
    front = _front_rows(_K6, strands)
    rows = [_xor_rows(front, far[1]) for far, _, _ in pairs]
    ledger = _front_ledger("sight-blocking lk over the 10 base edges", plan, rows, 1)
    far, near, _ = next(pair for pair, (_, bit) in zip(pairs, ledger.entries) if bit)
    return LinkReport(Cycle(far[0]), Cycle(near[0]), 1, "linear-central"), ledger


def find_linked_triangles_linear(points: Sequence[Point3], seed: int = 0) -> LinkReport:
    """Locate two linked triangles among 6 general-position points.

    Views the configuration from its extremal point along a generic
    functional: a triangle through the viewpoint is linked with the
    complementary one exactly when an odd number of far-side edges block
    the sight line to the near edge, and the parity sum over all 10 edge
    choices is odd, so a hit always exists.  Points are named v1..v6 in
    input order and the report's cycles use those names.
    """
    return _linear_analysis(points, seed)[0]


def linear_parity_ledger(points: Sequence[Point3], seed: int = 0) -> ParityLedger:
    """The itemized parity sum behind find_linked_triangles_linear."""
    return _linear_analysis(points, seed)[1]


# ---------------------------------------------------------------------------
# projection finders: one hub-pair runner, with a script for K6 and for K4,4
#
# Both theorems have one proof.  Sum the diagram lk over the pairs of a far
# cycle, missing the hubs and a hub-free base edge, and a near cycle through
# the hubs and that edge.  The terms of the spokes (and of the K4,4 bridge)
# cancel, which leaves each far cycle against its base edge: a flat sum that
# counts each crossing of two disjoint hub-free edges once, for the edge
# behind: the odd crossing-parity invariant of the hub-free K5 or K3,3.


def _front_ledger(label: str, plan, rows, expect: int) -> ParityLedger:
    """A planned ledger of far cycles against single edges: each entry is one
    bit of the front row rows[i] of its far cycle; the sum is forced to `expect`."""
    return _forced(label, [(name, (rows[i] & bit).bit_count()) for i, bit, name in plan], expect)


@lru_cache(maxsize=8)
def _hub_plan(g, script, *args) -> tuple:
    """What `_hub_analysis` reads off the core graph alone.  `script(g, *args)`
    raises ValueError on a core of the wrong shape, else gives the main label, a
    (base edge, far cycle, near cycle) row per hub-free edge, and the (label,
    forced total, pick) specs of the other ledgers: pick(base edge) is the edge
    its far cycle is read against, or None to skip it.  The plan holds the main
    label; per row, its far and near cycles as (canonical vertices, edge mask,
    label) and the pair's entry label; per other ledger, its label, forced total
    and an (i, bit, label) per entry: far cycle i against the picked edge."""
    label, rows, specs = script(g, *args)
    pairs = []
    for _, far_seq, near_seq in rows:
        far, near = [(v, mask, "-".join(v)) for v, mask in (_cycle(g, far_seq), _cycle(g, near_seq))]
        pairs.append((far, near, f"lk({far[2]} | {near[2]})"))
    plans = []
    for name, expect, pick in specs:
        entries = []
        for i, (e, _, _) in enumerate(rows):
            if x := pick(e):
                entries.append((i, g._edge_bit[x], f"lk({pairs[i][0][2]} | {x[0]}-{x[1]})"))
        plans.append((name, expect, entries))
    return label, pairs, plans


def _hub_analysis(emb: PLEmbedding, seed: int, script):
    """Report and ledgers of the hub-pair argument on one generic orthogonal
    projection of the smoothed core.  The planned half, `_hub_plan`, is built
    once per core graph and script: each cycle's canonical vertices, edge mask
    and label, and each entry's label.  Per call, each cycle's front row is one
    XOR of rows of the new front matrix, and each entry a bit count; the lk of
    a pair is read both ways."""
    g, position, routes, _ = require_valid(emb)._core
    label, pairs, specs = _hub_plan(g, script)
    front = _front_rows(g, _direction_search(seed, _orthogonal, g, position, routes)[5])
    rows = [_xor_rows(front, far[1]) for far, _, _ in pairs]
    main = _forced(label, [(name, _lk((row & near[1]).bit_count() & 1, (_xor_rows(front, near[1]) & far[1]).bit_count() & 1))
                           for row, (far, near, name) in zip(rows, pairs)], 1)
    far, near, _ = next(pair for pair, (_, lk) in zip(pairs, main.entries) if lk)
    return LinkReport(Cycle(far[0]), Cycle(near[0]), 1, "pl-orthogonal"), (main,) + tuple(
        _front_ledger(name, plan, rows, expect) for name, expect, plan in specs)


def _k6_script(g, hub=None):
    """The hub is g.vertices[0] unless named.  The 4 far triangles of the base
    edges through another vertex w cover each edge that misses the hub and w
    twice, so their lk values against the spoke hub-w cancel."""
    if not (len(g.vertices) == 6 and is_complete(g)):
        raise ValueError("embedding does not smooth to a complete graph on 6 vertices")
    hub = g.vertices[0] if hub is None else hub
    rows = [(e, [w for w in g.vertices if w not in (hub, *e)], (hub, *e)) for e in g.edges if hub not in e]
    specs = [("diagram lk of far triangles against their base edges", 1, lambda e: e)]
    specs += [(f"spoke cancellation at {w}", 0, lambda e, w=w: (hub, w) if w in e else None) for w in g.vertices if w != hub]
    return "diagram lk over the 10 hub-triangle pairs", rows, specs


def _k44_script(g):
    """Hubs: the first vertex of each part.  A base edge's ends are named by part."""
    try:  # the shape check and the hubs share one bipartition
        part_a, part_b = bipartition(g)
    except ValueError:
        part_a = part_b = ()
    if not (len(part_a) == len(part_b) == 4 and len(g.edges) == 16):
        raise ValueError("embedding does not smooth to a complete bipartite 4+4 graph")
    hub_a, hub_b = part_a[0], part_b[0]
    ends = {e: e if e[0] in part_a else e[::-1] for e in g.edges if hub_a not in e and hub_b not in e}
    rows = []
    for e, (end_a, end_b) in ends.items():
        rest_a = [x for x in part_a if x not in (hub_a, end_a)]
        rest_b = [y for y in part_b if y not in (hub_b, end_b)]
        rows.append((e, (rest_a[0], rest_b[0], rest_a[1], rest_b[1]), (hub_a, hub_b, end_a, end_b)))
    specs = [
        ("bridge cancellation (hub-to-hub edge, covered four times)", 0, lambda e: (hub_a, hub_b)),
        (f"spoke cancellation at {hub_a} (hub to far-part ends)", 0, lambda e: (hub_a, ends[e][1])),
        (f"spoke cancellation at {hub_b} (hub to near-part ends)", 0, lambda e: (hub_b, ends[e][0])),
        ("diagram lk of far quadrilaterals against their base edges", 1, lambda e: e),
    ]
    return "diagram lk over the 9 hub-quadrilateral pairs", rows, specs


def find_linked_cycles_k6(emb: PLEmbedding, seed: int = 0) -> LinkReport:
    """Locate two linked triangles in any piecewise-linear embedding of the
    complete graph on 6 vertices (subdivided inputs are smoothed first).

    Projects along a seeded generic direction and sums diagram linking
    numbers over the 10 triangle pairs through the first vertex; the sum
    is always odd, so some pair links.
    """
    return _hub_analysis(emb, seed, _k6_script)[0]


def k6_parity_ledgers(emb: PLEmbedding, seed: int = 0) -> tuple[ParityLedger, ...]:
    """Main lk sum plus the cancellation ledgers reducing it to the planar
    crossing-parity invariant; every total is checked on the way out.  The
    flat sum is that invariant of the subdrawing of the hub-free edges."""
    return _hub_analysis(emb, seed, _k6_script)[1]


def find_linked_cycles_k44(emb: PLEmbedding, seed: int = 0) -> LinkReport:
    """Locate two linked 4-cycles in any piecewise-linear embedding of the
    complete bipartite graph with two parts of 4 (subdivided inputs are
    smoothed first).  Same projection scheme as the 6-vertex finder, with
    quadrilateral pairs through the first vertex of each part."""
    return _hub_analysis(emb, seed, _k44_script)[0]


def k44_parity_ledgers(emb: PLEmbedding, seed: int = 0) -> tuple[ParityLedger, ...]:
    """As k6_parity_ledgers, with quadrilaterals and a bridge ledger."""
    return _hub_analysis(emb, seed, _k44_script)[1]


# ---------------------------------------------------------------------------
# brute-force oracle


@lru_cache(maxsize=8)
def _oracle_plan(g, len1: int, len2: int) -> tuple:
    """What `oracle_count_linked_pairs` reads off the core graph alone: `_disjoint_pairs`, the number
    of pairs, each edge's disjoint edges, and through[f], bit j set when edge f is on second[j]."""
    first, second, partners = _disjoint_pairs(g, len1, len2)
    through = [0] * len(g.edges)
    for j, (_, edges) in enumerate(second):
        for f in _bits(edges):
            through[f] |= 1 << j
    disjoint = [[f for f, h in enumerate(g.edges) if u not in h and v not in h] for u, v in g.edges]
    return first, second, partners, sum(mask.bit_count() for mask in partners), disjoint, through


def oracle_count_linked_pairs(emb: PLEmbedding, len1: int, len2: int, seed: int = 0) -> OracleResult:
    """Independent check of any finder: every vertex-disjoint cycle pair of
    the given lengths, and which are linked, by cone counting without
    projections.  With one apex, drawn from the seed, lk(c1, c2) mod 2 is
    the parity of c1's cone row, the XOR of the rows of
    `linking._cone_matrix` over the edges of c1, on the edges of c2; so the
    XOR over that row of the bitmasks of the cycles through each edge holds
    lk(c1, c2) for every c2 at once.  Its graph-only tables, `_oracle_plan`,
    are built once per core graph and lengths, and the cone matrix refuses
    past `linking.CONE_TEST_BUDGET` side pairs.  The core is scaled by m,
    so the drawn apex is too."""
    g, _, chains, m = require_valid(emb)._core
    # lengths of another type skip the cache and meet the walk's own checks
    plan = _oracle_plan if type(len1) is type(len2) is int else _oracle_plan.__wrapped__
    first, second, partners, total, disjoint, through = plan(g, len1, len2)
    if not total:
        return OracleResult(0, (), 0)
    rows = _cone_matrix(tuple(c * m for c in _draw_apex(SplitMix64(seed))), chains, disjoint)
    linked = _cycle_pairs(g, first, second, [mask and _xor_rows(through, _xor_rows(rows, edges)) & mask
                                             for (_, edges), mask in zip(first, partners)])
    return OracleResult(len(linked), linked, total)


def oracle_confirm(emb: PLEmbedding, report: LinkReport, seed: int = 0) -> LinkReport:
    """Re-check one report by cone counting, as `oracle_count_linked_pairs`
    does from the apex `linking_mod2_sampled` draws, and fill oracle_confirmed.
    Refused past the same `linking.CONE_TEST_BUDGET`: sides(c1) * sides(c2)."""
    g, _, routes, m = require_valid(emb)._core
    (vertices1, mask1), (vertices2, mask2) = (_cycle(g, c.vertices) for c in (report.cycle1, report.cycle2))
    if set(vertices1) & set(vertices2):
        raise PolylinesNotDisjoint("the two polygons share a point")
    chains = [routes[e] for e in _bits(mask1) + _bits(mask2)]
    k = mask1.bit_count()  # a row for each edge of cycle 1, its bits at cycle 2's
    rows = _cone_matrix(tuple(c * m for c in _draw_apex(SplitMix64(seed))), chains, [range(k, len(chains))] * k)
    value = _xor_rows(rows, (1 << k) - 1).bit_count() & 1
    return report.replace(oracle_confirmed=(value == report.lk_value))
