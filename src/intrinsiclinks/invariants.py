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

from typing import Sequence

from .errors import (
    DrawingsNotComparable,
    GeneralPositionViolation,
    InternalParityFailure,
    ProjectionNotGeneral,
    SearchExhausted,
)
from .geometry import Point2, Point3, _Record, _set, dot3, gp_points2, gp_points3
from .graphs import (
    Cycle,
    PlanarDrawing,
    PLEmbedding,
    _bits,
    _disjoint_pairs,
    _xor_rows,
    bipartition,
    complete_graph,
    cycle_route,
    extract_crossings,
    is_complete,
    is_complete_bipartite,
    make_cycle,
    make_drawing,
    smooth,
)
from .linking import _cone_matrix, _draw_apex, linking_mod2_sampled
from .projection import ProjectedDiagram, _lk, find_general_projection, project_central
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
    it is still worthwhile because that is the testable claim."""
    pts = list(points)
    if len(pts) != 5:
        raise ValueError("need exactly 5 points")
    if not gp_points2(pts):
        raise GeneralPositionViolation("three of the points are collinear")
    return van_kampen_drawing(make_drawing(_K5, dict(zip(_point_names(5), pts))))


def van_kampen_drawing(d: PlanarDrawing) -> int:
    """Parity of crossings between routes of vertex-disjoint edge pairs.
    Graph-generic; the classical values (1 for any drawing of the complete
    graph on 5 vertices or of the 3+3 bipartite graph) are asserted by the
    test suite, not assumed here."""
    return sum(1 for c in extract_crossings(d) if c.disjoint) % 2


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
        center = moved[0]
        off_star = [e for e in changed if center not in e]
        if off_star:
            raise DrawingsNotComparable(
                f"routes {off_star} changed away from the moved vertex {center}"
            )
    elif changed:
        common = set(changed[0])
        for e in changed[1:]:
            common &= set(e)
        if not common:
            raise DrawingsNotComparable("changed routes share no common vertex")
    return van_kampen_drawing(d1) == van_kampen_drawing(d2)


# ---------------------------------------------------------------------------
# linear finder: straight triangles from 6 points, via central projection


_K5 = complete_graph(5)
_K6 = complete_graph(6)


def _point_names(n: int) -> list[str]:
    return [f"v{i}" for i in range(1, n + 1)]


# functionals the viewpoint search tries before it raises SearchExhausted
VIEWPOINT_TRIES = 1000


def _choose_viewpoint(pts: list[Point3], seed: int):
    """Index of the top point of a linear functional giving the 6 points
    distinct values, and the diagram it projects the rest to, whose
    drawing must be generic.  Tries the first-coordinate functional before
    seeded candidates."""
    rng = SplitMix64(seed)
    bound = 4
    rejections = 0
    cand = Point3(1, 0, 0)
    names = _point_names(6)
    for _ in range(VIEWPOINT_TRIES):
        vals = [dot3(p, cand) for p in pts]
        if len(set(vals)) == 6:
            top = max(range(6), key=lambda i: vals[i])
            below_names = [names[i] for i in range(6) if i != top]
            try:
                return top, project_central(pts, pts[top], cand, names=below_names)
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
    top, diag = _choose_viewpoint(pts, seed)
    g = diag.graph
    # a far edge blocks sight lines from the apex to the base edge u-v
    # exactly when it passes in front of u-v in the central diagram
    rows = [(make_cycle(g, [w for w in g.vertices if w not in e]), e) for e in g.edges]
    fronts = {far: diag._cycle_front(far) for far, _ in rows}
    ledger = _front_ledger(diag, fronts, "sight-blocking lk over the 10 base edges", rows, 1)
    far, (u, v) = next(row for row, (_, bit) in zip(rows, ledger.entries) if bit)
    near = make_cycle(_K6, (_point_names(6)[top], u, v))
    return LinkReport(far, near, 1, "linear-central"), ledger


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
# projection finders: the hub-pair script shared by K6 and K4,4


def _smooth_and_project(emb: PLEmbedding, seed: int, accepts, shape: str) -> ProjectedDiagram:
    """Validate, smooth and project an embedding whose smoothing must be
    of the given shape."""
    sm = smooth(emb)
    if not accepts(sm.graph):
        raise ValueError(f"embedding does not smooth to {shape}")
    return find_general_projection(sm, seed)


def _cycle_name(c: Cycle) -> str:
    return "-".join(c.vertices)


def _hub_pair_ledger(diag: ProjectedDiagram, pairs, label: str):
    """Diagram lk of the (far, near) cycle pairs, whose sum the theorem forces odd: the report on
    the first linked pair, the ledger, and each cycle's (front row, edge mask) for the edge ledgers."""
    fronts = {c: diag._cycle_front(c) for pair in pairs for c in pair}
    entries = []
    for far, near in pairs:
        (row1, mask1), (row2, mask2) = fronts[far], fronts[near]
        lk = _lk((row1 & mask2).bit_count() & 1, (row2 & mask1).bit_count() & 1)
        entries.append((f"lk({_cycle_name(far)} | {_cycle_name(near)})", lk))
    ledger = _forced(label, entries, 1)
    far, near = next(pair for pair, (_, lk) in zip(pairs, entries) if lk == 1)
    return LinkReport(far, near, 1, "pl-orthogonal"), ledger, fronts


def _front_ledger(diag: ProjectedDiagram, fronts, label: str, rows, expect: int) -> ParityLedger:
    """Front parities of far cycles against single edges, given as
    (far cycle, (x, y)) rows and labeled in that x-y order, each one bit of
    the far cycle's row in `fronts`; the sum is forced to `expect`."""
    bit = diag.graph._edge_bit
    entries = [
        (f"lk({_cycle_name(far)} | {x}-{y})", (fronts[far][0] & bit[x, y]).bit_count())
        for far, (x, y) in rows
    ]
    return _forced(label, entries, expect)


def _k6_analysis(emb: PLEmbedding, seed: int):
    """Report and ledgers: the lk sum over the 10 triangle pairs through
    the hub, then the cancellation bookkeeping that reduces it to plain
    edge-vs-edge sums.  Contributions of spoke edges cancel in pairs when
    grouped per far vertex, and the residual flat sum is the
    crossing-parity invariant of the hub-free subdrawing: the far triangle
    of a hub-free edge is the set of hub-free edges disjoint from it, so
    each of their crossings counts once, for the edge behind."""
    diag = _smooth_and_project(
        emb, seed, lambda g: len(g.vertices) == 6 and is_complete(g),
        "a complete graph on 6 vertices",
    )
    g = diag.graph
    hub = g.vertices[0]
    rows = []  # (base edge missing the hub, far triangle, near triangle)
    for e in g.edges:
        if hub not in e:
            rest = [w for w in g.vertices if w not in (hub, *e)]
            rows.append((e, make_cycle(g, rest), make_cycle(g, (hub, *e))))
    report, main, fronts = _hub_pair_ledger(
        diag, [(far, near) for _, far, near in rows], "diagram lk over the 10 hub-triangle pairs"
    )
    flat = _front_ledger(
        diag, fronts, "diagram lk of far triangles against their base edges",
        [(far, e) for e, far, _ in rows], 1,
    )
    # spoke cancellations: fixing a non-hub vertex V, the 4 far triangles
    # of base edges through V cover each edge of the remaining 4 vertices
    # exactly twice, so their lk values against the spoke hub-V cancel
    spokes = tuple(
        _front_ledger(
            diag, fronts, f"spoke cancellation at {v}", [(far, (hub, v)) for e, far, _ in rows if v in e], 0
        )
        for v in g.vertices[1:]
    )
    return report, (main, flat) + spokes


def find_linked_cycles_k6(emb: PLEmbedding, seed: int = 0) -> LinkReport:
    """Locate two linked triangles in any piecewise-linear embedding of the
    complete graph on 6 vertices (subdivided inputs are smoothed first).

    Projects along a seeded generic direction and sums diagram linking
    numbers over the 10 triangle pairs through the first vertex; the sum
    is always odd, so some pair links.
    """
    return _k6_analysis(emb, seed)[0]


def k6_parity_ledgers(emb: PLEmbedding, seed: int = 0) -> tuple[ParityLedger, ...]:
    """Main lk sum plus the cancellation ledgers reducing it to the planar
    crossing-parity invariant; every total is checked on the way out.  The
    flat sum is that invariant of the subdrawing of the hub-free edges."""
    return _k6_analysis(emb, seed)[1]


def _k44_analysis(emb: PLEmbedding, seed: int):
    """Report and ledgers: the lk sum over the 9 quadrilateral pairs
    through both hubs, the cancellations of the hub-to-hub bridge and of
    the spokes at each hub, and the flat sum, which is the crossing-parity
    invariant of the hub-free subdrawing as in the 6-vertex analysis."""
    diag = _smooth_and_project(
        emb, seed, lambda g: is_complete_bipartite(g, 4, 4), "a complete bipartite 4+4 graph"
    )
    g = diag.graph
    part_a, part_b = bipartition(g)
    hub_a, hub_b = part_a[0], part_b[0]
    rows = []  # (inner edge, its end in each part, far and near quadrilaterals)
    for e in g.edges:
        if hub_a in e or hub_b in e:
            continue
        end_a, end_b = e if e[0] in part_a else e[::-1]
        rest_a = [x for x in part_a if x not in (hub_a, end_a)]
        rest_b = [y for y in part_b if y not in (hub_b, end_b)]
        far = make_cycle(g, (rest_a[0], rest_b[0], rest_a[1], rest_b[1]))
        near = make_cycle(g, (hub_a, hub_b, end_a, end_b))
        rows.append((e, end_a, end_b, far, near))
    report, main, fronts = _hub_pair_ledger(
        diag, [(far, near) for *_, far, near in rows], "diagram lk over the 9 hub-quadrilateral pairs"
    )
    bridge = _front_ledger(
        diag, fronts, "bridge cancellation (hub-to-hub edge, covered four times)",
        [(far, (hub_a, hub_b)) for *_, far, _ in rows], 0,
    )
    spoke_a = _front_ledger(
        diag, fronts, f"spoke cancellation at {hub_a} (hub to far-part ends)",
        [(far, (hub_a, end_b)) for _, _, end_b, far, _ in rows], 0,
    )
    spoke_b = _front_ledger(
        diag, fronts, f"spoke cancellation at {hub_b} (hub to near-part ends)",
        [(far, (hub_b, end_a)) for _, end_a, _, far, _ in rows], 0,
    )
    flat = _front_ledger(
        diag, fronts, "diagram lk of far quadrilaterals against their base edges",
        [(far, e) for e, _, _, far, _ in rows], 1,
    )
    return report, (main, bridge, spoke_a, spoke_b, flat)


def find_linked_cycles_k44(emb: PLEmbedding, seed: int = 0) -> LinkReport:
    """Locate two linked 4-cycles in any piecewise-linear embedding of the
    complete bipartite graph with two parts of 4 (subdivided inputs are
    smoothed first).  Same projection scheme as the 6-vertex finder, with
    quadrilateral pairs through the first vertex of each part."""
    return _k44_analysis(emb, seed)[0]


def k44_parity_ledgers(emb: PLEmbedding, seed: int = 0) -> tuple[ParityLedger, ...]:
    """As k6_parity_ledgers, with quadrilaterals and a bridge ledger."""
    return _k44_analysis(emb, seed)[1]


# ---------------------------------------------------------------------------
# brute-force oracle


# side-pair cone tests past which the oracle raises SearchExhausted before the
# first: 2.6 us each on 2 CPUs, Python 3.11 (3.7 near 2^60), so 10^6 take 3-4 s
CONE_TEST_BUDGET = 10**6


def oracle_count_linked_pairs(emb: PLEmbedding, len1: int, len2: int, seed: int = 0) -> OracleResult:
    """Independent check of any finder: every vertex-disjoint cycle pair of
    the given lengths, and which are linked, by cone counting without
    projections.  With one apex, drawn from the seed, lk(c1, c2) mod 2 is
    the XOR of the rows of `linking._cone_matrix` over the edges of c1, read
    at the edges of c2.  Refused before any cone test past CONE_TEST_BUDGET
    side pairs: sides(e) * sides(f) over ordered vertex-disjoint edges."""
    sm = smooth(emb)
    g = sm.graph
    first, second, partners = _disjoint_pairs(g, len1, len2)
    total = sum(mask.bit_count() for mask in partners)
    if not total:
        return OracleResult(0, (), 0)
    bit = {v: 1 << i for i, v in enumerate(g.vertices)}
    ends = [bit[u] | bit[v] for u, v in g.edges]
    disjoint = [[f for f, theirs in enumerate(ends) if not mine & theirs] for mine in ends]
    chains = [sm.route[e].vertices for e in g.edges]
    tests = sum((len(chains[e]) - 1) * (len(chains[f]) - 1) for e, fs in enumerate(disjoint) for f in fs)
    if tests > CONE_TEST_BUDGET:
        raise SearchExhausted(f"{tests} side-pair cone tests exceed the budget of {CONE_TEST_BUDGET}")
    rows = _cone_matrix(_draw_apex(SplitMix64(seed)), chains, disjoint)
    cones = [_xor_rows(rows, g._cycle_mask(c.vertices)) for c in first]
    masks = [g._cycle_mask(c.vertices) for c in second]
    linked = tuple((first[i], second[j]) for i, mask in enumerate(partners) for j in _bits(mask)
                   if (cones[i] & masks[j]).bit_count() & 1)
    return OracleResult(len(linked), linked, total)


def oracle_confirm(emb: PLEmbedding, report: LinkReport, seed: int = 0) -> LinkReport:
    """Re-check one report by cone counting and fill oracle_confirmed."""
    sm = smooth(emb)
    p1 = cycle_route(sm, report.cycle1)
    p2 = cycle_route(sm, report.cycle2)
    value = linking_mod2_sampled(p1, p2, SplitMix64(seed))
    return report.replace(oracle_confirmed=(value == report.lk_value))
