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

from dataclasses import dataclass, replace
from itertools import combinations
from typing import Sequence

from .errors import (
    DrawingsNotComparable,
    EmbeddingInvalid,
    GeneralPositionViolation,
    InternalParityFailure,
    ProjectionNotGeneral,
    SearchExhausted,
)
from .geometry import (
    NON_GENERIC,
    Point2,
    Point3,
    Segment2,
    Segment3,
    dot3,
    gp_points2,
    gp_points3,
    seg_intersect2,
)
from .graphs import (
    Cycle,
    PlanarDrawing,
    PLEmbedding,
    bipartition,
    complete_graph,
    cycle_route,
    enumerate_disjoint_cycle_pairs,
    extract_crossings,
    is_complete,
    is_complete_bipartite,
    make_cycle,
    smooth,
    validate_embedding,
)
from .linking import higher_central, linking_mod2_sampled
from .projection import (
    ProjectedDiagram,
    find_general_projection,
    front_parity,
    lk_from_diagram,
    project_central,
)
from .rng import SplitMix64


@dataclass(frozen=True)
class LinkReport:
    """A finder's conclusion: two vertex-disjoint cycles with odd mod-2
    linking number.  `oracle_confirmed` stays None until the independent
    cone-counting oracle has re-checked the pair."""

    cycle1: Cycle
    cycle2: Cycle
    lk_value: int
    method: str
    oracle_confirmed: bool | None = None


@dataclass(frozen=True)
class ParityLedger:
    """One parity sum from a constructive argument, itemized."""

    label: str
    entries: tuple[tuple[str, int], ...]

    @property
    def total(self) -> int:
        t = 0
        for _, bit in self.entries:
            t ^= bit & 1
        return t


@dataclass(frozen=True)
class OracleResult:
    count: int
    linked_pairs: tuple[tuple[Cycle, Cycle], ...]
    total_pairs: int


# ---------------------------------------------------------------------------
# crossing-parity invariant of planar data


def van_kampen_points(points: Sequence[Point2]) -> int:
    """Parity of the number of crossing pairs among the 15 endpoint-disjoint
    segment pairs spanned by 5 plane points.  Always 1 in general position;
    computing it is still worthwhile because that is the testable claim."""
    pts = list(points)
    if len(pts) != 5:
        raise ValueError("need exactly 5 points")
    if not gp_points2(pts):
        raise GeneralPositionViolation("three of the points are collinear")
    n = 0
    for (i, j), (k, l) in combinations(combinations(range(5), 2), 2):
        if {i, j} & {k, l}:
            continue
        r = seg_intersect2(Segment2(pts[i], pts[j]), Segment2(pts[k], pts[l]))
        if r is NON_GENERIC:
            raise InternalParityFailure(
                "degenerate segment contact despite general-position points"
            )
        if isinstance(r, Point2):
            n += 1
    return n % 2


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


_K6 = complete_graph(6)


def _point_names(n: int) -> list[str]:
    return [f"v{i}" for i in range(1, n + 1)]


def _choose_viewpoint(pts: list[Point3], seed: int, max_tries: int):
    """A linear functional giving the 6 points distinct values, whose top
    point projects the rest to a generic plane configuration.  Tries the
    first-coordinate functional before seeded candidates."""
    rng = SplitMix64(seed)
    bound = 4
    rejections = 0
    cand = Point3(1, 0, 0)
    names = _point_names(6)
    for _ in range(max_tries):
        vals = [dot3(p, cand) for p in pts]
        if len(set(vals)) == 6:
            top = max(range(6), key=lambda i: vals[i])
            below_names = [names[i] for i in range(6) if i != top]
            try:
                drawing = project_central(pts, pts[top], cand, names=below_names)
                return cand, top, drawing
            except ProjectionNotGeneral:
                pass
        rejections += 1
        if rejections % 16 == 0:
            bound *= 2
        while True:
            cand = Point3(*(rng.randint(-bound, bound) for _ in range(3)))
            if cand.x != 0 or cand.y != 0 or cand.z != 0:
                break
    raise SearchExhausted(f"no usable viewpoint functional in {max_tries} tries")


def _linear_analysis(points: Sequence[Point3], seed: int, max_tries: int):
    pts = list(points)
    if len(pts) != 6:
        raise ValueError("need exactly 6 points")
    if not gp_points3(pts):
        raise GeneralPositionViolation("four of the points are coplanar")
    functional, top, drawing = _choose_viewpoint(pts, seed, max_tries)
    names = _point_names(6)
    apex_name = names[top]
    apex = pts[top]
    by_name = dict(zip(names, pts))

    entries = []
    first_hit = None
    below_edges = [e for e in _K6.edges if apex_name not in e]
    for u, v in below_edges:
        rest = [w for w in names if w not in (apex_name, u, v)]
        base = Segment3(by_name[u], by_name[v])
        cnt = 0
        for x, y in combinations(rest, 2):
            cnt += higher_central(apex, Segment3(by_name[x], by_name[y]), base)
        lk = cnt % 2
        entries.append((f"lk({'-'.join(rest)} | {u}-{v})", lk))
        if lk == 1 and first_hit is None:
            first_hit = (rest, (u, v))

    ledger = ParityLedger("sight-blocking lk over the 10 base edges", tuple(entries))
    if ledger.total != 1:
        raise InternalParityFailure("sum of central lk values is even")
    if van_kampen_drawing(drawing) != 1:
        raise InternalParityFailure("central image of 5 points has even crossing parity")
    rest, (u, v) = first_hit
    report = LinkReport(
        cycle1=make_cycle(_K6, rest),
        cycle2=make_cycle(_K6, (apex_name, u, v)),
        lk_value=1,
        method="linear-central",
    )
    return report, ledger, drawing, apex_name


def find_linked_triangles_linear(
    points: Sequence[Point3], seed: int = 0, max_tries: int = 1000
) -> LinkReport:
    """Locate two linked triangles among 6 general-position points.

    Views the configuration from its extremal point along a generic
    functional: a triangle through the viewpoint is linked with the
    complementary one exactly when an odd number of far-side edges block
    the sight line to the near edge, and the parity sum over all 10 edge
    choices is odd, so a hit always exists.  Points are named v1..v6 in
    input order and the report's cycles use those names.
    """
    report, _, _, _ = _linear_analysis(points, seed, max_tries)
    return report


def linear_parity_ledger(
    points: Sequence[Point3], seed: int = 0, max_tries: int = 1000
) -> ParityLedger:
    """The itemized parity sum behind find_linked_triangles_linear."""
    _, ledger, _, _ = _linear_analysis(points, seed, max_tries)
    return ledger


# ---------------------------------------------------------------------------
# projection finder for embeddings of the complete graph on 6 vertices


def _validated_smooth(emb: PLEmbedding) -> PLEmbedding:
    violations = validate_embedding(emb)
    if violations:
        raise EmbeddingInvalid(f"{len(violations)} embedding violations", violations)
    return smooth(emb)


def _k6_analysis(emb: PLEmbedding, seed: int):
    sm = _validated_smooth(emb)
    g = sm.graph
    if len(g.vertices) != 6 or not is_complete(g):
        raise ValueError("embedding does not smooth to a complete graph on 6 vertices")
    diag = find_general_projection(sm, seed)
    hub = g.vertices[0]
    spoke_free = [e for e in g.edges if hub not in e]  # the 10 edges missing the hub

    entries = []
    pair_rows = []
    first_hit = None
    for e in spoke_free:
        u, v = e
        rest = [w for w in g.vertices if w not in (hub, u, v)]
        far = make_cycle(g, rest)
        near = make_cycle(g, (hub, u, v))
        lk = lk_from_diagram(diag, far, near)
        entries.append((f"lk({'-'.join(far.vertices)} | {'-'.join(near.vertices)})", lk))
        pair_rows.append((e, far, near))
        if lk == 1 and first_hit is None:
            first_hit = (far, near)
    main = ParityLedger("diagram lk over the 10 hub-triangle pairs", tuple(entries))
    if main.total != 1:
        raise InternalParityFailure("hub-triangle lk sum is even")
    report = LinkReport(first_hit[0], first_hit[1], 1, "pl-orthogonal")
    return report, main, diag, sm, hub, pair_rows


def _k6_aux_ledgers(diag: ProjectedDiagram, g, hub, pair_rows):
    """The cancellation bookkeeping that reduces hub-triangle lk sums to
    plain edge-vs-edge sums: contributions of spoke edges cancel in pairs
    when grouped per far vertex, and the residual flat sum equals the
    crossing-parity invariant of the hub-free subdrawing."""
    ledgers = []
    flat_entries = []
    for e, far, _ in pair_rows:
        far_edges = set(g.cycle_edges(far))
        flat_entries.append(
            (f"lk({'-'.join(far.vertices)} | {e[0]}-{e[1]})", front_parity(diag, far_edges, {e}))
        )
    flat = ParityLedger("diagram lk of far triangles against their base edges", tuple(flat_entries))
    sub = [e for e in g.edges if hub not in e]
    sub_set = set(sub)
    sub_vk = sum(
        1 for c in diag.crossings if c.disjoint and c.edge1 in sub_set and c.edge2 in sub_set
    ) % 2
    if flat.total != sub_vk:
        raise InternalParityFailure("flat lk sum disagrees with subdrawing crossing parity")
    if sub_vk != 1:
        raise InternalParityFailure("hub-free subdrawing has even crossing parity")
    ledgers.append(flat)

    # spoke cancellations: fixing a non-hub vertex V, the 4 far triangles
    # of base edges through V cover each edge of the remaining 4 vertices
    # exactly twice, so their lk values against the spoke hub-V cancel
    for v in g.vertices[1:]:
        spoke = {g.edge_key(hub, v)}
        entries = []
        for e, far, _ in pair_rows:
            if v not in e:
                continue
            far_edges = set(g.cycle_edges(far))
            entries.append(
                (f"lk({'-'.join(far.vertices)} | {hub}-{v})", front_parity(diag, far_edges, spoke))
            )
        led = ParityLedger(f"spoke cancellation at {v}", tuple(entries))
        if led.total != 0:
            raise InternalParityFailure(f"spoke cancellation at {v} is odd")
        ledgers.append(led)
    return tuple(ledgers)


def find_linked_cycles_k6(emb: PLEmbedding, seed: int = 0) -> LinkReport:
    """Locate two linked triangles in any piecewise-linear embedding of the
    complete graph on 6 vertices (subdivided inputs are smoothed first).

    Projects along a seeded generic direction and sums diagram linking
    numbers over the 10 triangle pairs through the first vertex; the sum
    is always odd, so some pair links.
    """
    report, _, _, _, _, _ = _k6_analysis(emb, seed)
    return report


def k6_parity_ledgers(emb: PLEmbedding, seed: int = 0) -> tuple[ParityLedger, ...]:
    """Main lk sum plus the cancellation ledgers reducing it to the planar
    crossing-parity invariant; every total is checked on the way out."""
    _, main, diag, sm, hub, pair_rows = _k6_analysis(emb, seed)
    return (main,) + _k6_aux_ledgers(diag, sm.graph, hub, pair_rows)


# ---------------------------------------------------------------------------
# projection finder for embeddings of the 4+4 complete bipartite graph


def _k44_analysis(emb: PLEmbedding, seed: int):
    sm = _validated_smooth(emb)
    g = sm.graph
    if not is_complete_bipartite(g, 4, 4):
        raise ValueError("embedding does not smooth to a complete bipartite 4+4 graph")
    part_a, part_b = bipartition(g)
    hub_a, hub_b = part_a[0], part_b[0]
    diag = find_general_projection(sm, seed)
    inner = [e for e in g.edges if hub_a not in e and hub_b not in e]  # 9 edges

    entries = []
    pair_rows = []
    first_hit = None
    for e in inner:
        end_a = e[0] if e[0] in part_a else e[1]
        end_b = e[1] if e[0] in part_a else e[0]
        rest_a = [x for x in part_a if x not in (hub_a, end_a)]
        rest_b = [y for y in part_b if y not in (hub_b, end_b)]
        far = make_cycle(g, (rest_a[0], rest_b[0], rest_a[1], rest_b[1]))
        near = make_cycle(g, (hub_a, hub_b, end_a, end_b))
        lk = lk_from_diagram(diag, far, near)
        entries.append((f"lk({'-'.join(far.vertices)} | {'-'.join(near.vertices)})", lk))
        pair_rows.append((e, end_a, end_b, far, near))
        if lk == 1 and first_hit is None:
            first_hit = (far, near)
    main = ParityLedger("diagram lk over the 9 hub-quadrilateral pairs", tuple(entries))
    if main.total != 1:
        raise InternalParityFailure("hub-quadrilateral lk sum is even")
    report = LinkReport(first_hit[0], first_hit[1], 1, "pl-orthogonal")
    return report, main, diag, sm, (hub_a, hub_b), pair_rows


def _k44_aux_ledgers(diag: ProjectedDiagram, g, hubs, pair_rows):
    hub_a, hub_b = hubs
    bridge = {g.edge_key(hub_a, hub_b)}
    entries_bridge = []
    entries_a = []
    entries_b = []
    flat_entries = []
    for e, end_a, end_b, far, _ in pair_rows:
        far_edges = set(g.cycle_edges(far))
        far_name = "-".join(far.vertices)
        entries_bridge.append(
            (f"lk({far_name} | {hub_a}-{hub_b})", front_parity(diag, far_edges, bridge))
        )
        entries_a.append(
            (f"lk({far_name} | {hub_a}-{end_b})",
             front_parity(diag, far_edges, {g.edge_key(hub_a, end_b)}))
        )
        entries_b.append(
            (f"lk({far_name} | {hub_b}-{end_a})",
             front_parity(diag, far_edges, {g.edge_key(hub_b, end_a)}))
        )
        flat_entries.append(
            (f"lk({far_name} | {e[0]}-{e[1]})", front_parity(diag, far_edges, {e}))
        )
    ledgers = []
    for label, entries, expect in (
        ("bridge cancellation (hub-to-hub edge, covered four times)", entries_bridge, 0),
        (f"spoke cancellation at {hub_a} (hub to far-part ends)", entries_a, 0),
        (f"spoke cancellation at {hub_b} (hub to near-part ends)", entries_b, 0),
        ("diagram lk of far quadrilaterals against their base edges", flat_entries, 1),
    ):
        led = ParityLedger(label, tuple(entries))
        if led.total != expect:
            raise InternalParityFailure(f"parity sum '{label}' is {led.total}, expected {expect}")
        ledgers.append(led)
    inner = {e for e in g.edges if hub_a not in e and hub_b not in e}
    sub_vk = sum(
        1 for c in diag.crossings if c.disjoint and c.edge1 in inner and c.edge2 in inner
    ) % 2
    if sub_vk != 1:
        raise InternalParityFailure("hub-free bipartite subdrawing has even crossing parity")
    return tuple(ledgers)


def find_linked_cycles_k44(emb: PLEmbedding, seed: int = 0) -> LinkReport:
    """Locate two linked 4-cycles in any piecewise-linear embedding of the
    complete bipartite graph with two parts of 4 (subdivided inputs are
    smoothed first).  Same projection scheme as the 6-vertex finder, with
    quadrilateral pairs through the first vertex of each part."""
    report, _, _, _, _, _ = _k44_analysis(emb, seed)
    return report


def k44_parity_ledgers(emb: PLEmbedding, seed: int = 0) -> tuple[ParityLedger, ...]:
    _, main, diag, sm, hubs, pair_rows = _k44_analysis(emb, seed)
    return (main,) + _k44_aux_ledgers(diag, sm.graph, hubs, pair_rows)


# ---------------------------------------------------------------------------
# brute-force oracle


def oracle_count_linked_pairs(
    emb: PLEmbedding, len1: int, len2: int, seed: int = 0
) -> OracleResult:
    """Independent check of any finder: enumerate every vertex-disjoint
    cycle pair of the given lengths and decide linkedness by cone counting
    with a sampled general-position apex.  No projections involved."""
    sm = _validated_smooth(emb)
    pairs = enumerate_disjoint_cycle_pairs(sm.graph, len1, len2)
    rng = SplitMix64(seed)
    linked = []
    for c1, c2 in pairs:
        p1 = cycle_route(sm, c1)
        p2 = cycle_route(sm, c2)
        if linking_mod2_sampled(p1, p2, rng) == 1:
            linked.append((c1, c2))
    return OracleResult(len(linked), tuple(linked), len(pairs))


def oracle_confirm(emb: PLEmbedding, report: LinkReport, seed: int = 0) -> LinkReport:
    """Re-check one report by cone counting and fill oracle_confirmed."""
    sm = _validated_smooth(emb)
    p1 = cycle_route(sm, report.cycle1)
    p2 = cycle_route(sm, report.cycle2)
    value = linking_mod2_sampled(p1, p2, SplitMix64(seed))
    return replace(report, oracle_confirmed=(value == report.lk_value))
