"""Graphs, cycles, spatial embeddings and planar drawings.

An embedding maps vertices to distinct points of space and edges to
pairwise non-crossing polyline routes; a drawing maps them to the plane and
allows routes to cross, as long as every contact is a transversal crossing
of exactly two sides at an interior point of both.  Validators return
structured violation lists instead of raising so that callers can report
all defects of an instance at once.
"""

from __future__ import annotations

from functools import reduce
from itertools import combinations
from math import perm
from operator import or_, xor
from typing import Iterable, Mapping, Sequence

from .errors import DrawingNotGeneral, EmbeddingInvalid, SearchExhausted
from .geometry import (
    OVERLAP,
    Point2,
    Point3,
    Segment2,
    _Record,
    _set,
    collinear3,
    dot2,
    dot3,
    key_point,
    meet_segments3,
    orient2d,
    point_on_segment3,
    seg_intersect2,
)
from .linking import SpatialPolyline, _Polyline

EdgeKey = tuple[str, str]


class Graph(_Record):
    """A finite simple graph with an explicit vertex order.

    The vertex order fixes every downstream canonical choice: edge keys are
    ordered by vertex index, edge lists are sorted, and "the first vertex"
    is well defined.  Build through `make_graph` or the factories below.
    """

    def __init__(self, vertices: tuple[str, ...], edges: tuple[EdgeKey, ...]):
        _set(self, "vertices", vertices)
        _set(self, "edges", edges)
        # lookup tables built once, bit k for edges[k] both ways; not fields, so outside ==, hash and repr
        _set(self, "_index", {v: i for i, v in enumerate(vertices)})
        _set(self, "_edge_bit", {e: 1 << k for k, (u, v) in enumerate(edges) for e in ((u, v), (v, u))})

    def index(self, v: str) -> int:
        try:
            return self._index[v]
        except KeyError:
            raise ValueError(f"{v!r} is not a vertex") from None

    def edge_key(self, u: str, v: str) -> EdgeKey:
        if u == v:
            raise ValueError("loops are not edges")
        return (u, v) if self.index(u) < self.index(v) else (v, u)

    def has_edge(self, u: str, v: str) -> bool:
        return self.edge_key(u, v) in self._edge_bit

    def neighbors(self, v: str) -> tuple[str, ...]:
        out = []
        for a, b in self.edges:
            if a == v:
                out.append(b)
            elif b == v:
                out.append(a)
        return tuple(sorted(out, key=self.index))

    def cycle_edges(self, cycle: "Cycle") -> tuple[EdgeKey, ...]:
        seq = cycle.vertices
        return tuple(self.edge_key(seq[i], seq[(i + 1) % len(seq)]) for i in range(len(seq)))

    def _edge_mask(self, edges: Iterable[tuple[str, str]]) -> int:
        """The bitmask of edges given as vertex pairs in either order."""
        try:
            return reduce(or_, [self._edge_bit[u, v] for u, v in edges], 0)
        except KeyError as ex:
            raise ValueError("({}, {}) is not an edge".format(*ex.args[0])) from None

    def _cycle_mask(self, seq: Sequence[str]) -> int:
        return self._edge_mask(zip(seq, seq[1:] + seq[:1]))


def make_graph(vertices: Sequence[str], edges: Iterable[tuple[str, str]]) -> Graph:
    verts = tuple(vertices)
    if len(set(verts)) != len(verts):
        raise ValueError("repeated vertex name")
    idx = {v: i for i, v in enumerate(verts)}
    seen: set[EdgeKey] = set()
    for u, v in edges:
        if u not in idx or v not in idx:
            raise ValueError(f"edge ({u}, {v}) uses an undeclared vertex")
        if u == v:
            raise ValueError(f"loop at {u}")
        key = (u, v) if idx[u] < idx[v] else (v, u)
        seen.add(key)
    ordered = tuple(sorted(seen, key=lambda e: (idx[e[0]], idx[e[1]])))
    return Graph(verts, ordered)


def complete_graph(n: int) -> Graph:
    verts = [f"v{i}" for i in range(1, n + 1)]
    return make_graph(verts, combinations(verts, 2))


def complete_bipartite(m: int, n: int) -> Graph:
    left = [f"a{i}" for i in range(1, m + 1)]
    right = [f"b{i}" for i in range(1, n + 1)]
    return make_graph(left + right, ((u, v) for u in left for v in right))


def bipartition(g: Graph) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Two-color a connected bipartite graph; the part holding the first
    vertex comes first.  Raises ValueError when the graph is not bipartite
    or not connected."""
    if not g.vertices:
        raise ValueError("empty graph")
    color: dict[str, int] = {g.vertices[0]: 0}
    queue = [g.vertices[0]]
    while queue:
        v = queue.pop(0)
        for w in g.neighbors(v):
            if w not in color:
                color[w] = 1 - color[v]
                queue.append(w)
            elif color[w] == color[v]:
                raise ValueError("graph is not bipartite")
    if len(color) != len(g.vertices):
        raise ValueError("graph is not connected")
    part0 = tuple(v for v in g.vertices if color[v] == 0)
    part1 = tuple(v for v in g.vertices if color[v] == 1)
    return part0, part1


def is_complete(g: Graph) -> bool:
    n = len(g.vertices)
    return len(g.edges) == n * (n - 1) // 2


def is_complete_bipartite(g: Graph, m: int, n: int) -> bool:
    try:
        p0, p1 = bipartition(g)
    except ValueError:
        return False
    if sorted((len(p0), len(p1))) != sorted((m, n)):
        return False
    return len(g.edges) == len(p0) * len(p1)


class Cycle(_Record):
    """A cycle as a canonical vertex sequence.

    Canonical form: the lexicographically least vertex comes first and the
    second vertex is the smaller of its two neighbors, so each cycle has
    exactly one representation regardless of rotation or direction.
    """

    def __init__(self, vertices: Sequence[str]):
        _set(self, "vertices", tuple(vertices))

    def __len__(self) -> int:
        return len(self.vertices)


def canonical_cycle_order(seq: Sequence[str]) -> tuple[str, ...]:
    seq = tuple(seq)
    start = seq.index(min(seq))
    rotated = seq[start:] + seq[:start]
    return rotated if rotated[1] <= rotated[-1] else rotated[:1] + rotated[:0:-1]


def make_cycle(g: Graph, seq: Sequence[str]) -> Cycle:
    seq = tuple(seq)
    if len(seq) < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    if len(set(seq)) != len(seq):
        raise ValueError("cycle repeats a vertex")
    g._cycle_mask(seq)  # ValueError at the first pair that is not an edge
    return Cycle(canonical_cycle_order(seq))


# walks or candidate cycle pairs past which the enumerations below raise
# SearchExhausted; on 2 CPUs, Python 3.11, a walk takes about 4 us and a
# disjoint pair 1.5 us to build (K11 7-cycles, K24 triangles): 10^7 take 40 s and 15 s
CYCLE_SEARCH_BUDGET = 10**7


def _within_budget(candidates: int, what: str) -> None:
    if candidates > CYCLE_SEARCH_BUDGET:
        raise SearchExhausted(f"{candidates} {what} exceed the budget of {CYCLE_SEARCH_BUDGET}")


def _bits(mask: int) -> list[int]:
    """The indices of the set bits of `mask`, in increasing order."""
    return [i for i, bit in enumerate(bin(mask)[:1:-1]) if bit == "1"]


def _xor_rows(rows: Sequence[int], mask: int) -> int:
    """The XOR of the rows at the set bits of `mask`."""
    return reduce(xor, [rows[k] for k in _bits(mask)], 0)


def enumerate_cycles(g: Graph, length: int) -> tuple[Cycle, ...]:
    """All cycles of the given length, canonical and sorted.

    Walks from each start vertex through vertices of larger index only, and
    closes a walk back to its start only past its second vertex, so each
    cycle is found once.  Refused past CYCLE_SEARCH_BUDGET walks of full
    length: perm(n, length) // length, the exact number on a complete graph
    and an upper bound on any other."""
    if length < 3:
        raise ValueError("cycle length must be at least 3")
    n = len(g.vertices)
    _within_budget(perm(n, length) // length, f"vertex orders for {length}-cycles")  # 0 past n
    near = [sum(1 << g.index(w) for w in g.neighbors(v)) for v in g.vertices]
    found = []

    def walk(path: list[int], used: int) -> None:
        ahead = near[path[-1]] & ~used
        if len(path) < length - 1:
            for w in _bits(ahead):
                walk(path + [w], used | 1 << w)
        else:  # the last vertex: a neighbour of the start, past the second vertex
            for w in _bits(ahead & near[path[0]] & ~((2 << path[1]) - 1)):
                found.append(Cycle(canonical_cycle_order([g.vertices[i] for i in path + [w]])))

    for start in range(n - length + 1):
        walk([start], (2 << start) - 1)  # the start and every smaller index
    return tuple(sorted(found, key=lambda c: c.vertices))


def _disjoint_pairs(g: Graph, len1: int, len2: int):
    """The cycles of the two lengths, and for each cycle of the first list
    the bitmask of the vertex-disjoint cycles of the second; with equal
    lengths the lists are one, and cycle i pairs only with j > i.  Refused
    past CYCLE_SEARCH_BUDGET candidate pairs."""
    same = len1 == len2
    first = enumerate_cycles(g, len1)
    second = first if same else enumerate_cycles(g, len2)
    _within_budget(len(first) * (len(first) - 1) // 2 if same else len(first) * len(second), "candidate cycle pairs")
    on = {v: sum(1 << j for j, c in enumerate(second) if v in c.vertices) for v in g.vertices}  # cycles through v
    everything = (1 << len(second)) - 1
    met = [reduce(or_, (on[v] for v in c.vertices), (2 << i) - 1 if same else 0) for i, c in enumerate(first)]
    return first, second, [everything & ~m for m in met]


def enumerate_disjoint_cycle_pairs(g: Graph, len1: int, len2: int) -> tuple[tuple[Cycle, Cycle], ...]:
    """All unordered pairs of vertex-disjoint cycles of the two lengths,
    out of at most CYCLE_SEARCH_BUDGET candidate pairs."""
    first, second, partners = _disjoint_pairs(g, len1, len2)
    return tuple((first[i], second[j]) for i, mask in enumerate(partners) for j in _bits(mask))


class Violation(_Record):
    def __init__(self, kind: str, message: str, subjects: tuple = ()):
        _set(self, "kind", kind)
        _set(self, "message", message)
        _set(self, "subjects", subjects)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "message": self.message, "subjects": list(map(str, self.subjects))}


# ---------------------------------------------------------------------------
# spatial embeddings


class _Placement(_Record):
    """A graph placed in space or the plane: positions plus an open polyline
    route per edge, oriented from the smaller-indexed endpoint.  Treat as
    immutable.  Subclasses name their polyline class."""

    def __init__(self, graph: Graph, position: dict, route: dict):
        _set(self, "graph", graph)
        _set(self, "position", position)
        _set(self, "route", route)

    def __eq__(self, other):
        # fields only, so a placement equals its checked copy; an embedding
        # never equals a drawing, not even of the empty graph
        if not isinstance(other, _Placement) or other._polyline is not self._polyline:
            return NotImplemented
        return (self.graph, self.position, self.route) == (other.graph, other.position, other.route)

    def __hash__(self):
        raise TypeError(f"{type(self).__name__} is not hashable")

    def route_chain(self, u: str, v: str) -> tuple:
        """Route vertices oriented from u to v."""
        key = self.graph.edge_key(u, v)
        pts = self.route[key].vertices
        return pts if key[0] == u else tuple(reversed(pts))


def _make(cls, graph: Graph, positions: Mapping, routes: Mapping | None):
    """A placement of class `cls` (`PLEmbedding` or `PlanarDrawing`), each
    edge's route normalized as `make_embedding` describes.  A function, not
    a classmethod, so no checked subclass is ever built unchecked."""
    pos = {v: positions[v] for v in graph.vertices}
    given: dict[EdgeKey, Sequence] = {}
    if routes:
        for (u, v), pts in routes.items():
            given[graph.edge_key(u, v)] = tuple(pts)
    built = {}
    for key in graph.edges:
        pu, pv = pos[key[0]], pos[key[1]]
        pts = list(given.get(key, ()))
        if not pts:
            chain = [pu, pv]
        else:
            if pts[0] != pu and pts[0] != pv and pts[-1] != pu and pts[-1] != pv:
                chain = [pu] + pts + [pv]  # interior points only
            else:
                chain = pts
            if chain[0] == pv and chain[-1] == pu:
                chain = list(reversed(chain))
            if chain[0] != pu or chain[-1] != pv:
                raise ValueError(f"route for {key} does not join its endpoint positions")
        built[key] = cls._polyline.through(chain)
    return cls(graph, pos, built)


class PLEmbedding(_Placement):
    """Piecewise-linear embedding: positions in space plus a SpatialPolyline
    route per edge."""

    _polyline = SpatialPolyline


def make_embedding(
    graph: Graph,
    positions: Mapping[str, Point3],
    routes: Mapping[tuple[str, str], Sequence[Point3]] | None = None,
) -> PLEmbedding:
    """Build an embedding; unspecified routes are straight segments.

    Route point sequences may be given in either orientation and may either
    include or omit the endpoint positions; straight-through interior
    points are dropped.  Structural errors (missing positions, routes whose
    ends match neither endpoint) raise ValueError; geometric violations are
    the business of `validate_embedding`.
    """
    return _make(PLEmbedding, graph, positions, routes)


def _check_vertices_and_routes(obj: _Placement) -> tuple[list[Violation], list[EdgeKey]]:
    """The checks an embedding and a drawing share: distinct vertex
    positions, and one open route per edge joining its endpoints.  Returns
    the violations and the edges whose routes the side sweeps can use."""
    out: list[Violation] = []
    g = obj.graph
    pos = obj.position

    by_point: dict = {}
    for v in g.vertices:
        by_point.setdefault(pos[v], []).append(v)
    for p, vs in by_point.items():
        if len(vs) > 1:
            out.append(Violation("coincident-vertices", f"vertices {vs} share a position", tuple(vs)))

    usable: list[EdgeKey] = []
    for key in g.edges:
        poly = obj.route.get(key)
        if poly is None:
            out.append(Violation("missing-route", f"edge {key} has no route", (key,)))
            continue
        if poly.closed:
            out.append(Violation("closed-route", f"edge {key} has a closed route", (key,)))
            continue
        if poly.vertices[0] != pos[key[0]] or poly.vertices[-1] != pos[key[1]]:
            out.append(Violation("route-endpoint-mismatch", f"route of {key} does not join its endpoints", (key,)))
        usable.append(key)
    return out, usable


def _labelled_sides(obj: _Placement, usable: list[EdgeKey]) -> list[tuple]:
    """Every side of the usable routes as (edge, index, segment, ends), in
    edge order.  `ends` holds the endpoints of the edge at which this side
    is the route's terminal side: the route starts at the vertex's position,
    or ends there without starting there."""
    out = []
    for key in usable:
        verts = obj.route[key].vertices
        sides = obj.route[key].sides()
        ends = [frozenset()] * len(sides)
        ends[0] = frozenset(x for x in key if obj.position[x] == verts[0])
        ends[-1] |= frozenset(x for x in key if obj.position[x] == verts[-1]) - ends[0]
        out.extend((key, i, s, ends[i]) for i, s in enumerate(sides))
    return out


def _box_pairs(ends: Sequence[tuple]) -> list[tuple[int, int]]:
    """The index pairs (a, b), a < b, of the (p, q) point pairs whose closed
    axis-aligned boxes meet, in lexicographic order; a segment is given by
    its endpoints, a point as (p, p).  Sort and prune (Bentley and Ottmann,
    IEEE TC 1979): with the boxes sorted by least x, each is paired only
    with those that start before it ends, and kept where the y- and
    z-ranges meet too (a planar box has the z-range [0, 0])."""
    boxes = []
    for a, (p, q) in enumerate(ends):
        ranges = [sorted(c) for c in zip(p.coords(), q.coords())] + [[0, 0]]
        boxes.append((*ranges[0], *ranges[1], *ranges[2], a))
    boxes.sort()
    pairs = []
    for k, (_, x1, y0, y1, z0, z1, a) in enumerate(boxes):
        for x0b, _, y0b, y1b, z0b, z1b, b in boxes[k + 1 :]:
            if x0b > x1:
                break
            if y0b <= y1 and y0 <= y1b and z0b <= z1 and z0 <= z1b:
                pairs.append((a, b) if a < b else (b, a))
    pairs.sort()
    return pairs


def validate_embedding(emb: PLEmbedding) -> tuple[Violation, ...]:
    """Geometric validation: distinct positions, routes meeting only at
    shared endpoint positions, no route through a foreign vertex."""
    g = emb.graph
    pos = emb.position
    out, usable = _check_vertices_and_routes(emb)
    sides = _labelled_sides(emb, usable)
    n = len(sides)
    # the vertices join the sweep as one-point boxes, after the sides
    boxed = _box_pairs([(s[2].p, s[2].q) for s in sides] + [(pos[w], pos[w]) for w in g.vertices])
    rank = {key: k for k, key in enumerate(usable)}
    # reported route by route, then vertex by vertex, then side by side
    for _, b, a in sorted((rank[sides[a][0]], b, a) for a, b in boxed if a < n <= b):
        key, w = sides[a][0], g.vertices[b - n]
        if w not in key and point_on_segment3(pos[w], sides[a][2]):
            out.append(Violation("vertex-on-route", f"route of {key} passes through vertex {w}", (key, w)))

    pairs = [(a, b) for a, b in boxed if b < n and sides[a][0] != sides[b][0]]
    # reported route pair by route pair, then side by side
    pairs.sort(key=lambda ab: (rank[sides[ab[0]][0]], rank[sides[ab[1]][0]], ab))
    for a, b in pairs:
        e1, i1, s1, ends1 = sides[a]
        e2, i2, s2, ends2 = sides[b]
        if ends1 & ends2:
            # terminal sides at a shared vertex meet there, and elsewhere
            # only if they leave it along one ray
            p = pos[next(iter(ends1 & ends2))]
            u = s1.q if s1.p == p else s1.p
            w = s2.q if s2.p == p else s2.p
            if not (collinear3(p, u, w) and dot3(u - p, w - p) > 0):
                continue
            m = OVERLAP
        else:
            m = meet_segments3(s1, s2)
        if not m:
            continue
        if m is OVERLAP:
            out.append(Violation("routes-overlap", f"routes of {e1} and {e2} overlap", (e1, e2, i1, i2)))
            continue
        kind = "routes-cross" if set(e1).isdisjoint(e2) else "adjacent-routes-meet-off-vertex"
        out.append(Violation(kind, f"routes of {e1} and {e2} meet away from a shared vertex", (e1, e2, i1, i2)))
    return tuple(out)


class ValidEmbedding(PLEmbedding):
    """An embedding that has passed `validate_embedding`.  Only
    `require_valid` builds one from raw input, with its own copies of the
    position and route dicts."""

    def replace(self, **changes) -> "ValidEmbedding":
        """The changed copy, validated again."""
        return require_valid(PLEmbedding(self.graph, self.position, self.route).replace(**changes))


def require_valid(emb: PLEmbedding) -> ValidEmbedding:
    """Validate an embedding once and carry the result as a type.

    Returns a ValidEmbedding argument unchanged; otherwise raises
    EmbeddingInvalid listing every violation, or returns a validated copy.
    """
    if isinstance(emb, ValidEmbedding):
        return emb
    violations = validate_embedding(emb)
    if violations:
        raise EmbeddingInvalid(f"{len(violations)} embedding violations", violations)
    return ValidEmbedding(emb.graph, dict(emb.position), dict(emb.route))


def smooth(emb: PLEmbedding) -> ValidEmbedding:
    """Validate an embedding as `require_valid` does, then undo
    subdivisions: absorb the last-listed degree-2 vertex whose two
    neighbors are not adjacent, joining its two routes, until none is left
    (a triangle stays a triangle).  The carrier stays, so the result is
    valid.  Absorbing keeps every other degree, so the degree-2 vertices are
    found once.  A subdivision that lists its new vertices after the
    original ones smooths back to the original vertices, even when the
    whole graph is one cycle."""
    emb = require_valid(emb)
    g = emb.graph
    adj: dict[str, set[str]] = {v: set() for v in g.vertices}
    chain: dict[EdgeKey, tuple[Point3, ...]] = {}  # both orientations
    for u, x in g.edges:
        adj[u].add(x)
        adj[x].add(u)
        chain[u, x] = emb.route[u, x].vertices
        chain[x, u] = chain[u, x][::-1]
    candidates = [w for w in reversed(g.vertices) if len(adj[w]) == 2]
    while True:
        for w in candidates:
            u, x = adj[w]
            if x not in adj[u]:
                break
        else:
            break
        candidates.remove(w)
        del adj[w]
        for a, b in ((u, x), (x, u)):
            adj[a].remove(w)
            adj[a].add(b)
        chain[u, x] = chain.pop((u, w))[:-1] + chain.pop((w, x))
        chain[x, u] = chain[u, x][::-1]
        del chain[w, u], chain[x, w]
    core = make_graph([v for v in g.vertices if v in adj], chain)
    # an edge of `g` that is still there was never merged
    route = {
        key: emb.route[key] if g.has_edge(*key) else SpatialPolyline.through(chain[key])
        for key in core.edges
    }
    return ValidEmbedding(core, {v: emb.position[v] for v in core.vertices}, route)


def cycle_route(emb: PLEmbedding, cycle: Cycle) -> SpatialPolyline:
    """The closed polygon traced by a cycle's edge routes."""
    points: list[Point3] = []
    seq = cycle.vertices
    for i in range(len(seq)):
        chain = emb.route_chain(seq[i], seq[(i + 1) % len(seq)])
        points.extend(chain[:-1])
    return SpatialPolyline.through(points, closed=True)


# ---------------------------------------------------------------------------
# planar drawings


class PlanarPolyline(_Polyline):
    """A broken line in the plane.  Unlike its spatial counterpart it may
    cross itself: drawings represent maps, not embeddings."""

    _segment = Segment2

    @staticmethod
    def _straight(u: Point2, v: Point2, w: Point2) -> bool:
        return orient2d(u, v, w) == 0


class PlanarDrawing(_Placement):
    """A drawing of a graph: positions in the plane plus a PlanarPolyline
    route per edge."""

    _polyline = PlanarPolyline


def make_drawing(
    graph: Graph,
    positions: Mapping[str, Point2],
    routes: Mapping[tuple[str, str], Sequence[Point2]] | None = None,
) -> PlanarDrawing:
    """Build a drawing; unspecified routes are straight segments."""
    return _make(PlanarDrawing, graph, positions, routes)


class Crossing(_Record):
    """A transversal crossing of sides of two distinct edge routes at the point
    `key_point(key)`.  `disjoint` records whether the two edges share no graph
    vertex; `upper` names the edge whose strand passes over, when known."""

    def __init__(
        self, edge1: EdgeKey, edge2: EdgeKey, side1: int, side2: int,
        key: tuple[int, int, int], disjoint: bool, upper: EdgeKey | None = None,
    ):
        _set(self, "edge1", edge1)
        _set(self, "edge2", edge2)
        _set(self, "side1", side1)
        _set(self, "side2", side2)
        _set(self, "key", key)
        _set(self, "disjoint", disjoint)
        _set(self, "upper", upper)


def _scan_drawing(d: PlanarDrawing):
    """The sweep behind `validate_drawing` and `require_generic`, over the
    side pairs whose boxes meet.  Returns (violations, raw transversal
    crossings as (edge1, i1, edge2, i2, key of the point))."""
    out, usable = _check_vertices_and_routes(d)
    sides = _labelled_sides(d, usable)

    crossings: list[tuple[EdgeKey, int, EdgeKey, int, tuple]] = []
    for a, b in _box_pairs([(s[2].p, s[2].q) for s in sides]):
        e1, i1, s1, ends1 = sides[a]
        e2, i2, s2, ends2 = sides[b]
        if e1 == e2 and abs(i1 - i2) == 1:
            continue  # adjacent sides of one route share their corner
        at_vertex = ends1 & ends2  # empty for two sides of one route
        if at_vertex:
            # terminal sides at a shared vertex meet there, and elsewhere
            # only if they overlap
            p = d.position[next(iter(at_vertex))]
        else:
            r = seg_intersect2(s1, s2)
            if r is None:
                continue
            if isinstance(r, tuple):
                crossings.append((e1, i1, e2, i2, r))
                continue
            common = {s1.p, s1.q} & {s2.p, s2.q}
            if not common:
                out.append(
                    Violation(
                        "degenerate-contact",
                        f"{e1}[{i1}] and {e2}[{i2}] meet at an endpoint of one inside the other, or overlap",
                        (e1, e2, i1, i2),
                    )
                )
                continue
            p = common.pop()
        # a contact at a common end p, classified by the far ends
        u = s1.q if s1.p == p else s1.p
        w = s2.q if s2.p == p else s2.p
        if u == w:
            out.append(Violation("sides-identical", f"{e1}[{i1}] and {e2}[{i2}] coincide", (e1, e2, i1, i2)))
        elif orient2d(p, u, w) == 0 and dot2(u - p, w - p) > 0:
            out.append(Violation("sides-overlap", f"{e1}[{i1}] and {e2}[{i2}] overlap", (e1, e2, i1, i2)))
        elif e1 == e2:
            out.append(Violation("route-revisits-point", f"route of {e1} revisits {p.coords()}", (e1, i1, i2)))
        elif not at_vertex:
            out.append(Violation("routes-touch", f"routes of {e1} and {e2} touch at {p.coords()}", (e1, e2, i1, i2)))

    at_key: dict[tuple, list[tuple]] = {}
    for rec in crossings:
        at_key.setdefault(rec[4], []).append(rec)
    for key, recs in at_key.items():
        if len(recs) > 1:
            involved = tuple(sorted({(r[0], r[1]) for r in recs} | {(r[2], r[3]) for r in recs}))
            p = key_point(key)
            out.append(Violation("triple-point", f"three or more sides pass through {p.coords()}", involved))

    return tuple(out), tuple(crossings)


def validate_drawing(d: PlanarDrawing) -> tuple[Violation, ...]:
    """General-position validation: every contact between route sides is a
    transversal crossing of exactly two sides, interior to both; routes may
    meet endpoint-to-endpoint only at a shared graph vertex."""
    return _scan_drawing(d)[0]


class GenericDrawing(PlanarDrawing):
    """A drawing that has passed `validate_drawing`, carrying the crossings
    found by that same sweep.  Only `require_generic` builds one from raw
    input, with its own copies of the position and route dicts."""

    def __init__(self, graph: Graph, position: dict, route: dict, crossings: tuple[Crossing, ...]):
        super().__init__(graph, position, route)
        _set(self, "crossings", crossings)

    def replace(self, **changes) -> "GenericDrawing":
        """The changed copy, swept again: the crossings are the sweep's."""
        return require_generic(PlanarDrawing(self.graph, self.position, self.route).replace(**changes))


def require_generic(d: PlanarDrawing) -> GenericDrawing:
    """Sweep a drawing once and carry the result as a type.

    Returns a GenericDrawing argument unchanged; otherwise raises
    DrawingNotGeneral listing every violation, or returns a generic copy
    holding every transversal crossing between sides of distinct edge
    routes, in a deterministic order.  Crossings of adjacent edges are
    included and distinguished by the `disjoint` flag; self-crossings of a
    single route are not listed.
    """
    if isinstance(d, GenericDrawing):
        return d
    violations, raw = _scan_drawing(d)
    if violations:
        raise DrawingNotGeneral(f"{len(violations)} general-position violations", violations)
    idx = {v: i for i, v in enumerate(d.graph.vertices)}
    out = []
    for e1, i1, e2, i2, key in raw:
        if e1 == e2:
            continue
        if (idx[e1[0]], idx[e1[1]]) > (idx[e2[0]], idx[e2[1]]):
            e1, e2, i1, i2 = e2, e1, i2, i1
        disjoint = not (set(e1) & set(e2))
        out.append(Crossing(e1, e2, i1, i2, key, disjoint))
    out.sort(key=lambda c: (idx[c.edge1[0]], idx[c.edge1[1]], idx[c.edge2[0]], idx[c.edge2[1]], c.side1, c.side2))
    return GenericDrawing(d.graph, dict(d.position), dict(d.route), tuple(out))


def extract_crossings(d: PlanarDrawing) -> tuple[Crossing, ...]:
    """The crossings `require_generic` finds; a GenericDrawing is not
    swept again."""
    return require_generic(d).crossings
