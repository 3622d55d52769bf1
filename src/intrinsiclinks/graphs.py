"""Graphs, cycles, spatial embeddings and planar drawings.

An embedding maps vertices to distinct points of space and edges to
pairwise non-crossing polyline routes; a drawing maps them to the plane and
allows routes to cross, as long as every contact is a transversal crossing
of exactly two sides at an interior point of both.  Validators return
structured violation lists instead of raising so that callers can report
all defects of an instance at once.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, reduce
from itertools import chain, combinations, repeat
from math import lcm, perm
from operator import or_
from typing import Iterable, Mapping, Sequence

from .errors import DrawingNotGeneral, EmbeddingInvalid, SearchExhausted
from .geometry import (
    NON_GENERIC,
    OVERLAP,
    Point2,
    Point3,
    _Record,
    _box,
    _box_pairs,
    _collinear2,
    _collinear3,
    _meet2,
    _meet3,
    _on_side3,
    _set,
    key_point,
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

    def cycle_edges(self, cycle: "Cycle") -> tuple[EdgeKey, ...]:
        seq = cycle.vertices
        return tuple(self.edge_key(seq[i], seq[(i + 1) % len(seq)]) for i in range(len(seq)))

    def _edge_mask(self, edges: Iterable[tuple[str, str]]) -> int:
        """The bitmask of edges given as vertex pairs in either order."""
        bit, mask = self._edge_bit, 0
        try:
            for u, v in edges:
                mask |= bit[u, v]
        except KeyError as ex:
            raise ValueError("({}, {}) is not an edge".format(*ex.args[0])) from None
        return mask


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
    near: dict[str, list[str]] = {v: [] for v in g.vertices}
    for u, v in g.edges:
        near[u].append(v)
        near[v].append(u)
    color: dict[str, int] = {g.vertices[0]: 0}
    queue = [g.vertices[0]]
    for v in queue:  # breadth first: the queue grows behind the loop
        for w in near[v]:
            if w not in color:
                color[w] = 1 - color[v]
                queue.append(w)
            elif color[w] == color[v]:
                raise ValueError("graph is not bipartite")
    if len(color) != len(g.vertices):
        raise ValueError("graph is not connected")
    return tuple(v for v in g.vertices if color[v] == 0), tuple(v for v in g.vertices if color[v] == 1)


def is_complete(g: Graph) -> bool:
    n = len(g.vertices)
    return len(g.edges) == n * (n - 1) // 2


def is_complete_bipartite(g: Graph, m: int, n: int) -> bool:
    try:
        p0, p1 = bipartition(g)
    except ValueError:
        return False
    return sorted((len(p0), len(p1))) == sorted((m, n)) and len(g.edges) == len(p0) * len(p1)


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


def _cycle(g: Graph, seq: Sequence[str]) -> tuple[tuple[str, ...], int]:
    """The cycle through `seq` as its canonical vertex order, that of
    `Cycle`, and its edge bitmask."""
    seq = tuple(seq)
    if len(seq) < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    if len(set(seq)) != len(seq):
        raise ValueError("cycle repeats a vertex")
    mask = g._edge_mask(zip(seq, seq[1:] + seq[:1]))  # ValueError at the first pair that is not an edge
    start = seq.index(min(seq))
    seq = seq[start:] + seq[:start]
    return (seq if seq[1] <= seq[-1] else seq[:1] + seq[:0:-1]), mask


def make_cycle(g: Graph, seq: Sequence[str]) -> Cycle:
    return Cycle(_cycle(g, seq)[0])


# walks or candidate cycle pairs past which the enumerations below raise
# SearchExhausted; on 2 CPUs, Python 3.11, a walk takes about 1.4 us and a
# disjoint pair 0.8 us to build (K11 7-cycles, K24 triangles): 10^7 take 14 s and 8 s
CYCLE_SEARCH_BUDGET = 10**7


def _within_budget(candidates: int, what: str) -> None:
    if candidates > CYCLE_SEARCH_BUDGET:
        raise SearchExhausted(f"{candidates} {what} exceed the budget of {CYCLE_SEARCH_BUDGET}")


def _bits(mask: int) -> list[int]:
    """The indices of the set bits of `mask`, in increasing order, in one pass over its binary digits."""
    return [i for i, digit in enumerate(bin(mask)[:1:-1]) if digit == "1"]


def _xor_rows(rows: Sequence[int], mask: int) -> int:
    """The XOR of the rows at the set bits of `mask`."""
    acc = 0
    while mask:
        low = mask & -mask
        acc ^= rows[low.bit_length() - 1]
        mask ^= low
    return acc


def _cycle_walk(g: Graph, length: int) -> list[tuple[tuple[int, ...], int]]:
    """Each cycle of the given length once, in the order of `enumerate_cycles`,
    as (path, edge bitmask), where the path lists ranks of the vertex names.

    Walks from each start rank through larger ranks only, and closes a walk
    back to its start only past its second vertex, so each path is in the
    canonical order of `Cycle` and the depth-first walk meets them sorted.
    Refused past CYCLE_SEARCH_BUDGET walks of full length: perm(n, length)
    // length, the exact number on a complete graph and an upper bound on
    any other."""
    if length < 3:
        raise ValueError("cycle length must be at least 3")
    n = len(g.vertices)
    _within_budget(perm(n, length) // length, f"vertex orders for {length}-cycles")  # 0 past n
    rank = {v: r for r, v in enumerate(sorted(g.vertices))}
    bit = {(rank[u], rank[v]): b for (u, v), b in g._edge_bit.items()}  # both orientations
    near = [0] * n
    for a, b in bit:
        near[a] |= 1 << b
    found = []

    def walk(path: tuple, used: int, edges: int) -> None:
        last = path[-1]
        ahead = near[last] & ~used
        if len(path) < length - 1:
            for w in _bits(ahead):
                walk(path + (w,), used | 1 << w, edges | bit[last, w])
        else:  # the last vertex: a neighbour of the start, past the second vertex
            for w in _bits(ahead & near[path[0]] & ~((2 << path[1]) - 1)):
                found.append((path + (w,), edges | bit[last, w] | bit[w, path[0]]))

    for start in range(n - length + 1):
        walk((start,), (2 << start) - 1, 0)  # the start and every smaller rank
    return found


def enumerate_cycles(g: Graph, length: int) -> tuple[Cycle, ...]:
    """All cycles of the given length, canonical and sorted, out of at most
    CYCLE_SEARCH_BUDGET walks of full length."""
    names = sorted(g.vertices)
    return tuple(Cycle([names[r] for r in path]) for path, _ in _cycle_walk(g, length))


def _disjoint_pairs(g: Graph, len1: int, len2: int):
    """The walked cycles of the two lengths, and for each cycle of the first
    list the bitmask of the vertex-disjoint cycles of the second; with equal
    lengths the lists are one, and cycle i pairs only with j > i.  Refused
    past CYCLE_SEARCH_BUDGET candidate pairs."""
    same = len1 == len2
    first = _cycle_walk(g, len1)
    second = first if same else _cycle_walk(g, len2)
    _within_budget(len(first) * (len(first) - 1) // 2 if same else len(first) * len(second), "candidate cycle pairs")
    on = [0] * len(g.vertices)  # the cycles of the second list through each rank
    for j, (path, _) in enumerate(second):
        for r in path:
            on[r] |= 1 << j
    everything = (1 << len(second)) - 1
    met = [reduce(or_, [on[r] for r in path], (2 << i) - 1 if same else 0) for i, (path, _) in enumerate(first)]
    return first, second, [everything & ~m for m in met]


def _cycle_pairs(g: Graph, first, second, masks) -> tuple[tuple[Cycle, Cycle], ...]:
    """The pairs of walked cycles (first[i], second[j]) for the set bits j
    of masks[i], as `Cycle` records, each built once, on first use."""
    names = sorted(g.vertices)
    record = cache(lambda path: Cycle([names[r] for r in path]))
    theirs = {j: record(second[j][0]) for j in _bits(reduce(or_, masks, 0))}
    out = []
    for (path, _), mask in zip(first, masks):
        if mask:
            mine = record(path)
            out += [(mine, theirs[j]) for j in _bits(mask)]
    return tuple(out)


def enumerate_disjoint_cycle_pairs(g: Graph, len1: int, len2: int) -> tuple[tuple[Cycle, Cycle], ...]:
    """All unordered pairs of vertex-disjoint cycles of the two lengths,
    out of at most CYCLE_SEARCH_BUDGET candidate pairs."""
    return _cycle_pairs(g, *_disjoint_pairs(g, len1, len2))


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
        if not pts or pts[0] != pu and pts[0] != pv and pts[-1] != pu and pts[-1] != pv:
            pts = [pu, *pts, pv]  # none given, or interior points only
        if pts[0] == pv and pts[-1] == pu:
            pts.reverse()
        if pts[0] != pu or pts[-1] != pv:
            raise ValueError(f"route for {key} does not join its endpoint positions")
        built[key] = cls._polyline.through(pts)
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


def _coordinates(obj: _Placement) -> tuple[dict, dict]:
    """A placement as its sweep reads it: each vertex's coordinates, and
    each route as a tuple of its points' coordinates, or as None when it is closed."""
    chains = {key: None if r.closed else tuple([p.coords() for p in r.vertices]) for key, r in obj.route.items()}
    return {v: obj.position[v].coords() for v in obj.graph.vertices}, chains


def _side_table(g: Graph, where: Mapping, chains: Mapping) -> tuple[list, list[EdgeKey], list[tuple], list[tuple]]:
    """The checks an embedding and a drawing share, and the table of sides
    their sweeps read, from a placement of `g` as `_coordinates` reads it.
    Checks that the vertex positions are distinct and that each edge has one
    open route joining its endpoints.  Returns the violations, the edges
    whose routes the sweeps can use, every side of those routes as (edge,
    index, ends, coordinates) in edge order, and the closed box of each
    side.  `ends` is the bitmask, by vertex index, of the edge's endpoints
    at which the side is the route's terminal side: the route starts at the
    vertex's position, or ends there without starting there.  `coordinates`
    are those of the side's two ends, p's then q's."""
    out: list[Violation] = []
    by_point: dict = {}
    for v in g.vertices:
        by_point.setdefault(where[v], []).append(v)
    for vs in by_point.values():
        if len(vs) > 1:
            out.append(Violation("coincident-vertices", f"vertices {vs} share a position", tuple(vs)))

    usable: list[EdgeKey] = []
    sides, boxes = [], []
    for key in g.edges:
        at = chains.get(key, ())
        if not at:
            kind, what = ("missing-route", "no route") if at == () else ("closed-route", "a closed route")
            out.append(Violation(kind, f"edge {key} has {what}", (key,)))
            continue
        (u, v), first, last = key, at[0], at[-1]
        if first != where[u] or last != where[v]:
            out.append(Violation("route-endpoint-mismatch", f"route of {key} does not join its endpoints", (key,)))
        usable.append(key)
        bu, bv = 1 << g._index[u], 1 << g._index[v]
        ends = [0] * (len(at) - 1)
        ends[0] = bu * (where[u] == first) | bv * (where[v] == first)
        ends[-1] |= (bu * (where[u] == last) | bv * (where[v] == last)) & ~ends[0]
        for i in range(len(at) - 1):
            p, q = at[i], at[i + 1]
            sides.append((key, i, ends[i], p + q))
            boxes.append(_box(p, q))
    return out, usable, sides, boxes


def validate_embedding(emb: PLEmbedding) -> tuple[Violation, ...]:
    """Geometric validation: distinct positions, routes meeting only at
    shared endpoint positions, no route through a foreign vertex.  One box
    sweep, the vertices as points after the sides, settles most side pairs by
    a sign in its loop; only the contacts it reports are sorted."""
    return _validation(emb)[0]


def _validation(emb: PLEmbedding) -> tuple[tuple[Violation, ...], dict, dict, int]:
    """`validate_embedding`'s violations, the `_coordinates` its sweep read, each point once, scaled to integers
    by the lcm of their denominators (no message names a coordinate; integer input is not rescaled), and that lcm."""
    g = emb.graph
    where, chains = _coordinates(emb)
    routes, scale = [r for r in chains.values() if r], 1
    # one pass in C over integer input, which is not rescaled; it stops at the first Fraction
    if not all(map(isinstance, chain.from_iterable(chain(where.values(), *routes)), repeat(int))):
        scale = lcm(*{c.denominator for p in chain(where.values(), *routes) for c in p})

        def scaled(p):  # a uniform positive scale moves no sign
            return tuple([c.numerator * (scale // c.denominator) for c in p])

        where, chains = {v: scaled(p) for v, p in where.items()}, {k: r and tuple(map(scaled, r)) for k, r in chains.items()}
    out, usable, sides, boxes = _side_table(g, where, chains)
    n, rank = len(sides), {key: k for k, key in enumerate(usable)}
    on, met = [], []  # reported by route, vertex and side, then by route pair and side pair, with `_meet3`'s m
    for a, near in _box_pairs(boxes + [_box(c, c) for c in where.values()]):
        if a < n:
            e1, _, ends1, (ax, ay, az, bx, by, bz) = sides[a]
            ux, uy, uz = bx - ax, by - ay, bz - az
        for b in near:
            if a >= n or b >= n:  # a vertex, against a side unless both are vertices
                s, v = (a, b) if a < b else (b, a)
                if s < n and (w := g.vertices[v - n]) not in sides[s][0] and _on_side3(where[w], sides[s][3]):
                    on.append((rank[sides[s][0]], v, s))
                continue
            e2, _, ends2, (cx, cy, cz, dx, dy, dz) = sides[b]
            if e1 == e2:
                continue
            vx, vy, vz = dx - cx, dy - cy, dz - cz
            wx, wy, wz = uy * vz - uz * vy, uz * vx - ux * vz, ux * vy - uy * vx
            if ends1 & ends2:
                if wx or wy or wz:
                    continue  # terminal sides not parallel meet only at their shared vertex
            elif (cx - ax) * wx + (cy - ay) * wy + (cz - az) * wz:
                continue  # skew lines share no point, `_meet3`'s first test
            m = _meet3(sides[a][3], sides[b][3])
            if m is OVERLAP or m and not ends1 & ends2:  # parallel terminal sides meet at their vertex
                met.append((rank[e1], rank[e2], a, b, m) if a < b else (rank[e2], rank[e1], b, a, m))
    for _, v, s in sorted(on):
        key, w = sides[s][0], g.vertices[v - n]
        out.append(Violation("vertex-on-route", f"route of {key} passes through vertex {w}", (key, w)))
    for _, _, a, b, m in sorted(met):
        (e1, i1), (e2, i2) = sides[a][:2], sides[b][:2]
        kind = "routes-cross" if set(e1).isdisjoint(e2) else "adjacent-routes-meet-off-vertex"
        kind, what = ("routes-overlap", "overlap") if m is OVERLAP else (kind, "meet away from a shared vertex")
        out.append(Violation(kind, f"routes of {e1} and {e2} {what}", (e1, e2, i1, i2)))
    return tuple(out), where, chains, scale


class ValidEmbedding(PLEmbedding):
    """An embedding that has passed `validate_embedding`, built only by `require_valid`, with its own copies of
    the position and route dicts, and by `smooth`.  Both set `_core`, not a field, so outside ==, hash and repr:
    the core graph, its vertices' and routes' coordinates (from key[0], in `graph.edges` order) times m, and m."""

    def replace(self, **changes) -> "ValidEmbedding":
        """The changed copy, validated again, with a core of its own."""
        return require_valid(PLEmbedding(self.graph, self.position, self.route).replace(**changes))


def require_valid(emb: PLEmbedding) -> ValidEmbedding:
    """Validate an embedding once and carry the result as a type.

    Returns a ValidEmbedding argument unchanged; otherwise raises
    EmbeddingInvalid listing every violation, or returns a validated copy,
    which smooths once, on the coordinates the sweep read, as it is built.
    """
    if isinstance(emb, ValidEmbedding):
        return emb
    where, chains, m = _validated(emb)
    valid = ValidEmbedding(emb.graph, dict(emb.position), dict(emb.route))
    _set(valid, "_core", (*_core_of(emb.graph, where, chains), m))
    return valid


def _validated(emb: PLEmbedding) -> tuple[dict, dict, int]:
    """`_validation`'s coordinates and scale of an embedding that passes it; else EmbeddingInvalid listing each violation."""
    violations, where, chains, m = _validation(emb)
    if violations:
        raise EmbeddingInvalid(f"{len(violations)} embedding violations", violations)
    return where, chains, m


def _core_of(g: Graph, where: dict, route: dict) -> tuple[Graph, dict, tuple[tuple[tuple, ...], ...]]:
    """`smooth` of a valid embedding on the coordinates `_validation` read, building no record but
    the core graph: that graph (`g` itself when nothing is absorbed), its vertices' coordinates and
    each core edge's route points, in `graph.edges` order from key[0].  Absorbing keeps degrees and a
    blocked vertex blocked, so one pass absorbs; one walk per core edge then drops each junction where
    it runs straight.  No second check: validated routes u-w and w-x meet only at w, so their join is
    simple, and only w can run straight there, so every corner is a validated route's; the carrier
    stays, so disjoint cycles keep disjoint routes."""
    near: dict[str, list[str]] = {v: [] for v in g.vertices}
    for u, x in g.edges:
        near[u].append(x)
        near[x].append(u)
    adj = {v: set(ns) for v, ns in near.items()}
    for w in reversed(g.vertices):
        if len(near[w]) == 2:
            u, x = adj[w]
            if x not in adj[u]:
                del adj[w]
                adj[u] ^= {w, x}  # w out, x in: it was not a neighbour
                adj[x] ^= {w, u}
    if len(adj) == len(g.vertices):
        return g, where, tuple(route[key] for key in g.edges)
    at, chains = g._index, {}
    for u in adj:
        for w in near[u]:
            path = [u, w]
            while path[-1] not in adj:  # absorbed: on to its other neighbour
                path += [x for x in near[path[-1]] if x != path[-2]]
            if at[u] > at[path[-1]]:
                continue  # the walk from the other end joins this edge
            points = []
            for a, b in zip(path, path[1:]):
                more = route[a, b] if (a, b) in route else route[b, a][::-1]
                if points and _collinear3(points[-2], points[-1], more[1]):
                    points.pop()  # the junction a, where the walk runs straight
                points += more[1:] if points else more
            chains[u, path[-1]] = tuple(points)
    core = Graph(tuple(adj), tuple(sorted(chains, key=lambda e: (at[e[0]], at[e[1]]))))  # as `make_graph` orders
    return core, {v: where[v] for v in core.vertices}, tuple(chains[key] for key in core.edges)


def smooth(emb: PLEmbedding) -> ValidEmbedding:
    """Validate an embedding as `require_valid` does, then undo subdivisions:
    absorb the last-listed degree-2 vertex whose two neighbors are not
    adjacent, joining its two routes, until none is left (a triangle stays a
    triangle), so a subdivision listing its new vertices last smooths back to
    the original vertices, even when the graph is one cycle.  With nothing to
    absorb the validated input itself is returned; else a copy built from it and
    its core, which it carries: each merged route is valid as `_core_of` argues."""
    emb = require_valid(emb)
    core, _, chains, m = emb._core
    if core is emb.graph:
        return emb
    # an edge of the input that is still there was never merged; a merged route's points are the core's over m
    route = {key: emb.route[key] if key in emb.route else SpatialPolyline(
        [Point3(*p) if m == 1 else Point3(*(Fraction(c, m) for c in p)) for p in points])
        for key, points in zip(core.edges, chains)}
    valid = ValidEmbedding(core, {v: emb.position[v] for v in core.vertices}, route)
    _set(valid, "_core", emb._core)
    return valid


# ---------------------------------------------------------------------------
# planar drawings


class PlanarPolyline(_Polyline):
    """A broken line in the plane.  Unlike its spatial counterpart it may
    cross itself: drawings represent maps, not embeddings."""

    @staticmethod
    def _straight(u: Point2, v: Point2, w: Point2) -> bool:
        return _collinear2(u.coords(), v.coords(), w.coords())


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
    `key_point(key)`; `upper` names the edge whose strand passes over, when known."""

    def __init__(
        self, edge1: EdgeKey, edge2: EdgeKey, side1: int, side2: int,
        key: tuple[int, int, int], upper: EdgeKey | None = None,
    ):
        _set(self, "edge1", edge1)
        _set(self, "edge2", edge2)
        _set(self, "side1", side1)
        _set(self, "side2", side2)
        _set(self, "key", key)
        _set(self, "upper", upper)


def _scan_drawing(g: Graph, where: Mapping, chains: Mapping):
    """The sweep behind `validate_drawing`, `require_generic`, the van Kampen
    parity of a plain drawing and the orthogonal projection, over the side
    pairs whose boxes meet, read off one side table, less those a sign test
    shows to have no contact to report.  Returns (violations, raw transversal
    crossings as (edge1, i1, edge2, i2, key of the point)), in side-pair order."""
    out, _, sides, boxes = _side_table(g, where, chains)

    pairs = []  # the pairs the sign tests below leave, with no call; only these are sorted and classified
    for a, near in _box_pairs(boxes):
        e1, i1, ends1, (ax, ay, bx, by) = sides[a]
        ux, uy = bx - ax, by - ay
        for b in near:
            e2, i2, ends2, (cx, cy, dx, dy) = sides[b]
            if ends1 & ends2 and ux * (dy - cy) != uy * (dx - cx) or e1 == e2 and abs(i1 - i2) == 1:
                continue  # non-parallel terminal sides meet only at their shared vertex, adjacent ones at their corner
            if (ux * (cy - ay) - uy * (cx - ax)) * (ux * (dy - ay) - uy * (dx - ax)) > 0:
                continue  # both ends of b strictly on one side of a's line, `_meet2`'s first test
            pairs.append((a, b) if a < b else (b, a))
    pairs.sort()

    crossings: list[tuple[EdgeKey, int, EdgeKey, int, tuple]] = []
    for a, b in pairs:
        e1, i1, ends1, (ax, ay, bx, by) = sides[a]
        e2, i2, ends2, (cx, cy, dx, dy) = sides[b]
        at_vertex = ends1 & ends2  # empty for two sides of one route
        if at_vertex:
            # terminal sides at a shared vertex meet there, and elsewhere
            # only if they overlap
            p = where[g.vertices[at_vertex.bit_length() - 1]]
        else:
            r = _meet2(ax, ay, bx, by, cx, cy, dx, dy)
            if r is None:
                continue
            if r is not NON_GENERIC:
                crossings.append((e1, i1, e2, i2, r))
                continue
            common = {(ax, ay), (bx, by)} & {(cx, cy), (dx, dy)}
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
        # a contact at a common end p, classified by the far ends, as vectors u and w from p
        px, py = p
        ux, uy = (bx - px, by - py) if (ax, ay) == p else (ax - px, ay - py)
        wx, wy = (dx - px, dy - py) if (cx, cy) == p else (cx - px, cy - py)
        if ux == wx and uy == wy:
            out.append(Violation("sides-identical", f"{e1}[{i1}] and {e2}[{i2}] coincide", (e1, e2, i1, i2)))
        elif ux * wy == uy * wx and ux * wx + uy * wy > 0:
            out.append(Violation("sides-overlap", f"{e1}[{i1}] and {e2}[{i2}] overlap", (e1, e2, i1, i2)))
        elif e1 == e2:
            out.append(Violation("route-revisits-point", f"route of {e1} revisits {p}", (e1, i1, i2)))
        elif not at_vertex:
            out.append(Violation("routes-touch", f"routes of {e1} and {e2} touch at {p}", (e1, e2, i1, i2)))

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
    return _scan_drawing(d.graph, *_coordinates(d))[0]


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
    included; self-crossings of a single route are not listed.
    """
    if isinstance(d, GenericDrawing):
        return d
    return _generic(d, _swept(d))


def _swept(d: PlanarDrawing) -> tuple:
    """One sweep's raw crossings of `d`, or DrawingNotGeneral listing every violation."""
    violations, raw = _scan_drawing(d.graph, *_coordinates(d))
    if violations:
        raise DrawingNotGeneral(f"{len(violations)} general-position violations", violations)
    return raw


def _generic(d: PlanarDrawing, raw) -> GenericDrawing:
    """The generic copy of a drawing that its sweep passed, with crossings `raw`."""
    idx = d.graph._index
    # e1 comes no later than e2 in graph.edges
    out = [Crossing(e1, e2, i1, i2, key) for e1, i1, e2, i2, key in raw if e1 != e2]
    out.sort(key=lambda c: (idx[c.edge1[0]], idx[c.edge1[1]], idx[c.edge2[0]], idx[c.edge2[1]], c.side1, c.side2))
    return GenericDrawing(d.graph, dict(d.position), dict(d.route), tuple(out))


def extract_crossings(d: PlanarDrawing) -> tuple[Crossing, ...]:
    """The crossings `require_generic` finds; a GenericDrawing is not
    swept again."""
    return require_generic(d).crossings
