"""Seeded random instance generation.

Every generator owns a SplitMix64 stream derived from its seed argument, so a
(kind, seed) pair fully determines the output.  Coordinates are integers drawn
uniformly from [-bound, bound], one PRNG call per coordinate in x, y(, z)
order; candidates failing a validity test are discarded and the stream simply
continues.  Generators raise SearchExhausted after CANDIDATE_TRIES failed
candidates.
"""

from __future__ import annotations

from .errors import EmbeddingInvalid, SearchExhausted
from .geometry import Point2, Point3, gp_points2, gp_points3
from .graphs import (
    PlanarDrawing,
    ValidEmbedding,
    complete_bipartite,
    complete_graph,
    make_drawing,
    make_embedding,
    make_graph,
    require_valid,
    validate_drawing,
)
from .rng import SplitMix64

_K6 = complete_graph(6)
_K5 = complete_graph(5)
_K44 = complete_bipartite(4, 4)
_K33 = complete_bipartite(3, 3)

_TWO_TRIANGLES = make_graph(
    ("t1", "t2", "t3", "u1", "u2", "u3"),
    (("t1", "t2"), ("t2", "t3"), ("t1", "t3"),
     ("u1", "u2"), ("u2", "u3"), ("u1", "u3")),
)


CANDIDATE_TRIES = 10000


def _point(rng: SplitMix64, bound: int, cls=Point3):
    """A Point3 or Point2 of integers in [-bound, bound], drawn x first."""
    return cls(*[rng.randint(-bound, bound) for _ in range(3 if cls is Point3 else 2)])


def _valid_embedding(graph, positions) -> ValidEmbedding | None:
    try:
        return require_valid(make_embedding(graph, positions))
    except EmbeddingInvalid:
        return None


def _valid_drawing(graph, positions, routes=None) -> PlanarDrawing | None:
    try:
        d = make_drawing(graph, positions, routes)
    except ValueError:
        return None
    return None if validate_drawing(d) else d


def gen_k6_points(seed: int, bound: int = 1000) -> list[Point3]:
    """Six integer points in the cube, no four coplanar."""
    rng = SplitMix64(seed)
    for _ in range(CANDIDATE_TRIES):
        pts = [_point(rng, bound) for _ in range(6)]
        if gp_points3(pts):
            return pts
    raise SearchExhausted(
        f"no general-position 6-point set in {CANDIDATE_TRIES} tries (seed {seed})"
    )


def _gen_straight(graph, what: str, seed: int, bound: int, cls=Point3):
    # vertices in general position rule out crossings and vertices on routes in
    # space (either forces four coplanar points) but not three edges through one
    # point in the plane; the validator has the last word and its copy comes back
    rng = SplitMix64(seed)
    gp, valid = (gp_points3, _valid_embedding) if cls is Point3 else (gp_points2, _valid_drawing)
    for _ in range(CANDIDATE_TRIES):
        pts = [_point(rng, bound, cls) for _ in graph.vertices]
        if gp(pts) and (found := valid(graph, dict(zip(graph.vertices, pts)))) is not None:
            return found
    raise SearchExhausted(f"no valid {what} in {CANDIDATE_TRIES} tries (seed {seed})")


def gen_k44_linear(seed: int, bound: int = 1000) -> ValidEmbedding:
    """Straight-line embedding of the 4+4 complete bipartite graph, on 8
    integer points in general position, returned already validated."""
    return _gen_straight(_K44, "K4,4 embedding", seed, bound)


def gen_polygon_pair(seed: int, bound: int = 1000) -> ValidEmbedding:
    """Two disjoint straight triangles in space, as one validated embedding."""
    return _gen_straight(_TWO_TRIANGLES, "triangle pair", seed, bound)


# Subdivided instances start from the moment curve t -> (t, t^2, t^3), whose
# first six integer points are in general position.  The factor 24 makes every
# cut point an integer for 2, 3 and 4 pieces, so the floor divisions below are
# exact and the perturbed embedding keeps its coordinates as machine ints.
_MOMENT_SCALE = 24
_JITTER = 12  # half a scaled unit in each coordinate


def gen_k6_pl_subdivided(seed: int) -> ValidEmbedding:
    """A validated embedding of a subdivision of K6 with perturbed
    subdivision vertices.

    Each edge u-v of K6 is cut into 2 to 4 equal pieces by new degree-2
    vertices named u.v.1, u.v.2, ...; these are then jittered off the
    original segment, so smoothing recovers K6 with genuinely bent polyline
    routes.  Rejected candidates are resampled.
    """
    rng = SplitMix64(seed)
    base = {
        f"v{i}": Point3(
            _MOMENT_SCALE * i, _MOMENT_SCALE * i * i, _MOMENT_SCALE * i ** 3
        )
        for i in range(1, 7)
    }
    for _ in range(CANDIDATE_TRIES):
        cuts: dict[str, Point3] = {}
        edges = []
        for u, v in _K6.edges:
            pieces = rng.randint(2, 4)
            names = [f"{u}.{v}.{j}" for j in range(1, pieces)]
            for j, name in enumerate(names, start=1):
                cuts[name] = Point3(*[a + (b - a) * j // pieces for a, b in zip(base[u].coords(), base[v].coords())])
            path = [u, *names, v]
            edges += zip(path, path[1:])
        positions = dict(base)
        for name, p in cuts.items():
            d = _point(rng, _JITTER)
            while d == Point3(0, 0, 0):
                d = _point(rng, _JITTER)
            positions[name] = p + d
        if (found := _valid_embedding(make_graph([*base, *cuts], edges), positions)) is not None:
            return found
    raise SearchExhausted(
        f"no valid subdivided K6 embedding in {CANDIDATE_TRIES} tries (seed {seed})"
    )


def gen_k5_drawing(seed: int, bound: int = 1000) -> PlanarDrawing:
    return _gen_straight(_K5, "straight drawing", seed, bound, Point2)


def gen_k33_drawing(seed: int, bound: int = 1000) -> PlanarDrawing:
    return _gen_straight(_K33, "straight drawing", seed, bound, Point2)


def bend_drawing(drawing: PlanarDrawing, seed: int, bound: int = 1000) -> PlanarDrawing:
    """Reroute a random subset of edges through one displaced interior point.

    Vertex positions are kept; each chosen edge runs through a jittered
    near-midpoint of its endpoints, making a polyline drawing of the same
    graph.  At least one edge is always chosen, but a point that lands on
    its edge's line is no corner and is dropped, so a result can have every
    route straight.
    """
    g = drawing.graph
    rng = SplitMix64(seed)
    jit = max(1, bound // 10)
    for _ in range(CANDIDATE_TRIES):
        routes = {}
        for e in g.edges:
            if rng.randrange(2) == 0:
                continue
            u, v = (drawing.position[w].coords() for w in e)
            routes[e] = [Point2(*[(a + b) // 2 for a, b in zip(u, v)]) + _point(rng, jit, Point2)]
        if routes and (bent := _valid_drawing(g, drawing.position, routes)) is not None:
            return bent
    raise SearchExhausted(f"no valid bent drawing in {CANDIDATE_TRIES} tries (seed {seed})")


def move_vertex_star(drawing: PlanarDrawing, seed: int, bound: int = 1000) -> PlanarDrawing:
    """Move one seeded-choice vertex and re-draw its incident edges straight.

    All other routes are kept point-for-point, so the result is comparable to
    the input in the one-vertex-star sense.
    """
    g = drawing.graph
    rng = SplitMix64(seed)
    center = g.vertices[rng.randrange(len(g.vertices))]
    kept = {
        e: list(drawing.route[e].vertices[1:-1])
        for e in g.edges
        if center not in e
    }
    for _ in range(CANDIDATE_TRIES):
        p = _point(rng, bound, Point2)
        if p != drawing.position[center] and (moved := _valid_drawing(g, {**drawing.position, center: p}, kept)) is not None:
            return moved
    raise SearchExhausted(f"no valid star move in {CANDIDATE_TRIES} tries (seed {seed})")


_GENERATORS = {
    "k6-points": gen_k6_points,
    "k44-linear": gen_k44_linear,
    "k6-pl-subdivided": lambda seed, bound: gen_k6_pl_subdivided(seed),
    "k5-drawing": gen_k5_drawing,
    "k33-drawing": gen_k33_drawing,
    "polygon-pair": gen_polygon_pair,
}

INSTANCE_KINDS = tuple(sorted(_GENERATORS))


def generate(kind: str, seed: int = 0, bound: int = 1000):
    """Dispatch to the generator for an instance kind.  The k6-pl-subdivided
    kind ignores `bound`: its instances sit on a fixed moment-curve frame."""
    if bound <= 0:
        raise ValueError("bound must be positive")
    try:
        maker = _GENERATORS[kind]
    except KeyError:
        raise ValueError(
            f"unknown instance kind {kind!r}; expected one of {', '.join(INSTANCE_KINDS)}"
        ) from None
    return maker(seed, bound)
