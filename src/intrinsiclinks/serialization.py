"""JSON instance files.

Four kinds are understood:

  points3   {"kind": "points3", "positions": [[x, y, z], ...]}
  points2   {"kind": "points2", "positions": [[x, y], ...]}
  embedding {"kind": "embedding", "graph": {...}, "positions": {...},
             "routes": {...}}
  drawing   same shape as embedding with 2-coordinate points

Coordinates are exact rationals written as canonical strings ("5", "-7/3");
integer literals are accepted on input, floats never are.  Route maps are
keyed "u--v" and hold interior points only; edges without an entry are
straight.  Emission is canonical: sorted keys, two-space indent, trailing
newline, so equal objects produce byte-identical files.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _str_json

from .errors import ParseError, ValidationError
from .geometry import Point2, Point3, parse_rational, rational_str
from .graphs import (
    Graph,
    PLEmbedding,
    PlanarDrawing,
    make_drawing,
    make_embedding,
    make_graph,
)

INSTANCE_FILE_KINDS = ("points3", "points2", "embedding", "drawing")

_EDGE_SEP = "--"


def _parse_coord(raw, where: str):
    try:
        return parse_rational(raw)
    except ParseError as exc:
        raise ParseError(f"{where}: {exc}") from None


def _parse_point(raw, dim: int, where: str):
    if not isinstance(raw, list) or len(raw) != dim:
        raise ParseError(f"{where}: expected a {dim}-coordinate array")
    coords = [_parse_coord(c, f"{where}[{i}]") for i, c in enumerate(raw)]
    cls = Point3 if dim == 3 else Point2
    return cls(*coords)


def _point_doc(p) -> list:
    return [rational_str(c) for c in p.coords()]


def _require(condition: bool, message: str):
    if not condition:
        raise ParseError(message)


def _edge_name(edge: tuple[str, str]) -> str:
    return edge[0] + _EDGE_SEP + edge[1]


def _split_edge_name(name: str, where: str) -> tuple[str, str]:
    parts = name.split(_EDGE_SEP)
    if len(parts) != 2 or not parts[0] or not parts[1]:
        raise ParseError(f"{where}: route key {name!r} is not of the form 'u--v'")
    return parts[0], parts[1]


def _graph_doc(g: Graph) -> dict:
    return {
        "vertices": list(g.vertices),
        "edges": [list(e) for e in g.edges],
    }


def _parse_graph(raw, where: str) -> Graph:
    _require(isinstance(raw, dict), f"{where}: expected an object")
    _require("vertices" in raw, f"{where}: missing 'vertices'")
    _require("edges" in raw, f"{where}: missing 'edges'")
    verts = raw["vertices"]
    _require(
        isinstance(verts, list) and all(isinstance(v, str) and v for v in verts),
        f"{where}.vertices: expected a list of nonempty strings",
    )
    edges = raw["edges"]
    _require(isinstance(edges, list), f"{where}.edges: expected a list")
    pairs = []
    for i, e in enumerate(edges):
        _require(
            isinstance(e, list) and len(e) == 2
            and all(isinstance(v, str) for v in e),
            f"{where}.edges[{i}]: expected a two-name array",
        )
        pairs.append((e[0], e[1]))
    try:
        return make_graph(verts, pairs)
    except ValueError as exc:
        raise ValidationError(f"{where}: {exc}") from None


def _parse_positions_map(raw, g: Graph, dim: int, where: str) -> dict:
    _require(isinstance(raw, dict), f"{where}: expected an object")
    known = set(g.vertices)
    out = {}
    for name, coords in raw.items():
        _require(name in known, f"{where}: position for unknown vertex {name!r}")
        out[name] = _parse_point(coords, dim, f"{where}[{name!r}]")
    missing = [v for v in g.vertices if v not in out]
    _require(not missing, f"{where}: no position for {', '.join(missing)}")
    return out


def _parse_routes_map(raw, g: Graph, dim: int, where: str) -> dict:
    _require(isinstance(raw, dict), f"{where}: expected an object")
    out = {}
    for name, pts in raw.items():
        u, v = _split_edge_name(name, where)
        _require(
            u in g.vertices and v in g.vertices and g.has_edge(u, v),
            f"{where}: route for non-edge {name!r}",
        )
        _require(isinstance(pts, list), f"{where}[{name!r}]: expected a point list")
        out[(u, v)] = [
            _parse_point(p, dim, f"{where}[{name!r}][{i}]") for i, p in enumerate(pts)
        ]
    return out


def _parse_point_list(raw, dim: int, where: str) -> list:
    _require(isinstance(raw, list), f"{where}: expected a list")
    _require(raw, f"{where}: expected at least one point")
    return [_parse_point(p, dim, f"{where}[{i}]") for i, p in enumerate(raw)]


def parse_instance(data):
    """Bytes or text of an instance file -> the core object it describes.

    Returns a list of Point3, a list of Point2, a PLEmbedding or a
    PlanarDrawing depending on the file's kind.  Raises ParseError for
    malformed documents and ValidationError when the document is well formed
    but the core constructors reject it.
    """
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"not UTF-8: {exc}") from None
    try:
        doc = json.loads(data)
    except (ValueError, RecursionError) as exc:
        # also nesting past the recursion limit and over-long integer literals
        raise ParseError(f"invalid JSON: {exc}") from None
    _require(isinstance(doc, dict), "top level: expected an object")
    kind = doc.get("kind")
    _require(
        kind in INSTANCE_FILE_KINDS,
        f"top level: 'kind' must be one of {', '.join(INSTANCE_FILE_KINDS)}",
    )
    dim = 3 if kind in ("points3", "embedding") else 2
    if kind in ("points3", "points2"):
        _require("positions" in doc, "top level: missing 'positions'")
        return _parse_point_list(doc["positions"], dim, "positions")

    _require("graph" in doc, "top level: missing 'graph'")
    g = _parse_graph(doc["graph"], "graph")
    _require("positions" in doc, "top level: missing 'positions'")
    positions = _parse_positions_map(doc["positions"], g, dim, "positions")
    routes = None
    if "routes" in doc:
        routes = _parse_routes_map(doc["routes"], g, dim, "routes")
    build = make_embedding if kind == "embedding" else make_drawing
    try:
        return build(g, positions, routes)
    except ValueError as exc:
        raise ValidationError(str(exc)) from None


def _routes_doc(obj) -> dict:
    out = {}
    for e in obj.graph.edges:
        interior = obj.route[e].vertices[1:-1]
        if interior:
            out[_edge_name(e)] = [_point_doc(p) for p in interior]
    return out


def _carrier_doc(obj, kind: str) -> dict:
    for name in obj.graph.vertices:
        if _EDGE_SEP in name:
            raise ValidationError(
                f"vertex name {name!r} contains {_EDGE_SEP!r} and cannot be serialized"
            )
    doc = {
        "kind": kind,
        "graph": _graph_doc(obj.graph),
        "positions": {v: _point_doc(obj.position[v]) for v in obj.graph.vertices},
    }
    routes = _routes_doc(obj)
    if routes:
        doc["routes"] = routes
    return doc


def instance_doc(obj) -> dict:
    """The JSON-ready document for a core object."""
    if isinstance(obj, PLEmbedding):
        return _carrier_doc(obj, "embedding")
    if isinstance(obj, PlanarDrawing):
        return _carrier_doc(obj, "drawing")
    if isinstance(obj, (list, tuple)):
        items = list(obj)
        for cls, kind in ((Point3, "points3"), (Point2, "points2")):
            if items and all(isinstance(p, cls) for p in items):
                return {"kind": kind, "positions": [_point_doc(p) for p in items]}
        raise ValidationError("point lists must be nonempty and of one dimension")
    raise ValidationError(f"cannot serialize {type(obj).__name__} as an instance")


def _write(o, pad: str, out: list) -> None:
    """Append the canonical form of `o`, nested at indent `pad`, to `out`."""
    t = type(o)
    if t is str:
        out.append(_str_json(o))
    elif t is int:
        out.append(int.__repr__(o))
    elif o is None or o is True or o is False:
        out.append("null" if o is None else "true" if o else "false")
    elif (t is list or t is tuple) and o:
        inner = pad + "  "
        sep = "[\n" + inner
        for v in o:
            out.append(sep)
            _write(v, inner, out)
            sep = ",\n" + inner
        out.append("\n" + pad + "]")
    elif t is dict and o and all(type(k) is str for k in o):
        inner = pad + "  "
        sep = "{\n" + inner
        for k in sorted(o):
            out.append(sep + _str_json(k) + ": ")
            _write(o[k], inner, out)
            sep = ",\n" + inner
        out.append("\n" + pad + "}")
    else:  # floats, empty containers, other keys and subclasses: json's own form
        out.append(json.dumps(o, indent=2, sort_keys=True).replace("\n", "\n" + pad))


def to_json_bytes(doc: dict) -> bytes:
    """Canonical JSON shared by every report and instance file: the bytes of
    json.dumps(doc, indent=2, sort_keys=True) and a newline, built by `_write`."""
    out: list[str] = []
    try:
        _write(doc, "", out)
    except RecursionError:  # too deep or circular: json's own result or error
        return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("utf-8")
    out.append("\n")
    return "".join(out).encode("utf-8")


def emit_instance(obj) -> bytes:
    return to_json_bytes(instance_doc(obj))
