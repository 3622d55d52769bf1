"""The record contract: every value class of the package is a plain frozen
class built on one base, and behaves as the frozen dataclass it replaces."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import intrinsiclinks
from intrinsiclinks.errors import DrawingNotGeneral, EmbeddingInvalid
from intrinsiclinks.geometry import Point2 as P2, Point3 as P3, Triangle3, _Record
from intrinsiclinks.graphs import (
    Crossing,
    Cycle,
    PlanarPolyline,
    Violation,
    make_drawing,
    make_embedding,
    make_graph,
    require_generic,
    require_valid,
)
from intrinsiclinks.invariants import LinkReport, OracleResult, ParityLedger
from intrinsiclinks.linking import SpatialPolyline
from intrinsiclinks.projection import ProjectedDiagram

G = make_graph(["a", "b"], [("a", "b")])
EMB = make_embedding(G, {"a": P3(0, 0, 0), "b": P3(1, 0, 0)})
DRAWING = make_drawing(G, {"a": P2(0, 0), "b": P2(1, 0)})
C1, C2 = Cycle(("a", "b", "c")), Cycle(("d", "e", "f"))

G_REPR = "Graph(vertices=('a', 'b'), edges=(('a', 'b'),))"
EMB_REPR = (
    f"(graph={G_REPR}, position={{'a': Point3(x=0, y=0, z=0), 'b': Point3(x=1, y=0, z=0)}}, "
    "route={('a', 'b'): SpatialPolyline(vertices=(Point3(x=0, y=0, z=0), Point3(x=1, y=0, z=0)), closed=False)})"
)
DRAWING_REPR = (
    f"(graph={G_REPR}, position={{'a': Point2(x=0, y=0), 'b': Point2(x=1, y=0)}}, "
    "route={('a', 'b'): PlanarPolyline(vertices=(Point2(x=0, y=0), Point2(x=1, y=0)), closed=False)}"
)
C1_REPR, C2_REPR = "Cycle(vertices=('a', 'b', 'c'))", "Cycle(vertices=('d', 'e', 'f'))"

# (record, its fields, one field changed by `replace`: (name, value),
#  a change its constructor rejects: (name, value, exception) or None,
#  the repr the frozen dataclass gave)
CASES = {
    "Triangle3": (
        Triangle3(P3(0, 0, 0), P3(1, 0, 0), P3(0, 1, 0)), ("a", "b", "c"),
        ("c", P3(0, 0, 1)), ("c", P3(2, 0, 0), ValueError),
        "Triangle3(a=Point3(x=0, y=0, z=0), b=Point3(x=1, y=0, z=0), c=Point3(x=0, y=1, z=0))",
    ),
    "Graph": (G, ("vertices", "edges"), ("edges", ()), None, G_REPR),
    "Cycle": (C1, ("vertices",), ("vertices", ("a", "c", "d")), None, C1_REPR),
    "Violation": (
        Violation("missing-route", "edge ('a', 'b') has no route", (("a", "b"),)),
        ("kind", "message", "subjects"), ("subjects", ()), None,
        "Violation(kind='missing-route', message=\"edge ('a', 'b') has no route\", subjects=(('a', 'b'),))",
    ),
    "Crossing": (
        Crossing(("a", "b"), ("c", "d"), 0, 1, (1, 2, 1)),
        ("edge1", "edge2", "side1", "side2", "key", "upper"), ("upper", ("a", "b")), None,
        "Crossing(edge1=('a', 'b'), edge2=('c', 'd'), side1=0, side2=1, key=(1, 2, 1), upper=None)",
    ),
    "SpatialPolyline": (
        SpatialPolyline((P3(0, 0, 0), P3(1, 0, 0)), False), ("vertices", "closed"),
        ("vertices", (P3(0, 0, 0), P3(1, 1, 0), P3(1, 0, 0))),
        ("vertices", (P3(0, 0, 0), P3(1, 0, 0), P3(2, 0, 0)), ValueError),
        "SpatialPolyline(vertices=(Point3(x=0, y=0, z=0), Point3(x=1, y=0, z=0)), closed=False)",
    ),
    "PlanarPolyline": (
        PlanarPolyline((P2(0, 0), P2(1, 0), P2(1, 1)), True), ("vertices", "closed"),
        ("closed", False), ("vertices", (P2(0, 0), P2(1, 0), P2(1, 1), P2(0, 0)), ValueError),
        "PlanarPolyline(vertices=(Point2(x=0, y=0), Point2(x=1, y=0), Point2(x=1, y=1)), closed=True)",
    ),
    "PLEmbedding": (
        EMB, ("graph", "position", "route"), ("position", {"a": P3(0, 0, 0), "b": P3(2, 0, 0)}), None,
        "PLEmbedding" + EMB_REPR,
    ),
    "ValidEmbedding": (
        require_valid(EMB), ("graph", "position", "route"),
        ("route", {("a", "b"): SpatialPolyline.through([P3(0, 0, 0), P3(0, 1, 0), P3(1, 0, 0)])}),
        ("position", {"a": P3(0, 0, 0), "b": P3(2, 0, 0)}, EmbeddingInvalid),
        "ValidEmbedding" + EMB_REPR,
    ),
    "PlanarDrawing": (
        DRAWING, ("graph", "position", "route"), ("position", {"a": P2(0, 0), "b": P2(2, 0)}), None,
        "PlanarDrawing" + DRAWING_REPR + ")",
    ),
    "GenericDrawing": (
        require_generic(DRAWING), ("graph", "position", "route", "crossings"),
        ("route", {("a", "b"): PlanarPolyline((P2(0, 0), P2(0, 1), P2(1, 0)))}),
        ("position", {"a": P2(0, 0), "b": P2(2, 0)}, DrawingNotGeneral),
        "GenericDrawing" + DRAWING_REPR + ", crossings=())",
    ),
    "LinkReport": (
        LinkReport(C1, C2, 1, "pl-orthogonal"), ("cycle1", "cycle2", "lk_value", "method", "oracle_confirmed"),
        ("oracle_confirmed", True), None,
        f"LinkReport(cycle1={C1_REPR}, cycle2={C2_REPR}, lk_value=1, method='pl-orthogonal', oracle_confirmed=None)",
    ),
    "ParityLedger": (
        ParityLedger("sum", (("lk(a | b)", 1),)), ("label", "entries"), ("entries", ()), None,
        "ParityLedger(label='sum', entries=(('lk(a | b)', 1),))",
    ),
    "OracleResult": (
        OracleResult(1, ((C1, C2),), 1), ("count", "linked_pairs", "total_pairs"), ("count", 0), None,
        f"OracleResult(count=1, linked_pairs=(({C1_REPR}, {C2_REPR}),), total_pairs=1)",
    ),
    "ProjectedDiagram": (
        ProjectedDiagram(P3(0, 0, 1), require_generic(DRAWING), ()),
        ("direction", "drawing", "crossings"), ("direction", P3(1, 0, 0)), None,
        f"ProjectedDiagram(direction=Point3(x=0, y=0, z=1), "
        f"drawing=GenericDrawing{DRAWING_REPR}, crossings=()), crossings=())",
    ),
}
UNHASHABLE = {"PLEmbedding", "ValidEmbedding", "PlanarDrawing", "GenericDrawing", "ProjectedDiagram"}
PLACEMENTS = UNHASHABLE - {"ProjectedDiagram"}

names = pytest.mark.parametrize("name", sorted(CASES))


def test_cli_import_loads_no_dataclasses():
    # in a fresh process: the test runner itself imports both modules
    src = str(Path(intrinsiclinks.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, intrinsiclinks.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_cli_import_builds_no_sos_table():
    # the tie-breaking terms of orient3d_sos are built on the first tie
    src = str(Path(intrinsiclinks.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = "import intrinsiclinks.cli, intrinsiclinks.geometry as g; print(g._sos_terms.cache_info().currsize)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0\n"


def test_every_record_class_is_covered():
    # all but the points, which have a contract test of their own
    found, todo = set(), [_Record]
    while todo:
        for cls in todo.pop().__subclasses__():
            todo.append(cls)
            if cls.__module__.startswith("intrinsiclinks.") and not cls.__name__.startswith("_"):
                found.add(cls.__name__)
    assert found - {"Point2", "Point3"} == set(CASES)


@names
def test_fields_cannot_be_set_or_deleted(name):
    obj, fields, (field, value), *_ = CASES[name]
    for attr in fields + ("other",):
        with pytest.raises(AttributeError):
            setattr(obj, attr, value)
    with pytest.raises(AttributeError):
        delattr(obj, field)


@names
def test_equality_needs_the_same_class(name):
    obj, fields, *_ = CASES[name]
    cls = type(obj)
    values = {f: getattr(obj, f) for f in fields}
    assert obj == obj.replace() and not obj != obj.replace()
    assert obj.__eq__(tuple(values.values())) is NotImplemented
    if name not in PLACEMENTS:  # a placement equals its checked copy instead
        other = type("Other", (cls,), {})(**values)
        assert obj != other and other != obj


@names
def test_hash(name):
    obj, fields, *_ = CASES[name]
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(obj)
    else:
        assert hash(obj) == hash(tuple(getattr(obj, f) for f in fields))
        assert hash(obj) == hash(obj.replace())


@names
def test_repr_is_the_dataclass_repr(name):
    obj, *_, expected = CASES[name]
    assert repr(obj) == expected


@names
def test_replace_changes_one_field_through_the_constructor(name):
    obj, fields, (field, value), rejected, _ = CASES[name]
    new = obj.replace(**{field: value})
    assert type(new) is type(obj)
    for f in fields:
        assert getattr(new, f) == (value if f == field else getattr(obj, f))
    with pytest.raises(TypeError):
        obj.replace(no_such_field=1)
    if rejected is not None:
        bad_field, bad_value, error = rejected
        with pytest.raises(error):
            obj.replace(**{bad_field: bad_value})


def test_replace_rebuilds_derived_state():
    assert Cycle(("a", "b", "c")).replace(vertices=["c", "b", "a"]).vertices == ("c", "b", "a")
    assert not G.replace(edges=()).has_edge("a", "b")
    assert SpatialPolyline((P3(0, 0, 0), P3(1, 0, 0))).replace(closed=False).sides() == (
        (P3(0, 0, 0), P3(1, 0, 0)),
    )
    # a checked placement is checked again: the crossings are the sweep's
    crossed = require_generic(make_drawing(
        make_graph(["a", "b", "c", "d"], [("a", "b"), ("c", "d")]),
        {"a": P2(0, 0), "b": P2(2, 2), "c": P2(0, 2), "d": P2(2, 0)},
    ))
    assert len(crossed.crossings) == 1
    around = PlanarPolyline((P2(0, 2), P2(-1, 5), P2(5, 5), P2(5, -1), P2(2, 0)))
    assert crossed.replace(route={**crossed.route, ("c", "d"): around}).crossings == ()
    with pytest.raises(TypeError):
        crossed.replace(crossings=())


def test_valid_embedding_carries_its_core_outside_the_fields():
    # built by the constructor as `Graph` builds `_index`: not a field, so
    # ==, hash, repr and `replace` see the three fields only
    valid = require_valid(EMB)
    assert type(valid)._fields == ("graph", "position", "route")
    g, position, chains = valid._core
    assert g is valid.graph and position is valid.position
    assert type(chains) is tuple and all(type(chain) is tuple for chain in chains)
    assert chains == ((P3(0, 0, 0), P3(1, 0, 0)),)
    assert "_core" not in repr(valid) and valid == EMB
    with pytest.raises(AttributeError):
        valid._core = valid._core
