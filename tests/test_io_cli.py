"""Tests for instance generation, serialization, SVG export and the CLI."""

import hashlib
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from types import ModuleType

import pytest
from hypothesis import example, given, settings, strategies as st

import intrinsiclinks
from intrinsiclinks import cli, instances, linking
from intrinsiclinks.cli import main
from intrinsiclinks.errors import EmbeddingInvalid, InternalParityFailure, ParseError, SearchExhausted, ValidationError
from intrinsiclinks.geometry import Point2, Point3, gp_points3
from intrinsiclinks.graphs import (
    GenericDrawing,
    PlanarDrawing,
    Violation,
    complete_graph,
    make_drawing,
    make_embedding,
    make_graph,
    smooth,
    validate_drawing,
    validate_embedding,
)
from intrinsiclinks.instances import (
    INSTANCE_KINDS,
    bend_drawing,
    gen_k5_drawing,
    gen_k6_pl_subdivided,
    gen_k6_points,
    gen_k33_drawing,
    gen_k44_linear,
    gen_polygon_pair,
    generate,
    move_vertex_star,
)
from intrinsiclinks.invariants import van_kampen_drawing, vk_invariance_probe
from intrinsiclinks.projection import find_general_projection, project_orthogonal
from intrinsiclinks.rng import SplitMix64
from intrinsiclinks.serialization import (
    emit_instance,
    instance_doc,
    parse_instance,
    to_json_bytes,
)
from intrinsiclinks.svg import render_svg

from helpers import crossings_between_cycles, gen_planar_polygon_pair, neighbors

PENTAGON = {
    "v1": Point2(0, 2),
    "v2": Point2(2, 1),
    "v3": Point2(1, -2),
    "v4": Point2(-1, -2),
    "v5": Point2(-2, 1),
}


class TestGenerators:
    def test_k6_points_general_and_deterministic(self):
        pts = gen_k6_points(0)
        assert len(pts) == 6 and gp_points3(pts)
        assert gen_k6_points(0) == pts
        assert gen_k6_points(1) != pts

    def test_k44_linear_valid(self):
        emb = gen_k44_linear(0)
        assert validate_embedding(emb) == ()
        assert len(emb.graph.vertices) == 8

    def test_polygon_pair_valid(self):
        emb = gen_polygon_pair(0)
        assert validate_embedding(emb) == ()
        assert emb.graph.vertices == ("t1", "t2", "t3", "u1", "u2", "u3")

    def test_subdivided_k6(self):
        emb = gen_k6_pl_subdivided(0)
        assert validate_embedding(emb) == ()
        core = smooth(emb)
        assert set(core.graph.vertices) == {f"v{i}" for i in range(1, 7)}
        # every original edge was cut, so some route must now be bent
        assert any(
            len(core.route[e].vertices) > 2 for e in core.graph.edges
        )

    def test_drawings_valid(self):
        for maker in (gen_k5_drawing, gen_k33_drawing):
            d = maker(0)
            assert validate_drawing(d) == ()
        assert van_kampen_drawing(gen_k5_drawing(0)) == 1
        assert van_kampen_drawing(gen_k33_drawing(0)) == 1

    def test_bend_drawing(self):
        d = gen_k5_drawing(0)
        bent = bend_drawing(d, 0)
        assert validate_drawing(bent) == ()
        assert bent.position == d.position
        assert any(len(bent.route[e].vertices) > 2 for e in d.graph.edges)

    def test_move_vertex_star_comparable(self):
        d = gen_k33_drawing(2)
        moved = move_vertex_star(d, 2)
        assert validate_drawing(moved) == ()
        assert vk_invariance_probe(d, moved)

    def test_planar_polygon_pair(self):
        d = gen_planar_polygon_pair(0)
        assert isinstance(d, GenericDrawing)
        assert all(len(neighbors(d.graph, v)) == 2 for v in d.graph.vertices)
        count = crossings_between_cycles(d)
        assert count % 2 == 0

    def test_generate_dispatch(self):
        assert generate("k6-points", seed=5) == gen_k6_points(5)
        assert generate("k44-linear", 3, 50) == gen_k44_linear(3, 50)
        # k6-pl-subdivided sits on a fixed frame and ignores the bound
        assert generate("k6-pl-subdivided", 2, 7) == gen_k6_pl_subdivided(2)
        with pytest.raises(ValueError):
            generate("nope")

    def test_run_config_rejects_bad_values(self):
        for bound in (0, -1):
            with pytest.raises(ValueError, match="bound must be positive"):
                generate("k6-points", bound=bound)

    def test_bend_drawing_can_leave_every_route_straight(self):
        # the one chosen edge's jittered midpoint lands on the edge's line
        d = gen_k33_drawing(202, bound=20)
        bent = bend_drawing(d, 202, bound=20)
        assert all(len(bent.route[e].vertices) == 2 for e in bent.graph.edges)
        assert bent == d

    def test_exhaustion(self, monkeypatch):
        monkeypatch.setattr(instances, "CANDIDATE_TRIES", 3)
        with pytest.raises(SearchExhausted):
            gen_k6_points(0, bound=1)

    # The emitted bytes of every generator, which the acceptance digests
    # (reports only) do not pin.  Record a new value only for a change
    # that is meant to alter the instances.
    INSTANCES_SHA256 = "c2350a8ad825dfeadf0a283a88ed5c051d6b0cb0c477d04d16c0b5016b246701"

    def test_instance_bytes_golden(self):
        digest = hashlib.sha256()
        for kind in INSTANCE_KINDS:
            for seed in range(50):
                digest.update(emit_instance(generate(kind, seed=seed)))
        for seed in range(50):
            for maker in (gen_k5_drawing, gen_k33_drawing):
                d = maker(seed)
                digest.update(emit_instance(bend_drawing(d, seed)))
                digest.update(emit_instance(move_vertex_star(d, seed)))
        assert digest.hexdigest() == self.INSTANCES_SHA256


def violations(obj) -> tuple:
    """What the validators find wrong with a generated object."""
    return validate_drawing(obj) if isinstance(obj, PlanarDrawing) else validate_embedding(obj)


def refuse(*args):
    raise ValueError("refused")


def refuse_embedding(*args):
    raise EmbeddingInvalid("refused")


def refuse_drawing(*args):
    return (Violation("refused", "refused"),)


# a generator call on the drawings (K5, K3,3) and the name in `instances`
# of the check that refuses its candidates, with a refusal
REFUSED = {
    "k44-linear": (lambda d5, d33: gen_k44_linear(3), "require_valid", refuse_embedding),
    "polygon-pair": (lambda d5, d33: gen_polygon_pair(3), "require_valid", refuse_embedding),
    "k6-pl-subdivided": (lambda d5, d33: gen_k6_pl_subdivided(3), "require_valid", refuse_embedding),
    "k5-drawing": (lambda d5, d33: gen_k5_drawing(3), "validate_drawing", refuse_drawing),
    "k33-drawing": (lambda d5, d33: gen_k33_drawing(3), "validate_drawing", refuse_drawing),
    "bend-unbuilt": (lambda d5, d33: bend_drawing(d5, 3), "make_drawing", refuse),
    "bend": (lambda d5, d33: bend_drawing(d5, 3), "validate_drawing", refuse_drawing),
    "star-unbuilt": (lambda d5, d33: move_vertex_star(d33, 3), "make_drawing", refuse),
    "star": (lambda d5, d33: move_vertex_star(d33, 3), "validate_drawing", refuse_drawing),
}


class TestGeneratorRejections:
    """Every generator discards a refused candidate and draws the next one
    from the same stream, and gives up after CANDIDATE_TRIES."""

    @pytest.fixture
    def drawings(self):
        return gen_k5_drawing(0), gen_k33_drawing(0)

    @pytest.mark.parametrize("case", sorted(REFUSED))
    def test_first_candidate_refused(self, case, drawings, monkeypatch):
        make, name, refusal = REFUSED[case]
        plain = make(*drawings)
        calls, check = [], getattr(instances, name)

        def first_refused(*args):
            calls.append(args)
            return (refusal if len(calls) == 1 else check)(*args)

        monkeypatch.setattr(instances, name, first_refused)
        out = make(*drawings)
        assert len(calls) >= 2
        assert violations(out) == ()
        assert out != plain
        calls.clear()
        assert make(*drawings) == out

    @pytest.mark.parametrize("case", sorted(REFUSED))
    def test_every_candidate_refused(self, case, drawings, monkeypatch):
        make, name, refusal = REFUSED[case]
        monkeypatch.setattr(instances, "CANDIDATE_TRIES", 3)
        monkeypatch.setattr(instances, name, refusal)
        with pytest.raises(SearchExhausted, match="in 3 tries"):
            make(*drawings)

    @pytest.mark.parametrize("make", [gen_k44_linear, gen_polygon_pair, gen_k5_drawing, gen_k33_drawing])
    def test_degenerate_points_redrawn(self, make, monkeypatch):
        # on the grid [-2, 2] many candidates put four points on a plane, or three on a line
        checks = []
        for name in ("gp_points2", "gp_points3"):
            check = getattr(instances, name)
            monkeypatch.setattr(instances, name, lambda pts, check=check: checks.append(check(pts)) or checks[-1])
        out = make(3, bound=2)
        assert False in checks
        assert violations(out) == ()
        assert make(3, bound=2) == out

    def test_bend_redraws_a_candidate_bending_nothing(self):
        # one edge, and a seed whose first draw leaves it straight
        d = make_drawing(make_graph(["a", "b"], [("a", "b")]), {"a": Point2(0, 0), "b": Point2(40, 20)})
        seed = next(s for s in range(20) if SplitMix64(s).randrange(2) == 0)
        bent = bend_drawing(d, seed, bound=20)
        assert len(bent.route[("a", "b")].vertices) == 3
        assert violations(bent) == ()
        assert bend_drawing(d, seed, bound=20) == bent

    def test_star_redraws_a_candidate_that_stays_put(self):
        # a seed whose first candidate is the chosen vertex's own position
        pos = {"a": Point2(0, 0), "b": Point2(1, 1)}
        d = make_drawing(make_graph(["a", "b"], [("a", "b")]), pos)

        def stays(seed):
            rng = SplitMix64(seed)
            center = "ab"[rng.randrange(2)]
            return Point2(rng.randint(-1, 1), rng.randint(-1, 1)) == pos[center]

        seed = next(s for s in range(100) if stays(s))
        moved = move_vertex_star(d, seed, bound=1)
        assert sum(moved.position[v] != pos[v] for v in "ab") == 1
        assert violations(moved) == ()
        assert move_vertex_star(d, seed, bound=1) == moved


# JSON trees of every value the canonical writer meets or hands on to json:
# non-ASCII and control-character strings, ints past 2**64, floats with NaN
# and infinities, empty containers, tuples, and dicts keyed by strings or by
# one other key type each (json cannot sort mixed key types)
JSON_SCALARS = st.one_of(
    st.text(), st.integers(), st.integers(2**64, 2**200), st.integers(-(2**200), -(2**64)),
    st.booleans(), st.none(), st.floats(allow_nan=True, allow_infinity=True),
)
JSON_TREES = st.recursive(
    JSON_SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=6), children, max_size=4),
        st.one_of(st.integers(-3, 3), st.booleans(), st.none()).flatmap(
            lambda key: st.dictionaries(st.just(key) if key is None else st.from_type(type(key)), children, max_size=3)),
    ),
    max_leaves=30,
)


def json_dumps_bytes(doc) -> bytes:
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("utf-8")


class TestSerialization:
    @settings(max_examples=400, deadline=2000)
    @given(JSON_TREES)
    @example({"é\u2028\x00\n": [[], {}, (), 2**70, -0.0, float("nan"), {1: None, -2: True}]})
    @example({"a": [{"b": {"c": [1.5, "x"]}}], "": {True: [None], False: "\x1f"}})
    def test_writer_matches_json_dumps(self, doc):
        assert to_json_bytes(doc) == json_dumps_bytes(doc)

    @pytest.mark.parametrize("build", [lambda loop: loop.append(loop), lambda loop: loop.append({"k": [loop]})])
    def test_circular_document_raises_as_json_does(self, build):
        loop: list = []
        build(loop)
        with pytest.raises(ValueError) as expected:
            json.dumps(loop, indent=2, sort_keys=True)
        with pytest.raises(ValueError) as got:
            to_json_bytes({"doc": loop})
        assert str(got.value) == str(expected.value) == "Circular reference detected"

    def test_round_trip_all_kinds(self):
        K5 = complete_graph(5)
        objects = [
            gen_k6_points(1),
            [Point2(0, 0), Point2(3, 1), Point2(1, 4)],
            gen_k44_linear(1),
            gen_k6_pl_subdivided(1),
            gen_k5_drawing(1),
            bend_drawing(gen_k5_drawing(1), 1),
            make_drawing(K5, PENTAGON, {("v1", "v2"): [Point2(2, 3)]}),
        ]
        for obj in objects:
            blob = emit_instance(obj)
            back = parse_instance(blob)
            if isinstance(obj, list):
                assert list(back) == list(obj)
            else:
                assert back == obj
            assert emit_instance(back) == blob

    def test_canonical_bytes(self):
        blob = emit_instance(gen_k6_points(2))
        assert blob.endswith(b"\n")
        assert blob == emit_instance(gen_k6_points(2))

    def test_rational_strings(self):
        doc = instance_doc([Point3(1, -2, 3)])
        assert doc["positions"] == [["1", "-2", "3"]]

    def test_malformed_rational(self):
        with pytest.raises(ParseError, match="3/0"):
            parse_instance(b'{"kind": "points3", "positions": [["3/0", "1", "2"]]}')

    def test_float_rejected(self):
        with pytest.raises(ParseError):
            parse_instance(b'{"kind": "points3", "positions": [[1.5, 1, 2]]}')

    def test_bad_json(self):
        with pytest.raises(ParseError, match="invalid JSON"):
            parse_instance(b"{nope")

    def test_huge_integer_literal(self):
        with pytest.raises(ParseError, match="invalid JSON: Exceeds the limit"):
            parse_instance(b'{"kind": "points3", "positions": [[' + b"9" * 5000 + b', 0, 0]]}')

    def test_deep_nesting(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_bytes(b"[" * 200_000 + b"]" * 200_000)
        assert main(["check", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: invalid JSON: maximum recursion depth exceeded")

    def test_unknown_kind(self):
        with pytest.raises(ParseError, match="kind"):
            parse_instance(b'{"kind": "widget", "positions": []}')

    def test_missing_position(self):
        with pytest.raises(ParseError, match="no position"):
            parse_instance(
                b'{"kind": "drawing", "graph": {"vertices": ["a", "b"],'
                b' "edges": [["a", "b"]]}, "positions": {"a": ["0", "0"]}}'
            )

    def test_route_for_non_edge(self):
        with pytest.raises(ParseError, match="non-edge"):
            parse_instance(
                b'{"kind": "drawing", "graph": {"vertices": ["a", "b", "c"],'
                b' "edges": [["a", "b"]]},'
                b' "positions": {"a": ["0", "0"], "b": ["2", "0"], "c": ["1", "1"]},'
                b' "routes": {"a--c": [["1", "2"]]}}'
            )

    def test_core_rejection_is_validation_error(self):
        with pytest.raises(ValidationError):
            parse_instance(
                b'{"kind": "drawing", "graph": {"vertices": ["a", "a"], "edges": []},'
                b' "positions": {}}'
            )

    def test_integer_literals_accepted(self):
        got = parse_instance(b'{"kind": "points2", "positions": [[1, 2]]}')
        assert got == [Point2(1, 2)]


class TestSvg:
    def test_plain_drawing_markers(self):
        K5 = complete_graph(5)
        d = make_drawing(K5, PENTAGON)
        svg = render_svg(d).decode()
        assert svg.startswith("<?xml")
        assert svg.count("<path") == 10
        # five crossings, each marked but gap-free
        assert svg.count('stroke="grey"') == 5
        for name in PENTAGON:
            assert f">{name}</text>" in svg

    def test_diagram_gaps_lower_strand(self):
        diag = find_general_projection(gen_k44_linear(0))
        svg = render_svg(diag).decode()
        under_count = sum(1 for c in diag.crossings)
        # every crossing interrupts exactly one strand; each interruption
        # adds an M jump inside some edge path
        path_lines = [ln for ln in svg.splitlines() if ln.startswith("<path")]
        extra_jumps = sum(ln.count("M ") - 1 for ln in path_lines)
        assert 0 < extra_jumps <= under_count
        assert svg.count('stroke="grey"') == 0

    def test_vertices_only(self):
        g = make_graph(("a", "b"), ())
        d = make_drawing(g, {"a": Point2(0, 0), "b": Point2(4, 2)})
        svg = render_svg(d).decode()
        assert "<path" not in svg
        assert svg.count("<circle") == 2

    def test_deterministic(self):
        diag = find_general_projection(gen_k6_pl_subdivided(1))
        assert render_svg(diag) == render_svg(diag)

    def test_coordinates_beyond_float_range_are_rejected(self):
        g = make_graph(("a", "b"), ())
        with pytest.raises(ValidationError, match="coordinate does not fit a float"):
            render_svg(make_drawing(g, {"a": Point2(0, 0), "b": Point2(10**330, 1)}))
        # each coordinate fits, their difference does not
        with pytest.raises(ValidationError, match="extent does not fit a float"):
            render_svg(make_drawing(g, {"a": Point2(-10**308, 0), "b": Point2(10**308, 1)}))

    # sha256 of the render of a smoothed subdivided K6 projected with seed s:
    # its routes have several sides, so a strand taken up again after a gap
    # runs on past a corner
    MULTI_SIDE_GOLDENS = {
        1: "a67fde14d491512f52ed82a235eb90ce7865bf470e954bc42ca7803da9276c56",
        2: "33473835743ff6902293b2a3b040dc9358b112b3d6eb5ab7db002e726cdedc59",
        3: "9def327cce2589d34f20918ca56de21836406749241847333718a4899fa7aa39",
    }

    @pytest.mark.parametrize("seed", sorted(MULTI_SIDE_GOLDENS))
    def test_multi_side_routes_golden(self, seed):
        svg = render_svg(find_general_projection(smooth(gen_k6_pl_subdivided(seed)), seed))
        assert hashlib.sha256(svg).hexdigest() == self.MULTI_SIDE_GOLDENS[seed]
        gapped = [ln for ln in svg.decode().splitlines() if ln.startswith("<path") and ln.count("M ") > 1]
        # a piece that runs on past a corner adds an L without an M
        assert any(ln.count("L ") > ln.count("M ") for ln in gapped)

    def test_side_wholly_inside_a_gap(self):
        # the middle side of a-b, half a unit long, passes under c-d at its
        # midpoint; the gap covers it, so the path moves past it
        g = make_graph(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
        half, quarter = Fraction(1, 2), Fraction(1, 4)
        pos = {"a": Point3(0, 0, 0), "b": Point3(40, half, 0), "c": Point3(10, quarter, 1), "d": Point3(30, quarter, 1)}
        emb = make_embedding(g, pos, {("a", "b"): [Point3(20, 0, 0), Point3(20, half, 0)]})
        svg = render_svg(project_orthogonal(emb, Point3(0, 0, 1)))
        assert '<path d="M 40 40 L 40 320 M 47 320 L 47 600"' in svg.decode()
        assert hashlib.sha256(svg).hexdigest() == "f981bac38887fc0f99d2d585c4cfb06ee09aec69fc903443c0a97045b41afa45"


class TestCli:
    def run(self, *argv, capsys=None):
        code = main(list(argv))
        out = capsys.readouterr() if capsys else None
        return code, out

    def test_gen_check_round(self, tmp_path, capsys):
        path = tmp_path / "k6.json"
        code, _ = self.run("gen", "--kind", "k6-points", "--seed", "0",
                           "-o", str(path), capsys=capsys)
        assert code == 0
        code, out = self.run("check", str(path), capsys=capsys)
        assert code == 0
        assert json.loads(out.out)["valid"] is True

    def test_gen_stdout_deterministic(self, capsys):
        code1, out1 = self.run("gen", "--kind", "k5-drawing", "--seed", "9", capsys=capsys)
        code2, out2 = self.run("gen", "--kind", "k5-drawing", "--seed", "9", capsys=capsys)
        assert code1 == code2 == 0
        assert out1.out == out2.out

    def test_find_linked_verify(self, tmp_path, capsys):
        path = tmp_path / "k44.json"
        self.run("gen", "--kind", "k44-linear", "--seed", "1", "-o", str(path),
                 capsys=capsys)
        code, out = self.run("find-linked", str(path), "--verify", capsys=capsys)
        assert code == 0
        doc = json.loads(out.out)
        assert doc["lk_value"] == 1
        assert doc["oracle_confirmed"] is True
        assert len(doc["cycle1"]) == 4

    def test_find_linked_byte_identical(self, tmp_path, capsys):
        path = tmp_path / "k6.json"
        self.run("gen", "--kind", "k6-points", "--seed", "3", "-o", str(path),
                 capsys=capsys)
        _, out1 = self.run("find-linked", str(path), capsys=capsys)
        _, out2 = self.run("find-linked", str(path), capsys=capsys)
        assert out1.out == out2.out

    def test_find_linked_rejects_invalid_embedding_before_smoothing(self, tmp_path, capsys):
        # a path u-w-x whose two routes cross; smoothing w away would build
        # a self-intersecting route, so validation must come first
        graph = make_graph(["u", "w", "x"], [("u", "w"), ("w", "x")])
        pos = {"u": Point3(0, 0, 0), "w": Point3(4, 0, 0), "x": Point3(1, -1, 0)}
        emb = make_embedding(graph, pos, {("u", "w"): [Point3(2, 3, 0)], ("w", "x"): [Point3(1, 3, 0)]})
        path = tmp_path / "path.json"
        path.write_bytes(emit_instance(emb))
        for argv in (["find-linked", str(path)], ["find-linked", str(path), "--verify"]):
            code, out = self.run(*argv, capsys=capsys)
            assert code == 1
            assert out.out == ""
            assert out.err == "error: 2 embedding violations\n"

    def test_find_linked_smooths_once(self, tmp_path, capsys, monkeypatch):
        raw = gen_k6_pl_subdivided(1)
        path = tmp_path / "sub.json"
        path.write_bytes(emit_instance(raw))
        received = []

        def spy(fn):
            def wrapper(emb, *args, **kwargs):
                received.append(emb)
                return fn(emb, *args, **kwargs)
            return wrapper

        for name in ("find_linked_cycles_k6", "oracle_confirm"):
            monkeypatch.setattr(cli, name, spy(getattr(cli, name)))
        code, _ = self.run("find-linked", str(path), "--verify", capsys=capsys)
        assert code == 0
        assert len(received) == 2
        expected = smooth(raw)
        assert expected.graph == complete_graph(6)
        assert all(emb == expected for emb in received)

    def test_project_svg_beyond_float_range(self, tmp_path, capsys):
        # exact checking accepts a coordinate of 10^330; rendering cannot
        pos = {"v1": Point3(0, 0, 0), "v2": Point3(1, 0, 0), "v3": Point3(0, 1, 0), "v4": Point3(0, 0, 10**330)}
        path = tmp_path / "huge.json"
        path.write_bytes(emit_instance(make_embedding(complete_graph(4), pos)))
        assert self.run("check", str(path), capsys=capsys)[0] == 0
        svg = tmp_path / "out.svg"
        code, out = self.run("project", str(path), "--svg", str(svg), capsys=capsys)
        assert code == 1
        assert out.out == ""
        assert out.err == "error: cannot render: a coordinate does not fit a float\n"
        assert not svg.exists()

    def test_vankampen(self, tmp_path, capsys):
        path = tmp_path / "k5.json"
        self.run("gen", "--kind", "k5-drawing", "--seed", "4", "-o", str(path),
                 capsys=capsys)
        code, out = self.run("vankampen", str(path), capsys=capsys)
        assert code == 0
        assert out.out.strip() == "1"

    def test_oracle(self, tmp_path, capsys):
        path = tmp_path / "pp.json"
        self.run("gen", "--kind", "polygon-pair", "--seed", "2", "-o", str(path),
                 capsys=capsys)
        code, out = self.run("oracle", str(path), "--cycles", "3,3", capsys=capsys)
        assert code == 0
        doc = json.loads(out.out)
        assert doc["total_pairs"] == 1
        assert doc["count"] in (0, 1)

    # sha256 of the stdout of `oracle --cycles L1,L2` on straight complete
    # graphs on the moment curve, with the number of linked pairs
    ORACLE_GOLDENS = {
        (20, "3,3"): (38760, "98323f2482ebaa0f296ec2bf55afb1fdd8608802d2c581e9288ff5512c41cf85"),
        (9, "3,4"): (504, "275bd7f3253f5b5e07b3f5726814afd12b1d8428a4c4203cfb48bd14ff017104"),
    }

    @pytest.mark.parametrize("n, cycles", sorted(ORACLE_GOLDENS))
    def test_oracle_report_golden(self, n, cycles, tmp_path, capsys):
        g = complete_graph(n)
        path = tmp_path / f"k{n}.json"
        path.write_bytes(emit_instance(make_embedding(g, {v: Point3(i, i * i, i**3) for i, v in enumerate(g.vertices, 1)})))
        code, out = self.run("oracle", str(path), "--cycles", cycles, capsys=capsys)
        assert code == 0
        count, digest = self.ORACLE_GOLDENS[n, cycles]
        assert json.loads(out.out)["count"] == count
        assert hashlib.sha256(out.out.encode()).hexdigest() == digest

    def test_internal_parity_failure_exits_2(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "k6.json"
        self.run("gen", "--kind", "k6-points", "--seed", "2", "-o", str(path), capsys=capsys)

        def forced(*args, **kwargs):
            raise InternalParityFailure("forced")

        # an InternalParityFailure is an IntrinsicLinksError too, and must not exit 1
        monkeypatch.setattr(cli, "find_linked_triangles_linear", forced)
        code, out = self.run("find-linked", str(path), capsys=capsys)
        assert code == 2
        assert out.out == ""
        assert out.err == "internal parity failure: forced\n"

    def test_find_linked_verify_on_points(self, tmp_path, capsys):
        path = tmp_path / "k6.json"
        self.run("gen", "--kind", "k6-points", "--seed", "2", "-o", str(path), capsys=capsys)
        code, out = self.run("find-linked", str(path), "--verify", capsys=capsys)
        assert code == 0
        assert out.out == (
            '{\n  "cycle1": [\n    "v4",\n    "v5",\n    "v6"\n  ],\n  "cycle2": [\n    "v1",\n    "v2",\n'
            '    "v3"\n  ],\n  "lk_value": 1,\n  "method": "linear-central",\n  "oracle_confirmed": true,\n'
            '  "seed": 0\n}\n'
        )

    def test_vankampen_points(self, tmp_path, capsys):
        path = tmp_path / "points.json"
        path.write_bytes(emit_instance(list(PENTAGON.values())))
        code, out = self.run("vankampen", str(path), capsys=capsys)
        assert (code, out.out, out.err) == (0, "1\n", "")
        path.write_bytes(emit_instance(list(PENTAGON.values())[:4]))
        code, out = self.run("vankampen", str(path), capsys=capsys)
        assert (code, out.out, out.err) == (1, "", "error: need exactly 5 points\n")

    def test_oracle_without_disjoint_pairs(self, tmp_path, capsys):
        # two triangles of K5 always share a vertex
        g = complete_graph(5)
        path = tmp_path / "k5.json"
        path.write_bytes(emit_instance(make_embedding(g, {v: Point3(i, i * i, i**3) for i, v in enumerate(g.vertices, 1)})))
        code, out = self.run("oracle", str(path), "--cycles", "3,3", capsys=capsys)
        assert code == 0
        assert out.out == (
            '{\n  "count": 0,\n  "cycle_lengths": [\n    3,\n    3\n  ],\n  "linked_pairs": [],\n'
            '  "seed": 0,\n  "total_pairs": 0\n}\n'
        )

    def test_oracle_bad_cycles_flag(self, tmp_path, capsys):
        path = tmp_path / "pp.json"
        self.run("gen", "--kind", "polygon-pair", "--seed", "2", "-o", str(path),
                 capsys=capsys)
        code, out = self.run("oracle", str(path), "--cycles", "3", capsys=capsys)
        assert code == 1

    def test_oracle_cycle_pair_budget(self, tmp_path, capsys):
        k12 = complete_graph(12)
        emb = make_embedding(k12, {v: Point3(i, i * i, i ** 3) for i, v in enumerate(k12.vertices, 1)})
        path = tmp_path / "k12.json"
        path.write_bytes(emit_instance(emb))
        start = time.perf_counter()
        code, out = self.run("oracle", str(path), "--cycles", "6,6", capsys=capsys)
        assert time.perf_counter() - start < 2
        assert code == 1
        assert out.err == "error: 1536769080 candidate cycle pairs exceed the budget of 10000000\n"

    def test_oracle_cone_count_budget(self, tmp_path, capsys, monkeypatch):
        # a moment-curve K6 whose 15 routes zigzag through 110 sides each:
        # 90 disjoint edge pairs of 110 x 110 side pairs, about 3 s of tests
        k6 = complete_graph(6)
        pos = {v: Point3(10**4 * i, 10**4 * i * i, 10**4 * i**3) for i, v in enumerate(k6.vertices, 1)}
        routes = {}
        for u, v in k6.edges:
            p, q = pos[u], pos[v]
            bend = [Point3(p.x + (q.x - p.x) * t // 110 + (-1) ** t, p.y + (q.y - p.y) * t // 110,
                           p.z + (q.z - p.z) * t // 110 - (-1) ** t) for t in range(1, 110)]
            routes[u, v] = [p, *bend, q]
        path = tmp_path / "k6_zigzag.json"
        path.write_bytes(emit_instance(make_embedding(k6, pos, routes)))
        counted = []
        monkeypatch.setattr(linking, "_cone_passes", lambda *args: counted.append(args))
        start = time.perf_counter()
        code, out = self.run("oracle", str(path), "--cycles", "3,3", capsys=capsys)
        assert time.perf_counter() - start < 5
        assert code == 1
        assert out.err == "error: 1089000 side-pair cone tests exceed the budget of 1000000\n"
        assert counted == []

    def test_project_with_svg(self, tmp_path, capsys):
        path = tmp_path / "emb.json"
        svg_path = tmp_path / "diagram.svg"
        self.run("gen", "--kind", "k44-linear", "--seed", "0", "-o", str(path),
                 capsys=capsys)
        code, out = self.run("project", str(path), "--svg", str(svg_path),
                             capsys=capsys)
        assert code == 0
        doc = json.loads(out.out)
        assert doc["crossing_count"] > 0
        assert svg_path.read_bytes().startswith(b"<?xml")

    def test_link_unlinked_and_linked(self, tmp_path, capsys):
        flat = {"kind": "points3",
                "positions": [["0", "0", "0"], ["4", "0", "0"], ["0", "4", "0"]]}
        far = {"kind": "points3",
               "positions": [["20", "0", "1"], ["24", "0", "1"], ["20", "4", "1"]]}
        thread = {"kind": "points3",
                  "positions": [["1", "1", "-1"], ["1", "1", "1"], ["9", "9", "0"]]}
        paths = {}
        for name, doc in (("flat", flat), ("far", far), ("thread", thread)):
            p = tmp_path / f"{name}.json"
            p.write_text(json.dumps(doc))
            paths[name] = str(p)
        code, out = self.run("link", paths["flat"], paths["far"], capsys=capsys)
        assert code == 0 and json.loads(out.out)["linking_mod2"] == 0
        code, out = self.run("link", paths["flat"], paths["thread"], capsys=capsys)
        assert code == 0 and json.loads(out.out)["linking_mod2"] == 1

    def test_link_collinear_sides(self, tmp_path, capsys):
        # one side of each triangle on the x-axis: every cone apex sees the
        # two sides in one plane, and the answer is still exact
        paths = []
        for name, positions in (("first", [[0, 0, 0], [1, 0, 0], [0, 1, 0]]),
                                ("second", [[2, 0, 0], [3, 0, 0], [2, 0, 1]])):
            p = tmp_path / f"{name}.json"
            p.write_text(json.dumps({"kind": "points3", "positions": positions}))
            paths.append(str(p))
        start = time.perf_counter()
        code, out = self.run("link", *paths, capsys=capsys)
        assert time.perf_counter() - start < 1.0
        assert code == 0
        assert json.loads(out.out) == {"linking_mod2": 0, "seed": 0}

    def test_route_naming_undeclared_vertex_exits_1(self, tmp_path, capsys):
        path = tmp_path / "emb.json"
        path.write_text(json.dumps({
            "kind": "embedding",
            "graph": {"vertices": ["a", "b"], "edges": [["a", "b"]]},
            "positions": {"a": ["0", "0", "0"], "b": ["1", "0", "0"]},
            "routes": {"a--zz": [["0", "1", "0"]]},
        }))
        code, out = self.run("check", str(path), capsys=capsys)
        assert code == 1
        assert out.out == ""
        assert out.err == "error: routes: route for non-edge 'a--zz'\n"

    def test_link_touching_polygons_exits_1(self, tmp_path, capsys):
        flat = {"kind": "points3",
                "positions": [["0", "0", "0"], ["4", "0", "0"], ["0", "4", "0"]]}
        touching = {"kind": "points3",
                    "positions": [["0", "0", "0"], ["1", "1", "5"], ["2", "-1", "3"]]}
        paths = []
        for name, doc in (("flat", flat), ("touching", touching)):
            p = tmp_path / f"{name}.json"
            p.write_text(json.dumps(doc))
            paths.append(str(p))
        code, out = self.run("link", *paths, capsys=capsys)
        assert code == 1
        assert out.out == ""
        assert out.err == "error: the two polygons share a point\n"

    def test_gen_bound_beyond_64_bits_terminates(self):
        # coordinates wider than 2**64 need multi-word draws; a subprocess with
        # a timeout turns a hang into a failure instead of a stalled suite
        env = dict(os.environ)
        src = str(Path(intrinsiclinks.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "intrinsiclinks.cli", "gen", "--kind", "k6-points",
             "--bound", "10000000000000000000"],
            capture_output=True, env=env, timeout=120,
        )
        assert proc.returncode in (0, 1), proc.stderr

    def test_invalid_instance_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"kind": "points3", "positions": [["3/0", "0", "0"]]}')
        code, _ = self.run("check", str(bad), capsys=capsys)
        assert code == 1

    def test_missing_file_exits_1(self, capsys):
        code, _ = self.run("check", "does-not-exist.json", capsys=capsys)
        assert code == 1

    def test_degenerate_points_check_exits_1(self, tmp_path, capsys):
        flat = tmp_path / "flat.json"
        flat.write_text(json.dumps({
            "kind": "points3",
            "positions": [[str(i), str(i), "0"] for i in range(6)],
        }))
        code, out = self.run("check", str(flat), capsys=capsys)
        assert code == 1
        assert json.loads(out.out)["valid"] is False

    def test_empty_points_check_exits_1(self, tmp_path, capsys):
        empty = tmp_path / "empty.json"
        empty.write_text('{"kind": "points3", "positions": []}')
        code, out = self.run("check", str(empty), capsys=capsys)
        assert code == 1
        assert out.out == ""
        assert out.err == "error: positions: expected at least one point\n"

    def test_usage_error_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--kind", "widget"])
        assert exc.value.code == 1

    def test_find_linked_wrong_kind_exits_1(self, tmp_path, capsys):
        path = tmp_path / "pp.json"
        self.run("gen", "--kind", "polygon-pair", "--seed", "0", "-o", str(path),
                 capsys=capsys)
        code, _ = self.run("find-linked", str(path), capsys=capsys)
        assert code == 1


class TestPublicApi:
    def test_exported_names(self):
        # a literal list, so every addition to or removal from the public
        # API shows up in the diff
        assert sorted(intrinsiclinks.__all__) == [
            "ApexNotExtremal", "Crossing", "Cycle", "CyclesNotDisjoint", "DrawingNotGeneral",
            "DrawingsNotComparable", "EmbeddingInvalid", "GeneralPositionViolation",
            "GenericDrawing", "Graph", "INSTANCE_KINDS", "InternalParityFailure",
            "IntrinsicLinksError", "LinkReport", "NON_GENERIC",
            "OVERLAP", "OracleResult", "PLEmbedding", "ParityLedger", "ParseError",
            "PlanarDrawing", "PlanarPolyline", "Point2", "Point3",
            "PolylinesNotDisjoint", "ProjectedDiagram", "ProjectionNotGeneral",
            "SearchExhausted", "SpatialPolyline", "SplitMix64",
            "Triangle3", "ValidEmbedding", "ValidationError", "Violation", "bend_drawing",
            "complete_bipartite", "complete_graph",
            "emit_instance", "enumerate_cycles",
            "enumerate_disjoint_cycle_pairs", "extract_crossings",
            "find_general_projection", "find_linked_cycles_k44", "find_linked_cycles_k6",
            "find_linked_triangles_linear", "gen_k33_drawing", "gen_k44_linear",
            "gen_k5_drawing", "gen_k6_pl_subdivided", "gen_k6_points",
            "gen_polygon_pair", "generate", "gp_points2",
            "gp_points3",
            "k44_parity_ledgers", "k6_parity_ledgers", "linear_parity_ledger",
            "linking_mod2_cone", "linking_mod2_sampled", "lk_from_diagram", "make_cycle",
            "make_drawing", "make_embedding", "make_graph", "move_vertex_star",
            "oracle_confirm", "oracle_count_linked_pairs", "orient2d", "orient3d",
            "orient3d_sos", "parse_instance", "parse_rational",
            "polylines_disjoint", "project_central", "project_orthogonal",
            "rational_str", "render_svg", "require_generic", "require_valid",
            "smooth", "to_json_bytes", "triangles_linked",
            "validate_drawing", "validate_embedding", "van_kampen_drawing", "van_kampen_points",
            "vk_invariance_probe",
        ]

    def test_star_import_binds_no_module(self):
        namespace: dict = {}
        exec("from intrinsiclinks import *", namespace)
        namespace.pop("__builtins__")
        assert sorted(namespace) == sorted(intrinsiclinks.__all__)
        assert not [name for name, value in namespace.items() if isinstance(value, ModuleType)]
