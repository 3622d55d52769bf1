"""Crossing keys: `seg_intersect2` gives a transversal crossing as the
reduced integer triple (X, Y, D) of its point (X/D, Y/D), the drawing sweep
groups triple points by that key, and only output that shows a point builds
one.  The keys are checked against the point-building reference in
`tests/helpers.py`; the goldens pin the output that shows crossing points,
as it was when crossings still carried a `Point2`."""

import hashlib
from fractions import Fraction

from hypothesis import assume, given, settings, strategies as st

from intrinsiclinks import invariants
from intrinsiclinks.cli import main
from intrinsiclinks.geometry import NON_GENERIC, Point2
from intrinsiclinks.graphs import (
    complete_graph,
    make_drawing,
    make_graph,
    require_generic,
    validate_drawing,
)
from intrinsiclinks.instances import (
    bend_drawing,
    gen_k5_drawing,
    gen_k6_pl_subdivided,
    gen_k6_points,
    gen_k33_drawing,
    gen_k44_linear,
)
from intrinsiclinks.projection import find_general_projection
from intrinsiclinks.serialization import emit_instance
from intrinsiclinks.svg import render_svg

from helpers import cross2, reference_key, scan_drawing_reference, seg_intersect2, seg_intersect2_reference


def segments(coordinate):
    """Two segments with endpoints drawn from `coordinate`."""
    point = st.builds(Point2, coordinate, coordinate)
    return st.tuples(point, point, point, point).filter(lambda ps: ps[0] != ps[1] and ps[2] != ps[3])


def assert_key_is_reference(a, b, c, d):
    for s, t in (((a, b), (c, d)), ((c, d), (b, a))):
        ref = seg_intersect2_reference(s, t)
        r = seg_intersect2(s, t)
        if isinstance(ref, Point2):
            assert r == reference_key(ref)
            assert all(type(v) is int for v in r) and r[2] > 0
        else:
            assert r is ref


class TestKeyIsReducedPoint:
    @settings(max_examples=400)
    @given(segments(st.integers(-2, 2)))
    def test_grid(self, ps):
        assert_key_is_reference(*ps)

    @settings(max_examples=400)
    @given(segments(st.builds(Fraction, st.integers(-40, 40), st.integers(1, 40))))
    def test_rationals(self, ps):
        assert_key_is_reference(*ps)

    @settings(max_examples=300)
    @given(segments(st.integers(-50, 50).map(lambda k: 2**100 + k)))
    def test_near_two_to_the_hundred(self, ps):
        assert_key_is_reference(*ps)

    @settings(max_examples=300)
    @given(segments(st.integers(-(2**100), 2**100)))
    def test_up_to_two_to_the_hundred(self, ps):
        assert_key_is_reference(*ps)

    def test_square_diagonals(self):
        s = (Point2(0, 0), Point2(2, 2))
        t = (Point2(0, 2), Point2(2, 0))
        assert seg_intersect2(s, t) == (1, 1, 1)
        s = (Point2(0, 0), Point2(1, 1))
        t = (Point2(0, 1), Point2(1, 0))
        assert seg_intersect2(s, t) == seg_intersect2(t, s) == (1, 1, 2)
        assert seg_intersect2(s, (Point2(0, 0), Point2(1, 0))) is NON_GENERIC


RATIONAL = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))
DIRECTION = st.tuples(st.integers(-5, 5), st.integers(-5, 5)).filter(lambda v: v != (0, 0))


def through(p: Point2, v, before: Fraction, after: Fraction) -> tuple[Point2, Point2]:
    """The segment from p - before*v to p + after*v."""
    return (
        Point2(p.x - before * v[0], p.y - before * v[1]),
        Point2(p.x + after * v[0], p.y + after * v[1]),
    )


LENGTH = st.builds(Fraction, st.integers(1, 9), st.integers(1, 5))


class TestOnePointOneKey:
    @settings(max_examples=300)
    @given(RATIONAL, RATIONAL, st.lists(st.tuples(DIRECTION, LENGTH, LENGTH), min_size=3, max_size=4))
    def test_crossings_at_one_point_share_the_key(self, x, y, lines):
        """Sides through one point, of any lengths and either orientation,
        give unreduced triples of both signs of `den` and one key."""
        p = Point2(x, y)
        sides = [through(p, v, b, a) for v, b, a in lines]
        sides += [(end, start) for start, end in sides]
        keys, dens = set(), set()
        for s in sides:
            for t in sides:
                if cross2(s[1] - s[0], t[1] - t[0]) == 0:
                    continue  # parallel: the sides overlap or are one line
                keys.add(seg_intersect2(s, t))
                dens.add(cross2(s[1] - s[0], t[1] - t[0]) > 0)
        assume(keys)
        assert keys == {reference_key(p)}
        assert dens == {True, False}


def three_sides_drawing(sides):
    g = make_graph(["a1", "a2", "b1", "b2", "c1", "c2"], [("a1", "a2"), ("b1", "b2"), ("c1", "c2")])
    ends = [x for s in sides for x in s]
    return make_drawing(g, dict(zip(g.vertices, ends)))


class TestTriplePoint:
    @settings(max_examples=200, deadline=None)
    @given(RATIONAL, RATIONAL, st.lists(st.tuples(DIRECTION, LENGTH, LENGTH), min_size=3, max_size=3))
    def test_reported_at_a_rational_point_as_the_reference_reports_it(self, x, y, lines):
        p = Point2(x, y)
        d = three_sides_drawing([through(p, v, b, a) for v, b, a in lines])
        violations = validate_drawing(d)
        triple = [v for v in violations if v.kind == "triple-point"]
        assume(triple)
        assert violations == scan_drawing_reference(d)[0]
        assert triple[0].message == f"three or more sides pass through {p.coords()}"

    def test_check_output_at_a_half_integer_point(self, tmp_path, capsys):
        sides = [
            (Point2(0, 0), Point2(1, 1)),
            (Point2(0, 1), Point2(1, 0)),
            (Point2(0, -1), Point2(1, 2)),
        ]
        path = tmp_path / "triple.json"
        path.write_bytes(emit_instance(three_sides_drawing(sides)))
        assert main(["check", str(path)]) == 1
        assert capsys.readouterr().out == CHECK_TRIPLE_POINT


# `intrinsiclinks check` of three sides through (1/2, 1/2)
CHECK_TRIPLE_POINT = """{
  "kind": "drawing",
  "valid": false,
  "violations": [
    {
      "kind": "triple-point",
      "message": "three or more sides pass through (Fraction(1, 2), Fraction(1, 2))",
      "subjects": [
        "(('a1', 'a2'), 0)",
        "(('b1', 'b2'), 0)",
        "(('c1', 'c2'), 0)"
      ]
    }
  ]
}
"""

# SHA-256 of the SVG bytes below, recorded when crossings carried a Point2.
# Record a new value only for a change that is meant to alter the pictures.
DRAWINGS_SVG_SHA256 = "71f2e179ab72b889362533a18c1eca782b2f490b906d102a3c3e46ee4539967a"
RATIONAL_SVG_SHA256 = "eb7d2e4880f46afb89a8a0e4d63c8ccdfd8d0cd21e3a12b7731690cd55180bad"
DIAGRAMS_SVG_SHA256 = "9d0035fd119fd61398d9cfd725f296192052273d0ab6aa62a8d99b46af809bb3"

F = Fraction
RATIONAL_K5 = {
    "v1": Point2(0, F(2, 3)), "v2": Point2(F(5, 3), F(1, 2)), "v3": Point2(1, F(-7, 4)),
    "v4": Point2(F(-4, 5), -2), "v5": Point2(-2, F(3, 7)),
}


class TestSvgGoldens:
    def test_drawing_markers(self):
        digest = hashlib.sha256()
        for seed in range(20):
            for maker in (gen_k5_drawing, gen_k33_drawing):
                d = maker(seed)
                digest.update(render_svg(d))
                digest.update(render_svg(bend_drawing(d, seed)))
        assert digest.hexdigest() == DRAWINGS_SVG_SHA256

    def test_rational_drawing_markers(self):
        d = make_drawing(complete_graph(5), RATIONAL_K5, {("v1", "v3"): [Point2(F(1, 3), F(-1, 9))]})
        crossings = require_generic(d).crossings
        assert len(crossings) == 5 and any(c.key[2] > 1 for c in crossings)
        assert hashlib.sha256(render_svg(d)).hexdigest() == RATIONAL_SVG_SHA256

    def test_diagram_gaps(self):
        digest = hashlib.sha256()
        for seed in range(5):
            digest.update(render_svg(find_general_projection(gen_k6_pl_subdivided(seed))))
        assert digest.hexdigest() == DIAGRAMS_SVG_SHA256


class TestNoFraction:
    """On integer input the sweep, and the central projection and ledger of
    the linear finder, build no `Fraction`."""

    def built(self, monkeypatch, work):
        calls = []
        original = Fraction.__new__

        def counted(cls, *args, **kwargs):
            calls.append(args)
            return original(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", counted)
        Fraction(1, 3)  # the spy records
        assert len(calls) == 1
        work()
        return len(calls) - 1

    def test_generator_drawings(self, monkeypatch):
        drawings = []
        for seed in range(5):
            for maker in (gen_k5_drawing, gen_k33_drawing):
                d = maker(seed)
                drawings += [d, bend_drawing(d, seed)]

        def work():
            crossings = [require_generic(d).crossings for d in drawings]
            assert any(crossings)

        assert self.built(monkeypatch, work) == 0

    def test_projection_search(self, monkeypatch):
        embeddings = [gen_k6_pl_subdivided(1), gen_k44_linear(1)]

        def work():
            for emb in embeddings:
                assert find_general_projection(emb).crossings

        assert self.built(monkeypatch, work) == 0

    def test_linear_analysis(self, monkeypatch):
        point_sets = [gen_k6_points(seed) for seed in range(5)]

        def work():
            for seed, pts in enumerate(point_sets):
                assert invariants._linear_analysis(pts, seed)[1].total == 1

        assert self.built(monkeypatch, work) == 0
