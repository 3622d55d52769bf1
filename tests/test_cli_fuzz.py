"""Fuzzing of the command line: small instance documents of all four kinds,
on the grid [-2, 2] where degenerate geometry is common, now and then with
a coordinate too large for a float, some of them malformed, run through
every subcommand that reads one, `project` also with `--svg`, and point
documents in pairs through `link`.  Whatever the input, `main` must return 0
or 1, let no exception escape, and explain an exit 1 on stderr."""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import given, settings, strategies as st

from intrinsiclinks.cli import main

SVG = "out.svg"  # rendered into the example's own directory
COMMANDS = (
    ("check",),
    ("find-linked", "--verify"),
    ("oracle", "--cycles", "3,3"),
    ("project",),
    ("project", "--svg", SVG),
    ("vankampen",),
)

NAMES = ("a", "b", "c", "d", "e", "f", "g", "h")
BAD_VALUES = ("1/0", "1/-2", "x", "", "1.5", 1.5, True, None, [], {}, "a--zz", "a--b--c", "--", "é", "9" * 5000, "1/" + "7" * 4000)

# a 331-digit coordinate passes every exact check but does not fit a float
HUGE = 10**330
coord = st.integers(-2, 2) | st.integers(-2, 2).map(str) | st.sampled_from(["1/2", "-3/2", "4/2", HUGE])


def point(dim):
    return st.lists(coord, min_size=dim, max_size=dim)


@st.composite
def point_documents(draw):
    dim = draw(st.sampled_from([2, 3]))
    n = draw(st.sampled_from([5, 6]) | st.integers(1, 7))
    return {"kind": f"points{dim}", "positions": draw(st.lists(point(dim), min_size=n, max_size=n))}


@st.composite
def graph_documents(draw):
    dim = draw(st.sampled_from([2, 3]))
    shape = draw(st.sampled_from(["complete", "bipartite", "any"]))
    vertices = list(NAMES[: draw(st.sampled_from([5, 6, 8]) | st.integers(2, 8))])
    if shape == "complete":
        edges = [[u, v] for i, u in enumerate(vertices) for v in vertices[i + 1 :]]
    elif shape == "bipartite":
        half = len(vertices) // 2
        edges = [[u, v] for u in vertices[:half] for v in vertices[half:]]
    else:
        pair = st.lists(st.sampled_from(vertices), min_size=2, max_size=2, unique=True)
        edges = draw(st.lists(pair, min_size=1, max_size=10))
    routes = {
        "--".join(draw(st.permutations(e))): draw(st.lists(point(dim), min_size=1, max_size=2))
        for e in draw(st.lists(st.sampled_from(edges), max_size=4))
    }
    doc = {
        "kind": "embedding" if dim == 3 else "drawing",
        "graph": {"vertices": vertices, "edges": edges},
        "positions": {v: draw(point(dim)) for v in vertices},
    }
    if routes:
        doc["routes"] = routes
    return doc


def _slots(node, path=()):
    """Every place in a JSON document: the paths of its values."""
    yield path
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield from _slots(value, path + (key,))


@st.composite
def documents(draw, kinds=point_documents() | graph_documents()):
    """The bytes of an instance file of the given kinds.  One in three has a
    malformed field: some value, anywhere, replaced by a bad one, deleted or
    put under a bad key; one in eight is cut short, not UTF-8 or nested
    100,000 deep."""
    doc = draw(kinds)
    if draw(st.sampled_from([True, False, False])):
        *parent, last = draw(st.sampled_from(list(_slots(doc))[1:]))
        node = doc
        for key in parent:
            node = node[key]
        action = draw(st.sampled_from(["replace", "delete", "rename"]))
        if action == "replace":
            node[last] = draw(st.sampled_from(BAD_VALUES))
        elif action == "delete" or isinstance(node, list):
            del node[last]
        else:
            node[draw(st.sampled_from([v for v in BAD_VALUES if isinstance(v, str)]))] = node.pop(last)
    blob = json.dumps(doc).encode()
    damage = draw(st.sampled_from(["cut", "not UTF-8", "deep"] + ["none"] * 21))
    if damage == "cut":
        return blob[: draw(st.integers(0, len(blob)))]
    if damage == "not UTF-8":
        return b"\xff" + blob
    if damage == "deep":
        return b"[" * 100_000 + blob + b"]" * 100_000
    return blob


def _write(tmp, name, blob):
    path = os.path.join(tmp, name)
    with open(path, "wb") as handle:
        handle.write(blob)
    return path


def _run(argv):
    """Exit code, stdout and stderr of `main`, which must return 0 or 1."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1), (argv[0], err.getvalue())
    return code, out.getvalue(), err.getvalue()


# a generous bound per example, so that a hang fails instead of stalling
@settings(max_examples=600, deadline=5000)
@given(documents())
def test_main_exits_0_or_1_with_a_message(blob):
    with tempfile.TemporaryDirectory() as tmp:
        path = _write(tmp, "instance.json", blob)
        for command in COMMANDS:
            argv = [command[0], path, *(os.path.join(tmp, a) if a == SVG else a for a in command[1:])]
            code, out, err = _run(argv)
            # a failed render leaves no file behind
            assert code == 0 or SVG not in command or not os.path.exists(argv[-1])
            if code == 1 and not err:
                # `check` reports an invalid instance on stdout
                assert command == ("check",)
                assert json.loads(out)["valid"] is False
            elif code == 1:
                assert err.startswith("error: "), (command, err)


@settings(max_examples=300, deadline=5000)
@given(documents(point_documents()), documents(point_documents()))
def test_link_exits_0_or_1_with_a_message(first, second):
    with tempfile.TemporaryDirectory() as tmp:
        code, _, err = _run(["link", _write(tmp, "first.json", first), _write(tmp, "second.json", second)])
        assert code == 0 or err.startswith("error: "), err
