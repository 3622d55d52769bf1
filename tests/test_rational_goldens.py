"""Rational goldens: the bytes the CLI writes for embeddings whose
coordinates are not all integers.  The generated K6, K4,4 and six-point
embeddings are divided by 7 and by 1001, every coordinate; grid embeddings
with violations are divided by 7.  For each input the exit code, stdout,
stderr and any SVG of `check`, `find-linked --verify`, `oracle --cycles 3,3`,
`project --svg` and `vankampen` are hashed, one digest per subcommand, so
any change in the rational path that shows in an output shows here."""

import hashlib
from itertools import combinations

import pytest

from intrinsiclinks.cli import main
from intrinsiclinks.geometry import Point3
from intrinsiclinks.graphs import complete_graph, make_embedding, make_graph, validate_embedding
from intrinsiclinks.instances import gen_k5_drawing, gen_k6_pl_subdivided, gen_k6_points, gen_k44_linear
from intrinsiclinks.rng import SplitMix64
from intrinsiclinks.serialization import emit_instance

from helpers import divided


def grid_k4_with_violations(count: int) -> list:
    """The first `count` K4 embeddings, drawn from seeds 0, 1, ..., with
    vertices and one corner per edge on the grid [-2, 2]^3, that build and
    have violations: crossing, touching and overlapping routes, and routes
    through vertices."""
    g = make_graph(["a", "b", "c", "d"], combinations("abcd", 2))
    out, seed = [], 0
    while len(out) < count:
        rng = SplitMix64(seed)
        seed += 1

        def point():
            return Point3(*(rng.randint(-2, 2) for _ in range(3)))

        pos = {v: point() for v in g.vertices}
        try:
            emb = make_embedding(g, pos, {e: [pos[e[0]], point(), pos[e[1]]] for e in g.edges})
        except ValueError:
            continue
        if validate_embedding(emb):
            out.append(emb)
    return out


def inputs() -> list[tuple[str, object, int]]:
    """(name, instance, seed) of every rational input."""
    out = []
    for k in (7, 1001):
        for seed in (0, 1):
            pts = gen_k6_points(seed)
            straight = make_embedding(complete_graph(6), {f"v{i}": p for i, p in enumerate(pts, start=1)})
            out += [
                (f"k6-pl-{seed}-div{k}", divided(gen_k6_pl_subdivided(seed), k), seed),
                (f"k44-{seed}-div{k}", divided(gen_k44_linear(seed), k), seed),
                (f"k6-points-{seed}-div{k}", divided(straight, k), seed),
                (f"points3-{seed}-div{k}", divided(pts, k), seed),
            ]
    out += [(f"grid-{i}-div7", divided(emb, 7), i) for i, emb in enumerate(grid_k4_with_violations(4))]
    out += [(f"k5-{seed}-div7", divided(gen_k5_drawing(seed), 7), seed) for seed in (0, 1)]
    return out


COMMANDS = {
    "check": lambda path, seed, svg: ["check", path],
    "find-linked": lambda path, seed, svg: ["find-linked", path, "--seed", str(seed), "--verify"],
    "oracle": lambda path, seed, svg: ["oracle", path, "--cycles", "3,3", "--seed", str(seed)],
    "project": lambda path, seed, svg: ["project", path, "--seed", str(seed), "--svg", svg],
    "vankampen": lambda path, seed, svg: ["vankampen", path],
}

# sha256 over every input, in order, of the exit code, stdout, stderr and SVG,
# the folder of the files written as DIR
GOLDENS = {
    "check": "7ea3f6b9612c6fe0d3f1a8fa4251143c42a939830b1deab01894a997c2b6fe88",
    "find-linked": "a556e89ab22daf03751aac2b2070554f06593d73210db68e54d7d764a8ac3240",
    "oracle": "1b84774d5d3f5fd57041518a529919a00bc55d9fdccf854b05f72665bd7333d2",
    "project": "1337bf716daa1f193e96c265034d46653da0eb15012b52eb616d8f89c5c31e78",
    "vankampen": "1ec3940ca844877a6c4a7f1a6eccc4b5dbaac36bba8c153a81cee6e143b4a7f5",
}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    folder = tmp_path_factory.mktemp("rational")
    out = []
    for name, obj, seed in inputs():
        path = folder / f"{name}.json"
        path.write_bytes(emit_instance(obj))
        out.append((path, seed))
    return out


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_rational_cli_bytes(command, files, capsys):
    digest = hashlib.sha256()
    for path, seed in files:
        svg = path.with_suffix(".svg")
        code = main(COMMANDS[command](str(path), seed, str(svg)))
        out, err = (text.replace(str(path.parent), "DIR") for text in capsys.readouterr())
        digest.update(f"{path.name} {code}\n{out}\n{err}\n".encode())
        if svg.exists():
            digest.update(svg.read_bytes())
            svg.unlink()
    assert digest.hexdigest() == GOLDENS[command]


def test_inputs_cover_every_outcome(files, capsys):
    """The inputs are rational, and between them the subcommands succeed
    and refuse: every check of a grid input lists violations."""
    codes = {}
    for path, seed in files:
        codes[path.stem] = main(["check", str(path)])
        assert "/" in path.read_text()
    capsys.readouterr()
    assert {name for name, code in codes.items() if code} == {f"grid-{i}-div7" for i in range(4)}
