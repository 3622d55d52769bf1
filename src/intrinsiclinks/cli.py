"""Command-line interface.

Subcommands:

  check       validate an instance file, list violations
  gen         write a seeded random instance
  vankampen   crossing-parity invariant of a drawing (or 5 planar points)
  find-linked run the finder matching the instance, print the link report
  oracle      brute-force count of linked disjoint cycle pairs
  project     find a general projection direction, optionally render SVG
  link        mod-2 linking number of two closed spatial polygons

Exit codes: 0 success, 1 bad input or validation failure, 2 internal parity
failure (a mathematically forced identity did not hold, i.e. a bug).
All JSON output is canonical (sorted keys, two-space indent), so identical
arguments and files always produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import sys

from .errors import InternalParityFailure, IntrinsicLinksError, ValidationError
from .geometry import Point2, Point3, gp_points2, gp_points3, rational_str
from .graphs import (
    PLEmbedding,
    PlanarDrawing,
    complete_graph,
    is_complete,
    is_complete_bipartite,
    make_embedding,
    smooth,
    validate_drawing,
    validate_embedding,
)
from .instances import INSTANCE_KINDS, generate
from .invariants import (
    find_linked_cycles_k6,
    find_linked_cycles_k44,
    find_linked_triangles_linear,
    oracle_confirm,
    oracle_count_linked_pairs,
    van_kampen_drawing,
    van_kampen_points,
)
from .linking import SpatialPolyline, linking_mod2_sampled
from .projection import find_general_projection
from .rng import SplitMix64
from .serialization import parse_instance, emit_instance, to_json_bytes
from .svg import render_svg


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; 2 is reserved for parity failures here
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _load(path: str):
    with open(path, "rb") as handle:
        return parse_instance(handle.read())


def _emit_doc(doc: dict):
    sys.stdout.write(to_json_bytes(doc).decode("utf-8"))


def link_report_doc(report, seed: int) -> dict:
    doc = {
        "cycle1": list(report.cycle1.vertices),
        "cycle2": list(report.cycle2.vertices),
        "lk_value": report.lk_value,
        "method": report.method,
        "seed": seed,
    }
    if report.oracle_confirmed is not None:
        doc["oracle_confirmed"] = report.oracle_confirmed
    return doc


def _cmd_check(args) -> int:
    obj = _load(args.file)
    if isinstance(obj, (PLEmbedding, PlanarDrawing)):
        kind, check = ("embedding", validate_embedding) if isinstance(obj, PLEmbedding) else ("drawing", validate_drawing)
        violations = [v.to_dict() for v in check(obj)]
    else:
        kind, general, why = (
            ("points3", gp_points3, "four of the points are coplanar")
            if isinstance(obj[0], Point3)
            else ("points2", gp_points2, "three of the points are collinear")
        )
        violations = [] if general(obj) else [{"kind": "general-position", "message": why}]
    _emit_doc({"kind": kind, "valid": not violations, "violations": violations})
    return 0 if not violations else 1


def _cmd_gen(args) -> int:
    blob = emit_instance(generate(args.kind, args.seed, args.bound))
    if args.output:
        with open(args.output, "wb") as handle:
            handle.write(blob)
    else:
        sys.stdout.write(blob.decode("utf-8"))
    return 0


def _cmd_vankampen(args) -> int:
    obj = _load(args.file)
    if isinstance(obj, PlanarDrawing):
        value = van_kampen_drawing(obj)
    elif isinstance(obj, list) and isinstance(obj[0], Point2):
        value = van_kampen_points(obj)
    else:
        raise ValidationError("vankampen needs a drawing or a 5-point points2 file")
    print(value)
    return 0


def _cmd_find_linked(args) -> int:
    obj = _load(args.file)
    if isinstance(obj, list) and isinstance(obj[0], Point3):
        report = find_linked_triangles_linear(obj, seed=args.seed)
        if args.verify:
            carrier = make_embedding(
                complete_graph(6),
                {f"v{i}": p for i, p in enumerate(obj, start=1)},
            )
            report = oracle_confirm(carrier, report, seed=args.seed)
    elif isinstance(obj, PLEmbedding):
        emb = smooth(obj)
        core = emb.graph
        if is_complete(core) and len(core.vertices) == 6:
            report = find_linked_cycles_k6(emb, seed=args.seed)
        elif is_complete_bipartite(core, 4, 4):
            report = find_linked_cycles_k44(emb, seed=args.seed)
        else:
            raise ValidationError(
                "no finder for this embedding; need K6 or K4,4 up to subdivision"
            )
        if args.verify:
            report = oracle_confirm(emb, report, seed=args.seed)
    else:
        raise ValidationError("no finder for this instance kind")
    _emit_doc(link_report_doc(report, args.seed))
    return 0


def _cmd_oracle(args) -> int:
    obj = _load(args.file)
    if not isinstance(obj, PLEmbedding):
        raise ValidationError("oracle needs an embedding instance")
    try:
        len1_s, len2_s = args.cycles.split(",")
        len1, len2 = int(len1_s), int(len2_s)
    except ValueError:
        raise ValidationError(
            f"--cycles must be two comma-separated lengths, got {args.cycles!r}"
        ) from None
    result = oracle_count_linked_pairs(obj, len1, len2, seed=args.seed)
    _emit_doc(
        {
            "cycle_lengths": [len1, len2],
            "count": result.count,
            "linked_pairs": [
                [list(c1.vertices), list(c2.vertices)]
                for c1, c2 in result.linked_pairs
            ],
            "seed": args.seed,
            "total_pairs": result.total_pairs,
        }
    )
    return 0


def _cmd_project(args) -> int:
    obj = _load(args.file)
    if not isinstance(obj, PLEmbedding):
        raise ValidationError("project needs an embedding instance")
    diag = find_general_projection(obj, seed=args.seed)
    doc = {
        "crossing_count": len(diag.crossings),
        "direction": [rational_str(c) for c in diag.direction.coords()],
        "seed": args.seed,
    }
    if args.svg:
        svg = render_svg(diag)  # before the file is opened, so a failed render leaves none
        with open(args.svg, "wb") as handle:
            handle.write(svg)
        doc["svg"] = args.svg
    _emit_doc(doc)
    return 0


def _cmd_link(args) -> int:
    objs = [_load(path) for path in (args.first, args.second)]
    for obj, path in zip(objs, (args.first, args.second)):
        if not (isinstance(obj, list) and isinstance(obj[0], Point3)):
            raise ValidationError(f"{path}: link needs points3 instances")
    a, b = (SpatialPolyline.through(obj, closed=True) for obj in objs)
    value = linking_mod2_sampled(a, b, SplitMix64(args.seed))
    _emit_doc({"linking_mod2": value, "seed": args.seed})
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="intrinsiclinks", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate an instance file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("gen", help="generate a seeded instance")
    p.add_argument("--kind", required=True, choices=INSTANCE_KINDS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--bound", type=int, default=1000)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("vankampen", help="crossing-parity invariant of a drawing")
    p.add_argument("file")
    p.set_defaults(func=_cmd_vankampen)

    p = sub.add_parser("find-linked", help="find a linked cycle pair")
    p.add_argument("file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--verify", action="store_true",
        help="reconfirm the reported pair with the brute-force oracle",
    )
    p.set_defaults(func=_cmd_find_linked)

    p = sub.add_parser("oracle", help="count linked disjoint cycle pairs")
    p.add_argument("file")
    p.add_argument("--cycles", required=True, metavar="L1,L2")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("project", help="project an embedding to a diagram")
    p.add_argument("file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--svg", metavar="FILE", help="also render the diagram")
    p.set_defaults(func=_cmd_project)

    p = sub.add_parser("link", help="mod-2 linking of two closed polygons")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_link)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InternalParityFailure as exc:
        print(f"internal parity failure: {exc}", file=sys.stderr)
        return 2
    except (IntrinsicLinksError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
