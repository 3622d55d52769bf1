"""The four workloads: seeded inputs, one op, and the checks on its output.

Every input is made in set-up by the package's own seeded generators; an op
receives only those inputs.  Package functions are looked up on their
modules at call time, so the tracer's wrappers see every call.  Each op
returns (output, report bytes); the bytes are the canonical report whose
SHA-256 identifies the run's answers.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import checks
from run import warm_bytecode

from intrinsiclinks import cli, graphs, instances, invariants, serialization
from intrinsiclinks.errors import IntrinsicLinksError

COORD_BOUND = 1000  # generators' default coordinate bound, stated explicitly


def item_seed(seed: int, index: int) -> int:
    return seed * 1000 + index


def _cycle(c) -> list[str]:
    return list(c.vertices)


def _ledger_doc(ledger) -> dict:
    return {"label": ledger.label, "entries": [list(e) for e in ledger.entries], "total": ledger.total}


def _report_doc(report) -> dict:
    return {"cycle1": _cycle(report.cycle1), "cycle2": _cycle(report.cycle2),
            "lk_value": report.lk_value, "method": report.method,
            "oracle_confirmed": report.oracle_confirmed}


class LinearK6:
    """Six seeded points: linear finder, its ledger and the 10-pair oracle."""

    name = "linear-k6"
    pool = 24

    def setup(self, seed: int) -> list[dict]:
        items = []
        for i in range(self.pool):
            s = item_seed(seed, i)
            pts = instances.gen_k6_points(s, bound=COORD_BOUND)
            emb = graphs.make_embedding(
                graphs.complete_graph(6), {f"v{j}": p for j, p in enumerate(pts, start=1)})
            items.append({"seed": s, "points": pts, "embedding": emb})
        return items

    def op(self, item):
        s, pts = item["seed"], item["points"]
        report = invariants.find_linked_triangles_linear(pts, seed=s)
        ledger = invariants.linear_parity_ledger(pts, seed=s)
        oracle = invariants.oracle_count_linked_pairs(item["embedding"], 3, 3, seed=s)
        doc = {"finder": _report_doc(report), "ledger": _ledger_doc(ledger), "seed": s,
               "oracle": {"count": oracle.count, "total_pairs": oracle.total_pairs,
                          "linked_pairs": [[_cycle(a), _cycle(b)] for a, b in oracle.linked_pairs]}}
        return doc, serialization.to_json_bytes(doc)

    @staticmethod
    def _parts(out):
        finder = (out["finder"]["cycle1"], out["finder"]["cycle2"])
        return finder, out["ledger"]["total"], out["oracle"]["linked_pairs"]

    def check(self, item, out) -> list[str]:
        finder, total, pairs = self._parts(out)
        errors = checks.check_linear(item["points"], finder, total, pairs)
        if out["oracle"]["total_pairs"] != 10:
            errors.append(f"linear-k6: oracle saw {out['oracle']['total_pairs']} pairs, expected 10")
        return errors

    def controls(self, item, out):
        finder, _, pairs = self._parts(out)
        return checks.negative_controls_geometry() + checks.negative_controls_linear(
            item["points"], finder, pairs)


class PLProjection:
    """A subdivided, jittered K6 and a straight K4,4 through the PL finders,
    the oracle confirmation and the parity ledgers."""

    name = "pl-projection"
    pool = 64

    def setup(self, seed: int) -> list[dict]:
        items = []
        for i in range(self.pool):
            s = item_seed(seed, i)
            items.append({"seed": s,
                          "k6": instances.gen_k6_pl_subdivided(s),
                          "k44": instances.gen_k44_linear(s, bound=COORD_BOUND)})
        return items

    def op(self, item):
        s = item["seed"]
        doc = {"seed": s}
        for key, find, ledgers in (
            ("k6", invariants.find_linked_cycles_k6, invariants.k6_parity_ledgers),
            ("k44", invariants.find_linked_cycles_k44, invariants.k44_parity_ledgers),
        ):
            emb = item[key]
            report = find(emb, seed=s)
            confirmed = invariants.oracle_confirm(emb, report, seed=s)
            doc[key] = {"report": _report_doc(confirmed),
                        "ledgers": [_ledger_doc(led) for led in ledgers(emb, seed=s)]}
        return doc, serialization.to_json_bytes(doc)

    @staticmethod
    def _parts(item, out):
        def rep(key):
            r = out[key]["report"]
            return {"pair": (r["cycle1"], r["cycle2"]), "confirmed": r["oracle_confirmed"],
                    "ledgers": [(led["label"], led["total"]) for led in out[key]["ledgers"]]}
        positions = {v: checks.ints(p) for v, p in item["k44"].position.items()}
        return rep("k6"), rep("k44"), positions

    def check(self, item, out) -> list[str]:
        return checks.check_pl(*self._parts(item, out))

    def controls(self, item, out):
        return checks.negative_controls_pl(*self._parts(item, out))


class PlanarDrawings:
    """A K5 and a K3,3 drawing (every second item bent) against a
    one-vertex-star move of each."""

    name = "planar-drawings"
    pool = 32

    def setup(self, seed: int) -> list[dict]:
        items = []
        for i in range(self.pool):
            s = item_seed(seed, i)
            pairs = []
            for gen in (instances.gen_k5_drawing, instances.gen_k33_drawing):
                d = gen(s, bound=COORD_BOUND)
                if i % 2:
                    d = instances.bend_drawing(d, s, bound=COORD_BOUND)
                pairs.append((d, instances.move_vertex_star(d, s, bound=COORD_BOUND)))
            items.append({"seed": s, "pairs": pairs})
        return items

    def op(self, item):
        doc = {"seed": item["seed"], "drawings": [
            {"vk": invariants.van_kampen_drawing(d), "probe": invariants.vk_invariance_probe(d, moved)}
            for d, moved in item["pairs"]]}
        return doc, serialization.to_json_bytes(doc)

    def check(self, item, out) -> list[str]:
        errors = []
        for (d, _), res in zip(item["pairs"], out["drawings"]):
            errors += checks.check_planar(checks.disjoint_crossings(d), res["vk"], res["probe"])
        return errors

    def controls(self, item, out):
        d, _ = item["pairs"][0]
        return checks.negative_controls_planar(checks.disjoint_crossings(d), out["drawings"][0]["vk"])


# ---------------------------------------------------------------------------
# command-line session


CLI_SEEDS = 3


def _cli_commands(s: int) -> list[tuple[str, list[str]]]:
    return [
        ("gen", ["gen", "--kind", "k6-points", "--seed", str(s), "-o", f"gen_{s}.json"]),
        ("check", ["check", f"k6pl_{s}.json"]),
        ("find-linked", ["find-linked", f"pts_{s}.json", "--seed", str(s), "--verify"]),
        ("project", ["project", f"k6pl_{s}.json", "--seed", str(s), "--svg", f"proj_{s}.svg"]),
        ("oracle", ["oracle", f"k6lin_{s}.json", "--cycles", "3,3", "--seed", str(s)]),
        ("vankampen", ["vankampen", f"k5_{s}.json"]),
        ("link", ["link", f"tri_a_{s}.json", f"tri_b_{s}.json", "--seed", str(s)]),
    ]


class CliSession:
    """One `python -m intrinsiclinks.cli` process per op, cycling through
    seven subcommands over files in a temporary directory."""

    name = "cli-session"
    pool = 7 * CLI_SEEDS

    def __init__(self, root: Path):
        self.root = root
        self.tmp = root / ".bench_tmp" / f"cli-{os.getpid()}"

    def setup(self, seed: int) -> list[dict]:
        if self.tmp.exists():
            shutil.rmtree(self.tmp)
        self.tmp.mkdir(parents=True)
        self.env = dict(os.environ, PYTHONPATH=str(self.root / "src"), PYTHONHASHSEED="0",
                        PYTHONDONTWRITEBYTECODE="1", PYTHONPYCACHEPREFIX=str(self.tmp / "pycache"))
        warm_bytecode(self.tmp / "pycache", [sys.executable, "-m", "intrinsiclinks.cli", "--help"], self.env)
        items = []
        for i in range(CLI_SEEDS):
            s = item_seed(seed, i)
            pts = instances.gen_k6_points(s, bound=COORD_BOUND)
            k5 = instances.gen_k5_drawing(s, bound=COORD_BOUND)
            if i % 2:
                k5 = instances.bend_drawing(k5, s, bound=COORD_BOUND)
            pair = instances.gen_polygon_pair(s, bound=COORD_BOUND)
            tri_a = [pair.position[v] for v in ("t1", "t2", "t3")]
            tri_b = [pair.position[v] for v in ("u1", "u2", "u3")]
            files = {
                f"pts_{s}.json": pts,
                f"k6lin_{s}.json": graphs.make_embedding(
                    graphs.complete_graph(6), {f"v{j}": p for j, p in enumerate(pts, start=1)}),
                f"k6pl_{s}.json": instances.gen_k6_pl_subdivided(s),
                f"k5_{s}.json": k5,
                f"tri_a_{s}.json": tri_a,
                f"tri_b_{s}.json": tri_b,
            }
            for fname, obj in files.items():
                (self.tmp / fname).write_bytes(serialization.emit_instance(obj))
            ctx = {"seed": s, "points": pts, "k5": k5, "tri_a": tri_a, "tri_b": tri_b,
                   "pts_bytes": (self.tmp / f"pts_{s}.json").read_bytes()}
            items += [dict(ctx, command=cmd, argv=argv) for cmd, argv in _cli_commands(s)]
        return items

    def _output_file(self, item):
        argv = item["argv"]
        for flag in ("-o", "--svg"):
            if flag in argv:
                return self.tmp / argv[argv.index(flag) + 1]
        return None

    def _finish(self, item, code: int, stdout: bytes):
        path = self._output_file(item)
        extra = path.read_bytes() if path is not None else b""
        out = {"code": code, "stdout": stdout, "file": extra}
        return out, stdout + extra

    def op(self, item):
        proc = subprocess.run(
            [sys.executable, "-m", "intrinsiclinks.cli"] + item["argv"],
            cwd=self.tmp, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"{item['command']} exited {proc.returncode}: {proc.stderr.decode()[-400:]}")
        return self._finish(item, proc.returncode, proc.stdout)

    def op_inprocess(self, item):
        """The same command through `cli.main(argv)` in this process."""
        buf = io.StringIO()
        cwd = os.getcwd()
        os.chdir(self.tmp)
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(list(item["argv"]))
        finally:
            os.chdir(cwd)
        if code != 0:
            raise RuntimeError(f"{item['command']} returned {code}")
        return self._finish(item, code, buf.getvalue().encode("utf-8"))

    def check(self, item, out) -> list[str]:
        cmd, blob = item["command"], out["stdout"]
        where = f"cli-session {cmd}"
        if out["code"] != 0:
            return [f"{where}: exit code {out['code']}"]
        if cmd == "vankampen":
            errors = [] if blob == b"1\n" else [f"{where}: printed {blob!r}, expected 1"]
            return errors + checks.check_planar(checks.disjoint_crossings(item["k5"]), 1, True)
        if cmd == "gen":
            errors = [] if blob == b"" else [f"{where}: unexpected stdout"]
            try:
                back = serialization.emit_instance(serialization.parse_instance(out["file"]))
            except IntrinsicLinksError as exc:
                return errors + [f"{where}: output does not parse ({exc})"]
            if back != out["file"]:
                errors.append(f"{where}: parse_instance -> emit_instance changed the bytes")
            if out["file"] != item["pts_bytes"]:
                errors.append(f"{where}: output differs from the set-up instance of the same seed")
            pts = [checks.ints(p) for p in item["points"]]
            if any(checks.orient3(*quad) == 0 for quad in combinations(pts, 4)):
                errors.append(f"{where}: four generated points are coplanar")
            return errors
        errors = checks.canonical_json_errors(blob, where)
        if errors:
            return errors
        doc = json.loads(blob)
        if cmd == "check":
            if doc != {"kind": "embedding", "valid": True, "violations": []}:
                errors.append(f"{where}: instance reported invalid")
        elif cmd == "find-linked":
            if doc.get("oracle_confirmed") is not True:
                errors.append(f"{where}: oracle_confirmed is not true")
            pos = dict(zip([f"v{i}" for i in range(1, 7)], (checks.ints(p) for p in item["points"])))
            if checks.lk2([pos[v] for v in doc["cycle1"]], [pos[v] for v in doc["cycle2"]]) != 1:
                errors.append(f"{where}: reported triangles are unlinked by the piercing test")
        elif cmd == "project":
            errors += checks.svg_errors(out["file"], where)
            if doc.get("svg") != item["argv"][-1] or not isinstance(doc.get("crossing_count"), int):
                errors.append(f"{where}: report lacks the SVG path or crossing count")
        elif cmd == "oracle":
            if not doc["linked_pairs"]:
                return errors + [f"{where}: no linked pair reported"]
            errors += checks.check_linear(item["points"], doc["linked_pairs"][0], 1, doc["linked_pairs"])
            if doc["total_pairs"] != 10 or doc["count"] != len(doc["linked_pairs"]):
                errors.append(f"{where}: pair counts inconsistent")
        elif cmd == "link":
            want = checks.lk2([checks.ints(p) for p in item["tri_a"]], [checks.ints(p) for p in item["tri_b"]])
            if doc.get("linking_mod2") != want:
                errors.append(f"{where}: linking_mod2 {doc.get('linking_mod2')}, piercing test gives {want}")
        return errors

    def controls(self, item, out):
        """Wrong outputs built from this command's real one; `check` must
        reject each."""
        cmd = item["command"]
        if cmd == "vankampen":
            wrong = [("vankampen printing 0", dict(out, stdout=b"0\n"))]
        elif cmd == "gen":
            blob = out["file"]
            at = max(blob.rfind(d) for d in b"0123456789")
            mutated = blob[:at] + str((blob[at] - 47) % 10).encode() + blob[at + 1:]
            wrong = [("gen output with its last digit changed", dict(out, file=mutated))]
        else:
            reindented = (json.dumps(json.loads(out["stdout"]), indent=4, sort_keys=True) + "\n").encode()
            wrong = [("re-indented JSON report", dict(out, stdout=reindented))]
            if cmd == "project":
                wrong.append(("truncated SVG", dict(out, file=out["file"][: len(out["file"]) // 2])))
        return [(f"{cmd}: {label}", bool(self.check(item, bad))) for label, bad in wrong]

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)


def make(name: str, root: Path):
    if name == CliSession.name:
        return CliSession(root)
    return {w.name: w for w in (LinearK6, PLProjection, PlanarDrawings)}[name]()


NAMES = (LinearK6.name, PLProjection.name, PlanarDrawings.name, CliSession.name)
