"""Layer tracing from outside the package.

`Tracer.install` replaces every public function of each layer module at
every place the package binds it -- the module's own namespace, every
sibling module that imported the name, and the package namespace -- so
calls between modules are seen too.  `uninstall` puts the originals back.

Two kinds of wrapper:

* span wrappers record (name, start, end, id, parent id, op id) in memory;
* counted wrappers, for the `geometry` predicates and `SplitMix64.next_u64`,
  which run tens of thousands of times per op, only count calls and sum
  the time of the outermost counted call.

Self time attributes every instant to the innermost open span (or counted
call) and its layer: a span's duration minus the time of its children.
"""

from __future__ import annotations

import importlib
import inspect
import json
import random
import statistics
from collections import Counter
from time import perf_counter_ns

PACKAGE = "intrinsiclinks"
LAYERS = (
    "geometry", "rng", "graphs", "linking", "projection",
    "invariants", "instances", "serialization", "svg", "cli",
)
COUNTED_LAYERS = ("geometry",)
# (function, immediate parent) pairs whose calls are tallied separately
NESTED = {
    "linking.apex_general_position": ("linking.sample_general_apex", "linking.linking_mod2_cone"),
    "projection.project_orthogonal": ("projection.find_general_projection",),
}
GP_TESTS = ("geometry.gp_points2", "geometry.gp_points3")
VALIDATORS = ("graphs.validate_embedding", "graphs.validate_drawing")
REPLAYED = ("geometry.orient2d", "geometry.orient3d")
SAMPLE_SIZE = 2000


def _has_fraction(points) -> bool:
    for p in points:
        for c in vars(p).values():
            if c.denominator != 1:
                return True
    return False


class Tracer:
    def __init__(self):
        self.patches: list[tuple[object, str, object]] = []
        self.originals: dict[str, object] = {}
        self.t_origin = perf_counter_ns()
        self.spans: list[tuple] = []
        self.stack: list[list] = []  # open frames: [child_ns, span id, layer, name]
        self.next_id = 0
        self.op_id = None
        self.counting = False
        self.active: Counter = Counter()
        self.by_phase = {ph: self._fresh() for ph in ("setup", "op")}
        self.set_phase("setup")
        self.samples = {name: [] for name in REPLAYED}
        self.seen = Counter()
        self.rand = random.Random(20131112)
        self.accepted = 0
        self.rejected = 0
        self.svg_bytes = 0

    @staticmethod
    def _fresh() -> dict:
        return {"calls": Counter(), "incl_ns": Counter(), "self_ns": Counter(),
                "fraction": Counter(), "nested": Counter()}

    def set_phase(self, phase: str):
        self.phase = phase
        acc = self.by_phase[phase]
        self.calls, self.incl_ns, self.self_ns = acc["calls"], acc["incl_ns"], acc["self_ns"]
        self.fraction, self.nested = acc["fraction"], acc["nested"]

    # ------------------------------------------------------------------
    # installation

    def install(self):
        modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
        namespaces = [importlib.import_module(PACKAGE)] + list(modules.values())
        replacements = {}
        for layer, mod in modules.items():
            for attr, fn in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                self.originals[name] = fn
                if layer in COUNTED_LAYERS:
                    replacements[id(fn)] = self._counted(fn, name, layer)
                else:
                    replacements[id(fn)] = self._span(fn, name, layer)
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                wrapper = replacements.get(id(value))
                if wrapper is not None:
                    self.patches.append((ns, attr, value))
                    setattr(ns, attr, wrapper)
        rng_cls = modules["rng"].SplitMix64
        original = rng_cls.next_u64
        self.originals["rng.next_u64"] = original
        self.patches.append((rng_cls, "next_u64", original))
        rng_cls.next_u64 = self._counted(original, "rng.next_u64", "rng")

    def uninstall(self):
        for ns, attr, value in reversed(self.patches):
            setattr(ns, attr, value)
        self.patches.clear()

    # ------------------------------------------------------------------
    # wrappers

    def _span(self, fn, name: str, layer: str):
        tr = self
        nested_parents = NESTED.get(name, ())
        is_validator = name in VALIDATORS
        is_svg = name == "svg.render_svg"

        def wrapper(*args, **kwargs):
            parent = tr.stack[-1] if tr.stack else None
            sid = tr.next_id
            tr.next_id += 1
            frame = [0, sid, layer, name]
            if parent is not None and parent[3] in nested_parents:
                tr.nested[(name, parent[3])] += 1
            tr.stack.append(frame)
            tr.active[name] += 1
            tr.active[layer] += 1
            ok = False
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                ok = True
                if is_validator and result and parent is not None and parent[2] == "instances":
                    tr.rejected += 1
                if is_svg:
                    tr.svg_bytes += len(result)
                return result
            finally:
                t1 = perf_counter_ns()
                tr.stack.pop()
                tr.active[name] -= 1
                tr.active[layer] -= 1
                dur = t1 - t0
                tr.self_ns[layer] += dur - frame[0]
                if parent is not None:
                    parent[0] += dur
                tr.calls[name] += 1
                if not tr.active[name]:
                    tr.incl_ns[name] += dur
                if ok and layer == "instances" and not tr.active["instances"]:
                    tr.accepted += 1
                tr.spans.append((name, t0 - tr.t_origin, t1 - tr.t_origin, sid,
                                 None if parent is None else parent[1], tr.op_id))

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, fn, name: str, layer: str):
        tr = self
        check_fraction = name in REPLAYED
        is_gp = name in GP_TESTS

        def wrapper(*args, **kwargs):
            tr.calls[name] += 1
            if check_fraction:
                if _has_fraction(args):
                    tr.fraction[name] += 1
                if tr.phase == "op":
                    tr._sample(name, args)
            if tr.counting:
                return fn(*args, **kwargs)
            tr.counting = True
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                if is_gp and not result and tr.stack and tr.stack[-1][2] == "instances":
                    tr.rejected += 1
                return result
            finally:
                dur = perf_counter_ns() - t0
                tr.counting = False
                tr.self_ns[layer] += dur
                tr.incl_ns[name] += dur
                if tr.stack:
                    tr.stack[-1][0] += dur

        wrapper.__wrapped__ = fn
        return wrapper

    def _sample(self, name: str, args):
        # reservoir sample of predicate arguments, seeded so it repeats
        self.seen[name] += 1
        bucket = self.samples[name]
        if len(bucket) < SAMPLE_SIZE:
            bucket.append(args)
        else:
            j = self.rand.randrange(self.seen[name])
            if j < SAMPLE_SIZE:
                bucket[j] = args

    # ------------------------------------------------------------------
    # results

    def replay_ns(self, name: str, repeats: int = 5) -> float:
        """Median ns per call of the raw predicate over the sampled calls."""
        args_list = self.samples[name]
        if not args_list:
            return 0.0
        fn = self.originals[name]
        per_call = []
        for _ in range(repeats):
            t0 = perf_counter_ns()
            for args in args_list:
                fn(*args)
            per_call.append((perf_counter_ns() - t0) / len(args_list))
        return statistics.median(per_call)

    def metrics(self, ops: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics of the op phase, normalised per op; instance
        generation metrics cover every phase."""
        op = self.by_phase["op"]
        calls, incl, self_ns = op["calls"], op["incl_ns"], op["self_ns"]
        out: dict[str, tuple[float, str]] = {}

        def per_op(v):
            return v / ops

        def ms_per_op(ns):
            return ns / ops / 1e6

        def ratio(a, b):
            return a / b if b else 0.0

        for layer in ("geometry", "graphs", "linking", "projection", "invariants"):
            out[f"{layer}.self_ms_per_op"] = (ms_per_op(self_ns[layer]), "ms/op")
        for fn in ("orient2d", "orient3d", "seg_intersect2", "seg_hits_solid_triangle",
                   "meet_segments3", "point_on_segment3"):
            out[f"geometry.{fn}.calls_per_op"] = (per_op(calls[f"geometry.{fn}"]), "call/op")
        for name in REPLAYED:
            out[f"{name}.fraction_share"] = (ratio(op["fraction"][name], calls[name]), "ratio")
            out[f"{name}.replay_ns"] = (self.replay_ns(name), "ns")
        out["rng.next_u64.calls_per_op"] = (per_op(calls["rng.next_u64"]), "call/op")

        for fn in ("validate_embedding", "validate_drawing", "extract_crossings", "smooth"):
            out[f"graphs.{fn}.calls_per_op"] = (per_op(calls[f"graphs.{fn}"]), "call/op")
        for fn in ("validate_embedding", "extract_crossings", "enumerate_disjoint_cycle_pairs"):
            out[f"graphs.{fn}.ms_per_op"] = (ms_per_op(incl[f"graphs.{fn}"]), "ms/op")

        samples = calls["linking.sample_general_apex"]
        out["linking.sample_general_apex.calls_per_op"] = (per_op(samples), "call/op")
        out["linking.apex_tries_per_sample"] = (
            ratio(op["nested"][("linking.apex_general_position", "linking.sample_general_apex")], samples),
            "try/sample")
        out["linking.apex_rechecks_per_op"] = (
            per_op(op["nested"][("linking.apex_general_position", "linking.linking_mod2_cone")]), "call/op")
        out["linking.linking_mod2_cone.ms_per_op"] = (ms_per_op(incl["linking.linking_mod2_cone"]), "ms/op")

        searches = calls["projection.find_general_projection"]
        out["projection.find_general_projection.calls_per_op"] = (per_op(searches), "call/op")
        out["projection.direction_tries_per_search"] = (
            ratio(op["nested"][("projection.project_orthogonal", "projection.find_general_projection")], searches),
            "try/search")
        out["projection.project_central.calls_per_op"] = (per_op(calls["projection.project_central"]), "call/op")
        out["projection.project_central.ms_per_op"] = (ms_per_op(incl["projection.project_central"]), "ms/op")
        for fn in ("lk_from_diagram", "front_parity"):
            out[f"projection.{fn}.calls_per_op"] = (per_op(calls[f"projection.{fn}"]), "call/op")

        for fn in ("find_linked_triangles_linear", "linear_parity_ledger", "oracle_count_linked_pairs",
                   "find_linked_cycles_k6", "k6_parity_ledgers", "find_linked_cycles_k44",
                   "k44_parity_ledgers", "oracle_confirm", "van_kampen_drawing", "vk_invariance_probe"):
            out[f"invariants.{fn}.ms_per_op"] = (ms_per_op(incl[f"invariants.{fn}"]), "ms/op")

        inst_ns = sum(acc["self_ns"]["instances"] for acc in self.by_phase.values())
        out["instances.self_ms_per_instance"] = (ratio(inst_ns / 1e6, self.accepted), "ms/inst")
        out["instances.candidates_per_instance"] = (
            ratio(self.accepted + self.rejected, self.accepted), "cand/inst")

        for fn in ("parse_instance", "emit_instance", "to_json_bytes"):
            name = f"serialization.{fn}"
            out[f"{name}.ms_per_call"] = (ratio(incl[name] / 1e6, calls[name]), "ms/call")
        renders = calls["svg.render_svg"]
        out["svg.render_svg.ms_per_call"] = (ratio(incl["svg.render_svg"] / 1e6, renders), "ms/call")
        out["svg.render_svg.bytes_per_call"] = (ratio(self.svg_bytes, renders), "B/call")
        return out

    def dump(self, path, header: dict):
        """Write every span plus the per-phase tallies as one JSON file."""
        doc = dict(header)
        doc["span_fields"] = ["name", "start_ns", "end_ns", "id", "parent", "op"]
        doc["spans"] = self.spans
        doc["phases"] = {
            ph: {key: {(k if isinstance(k, str) else " in ".join(k)): v for k, v in sorted(acc[key].items())}
                 for key in acc}
            for ph, acc in self.by_phase.items()
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
