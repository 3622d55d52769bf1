"""One workload in one fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --mode setup|digest|timed|trace [--seconds S]

Prints `READY <scale> <calibration ms>` once the package is imported and
the inputs are generated.  The parent times interpreter start to this line
as set-up, less the calibration ms, and multiplies it by the scale that the
calibrations timed just before and after give (see calibrate.py).  Then,
except in `setup` mode, it prints one JSON result line.  The first round
over the inputs is checked, and its canonical reports become the reference
that every later op must reproduce byte for byte; `digest` mode stops
after it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

ROOT = Path(__file__).resolve().parent.parent
MIN_TIMED_OPS = 110  # leaves at least ten samples beyond the 90th percentile
IMPORT_REPEATS = 5
PACKAGE_MODULES = ("cli", "errors", "geometry", "graphs", "instances", "invariants", "linking",
                   "projection", "rng", "serialization", "svg")


class Session:
    """The inputs of one workload and the answers of its first round, which
    every later round must reproduce byte for byte."""

    def __init__(self, workload, items):
        self.w = workload
        self.items = items
        self.reference: list[bytes | None] = []
        self.errors: list[str] = []
        self.controls: list[tuple[str, bool]] = []
        self.attempted = 0
        self.failed = 0
        self.mismatches = 0

    def rounds(self, run, min_seconds: float, min_ops: int, tracer=None, calibration=None):
        """Whole rounds over the inputs until both limits are met.  The
        session's first round records each answer as the reference and
        checks it, outside the op timer.  `calibration()` runs before each
        op when given.  Returns (per-op (item index, ns, calibration ms)
        samples, wall seconds)."""
        samples = []
        op_id = 0
        cal = 0.0
        start = time.perf_counter()
        while True:
            for index, item in enumerate(self.items):
                first = index == len(self.reference)
                self.attempted += 1
                if tracer is not None:
                    tracer.op_id = op_id
                op_id += 1
                if calibration is not None:
                    cal = calibration()
                t0 = time.perf_counter_ns()
                try:
                    out, blob = run(item)
                except Exception as exc:  # a failed op is counted, not fatal
                    self.failed += 1
                    if first:
                        self.errors.append(f"op failed: {type(exc).__name__}: {exc}")
                        self.reference.append(None)
                    continue
                samples.append((index, time.perf_counter_ns() - t0, cal))
                if first:
                    self.reference.append(blob)
                    self.errors += self.w.check(item, out)
                    self.controls += self.w.controls(item, out)
                elif blob != self.reference[index]:
                    self.mismatches += 1
            elapsed = time.perf_counter() - start
            if elapsed >= min_seconds and len(samples) >= min_ops:
                return samples, elapsed

    def digest(self) -> str:
        h = hashlib.sha256()
        for blob in self.reference:
            if blob is not None:
                h.update(blob)
        return h.hexdigest()

    def result(self, expected_digest: str | None = None) -> dict:
        rejected = sum(1 for _, ok in self.controls if ok)
        errors = list(self.errors)
        if expected_digest is not None and expected_digest != self.digest():
            errors.append("canonical reports differ from the reference digest in perfbench/digests.json; "
                          "if the new answers are intended, rerun the command stored there")
        if self.mismatches:
            errors.append(f"{self.mismatches} ops gave a report differing from round 0")
        errors += [f"negative control not rejected: {label}" for label, ok in self.controls if not ok]
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "correct": not errors,
            "errors": errors[:20],
            "controls_rejected": rejected,
            "controls_total": len(self.controls),
            "digest": self.digest(),
        }


def child_env() -> dict:
    return dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")


def import_times(env) -> dict[str, tuple[float, str]]:
    """Per-module self import time and the package total, in ms, from
    `python -X importtime` with the warm bytecode cache; medians."""
    per_module: dict[str, list[float]] = {m: [] for m in ("intrinsiclinks",) + PACKAGE_MODULES}
    totals = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import intrinsiclinks.cli"],
                              env=env, check=True, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True)
        total = 0
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            fields = line[len("import time:"):].split("|")
            if not fields[0].strip().isdigit():
                continue
            self_us, cumulative_us, name = int(fields[0]), int(fields[1]), fields[2]
            module = name.strip()
            if module == "intrinsiclinks" or module.startswith("intrinsiclinks."):
                short = module.split(".", 1)[1] if "." in module else module
                if short in per_module:
                    per_module[short].append(self_us / 1e3)
                if name.startswith(" ") and not name.startswith("  "):
                    total += cumulative_us
        totals.append(total / 1e3)
    out = {"import_ms.total": (statistics.median(totals), "ms")}
    for short, vals in per_module.items():
        out[f"{short}.import_ms"] = (statistics.median(vals) if vals else 0.0, "ms")
    return out


def calibration_for(is_cli: bool):
    """(calibration function, its reference ms) for a workload; see calibrate.py."""
    if is_cli:
        env = child_env()
        return (lambda: calibrate.spawn_ms(env)), calibrate.REFERENCE_SPAWN_MS
    return calibrate.sample_ms, calibrate.REFERENCE_MS


def timed(session, run, seconds: float, is_cli: bool) -> dict:
    calibration, reference = calibration_for(is_cli)
    samples, elapsed = session.rounds(run, seconds, MIN_TIMED_OPS, calibration=calibration)
    wall_ms = [ns / 1e6 for _, ns, _ in samples]
    cal_ms = [c for _, _, c in samples]
    scaled = [ms * f for ms, f in zip(wall_ms, calibrate.scale(cal_ms, reference))]
    who = resource.RUSAGE_CHILDREN if is_cli else resource.RUSAGE_SELF
    metrics = {
        "ops_per_s": (1e3 * len(scaled) / sum(scaled), "op/s"),
        "op_ms.p50": (statistics.median(scaled), "ms"),
        "op_ms.p90": (statistics.quantiles(scaled, n=10)[-1], "ms"),
        "peak_rss_mib": (resource.getrusage(who).ru_maxrss / 1024, "MiB"),
    }
    wall = {
        "ops_per_s": 1e3 * len(wall_ms) / sum(wall_ms),
        "op_ms.p50": statistics.median(wall_ms),
        "op_ms.p90": statistics.quantiles(wall_ms, n=10)[-1],
        ("bare_interpreter_ms" if is_cli else "kernel_ms") + ".p50": statistics.median(cal_ms),
    }
    return {"metrics": metrics, "wall": wall, "samples": len(scaled), "timed_seconds": elapsed}


def traced(session, run, tracer, seconds: float, spans_path: Path, header: dict) -> dict:
    samples, elapsed = session.rounds(run, seconds * 0.25, 1)
    untraced = len(samples) / elapsed
    per_command: dict[str, list[int]] = {}
    for index, ns, _ in samples:
        per_command.setdefault(session.items[index].get("command", ""), []).append(ns)

    tracer.set_phase("op")
    tracer.install()
    try:
        traced_samples, traced_elapsed = session.rounds(run, seconds * 0.5, 1, tracer)
    finally:
        tracer.uninstall()
    ops = len(traced_samples)
    metrics = tracer.metrics(ops)
    traced_rate = ops / traced_elapsed
    metrics["trace.untraced_ops_per_s"] = (untraced, "op/s")
    metrics["trace.traced_ops_per_s"] = (traced_rate, "op/s")
    metrics["trace.slowdown"] = (untraced / traced_rate, "ratio")
    for cmd in ("gen", "check", "find-linked", "project", "oracle", "vankampen", "link"):
        vals = per_command.get(cmd)
        metrics[f"cli.{cmd}.inprocess_ms"] = (statistics.median(vals) / 1e6 if vals else 0.0, "ms")
    metrics.update(import_times(child_env()))
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.dump(spans_path, dict(header, traced_ops=ops))
    return {"metrics": metrics, "samples": ops, "spans_file": str(spans_path.relative_to(ROOT)),
            "span_count": len(tracer.spans)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "digest", "timed", "trace"), required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    args = ap.parse_args(argv)

    # calibrations bracket set-up so the parent can scale its time
    is_cli = args.workload == "cli-session"
    calibration, reference = calibration_for(is_cli)
    cal_ms = [calibration() for _ in range(3)]
    import workloads
    from tracer import Tracer

    w = workloads.make(args.workload, ROOT)
    tracer = Tracer() if args.mode == "trace" else None
    try:
        if tracer is not None:
            tracer.install()
        try:
            items = w.setup(args.seed)
        finally:
            if tracer is not None:
                tracer.uninstall()
        cal_ms += [calibration() for _ in range(3)]
        print(f"READY {reference / statistics.median(cal_ms)} {sum(cal_ms)}", flush=True)
        if args.mode == "setup":
            return 0
        run = w.op_inprocess if (is_cli and tracer is not None) else w.op
        session = Session(w, items)
        if tracer is not None or args.mode == "digest":
            session.rounds(run, 0, 0)  # the reference round, untimed
        header = {"workload": args.workload, "seed": args.seed}
        if args.mode == "digest":
            out = {}
        elif tracer is None:
            out = timed(session, run, args.seconds, is_cli)
        else:
            spans = ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.json"
            out = traced(session, run, tracer, args.seconds, spans, header)
        stored = json.loads((ROOT / "perfbench" / "digests.json").read_text())["digests"]
        expected = None if args.mode == "digest" else stored.get(str(args.seed), {}).get(args.workload)
        out.update(session.result(expected))
        out["pool"] = len(items)
        print(json.dumps(out), flush=True)
        return 0
    finally:
        close = getattr(w, "close", None)
        if close is not None:
            close()


if __name__ == "__main__":
    sys.exit(main())
