"""Benchmark of the intrinsiclinks package and CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Without --workload every workload runs, one
after another.  Each workload runs in fresh interpreters started from here,
one at a time: SETUP_REPS of them time set-up (interpreter start to inputs
ready), and the last of them also runs the timed phase (--trace 0) or the
traced phase (--trace 1).  The last line printed is one JSON object with
`correct`, `attempted`, `failed` and `metrics`; with --trace 0 the metrics
are BENCHMARK.json's `end_to_end` list, with --trace 1 its `per_layer` list.
Exits non-zero without that line when the package or BENCHMARK.json is
missing or a worker fails.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("linear-k6", "pl-projection", "planar-drawings", "cli-session")
SETUP_REPS = 5


class BenchError(RuntimeError):
    pass


def warm_bytecode(prefix: Path, argv: list[str], env: dict):
    """Run `argv` once with bytecode writing on, so every module it imports,
    the standard library included, is cached under `prefix`."""
    env = dict(env, PYTHONPYCACHEPREFIX=str(prefix))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    subprocess.run(argv, env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)


def _commit() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                              check=False, timeout=10)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _source_digest() -> str:
    import hashlib

    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "intrinsiclinks").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def spawn(mode: str, workload: str, seed: int, seconds: float, env: dict):
    """Start one worker; return (set-up seconds, scaled set-up seconds,
    parsed result or None).  Set-up runs from process start to the READY
    line, less the worker's own calibrations."""
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
            "--mode", mode, "--seconds", str(seconds)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - t0
        rest = proc.stdout.read()
    finally:
        proc.stdout.close()
        code = proc.wait()
    fields = first.split()
    if code != 0 or len(fields) != 3 or fields[0] != "READY":
        raise BenchError(f"{workload} worker ({mode}) exited with code {code}")
    ready -= float(fields[2]) / 1e3
    scaled = ready * float(fields[1])
    if mode == "setup":
        return ready, scaled, None
    lines = rest.strip().splitlines()
    if not lines:
        raise BenchError(f"{workload} worker ({mode}) printed no result")
    return ready, scaled, json.loads(lines[-1])


def run_workload(workload: str, seed: int, seconds: float, mode: str) -> dict:
    tmp = ROOT / ".bench_tmp" / f"run-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    try:
        src = str(ROOT / "src")
        env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1",
                   PYTHONPYCACHEPREFIX=str(tmp / "pycache"),
                   PYTHONPATH=src + (os.pathsep + os.environ["PYTHONPATH"] if os.environ.get("PYTHONPATH") else ""))
        warm_bytecode(tmp / "pycache", [sys.executable, "-c", "import worker, workloads, tracer"],
                      dict(env, PYTHONPATH=env["PYTHONPATH"] + os.pathsep + str(HERE)))
        if mode != "timed":
            return spawn(mode, workload, seed, seconds, env)[2]
        walls, scaled = [], []
        for rep in range(SETUP_REPS):
            ready, ready_scaled, result = spawn(
                "timed" if rep == SETUP_REPS - 1 else "setup", workload, seed, seconds, env)
            walls.append(ready)
            scaled.append(ready_scaled)
        result["metrics"]["setup_s"] = (statistics.median(scaled), "s")
        result["wall"]["setup_s"] = statistics.median(walls)
        result["setup_samples_s"] = walls
        return result
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            tmp.parent.rmdir()  # only when no other run is using it


def write_digests(seeds: list[int]):
    """Record the SHA-256 of every workload's canonical reports per seed."""
    digests = {}
    for seed in seeds:
        for workload in WORKLOADS:
            result = run_workload(workload, seed, 0, "digest")
            if not result["correct"]:
                raise BenchError(f"{workload} seed {seed}: {result['errors']}")
            digests.setdefault(str(seed), {})[workload] = result["digest"]
    doc = {"command": "python3 perfbench/run.py --write-digests " + ",".join(map(str, seeds)),
           "digests": digests}
    (HERE / "digests.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def select(result: dict, wanted: list[dict], workload: str) -> dict:
    out = {}
    for spec in wanted:
        name = spec["name"]
        if name not in result["metrics"]:
            raise BenchError(f"{workload}: metric {name} was not measured")
        value, unit = result["metrics"][name]
        if unit != spec["unit"]:
            raise BenchError(f"{workload}: metric {name} measured in {unit}, BENCHMARK.json says {spec['unit']}")
        out[name] = {"value": value, "unit": unit}
    return out


def report(workload: str, seed: int, trace: bool, result: dict):
    record = {
        "workload": workload, "seed": seed, "trace": int(trace),
        "commit": _commit(), "source_sha256": _source_digest(),
        "python": platform.python_version(), "cpus": os.cpu_count(),
    }
    record.update({k: v for k, v in result.items() if k != "metrics"})
    print(f"== {workload} (seed {seed}, {'traced' if trace else 'timed'})")
    print("run record: " + json.dumps(record, sort_keys=True))
    for name, (value, unit) in sorted(result["metrics"].items()):
        print(f"  {name} = {value:.6g} {unit}")


def main(argv=None) -> int:
    sys.dont_write_bytecode = True  # workers read their own cache; write none elsewhere
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-digests", metavar="SEEDS",
                    help="store the reference report digests of these comma-separated seeds and exit")
    args = ap.parse_args(argv)

    try:
        if not (ROOT / "src" / "intrinsiclinks" / "__init__.py").is_file():
            raise BenchError("src/intrinsiclinks is missing; run from a checkout of the repository")
        if args.write_digests:
            write_digests([int(s) for s in args.write_digests.split(",")])
            return 0
        if args.write_digests:
            write_digests([int(s) for s in args.write_digests.split(",")])
            return 0
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
        names = [args.workload] if args.workload else list(WORKLOADS)
        final = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for name in names:
            result = run_workload(name, args.seed, args.seconds, "trace" if args.trace else "timed")
            report(name, args.seed, bool(args.trace), result)
            final["correct"] = final["correct"] and result["correct"]
            final["attempted"] += result["attempted"]
            final["failed"] += result["failed"]
            picked = select(result, wanted, name)
            if args.workload:
                final["metrics"] = picked
            else:
                final["metrics"].update({f"{name}/{k}": v for k, v in picked.items()})
    except (BenchError, OSError, ValueError, KeyError, subprocess.SubprocessError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
