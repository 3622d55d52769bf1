"""Machine-speed calibration.

The machine this benchmark was built on changes speed by up to 1.8x within
seconds, with nothing else running in it.  A fixed pure-Python loop took
1.8 ms in one state and 2.9 ms in another, and a bare interpreter start
drifted from 61 to 113 ms over a minute while that loop held steady.  Wall
times of whole runs swing with these states, far beyond any useful
regression bound.  So a short fixed calibration is timed next to every op,
and end-to-end times are reported scaled to a reference speed:
`raw * reference / calibration`.

* In-process workloads use `kernel`, scaled to REFERENCE_MS.  Over a minute
  of alternating states this cut the spread of 6-second window means of
  `pl-projection` ops from 16% to 2.5%.
* `cli-session` ops start a process, whose cost drifts apart from Python
  speed, so it uses `spawn_ms`, a bare `python -c pass`, scaled to
  REFERENCE_SPAWN_MS.  That cut the spread of 9-second window medians of
  CLI ops from 19% to 3%.

Raw wall figures are printed in the run record beside the scaled ones.  The
calibrations are benchmark code, so no change to the package can speed
them up or slow them down; the cyclic garbage collector is paused while
the kernel runs, so the package's heap cannot slow it either.
"""

from __future__ import annotations

import gc
import statistics
import subprocess
import sys
from fractions import Fraction
from time import perf_counter_ns

REFERENCE_MS = 0.5
REFERENCE_SPAWN_MS = 50.0


def kernel() -> int:
    """Dict, tuple and small-int work plus a little Fraction arithmetic,
    the same kinds of work the package does."""
    table = {}
    acc = 0
    for i in range(1000):
        a = (i * 7919) % 1009
        b = (i * 104729) % 1013
        key = (a, b, a - b)
        table[key] = i
        acc += (a * b - key[2] * a) % 97
    f = Fraction(1, 3)
    for i in range(1, 50):
        f = (f * i + Fraction(i, 7)) / (i + 1)
    return acc + f.numerator % 7


def sample_ms() -> float:
    """Milliseconds one kernel run takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter_ns()
        kernel()
        return (perf_counter_ns() - t0) / 1e6
    finally:
        if enabled:
            gc.enable()


def spawn_ms(env: dict) -> float:
    """Milliseconds a bare `python -c pass` takes to start and exit now."""
    t0 = perf_counter_ns()
    subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
    return (perf_counter_ns() - t0) / 1e6


def scale(samples: list[float], reference: float) -> list[float]:
    """Per-position factors reference / (rolling median of 5 calibration
    times), so a single disturbed calibration cannot skew its op."""
    out = []
    n = len(samples)
    for i in range(n):
        window = samples[max(0, i - 2): min(n, i + 3)]
        out.append(reference / statistics.median(window))
    return out
