"""A fixed probe that tracks how fast the CPU runs right now.

On a shared host the same single-threaded work can run in one of two
speeds about 1.5x apart, and one state lasts tens of seconds: longer than a
run, so no statistic over one run's ops can remove it. (Measured on a
2-vCPU Intel Xeon VM at 2.0 GHz: a pure-Python loop alternated between
20.5 ms and 30 ms, in stretches of 10 to 60 s, with process CPU time equal
to wall time.)

The probe uses no stride_lab code, so a change to the library cannot move
it. It runs before every op; each op's time is divided by its slowdown, the
median probe time around it over ``REFERENCE_S``, which gives the op's
time at the reference speed. Set-up time is divided by the slowdown that
probes show right after it, in the same process. The raw times are
reported next to the scaled ones.
"""

from __future__ import annotations

import statistics
import time

#: Probe time at the reference speed: about the probe's time between ops in
#: the fast state of the machine above.
REFERENCE_S = 0.0015
#: Probe samples on each side of an op that make up its speed estimate.
WINDOW = 8

_TEXT = "".join(f"target {i * 0.37:.3f}\n" for i in range(48))
#: Objects the probe allocates and sorts: enough to leave the first-level
#: caches, as the library's spec and report objects do.
_OBJECTS = 3000


def probe() -> float:
    """Seconds for a fixed mix of interpreter work: parsing, tuples, dicts,
    allocating and sorting a few thousand small objects, integer arithmetic."""
    start = time.perf_counter()
    rows = [(float(score), label == "target")
            for label, score in (line.split() for line in _TEXT.splitlines())]
    objects = [{"index": i, "pair": (i, i + 1)} for i in range(_OBJECTS)]
    objects.sort(key=lambda o: -o["index"])
    total = 0
    for i in range(1500):
        total += i * i
    if total < 0 or len(rows) != 48 or objects[0]["index"] != _OBJECTS - 1:
        raise AssertionError("probe computed a wrong result")
    return time.perf_counter() - start


def slowdowns(probes: list[float]) -> list[float]:
    """Per op: median probe time in a window around it, over REFERENCE_S."""
    factors = []
    for i in range(len(probes)):
        window = probes[max(0, i - WINDOW): i + WINDOW + 1]
        factors.append(statistics.median(window) / REFERENCE_S)
    return factors



def settle(samples: int = 6) -> float:
    """Slowdown now, from a few probes; the first warms the probe's code."""
    times = [probe() for _ in range(samples)]
    return statistics.median(times[1:]) / REFERENCE_S
