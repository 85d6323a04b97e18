"""stride-lab benchmark: one seeded workload, checked, with metrics by name.

    python3 perfbench/run.py --workload {sweep,analyze,verify,score} \\
        --seed N --seconds S --trace {0,1}

Run from the repository root. The library is imported from ``src/`` of the
checkout this file sits in, never from an installed copy.

Each run is closed-loop: one process, one op in flight. It runs whole
rounds of ops (see ``workloads.py``) until ``--seconds`` have passed, checks
every op's output against ``reference.json`` outside the timed region and
counts failures by exception type.

``--trace 0`` reports the end-to-end metrics. Except on verify, times are
given at the reference speed of ``speed.py``: a library-independent probe
runs before every op and each op's time is divided by the slowdown it
shows, because the host's speed changes in stretches longer than a run.
The raw figures are in the detail line. Set-up time is the median of several fresh
processes that each import the library, make the inputs and run one
warm-up op, plus this process's own set-up.

``--trace 1`` alternates rounds without and with spans wrapped around
calls into each stride_lab module for half the time, and reports per-layer
metrics per op, the tracing overhead, and a reconciliation self-test. On
``verify`` it also writes a per-conv-layer profile of ResNet34 MOD and T14c
at 80x300.

Every run prints a detail line (environment, counts, failures by type) and
then, as its last line, the result object. Results and spans are also
written under ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: Fresh processes timed for set-up, besides this one.
SETUP_PROBES = 4
#: A tail percentile needs at least this many samples beyond it.
TAIL_SAMPLES = 10
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: One BLAS thread: a numeric op then depends on the state of one core. With
#: two threads on a shared two-core host, GMAC/s also followed the other
#: core's load and spread more from run to run.
BLAS_THREADS = 1

END_TO_END_UNITS = {
    "work_per_s": "work/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "analyze", "verify", "score"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def pin_blas_threads() -> int:
    """Must run before numpy loads. Never more threads than usable cores."""
    threads = min(BLAS_THREADS, len(os.sched_getaffinity(0)))
    for name in BLAS_THREAD_VARS:
        os.environ[name] = str(threads)
    return threads


def environment(seed: int, threads: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        blas = {}
    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            cpu_model = next((line.split(":", 1)[1].strip() for line in cpuinfo
                              if line.startswith("model name")), cpu_model)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = done.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((SRC / "stride_lab").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "seed": seed,
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
    }


def quantile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: a beta-weighted mean of all
    order statistics. Op times cluster by input size, and a plain sample
    median jumps across the gap between clusters when one op moves; this
    estimate moves smoothly."""
    import numpy as np

    ordered = np.sort(np.asarray(values, dtype=float))
    n = ordered.size
    a, b = q * (n + 1), (1.0 - q) * (n + 1)
    if n < 2 or a < 1.0 or b < 1.0:
        return float(ordered[min(n - 1, max(0, math.ceil(q * n) - 1))])
    steps = 64 * n
    t = (np.arange(steps) + 0.5) / steps
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    density = np.exp((a - 1) * np.log(t) + (b - 1) * np.log1p(-t) - log_beta)
    weights = density.reshape(n, 64).sum(axis=1)
    return float(weights @ ordered / weights.sum())


def tail_percentile(values: list[float]) -> tuple[float, float]:
    """(percentile, value): p90 with at least 100 samples, otherwise the
    highest percentile with ``TAIL_SAMPLES`` samples beyond it."""
    n = len(values)
    q = 0.9 if n >= 100 else max(n - TAIL_SAMPLES, 1) / n
    return 100.0 * q, quantile(values, q)


def counts(records) -> dict:
    failed = Counter(outcome.failed for _, _, outcome, _ in records if outcome.failed)
    unexpected = [outcome.detail for _, _, outcome, _ in records if not outcome.expected]
    return {
        "ops_attempted": len(records),
        "ops_failed": sum(failed.values()),
        "ops_failed_by_type": dict(sorted(failed.items())),
        "ops_unexpected": len(unexpected),
        "unexpected": unexpected[:5],
    }


def setup_probes(args) -> list[float]:
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=170,
        )
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-500:]}")
        probe = json.loads(done.stdout.strip().splitlines()[-1])
        if not probe["expected"]:
            raise RuntimeError(f"set-up probe warm-up op failed: {probe['detail']}")
        times.append(probe["setup_s"])
    return times


def end_to_end(records, workload, setup_times: list[float]) -> tuple[dict, dict]:
    """Metrics at the reference speed (see ``speed.py``); raw ones in detail.
    ``setup_times`` are already scaled, each by its own process's probes."""
    raw = [elapsed for _, elapsed, _, _ in records]
    slowdown = speed.slowdowns([probe for _, _, _, probe in records])
    scaled = [t / f for t, f in zip(raw, slowdown)] if workload.scaled else raw
    work = sum(outcome.work for _, _, outcome, _ in records)
    percentile, tail = tail_percentile(scaled)
    values = {
        "work_per_s": work / sum(scaled),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "op_ms_p50": 1000.0 * quantile(scaled, 0.5),
        "op_ms_p90": 1000.0 * tail,
    }
    detail = {
        workload.rate_name: {"value": values["work_per_s"], "unit": workload.rate_unit},
        "op_samples": len(raw),
        "op_ms_p90_percentile": percentile,
        "slowdown_median": statistics.median(slowdown),
        "raw": {
            workload.rate_name: work / sum(raw),
            "op_ms_p50": 1000.0 * quantile(raw, 0.5),
            "op_ms_p90": 1000.0 * tail_percentile(raw)[1],
            "measured_s": sum(raw),
        },
        "setup_samples_s": setup_times,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "stride_lab" / "__init__.py").is_file():
        print(f"error: no stride_lab sources under {SRC}", file=sys.stderr)
        return 2
    threads = pin_blas_threads()
    sys.path[:0] = [str(SRC), str(HERE)]
    import stride_lab
    import workloads

    if Path(stride_lab.__file__).resolve().parent != SRC / "stride_lab":
        print(f"error: imported stride_lab from {stride_lab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    reference = workloads.load_reference()
    workload = workloads.WORKLOADS[args.workload]
    rounds = workload.rounds(args.seed, reference)
    _, warm = workloads.run_checked(workload.warmup(), reference)
    # The benchmark's own long-lived objects (reference, inputs, ops) need
    # not be scanned by the library's garbage collections.
    gc.freeze()
    setup_s = time.perf_counter() - START
    setup_slowdown = speed.settle() if workload.scaled else 1.0
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s / setup_slowdown, "expected": warm.expected,
                          "detail": warm.detail}))
        return 0

    env = environment(args.seed, threads)
    if args.trace:
        from traced import traced_run

        metrics, detail, records, correct, files = traced_run(args, workload, rounds, reference, env)
    else:
        records = workloads.measure(rounds, args.seconds, reference)
        metrics, detail = end_to_end(records, workload,
                                     setup_probes(args) + [setup_s / setup_slowdown])
        correct, files = True, {}
    tally = counts(records)
    correct = correct and warm.expected and tally["ops_unexpected"] == 0
    detail = {"workload": args.workload, "trace": args.trace, "environment": env, **tally, **detail}
    if not warm.expected:
        detail["warmup"] = warm.detail
    result = {"correct": correct, "attempted": tally["ops_attempted"],
              "failed": tally["ops_unexpected"], "metrics": metrics}
    for name, metric in metrics.items():
        print(f"{name:52s} {metric['value']:16.6f} {metric['unit']}")
    print(json.dumps({"detail": detail}))
    files[f"{args.workload}-seed{args.seed}-trace{args.trace}.json"] = {"detail": detail,
                                                                        "result": result}
    OUT.mkdir(exist_ok=True)
    for name, payload in files.items():
        (OUT / name).write_text(json.dumps(payload, separators=(",", ":")) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
