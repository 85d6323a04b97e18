"""Record the expected output of every input the benchmark can draw.

Run from the repository root on the commit whose outputs are the reference:

    python3 perfbench/record.py

It writes ``perfbench/reference.json``: per op key, the output summary the
benchmark compares against (or the exception it raised, for the known
defects), and ``verify_blocks``, the partition of the verify inputs into
rounds of equal kernel mix, balanced with the op times measured here.
"""

from __future__ import annotations

import json
import random
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402

run.pin_blas_threads()

import stride_lab as sl  # noqa: E402
import workloads as wl  # noqa: E402

#: The spec with the largest working set; every verify block holds it so
#: peak memory does not depend on which block a seed draws.
VERIFY_ANCHOR = "df_resnet/182/MOD@300"


def outcome(op: wl.Op):
    start = time.perf_counter()
    try:
        result = op.run()
    except Exception as exc:  # a recorded failure is a known defect
        return wl.error_record(exc), time.perf_counter() - start
    return op.summarize(result), time.perf_counter() - start


def record_sweep(reference: dict) -> None:
    specs = wl.build_templates()
    for template in wl.SWEEP_TEMPLATES:
        spec = specs[wl.template_key(template)]
        for endpoint in sl.enumerate_endpoints():
            op = wl.sweep_op(template, spec, endpoint)
            reference[op.key], _ = outcome(op)


def record_analyze(reference: dict) -> None:
    for family, depths, pool in wl.analyze_strata():
        for depth in depths:
            for name in pool:
                op = wl.analyze_op(family, depth, name)
                reference[op.key], _ = outcome(op)


def record_verify(reference: dict, passes: int = 2) -> dict[str, tuple[float, float]]:
    """Returns key -> (best seconds of ``passes``, GMAC) for block balancing."""
    costs = {}
    for _ in range(passes):
        for key, (factory, frames) in wl.verify_inputs().items():
            op = wl.verify_op(key, factory(), frames, sl.numkernel.DEFAULT_SEED)
            reference[key], seconds = outcome(op)
            best = min(seconds, costs.get(key, (seconds,))[0])
            costs[key] = (best, reference[key]["analytic"] / 1e9)
    return costs


def _block_score(blocks, costs) -> float:
    rates, medians = [], []
    for block in blocks:
        seconds = [costs[k][0] for k in block]
        rates.append(sum(costs[k][1] for k in block) / sum(seconds))
        medians.append(run.quantile(seconds, 0.5))
    return (statistics.pstdev(rates) / statistics.mean(rates)
            + statistics.pstdev(medians) / statistics.mean(medians))


def verify_blocks(costs: dict[str, tuple[float, float]]) -> list[list[str]]:
    """One block per remaining depthwise input, each with the anchor; dense
    inputs are dealt out and then swapped between blocks while that lowers
    the spread of block GMAC/s and median op time."""
    depthwise = sorted(k for k in costs if k.startswith("df_resnet/") and k != VERIFY_ANCHOR)
    dense = sorted((k for k in costs if not k.startswith("df_resnet/")), key=lambda k: costs[k][0])
    blocks = [[VERIFY_ANCHOR, k] for k in depthwise]
    for i, key in enumerate(dense):
        blocks[i % len(blocks)].append(key)
    rng = random.Random(0)
    score = _block_score(blocks, costs)
    for _ in range(20000):
        a, b = rng.sample(range(len(blocks)), 2)
        i, j = rng.randrange(2, len(blocks[a])), rng.randrange(2, len(blocks[b]))
        blocks[a][i], blocks[b][j] = blocks[b][j], blocks[a][i]
        trial = _block_score(blocks, costs)
        if trial < score:
            score = trial
        else:
            blocks[a][i], blocks[b][j] = blocks[b][j], blocks[a][i]
    return [sorted(block) for block in blocks]


def record_score(reference: dict) -> None:
    for decimals in wl.SCORE_DECIMALS:
        for separation in wl.SCORE_SEPARATIONS:
            for replicate in range(wl.SCORE_REPLICATES):
                key = wl.score_key(decimals, separation, replicate)
                text = wl.score_text(decimals, separation, replicate)
                summary, _ = outcome(wl.score_op(key, text))
                reference[key] = {**summary, "text": wl.digest(text)}


def main() -> int:
    reference: dict = {}
    for name, step in (("sweep", record_sweep), ("analyze", record_analyze),
                       ("score", record_score)):
        start = time.perf_counter()
        step(reference)
        print(f"{name}: {time.perf_counter() - start:.1f} s", file=sys.stderr)
    start = time.perf_counter()
    costs = record_verify(reference)
    reference["verify_blocks"] = verify_blocks(costs)
    print(f"verify: {time.perf_counter() - start:.1f} s", file=sys.stderr)
    for block in reference["verify_blocks"]:
        seconds = [costs[k][0] for k in block]
        print(f"  block of {len(block)}: {sum(seconds):.1f} s, "
              f"{sum(costs[k][1] for k in block) / sum(seconds):.2f} GMAC/s, "
              f"median {run.quantile(seconds, 0.5):.2f} s", file=sys.stderr)
    wl.REFERENCE_PATH.write_text(json.dumps(reference, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
