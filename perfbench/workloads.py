"""The four benchmark workloads: inputs from a seed, one op each, output checks.

Every workload is a list of *rounds*. Rounds of one workload have the same
composition (the same input classes in the same numbers), so a run made of
whole rounds does the same kind of work whatever the seed; the seed picks
the order of the ops and, within each class, the concrete inputs (paths,
verify block, score files) and numeric seeds.
Each input that any seed can draw has its expected output recorded in
``reference.json`` (written by ``record.py`` from the seed commit), and
every op is checked against it outside the timed region.

An op is a zero-argument callable that returns a plain value; ``check``
turns that value (or the exception the op raised) into an ``Outcome``.
"""

from __future__ import annotations

import hashlib
import json
import operator
import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import speed
import stride_lab as sl
from stride_lab import catalog, verification
from stride_lab.layers import FullyConnected

REFERENCE_PATH = Path(__file__).with_name("reference.json")

FREQ_BINS = 80


def digest(value: Any) -> str:
    """Short stable digest of a JSON-serialisable value."""
    text = json.dumps(value, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def error_record(exc: BaseException) -> dict:
    return {"raises": type(exc).__name__, "message": str(exc)}


@dataclass(frozen=True)
class Op:
    key: str
    run: Callable[[], Any]
    summarize: Callable[[Any], Any]
    work: Callable[[Any], float]
    matches: Callable[[Any, Any], bool] = operator.eq


@dataclass(frozen=True)
class Outcome:
    """``failed`` names the exception type or ``"mismatch"`` when the op
    raised or its output differs from the recorded one. ``expected`` is true
    when the outcome equals the seed commit's record, a recorded failure
    included (known defects reproduce as recorded). ``summary`` is the
    output's summary, None when the op raised."""

    work: float
    failed: str | None
    expected: bool
    detail: str = ""
    summary: Any = None


def check(op: Op, reference: dict, result: Any = None, exc: BaseException | None = None) -> Outcome:
    recorded = reference[op.key]
    if exc is not None:
        got = error_record(exc)
        return Outcome(0.0, type(exc).__name__, got == recorded,
                       "" if got == recorded else f"{op.key}: raised {got}, recorded {recorded}")
    got = op.summarize(result)
    if not op.matches(got, recorded):
        return Outcome(0.0, "mismatch", False, f"{op.key}: got {got}, recorded {recorded}", got)
    return Outcome(op.work(result), None, True, summary=got)


# ---------------------------------------------------------------------------
# sweep: rank every path of an endpoint family by FLOPs
# ---------------------------------------------------------------------------

#: (family, depth label, template path, frames). All five families, one
#: bottleneck depth, both durations.
SWEEP_TEMPLATES = (
    ("modified_resnet", 34, "MOD", 300),
    ("original_resnet", 34, "ORI", 200),
    ("gemini_resnet", 34, "T14c", 300),
    ("sd_resnet", 38, "MOD", 200),
    ("df_resnet", 182, "MOD", 300),
    ("modified_resnet", 50, "MOD", 200),
)


def template_key(template) -> str:
    family, depth, path, frames = template
    return f"{family}/{depth}/{path}@{frames}"


def sweep_key(template, endpoint) -> str:
    return f"{template_key(template)}:{endpoint.alpha5},{endpoint.beta5}"


def summarize_ranking(ranked) -> dict:
    rows = [[r.name, r.rank, r.flops_total, r.params_total, r.error] for r in ranked]
    return {"paths": len(rows), "digest": digest(rows)}


def build_templates():
    return {
        template_key(t): sl.build(sl.make_request(t[0], t[1], path=t[2]))
        for t in SWEEP_TEMPLATES
    }


def sweep_op(template, spec, endpoint) -> Op:
    shape = sl.TensorShape(1, FREQ_BINS, template[3])

    def run():
        return sl.rank_paths_by_flops(sl.enumerate_paths(endpoint), shape, spec)

    return Op(sweep_key(template, endpoint), run, summarize_ranking, lambda ranked: len(ranked))


def sweep_rounds(seed: int, reference: dict) -> list[list[Op]]:
    """One round ranks all 36 endpoints under every template, in seed order;
    a run is whole rounds, so every run ranks the same multiset of families."""
    rng = random.Random(seed)
    specs = build_templates()
    ops = [sweep_op(t, specs[template_key(t)], e)
           for t in SWEEP_TEMPLATES for e in sl.enumerate_endpoints()]
    rng.shuffle(ops)
    return [ops]


def sweep_warmup() -> Op:
    template = SWEEP_TEMPLATES[0]
    spec = sl.build(sl.make_request(template[0], template[1], path=template[2]))
    return sweep_op(template, spec, sl.TrellisEndpoint(4, 8))


# ---------------------------------------------------------------------------
# analyze: name -> build -> count -> schema-v1 round trip -> recount
# ---------------------------------------------------------------------------

RESNET_DEPTHS = (18, 34, 50, 101, 152)
SD_DEPTHS = (22, 38)
#: Depth-first labels come in pairs with the same blocks: 3 or 4 separate
#: downsampling convs. A path fits exactly one label of each pair.
DF_DEPTH_PAIRS = ((59, 60), (113, 114), (182, 183))


def analyze_names() -> tuple[str, ...]:
    """Catalog names plus the bare name of every endpoint family."""
    names = list(catalog.CATALOG_NAMES)
    for endpoint in sl.enumerate_endpoints():
        name = sl.enumerate_paths(endpoint).paths[0].label
        if name not in names:
            names.append(name)
    return tuple(names)


def golden_names() -> tuple[str, ...]:
    golden = {(e.alpha5, e.beta5) for e in sl.golden_gemini_endpoints()}
    return tuple(n for n in analyze_names() if sl.final_factors(sl.resolve_name(n)) in golden)


def analyze_strata() -> list[tuple[str, tuple[int, ...], tuple[str, ...]]]:
    """(family, labels sharing one drawn path, path pool) per stratum."""
    names, golden = analyze_names(), golden_names()
    strata = []
    for family in ("modified_resnet", "original_resnet", "gemini_resnet"):
        pool = golden if family == "gemini_resnet" else names
        strata += [(family, (depth,), pool) for depth in RESNET_DEPTHS]
    strata += [("sd_resnet", (depth,), names) for depth in SD_DEPTHS]
    strata += [("df_resnet", pair, names) for pair in DF_DEPTH_PAIRS]
    return strata


def analyze_key(family: str, depth: int, name: str) -> str:
    return f"{family}/{depth}/{name}"


def analyze_op(family: str, depth: int, name: str) -> Op:
    short, long = sl.TensorShape(1, FREQ_BINS, 200), sl.TensorShape(1, FREQ_BINS, 300)

    def run():
        spec = sl.build(sl.make_request(family, depth, path=name))
        counts = (sl.count_params(spec).params_total,
                  sl.count_flops(spec, short).flops_total,
                  sl.count_flops(spec, long).flops_total)
        text = sl.model_to_json(spec)
        loaded = sl.model_from_json(text)
        recount = (sl.count_params(loaded).params_total,
                   sl.count_flops(loaded, short).flops_total,
                   sl.count_flops(loaded, long).flops_total)
        return counts, text, loaded == spec, recount

    def summarize(result):
        counts, text, same, recount = result
        return {"params": counts[0], "macs_200": counts[1], "macs_300": counts[2],
                "json": digest(text), "round_trip": same and recount == counts}

    return Op(analyze_key(family, depth, name), run, summarize, lambda _: 1.0)


def analyze_rounds(seed: int, reference: dict, count: int = 64) -> list[list[Op]]:
    """Each round: one spec per (family, depth) stratum with a drawn path.

    A depth-first pair builds the drawn path under both labels; exactly one
    label fits the path, so every round meets the recorded ``BuildError``
    defect three times.
    """
    rng = random.Random(seed)
    strata = analyze_strata()
    rounds = []
    for _ in range(count):
        ops = []
        for family, depths, pool in strata:
            name = rng.choice(pool)
            ops += [analyze_op(family, depth, name) for depth in depths]
        rng.shuffle(ops)
        rounds.append(ops)
    return rounds


def analyze_warmup() -> Op:
    return analyze_op("modified_resnet", 34, "T14c")


# ---------------------------------------------------------------------------
# verify: numeric run vs symbolic trace, exact multiply counts
# ---------------------------------------------------------------------------

VERIFY_FRAMES = (300, 200)
#: (family, depth label, path) of each family's principal spec.
VERIFY_PRINCIPALS = (
    ("df_resnet", 182, "MOD"),
    ("df_resnet", 183, "T14c"),
    ("sd_resnet", 38, "MOD"),
    ("gemini_resnet", 34, "T14c"),
    ("modified_resnet", 50, "MOD"),
)


def verify_inputs() -> dict[str, tuple[Callable[[], Any], int]]:
    """key -> (spec factory, frames) for the 24 catalog configs and the five
    principals, each at 80x300 and 80x200."""
    inputs = {}
    for frames in VERIFY_FRAMES:
        for name in catalog.CATALOG_NAMES:
            inputs[f"catalog/{name}@{frames}"] = (lambda n=name: verification.catalog_spec(n), frames)
        for family, depth, path in VERIFY_PRINCIPALS:
            factory = lambda f=family, d=depth, p=path: sl.build(sl.make_request(f, d, path=p))
            inputs[f"{family}/{depth}/{path}@{frames}"] = (factory, frames)
    return inputs


def verify_op(key: str, spec, frames: int, numeric_seed: int) -> Op:
    """The summary also carries the head's fully connected MACs, which the
    traced run subtracts from the multiply count to reconcile conv MACs."""
    head_macs = sum(e.layer.in_dim * e.layer.out_dim for e in spec.entries
                    if isinstance(e.layer, FullyConnected))

    def run():
        return verification.verify_spec_numeric(spec, time=frames, seed=numeric_seed)

    def summarize(result):
        return {"ok": result.ok, "layers": result.layers_checked, "multiplies": result.multiplies,
                "analytic": result.analytic_flops, "head_macs": head_macs}

    return Op(key, run, summarize, lambda r: r.analytic_flops / 1e9)


def verify_rounds(seed: int, reference: dict) -> list[list[Op]]:
    """One round: a recorded block of the 58 inputs, drawn by seed.

    ``record.py`` partitions the inputs into blocks of equal kernel mix and
    near-equal GMAC/s and median op time; every block holds the spec with
    the largest working set (DF-ResNet182/MOD at 80x300), so peak memory
    does not depend on the draw.
    """
    rng = random.Random(seed)
    blocks = reference["verify_blocks"]
    block = list(blocks[rng.randrange(len(blocks))])
    rng.shuffle(block)
    inputs = verify_inputs()
    specs = {}
    ops = []
    for key in block:
        factory, frames = inputs[key]
        spec_key = key.rsplit("@", 1)[0]
        if spec_key not in specs:
            specs[spec_key] = factory()
        ops.append(verify_op(key, specs[spec_key], frames, rng.randrange(2 ** 31)))
    return [ops]


def verify_warmup() -> Op:
    spec = sl.build(sl.make_request("gemini_resnet", 34, path="T14c"))
    return verify_op("gemini_resnet/34/T14c@200", spec, 200, verification.default_seed())


# ---------------------------------------------------------------------------
# score: parse a trial file, then EER and minDCF
# ---------------------------------------------------------------------------

#: Trials per file: the size of the VoxCeleb1-O trial list, half targets.
SCORE_TRIALS = 37_720
#: Decimal places scores are rounded to; fewer places mean more ties. Parse
#: cost grows with the places, so op times form one cluster per level; an
#: odd number of levels keeps the median op inside a cluster.
SCORE_DECIMALS = (2, 3, 4, 5, 6)
#: Separation d' of target from non-target scores (class overlap).
SCORE_SEPARATIONS = (1.0, 1.75, 2.5, 3.25)
SCORE_REPLICATES = 4
SCORE_FILES_PER_DECIMALS = 2


def score_key(decimals: int, separation: float, replicate: int) -> str:
    return f"d{decimals}/sep{separation}/r{replicate}"


def score_text(decimals: int, separation: float, replicate: int) -> str:
    index = (SCORE_DECIMALS.index(decimals), SCORE_SEPARATIONS.index(separation), replicate)
    rng = np.random.default_rng([20231206, *index])
    half = SCORE_TRIALS // 2
    scores = np.concatenate([rng.normal(separation, 1.0, half), rng.normal(0.0, 1.0, half)])
    labels = np.array(["target"] * half + ["nontarget"] * half)
    order = rng.permutation(SCORE_TRIALS)
    return "".join(f"{labels[i]} {scores[i]:.{decimals}f}\n" for i in order)


def score_op(key: str, text: str) -> Op:
    def run():
        trials = sl.TrialScoreSet.from_text(text)
        return len(trials.trials), sl.compute_eer(trials), sl.compute_min_dcf(trials)

    def summarize(result):
        return {"trials": result[0], "eer": list(result[1]), "min_dcf": list(result[2])}

    return Op(key, run, summarize, lambda result: float(result[0]), score_matches)


def score_matches(got: dict, recorded: dict, tolerance: float = 1e-12) -> bool:
    if got["trials"] != recorded["trials"]:
        return False
    pairs = zip(got["eer"] + got["min_dcf"], recorded["eer"] + recorded["min_dcf"])
    return all(abs(a - b) <= tolerance for a, b in pairs)


def score_files(seed: int, reference: dict) -> dict[str, str]:
    """Two files per rounding level, separation and replicate drawn by seed.
    The text digest is checked against the record, so a drifting generator
    fails here rather than as a metric mismatch."""
    rng = random.Random(seed)
    files = {}
    for decimals in SCORE_DECIMALS:
        combos = [(s, r) for s in SCORE_SEPARATIONS for r in range(SCORE_REPLICATES)]
        for separation, replicate in rng.sample(combos, SCORE_FILES_PER_DECIMALS):
            key = score_key(decimals, separation, replicate)
            text = score_text(decimals, separation, replicate)
            if digest(text) != reference[key]["text"]:
                raise RuntimeError(f"score file {key} differs from the recorded input")
            files[key] = text
    return files


def score_rounds(seed: int, reference: dict, count: int = 256) -> list[list[Op]]:
    """Each round parses and scores one file per rounding level."""
    rng = random.Random(seed)
    files = score_files(seed, reference)
    by_decimals = [[k for k in files if k.startswith(f"d{d}/")] for d in SCORE_DECIMALS]
    rounds = []
    for r in range(count):
        ops = [score_op(keys[r % len(keys)], files[keys[r % len(keys)]]) for keys in by_decimals]
        rng.shuffle(ops)
        rounds.append(ops)
    return rounds


def score_warmup() -> Op:
    key = score_key(SCORE_DECIMALS[0], SCORE_SEPARATIONS[0], 0)
    return score_op(key, score_text(SCORE_DECIMALS[0], SCORE_SEPARATIONS[0], 0))


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    rounds: Callable[[int, dict], list[list[Op]]]
    warmup: Callable[[], Op]
    rate_name: str
    rate_unit: str
    #: Whether times are scaled to the reference speed of ``speed.py``. Not
    #: for verify: its time goes to BLAS and large array copies, which the
    #: interpreter probe does not track (over five runs, scaling widened the
    #: spread of its GMAC/s from 5% to 17%).
    scaled: bool = True


WORKLOADS = {
    "sweep": Workload("sweep", sweep_rounds, sweep_warmup, "paths_per_s", "paths/s"),
    "analyze": Workload("analyze", analyze_rounds, analyze_warmup, "specs_per_s", "specs/s"),
    "verify": Workload("verify", verify_rounds, verify_warmup, "gmac_per_s", "GMAC/s",
                       scaled=False),
    "score": Workload("score", score_rounds, score_warmup, "trials_per_s", "trials/s"),
}


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def run_checked(op: Op, reference: dict) -> tuple[float, Outcome]:
    """Time one op; the check runs after the clock stops. Only the summary
    of the output is kept, so live objects (and garbage-collection work) do
    not grow over a run."""
    start = time.perf_counter()
    try:
        result = op.run()
    except Exception as exc:  # every failure is counted by type, never fatal
        return time.perf_counter() - start, check(op, reference, exc=exc)
    elapsed = time.perf_counter() - start
    return elapsed, check(op, reference, result=result)


def measure(rounds, seconds: float, reference: dict, tracer=None, limit: int | None = None,
            first_op: int = 0):
    """Run whole rounds until ``seconds`` have passed (or ``limit`` rounds).
    Returns one (op, seconds, outcome, probe seconds) record per op, the
    speed probe run just before the op; traced spans carry op ids counted
    from ``first_op``."""
    records = []
    start = time.perf_counter()
    index = 0
    while True:
        for op in rounds[index % len(rounds)]:
            probe = speed.probe()
            if tracer is not None:
                tracer.op = first_op + len(records)
            elapsed, outcome = run_checked(op, reference)
            records.append((op, elapsed, outcome, probe))
        index += 1
        if limit is not None:
            if index >= limit:
                break
        elif time.perf_counter() - start >= seconds:
            break
    if tracer is not None:
        tracer.op = -1
    return records
