"""The traced run: per-layer metrics, tracing overhead, reconciliation.

Per-layer values are per op of the workload (``ms/op``, ``calls/op``) so
they do not depend on how many rounds fit in the run. A metric whose layer
the workload does not reach reads 0.
"""

from __future__ import annotations

import statistics
import time
from collections import Counter, defaultdict

import stride_lab as sl
from stride_lab import verification

import speed
import workloads
from tracing import BUCKETS, Tracer

CONV = "numkernel.conv2d_forward"
RANK = "trellis.rank_paths_by_flops"

#: (function, caller) pairs every op of a workload shows exactly once. A
#: wrapper missing from the namespace a caller binds the function in drops
#: the pair, so these catch a missed rebinding.
EXPECTED_PAIRS = {
    "sweep": (("trellis.enumerate_paths", None), (RANK, None)),
    "analyze": (("builder.make_request", None), ("strides.resolve_name", "builder.make_request")),
    "verify": (("numkernel.run_model", "verification.verify_spec_numeric"),
               ("analysis.count_flops", "verification.verify_spec_numeric"),
               ("analysis.trace", "verification.verify_spec_numeric")),
    "score": (("metrics.TrialScoreSet.from_text", None),
              ("metrics.operating_points", "metrics.compute_eer"),
              ("metrics.operating_points", "metrics.compute_min_dcf")),
}

#: A binding the benchmark itself relies on, per workload, left unwrapped by
#: the negative control: the reconciliation must then report a problem.
CONTROL_SKIP = {
    "sweep": ("stride_lab", "build"),
    "analyze": ("stride_lab.builder", "resolve_name"),
    "verify": ("stride_lab.verification", "run_model"),
    "score": ("stride_lab.metrics", "operating_points"),
}

def per_layer_names() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    names = {
        f"{RANK}.self_ms": "ms/op",
        "builder.build.calls_per_path": "calls/path",
        "analysis.trace.calls_per_path": "calls/path",
        "builder.build.calls": "calls/op",
        "builder.build.ms": "ms/op",
        "analysis.trace.calls": "calls/op",
        "analysis.trace.ms": "ms/op",
        "analysis.count_flops.self_ms": "ms/op",
        "analysis.count_params.ms": "ms/op",
        "strides.canonical_name.ms": "ms/op",
        "strides.resolve_name.ms": "ms/op",
        "serialize.model_to_json.ms": "ms/op",
        "serialize.model_from_json.ms": "ms/op",
        f"{CONV}.calls": "calls/op",
        f"{CONV}.macs": "MAC/op",
        f"{CONV}.im2col_mb": "MB-computed/op",
    }
    for bucket in BUCKETS:
        names[f"{CONV}.{bucket}.ms"] = "ms/op"
        names[f"{CONV}.{bucket}.gmac_per_s"] = "GMAC/s"
    names.update({
        "numkernel.init_weights.ms": "ms/op",
        "numkernel.run_model.self_ms": "ms/op",
        "verification.verify_spec_numeric.self_ms": "ms/op",
        "metrics.TrialScoreSet.from_text.ms": "ms/op",
        "metrics.compute_eer.ms": "ms/op",
        "metrics.compute_min_dcf.ms": "ms/op",
        "metrics.operating_points.calls_per_file": "calls/file",
        "trace_overhead_pct": "%",
    })
    return names


def op_spans(tracer: Tracer, name: str):
    """(index, span) of the spans of ``name`` recorded inside ops; for
    functions with extras, only calls that recorded one."""
    return [(i, s) for i, s in enumerate(tracer.spans)
            if s[0] == name and s[4] >= 0 and tracer.extra.get(i, 0) is not None]


def layer_values(tracer: Tracer, ops: int, slowdown: float) -> dict[str, float]:
    """Times are divided by ``slowdown``, the run's median (1 for a workload
    reported unscaled)."""
    totals = tracer.aggregate()
    for entry in totals.values():
        entry["s"] /= slowdown
        entry["self_s"] /= slowdown

    def value(name: str, kind: str) -> float:
        entry = totals.get(name)
        if entry is None:
            return 0.0
        if kind == "calls":
            return entry["calls"] / ops
        return 1000.0 * entry["s" if kind == "ms" else "self_s"] / ops

    paths = sum(tracer.extra[i] for i, _ in op_spans(tracer, RANK))
    files = totals.get("metrics.TrialScoreSet.from_text", {}).get("calls", 0)
    values = {}
    for name in per_layer_names():
        if name == "trace_overhead_pct":
            continue
        if name.endswith(".calls_per_path"):
            calls = totals.get(name.rsplit(".", 1)[0], {}).get("calls", 0)
            values[name] = calls / paths if paths else 0.0
        elif name == "metrics.operating_points.calls_per_file":
            calls = totals.get("metrics.operating_points", {}).get("calls", 0)
            values[name] = calls / files if files else 0.0
        elif not name.startswith(CONV + "."):
            function, kind = name.rsplit(".", 1)
            values[name] = value(function, kind)

    convs = op_spans(tracer, CONV)
    bucket_s, bucket_macs = defaultdict(float), defaultdict(int)
    for index, span in convs:
        _, _, macs, _, bucket = tracer.extra[index]
        bucket_s[bucket] += (span[2] - span[1]) / slowdown
        bucket_macs[bucket] += macs
    values[f"{CONV}.calls"] = len(convs) / ops
    values[f"{CONV}.macs"] = sum(bucket_macs.values()) / ops
    values[f"{CONV}.im2col_mb"] = sum(tracer.extra[i][3] for i, _ in convs) / 1e6 / ops
    for bucket in BUCKETS:
        values[f"{CONV}.{bucket}.ms"] = 1000.0 * bucket_s[bucket] / ops
        values[f"{CONV}.{bucket}.gmac_per_s"] = (
            bucket_macs[bucket] / 1e9 / bucket_s[bucket] if bucket_s[bucket] else 0.0)
    return values


def reconcile(workload: str, tracer: Tracer, records, templates: int) -> list[str]:
    """Problems found; an empty list means the trace accounts for the work.
    ``templates`` is the number of sweep templates built outside the ops."""
    problems = []
    pairs = defaultdict(Counter)
    for span in tracer.spans:
        if span[4] >= 0:
            parent = tracer.spans[span[3]][0] if span[3] >= 0 else None
            pairs[span[4]][(span[0], parent)] += 1
    for op in range(len(records)):
        for pair in EXPECTED_PAIRS[workload]:
            if pairs[op][pair] != 1:
                problems.append(f"op {op}: {pairs[op][pair]} spans of {pair[0]} under {pair[1]}")
                break
    if workload == "sweep":
        paths = sum(tracer.extra[i] for i, _ in op_spans(tracer, RANK))
        builds = sum(1 for s in tracer.spans if s[0] == "builder.build")
        if builds != paths + templates:
            problems.append(f"builder.build calls {builds} != paths {paths} + templates {templates}")
    if workload == "verify":
        macs = Counter()
        for index, span in op_spans(tracer, CONV):
            macs[span[4]] += tracer.extra[index][2]
        for op, (spec_op, _, outcome, _) in enumerate(records):
            if outcome.summary is None:
                continue
            expected = outcome.summary["multiplies"] - outcome.summary["head_macs"]
            if macs[op] != expected:
                problems.append(f"op {op} {spec_op.key}: conv MACs {macs[op]} != "
                                f"multiplies - head MACs {expected}")
    return problems[:10]


def negative_control(workload, reference) -> list[str]:
    """Trace the warm-up op with one binding left unwrapped; the
    reconciliation must notice."""
    tracer = Tracer()
    tracer.install(skip=frozenset({CONTROL_SKIP[workload.name]}))
    try:
        records = workloads.measure([[workload.warmup()]], 0, reference, tracer=tracer, limit=1)
    finally:
        tracer.uninstall()
    # The sweep warm-up op builds its one template before ranking.
    return reconcile(workload.name, tracer, records, templates=1)


def conv_profile() -> list[dict]:
    """One row per conv layer of ResNet34 MOD and T14c at 80x300."""
    rows = []
    for config in ("MOD", "T14c"):
        spec = verification.catalog_spec(config)
        analytic = dict(sl.count_flops(spec, sl.TensorShape(1, 80, 300)).flops_by_layer)
        tracer = Tracer()
        tracer.install()
        try:
            tracer.op = 0
            verification.verify_spec_numeric(spec, time=300)
        finally:
            tracer.uninstall()
        for index, span in op_spans(tracer, CONV):
            name, shape, macs, im2col, bucket = tracer.extra[index]
            seconds = span[2] - span[1]
            rows.append({
                "config": config, "layer": name, "bucket": bucket, "out_shape": list(shape),
                "macs": analytic[name], "macs_match": macs == analytic[name],
                "ms": 1000.0 * seconds, "gmac_per_s": macs / 1e9 / seconds,
                "im2col_mb_computed": im2col / 1e6,
            })
    return rows


def traced_run(args, workload, rounds, reference, env: dict):
    """Alternate each round untraced and traced until half the time is up,
    so both sides of the overhead see the same machine conditions."""
    tracer = Tracer()
    tracer.install()
    try:
        traced_rounds = workload.rounds(args.seed, reference)
    finally:
        tracer.uninstall()
    untraced, traced = [], []
    start = time.perf_counter()
    count = 0
    while count == 0 or time.perf_counter() - start < args.seconds / 2:
        records = workloads.measure([rounds[count % len(rounds)]], 0, reference, limit=1)
        untraced += records
        tracer.install()
        try:
            records = workloads.measure([traced_rounds[count % len(traced_rounds)]], 0,
                                        reference, tracer=tracer, limit=1, first_op=len(traced))
        finally:
            tracer.uninstall()
        traced += records
        count += 1
    untraced_s = sum(r[1] for r in untraced)
    traced_s = sum(r[1] for r in traced)
    slowdown = 1.0
    if workload.scaled:
        slowdown = statistics.median(speed.slowdowns([r[3] for r in traced]))
    values = layer_values(tracer, len(traced), slowdown)
    values["trace_overhead_pct"] = 100.0 * (traced_s / untraced_s - 1.0)

    problems = reconcile(workload.name, tracer, traced, templates=len(workloads.SWEEP_TEMPLATES))
    files = {f"{args.workload}-seed{args.seed}-spans.json":
             {"fields": ["name", "start", "end", "parent", "op"], "spans": tracer.spans}}
    if workload.name == "verify":
        rows = conv_profile()
        files["conv_profile.json"] = {"environment": env, "rows": rows}
        if not all(row["macs_match"] for row in rows):
            problems.append("conv profile MACs differ from count_flops")
    control = negative_control(workload, reference)
    detail = {
        "rounds": count,
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "spans": len(tracer.spans),
        "slowdown_median": slowdown,
        "reconciliation": problems or "ok",
        "negative_control": control[:1] or "not detected",
    }
    units = per_layer_names()
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    return metrics, detail, untraced + traced, not problems and bool(control), files
