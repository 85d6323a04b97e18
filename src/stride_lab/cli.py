"""Command-line surface.

Subcommands: enumerate | build | analyze | verify | metrics | render.
Exit codes: 0 success, 1 usage error, 2 build/input error (including a
stdout closed before the output was written), 3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import __version__
from .analysis import AnalysisError, compare, count_flops
from .builder import BuildError, build, make_request, request_from_spec
from .catalog import CATALOG_NAMES, PRINCIPAL_CONFIG, is_cataloged
from .diagram import trellis_dot
from .layers import Family, TensorShape
from .metrics import (
    DegenerateScoresError,
    ScoreFileError,
    TrialScoreSet,
    compute_eer,
    compute_min_dcf,
)
from .numkernel import KernelError
from .serialize import (
    SpecFormatError,
    TableRow,
    format_table,
    model_from_json,
    model_to_json,
)
from .strides import (
    PathClass,
    TrellisPath,
    UnknownConfigError,
    canonical_name,
    classify_path,
    final_factors,
    iter_all_paths,
    paths_to_endpoint,
    resolve_name,
)
from .trellis import enumerate_endpoints, enumerate_paths, golden_gemini_endpoints
from .verification import (
    VERIFY_DTYPE,
    default_seed,
    gradcheck_suite,
    verify_catalog_configs,
    verify_spec_numeric,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BUILD = 2
EXIT_VERIFY = 3

FRAMES_2S = 200
FRAMES_3S = 300

#: Environment variables that set the BLAS thread count, reported by
#: ``verify --json`` when set.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

_FAMILIES = {
    "resnet": Family.MODIFIED_RESNET,
    "original-resnet": Family.ORIGINAL_RESNET,
    "gemini-resnet": Family.GEMINI_RESNET,
    "dfresnet": Family.DF_RESNET,
    "sdresnet": Family.SD_RESNET,
}

_CLASSES = {
    "time-priority": PathClass.TIME_PRIORITY,
    "equal": PathClass.EQUAL,
    "frequency-priority": PathClass.FREQUENCY_PRIORITY,
}

#: Removed command-line forms (a subcommand and its flags) and what replaces each.
_REMOVED = {"compare": "analyze FAMILY DEPTH --path A --compare B", "enumerate --dot": "render"}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: D102 - argparse hook
        raise UsageError(message)


def _int_at_least(minimum: int):
    """argparse type: an integer no smaller than ``minimum``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    return parse


_positive_int = _int_at_least(1)


def _build_parser() -> _Parser:
    parser = _Parser(prog="stride-lab", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_enum = sub.add_parser("enumerate", help="list trellis endpoints or paths")
    p_enum.add_argument("--endpoint", help="alpha,beta downsampling factors, e.g. 2,16")
    p_enum.add_argument("--class", dest="path_class", choices=sorted(_CLASSES))
    p_enum.add_argument("--paths", action="store_true", help="list paths instead of endpoints")

    def add_model_args(p):
        p.add_argument("family", choices=sorted(_FAMILIES))
        p.add_argument("depth", type=int)
        p.add_argument("--path", help="configuration name, e.g. T14c or MOD")
        p.add_argument(
            "--gemini", action="store_true",
            help=f"use the principal golden-gemini configuration ({PRINCIPAL_CONFIG})",
        )
        p.add_argument("--se", type=int, default=None, metavar="R",
                       help="add squeeze-excitation blocks with reduction R")
        p.add_argument("--res2net", type=int, default=None, metavar="S",
                       help="use res2net splitting with scale S")
        p.add_argument("--freq-bins", type=_positive_int, default=80)
        p.add_argument("--embedding-dim", type=_positive_int, default=256)

    p_build = sub.add_parser("build", help="elaborate a model spec and export JSON")
    add_model_args(p_build)
    p_build.add_argument("-o", "--output", help="output file (default: stdout)")

    p_analyze = sub.add_parser("analyze", help="analytic shapes, params, and FLOPs")
    add_model_args(p_analyze)
    p_analyze.add_argument("--compare", dest="compare_with", metavar="NAME",
                           help="also report deltas against this configuration")
    p_analyze.add_argument("--per-layer", action="store_true")
    p_analyze.add_argument("--json", action="store_true", dest="as_json")
    p_analyze.add_argument("--csv", action="store_true", dest="as_csv")
    p_analyze.add_argument("--catalog", action="store_true",
                           help="analyze every cataloged configuration")

    p_verify = sub.add_parser("verify", help="numeric-vs-symbolic cross checks")
    p_verify.add_argument("--all-table3-configs", action="store_true",
                          help="check the strategic-search configuration set")
    p_verify.add_argument("--all-catalog-configs", action="store_true",
                          help="check every cataloged configuration")
    p_verify.add_argument("--gradcheck", action="store_true")
    p_verify.add_argument("--gradcheck-trials", type=_positive_int, default=100)
    p_verify.add_argument("--spec", help="verify a model-spec JSON file")
    # Statistics pooling needs at least 2 frames.
    p_verify.add_argument("--frames", type=_int_at_least(2), default=FRAMES_3S)
    p_verify.add_argument("--seed", type=int, default=None)
    p_verify.add_argument("--json", action="store_true", dest="as_json")

    p_metrics = sub.add_parser("metrics", help="EER and minDCF from a score file")
    p_metrics.add_argument("score_file")
    p_metrics.add_argument("--p-target", type=float, default=0.01)
    p_metrics.add_argument("--c-fa", type=float, default=1.0)
    p_metrics.add_argument("--c-miss", type=float, default=1.0)
    p_metrics.add_argument("--json", action="store_true", dest="as_json")

    p_render = sub.add_parser("render", help="emit trellis diagrams as Graphviz DOT")
    p_render.add_argument("--highlight", help="comma-separated configuration names to overlay")
    p_render.add_argument("-o", "--output", help="output file (default: stdout)")

    return parser


def _parse_endpoint(text: str) -> tuple[int, int]:
    try:
        alpha, beta = (int(v) for v in text.split(","))
    except ValueError:
        raise UsageError(f"--endpoint expects 'alpha,beta', got {text!r}") from None
    return alpha, beta


def _write(text: str, output: str | None) -> int:
    """Write ``text`` to ``output`` (stdout when None); returns an exit code."""
    if output:
        try:
            Path(output).write_text(text)
        except OSError as exc:
            print(f"error: cannot write {output}: {exc.strerror or exc}", file=sys.stderr)
            return EXIT_BUILD
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _resolve_request(args, path: str | None = None, family: Family | None = None):
    """The build request of ``args``; an explicit path or family (a catalog
    row's) overrides the command line's."""
    family = family or _FAMILIES[args.family]
    path = path or args.path
    if args.gemini:
        if path is not None:
            raise UsageError("--path and --gemini are mutually exclusive")
        path = PRINCIPAL_CONFIG
        if family is Family.MODIFIED_RESNET:
            family = Family.GEMINI_RESNET
    return make_request(
        family,
        args.depth,
        path=path,
        embedding_dim=args.embedding_dim,
        input_freq_bins=args.freq_bins,
        se_reduction=args.se,
        res2net_scale=args.res2net,
    )


def _path_row(path: TrellisPath) -> str:
    name = canonical_name(path)
    alpha, beta = final_factors(path)
    cls = classify_path(path).value
    time = ",".join(str(v) for v in path.time_strides)
    freq = ",".join(str(v) for v in path.freq_strides)
    flag = "catalog" if is_cataloged(path) else "extension"
    return f"{name:<8} {cls:<20} ({alpha},{beta})  time=[{time}] freq=[{freq}]  {flag}"


def _cmd_enumerate(args) -> int:
    wanted = _CLASSES[args.path_class] if args.path_class else None
    if args.endpoint or args.paths:
        paths = iter_all_paths()
        if args.endpoint:
            alpha, beta = _parse_endpoint(args.endpoint)
            try:
                paths = paths_to_endpoint(alpha, beta)
            except ValueError as exc:
                raise UsageError(str(exc)) from None
        for path in paths:
            if wanted is None or classify_path(path) is wanted:
                print(_path_row(path))
        return EXIT_OK
    golden = set(golden_gemini_endpoints())
    for endpoint in enumerate_endpoints():
        if wanted is not None and endpoint.path_class is not wanted:
            continue
        n_paths = len(enumerate_paths(endpoint).paths)
        marker = "  golden-gemini" if endpoint in golden else ""
        print(
            f"({endpoint.alpha5},{endpoint.beta5})  class={endpoint.path_class.value:<20} "
            f"paths={n_paths}{marker}"
        )
    return EXIT_OK


def _cmd_build(args) -> int:
    spec = build(_resolve_request(args))
    return _write(model_to_json(spec) + "\n", args.output)


def _analyze_spec(spec):
    shape_2s = TensorShape(1, spec.input_freq_bins, FRAMES_2S)
    shape_3s = TensorShape(1, spec.input_freq_bins, FRAMES_3S)
    return spec, count_flops(spec, shape_2s), count_flops(spec, shape_3s)


def _table_row(spec, report_2s, report_3s) -> TableRow:
    alpha, beta = final_factors(spec.path)
    return TableRow(
        index=spec.path.label or canonical_name(spec.path),
        path_class=classify_path(spec.path).value,
        alpha5=alpha,
        beta5=beta,
        time_strides=spec.path.time_strides,
        freq_strides=spec.path.freq_strides,
        params_millions=round(report_2s.params_millions, 2),
        flops_2s_giga=round(report_2s.flops_giga, 2),
        flops_3s_giga=round(report_3s.flops_giga, 2),
        cataloged=is_cataloged(spec.path),
    )


def _render_text(rows, per_layer: bool) -> None:
    spec, report_2s, report_3s = rows[0]
    alpha, beta = final_factors(spec.path)
    print(f"config      {spec.path.label} ({classify_path(spec.path).value}, endpoint ({alpha},{beta}))")
    print(f"strides     time {list(spec.path.time_strides)} / freq {list(spec.path.freq_strides)}")
    print(f"model       {spec.display_name}, C={spec.base_channels}, "
          f"blocks {[s.num_blocks for s in spec.stages]}, embedding {spec.embedding_dim}")
    print(f"params      {report_2s.params_total} ({report_2s.params_millions:.2f} M)")
    print(f"flops 2s    {report_2s.flops_total} ({report_2s.flops_giga:.2f} G)")
    print(f"flops 3s    {report_3s.flops_total} ({report_3s.flops_giga:.2f} G)")
    for note in spec.notes:
        print(f"note        {note}")
    if per_layer:
        print("per-layer (params / 3s flops):")
        flops_map = dict(report_3s.flops_by_layer)
        for name, params in report_2s.params_by_layer:
            print(f"  {name:<32} {params:>12}  {flops_map.get(name, 0):>14}")
    if len(rows) == 2:
        other_spec, other_2s, other_3s = rows[1]
        delta_2s, delta_3s = compare(report_2s, other_2s), compare(report_3s, other_3s)
        print(f"compare     {spec.path.label} -> {other_spec.path.label}")
        print(f"params      {delta_2s.params_pct:+.1f}%")
        print(f"flops 2s    {delta_2s.flops_pct:+.1f}%")
        print(f"flops 3s    {delta_3s.flops_pct:+.1f}%")


def _render_json(rows, per_layer: bool) -> None:
    spec, report_2s, report_3s = rows[0]
    doc = {
        "index": spec.path.label,
        "family": spec.family.value,
        "depth": spec.depth_label,
        "params_total": report_2s.params_total,
        "flops": {"2s": report_2s.flops_total, "3s": report_3s.flops_total},
    }
    if per_layer:
        doc["params_by_layer"] = list(report_2s.params_by_layer)
        doc["flops_by_layer_3s"] = list(report_3s.flops_by_layer)
    if len(rows) == 2:
        other_spec, other_2s, other_3s = rows[1]
        delta_2s, delta_3s = compare(report_2s, other_2s), compare(report_3s, other_3s)
        doc["compare"] = {
            "index": other_spec.path.label,
            "params_total": other_2s.params_total,
            "flops": {"2s": other_2s.flops_total, "3s": other_3s.flops_total},
            "params_pct": delta_2s.params_pct,
            "flops_pct": {"2s": delta_2s.flops_pct, "3s": delta_3s.flops_pct},
        }
    print(json.dumps(doc, indent=2))


def _render_csv(rows, per_layer: bool) -> None:
    sys.stdout.write(format_table([_table_row(*row) for row in rows]))


def _analyze_renderer(args):
    """The one output of ``analyze``; a flag it cannot honour is refused here."""
    if args.catalog:
        if args.family != "resnet":
            raise UsageError("--catalog analyzes the resnet template; use 'analyze resnet DEPTH --catalog'")
        if args.path is not None or args.gemini or args.compare_with is not None:
            raise UsageError("--catalog analyzes every cataloged path; drop --path, --gemini and --compare")
    table = args.as_csv or args.catalog
    if table and args.as_json:
        raise UsageError("--csv and --catalog print the CSV table; drop --json")
    if table and args.per_layer:
        raise UsageError("the CSV table has no per-layer columns; drop --per-layer")
    return _render_csv if table else _render_json if args.as_json else _render_text


def _cmd_analyze(args) -> int:
    render = _analyze_renderer(args)
    if args.catalog:
        # Each row is the single analyze of its path; the ORI row keeps the
        # original recipe, as in verification.catalog_spec.
        specs = [
            build(_resolve_request(
                args, path=name, family=Family.ORIGINAL_RESNET if name == "ORI" else None
            ))
            for name in CATALOG_NAMES
        ]
    else:
        specs = [build(_resolve_request(args))]
        if args.compare_with is not None:
            # The substitution the trellis ranking makes: the same model options
            # (and, for DF-ResNet, the depth label that path implies).
            specs.append(build(request_from_spec(specs[0], path=resolve_name(args.compare_with))))
    # Every row is counted before any output, so an error prints nothing.
    render([_analyze_spec(spec) for spec in specs], args.per_layer)
    return EXIT_OK


def _environment() -> dict:
    """numpy version, BLAS name and version (None when numpy does not
    report them) and the BLAS thread variables that are set."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        blas = {}
    return {
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_thread_vars": {v: os.environ[v] for v in _BLAS_THREAD_VARS if v in os.environ},
    }


def _cmd_verify(args) -> int:
    seed = args.seed if args.seed is not None else default_seed()
    checks = []
    grad_reports = []
    ran_anything = False

    if args.spec:
        ran_anything = True
        try:
            spec = model_from_json(Path(args.spec).read_text())
        except (OSError, SpecFormatError, ValueError) as exc:
            print(f"error: rejected spec {args.spec}: {exc}", file=sys.stderr)
            return EXIT_BUILD
        checks.append(verify_spec_numeric(spec, time=args.frames, seed=seed))

    table3 = CATALOG_NAMES[:18]
    if args.all_table3_configs:
        ran_anything = True
        checks.extend(verify_catalog_configs(table3, time=args.frames, seed=seed))
    if args.all_catalog_configs:
        ran_anything = True
        checks.extend(verify_catalog_configs(CATALOG_NAMES, time=args.frames, seed=seed))
    if args.gradcheck:
        ran_anything = True
        grad_reports = gradcheck_suite(trials=args.gradcheck_trials, seed=seed)
    if not ran_anything:
        checks.extend(verify_catalog_configs(("MOD", "T14c"), time=args.frames, seed=seed))
        grad_reports = gradcheck_suite(trials=10, seed=seed)

    failures = [c for c in checks if not c.ok]
    grad_failures = [r for r in grad_reports if not r.passed]
    if args.as_json:
        doc = {
            "seed": seed,
            "dtype": VERIFY_DTYPE.name,
            "environment": _environment(),
            "checks": [
                {
                    "name": c.name,
                    "ok": c.ok,
                    "layers": c.layers_checked,
                    "multiplies": c.multiplies,
                    "analytic_flops": c.analytic_flops,
                    "detail": c.detail,
                }
                for c in checks
            ],
            "gradcheck": {
                "trials": len(grad_reports),
                "max_rel_error": max((r.max_rel_error for r in grad_reports), default=0.0),
                "failures": len(grad_failures),
            },
            "failures": len(failures) + len(grad_failures),
        }
        print(json.dumps(doc, indent=2))
    else:
        for c in checks:
            status = "ok  " if c.ok else "FAIL"
            print(f"{status} {c.name:<8} layers={c.layers_checked} "
                  f"multiplies={c.multiplies} analytic={c.analytic_flops} {c.detail}")
        if grad_reports:
            worst = max(r.max_rel_error for r in grad_reports)
            status = "ok  " if not grad_failures else "FAIL"
            print(f"{status} gradcheck trials={len(grad_reports)} max_rel_err={worst:.3e}")
    if failures or grad_failures:
        return EXIT_VERIFY
    return EXIT_OK


def _cmd_metrics(args) -> int:
    try:
        trials = TrialScoreSet.from_file(args.score_file)
        eer, eer_thr = compute_eer(trials)
        dcf, dcf_thr = compute_min_dcf(trials, args.p_target, args.c_fa, args.c_miss)
    except FileNotFoundError:
        print(f"error: no such file: {args.score_file}", file=sys.stderr)
        return EXIT_BUILD
    except OSError as exc:
        print(f"error: cannot read {args.score_file}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_BUILD
    except (ScoreFileError, DegenerateScoresError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUILD
    n_target = len(trials.target_scores)
    n_nontarget = len(trials.nontarget_scores)
    if args.as_json:
        doc = {
            "trials": len(trials.trials),
            "targets": n_target,
            "nontargets": n_nontarget,
            "eer": eer,
            "eer_threshold": eer_thr,
            "min_dcf": dcf,
            "min_dcf_threshold": dcf_thr,
            "p_target": args.p_target,
            "c_fa": args.c_fa,
            "c_miss": args.c_miss,
        }
        print(json.dumps(doc, indent=2))
        return EXIT_OK
    print(f"trials     {len(trials.trials)} ({n_target} target / {n_nontarget} nontarget)")
    print(f"EER        {100.0 * eer:.3f}%  threshold {eer_thr:.6f}")
    print(
        f"minDCF     {dcf:.4f}  threshold {dcf_thr:.6f}  "
        f"(p_target={args.p_target:g}, c_fa={args.c_fa:g}, c_miss={args.c_miss:g})"
    )
    return EXIT_OK


def _cmd_render(args) -> int:
    paths = ()
    if args.highlight:
        paths = tuple(resolve_name(name) for name in args.highlight.split(","))
    return _write(trellis_dot(paths=paths), args.output)


_COMMANDS = {
    "enumerate": _cmd_enumerate,
    "build": _cmd_build,
    "analyze": _cmd_analyze,
    "verify": _cmd_verify,
    "metrics": _cmd_metrics,
    "render": _cmd_render,
}


def _refuse_removed(argv: list[str]) -> None:
    for form, replacement in _REMOVED.items():
        command, *flags = form.split()
        if argv[:1] == [command] and set(flags) <= set(argv):
            raise UsageError(f"'{form}' was removed; use '{replacement}'")


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = _build_parser()
    try:
        _refuse_removed(argv)
        args = parser.parse_args(argv)
        code = _COMMANDS[args.command](args)
        # Flush here, so a closed pipe raises inside this handler rather
        # than at interpreter exit.
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader went away (``| head``). Point stdout at devnull so the
        # interpreter's own final flush cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BUILD
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except UnknownConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUILD
    except (BuildError, AnalysisError, SpecFormatError, KernelError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUILD


if __name__ == "__main__":
    sys.exit(main())
