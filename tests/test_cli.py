import io
import json
import os
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stride_lab import verification
from stride_lab.analysis import compare, count_flops
from stride_lab.builder import build, make_request, request_from_spec
from stride_lab.catalog import CATALOG_NAMES
from stride_lab.cli import main
from stride_lab.layers import TensorShape
from stride_lab.numkernel import run_model
from stride_lab.serialize import parse_table
from stride_lab.strides import resolve_name

from oracles import MALFORMED_SPECS, random_trials, sweep_eer, sweep_min_dcf


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEnumerate:
    def test_endpoint_2_16_lists_25_paths(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--endpoint", "2,16")
        assert code == 0
        assert len(out.strip().splitlines()) == 25

    def test_endpoint_with_class_filter(self, capsys):
        code, out, _ = run_cli(
            capsys, "enumerate", "--class", "time-priority", "--endpoint", "2,16"
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 25

    def test_trivial_endpoint_lists_one_path(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--endpoint", "1,1")
        assert code == 0
        assert len(out.strip().splitlines()) == 1

    def test_default_lists_36_endpoints(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 36
        assert sum("golden-gemini" in line for line in lines) == 2

    def test_paths_flag_lists_all_1024(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--paths")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 1024
        assert sum("extension" in line for line in lines) == 1024 - 24

    def test_bad_endpoint_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "enumerate", "--endpoint", "7,16")
        assert code == 1
        assert "usage error" in err

    def test_unknown_flag_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "enumerate", "--wat")
        assert code == 1


class TestAnalyze:
    def test_gemini_resnet34_values(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "resnet", "34", "--path", "T14c")
        assert code == 0
        assert "5978976 (5.98 M)" in out
        assert "(4.35 G)" in out
        assert "(6.52 G)" in out

    def test_gemini_flag_for_dfresnet(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "dfresnet", "183", "--gemini")
        assert code == 0
        assert "(9.20 M)" in out
        assert "(8.03 G)" in out and "(12.04 G)" in out

    def test_compare_against_baseline(self, capsys):
        code, out, _ = run_cli(
            capsys, "analyze", "resnet", "34", "--path", "MOD", "--compare", "T14c"
        )
        assert code == 0
        assert "params      -9.9%" in out
        assert "flops 3s    -4.2%" in out

    def test_catalog_csv_is_byte_stable(self, capsys):
        code, first, _ = run_cli(capsys, "analyze", "resnet", "34", "--catalog")
        assert code == 0
        code, second, _ = run_cli(capsys, "analyze", "resnet", "34", "--catalog")
        assert code == 0
        assert first == second
        rows = parse_table(first)
        assert len(rows) == 24
        by_name = {r.index: r for r in rows}
        assert by_name["MOD"].params_millions == 6.63
        assert by_name["T14c"].params_millions == 5.98
        assert by_name["ORI"].params_millions == 21.41
        assert all(r.cataloged for r in rows)

    def test_catalog_rows_follow_model_options(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "resnet", "34", "--catalog", "--freq-bins", "40")
        assert code == 0
        by_name = {r.index: r for r in parse_table(out)}
        code, single, _ = run_cli(
            capsys, "analyze", "resnet", "34", "--path", "MOD", "--freq-bins", "40", "--csv"
        )
        assert code == 0
        assert parse_table(single) == (by_name["MOD"],)
        assert single.splitlines()[1] in out.splitlines()
        code, out, _ = run_cli(capsys, "analyze", "resnet", "34", "--catalog", "--se", "4")
        assert code == 0
        with_se = {r.index: r for r in parse_table(out)}
        assert with_se["MOD"].params_millions > 6.63

    def test_catalog_at_three_freq_bins(self, capsys):
        code, out, err = run_cli(capsys, "analyze", "resnet", "34", "--catalog", "--freq-bins", "3")
        assert code == 0, err
        assert len(parse_table(out)) == 24

    def test_catalog_rejects_a_path(self, capsys):
        code, out, err = run_cli(capsys, "analyze", "resnet", "34", "--catalog", "--path", "MOD")
        assert code == 1 and out == ""
        assert "usage error" in err

    def test_unknown_compare_name_prints_nothing(self, capsys):
        code, out, err = run_cli(capsys, "analyze", "resnet", "34", "--compare", "NOPE")
        assert code == 2
        assert out == ""
        assert "NOPE" in err

    def test_compare_with_machine_output(self, capsys):
        code, out, err = run_cli(capsys, "analyze", "resnet", "34", "--compare", "T14c", "--json")
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert doc["index"] == "MOD" and doc["params_total"] == 6634336
        assert doc["compare"]["index"] == "T14c"
        assert doc["compare"]["params_total"] == 5978976
        assert round(doc["compare"]["params_pct"], 2) == -9.88
        code, out, err = run_cli(capsys, "analyze", "resnet", "34", "--compare", "T14c", "--csv")
        assert (code, err) == (0, "")
        assert [r.index for r in parse_table(out)] == ["MOD", "T14c"]
        assert [r.params_millions for r in parse_table(out)] == [6.63, 5.98]

    @pytest.mark.parametrize("argv,request_args", [
        (("resnet", "34", "--path", "MOD", "--compare", "T14c"), ("modified_resnet", 34, "MOD")),
        (("resnet", "34", "--gemini", "--compare", "MOD"), ("gemini_resnet", 34, "T14c")),
        (("dfresnet", "59", "--compare", "T14c"), ("df_resnet", 59, None)),
        (("gemini-resnet", "34", "--compare", "MOD"), ("gemini_resnet", 34, None)),
    ], ids=["MOD-T14c", "gemini-MOD", "df59-T14c", "gemini-resnet-MOD"])
    def test_json_deltas_equal_analysis_compare(self, capsys, argv, request_args):
        code, out, err = run_cli(capsys, "analyze", *argv, "--json")
        assert (code, err) == (0, "")
        doc = json.loads(out)["compare"]
        base = build(make_request(*request_args))
        other = build(request_from_spec(base, path=resolve_name(argv[-1])))
        reports = {
            tag: (count_flops(base, TensorShape(1, 80, frames)),
                  count_flops(other, TensorShape(1, 80, frames)))
            for tag, frames in (("2s", 200), ("3s", 300))
        }
        deltas = {tag: compare(*pair) for tag, pair in reports.items()}
        assert doc["index"] == argv[-1]
        assert doc["params_total"] == reports["2s"][1].params_total
        assert doc["flops"] == {tag: pair[1].flops_total for tag, pair in reports.items()}
        assert doc["params_pct"] == deltas["2s"].params_pct
        assert doc["flops_pct"] == {tag: delta.flops_pct for tag, delta in deltas.items()}

    @pytest.mark.parametrize("flags", [
        ("--json", "--csv"),
        ("--per-layer", "--csv"),
        ("--catalog", "--json"),
        ("--catalog", "--per-layer"),
    ], ids=["json-csv", "per-layer-csv", "catalog-json", "catalog-per-layer"])
    def test_unhonoured_flag_combination_is_usage_error(self, capsys, flags):
        code, out, err = run_cli(capsys, "analyze", "resnet", "34", *flags)
        assert code == 1 and out == ""
        assert err.startswith("usage error: ")

    @pytest.mark.parametrize("argv,expected", [
        (("--compare", ""), 2),
        (("--catalog", "--path", ""), 1),
        (("--catalog", "--compare", ""), 1),
    ], ids=["compare", "catalog-path", "catalog-compare"])
    def test_empty_name_is_not_dropped(self, capsys, argv, expected):
        code, out, err = run_cli(capsys, "analyze", "resnet", "34", *argv)
        assert code == expected and out == ""
        assert err.startswith("usage error: " if expected == 1 else "error: ")

    def test_catalog_rejects_compare(self, capsys):
        code, out, err = run_cli(capsys, "analyze", "resnet", "34", "--catalog", "--compare", "T14c")
        assert code == 1 and out == ""
        assert "usage error" in err

    def test_gemini_compares_against_named_path(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "resnet", "34", "--gemini", "--compare", "MOD")
        assert code == 0
        assert "compare     T14c -> MOD" in out

    def test_json_report(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "resnet", "34", "--path", "MOD", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["params_total"] == 6634336

    def test_single_row_csv(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "resnet", "34", "--path", "T14c", "--csv")
        assert code == 0
        rows = parse_table(out)
        assert len(rows) == 1 and rows[0].index == "T14c"
        assert rows[0].params_millions == 5.98

    def test_per_layer_breakdown(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "resnet", "18", "--path", "MOD", "--per-layer")
        assert code == 0
        assert "stem.conv" in out and "head.fc" in out

    def test_catalog_requires_resnet_family(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "dfresnet", "182", "--catalog")
        assert code == 1
        assert "usage error" in err

    def test_unknown_path_name_is_build_error(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "resnet", "34", "--path", "T99")
        assert code == 2
        assert "error" in err

    def test_depth_mismatch_is_build_error(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "dfresnet", "183", "--path", "MOD")
        assert code == 2


class TestBuildAndVerifySpec:
    def test_build_then_verify_round_trip(self, capsys, tmp_path):
        spec_file = tmp_path / "model.json"
        code, out, _ = run_cli(capsys, "build", "resnet", "18", "--path", "MOD",
                               "-o", str(spec_file))
        assert code == 0
        code, out, _ = run_cli(capsys, "verify", "--spec", str(spec_file), "--frames", "48")
        assert code == 0
        assert "ok" in out

    def test_corrupted_spec_rejected(self, capsys, tmp_path):
        spec_file = tmp_path / "model.json"
        run_cli(capsys, "build", "resnet", "18", "--path", "MOD", "-o", str(spec_file))
        doc = json.loads(spec_file.read_text())
        for layer in doc["layers"]:
            if layer["kind"] == "conv2d":
                layer["stride"]["time"] = 3
                break
        spec_file.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "verify", "--spec", str(spec_file))
        assert code == 2
        assert "rejected" in err

    def test_duplicate_layer_name_rejected(self, capsys, tmp_path):
        spec_file = tmp_path / "model.json"
        run_cli(capsys, "build", "resnet", "18", "--path", "MOD", "-o", str(spec_file))
        doc = json.loads(spec_file.read_text())
        for layer in doc["layers"]:
            if layer["name"] == "stage2.block2.conv1":
                layer["name"] = "stage2.block1.conv2"
        spec_file.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "verify", "--spec", str(spec_file), "--frames", "48")
        assert code == 2
        assert "duplicate layer name 'stage2.block1.conv2'" in err
        assert "Traceback" not in out + err

    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("padding", [-1, -1], "padding components must be >= 0"),
            ("kernel", [0, 0], "kernel components must be >= 1"),
        ],
        ids=["negative-padding", "zero-kernel"],
    )
    def test_invalid_maxpool_rejected(self, capsys, tmp_path, field, value, message):
        spec_file = tmp_path / "model.json"
        run_cli(capsys, "build", "original-resnet", "18", "--path", "ORI", "-o", str(spec_file))
        doc = json.loads(spec_file.read_text())
        pool = next(l for l in doc["layers"] if l["kind"] == "maxpool2d")
        pool[field] = value
        spec_file.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "verify", "--spec", str(spec_file), "--frames", "64")
        assert code == 2
        assert f"error: rejected spec {spec_file}: " in err
        assert f"stage2.maxpool: {message}" in err
        assert "Traceback" not in out + err

    def test_float32_overflow_is_build_error(self, capsys, tmp_path, monkeypatch):
        # An input scaled to 1e30 overflows the statistics pooling in
        # float32: a KernelError naming the layer, exit 2, no warning.
        spec_file = tmp_path / "model.json"
        run_cli(capsys, "build", "resnet", "34", "--path", "MOD", "-o", str(spec_file))

        def scaled_run(spec, x, **kwargs):
            return run_model(spec, x * np.float32(1e30), **kwargs)

        monkeypatch.setattr(verification, "run_model", scaled_run)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "verify", "--spec", str(spec_file), "--frames", "48")
        assert code == 2
        assert "error: head.pool: first layer with a non-finite output (float32 overflow)" in err
        assert "Traceback" not in out + err

    @pytest.mark.parametrize("mutation", sorted(MALFORMED_SPECS))
    def test_malformed_spec_is_build_error(self, capsys, tmp_path, mutation):
        spec_file = tmp_path / "model.json"
        run_cli(capsys, "build", "resnet", "34", "--path", "MOD", "-o", str(spec_file))
        doc = json.loads(spec_file.read_text())
        mutate, message = MALFORMED_SPECS[mutation]
        mutate(doc)
        spec_file.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "verify", "--spec", str(spec_file), "--frames", "48")
        assert code == 2
        assert f"error: rejected spec {spec_file}: " in err
        assert message in err
        assert "Traceback" not in out + err

    def test_deeply_nested_spec_is_build_error(self, capsys, tmp_path):
        spec_file = tmp_path / "model.json"
        spec_file.write_text("[" * 100_000)
        code, out, err = run_cli(capsys, "verify", "--spec", str(spec_file))
        assert code == 2
        assert f"error: rejected spec {spec_file}: invalid JSON: " in err
        assert "Traceback" not in out + err

    @pytest.mark.parametrize("argv,message", [
        (("analyze", "resnet", "34", "--se", "7"), "stage 2: SE reduction 7 does not divide its 32 channels"),
        (("analyze", "resnet", "34", "--res2net", "5"), "stage 2: res2net scale 5 does not divide its 32 channels"),
        (("build", "resnet", "50", "--se", "3"), "stage 2: SE reduction 3 does not divide its 128 channels"),
    ], ids=["analyze-se-7", "analyze-res2net-5", "build-se-3"])
    def test_option_not_dividing_stage_width_is_build_error(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert f"error: {message}" in err
        assert "Traceback" not in out + err

    @pytest.mark.parametrize("option", ["--se", "--res2net"])
    def test_dividing_option_builds_analyzes_and_verifies(self, capsys, tmp_path, option):
        code, out, _ = run_cli(capsys, "analyze", "resnet", "34", option, "4")
        assert code == 0
        assert out.startswith("config      MOD")
        spec_file = tmp_path / "model.json"
        code, _, _ = run_cli(capsys, "build", "resnet", "18", option, "4", "-o", str(spec_file))
        assert code == 0
        code, out, _ = run_cli(capsys, "verify", "--spec", str(spec_file), "--frames", "48")
        assert code == 0
        assert out.startswith("ok")

    @pytest.mark.parametrize("argv", [("build", "resnet", "34"), ("render",)])
    def test_unwritable_output_is_build_error(self, capsys, tmp_path, argv):
        target = tmp_path / "missing" / "out.txt"
        code, out, err = run_cli(capsys, *argv, "-o", str(target))
        assert code == 2
        assert f"error: cannot write {target}: " in err
        assert "Traceback" not in out + err
        assert not target.exists()

    def test_build_json_loads(self, capsys):
        code, out, _ = run_cli(capsys, "build", "resnet", "18")
        assert code == 0
        doc = json.loads(out)
        assert doc["schema_version"] == 1
        assert doc["family"] == "modified_resnet"


class TestRemovedForms:
    @pytest.mark.parametrize("argv,replacement", [
        (("compare", "resnet", "34", "MOD", "T14c"), "analyze FAMILY DEPTH --path A --compare B"),
        (("enumerate", "--dot"), "render"),
    ], ids=["compare", "enumerate-dot"])
    def test_removed_form_names_its_replacement(self, capsys, argv, replacement):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("usage error: ") and f"use '{replacement}'" in err


class TestVerifyCommand:
    def test_two_config_check_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--frames", "48")
        assert code == 0
        assert out.count("ok") >= 2

    def test_json_summary(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--frames", "48", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["failures"] == 0
        assert all(c["multiplies"] == c["analytic_flops"] for c in doc["checks"])

    def test_json_records_run_environment(self, capsys, monkeypatch):
        import numpy as np

        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        code, out, _ = run_cli(capsys, "verify", "--gradcheck", "--gradcheck-trials", "1", "--json")
        assert code == 0
        env = json.loads(out)["environment"]
        assert set(env) == {"numpy", "blas_name", "blas_version", "blas_thread_vars"}
        assert env["numpy"] == np.__version__
        assert env["blas_thread_vars"]["OPENBLAS_NUM_THREADS"] == "1"
        assert "MKL_NUM_THREADS" not in env["blas_thread_vars"]

    def test_json_reports_working_precision(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--frames", "48", "--json")
        assert code == 0
        doc = json.loads(out)
        assert list(doc)[:3] == ["seed", "dtype", "environment"]
        assert doc["dtype"] == "float32"

    def test_gradcheck_flag(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--gradcheck", "--gradcheck-trials", "6")
        assert code == 0
        assert "gradcheck" in out

    def test_table3_flag_runs_18_configs(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--all-table3-configs", "--frames", "40")
        assert code == 0
        assert out.count("ok") == 18

    def test_zero_gradcheck_trials_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--gradcheck", "--gradcheck-trials", "0")
        assert code == 1
        assert "usage error" in err and "--gradcheck-trials" in err
        assert out == ""

    def test_frames_too_short_for_path_is_input_error(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--frames", "8")
        assert code == 2
        assert "statistics pooling" in err

    def test_check_failure_exits_3(self, capsys, monkeypatch):
        from stride_lab import cli
        from stride_lab.verification import CheckResult

        def broken(*args, **kwargs):
            return (CheckResult("X", ok=False, layers_checked=1, multiplies=1,
                                analytic_flops=2, detail="multiply count 1 != analytic 2"),)

        monkeypatch.setattr(cli, "verify_catalog_configs", broken)
        code, out, _ = run_cli(capsys, "verify", "--frames", "40")
        assert code == 3
        assert "FAIL" in out


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--frames", "0"),
        ("verify", "--frames", "1"),
        ("verify", "--frames", "abc"),
        ("analyze", "resnet", "34", "--freq-bins", "0"),
        ("analyze", "resnet", "34", "--embedding-dim", "0"),
        ("build", "resnet", "34", "--embedding-dim", "-3"),
    ],
)
def test_bad_argument_value_is_usage_error(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 1
    assert err.startswith("usage error: ")
    assert "Traceback" not in err


_NAMES = st.none() | st.sampled_from([*CATALOG_NAMES, "T99", "nope", ""])


@settings(max_examples=60, deadline=None)
@given(
    family=st.sampled_from(["resnet", "original-resnet", "gemini-resnet", "dfresnet", "sdresnet", "nope"]),
    depth=st.sampled_from([18, 34, 50, 101, 152, 59, 60, 113, 114, 182, 183, 22, 38, 0, 7]),
    path=_NAMES,
    compared=_NAMES,
    flags=st.sets(st.sampled_from(["--gemini", "--json", "--csv", "--per-layer", "--catalog"])),
    options=st.dictionaries(st.sampled_from(["--freq-bins", "--se", "--res2net"]), st.integers(0, 8)),
)
def test_any_analyze_argv_exits_cleanly(family, depth, path, compared, flags, options):
    argv = ["analyze", family, str(depth), *sorted(flags)]
    for option, value in [("--path", path), ("--compare", compared), *options.items()]:
        if value is not None:
            argv += [option, str(value)]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue()
    if code:
        assert out.getvalue() == "", argv
    elif "--json" in flags:
        json.loads(out.getvalue())


class TestMetricsCommand:
    def test_perfectly_separated_file(self, capsys, tmp_path):
        score_file = tmp_path / "scores.txt"
        score_file.write_text(
            "# dev scores\ntarget 0.9\ntarget 0.8\nnontarget 0.2\nnontarget 0.1\n"
        )
        code, out, _ = run_cli(capsys, "metrics", str(score_file))
        assert code == 0
        assert "EER        0.000%" in out
        assert "minDCF     0.0000" in out

    def test_inverted_file(self, capsys, tmp_path):
        score_file = tmp_path / "scores.txt"
        score_file.write_text("target 0.1\ntarget 0.2\nnontarget 0.8\nnontarget 0.9\n")
        code, out, _ = run_cli(capsys, "metrics", str(score_file))
        assert code == 0
        assert "EER        100.000%" in out

    def test_random_file_matches_oracle(self, capsys, tmp_path):
        import numpy as np

        from oracles import random_trials, sweep_eer, sweep_min_dcf

        rng = np.random.default_rng(11)
        scores, labels = random_trials(rng, n_min=900, n_max=1100)
        lines = [
            f"{'target' if l else 'nontarget'} {s:.9f}" for s, l in zip(scores, labels)
        ]
        score_file = tmp_path / "scores.txt"
        score_file.write_text("\n".join(lines) + "\n")
        code, out, _ = run_cli(capsys, "metrics", str(score_file))
        assert code == 0
        parsed_scores = [float(line.split()[1]) for line in lines]
        ref_eer, _ = sweep_eer(parsed_scores, labels)
        ref_dcf, _ = sweep_min_dcf(parsed_scores, labels)
        eer_line = next(line for line in out.splitlines() if line.startswith("EER"))
        dcf_line = next(line for line in out.splitlines() if line.startswith("minDCF"))
        assert float(eer_line.split()[1].rstrip("%")) == pytest.approx(100 * ref_eer, abs=1e-3)
        assert float(dcf_line.split()[1]) == pytest.approx(ref_dcf, abs=1e-4)

    def test_malformed_line_reports_line_number(self, capsys, tmp_path):
        score_file = tmp_path / "scores.txt"
        score_file.write_text("target 0.9\noops\n")
        code, _, err = run_cli(capsys, "metrics", str(score_file))
        assert code == 2
        assert "line 2" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "metrics", str(tmp_path / "none.txt"))
        assert code == 2

    def test_unreadable_path_is_build_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "metrics", str(tmp_path))
        assert code == 2
        assert err.startswith(f"error: cannot read {tmp_path}: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("option, value", [("--c-fa", "nan"), ("--c-miss", "inf")])
    def test_non_finite_cost_is_build_error(self, capsys, tmp_path, option, value):
        score_file = tmp_path / "scores.txt"
        score_file.write_text("target 0.9\nnontarget 0.1\n")
        code, out, err = run_cli(capsys, "metrics", str(score_file), option, value)
        assert code == 2
        assert "finite and positive" in err
        assert "minDCF" not in out

    def test_json_matches_text_and_oracle(self, capsys, tmp_path):
        rng = np.random.default_rng(23)
        scores, labels = random_trials(rng, n_min=400, n_max=600)
        lines = [f"{'target' if l else 'nontarget'} {float(s)!r}" for s, l in zip(scores, labels)]
        score_file = tmp_path / "scores.txt"
        score_file.write_text("\n".join(lines) + "\n")
        code, out, err = run_cli(capsys, "metrics", str(score_file), "--json",
                                 "--p-target", "0.05", "--c-fa", "2")
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert sorted(doc) == sorted([
            "trials", "targets", "nontargets", "eer", "eer_threshold", "min_dcf",
            "min_dcf_threshold", "p_target", "c_fa", "c_miss",
        ])
        assert (doc["trials"], doc["targets"]) == (len(labels), sum(labels))
        assert doc["nontargets"] == len(labels) - sum(labels)
        assert (doc["p_target"], doc["c_fa"], doc["c_miss"]) == (0.05, 2.0, 1.0)
        ref_eer, ref_eer_thr = sweep_eer(scores, labels)
        ref_dcf, ref_dcf_thr = sweep_min_dcf(scores, labels, p_target=0.05, c_fa=2.0)
        assert doc["eer"] == pytest.approx(ref_eer, abs=1e-9)
        assert doc["eer_threshold"] == pytest.approx(ref_eer_thr, abs=1e-9)
        assert doc["min_dcf"] == pytest.approx(ref_dcf, abs=1e-9)
        assert doc["min_dcf_threshold"] == ref_dcf_thr

        code, out, _ = run_cli(capsys, "metrics", str(score_file),
                               "--p-target", "0.05", "--c-fa", "2")
        assert code == 0
        rows = {line.split()[0]: line.split() for line in out.splitlines()}
        assert rows["trials"][1] == str(doc["trials"])
        assert rows["EER"][1] == f"{100.0 * doc['eer']:.3f}%"
        assert rows["EER"][3] == f"{doc['eer_threshold']:.6f}"
        assert rows["minDCF"][1] == f"{doc['min_dcf']:.4f}"
        assert rows["minDCF"][3] == f"{doc['min_dcf_threshold']:.6f}"

    @pytest.mark.parametrize("text", ["target 0.9\noops\n", "target 0.5\nnontarget 0.5\n"],
                             ids=["bad-line", "degenerate"])
    def test_json_error_prints_nothing_on_stdout(self, capsys, tmp_path, text):
        score_file = tmp_path / "scores.txt"
        score_file.write_text(text)
        code, out, err = run_cli(capsys, "metrics", str(score_file), "--json")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")


class TestClosedPipe:
    """A reader that closes stdout early (``| head``) gets no traceback."""

    @pytest.mark.parametrize("argv", [["enumerate", "--paths"], ["enumerate"]],
                             ids=["written-while-running", "flushed-at-exit"])
    def test_closed_stdout_exits_2_quietly(self, argv):
        read_end, write_end = os.pipe()
        os.close(read_end)  # every write to the pipe now fails with EPIPE
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        try:
            done = subprocess.run([sys.executable, "-m", "stride_lab.cli", *argv],
                                  stdout=write_end, stderr=subprocess.PIPE, env=env,
                                  text=True, timeout=120)
        finally:
            os.close(write_end)
        assert "Traceback" not in done.stderr
        assert done.stderr == ""
        assert done.returncode == 2


class TestRenderCommand:
    def test_dot_output_has_36_nodes(self, capsys):
        code, out, _ = run_cli(capsys, "render")
        assert code == 0
        assert out.count('pos="') == 36

    def test_render_to_file(self, capsys, tmp_path):
        out_file = tmp_path / "trellis.dot"
        code, _, _ = run_cli(capsys, "render", "-o", str(out_file))
        assert code == 0
        assert out_file.read_text().count('pos="') == 36

    def test_render_highlight(self, capsys):
        code, out, _ = run_cli(capsys, "render", "--highlight", "T14c,T23")
        assert code == 0
        assert 'tooltip="T14c"' in out and 'tooltip="T23"' in out


class TestSeedEnvOverride:
    def test_env_seed_changes_default(self, monkeypatch):
        from stride_lab.verification import default_seed

        monkeypatch.setenv("STRIDE_LAB_SEED", "777")
        assert default_seed() == 777
        monkeypatch.setenv("STRIDE_LAB_SEED", "not-an-int")
        with pytest.raises(ValueError):
            default_seed()
