"""Acceptance gate: one test per criterion, each printing a PASS line.

Run `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import sys
import time as time_mod

import numpy as np
import pytest

from oracles import random_trials, sweep_eer, sweep_min_dcf
from stride_lab.analysis import compare, count_flops, count_params
from stride_lab.builder import build, make_request
from stride_lab.catalog import CATALOG_NAMES
from stride_lab.layers import TensorShape
from stride_lab.metrics import TrialScoreSet, compute_eer, compute_min_dcf
from stride_lab.serialize import TABLE_HEADER
from stride_lab.strides import TrellisEndpoint, enumerate_endpoints
from stride_lab.trellis import enumerate_paths, rank_paths_by_flops
from stride_lab.verification import gradcheck_suite, verify_catalog_configs

INPUT_2S = TensorShape(1, 80, 200)
INPUT_3S = TensorShape(1, 80, 300)


def _report(name, detail):
    # Bypass pytest capture so the per-criterion line always lands in the log.
    print(f"PASS {name}: {detail}", file=sys.__stdout__)


def spec_params(family, depth, path):
    return count_params(build(make_request(family, depth, path=path))).params_millions


class TestAcceptance:
    def test_01_parameter_reproduction(self):
        started = time_mod.perf_counter()
        expected = [
            ("modified_resnet", 34, "MOD", 6.63),
            ("gemini_resnet", 34, "T14c", 5.98),
            ("original_resnet", 34, "ORI", 21.41),
            ("modified_resnet", 18, "MOD", 4.11),
            ("gemini_resnet", 18, "T14c", 3.45),
            ("modified_resnet", 50, "MOD", 11.13),
            ("gemini_resnet", 50, "T14c", 8.51),
            ("modified_resnet", 101, "MOD", 15.89),
            ("gemini_resnet", 101, "T14c", 13.27),
            ("df_resnet", 182, "MOD", 9.84),
            ("df_resnet", 183, "T14c", 9.20),
        ]
        for family, depth, path, reference in expected:
            got = spec_params(family, depth, path)
            assert abs(got - reference) <= 0.01 * reference, (family, depth, path, got)
        elapsed = time_mod.perf_counter() - started
        assert elapsed < 1.0, f"parameter accounting took {elapsed:.2f}s"
        _report("criterion-1 parameter reproduction",
                f"{len(expected)} models within 1% in {elapsed * 1000:.0f} ms")

    def test_02_flops_reproduction(self):
        started = time_mod.perf_counter()
        expected = [
            ("modified_resnet", 34, "MOD", 4.63, 6.88),
            ("gemini_resnet", 34, "T14c", 4.41, 6.59),
            ("modified_resnet", 34, "T14", 6.68, 9.99),
            ("modified_resnet", 34, "T23", 8.27, 12.37),
            ("df_resnet", 182, "MOD", 8.64, 12.87),
            ("df_resnet", 183, "T14c", 8.25, 12.34),
        ]
        for family, depth, path, ref_2s, ref_3s in expected:
            spec = build(make_request(family, depth, path=path))
            got_2s = count_flops(spec, INPUT_2S).flops_giga
            got_3s = count_flops(spec, INPUT_3S).flops_giga
            assert abs(got_2s - ref_2s) <= 0.05 * ref_2s, (path, got_2s, ref_2s)
            assert abs(got_3s - ref_3s) <= 0.05 * ref_3s, (path, got_3s, ref_3s)
        elapsed = time_mod.perf_counter() - started
        assert elapsed < 1.0, f"FLOPs accounting took {elapsed:.2f}s"
        _report("criterion-2 FLOPs reproduction",
                f"{len(expected)} models at 200/300 frames within 5% in {elapsed * 1000:.0f} ms")

    def test_03_relative_reductions(self):
        mod = count_flops(build(make_request("modified_resnet", 34, path="MOD")), INPUT_3S)
        gem = count_flops(build(make_request("gemini_resnet", 34, path="T14c")), INPUT_3S)
        delta = compare(mod, gem)
        assert delta.params_pct == pytest.approx(-9.8, abs=0.5)
        assert delta.flops_pct == pytest.approx(-4.2, abs=0.5)
        for depth, expected in [(18, -16.1), (50, -23.5), (101, -16.5)]:
            base = count_params(build(make_request("modified_resnet", depth, path="MOD")))
            gemini = count_params(build(make_request("gemini_resnet", depth, path="T14c")))
            assert compare(base, gemini).params_pct == pytest.approx(expected, abs=0.5)
        _report("criterion-3 relative reductions",
                "-9.8% params / -4.2% 3s FLOPs at depth 34; -16.1/-23.5/-16.5% at 18/50/101")

    def test_03_abstract_averages(self):
        # The abstract's Gemini ResNet averages over ResNet18/34/50/101, MOD
        # against T14c. Params match its -16.5%. Its -4.1% FLOPs is not yet
        # reproduced: today's convention (conv and FC MACs) averages -3.18%
        # at T = 200 and -3.39% at T = 300, the open residual of ROADMAP
        # item 2.
        depths = (18, 34, 50, 101)
        params, macs = [], {200: [], 300: []}
        for depth in depths:
            base = build(make_request("modified_resnet", depth, path="MOD"))
            gemini = build(make_request("gemini_resnet", depth, path="T14c"))
            for frames in macs:
                shape = TensorShape(1, 80, frames)
                delta = compare(count_flops(base, shape), count_flops(gemini, shape))
                macs[frames].append(delta.flops_pct)
            params.append(delta.params_pct)
        assert params == pytest.approx([-15.96, -9.88, -23.55, -16.49], abs=0.005)
        average = sum(params) / len(depths)
        assert average == pytest.approx(-16.47, abs=0.005)
        assert average == pytest.approx(-16.5, abs=0.05)
        mac_averages = {frames: sum(deltas) / len(depths) for frames, deltas in macs.items()}
        assert mac_averages == pytest.approx({200: -3.18, 300: -3.39}, abs=0.005)
        _report("abstract averages", f"params {average:.2f}% (abstract -16.5%); MACs "
                f"{mac_averages[200]:.2f}% at T=200, {mac_averages[300]:.2f}% at T=300 (abstract -4.1%)")

    def test_04_constant_params_within_quartets(self):
        for quartet in (("T14", "T14b", "T14c", "T14d"), ("T23", "T23b", "T23c", "T23d")):
            totals = {
                name: count_params(
                    build(make_request("modified_resnet", 34, path=name))
                ).params_total
                for name in quartet
            }
            assert len(set(totals.values())) == 1, totals
        _report("criterion-4 constant-params path families",
                "T14 and T23 quartets identical to the integer")

    def test_05_trellis_combinatorics(self):
        started = time_mod.perf_counter()
        endpoints = enumerate_endpoints()
        assert len(endpoints) == 36
        assert sum(len(enumerate_paths(e).paths) for e in endpoints) == 1024
        family = enumerate_paths(TrellisEndpoint(2, 16))
        assert len(family.paths) == 25
        template = build(make_request("modified_resnet", 34, path="MOD"))
        ranked = rank_paths_by_flops(family, INPUT_3S, template)
        flops = {r.name: r.flops_total for r in ranked}
        assert flops["T14"] > flops["T14b"] > flops["T14c"] > flops["T14d"]
        elapsed = time_mod.perf_counter() - started
        assert elapsed < 1.0, f"trellis enumeration took {elapsed:.2f}s"
        _report("criterion-5 trellis combinatorics",
                f"36 endpoints, 1024 paths, 25 to (2,16), family ordering exhaustive "
                f"in {elapsed * 1000:.0f} ms")

    def test_06_numeric_symbolic_agreement(self):
        started = time_mod.perf_counter()
        results = verify_catalog_configs(CATALOG_NAMES, depth=34, time=300)
        assert len(results) == 24
        failures = [r for r in results if not r.ok]
        assert not failures, failures
        total_macs = sum(r.multiplies for r in results)
        elapsed = time_mod.perf_counter() - started
        _report("criterion-6 numeric/symbolic agreement",
                f"24 configurations at 80x300: per-layer shapes equal, "
                f"{total_macs} multiplies == analytic exactly, {elapsed:.0f} s")

    def test_07_gradient_checks(self):
        reports = gradcheck_suite(trials=100, tolerance=1e-4)
        worst = max(r.max_rel_error for r in reports)
        assert all(r.passed for r in reports)
        strided = sum(1 for r in reports if not r.layer.stride.is_unit())
        depthwise = sum(1 for r in reports if r.layer.groups > 1)
        assert strided >= 20 and depthwise >= 20
        _report("criterion-7 gradient checks",
                f"100 layers ({strided} strided, {depthwise} depthwise), "
                f"max rel err {worst:.2e} < 1e-4")

    def test_08_metrics_oracle_equivalence(self):
        rng = np.random.default_rng(2024)
        worst_eer = worst_dcf = 0.0
        for _ in range(1000):
            scores, labels = random_trials(rng, n_min=8, n_max=80)
            trials = TrialScoreSet(trials=tuple(zip(scores, labels)))
            eer, _ = compute_eer(trials)
            dcf, _ = compute_min_dcf(trials)
            ref_eer, _ = sweep_eer(scores, labels)
            ref_dcf, _ = sweep_min_dcf(scores, labels)
            worst_eer = max(worst_eer, abs(eer - ref_eer))
            worst_dcf = max(worst_dcf, abs(dcf - ref_dcf))
            assert abs(eer - ref_eer) <= 1e-9
            assert abs(dcf - ref_dcf) <= 1e-9
            shifted = TrialScoreSet(
                trials=tuple((3.0 * s + 1.0, l) for s, l in trials.trials)
            )
            assert compute_eer(shifted)[0] == pytest.approx(eer, abs=1e-12)
            assert compute_min_dcf(shifted)[0] == pytest.approx(dcf, abs=1e-12)
        _report("criterion-8 metrics oracle equivalence",
                f"1000 trial sets: max |EER diff| {worst_eer:.1e}, "
                f"max |minDCF diff| {worst_dcf:.1e}, monotone invariance held")

    def test_09_detection_scores_declared_not_reproducible(self):
        # Detection error rates of trained systems cannot be reproduced
        # analytically; complexity tables therefore carry complexity columns
        # only, and the metric routines consume externally produced scores.
        assert not any("eer" in column or "dcf" in column for column in TABLE_HEADER)
        _report("criterion-9 declared non-reproducible",
                "detection metrics require trained systems; tables expose "
                "complexity columns only")
