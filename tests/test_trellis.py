import itertools
from math import comb

import numpy as np
import pytest

from stride_lab.analysis import count_flops, count_params
from stride_lab.builder import build, make_request, request_from_spec
from stride_lab.layers import TensorShape
from stride_lab.strides import PathClass, TrellisPath, classify_path
from stride_lab.trellis import (
    PathFamily,
    TrellisEndpoint,
    enumerate_endpoints,
    enumerate_paths,
    golden_gemini_endpoints,
    rank_paths_by_flops,
)

INPUT_3S = TensorShape(1, 80, 300)


class TestEndpoints:
    def test_grid_has_36_endpoints(self):
        endpoints = enumerate_endpoints()
        assert len(endpoints) == 36
        assert len(set(endpoints)) == 36

    def test_contains_golden_and_trivial(self):
        endpoints = set((e.alpha5, e.beta5) for e in enumerate_endpoints())
        assert (2, 16) in endpoints
        assert (4, 8) in endpoints
        assert (1, 1) in endpoints

    def test_rejects_non_power_factors(self):
        with pytest.raises(ValueError):
            TrellisEndpoint(3, 8)
        with pytest.raises(ValueError):
            TrellisEndpoint(2, 64)

    def test_deterministic_order(self):
        assert enumerate_endpoints() == enumerate_endpoints()


class TestEnumeratePaths:
    def test_family_size_formula(self):
        for endpoint in enumerate_endpoints():
            family = enumerate_paths(endpoint)
            a, b = endpoint.exponents
            assert len(family.paths) == comb(5, a) * comb(5, b)
            for path in family.paths:
                assert (
                    np.prod(path.time_strides),
                    np.prod(path.freq_strides),
                ) == (endpoint.alpha5, endpoint.beta5)

    def test_2_16_has_25_paths(self):
        family = enumerate_paths(TrellisEndpoint(2, 16))
        assert len(family.paths) == 25

    def test_trivial_families(self):
        assert len(enumerate_paths(TrellisEndpoint(1, 1)).paths) == 1
        assert len(enumerate_paths(TrellisEndpoint(32, 32)).paths) == 1

    def test_total_path_count_is_1024(self):
        total = sum(len(enumerate_paths(e).paths) for e in enumerate_endpoints())
        assert total == 1024

    def test_family_rejects_wrong_size(self):
        endpoint = TrellisEndpoint(2, 16)
        with pytest.raises(ValueError):
            PathFamily(endpoint=endpoint, paths=enumerate_paths(endpoint).paths[:3])


class TestGoldenGemini:
    def test_exact_endpoints(self):
        first, second = golden_gemini_endpoints()
        assert (first.alpha5, first.beta5) == (2, 16)
        assert (second.alpha5, second.beta5) == (4, 8)

    def test_both_time_priority(self):
        for endpoint in golden_gemini_endpoints():
            assert endpoint.path_class is PathClass.TIME_PRIORITY

    def test_neither_on_boundary(self):
        assert [e.exponents for e in golden_gemini_endpoints()] == [(1, 4), (2, 3)]
        for endpoint in golden_gemini_endpoints():
            assert all(e not in (0, 5) for e in endpoint.exponents)


@pytest.fixture(scope="module")
def template():
    return build(make_request("modified_resnet", 34, path="MOD"))


class TestRankPaths:

    def test_family_2_16_named_order(self, template):
        family = enumerate_paths(TrellisEndpoint(2, 16))
        ranked = rank_paths_by_flops(family, INPUT_3S, template)
        assert len(ranked) == 25
        position = {r.name: r.rank for r in ranked}
        assert position["T14"] < position["T14b"] < position["T14c"] < position["T14d"]
        flops = {r.name: r.flops_total for r in ranked}
        assert flops["T14"] > flops["T14b"] > flops["T14c"] > flops["T14d"]

    def test_family_4_8_order(self, template):
        family = enumerate_paths(TrellisEndpoint(4, 8))
        ranked = rank_paths_by_flops(family, INPUT_3S, template)
        flops = {r.name: r.flops_total for r in ranked}
        assert flops["T23"] > flops["T23b"] > flops["T23c"] > flops["T23d"]

    def test_params_constant_within_family(self, template):
        for factors in [(2, 16), (4, 8), (8, 8)]:
            family = enumerate_paths(TrellisEndpoint(*factors))
            ranked = rank_paths_by_flops(family, INPUT_3S, template)
            params = {r.params_total for r in ranked}
            assert len(params) == 1

    def test_latest_path_has_family_max_flops(self, template):
        family = enumerate_paths(TrellisEndpoint(2, 16))
        ranked = rank_paths_by_flops(family, INPUT_3S, template)
        assert ranked[0].name == "T14"

    def test_single_path_family(self, template):
        family = enumerate_paths(TrellisEndpoint(1, 1))
        ranked = rank_paths_by_flops(family, INPUT_3S, template)
        assert len(ranked) == 1 and ranked[0].rank == 1

    def test_descending_order_is_total(self, template):
        family = enumerate_paths(TrellisEndpoint(4, 16))
        ranked = rank_paths_by_flops(family, INPUT_3S, template)
        values = [r.flops_total for r in ranked]
        assert values == sorted(values, reverse=True)


def _single_dim_earlier_moves(time, freq):
    """All configurations obtained by moving one downsampling step one
    stage earlier in one dimension."""
    for strides, dim in ((list(time), "t"), (list(freq), "f")):
        for n in range(1, 5):
            if strides[n] == 2 and strides[n - 1] == 1:
                moved = list(strides)
                moved[n], moved[n - 1] = 1, 2
                if dim == "t":
                    yield tuple(moved), tuple(freq)
                else:
                    yield tuple(time), tuple(moved)


class TestEarlierDownsamplingMonotonicity:
    def test_moving_downsampling_earlier_never_increases_flops(self):
        template = build(make_request("modified_resnet", 34, path="MOD"))
        rng = np.random.default_rng(7)
        all_paths = list(itertools.product([1, 2], repeat=5))
        sampled = set()
        while len(sampled) < 60:
            time = all_paths[rng.integers(len(all_paths))]
            freq = all_paths[rng.integers(len(all_paths))]
            sampled.add((time, freq))
        for time, freq in sorted(sampled):
            base = count_flops(
                build(request_from_spec(template, TrellisPath.from_lists(time, freq))),
                INPUT_3S,
            ).flops_total
            for time2, freq2 in _single_dim_earlier_moves(time, freq):
                moved = count_flops(
                    build(request_from_spec(template, TrellisPath.from_lists(time2, freq2))),
                    INPUT_3S,
                ).flops_total
                assert moved <= base, (time, freq, time2, freq2)
