import inspect
import itertools
import json
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import canonical_name_by_index, paths_to_endpoint_by_index
from stride_lab.strides import (
    PathClass,
    StridePair,
    TrellisPath,
    UnknownConfigError,
    canonical_name,
    classify_path,
    downsampling_factors,
    enumerate_endpoints,
    final_factors,
    iter_all_paths,
    paths_to_endpoint,
    resolve_name,
)

# The named configurations every report refers to, with their stride rows.
PUBLISHED_CONFIGS = {
    "ORI": ([2, 2, 2, 2, 2], [2, 2, 2, 2, 2]),
    "MOD": ([1, 1, 2, 2, 2], [1, 1, 2, 2, 2]),
    "T05": ([1, 1, 1, 1, 1], [2, 2, 2, 2, 2]),
    "F50": ([2, 2, 2, 2, 2], [1, 1, 1, 1, 1]),
    "T15": ([1, 1, 1, 1, 2], [2, 2, 2, 2, 2]),
    "F51": ([2, 2, 2, 2, 2], [1, 1, 1, 1, 2]),
    "T25": ([1, 1, 1, 2, 2], [2, 2, 2, 2, 2]),
    "F52": ([2, 2, 2, 2, 2], [1, 1, 1, 2, 2]),
    "T14": ([1, 1, 1, 1, 2], [1, 2, 2, 2, 2]),
    "F41": ([1, 2, 2, 2, 2], [1, 1, 1, 1, 2]),
    "T24": ([1, 1, 1, 2, 2], [1, 2, 2, 2, 2]),
    "F42": ([1, 2, 2, 2, 2], [1, 1, 1, 2, 2]),
    "T34": ([1, 1, 2, 2, 2], [1, 2, 2, 2, 2]),
    "F43": ([1, 2, 2, 2, 2], [1, 1, 2, 2, 2]),
    "T23": ([1, 1, 1, 2, 2], [1, 1, 2, 2, 2]),
    "F32": ([1, 1, 2, 2, 2], [1, 1, 1, 2, 2]),
    "T04": ([1, 1, 1, 1, 1], [1, 2, 2, 2, 2]),
    "T13": ([1, 1, 1, 1, 2], [1, 1, 2, 2, 2]),
    "T14b": ([1, 1, 1, 2, 1], [1, 2, 2, 2, 2]),
    "T14c": ([1, 1, 2, 1, 1], [1, 2, 2, 2, 2]),
    "T14d": ([1, 2, 1, 1, 1], [1, 2, 2, 2, 2]),
    "T23b": ([1, 1, 2, 2, 1], [1, 1, 2, 2, 2]),
    "T23c": ([1, 1, 1, 2, 2], [1, 2, 2, 2, 1]),
    "T23d": ([1, 1, 2, 1, 2], [1, 2, 2, 2, 1]),
}


def brute_force_paths():
    """All 1024 stride configurations, generated independently."""
    for combo in itertools.product([1, 2], repeat=10):
        yield combo[:5], combo[5:]


class TestStridePair:
    def test_accepts_one_and_two(self):
        assert StridePair(1, 2).freq == 2

    @pytest.mark.parametrize("bad", [0, 3, -1, 4])
    def test_rejects_other_strides(self, bad):
        with pytest.raises(ValueError):
            StridePair(bad, 1)
        with pytest.raises(ValueError):
            StridePair(1, bad)


class TestTrellisPath:
    def test_requires_five_steps(self):
        with pytest.raises(ValueError):
            TrellisPath(steps=tuple(StridePair(1, 1) for _ in range(4)))

    def test_requires_stride_pair_steps(self):
        with pytest.raises(TypeError) as info:
            TrellisPath(steps=(1, 1, 1, 1, 1))
        assert str(info.value) == "path steps must be StridePair values"

    def test_from_lists_round_trip(self):
        path = TrellisPath.from_lists([1, 1, 2, 1, 1], [1, 2, 2, 2, 2])
        assert path.time_strides == (1, 1, 2, 1, 1)
        assert path.freq_strides == (1, 2, 2, 2, 2)


class TestDownsamplingFactors:
    def test_t14c_reaches_2_16(self):
        path = TrellisPath.from_lists([1, 1, 2, 1, 1], [1, 2, 2, 2, 2])
        assert final_factors(path) == (2, 16)

    def test_identity_path(self):
        path = TrellisPath.from_lists([1] * 5, [1] * 5)
        assert downsampling_factors(path) == tuple([(1, 1)] * 5)

    def test_all_two_path(self):
        path = TrellisPath.from_lists([2] * 5, [2] * 5)
        assert final_factors(path) == (32, 32)

    def test_multiplicative_over_all_paths(self):
        for time, freq in brute_force_paths():
            path = TrellisPath.from_lists(time, freq)
            factors = downsampling_factors(path)
            alpha = beta = 1
            for n in range(5):
                alpha *= time[n]
                beta *= freq[n]
                assert factors[n] == (alpha, beta)

    def test_factors_monotone(self):
        for time, freq in brute_force_paths():
            factors = downsampling_factors(TrellisPath.from_lists(time, freq))
            for earlier, later in zip(factors, factors[1:]):
                assert later[0] >= earlier[0] and later[1] >= earlier[1]


class TestClassifyPath:
    def test_time_priority_example(self):
        assert classify_path(resolve_name("T14")) is PathClass.TIME_PRIORITY

    def test_equal_example(self):
        assert classify_path(resolve_name("MOD")) is PathClass.EQUAL

    def test_frequency_priority_example(self):
        assert classify_path(resolve_name("F41")) is PathClass.FREQUENCY_PRIORITY

    def test_partition_counts(self):
        counts = {PathClass.TIME_PRIORITY: 0, PathClass.EQUAL: 0, PathClass.FREQUENCY_PRIORITY: 0}
        for time, freq in brute_force_paths():
            counts[classify_path(TrellisPath.from_lists(time, freq))] += 1
        assert counts[PathClass.TIME_PRIORITY] == 386
        assert counts[PathClass.EQUAL] == 252
        assert counts[PathClass.FREQUENCY_PRIORITY] == 386
        assert sum(counts.values()) == 1024


class TestCanonicalName:
    @pytest.mark.parametrize("name", sorted(PUBLISHED_CONFIGS))
    def test_published_names_round_trip(self, name):
        time, freq = PUBLISHED_CONFIGS[name]
        path = TrellisPath.from_lists(time, freq)
        assert canonical_name(path) == name
        resolved = resolve_name(name)
        assert resolved.time_strides == tuple(time)
        assert resolved.freq_strides == tuple(freq)

    def test_t15_is_latest_downsampling_path(self):
        assert resolve_name("T15").time_strides == (1, 1, 1, 1, 2)

    def test_f50_endpoint(self):
        assert final_factors(resolve_name("F50")) == (32, 1)

    def test_injective_over_all_paths(self):
        names = {}
        for time, freq in brute_force_paths():
            name = canonical_name(TrellisPath.from_lists(time, freq))
            assert name not in names, f"{name} assigned twice"
            names[name] = (time, freq)
        assert len(names) == 1024

    def test_stable_across_recomputation(self):
        first = {canonical_name(p): p.time_strides for p in iter_all_paths()}
        second = {canonical_name(p): p.time_strides for p in iter_all_paths()}
        assert first == second

    def test_equal_family_extension_names(self):
        paths = paths_to_endpoint(8, 8)
        names = [p.label for p in paths]
        assert names[0] == "MOD"
        assert names[1] == "E33b"
        assert len(names) == 100
        assert len(set(names)) == 100

    def test_dict_lookup_names_as_the_index_rule(self):
        # Fresh paths from the brute force, not the memoized ones.
        for time, freq in brute_force_paths():
            path = TrellisPath.from_lists(time, freq)
            assert canonical_name(path) == canonical_name_by_index(path)

    def test_identity_path_name(self):
        assert canonical_name(TrellisPath.from_lists([1] * 5, [1] * 5)) == "E00"

    def test_resolve_rejects_unknown(self):
        for bad in ["T99", "Q14", "T14zz9", "E33", "", "T5", "F05x"]:
            with pytest.raises(UnknownConfigError):
                resolve_name(bad)

    @pytest.mark.parametrize("name, message", [
        # Suffixes start at ``b``: an ``a`` is no suffix letter.
        ("T14a", "unrecognized configuration name 'T14a'"),
        ("T14ab", "unrecognized configuration name 'T14ab'"),
        ("T14ba", "unrecognized configuration name 'T14ba'"),
        ("E33", "this configuration is named 'MOD'"),
    ])
    def test_resolve_refuses_with_a_typed_error(self, name, message):
        with pytest.raises(UnknownConfigError, match=re.escape(message)):
            resolve_name(name)

    def test_resolve_refuses_a_suffix_past_the_family(self):
        with pytest.raises(UnknownConfigError) as info:
            resolve_name("T14z")
        assert str(info.value) == "'T14z': endpoint (2, 16) has only 25 paths"

    def test_resolve_rejects_wrong_class_prefix(self):
        # (2, 16) is time-priority, so an F name cannot point at it.
        with pytest.raises(UnknownConfigError):
            resolve_name("F14")

    def test_every_name_resolves_back(self):
        for path in paths_to_endpoint(4, 8):
            resolved = resolve_name(path.label)
            assert resolved.time_strides == path.time_strides
            assert resolved.freq_strides == path.freq_strides


ENDPOINTS = [(2 ** a, 2 ** b) for a in range(6) for b in range(6)]


class TestPathsToEndpoint:
    def test_two_calls_return_the_same_tuple(self):
        for endpoint in ENDPOINTS:
            first = paths_to_endpoint(*endpoint)
            assert type(first) is tuple and paths_to_endpoint(*endpoint) is first

    def test_order_and_labels_match_the_index_rule(self):
        for endpoint in ENDPOINTS:
            got = paths_to_endpoint(*endpoint)
            want = paths_to_endpoint_by_index(*endpoint)
            assert got == want
            assert [p.label for p in got] == [canonical_name_by_index(p) for p in want]

    def test_every_label_is_derived_and_resolves_to_its_path(self):
        for path in iter_all_paths():
            fresh = TrellisPath.from_lists(path.time_strides, path.freq_strides)
            assert fresh.label == canonical_name_by_index(path)
            assert resolve_name(path.label) is path

    def test_iter_all_paths_matches_the_index_rule(self):
        want = [p for endpoint in ENDPOINTS for p in paths_to_endpoint_by_index(*endpoint)]
        got = list(iter_all_paths())
        assert got == want and len(got) == 1024
        assert len({p.label for p in got}) == 1024

    def test_refuses_a_non_endpoint(self):
        with pytest.raises(ValueError, match="invalid endpoint"):
            paths_to_endpoint(3, 8)


def _answers(alpha, beta):
    """What ``TrellisEndpoint`` and ``paths_to_endpoint`` make of one pair:
    ``"ValueError"``, or ``"ok"`` and the paths with their names."""
    from stride_lab.strides import TrellisEndpoint, paths_to_endpoint
    answers = []
    for call in (paths_to_endpoint, TrellisEndpoint):
        try:
            result = call(alpha, beta)
        except ValueError:
            answers.append("ValueError")
        else:
            answers.append([[p.label, p.time_strides, p.freq_strides] for p in result]
                           if call is paths_to_endpoint else "ok")
    return json.loads(json.dumps(answers))


def _fresh_answers(alpha, beta):
    """``_answers`` in a new interpreter, where no memo has been filled."""
    script = ("import json, pickle, sys\n" + inspect.getsource(_answers)
              + "print(json.dumps(_answers(*pickle.load(sys.stdin.buffer))))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, "-c", script],
                          input=pickle.dumps((alpha, beta)), capture_output=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr.decode()
    return json.loads(done.stdout)


_FACTORS = (
    st.sampled_from((1, 2, 4, 8, 16, 32))
    | st.integers(-64, 64)
    | st.floats() | st.sampled_from((1.0, 4.0, 32.0))
    | st.booleans()
    | st.builds(np.int64, st.integers(-64, 64))
)


@settings(max_examples=8, deadline=None)
@given(alpha=_FACTORS, beta=_FACTORS)
@example(alpha=4.0, beta=8)
@example(alpha=True, beta=8)
@example(alpha=np.int64(4), beta=8)
@example(alpha=3, beta=8)
@example(alpha=64, beta=8)
@example(alpha=0, beta=8)
@example(alpha=-4, beta=8)
def test_an_endpoint_gets_one_answer_fresh_or_warm(alpha, beta):
    """A pair is an endpoint iff both factors are ints (not bools) and
    powers of two in 1..32; the answer does not depend on what ran first."""
    for endpoint in enumerate_endpoints():
        paths_to_endpoint(endpoint.alpha5, endpoint.beta5)
    warm = _answers(alpha, beta)
    assert _fresh_answers(alpha, beta) == warm
    if all(type(v) is int and v in (1, 2, 4, 8, 16, 32) for v in (alpha, beta)):
        want = [[canonical_name_by_index(p), list(p.time_strides), list(p.freq_strides)]
                for p in paths_to_endpoint_by_index(alpha, beta)]
        assert warm == [want, "ok"]
    else:
        assert warm == ["ValueError", "ValueError"]
