import dataclasses
import itertools
import re
from collections import Counter
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import PRESETS, rank_rows_by_count_flops
from stride_lab import analysis, builder
from stride_lab.analysis import ShapeUnderflowError, _parts_totals, count_flops, trace
from stride_lab.builder import BuildError, _parts, build, make_request, request_from_spec
from stride_lab.layers import TensorShape
from stride_lab.serialize import model_to_json
from stride_lab.strides import (
    PathClass,
    StridePair,
    TrellisEndpoint,
    TrellisPath,
    classify_path,
    downsampling_factors,
    enumerate_endpoints,
    iter_all_paths,
    paths_to_endpoint,
)
from stride_lab.trellis import (
    PathFamily,
    RankedPath,
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

    def test_family_paths_are_its_endpoints_memoized_tuple(self):
        # A family holds only its endpoint, so it cannot carry paths of
        # another endpoint or a wrong count of them.
        for endpoint in enumerate_endpoints():
            assert PathFamily(endpoint).paths is paths_to_endpoint(endpoint.alpha5, endpoint.beta5)
            assert enumerate_paths(endpoint) == PathFamily(endpoint)
        with pytest.raises(TypeError):
            PathFamily(TrellisEndpoint(2, 16), paths=paths_to_endpoint(4, 8))


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

    def test_hand_built_row_reports_its_paths_name(self):
        path = TrellisPath.from_lists([1, 1, 2, 2, 2], [1, 1, 2, 2, 2])
        assert RankedPath(path, rank=1, flops_total=0, params_total=0).name == "MOD"

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


def _rows(ranked):
    return [[r.name, r.rank, r.flops_total, r.params_total, r.error] for r in ranked]


def _ranking_outcome(rank, family, shape, template):
    """The rows of ``rank``, or the AssertionError it raised, as text."""
    try:
        return rank(family, shape, template)
    except AssertionError as exc:
        return f"AssertionError: {exc}"


def _assert_ranks_as_oracle(template, shape):
    """All 36 endpoint families rank as the memo-free oracle ranks them;
    returns the rows (or error texts) per endpoint."""
    outcomes = []
    for endpoint in enumerate_endpoints():
        family = enumerate_paths(endpoint)
        got = _ranking_outcome(lambda *a: _rows(rank_paths_by_flops(*a)), family, shape, template)
        assert got == _ranking_outcome(rank_rows_by_count_flops, family, shape, template), endpoint
        outcomes.append(got)
    return outcomes


def _count_flops_totals(spec, shape):
    """``(params_total, flops_total)`` of one whole ``count_flops``."""
    report = count_flops(spec, shape)
    return report.params_total, report.flops_total


@pytest.mark.usefixtures("fresh_edges")
class TestBlockMemoExactness:
    """The block-count memo of a ranking gives exactly the totals of a whole
    ``count_flops`` per path."""

    @pytest.mark.parametrize("family, depth, path, options, frames", [
        ("modified_resnet", 34, "MOD", {}, 300),
        ("modified_resnet", 50, "MOD", {}, 200),
        ("original_resnet", 34, "ORI", {}, 200),
        ("gemini_resnet", 34, "T14c", {}, 300),
        ("sd_resnet", 38, "MOD", {}, 200),
        ("modified_resnet", 34, "MOD", {"se_reduction": 8}, 300),
        ("modified_resnet", 34, "MOD", {"res2net_scale": 4}, 300),
        # Odd and small: most paths reach their late blocks at T = 1.
        ("modified_resnet", 34, "MOD", {}, 3),
    ])
    def test_every_endpoint_ranks_as_the_oracle(self, family, depth, path, options, frames):
        template = build(make_request(family, depth, path=path, **options))
        outcomes = _assert_ranks_as_oracle(template, TensorShape(1, 80, frames))
        assert all(isinstance(rows, list) for rows in outcomes)

    def test_df_resnet_raises_the_oracles_assertion(self):
        template = build(make_request("df_resnet", 182, path="MOD"))
        outcomes = _assert_ranks_as_oracle(template, TensorShape(1, 80, 300))
        raised = [o for o in outcomes if isinstance(o, str)]
        assert len(raised) == 24
        assert all(o.startswith("AssertionError: parameter count varies within family") for o in raised)

    def test_underflowing_path_raises_naming_the_layer(self, monkeypatch):
        _unpad_downsampling_time(monkeypatch)
        template = build(make_request("sd_resnet", 38, path="MOD"))
        for rank in (rank_paths_by_flops, rank_rows_by_count_flops):
            with pytest.raises(ShapeUnderflowError, match=re.escape(UNDERFLOW)):
                rank(enumerate_paths(TrellisEndpoint(32, 1)), TensorShape(1, 80, 21), template)

    def test_one_memo_serves_two_input_shapes(self, mod34):
        shapes = (TensorShape(1, 80, 200), INPUT_3S, TensorShape(1, 80, 200))
        for shape in shapes:
            parts = _parts(request_from_spec(mod34))
            assert _parts_totals(parts, shape) == _count_flops_totals(mod34, shape)
        assert {key[1] for key in analysis._EDGES} >= {(64, 40, 100), (64, 40, 150)}


#: What ranking SD-ResNet38 (32, 1) at 80x21 raises once its downsampling
#: convs no longer pad time (``_unpad_downsampling_time``).
UNDERFLOW = "stage4.downsample.conv: time dimension underflows to 0 (< 1)"


def _unpad_downsampling_time(monkeypatch):
    """Patch ``builder._stage`` to unpad the time axis of every separate
    downsampling conv, as new tuples on every call. No built layer
    underflows (every stride maps n to ceil(n/2)), but unpadded, each of
    SD-ResNet's four such convs takes 3 frames, and the one path that
    halves T at every stage runs out of frames at stage 4."""
    plain_stage = builder._stage

    def unpadded_stage(*args):
        stage, part = plain_stage(*args)
        part = tuple(tuple(
            dataclasses.replace(e, layer=dataclasses.replace(e.layer, padding=(1, 0)))
            if e.layer.name.endswith("downsample.conv") else e
            for e in run) for run in part)
        return stage, part

    monkeypatch.setattr(builder, "_stage", unpadded_stage)


def _recording_run_totals(monkeypatch):
    """Patch ``analysis._run_totals`` to list the first layer name of every
    run it walks; returns that list."""
    walked = []
    plain = analysis._run_totals

    def recording(run, shape):
        walked.append(run[0].layer.name)
        return plain(run, shape)

    monkeypatch.setattr(analysis, "_run_totals", recording)
    return walked


@pytest.mark.usefixtures("fresh_edges")
class TestStageMemo:
    """A ranking counts a path over the builder's parts: a stage seen at its
    input shape costs one memo lookup, and only a stage met for the first
    time is counted block by block."""

    def test_a_path_whose_stages_are_all_seen_walks_no_run(self, mod34, monkeypatch):
        # The third path strides like the second up to stage 2, where both
        # reach (2, 2), and like the first from stage 3 on.
        first = TrellisPath.from_lists((2, 1, 2, 2, 1), (2, 1, 1, 2, 2))
        second = TrellisPath.from_lists((1, 2, 1, 1, 1), (1, 2, 1, 1, 1))
        third = TrellisPath.from_lists((1, 2, 2, 2, 1), (1, 2, 1, 2, 2))
        reqs = [request_from_spec(mod34, path=p) for p in (first, second, third)]
        walked = _recording_run_totals(monkeypatch)
        for req in reqs[:2]:
            assert _parts_totals(_parts(req), INPUT_3S) == _count_flops_totals(build(req), INPUT_3S)
        assert walked
        walked.clear()

        def no_part_walk(part, shape, further):
            raise AssertionError(f"part of {part[0][0].layer.name} counted again")

        monkeypatch.setattr(analysis, "_part_totals", no_part_walk)
        totals = _parts_totals(_parts(reqs[2]), INPUT_3S)
        assert totals == _count_flops_totals(build(reqs[2]), INPUT_3S)
        assert walked == []

    def test_a_new_stage_walks_its_first_block_and_one_further_block(self, mod34, monkeypatch):
        # Both paths reach (2, 2) after stage 3's first block, by strides
        # swapped between stages 2 and 3. Stage 3 is a new part at its input
        # shape, so it walks its first block and block 2, which stands for
        # blocks 2..4, though block 2 was walked at that shape before.
        first = TrellisPath.from_lists((1, 2, 1, 1, 1), (1, 1, 2, 1, 1))
        second = TrellisPath.from_lists((1, 1, 2, 1, 1), (1, 2, 1, 1, 1))
        reqs = [request_from_spec(mod34, path=p) for p in (first, second)]
        assert _parts_totals(_parts(reqs[0]), INPUT_3S) == _count_flops_totals(build(reqs[0]), INPUT_3S)
        walked = _recording_run_totals(monkeypatch)
        assert _parts_totals(_parts(reqs[1]), INPUT_3S) == _count_flops_totals(build(reqs[1]), INPUT_3S)
        assert [name for name in walked if name.startswith("stage3.")] == [
            "stage3.block1.conv1", "stage3.block2.conv1"]


@pytest.mark.usefixtures("fresh_edges")
class TestAffineStage:
    """A new stage is counted from its plumbing, its first block and one
    further block, which stands for all ``num_blocks - 1`` of them."""

    def test_ranking_walks_one_further_block_per_stage_and_shape(self, monkeypatch):
        # Each (stage part, input shape) is walked once, whatever blocks the
        # builder's memos still hold, and walks one block 2 per block 1.
        template = build(make_request("df_resnet", 182, path="MOD"))
        parts, blocks = [], Counter()
        plain_part, plain_run = analysis._part_totals, analysis._run_totals

        def recording_part(part, shape, further):
            parts.append((part, shape))
            return plain_part(part, shape, further)

        def recording_run(run, shape):
            blocks[run[0].stage, run[0].block] += 1
            return plain_run(run, shape)

        monkeypatch.setattr(analysis, "_part_totals", recording_part)
        monkeypatch.setattr(analysis, "_run_totals", recording_run)
        ranked = rank_paths_by_flops(enumerate_paths(TrellisEndpoint(8, 32)), INPUT_3S, template)
        assert len(ranked) == 10
        assert set(Counter(parts).values()) == {1}
        stage_walks = Counter(part[0][0].stage for part, _ in parts)
        assert {(stage, block) for stage, block in blocks if block} == {
            (stage, block) for stage in (2, 3, 4, 5) for block in (1, 2)}
        assert all(blocks[stage, 1] == blocks[stage, 2] == stage_walks[stage] for stage in (2, 3, 4, 5))

    def test_further_blocks_that_change_their_shape_are_walked_run_by_run(self, mod34, monkeypatch):
        # Blocks 2..n rebuilt to halve T: block 2 no longer ends at its own
        # input shape, so it cannot stand for the others.
        plain_stage = builder._stage

        def striding_stage(kind, stage, num_blocks, in_ch, width, out_ch, *rest):
            spec, runs = plain_stage(kind, stage, num_blocks, in_ch, width, out_ch, *rest)
            further = tuple(builder._block(kind, stage, b, out_ch, width, out_ch, StridePair(2, 1), *rest[-2:])
                            for b in range(2, num_blocks + 1))
            return spec, runs[:len(runs) - len(further)] + further

        monkeypatch.setattr(builder, "_stage", striding_stage)
        walked = _recording_run_totals(monkeypatch)
        req = request_from_spec(mod34)
        totals = _parts_totals(_parts(req), INPUT_3S)
        assert totals == _count_flops_totals(build(req), INPUT_3S)
        assert sum(name.startswith("stage4.") for name in walked) == 6


def _edge_table_templates():
    """Every family preset on its default path, plain, with SE 4 and with
    Res2Net 4, where the family admits the option."""
    templates = []
    for family, depths in PRESETS.items():
        for depth in depths:
            depth = depth[0] if family == "df_resnet" else depth  # MOD keeps stage 2's resolution
            for options in ({}, {"se_reduction": 4}, {"res2net_scale": 4}):
                try:
                    templates.append(build(make_request(family, depth, **options)))
                except BuildError:
                    pass
    return tuple(templates)


EDGE_TABLE_TEMPLATES = _edge_table_templates()


@st.composite
def _ranking_calls(draw):
    """One ranking: a template, an endpoint it admits, and an odd T."""
    template = draw(st.sampled_from(EDGE_TABLE_TEMPLATES))
    golden = template.family.recipe.golden
    endpoint = draw(st.sampled_from(golden_gemini_endpoints() if golden else enumerate_endpoints()))
    frames = draw(st.integers(10, 150)) * 2 + 1
    return template, enumerate_paths(endpoint), TensorShape(1, 80, frames)


#: Plain, SE and Res2Net presets of every family, the original recipe's
#: max pool and DF-ResNet's downsampling convs among them.
TRELLIS_TEMPLATE_IDS = ("resnet34-se4", "resnet18-res2net4", "resnet50-se4", "ori34-res2net4",
                        "sd22-res2net4", "gemini101-se8", "df113")
TRELLIS_TEMPLATES = tuple(build(make_request(family, depth, path=path, **options)) for family, depth, path, options in (
    ("modified_resnet", 34, "MOD", {"se_reduction": 4}),
    ("modified_resnet", 18, "MOD", {"res2net_scale": 4}),
    ("modified_resnet", 50, "MOD", {"se_reduction": 4}),
    ("original_resnet", 34, "ORI", {"res2net_scale": 4}),
    ("sd_resnet", 22, "MOD", {"res2net_scale": 4}),
    ("gemini_resnet", 101, "T14c", {"se_reduction": 8}),
    ("df_resnet", 113, "MOD", {}),
))


def _rank_every_endpoint(template, shape):
    """Rank all 36 endpoint families of ``template`` (DF-ResNet's 24 mixed
    families raise their ``AssertionError`` after counting every path)."""
    for endpoint in enumerate_endpoints():
        _ranking_outcome(rank_paths_by_flops, enumerate_paths(endpoint), shape, template)


def _path_edges(req, shape):
    """``(edge table key, part)`` of each part a counted request passes through."""
    shape = analysis._start(shape)
    for _, part in req._elaborated:
        key = (id(part), shape)
        yield key, part
        shape = analysis._EDGES[key][3]


@pytest.mark.usefixtures("fresh_edges")
class TestEdgeTable:
    """The rankings share one edge table, ``analysis._EDGES``, across calls:
    a part walked at a shape by one ranking is a lookup for every later one,
    and a rebuilt part is a new tuple that misses. Its entries are the
    trellis's edges, one per (part, input shape), each with its exact cost."""

    def test_a_second_ranking_of_a_family_walks_no_run(self, mod34, monkeypatch):
        family = enumerate_paths(TrellisEndpoint(4, 8))
        first = rank_paths_by_flops(family, INPUT_3S, mod34)
        walked = _recording_run_totals(monkeypatch)
        assert rank_paths_by_flops(family, INPUT_3S, mod34) == first
        assert walked == []

    def test_a_patched_stage_misses_a_warm_table(self, monkeypatch):
        template = build(make_request("sd_resnet", 38, path="MOD"))
        family, shape = enumerate_paths(TrellisEndpoint(32, 1)), TensorShape(1, 80, 21)
        rank_paths_by_flops(family, shape, template)
        _unpad_downsampling_time(monkeypatch)
        with pytest.raises(ShapeUnderflowError, match=re.escape(UNDERFLOW)):
            rank_paths_by_flops(family, shape, template)

    @pytest.mark.parametrize("bound", [analysis._EDGE_TABLE_SIZE, 8])
    def test_interleaved_rankings_rank_as_the_oracle(self, bound, monkeypatch):
        # At a bound of 8 nearly every path's count clears the table first.
        monkeypatch.setattr(analysis, "_EDGE_TABLE_SIZE", bound)

        @settings(max_examples=30, deadline=None)
        @given(st.lists(_ranking_calls(), min_size=1, max_size=3))
        def rank_interleaved(calls):
            for template, family, shape in calls:
                got = _ranking_outcome(lambda *a: _rows(rank_paths_by_flops(*a)), family, shape, template)
                assert got == _ranking_outcome(rank_rows_by_count_flops, family, shape, template)
                # A path adds at most 6 entries: its stem, four stages and head.
                assert len(analysis._EDGES) <= bound + 6

        rank_interleaved()

    @pytest.mark.parametrize("frames", [21, 200, 301])
    @pytest.mark.parametrize("template", TRELLIS_TEMPLATES, ids=TRELLIS_TEMPLATE_IDS)
    def test_a_template_fills_the_trellis_256_edges(self, template, frames):
        # Per template and duration: 4 stems, 16 + 36 + 64 + 100 stage edges
        # (4 stride pairs from each reachable input shape) and 36 heads.
        shape = TensorShape(1, 80, frames)
        _rank_every_endpoint(template, shape)
        assert len(analysis._EDGES) == 256
        _rank_every_endpoint(template, shape)
        assert len(analysis._EDGES) == 256

    @pytest.mark.parametrize("template", TRELLIS_TEMPLATES, ids=TRELLIS_TEMPLATE_IDS)
    def test_coinciding_ceiling_shapes_fill_fewer_edges(self, template):
        # At T = 16, ceil(16/16) == ceil(16/32): fewer input shapes than paths reach.
        _rank_every_endpoint(template, TensorShape(1, 80, 16))
        assert len(analysis._EDGES) < 256

    @pytest.mark.parametrize("template", TRELLIS_TEMPLATES, ids=TRELLIS_TEMPLATE_IDS)
    def test_each_edge_costs_its_layers_in_a_whole_count(self, template):
        shape = TensorShape(1, 80, 301)
        checked = set()
        for path in iter_all_paths():
            req = request_from_spec(template, path=path)
            _parts_totals(req._elaborated, shape)
            edges = list(_path_edges(req, shape))
            if checked.issuperset(key for key, _ in edges):
                continue
            report = count_flops(build(req), shape)
            params, flops = dict(report.params_by_layer), dict(report.flops_by_layer)
            for key, part in edges:
                names = [entry.layer.name for run in part for entry in run]
                want = (sum(params.get(n, 0) for n in names), sum(flops.get(n, 0) for n in names))
                assert analysis._EDGES[key][1:3] == want, (path.label, names[0])
                checked.add(key)
        assert len(checked) == len(analysis._EDGES) == 256


@pytest.mark.usefixtures("fresh_edges")
class TestOneElaboration:
    """A ranking elaborates each path's parts once, on its request, and
    both ``build`` and the count read them."""

    def test_a_ranking_elaborates_each_path_once(self, mod34, monkeypatch):
        calls = []

        def counting(req):
            calls.append(req)
            return _parts(req)

        monkeypatch.setattr(builder, "_parts", counting)
        family = enumerate_paths(TrellisEndpoint(4, 8))
        ranked = rank_paths_by_flops(family, INPUT_3S, mod34)
        assert len(calls) == len(family.paths) == len(ranked)

    # Distinct (family, depth label) pairs each template's paths request:
    # Gemini's non-golden paths fall back to MOD, and DF-ResNet's paths that
    # stride at stage 2 count one more downsampling conv.
    @pytest.mark.parametrize("template, requested", zip(TRELLIS_TEMPLATES, (1, 1, 1, 1, 1, 2, 2)),
                             ids=TRELLIS_TEMPLATE_IDS)
    def test_the_ranking_requests_what_request_from_spec_does(self, template, requested, monkeypatch):
        plain, built = builder.build, []

        def recording(req):
            spec = plain(req)
            built.append((req, spec))
            return spec

        monkeypatch.setattr(builder, "build", recording)
        _rank_every_endpoint(template, INPUT_3S)
        monkeypatch.undo()
        assert sorted(req.path.label for req, _ in built) == sorted(path.label for path in iter_all_paths())
        assert len({(req.family, req.depth_label) for req, _ in built}) == requested
        for req, spec in built:
            want = request_from_spec(template, path=req.path)
            assert req == want, req.path.label
            assert model_to_json(spec) == model_to_json(build(want)), req.path.label

    def test_a_request_whose_parts_were_read_builds_as_a_fresh_one(self, mod34):
        for path in enumerate_paths(TrellisEndpoint(4, 8)).paths[:5]:
            read = request_from_spec(mod34, path=path)
            _parts_totals(read._elaborated, INPUT_3S)
            assert build(read) == build(request_from_spec(mod34, path=path))


class TestClosedFormPrecondition:
    """Every stage of every path ends at ``(ceil(80/beta_s), ceil(T/alpha_s))``,
    the shape a closed-form count of the stride space relies on."""

    @pytest.mark.parametrize("family, depth, path", [
        ("modified_resnet", 34, "MOD"),
        ("modified_resnet", 50, "MOD"),
        ("df_resnet", 182, "MOD"),
        ("original_resnet", 34, "ORI"),
        ("sd_resnet", 38, "MOD"),
    ])
    def test_each_stage_ends_at_the_ceiling_of_its_factors(self, family, depth, path):
        template = build(make_request(family, depth, path=path))
        frames = 301
        paths = tuple(iter_all_paths())
        assert len(paths) == 1024
        for path in paths:
            spec = build(request_from_spec(template, path=path))
            stage_of = {e.layer.name: e.stage for e in spec.entries}
            last = {}
            for record in trace(spec, TensorShape(1, 80, frames)):
                if stage_of[record.name]:
                    last[stage_of[record.name]] = record.out_shape[1:]
            want = {stage: (-(-80 // beta), -(-frames // alpha))
                    for stage, (alpha, beta) in enumerate(downsampling_factors(path), start=1)}
            assert last == want, path
