import dataclasses
import hashlib
import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stride_lab import analysis
from stride_lab import builder as builder_module
from stride_lab.analysis import AnalysisError, count_flops, count_params, trace
from stride_lab.builder import (
    BuildError,
    build,
    depth_from_blocks,
    make_request,
    request_from_spec,
)
from stride_lab.layers import (
    Add,
    BlockKind,
    Conv2d,
    Family,
    FullyConnected,
    MaxPool2d,
    Res2NetConv,
    ShortcutKind,
    SqueezeExcite,
    TemporalStatsPool,
    GlobalAvgPool,
    TensorShape,
)
from stride_lab.serialize import model_from_json, model_to_json
from stride_lab.strides import StridePair, TrellisEndpoint, TrellisPath, enumerate_endpoints, resolve_name
from stride_lab.trellis import enumerate_paths, rank_paths_by_flops

from oracles import ALL_PATHS, GOLDEN_PATHS, PRESETS, parent_depth_label, preset_requests


def stage_end_shapes(spec, freq, time):
    """(channels, freq, time) after the last layer of each stage 1..5."""
    records = {r.name: r for r in trace(spec, TensorShape(1, freq, time))}
    shapes = {}
    for entry in spec.entries:
        if entry.stage >= 1:
            shapes[entry.stage] = records[entry.layer.name].out_shape
    return shapes


class TestStageOutputs:
    """Stage-resolution checks on an input divisible by 32 (64 x 320)."""

    def test_original_resnet34(self):
        spec = build(make_request("original_resnet", 34, path="ORI", input_freq_bins=64))
        shapes = stage_end_shapes(spec, 64, 320)
        assert shapes[1] == (64, 32, 160)     # conv1: F/2 x T/2
        assert shapes[2] == (64, 16, 80)      # max pool then blocks: F/4 x T/4
        assert shapes[3] == (128, 8, 40)
        assert shapes[4] == (256, 4, 20)
        assert shapes[5] == (512, 2, 10)      # F/32 x T/32

    def test_modified_resnet34(self):
        spec = build(make_request("modified_resnet", 34, path="MOD", input_freq_bins=64))
        shapes = stage_end_shapes(spec, 64, 320)
        assert shapes[1] == (32, 64, 320)
        assert shapes[2] == (32, 64, 320)
        assert shapes[3] == (64, 32, 160)
        assert shapes[4] == (128, 16, 80)
        assert shapes[5] == (256, 8, 40)      # F/8 x T/8

    def test_gemini_resnet34(self):
        spec = build(make_request("gemini_resnet", 34, path="T14c", input_freq_bins=64))
        shapes = stage_end_shapes(spec, 64, 320)
        assert shapes[1] == (32, 64, 320)
        assert shapes[2] == (32, 32, 320)     # F/2 x T
        assert shapes[3] == (64, 16, 160)     # F/4 x T/2
        assert shapes[4] == (128, 8, 160)     # F/8 x T/2
        assert shapes[5] == (256, 4, 160)     # F/16 x T/2

    def test_df_resnet_stage_outputs(self):
        spec = build(make_request("df_resnet", 183, path="T14c", input_freq_bins=64))
        shapes = stage_end_shapes(spec, 64, 320)
        assert shapes[2] == (32, 32, 320)
        assert shapes[5] == (256, 4, 160)


class TestHead:
    def test_df182_head_dims(self):
        spec = build(make_request("df_resnet", 182, path="MOD"))
        fc = [e.layer for e in spec.entries if isinstance(e.layer, FullyConnected)]
        assert len(fc) == 1
        assert (fc[0].in_dim, fc[0].out_dim) == (5120, 256)

    def test_gemini_df183_head_dims(self):
        spec = build(make_request("df_resnet", 183, path="T14c"))
        fc = [e.layer for e in spec.entries if isinstance(e.layer, FullyConnected)][0]
        assert (fc.in_dim, fc.out_dim) == (2560, 256)

    def test_original_family_uses_global_average_pool(self):
        spec = build(make_request("original_resnet", 34, path="ORI"))
        pools = [e.layer for e in spec.entries if isinstance(e.layer, (GlobalAvgPool, TemporalStatsPool))]
        assert len(pools) == 1 and isinstance(pools[0], GlobalAvgPool)
        fc = [e.layer for e in spec.entries if isinstance(e.layer, FullyConnected)][0]
        assert fc.in_dim == 512

    def test_speech_families_use_temporal_stats_pool(self, mod34):
        pools = [e.layer for e in mod34.entries if isinstance(e.layer, TemporalStatsPool)]
        assert len(pools) == 1
        fc = [e.layer for e in mod34.entries if isinstance(e.layer, FullyConnected)][0]
        assert fc.in_dim == 2 * 256 * 10

    def test_head_sized_from_a_wrong_path_fails_analysis(self, mod34):
        # A head sized for T14c's 5 freq bins (2 * 256 * 5) on a MOD body.
        *body, fc = mod34.entries
        wrong = dataclasses.replace(fc, layer=dataclasses.replace(fc.layer, in_dim=2560))
        spec = dataclasses.replace(mod34, entries=(*body, wrong))
        with pytest.raises(AnalysisError, match="head.fc: expects input dim 2560, got 5120"):
            count_flops(spec, TensorShape(1, 80, 200))

    def test_head_projects_to_the_embedding_dim(self):
        spec = build(make_request("modified_resnet", 34, path="MOD", embedding_dim=192))
        fc = spec.entries[-1].layer
        assert (fc.name, fc.in_dim, fc.out_dim, spec.embedding_dim) == ("head.fc", 5120, 192, 192)


class TestDepthFormula:
    def test_basic_16_blocks_is_34(self):
        assert depth_from_blocks(BlockKind.BASIC, 16) == 34

    def test_bottleneck_16_blocks_is_50(self):
        assert depth_from_blocks(BlockKind.BOTTLENECK, 16) == 50

    def test_df_59_blocks_with_4_downsamplers_is_183(self):
        assert depth_from_blocks(BlockKind.DF_INVERTED, 59, extra_layers=4) == 183

    def test_basic_8_blocks_is_18(self):
        assert depth_from_blocks(BlockKind.BASIC, 8) == 18

    def test_rejects_zero_blocks(self):
        with pytest.raises(BuildError):
            depth_from_blocks(BlockKind.BASIC, 0)


class TestBuildValidation:
    def test_df_depth_matches_path(self):
        # An equal-stride path has 3 downsampling convs: 182 layers, not 183.
        with pytest.raises(BuildError):
            build(make_request("df_resnet", 183, path="MOD"))
        with pytest.raises(BuildError):
            build(make_request("df_resnet", 182, path="T14c"))

    def test_three_block_counts_are_refused(self):
        req = dataclasses.replace(make_request("modified_resnet", 34), block_counts=(3, 4, 6))
        with pytest.raises(BuildError) as info:
            build(req)
        assert str(info.value) == "expected 4 per-stage block counts, got (3, 4, 6)"

    def test_gemini_requires_golden_endpoint(self):
        with pytest.raises(BuildError):
            build(make_request("gemini_resnet", 34, path="MOD"))

    def test_unknown_depth_preset(self):
        with pytest.raises(BuildError):
            make_request("modified_resnet", 42)

    def test_explicit_blocks_must_match_depth(self):
        with pytest.raises(BuildError):
            build(make_request("modified_resnet", 34, path="MOD", block_counts=(2, 2, 2, 2)))

    def test_unknown_family(self):
        with pytest.raises(BuildError):
            make_request("dense_net", 34)

    def test_res2net_rejected_on_bottleneck(self):
        with pytest.raises(BuildError):
            build(make_request("modified_resnet", 50, res2net_scale=4))

    def test_se_rejected_on_df(self):
        with pytest.raises(BuildError):
            build(make_request("df_resnet", 182, se_reduction=4))

    def test_original_non_canonical_path_noted(self):
        spec = build(make_request("original_resnet", 34, path="MOD"))
        assert "non_canonical_path_for_original_family" in spec.notes


def _with_entries(spec, entries):
    return dataclasses.replace(spec, entries=tuple(entries))


def _renamed(entry, name, **fields):
    return dataclasses.replace(entry, layer=dataclasses.replace(entry.layer, name=name), **fields)


def _entry(spec, name):
    return next(e for e in spec.entries if e.layer.name == name)


#: Whole-spec rules: id -> (edit a ResNet34 MOD spec, the gate's message).
_GATE_CASES = {
    "duplicate-name": (
        lambda s: _with_entries(s, (_renamed(e, "stem.conv") if e.layer.name == "stem.bn" else e
                                    for e in s.entries)),
        "duplicate layer name 'stem.conv'"),
    # A copy of a block's add, outside any block, after the stem's conv, bn and act.
    "add-outside-block": (
        lambda s: _with_entries(s, (*s.entries[:3], _renamed(_entry(s, "stage2.block1.add"), "stem.add",
                                                             block=None), *s.entries[3:])),
        "add layer 'stem.add' is outside any residual block"),
    "block-without-add": (
        lambda s: _with_entries(s, (e for e in s.entries if e.layer.name != "stage2.block1.add")),
        "residual block stage2.block1 has 0 add layers, expected exactly one"),
    "embedding-mismatch": (lambda s: dataclasses.replace(s, embedding_dim=192),
                           "embedding_dim 192 does not match head.fc out_dim 256"),
    "no-head": (lambda s: _with_entries(s, (e for e in s.entries if e.stage != 0)),
                "no FullyConnected layer makes the embedding (embedding_dim 256)"),
    "se-mismatch": (lambda s: dataclasses.replace(s, se_reduction=4),
                    "se_reduction 4 does not match the SqueezeExcite layers (none)"),
    "res2net-mismatch": (lambda s: dataclasses.replace(s, res2net_scale=2),
                         "res2net_scale 2 does not match the Res2NetConv layers (none)"),
    "path-not-the-stage-strides": (
        lambda s: dataclasses.replace(s, path=TrellisPath.from_lists([2] * 5, [1] * 5)),
        "stage 2 stride StridePair(time=1, freq=1) does not match the path's step "
        "StridePair(time=2, freq=1)"),
    "stages-out-of-order": (
        lambda s: dataclasses.replace(s, stages=s.stages[::-1]),
        "stage 2 stride StridePair(time=2, freq=2) does not match the path's step "
        "StridePair(time=1, freq=1)"),
    # The stem's freq step (the loader's case edits its time step).
    "stem-not-the-path": (
        lambda s: dataclasses.replace(s, path=TrellisPath.from_lists([1, 1, 2, 2, 2], [2, 1, 2, 2, 2])),
        "stage 1 layers stride (time=1, freq=1) in all, which does not match the path's step "
        "StridePair(time=1, freq=2)"),
    # Path and stages both on E33p, the layers still MOD's.
    "stages-and-path-not-the-layers": (
        lambda s: dataclasses.replace(s, path=resolve_name("E33p"), stages=tuple(
            dataclasses.replace(stage, stride=step)
            for stage, step in zip(s.stages, resolve_name("E33p").steps[1:]))),
        "stage 2 layers stride (time=1, freq=1) in all, which does not match the path's step "
        "StridePair(time=2, freq=2)"),
    "stage-missing": (lambda s: dataclasses.replace(s, stages=s.stages[:3]),
                      "stage 5 stride None does not match the path's step StridePair(time=2, freq=2)"),
    "zero-base-channels": (lambda s: dataclasses.replace(s, base_channels=0),
                           "base_channels must be a positive integer, got 0"),
    "negative-freq-bins": (lambda s: dataclasses.replace(s, input_freq_bins=-80),
                           "input_freq_bins must be a positive integer, got -80"),
}


class TestValidate:
    """ModelSpec.validate, the one gate for the rules no single layer can
    check, and the builder output that passes it without being run through it."""

    @pytest.mark.parametrize("case", sorted(_GATE_CASES))
    def test_each_whole_spec_rule(self, mod34, case):
        edit, message = _GATE_CASES[case]
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            edit(mod34).validate()

    @pytest.mark.parametrize("family,depths", sorted(PRESETS.items()))
    def test_preset_builds_pass(self, family, depths):
        # Each depth on the family's default path, then on T14c.
        for depth in depths:
            build(make_request(family, _label(family, depth, "MOD"))).validate()
            build(make_request(family, _label(family, depth, "T14c"), path="T14c")).validate()

    @pytest.mark.parametrize("depth", [18, 34])
    @pytest.mark.parametrize("option", ["se_reduction", "res2net_scale"])
    def test_se_and_res2net_builds_pass(self, depth, option):
        build(make_request("modified_resnet", depth, **{option: 4})).validate()


class TestElaborationStructure:
    def test_rebuild_reproduces_identical_spec(self, mod34, gemini34, original34, df183):
        for spec in (mod34, gemini34, original34, df183):
            again = build(request_from_spec(spec))
            assert again == spec

    def test_first_block_carries_stage_stride(self, gemini34):
        for stage in gemini34.stages:
            for entry in gemini34.entries:
                if not isinstance(entry.layer, Conv2d) or entry.stage != stage.index:
                    continue
                if entry.layer.name.endswith("shortcut.conv"):
                    continue
                if entry.block == 1 and entry.layer.name.endswith("conv1"):
                    assert entry.layer.stride == stage.stride
                elif entry.block is not None and entry.block > 1:
                    assert entry.layer.stride == StridePair(1, 1)

    def test_sd_conv_carries_stride_for_df(self, df183):
        for stage in df183.stages:
            assert stage.separate_downsample
            sd = [
                e.layer
                for e in df183.entries
                if isinstance(e.layer, Conv2d) and e.layer.name == f"stage{stage.index}.downsample.conv"
            ]
            assert len(sd) == 1 and sd[0].stride == stage.stride
            block_convs = [
                e.layer
                for e in df183.entries
                if isinstance(e.layer, Conv2d) and e.stage == stage.index and e.block is not None
            ]
            assert all(c.stride == StridePair(1, 1) for c in block_convs)

    def test_df_equal_stride_has_no_stage2_downsampler(self):
        spec = build(make_request("df_resnet", 182, path="MOD"))
        names = [e.layer.name for e in spec.entries]
        assert "stage2.downsample.conv" not in names
        assert "stage3.downsample.conv" in names

    def test_original_maxpool_takes_stage2_stride(self, original34):
        pools = [e.layer for e in original34.entries if isinstance(e.layer, MaxPool2d)]
        assert len(pools) == 1
        assert pools[0].stride == original34.path.steps[1]
        stage2_convs = [
            e.layer
            for e in original34.entries
            if isinstance(e.layer, Conv2d) and e.stage == 2
        ]
        assert all(c.stride == StridePair(1, 1) for c in stage2_convs)

    def test_projection_exactly_on_channel_change(self, gemini34):
        for entry in gemini34.entries:
            if not isinstance(entry.layer, Add):
                continue
            stage = next(s for s in gemini34.stages if s.index == entry.stage)
            first = entry.block == 1
            in_ch = gemini34.base_channels if stage.index == 2 else stage.out_channels // 2
            changes_channels = first and in_ch != stage.out_channels
            if changes_channels:
                assert entry.layer.shortcut is ShortcutKind.PROJECTION
            elif first and not stage.stride.is_unit():
                assert entry.layer.shortcut is ShortcutKind.SUBSAMPLE
            else:
                assert entry.layer.shortcut is ShortcutKind.IDENTITY

    def test_df_blocks_never_project(self, df183):
        adds = [e.layer for e in df183.entries if isinstance(e.layer, Add)]
        assert all(a.shortcut is ShortcutKind.IDENTITY for a in adds)

    def test_conv_bias_disabled_fc_bias_enabled(self, mod34):
        for entry in mod34.entries:
            if isinstance(entry.layer, Conv2d):
                assert not entry.layer.bias
            if isinstance(entry.layer, FullyConnected):
                assert entry.layer.bias

    def test_se_in_every_block_before_add(self):
        spec = build(make_request("modified_resnet", 34, se_reduction=4))
        n_blocks = sum(s.num_blocks for s in spec.stages)
        se_layers = [e for e in spec.entries if isinstance(e.layer, SqueezeExcite)]
        assert len(se_layers) == n_blocks
        names = [e.layer.name for e in spec.entries]
        for se in se_layers:
            prefix = se.layer.name.rsplit(".", 1)[0]
            assert names.index(se.layer.name) < names.index(f"{prefix}.add")

    def test_res2net_replaces_second_conv(self):
        spec = build(make_request("modified_resnet", 34, res2net_scale=4))
        n_blocks = sum(s.num_blocks for s in spec.stages)
        res2 = [e.layer for e in spec.entries if isinstance(e.layer, Res2NetConv)]
        assert len(res2) == n_blocks
        assert all(layer.scale == 4 and layer.width == layer.channels // 4 for layer in res2)
        names = [e.layer.name for e in spec.entries]
        assert "stage2.block1.bn2" not in names

    def test_stem_kernel_by_family(self, mod34, original34):
        stem = next(e.layer for e in original34.entries if e.layer.name == "stem.conv")
        assert stem.kernel == (7, 7) and stem.padding == (3, 3)
        stem = next(e.layer for e in mod34.entries if e.layer.name == "stem.conv")
        assert stem.kernel == (3, 3) and stem.padding == (1, 1)

    def test_base_channel_defaults(self, mod34, original34):
        assert mod34.base_channels == 32
        assert original34.base_channels == 64

    def test_family_parsing_from_string(self):
        spec = build(make_request("modified_resnet", 18))
        assert spec.family is Family.MODIFIED_RESNET
        assert spec.path.label == "MOD"


@given(req=preset_requests(), time=st.integers(1, 400))
@settings(max_examples=200, deadline=None)
def test_head_size_and_walked_params_match_the_trace(req, time):
    try:
        spec = build(req)
    except BuildError:
        assume(False)
    # The traced body output is the oracle for the head's input size.
    records = {r.name: r for r in trace(spec, TensorShape(1, req.input_freq_bins, 300))}
    channels, freq, _ = records["head.pool"].in_shape
    fc = spec.entries[-1].layer
    assert isinstance(fc, FullyConnected)
    if req.family is Family.ORIGINAL_RESNET:
        assert fc.in_dim == channels
    else:
        assert fc.in_dim == 2 * channels * freq
    walked = count_flops(spec, TensorShape(1, req.input_freq_bins, time))
    assert walked.params_by_layer == count_params(spec).params_by_layer


#: One edge table shared by every example of the property below, as the
#: rankings share ``analysis._EDGES`` across the paths they count.
_SHARED_EDGES: dict = {}


@given(req=preset_requests(), half_time=st.integers(0, 20))
@settings(max_examples=200, deadline=None)
def test_parts_compose_the_build_and_count_as_it(req, half_time):
    try:
        spec = build(req)
    except BuildError:
        assume(False)
    parts = tuple(builder_module._parts(req))
    assert spec.entries == tuple(entry for _, part in parts for run in part for entry in run)
    assert spec.stages == tuple(stage for stage, _ in parts if stage is not None)
    shape = TensorShape(1, req.input_freq_bins, 2 * half_time + 1)
    count = count_flops(spec, shape)
    for edges in ({}, _SHARED_EDGES):
        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(analysis, "_EDGES", edges)
            assert analysis._parts_totals(parts, shape) == (count.params_total, count.flops_total)


def _label(family, depth, path):
    """A depth-first preset's label for ``path``: the pair's second label
    counts the stage-2 downsampling conv that only a stage-2 stride gets."""
    if family != "df_resnet":
        return depth
    return depth[0] if resolve_name(path).steps[1].is_unit() else depth[1]


def _memo_requests():
    """Every family x preset depth on its default path and on a golden path
    other than the principal one, and with SE 4 and Res2Net 4 (which some
    families reject)."""
    golden = GOLDEN_PATHS[-1].label
    assert golden != "T14c"
    for family, depths in sorted(PRESETS.items()):
        for depth in depths:
            default = _label(family, depth, "MOD")
            yield make_request(family, default)
            yield make_request(family, _label(family, depth, golden), path=golden)
            yield make_request(family, default, se_reduction=4)
            yield make_request(family, default, res2net_scale=4)


def _json_or_error(req):
    try:
        return model_to_json(build(req))
    except BuildError as exc:
        return f"BuildError: {exc}"


_memo = builder_module._block
#: Every builder memo with its bound.
_MEMOS = {
    builder_module._block: builder_module._BLOCK_MEMO_SIZE,
    builder_module._stage: builder_module._STAGE_MEMO_SIZE,
    builder_module._stem: builder_module._END_MEMO_SIZE,
    builder_module._head: builder_module._END_MEMO_SIZE,
    builder_module._template: builder_module._TEMPLATE_MEMO_SIZE,
}


def _clear_memos():
    for memo in _MEMOS:
        memo.cache_clear()


def _memo_states():
    return [(memo.cache_info().currsize, memo.cache_info().misses) for memo in _MEMOS]


@pytest.mark.usefixtures("fresh_edges")
class TestBlockMemo:
    def test_specs_are_byte_identical_after_every_path_was_built(self):
        _clear_memos()
        fresh = [(req, _json_or_error(req)) for req in _memo_requests()]
        # Refused: SE and Res2Net on the 3 depth-first presets, Res2Net on the
        # 9 bottleneck presets.
        assert sum(text.startswith("BuildError") for _, text in fresh) == 15
        for template in (make_request("modified_resnet", 34), make_request("df_resnet", 182)):
            spec = build(template)
            for path in ALL_PATHS:
                build(request_from_spec(spec, path=path))
        for memo, bound in _MEMOS.items():
            assert memo.cache_info().currsize <= bound
        for req, text in fresh:
            assert _json_or_error(req) == text, req

    def test_memo_stays_at_its_bound(self):
        _clear_memos()
        assert _memo.cache_info().maxsize == builder_module._BLOCK_MEMO_SIZE == 1024
        for memo, bound in _MEMOS.items():
            assert memo.cache_info().maxsize == bound
        first = make_request("modified_resnet", 34, base_channels=1)
        text = model_to_json(build(first))
        # A ResNet34 has 4 stages of 16 blocks, 1 stem and 1 head: 70 widths
        # elaborate 1,120 distinct blocks, 280 stages, 70 stems and 70 heads,
        # in 70 templates.
        for channels in range(1, 71):
            build(make_request("modified_resnet", 34, base_channels=channels))
        for memo, bound in _MEMOS.items():
            assert memo.cache_info().currsize == bound, memo
        assert model_to_json(build(first)) == text

    def test_failing_request_raises_the_same_error_and_adds_nothing(self):
        req = make_request("modified_resnet", 34, se_reduction=3)
        before = _memo_states()
        messages = []
        for _ in range(2):
            with pytest.raises(BuildError) as info:
                build(req)
            messages.append(str(info.value))
        assert messages == ["stage 2: SE reduction 3 does not divide its 32 channels"] * 2
        assert _memo_states() == before

    def test_a_float_option_cannot_answer_for_an_int(self):
        req = make_request("modified_resnet", 34, se_reduction=4)
        _memo.cache_clear()
        text = model_to_json(build(req))
        _memo.cache_clear()
        with pytest.raises(BuildError, match="se_reduction must be an integer, got 4.0"):
            build(dataclasses.replace(req, se_reduction=4.0))
        # The memo's key is typed: a block elaborated with a float reduction
        # (past the request gate) is not served to the int request.
        _memo(BlockKind.BASIC, 2, 1, 32, 32, 32, StridePair(1, 1), 4.0, None)
        spec = build(req)
        assert model_to_json(spec) == text
        assert type(count_params(spec).params_total) is int

    def test_a_float_block_count_or_option_cannot_be_served_an_int_requests_parts(self):
        req = make_request("modified_resnet", 34, se_reduction=4)
        _clear_memos()
        text = model_to_json(build(req))
        # Past the request gate, the template memo's key is typed, block
        # counts one by one: a float request gets a table of its own, whose
        # elaboration refuses a float block count and keeps a float reduction.
        with pytest.raises(TypeError):
            dataclasses.replace(req, block_counts=(3.0, 4, 6, 3))._elaborated
        floated = dataclasses.replace(req, se_reduction=4.0)._elaborated
        assert {type(entry.layer.reduction) for _, part in floated for run in part for entry in run
                if isinstance(entry.layer, SqueezeExcite)} == {float}
        # Nor is the int request served the float one's parts.
        _clear_memos()
        dataclasses.replace(req, se_reduction=4.0)._elaborated
        spec = build(req)
        assert model_to_json(spec) == text
        assert type(count_params(spec).params_total) is int

    def test_a_template_keeps_its_edges_past_the_stage_memo(self):
        # A template's table owns its edges: once the stage memo has dropped
        # every stage a template's first paths were elaborated from, its
        # other paths still share those part objects, so ranking all 36
        # endpoints fills exactly the trellis's 256 edges, and every path
        # builds as it does from cold memos.
        template = build(make_request("modified_resnet", 34))

        def digest(path):
            return hashlib.sha256(model_to_json(build(request_from_spec(template, path=path))).encode()).digest()

        cold = {}
        for path in ALL_PATHS:
            _clear_memos()
            cold[path.label] = digest(path)
        shape = TensorShape(1, 80, 300)
        rank_paths_by_flops(enumerate_paths(TrellisEndpoint(4, 8)), shape, template)
        for channels in range(1, 71):
            for stage in range(2, 6):
                builder_module._stage(BlockKind.BASIC, stage, 1, channels, channels, channels, StridePair(1, 1),
                                      False, False, None, None)
        assert builder_module._stage.cache_info().currsize == builder_module._STAGE_MEMO_SIZE
        for endpoint in enumerate_endpoints():
            rank_paths_by_flops(enumerate_paths(endpoint), shape, template)
        assert len(analysis._EDGES) == 256
        for path in ALL_PATHS:
            assert digest(path) == cold[path.label], path.label

    def _two_paths(self, template):
        """Requests for two paths to the endpoint (4, 8) with the same first
        two strides."""
        paths = enumerate_paths(TrellisEndpoint(4, 8)).paths
        first = paths[0]
        second = next(p for p in paths[1:] if p.steps[:2] == first.steps[:2])
        return [request_from_spec(template, path=p) for p in (first, second)]

    @pytest.mark.parametrize("family, depth", [("modified_resnet", 34), ("original_resnet", 34)])
    def test_paths_of_one_endpoint_share_their_stem_and_head(self, family, depth):
        a, b = map(build, self._two_paths(build(make_request(family, depth))))
        assert a.path != b.path
        outside = [(x, y) for x, y in zip(a.entries, b.entries) if x.block is None]
        # Stem (3 entries), the original recipe's max pool, and the head (2).
        assert len(outside) == (6 if family == "original_resnet" else 5)
        assert all(x is y for x, y in outside)

    def test_counting_a_second_path_walks_no_run_outside_blocks(self, monkeypatch):
        a, b = self._two_paths(build(make_request("original_resnet", 34)))
        walked = []
        plain = analysis._run_totals

        def recording(run, shape):
            walked.append(run[0].block)
            return plain(run, shape)

        monkeypatch.setattr(analysis, "_run_totals", recording)
        analysis._parts_totals(builder_module._parts(a), TensorShape(1, 80, 300))
        assert None in walked
        walked.clear()
        totals = analysis._parts_totals(builder_module._parts(b), TensorShape(1, 80, 300))
        count = count_flops(build(b), TensorShape(1, 80, 300))
        assert totals == (count.params_total, count.flops_total)
        assert walked and None not in walked

    def test_cold_and_warm_memos_rank_alike(self):
        family = enumerate_paths(TrellisEndpoint(4, 8))
        shape = TensorShape(1, 80, 200)
        for req in (make_request("modified_resnet", 50), make_request("sd_resnet", 38)):
            template = build(req)
            _clear_memos()
            cold = rank_paths_by_flops(family, shape, template)
            warm = rank_paths_by_flops(family, shape, template)
            assert len(cold) == 100 and cold == warm


class TestIntegerGate:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("depth_label", 18.0),
            ("depth_label", True),
            ("base_channels", 32.0),
            ("base_channels", True),
            ("base_channels", 0),
            ("embedding_dim", 256.0),
            ("embedding_dim", 0),
            ("input_freq_bins", 80.0),
            ("input_freq_bins", False),
            ("block_counts", (2.0, 2, 2, 2)),
            ("block_counts", (True, 3, 2, 2)),
            ("block_counts", (0, 4, 2, 2)),
            ("se_reduction", 4.0),
            ("se_reduction", True),
            ("res2net_scale", 4.0),
            ("res2net_scale", True),
        ],
    )
    def test_non_int_or_non_positive_values_are_refused(self, field, value):
        req = dataclasses.replace(make_request("modified_resnet", 18), **{field: value})
        with pytest.raises(BuildError, match=rf"{field}(\[0\])? must be"):
            build(req)

    @pytest.mark.parametrize("value, text", [(0, "0"), (-1, "-1"), (True, "True"), (2.0, "2.0")])
    @pytest.mark.parametrize("field", ["depth_label", "base_channels", "embedding_dim", "input_freq_bins",
                                       "block_counts[0]", "block_counts[1]", "block_counts[2]",
                                       "block_counts[3]"])
    def test_each_size_refusal_names_its_field_and_value(self, field, value, text):
        req = make_request("modified_resnet", 18)
        if field.startswith("block_counts"):
            counts = list(req.block_counts)
            counts[int(field[-2])] = value
            req = dataclasses.replace(req, block_counts=tuple(counts))
        else:
            req = dataclasses.replace(req, **{field: value})
        with pytest.raises(BuildError) as info:
            build(req)
        assert str(info.value) == f"{field} must be a positive integer, got {text}"

    @pytest.mark.parametrize("value, text", [(True, "True"), (4.0, "4.0")])
    @pytest.mark.parametrize("field", ["se_reduction", "res2net_scale"])
    def test_each_option_refusal_names_its_field_and_value(self, field, value, text):
        req = dataclasses.replace(make_request("modified_resnet", 18), **{field: value})
        with pytest.raises(BuildError) as info:
            build(req)
        assert str(info.value) == f"{field} must be an integer, got {text}"

    def test_bool_option_through_make_request(self):
        with pytest.raises(BuildError, match="se_reduction must be an integer, got True"):
            build(make_request("modified_resnet", 18, se_reduction=True))

    def test_layers_and_shapes_refuse_bools(self):
        with pytest.raises(ValueError, match="channels must be a positive integer, got True"):
            TensorShape(True, 80, 300)
        with pytest.raises(ValueError, match="in_channels must be a positive integer, got True"):
            Conv2d("conv", True, 4, (3, 3))
        with pytest.raises(ValueError, match="stride components must be 1 or 2, got 2.0"):
            StridePair(2.0, 1)


@pytest.mark.parametrize("make, message", [
    (lambda: Conv2d("c", 3, 4, (1, 1), groups=2), "channels (3 -> 4) must be divisible by groups (2)"),
    (lambda: Conv2d("c", 3, 4, (0, 1)), "kernel and dilation components must be >= 1"),
    (lambda: Conv2d("c", 3, 4, (1, 1), padding=(-1, 0)), "padding components must be >= 0"),
    (lambda: SqueezeExcite("se", 8, 0), "reduction ratio must be >= 1"),
    (lambda: SqueezeExcite("se", 8, 3), "channels (8) must be divisible by reduction (3)"),
    (lambda: Res2NetConv("r2n", 8, 1), "res2net scale must be >= 2"),
    (lambda: Res2NetConv("r2n", 10, 4), "channels (10) must split evenly into scale (4)"),
], ids=["conv-groups", "conv-kernel", "conv-padding", "se-reduction", "se-divides",
        "res2net-scale", "res2net-divides"])
def test_layer_constructor_refusals(make, message):
    with pytest.raises(ValueError) as info:
        make()
    assert type(info.value) is ValueError
    assert str(info.value) == message


def _templates():
    """One spec per preset family and depth label; a DF label that counts a
    stage-2 downsampling conv is built on a path that strides there."""
    for family, depths in PRESETS.items():
        for depth in depths:
            if family == "df_resnet":
                yield build(make_request(family, depth[0], path="MOD"))
                yield build(make_request(family, depth[1], path="T14c"))
            else:
                yield build(make_request(family, depth))


def test_depth_labels_follow_the_parent_rule():
    templates = list(_templates())
    assert len(templates) == 23
    for spec in templates:
        assert request_from_spec(spec).depth_label == parent_depth_label(spec, None)
        for path in ALL_PATHS:
            got = request_from_spec(spec, path=path).depth_label
            assert got == parent_depth_label(spec, path), (spec.display_name, path.label)


def test_a_spec_without_stages_is_a_build_error(mod34):
    with pytest.raises(BuildError, match="block count must be >= 1"):
        request_from_spec(dataclasses.replace(mod34, stages=()))


_ODD_VALUES = (None, 0, -1, 1, 2, 4, 8, 2.5, 4.0, True, False)


@given(
    req=preset_requests(),
    edits=st.dictionaries(
        st.sampled_from(
            ("depth_label", "base_channels", "embedding_dim", "input_freq_bins",
             "se_reduction", "res2net_scale")
        ),
        st.sampled_from(_ODD_VALUES),
        max_size=2,
    ),
)
@settings(max_examples=200, deadline=None)
def test_every_accepted_request_round_trips_through_json(req, edits):
    req = dataclasses.replace(req, **edits)
    try:
        spec = build(req)
    except BuildError:
        assume(False)
    assert model_from_json(model_to_json(spec)) == spec
    assert type(count_params(spec).params_total) is int
