import dataclasses

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stride_lab.analysis import AnalysisError, count_flops, count_params, trace
from stride_lab.builder import (
    BuildError,
    attach_head,
    build,
    build_body,
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
from stride_lab.catalog import GOLDEN_GEMINI_FACTORS
from stride_lab.strides import StridePair, final_factors, iter_all_paths, resolve_name


def stage_end_shapes(spec, freq, time):
    """(channels, freq, time) after the last layer of each stage 1..5."""
    records = {r.name: r for r in trace(spec, freq=freq, time=time)}
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

    def test_attach_head_refuses_double_head(self, mod34):
        with pytest.raises(BuildError):
            attach_head(mod34)

    def test_attach_head_needs_a_stage_table(self):
        body = build_body(make_request("modified_resnet", 18, path="MOD"))
        with pytest.raises(BuildError, match="no stages"):
            attach_head(dataclasses.replace(body, stages=()))

    def test_head_sized_from_a_wrong_path_fails_analysis(self):
        body = build_body(make_request("modified_resnet", 34, path="MOD"))
        spec = attach_head(dataclasses.replace(body, path=resolve_name("T14c")))
        with pytest.raises(AnalysisError, match="head.fc: expects input dim 2560, got 5120"):
            count_flops(spec, TensorShape(1, 80, 200))

    def test_attach_head_on_body(self):
        body = build_body(make_request("modified_resnet", 34, path="MOD"))
        spec = attach_head(body, embedding_dim=192)
        fc = [e.layer for e in spec.entries if isinstance(e.layer, FullyConnected)][0]
        assert fc.out_dim == 192


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


_PRESETS = {
    "original_resnet": (18, 34, 50, 101, 152),
    "modified_resnet": (18, 34, 50, 101, 152),
    "gemini_resnet": (18, 34, 50, 101, 152),
    "sd_resnet": (22, 38),
    # Label pairs with the same blocks: the second counts a stage-2
    # downsampling conv, which only a path striding at stage 2 gets.
    "df_resnet": ((59, 60), (113, 114), (182, 183)),
}
_ALL_PATHS = tuple(iter_all_paths())
_GOLDEN_PATHS = tuple(p for p in _ALL_PATHS if final_factors(p) in GOLDEN_GEMINI_FACTORS)


@st.composite
def _requests(draw):
    family = draw(st.sampled_from(sorted(_PRESETS)))
    path = draw(st.sampled_from(_GOLDEN_PATHS if family == "gemini_resnet" else _ALL_PATHS))
    depth = draw(st.sampled_from(_PRESETS[family]))
    if family == "df_resnet":
        depth = depth[0] if path.steps[1].is_unit() else depth[1]
    return make_request(
        family, depth, path=path,
        input_freq_bins=draw(st.integers(1, 200)),
        se_reduction=draw(st.sampled_from((None, 2, 4))),
        res2net_scale=draw(st.sampled_from((None, 2, 4))),
    )


@given(req=_requests(), time=st.integers(1, 400))
@settings(max_examples=200, deadline=None)
def test_head_size_and_walked_params_match_the_trace(req, time):
    try:
        spec = build(req)
    except BuildError:
        assume(False)
    # The traced body output is the oracle for the head's input size.
    channels, freq, _ = trace(build_body(req), include_head=False)[-1].out_shape
    fc = spec.entries[-1].layer
    assert isinstance(fc, FullyConnected)
    if req.family is Family.ORIGINAL_RESNET:
        assert fc.in_dim == channels
    else:
        assert fc.in_dim == 2 * channels * freq
    walked = count_flops(spec, TensorShape(1, req.input_freq_bins, time))
    assert walked.params_by_layer == count_params(spec).params_by_layer
