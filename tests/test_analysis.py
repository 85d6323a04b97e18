import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import conv_out_size_direct
from stride_lab.analysis import (
    AnalysisError,
    ShapeUnderflowError,
    compare,
    conv_out_size,
    count_flops,
    count_params,
    trace,
)
from stride_lab.builder import build, make_request
from stride_lab.layers import (
    Add,
    BatchNorm2d,
    Conv2d,
    FullyConnected,
    GlobalAvgPool,
    LayerEntry,
    Res2NetConv,
    Role,
    ShortcutKind,
    SqueezeExcite,
    TemporalStatsPool,
    TensorShape,
)
from stride_lab.strides import StridePair, final_factors, resolve_name

INPUT_2S = TensorShape(1, 80, 200)
INPUT_3S = TensorShape(1, 80, 300)

# Exact parameter counts, derived by hand from the layer accounting rules
# (conv k*k*in*out/groups, batch norm 2/channel, fully connected in*out+out,
# projection shortcuts only on channel change).
EXACT_PARAMS = {
    ("modified_resnet", 34, "MOD"): 6_634_336,
    ("gemini_resnet", 34, "T14c"): 5_978_976,
    ("original_resnet", 34, "ORI"): 21_409_728,
    ("original_resnet", 18, "ORI"): 11_301_568,
    ("modified_resnet", 18, "MOD"): 4_105_440,
    ("gemini_resnet", 18, "T14c"): 3_450_080,
    ("modified_resnet", 50, "MOD"): 11_131_360,
    ("gemini_resnet", 50, "T14c"): 8_509_920,
    ("modified_resnet", 101, "MOD"): 15_892_448,
    ("gemini_resnet", 101, "T14c"): 13_271_008,
    ("df_resnet", 182, "MOD"): 9_842_464,
    ("df_resnet", 183, "T14c"): 9_196_384,
    ("df_resnet", 59, "MOD"): 4_693_920,
    ("df_resnet", 60, "T14c"): 4_047_840,
    ("sd_resnet", 38, "MOD"): 7_374_752,
    ("sd_resnet", 38, "T14c"): 6_719_392,
}

# Reference complexity figures in millions of parameters.
REFERENCE_PARAMS_M = {
    ("modified_resnet", 34, "MOD"): 6.63,
    ("gemini_resnet", 34, "T14c"): 5.98,
    ("original_resnet", 34, "ORI"): 21.41,
    ("modified_resnet", 18, "MOD"): 4.11,
    ("gemini_resnet", 18, "T14c"): 3.45,
    ("modified_resnet", 50, "MOD"): 11.13,
    ("gemini_resnet", 50, "T14c"): 8.51,
    ("modified_resnet", 101, "MOD"): 15.89,
    ("gemini_resnet", 101, "T14c"): 13.27,
    ("df_resnet", 182, "MOD"): 9.84,
    ("df_resnet", 183, "T14c"): 9.20,
}

# Reference FLOPs in giga-MACs at (2s, 3s) = (200, 300) frames x 80 bins.
REFERENCE_FLOPS_G = {
    ("modified_resnet", 34, "MOD"): (4.63, 6.88),
    ("gemini_resnet", 34, "T14c"): (4.41, 6.59),
    ("modified_resnet", 34, "T14"): (6.68, 9.99),
    ("modified_resnet", 34, "T23"): (8.27, 12.37),
    ("modified_resnet", 34, "T14b"): (4.97, 7.43),
    ("modified_resnet", 34, "T14d"): (4.18, 6.25),
    ("modified_resnet", 34, "T23b"): (5.45, 8.13),
    ("modified_resnet", 34, "T23c"): (4.99, 7.45),
    ("modified_resnet", 34, "T23d"): (4.43, 6.61),
    ("modified_resnet", 34, "T05"): (4.49, 6.72),
    ("modified_resnet", 34, "F50"): (4.44, 6.43),
    ("modified_resnet", 34, "T13"): (13.33, 19.95),
    ("original_resnet", 34, "ORI"): (1.25, 1.82),
    ("df_resnet", 182, "MOD"): (8.64, 12.87),
    ("df_resnet", 183, "T14c"): (8.25, 12.34),
}


def build_case(family, depth, path):
    return build(make_request(family, depth, path=path))


class TestConvOutSize:
    def test_stride_two_halves_80(self):
        assert conv_out_size(80, 3, 1, 1, 2) == 40

    def test_stride_one_preserves_80(self):
        assert conv_out_size(80, 3, 1, 1, 1) == 80

    def test_large_kernel_stem(self):
        assert conv_out_size(300, 7, 3, 1, 2) == 150

    @given(
        r=st.integers(1, 400),
        k=st.integers(1, 7),
        p=st.integers(0, 3),
        d=st.integers(1, 2),
        s=st.integers(1, 3),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_position_walk(self, r, k, p, d, s):
        span = d * (k - 1) + 1
        if r + 2 * p < span:
            return
        assert conv_out_size(r, k, p, d, s) == conv_out_size_direct(r, k, p, d, s)


def trace_convs(spec, *convs, freq, time):
    """``trace`` of ``spec``'s fields with bare stem convs for entries."""
    body = dataclasses.replace(spec, entries=tuple(LayerEntry(c, stage=1) for c in convs))
    return trace(body, TensorShape(1, freq, time))


class TestPropagateShape:
    def test_conv_sets_channels_and_downsamples(self, mod34):
        layer = Conv2d("c", 1, 64, (3, 3), stride=StridePair(2, 2), padding=(1, 1))
        (record,) = trace_convs(mod34, layer, freq=80, time=300)
        assert (record.in_shape, record.out_shape) == ((1, 80, 300), (64, 40, 150))

    def test_underflow_raises(self, mod34):
        layer = Conv2d("c", 1, 1, (3, 3), padding=(0, 0))
        with pytest.raises(ShapeUnderflowError) as err:
            trace_convs(mod34, layer, freq=2, time=10)
        assert err.value.dimension == "freq"

    def test_channel_mismatch_raises(self, mod34):
        layer = Conv2d("c", 16, 16, (3, 3), padding=(1, 1))
        with pytest.raises(AnalysisError, match="expects 16 channels, got 1"):
            trace_convs(mod34, layer, freq=10, time=10)

    def test_trace_takes_the_input_form_of_count_flops(self, mod34):
        shape = TensorShape(2, 80, 200)
        with pytest.raises(AnalysisError) as want:
            count_flops(mod34, shape)
        with pytest.raises(AnalysisError) as got:
            trace(mod34, shape)
        assert str(got.value) == str(want.value) == "backbones take single-channel spectrogram input"
        assert trace(mod34, INPUT_2S)[-1].out_shape == (mod34.embedding_dim,)

    def test_composition_equals_flat_propagation(self, mod34):
        rng = np.random.default_rng(3)
        for _ in range(40):
            c1 = Conv2d("a", 1, 8, (3, 3), stride=StridePair(int(rng.integers(1, 3)), 1),
                        padding=(1, 1))
            c2 = Conv2d("b", 8, 16, (3, 3), stride=StridePair(1, int(rng.integers(1, 3))),
                        padding=(1, 1))
            f, t = int(rng.integers(8, 64)), int(rng.integers(8, 64))
            first, second = trace_convs(mod34, c1, c2, freq=f, time=t)
            for layer in (c1, c2):
                f = conv_out_size(f, 3, 1, 1, layer.stride.freq)
                t = conv_out_size(t, 3, 1, 1, layer.stride.time)
            assert first.out_shape == second.in_shape
            assert second.out_shape == (16, f, t)


#: The stem of the walks below: a (1, 10, 10) map becomes (8, 10, 10).
_STEM = LayerEntry(Conv2d("c", 1, 8, (3, 3), padding=(1, 1)), stage=1)


def _block(*layers, stride=StridePair(1, 1), shortcut=ShortcutKind.IDENTITY, shortcut_layers=()):
    """One stage-2 block of ``layers``, then ``shortcut_layers`` on its
    shortcut and its add."""
    entries = [LayerEntry(layer, stage=2, block=1) for layer in layers]
    entries += [LayerEntry(layer, stage=2, block=1, role=Role.SHORTCUT) for layer in shortcut_layers]
    return entries + [LayerEntry(Add("b.add", shortcut, stride=stride), stage=2, block=1)]


def _head(*layers):
    return [LayerEntry(layer, stage=0) for layer in layers]


class TestWalkRefusals:
    """Each refusal of the walk's shape and head rules, with its exact text,
    on a spec whose entries chain wrongly after ``_STEM``."""

    @staticmethod
    def refusal(spec, entries):
        body = dataclasses.replace(spec, entries=(_STEM, *entries))
        with pytest.raises(AnalysisError) as err:
            trace(body, TensorShape(1, 10, 10))
        return str(err.value)

    def test_batch_norm_of_other_channels(self, mod34):
        assert self.refusal(mod34, [LayerEntry(BatchNorm2d("bn", 9), stage=1)]) == (
            "bn: normalizes 9 channels, got 8")

    @pytest.mark.parametrize("layer", [SqueezeExcite("x", 16, 4), Res2NetConv("x", 16, 4)])
    def test_se_or_res2net_of_other_channels(self, mod34, layer):
        assert self.refusal(mod34, [LayerEntry(layer, stage=1)]) == "x: channel mismatch with 8"

    def test_layer_with_no_shape_rule(self, mod34):
        # A pooling layer has a head rule but no shape rule, so it cannot
        # sit on a block's shortcut.
        entries = _block(Conv2d("b.conv", 8, 8, (1, 1)), shortcut_layers=[GlobalAvgPool("b.pool")])
        assert self.refusal(mod34, entries) == "b.pool: no shape rule for GlobalAvgPool"

    def test_stats_pool_of_a_flat_vector(self, mod34):
        entries = _head(TemporalStatsPool("p1"), TemporalStatsPool("p2"))
        assert self.refusal(mod34, entries) == "p2: pooling needs a 4D feature map"

    def test_average_pool_of_a_flat_vector(self, mod34):
        entries = _head(GlobalAvgPool("p1"), GlobalAvgPool("p2"))
        assert self.refusal(mod34, entries) == "p2: pooling needs a 4D feature map"

    def test_fully_connected_on_a_map(self, mod34):
        entries = _head(FullyConnected("fc", 8, 4))
        assert self.refusal(mod34, entries) == "fc: fully connected layer needs a flat input"

    def test_block_after_the_head(self, mod34):
        entries = _head(GlobalAvgPool("p"), FullyConnected("fc", 8, 4))
        entries += _block(Conv2d("b.conv", 8, 8, (1, 1)))
        assert self.refusal(mod34, entries) == "residual block after the head"

    def test_branch_and_shortcut_that_do_not_meet(self, mod34):
        # The branch halves both axes; an identity shortcut keeps them.
        entries = _block(Conv2d("b.conv", 8, 8, (1, 1), stride=StridePair(2, 2)))
        assert self.refusal(mod34, entries) == (
            "b.add: branch shape (8, 5, 5) != shortcut shape (8, 10, 10)")

    def test_map_layer_after_the_head(self, mod34):
        entries = _head(GlobalAvgPool("p"), BatchNorm2d("bn", 8))
        assert self.refusal(mod34, entries) == "bn: feature map already flattened"


class TestCountParams:
    @pytest.mark.parametrize("case", sorted(EXACT_PARAMS))
    def test_exact_integers(self, case):
        report = count_params(build_case(*case))
        assert report.params_total == EXACT_PARAMS[case]

    @pytest.mark.parametrize("case", sorted(REFERENCE_PARAMS_M))
    def test_within_one_percent_of_reference(self, case):
        report = count_params(build_case(*case))
        reference = REFERENCE_PARAMS_M[case]
        assert abs(report.params_millions - reference) <= 0.01 * reference

    def test_totals_equal_per_layer_sum(self, mod34):
        report = count_params(mod34)
        assert report.params_total == sum(v for _, v in report.params_by_layer)

    def test_params_independent_of_time_frames(self, mod34):
        a = count_flops(mod34, INPUT_2S)
        b = count_flops(mod34, INPUT_3S)
        assert a.params_total == b.params_total

    def test_conv_bias_is_refused(self):
        # The message leaves the name to the caller: the spec loader
        # prefixes "layer 'stem.conv': ", so the name appears once.
        with pytest.raises(ValueError, match="^conv bias is not supported") as info:
            Conv2d("stem.conv", 1, 8, (3, 3), bias=True)
        assert "stem.conv" not in str(info.value)

    def test_se_adds_exact_delta(self):
        base = count_params(build_case("modified_resnet", 34, "MOD")).params_total
        se = count_params(build(make_request("modified_resnet", 34, se_reduction=4))).params_total
        assert se - base == 159_544
        assert round(se / 1e6, 2) == 6.79


class TestCountFlops:
    @pytest.mark.parametrize("case", sorted(REFERENCE_FLOPS_G))
    def test_within_five_percent_of_reference(self, case):
        spec = build_case(*case)
        ref_2s, ref_3s = REFERENCE_FLOPS_G[case]
        got_2s = count_flops(spec, INPUT_2S).flops_giga
        got_3s = count_flops(spec, INPUT_3S).flops_giga
        assert abs(got_2s - ref_2s) <= 0.05 * ref_2s, f"{case} 2s: {got_2s:.3f} vs {ref_2s}"
        assert abs(got_3s - ref_3s) <= 0.05 * ref_3s, f"{case} 3s: {got_3s:.3f} vs {ref_3s}"

    def test_single_pointwise_conv_is_one_mac(self, mod34):
        body = dataclasses.replace(mod34, entries=(LayerEntry(Conv2d("c", 1, 1, (1, 1)), stage=1),))
        assert count_flops(body, TensorShape(1, 1, 1)).flops_by_layer == (("c", 1),)

    def test_three_seconds_costs_more_but_below_ratio(self):
        # The duration-independent head keeps the ratio at or below the
        # frame ratio 1.5; ceil effects in the floor-division shape
        # arithmetic can push individual stages up to 1% past it.
        for name in ["MOD", "T14c", "T14", "F50", "T05"]:
            spec = build(make_request("modified_resnet", 34, path=name)
                         if name != "T14c" else make_request("gemini_resnet", 34, path=name))
            low = count_flops(spec, INPUT_2S).flops_total
            high = count_flops(spec, INPUT_3S).flops_total
            assert high >= low
            assert high / low <= 1.5 * 1.01

    def test_final_time_downsampling_tracks_alpha(self):
        for name in ["MOD", "T14", "T14c", "T23", "F50", "T05", "ORI"]:
            family = "original_resnet" if name == "ORI" else "modified_resnet"
            spec = build(make_request(family, 34, path=name))
            alpha, _ = final_factors(spec.path)
            pool = next(r for r in trace(spec, TensorShape(1, 80, 320)) if len(r.out_shape) == 1)
            t_out = pool.in_shape[2]
            assert abs(320 / t_out - alpha) <= 1

    def test_flops_totals_equal_per_layer_sum(self, gemini34):
        report = count_flops(gemini34, INPUT_3S)
        assert report.flops_total == sum(v for _, v in report.flops_by_layer)


class TestCompare:
    def test_principal_config_vs_baseline(self, mod34, gemini34):
        delta = compare(count_flops(mod34, INPUT_3S), count_flops(gemini34, INPUT_3S))
        assert delta.params_pct == pytest.approx(-9.8, abs=0.5)
        assert delta.flops_pct == pytest.approx(-4.2, abs=0.5)

    @pytest.mark.parametrize(
        "depth,expected", [(18, -16.1), (50, -23.5), (101, -16.5)]
    )
    def test_param_reduction_across_depths(self, depth, expected):
        base = count_params(build_case("modified_resnet", depth, "MOD"))
        gem = count_params(build_case("gemini_resnet", depth, "T14c"))
        assert compare(base, gem).params_pct == pytest.approx(expected, abs=0.5)

    def test_self_comparison_is_zero(self, mod34):
        report = count_flops(mod34, INPUT_2S)
        delta = compare(report, report)
        assert delta.params_pct == 0.0
        assert delta.flops_pct == 0.0

    def test_mismatched_durations_rejected(self, mod34):
        with pytest.raises(AnalysisError):
            compare(count_flops(mod34, INPUT_2S), count_flops(mod34, INPUT_3S))
