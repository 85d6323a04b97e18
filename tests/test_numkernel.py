import dataclasses
import re
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (
    PRESETS,
    loop_conv2d,
    loop_conv2d_backward,
    loop_maxpool2d,
    loop_res2net,
    loop_squeeze_excite,
    preset_requests,
    two_pass_stats_pool,
    whole_map_depthwise,
)
from stride_lab import numkernel, verification
from stride_lab.analysis import conv_out_size, count_flops, trace
from stride_lab.builder import BuildError, build, make_request
from stride_lab.layers import (
    Activation,
    Add,
    BatchNorm2d,
    Conv2d,
    FullyConnected,
    LayerEntry,
    MaxPool2d,
    Res2NetConv,
    ShortcutKind,
    SqueezeExcite,
    TensorShape,
)
from stride_lab.numkernel import (
    KernelError,
    OpCounter,
    conv2d_backward,
    conv2d_forward,
    fully_connected_forward,
    gradcheck_conv,
    init_weights,
    maxpool2d_forward,
    res2net_forward,
    run_model,
    squeeze_excite_forward,
    stats_pooling_forward,
)
from stride_lab.strides import StridePair
from stride_lab.verification import catalog_spec, gradcheck_suite, verify_spec_numeric


def small_spec():
    return build(make_request("modified_resnet", 18, path="MOD", base_channels=4,
                              embedding_dim=16, input_freq_bins=16))


def zero_weights(spec):
    """All-zero weights (fully connected biases included), keyed as
    ``init_weights`` keys them."""
    return dict(numkernel._layer_params(spec, lambda *shape: np.zeros(shape)))


def traced_peak(fn, *args, **kwargs):
    """(result, tracemalloc peak bytes) of one call."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


@st.composite
def conv_cases(draw):
    """A conv layer, an input down to padded size == kernel span, weights."""
    split = draw(st.sampled_from(["dense", "grouped", "depthwise"]))
    if split == "dense":
        groups, cg, og = 1, draw(st.integers(1, 3)), draw(st.integers(1, 4))
    elif split == "grouped":
        groups, cg, og = draw(st.integers(2, 3)), draw(st.integers(1, 2)), draw(st.integers(1, 2))
    else:
        groups, cg, og = draw(st.integers(1, 4)), 1, 1
    kernel = draw(st.sampled_from([(1, 1), (3, 3), (7, 7), (3, 1)]))
    stride = draw(st.sampled_from([(1, 1), (2, 1), (1, 2), (2, 2)]))
    padding = tuple(draw(st.integers(0, k // 2)) for k in kernel)
    dilation = tuple(draw(st.integers(1, 2)) for _ in kernel)
    spans = [d * (k - 1) + 1 for k, d in zip(kernel, dilation)]
    spatial = tuple(span - 2 * p + draw(st.integers(0, 5)) for span, p in zip(spans, padding))
    batch = draw(st.integers(1, 3))
    layer = Conv2d(
        "c", groups * cg, groups * og, kernel,
        stride=StridePair(stride[1], stride[0]),
        padding=padding, dilation=dilation, groups=groups,
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(size=(batch, groups * cg, *spatial))
    w = rng.normal(size=(groups * og, cg, *kernel))
    return layer, x, w


@st.composite
def pool_cases(draw):
    """A max pool layer and an input at least one window wide; each
    window holds at least one element of the map."""
    kernel = tuple(draw(st.integers(1, 3)) for _ in range(2))
    stride = draw(st.sampled_from([(1, 1), (2, 1), (1, 2), (2, 2)]))
    padding = tuple(draw(st.integers(0, k // 2)) for k in kernel)
    spatial = tuple(k - 2 * p + draw(st.integers(0, 6)) for k, p in zip(kernel, padding))
    layer = MaxPool2d("pool", kernel, StridePair(stride[1], stride[0]), padding)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(size=(draw(st.integers(1, 2)), draw(st.integers(1, 3)), *spatial))
    return layer, x


class TestConvForward:
    def test_zero_kernel_gives_zero_output(self):
        layer = Conv2d("c", 1, 1, (3, 3), padding=(1, 1))
        x = np.random.default_rng(0).normal(size=(1, 1, 5, 5))
        out = conv2d_forward(x, layer, np.zeros((1, 1, 3, 3)))
        assert out.shape == (1, 1, 5, 5)
        assert np.all(out == 0.0)

    def test_identity_kernel_preserves_input(self):
        layer = Conv2d("c", 1, 1, (3, 3), padding=(1, 1))
        w = np.zeros((1, 1, 3, 3))
        w[0, 0, 1, 1] = 1.0
        x = np.random.default_rng(1).normal(size=(2, 1, 6, 7))
        out = conv2d_forward(x, layer, w)
        np.testing.assert_allclose(out, x, atol=0)

    @pytest.mark.parametrize(
        "cin,cout,groups,kernel,stride,padding,dilation,batch,spatial",
        [
            (4, 8, 1, (3, 3), (1, 1), (1, 1), (1, 1), 2, (8, 10)),
            (4, 8, 1, (3, 3), (2, 1), (1, 1), (1, 1), 2, (8, 10)),
            (4, 8, 1, (3, 3), (1, 2), (1, 1), (1, 1), 2, (8, 10)),
            (6, 6, 6, (3, 3), (2, 2), (1, 1), (1, 1), 2, (8, 10)),   # depthwise
            (6, 9, 3, (3, 3), (1, 1), (1, 1), (1, 1), 2, (8, 10)),   # grouped
            (4, 8, 1, (1, 1), (2, 2), (0, 0), (1, 1), 2, (8, 10)),   # pointwise strided
            (3, 5, 1, (3, 3), (1, 1), (2, 2), (2, 2), 2, (8, 10)),   # dilated
            (1, 1, 1, (7, 7), (2, 2), (3, 3), (1, 1), 2, (8, 10)),   # stem-like
            (2, 4, 1, (3, 1), (1, 1), (1, 0), (1, 1), 2, (8, 10)),   # asymmetric kernel
            (6, 6, 6, (3, 3), (2, 1), (2, 1), (2, 1), 2, (8, 10)),   # depthwise dilated
            # 10 output rows of 8000 columns, 1.15 MB each: the 4 MiB column
            # budget takes them in blocks of 3, 3, 3 and 1.
            (2, 1, 1, (3, 3), (2, 1), (1, 1), (2, 1), 1, (21, 8000)),
            (4, 8, 1, (1, 1), (1, 1), (0, 0), (1, 1), 1, (8, 10)),   # pointwise, input is the operand
            (4, 8, 1, (1, 1), (2, 2), (1, 0), (1, 1), 2, (9, 11)),   # pointwise strided, padded
            (4, 6, 2, (1, 1), (2, 1), (0, 0), (1, 1), 2, (8, 10)),   # pointwise grouped
        ],
    )
    def test_matches_loop_oracle(
        self, cin, cout, groups, kernel, stride, padding, dilation, batch, spatial
    ):
        rng = np.random.default_rng(42)
        layer = Conv2d(
            "c", cin, cout, kernel,
            stride=StridePair(stride[1], stride[0]),
            padding=padding, dilation=dilation, groups=groups,
        )
        x = rng.normal(size=(batch, cin, *spatial))
        w = rng.normal(size=(cout, cin // groups, *kernel))
        got = conv2d_forward(x, layer, w)
        want = loop_conv2d(
            x, w,
            stride=(layer.stride.freq, layer.stride.time),
            padding=padding, dilation=dilation, groups=groups,
        )
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, atol=1e-12)

    @given(case=conv_cases())
    @settings(max_examples=80, deadline=None)
    def test_matches_loop_oracle_on_drawn_layers(self, case):
        layer, x, w = case
        counter = OpCounter()
        got = conv2d_forward(x, layer, w, counter)
        want = loop_conv2d(
            x, w,
            stride=(layer.stride.freq, layer.stride.time),
            padding=layer.padding, dilation=layer.dilation, groups=layer.groups,
        )
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, atol=1e-12)
        assert counter.multiplies == got.size * w[0].size

    @given(case=conv_cases())
    @settings(max_examples=40, deadline=None)
    def test_one_row_blocks_match_loop_oracle_on_drawn_layers(self, case):
        # Zero budgets fill and multiply one output row, and pad one
        # depthwise channel, at a time.
        layer, x, w = case
        with mock.patch.object(numkernel, "COLUMN_BUDGET", 0), \
                mock.patch.object(numkernel, "DEPTHWISE_BUDGET", 0):
            got = conv2d_forward(x, layer, w)
        want = loop_conv2d(
            x, w,
            stride=(layer.stride.freq, layer.stride.time),
            padding=layer.padding, dilation=layer.dilation, groups=layer.groups,
        )
        np.testing.assert_allclose(got, want, atol=1e-12)

    @given(case=conv_cases(), one_row=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_float32_matches_loop_oracle_on_drawn_layers(self, case, one_row):
        # Float64 weights are cast to the input's float32 once; the output
        # stays float32 and within single-precision rounding of the oracle.
        layer, x, w = case
        budget = 0 if one_row else numkernel.COLUMN_BUDGET
        with mock.patch.object(numkernel, "COLUMN_BUDGET", budget), \
                mock.patch.object(numkernel, "DEPTHWISE_BUDGET", budget):
            got = conv2d_forward(x.astype(np.float32), layer, w)
        want = loop_conv2d(
            x.astype(np.float32).astype(np.float64), w.astype(np.float32).astype(np.float64),
            stride=(layer.stride.freq, layer.stride.time),
            padding=layer.padding, dilation=layer.dilation, groups=layer.groups,
        )
        assert got.dtype == np.float32
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-5 * max(1.0, np.abs(want).max()))

    @pytest.mark.parametrize("groups", [1, 64])
    def test_float32_scratch_fits_the_same_byte_budgets(self, groups):
        # Budgets are bytes, so a float32 conv takes twice the rows or
        # channels per block and holds at most as much scratch as float64.
        layer = Conv2d("c", 64, 64, (3, 3), padding=(1, 1), groups=groups)
        rng = np.random.default_rng(8)
        x = rng.normal(size=(1, 64, 40, 150)).astype(np.float32)
        w = rng.normal(size=(64, 64 // groups, 3, 3))
        out, peak = traced_peak(conv2d_forward, x, layer, w)
        assert out.dtype == np.float32
        scratch = numkernel.COLUMN_BUDGET if groups == 1 else 2 * numkernel.DEPTHWISE_BUDGET
        assert peak < out.nbytes + x.nbytes + w.nbytes + scratch

    def test_dense_column_buffer_is_bounded(self):
        # Padded input, column buffer and output; the whole (288, 80*300)
        # column buffer alone would be 55 MB, 4.5x input plus output.
        layer = Conv2d("c", 32, 32, (3, 3), padding=(1, 1))
        rng = np.random.default_rng(8)
        x = rng.normal(size=(1, 32, 80, 300))
        w = rng.normal(size=(32, 32, 3, 3))
        out, peak = traced_peak(conv2d_forward, x, layer, w)
        assert out.shape == (1, 32, 80, 300)
        assert peak < 2 * (x.nbytes + out.nbytes)

    def test_depthwise_builds_no_column_buffer(self):
        # The output plus one channel block of padded input and of tap
        # products, each at most DEPTHWISE_BUDGET bytes; a padded copy of
        # the whole map alone would be 1.06x the output, a (C, 9, F*T)
        # column buffer 9x.
        layer = Conv2d("dw", 64, 64, (3, 3), padding=(1, 1), groups=64)
        rng = np.random.default_rng(8)
        x = rng.normal(size=(1, 64, 40, 150))
        w = rng.normal(size=(64, 1, 3, 3))
        out, peak = traced_peak(conv2d_forward, x, layer, w)
        assert out.shape == (1, 64, 40, 150)
        assert peak < out.nbytes + 3 * numkernel.DEPTHWISE_BUDGET
        assert peak < 1.3 * out.nbytes

    @pytest.mark.parametrize("budget", [0, 40_000, numkernel.DEPTHWISE_BUDGET])
    @pytest.mark.parametrize(
        "batch,channels,spatial,stride,padding,dilation",
        [
            (1, 7, (40, 61), (1, 1), (1, 1), (1, 1)),
            (2, 5, (17, 23), (2, 1), (1, 1), (1, 1)),
            (1, 6, (12, 19), (2, 2), (2, 1), (2, 1)),
            (3, 4, (9, 11), (1, 2), (0, 0), (1, 1)),
        ],
    )
    def test_depthwise_blocks_equal_whole_map_pass_bit_for_bit(
        self, budget, batch, channels, spatial, stride, padding, dilation
    ):
        layer = Conv2d("dw", channels, channels, (3, 3), stride=StridePair(stride[1], stride[0]),
                       padding=padding, dilation=dilation, groups=channels)
        rng = np.random.default_rng(12)
        x = rng.normal(size=(batch, channels, *spatial))
        w = rng.normal(size=(channels, 1, 3, 3))
        with mock.patch.object(numkernel, "DEPTHWISE_BUDGET", budget):
            got = conv2d_forward(x, layer, w)
        assert np.array_equal(got, whole_map_depthwise(x, w, stride, padding, dilation))

    def test_input_smaller_than_kernel_span_raises(self):
        layer = Conv2d("c", 2, 2, (3, 3), padding=(0, 1), dilation=(2, 1))
        with pytest.raises(KernelError, match=r"spatial input 4x6 too small for kernel span 5x3"):
            conv2d_forward(np.zeros((1, 2, 4, 6)), layer, np.zeros((2, 2, 3, 3)))

    def test_counter_matches_analytic_layer_flops(self):
        rng = np.random.default_rng(5)
        layer = Conv2d("c", 4, 8, (3, 3), stride=StridePair(2, 1), padding=(1, 1))
        x = rng.normal(size=(1, 4, 9, 11))
        counter = OpCounter()
        out = conv2d_forward(x, layer, rng.normal(size=(8, 4, 3, 3)), counter)
        f_out = conv_out_size(9, 3, 1, 1, layer.stride.freq)
        t_out = conv_out_size(11, 3, 1, 1, layer.stride.time)
        assert out.shape == (1, 8, f_out, t_out)
        # k_f * k_t * (in_channels / groups) * out_channels * F_out * T_out
        assert counter.multiplies == 3 * 3 * 4 * 8 * f_out * t_out

    def test_rejects_wrong_weight_shape(self):
        layer = Conv2d("c", 4, 8, (3, 3), padding=(1, 1))
        with pytest.raises(KernelError):
            conv2d_forward(np.zeros((1, 4, 5, 5)), layer, np.zeros((8, 4, 5, 5)))

    def test_rejects_channel_mismatch(self):
        layer = Conv2d("c", 4, 8, (3, 3), padding=(1, 1))
        with pytest.raises(KernelError):
            conv2d_forward(np.zeros((1, 3, 5, 5)), layer, np.zeros((8, 4, 3, 3)))

    def test_output_shape_matches_symbolic(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            cin = int(rng.integers(1, 5))
            cout = int(rng.integers(1, 5))
            k = int(rng.choice([1, 3, 5]))
            layer = Conv2d(
                "c", cin, cout, (k, k),
                stride=StridePair(int(rng.integers(1, 3)), int(rng.integers(1, 3))),
                padding=(k // 2, k // 2),
            )
            f, t = int(rng.integers(4, 20)), int(rng.integers(4, 20))
            out = conv2d_forward(
                rng.normal(size=(1, cin, f, t)), layer, rng.normal(size=(cout, cin, k, k))
            )
            sym = tuple(conv_out_size(n, k, k // 2, 1, s)
                        for n, s in ((f, layer.stride.freq), (t, layer.stride.time)))
            assert out.shape[1:] == (cout, *sym)


class TestMaxPool:
    @given(case=pool_cases(), dtype=st.sampled_from([np.float32, np.float64]))
    @settings(max_examples=60, deadline=None)
    def test_matches_loop_oracle_exactly(self, case, dtype):
        layer, x = case
        x = x.astype(dtype)
        got = maxpool2d_forward(x, layer)
        want = loop_maxpool2d(x, layer.kernel, (layer.stride.freq, layer.stride.time), layer.padding)
        assert got.dtype == dtype
        assert got.shape == want.shape
        assert np.array_equal(got, want)


class TestFullyConnected:
    @pytest.mark.parametrize("budget", [0, 8 * 7 * 5, numkernel.COLUMN_BUDGET])
    def test_row_blocks_match_one_product(self, budget):
        layer = FullyConnected("fc", 7, 23)
        rng = np.random.default_rng(6)
        x, w, b = rng.normal(size=(3, 7)), rng.normal(size=(23, 7)), rng.normal(size=23)
        with mock.patch.object(numkernel, "COLUMN_BUDGET", budget):
            got = fully_connected_forward(x, layer, w, b)
        np.testing.assert_allclose(got, x @ w.T + b, rtol=1e-12)

    def test_drawn_rows_must_be_read_in_order(self):
        rows = numkernel._Deferred(lambda *shape: np.zeros(shape), (6, 4))
        assert rows[0:2].shape == (2, 4)
        with pytest.raises(KernelError, match="drawn rows read out of order: 4 after 2"):
            rows[4:6]


def hand_block(branch):
    """A hand-built block's entries: the given branch layers, the add, a ReLU."""
    entries = [LayerEntry(layer, stage=2, block=1) for layer in branch]
    entries.append(LayerEntry(Add("b.add", ShortcutKind.IDENTITY), stage=2, block=1))
    entries.append(LayerEntry(Activation("b.act_out"), stage=2, block=1))
    return tuple(entries)


def first_block(spec, shortcut=ShortcutKind.IDENTITY):
    """The entries of the first residual block whose add has that shortcut."""
    adds = [e for e in spec.entries if isinstance(e.layer, Add) and e.layer.shortcut is shortcut]
    key = (adds[0].stage, adds[0].block)
    return tuple(e for e in spec.entries if (e.stage, e.block) == key)


def run_block(entries, x, weights, records=None):
    """The kernel's private walk over one block's entries."""
    return numkernel._run(entries, x, weights, OpCounter(), [] if records is None else records)


#: Literal per-layer (name, out shape) records at 16 bins x 21 frames, one
#: run of layers per case: case -> (request, records). Worked by hand from
#: out = (in + 2p - k) // s + 1, ceil(in / s) for a subsample shortcut.
ROUTING_TABLE = {
    "basic-identity": (("modified_resnet", 18, "MOD", 4, {}), [
        ("stage2.block1.conv1", (4, 16, 21)), ("stage2.block1.bn1", (4, 16, 21)),
        ("stage2.block1.act1", (4, 16, 21)), ("stage2.block1.conv2", (4, 16, 21)),
        ("stage2.block1.bn2", (4, 16, 21)), ("stage2.block1.add", (4, 16, 21)),
        ("stage2.block1.act_out", (4, 16, 21)),
    ]),
    "basic-subsample": (("modified_resnet", 18, "T14d", 4, {}), [
        ("stage2.block1.conv1", (4, 8, 11)), ("stage2.block1.bn1", (4, 8, 11)),
        ("stage2.block1.act1", (4, 8, 11)), ("stage2.block1.conv2", (4, 8, 11)),
        ("stage2.block1.bn2", (4, 8, 11)), ("stage2.block1.add", (4, 8, 11)),
        ("stage2.block1.act_out", (4, 8, 11)), ("stage2.block2.conv1", (4, 8, 11)),
    ]),
    "basic-projection": (("modified_resnet", 18, "MOD", 4, {}), [
        ("stage3.block1.conv1", (8, 8, 11)), ("stage3.block1.bn1", (8, 8, 11)),
        ("stage3.block1.act1", (8, 8, 11)), ("stage3.block1.conv2", (8, 8, 11)),
        ("stage3.block1.bn2", (8, 8, 11)), ("stage3.block1.shortcut.conv", (8, 8, 11)),
        ("stage3.block1.shortcut.bn", (8, 8, 11)), ("stage3.block1.add", (8, 8, 11)),
        ("stage3.block1.act_out", (8, 8, 11)),
    ]),
    "bottleneck": (("modified_resnet", 50, "MOD", 4, {}), [
        ("stage3.block1.conv1", (8, 16, 21)), ("stage3.block1.bn1", (8, 16, 21)),
        ("stage3.block1.act1", (8, 16, 21)), ("stage3.block1.conv2", (8, 8, 11)),
        ("stage3.block1.bn2", (8, 8, 11)), ("stage3.block1.act2", (8, 8, 11)),
        ("stage3.block1.conv3", (32, 8, 11)), ("stage3.block1.bn3", (32, 8, 11)),
        ("stage3.block1.shortcut.conv", (32, 8, 11)), ("stage3.block1.shortcut.bn", (32, 8, 11)),
        ("stage3.block1.add", (32, 8, 11)), ("stage3.block1.act_out", (32, 8, 11)),
    ]),
    "df": (("df_resnet", 59, "MOD", 4, {}), [
        ("stage3.downsample.conv", (8, 8, 11)), ("stage3.downsample.bn", (8, 8, 11)),
        ("stage3.downsample.act", (8, 8, 11)), ("stage3.block1.conv1", (32, 8, 11)),
        ("stage3.block1.bn1", (32, 8, 11)), ("stage3.block1.act1", (32, 8, 11)),
        ("stage3.block1.conv2", (32, 8, 11)), ("stage3.block1.bn2", (32, 8, 11)),
        ("stage3.block1.act2", (32, 8, 11)), ("stage3.block1.conv3", (8, 8, 11)),
        ("stage3.block1.bn3", (8, 8, 11)), ("stage3.block1.add", (8, 8, 11)),
        ("stage3.block1.act_out", (8, 8, 11)),
    ]),
    "se": (("modified_resnet", 18, "MOD", 4, {"se_reduction": 2}), [
        ("stage3.block1.conv1", (8, 8, 11)), ("stage3.block1.bn1", (8, 8, 11)),
        ("stage3.block1.act1", (8, 8, 11)), ("stage3.block1.conv2", (8, 8, 11)),
        ("stage3.block1.bn2", (8, 8, 11)), ("stage3.block1.se", (8, 8, 11)),
        ("stage3.block1.shortcut.conv", (8, 8, 11)), ("stage3.block1.shortcut.bn", (8, 8, 11)),
        ("stage3.block1.add", (8, 8, 11)), ("stage3.block1.act_out", (8, 8, 11)),
    ]),
    "res2net": (("modified_resnet", 18, "MOD", 8, {"res2net_scale": 4}), [
        ("stage3.block1.conv1", (16, 8, 11)), ("stage3.block1.bn1", (16, 8, 11)),
        ("stage3.block1.act1", (16, 8, 11)), ("stage3.block1.conv2", (16, 8, 11)),
        ("stage3.block1.shortcut.conv", (16, 8, 11)), ("stage3.block1.shortcut.bn", (16, 8, 11)),
        ("stage3.block1.add", (16, 8, 11)), ("stage3.block1.act_out", (16, 8, 11)),
    ]),
    "ori-maxpool-stem": (("original_resnet", 18, "ORI", 4, {}), [
        ("stem.conv", (4, 8, 11)), ("stem.bn", (4, 8, 11)), ("stem.act", (4, 8, 11)),
        ("stage2.maxpool", (4, 4, 6)), ("stage2.block1.conv1", (4, 4, 6)),
    ]),
}


@pytest.mark.parametrize("case", sorted(ROUTING_TABLE))
def test_routing_table_matches_trace_and_kernel(case):
    (family, depth, path, channels, options), expected = ROUTING_TABLE[case]
    spec = build(make_request(family, depth, path=path, base_channels=channels,
                              embedding_dim=8, input_freq_bins=16, **options))
    x = np.random.default_rng(1).uniform(-1.0, 1.0, size=(1, 1, 16, 21))
    symbolic = [(r.name, r.out_shape) for r in trace(spec, TensorShape(1, spec.input_freq_bins, 21))]
    numeric = list(run_model(spec, x, seed=1).shapes)
    for records in (symbolic, numeric):
        start = [name for name, _ in records].index(expected[0][0])
        assert records[start : start + len(expected)] == expected


class TestResidualBlock:
    @pytest.mark.parametrize(
        "branch", [[Activation("b.act")], [BatchNorm2d("b.bn", 3), Activation("b.act")], []],
        ids=["relu-first", "identity-then-relu", "empty"],
    )
    def test_block_leaves_its_input_unchanged(self, branch):
        x = np.random.default_rng(2).normal(size=(1, 3, 5, 6))
        before = x.copy()
        records = []
        out = run_block(hand_block(branch), x, {}, records)
        assert np.array_equal(x, before)
        branch_out = np.maximum(before, 0.0) if branch else before
        assert np.array_equal(out, np.maximum(branch_out + before, 0.0))
        assert [name for name, _ in records] == [layer.name for layer in branch] + ["b.add", "b.act_out"]
        assert not np.may_share_memory(out, x)

    def test_strided_block_leaves_its_input_unchanged(self):
        # The subsample shortcut is a view of the block input.
        spec = build(make_request("gemini_resnet", 18, path="T14c", base_channels=4,
                                  embedding_dim=16, input_freq_bins=16))
        block = first_block(spec, ShortcutKind.SUBSAMPLE)
        channels = block[0].layer.in_channels
        x = np.random.default_rng(5).normal(size=(1, channels, 8, 20))
        before = x.copy()
        run_block(block, x, init_weights(spec, 3))
        assert np.array_equal(x, before)

    def test_zero_branch_identity_shortcut_returns_input(self):
        spec = small_spec()
        weights = zero_weights(spec)
        x = np.abs(np.random.default_rng(2).normal(size=(1, 4, 16, 20)))
        out = run_block(first_block(spec), x, weights)
        np.testing.assert_allclose(out, x, atol=0)

    def test_zero_branch_subsample_shortcut_returns_subsampled_input(self):
        # Post-add layers act on the merged map: with a zero branch, the
        # block's output is the ReLU of the subsampled block input.
        spec = build(make_request("modified_resnet", 18, path="T14d", base_channels=4,
                                  embedding_dim=16, input_freq_bins=16))
        x = np.abs(np.random.default_rng(2).normal(size=(1, 4, 16, 21)))
        out = run_block(first_block(spec, ShortcutKind.SUBSAMPLE), x, zero_weights(spec))
        np.testing.assert_allclose(out, x[:, :, ::2, ::2], atol=0)

    def test_drawn_weights_refuse_a_layer_out_of_entry_order(self):
        spec = small_spec()
        x = np.ones((1, 4, 16, 20))
        with pytest.raises(KernelError, match=r"out of entry order \(next drawn: stem\.conv\)"):
            run_block(first_block(spec), x, numkernel._DrawnWeights(spec, 1))

    def test_identity_initialized_projection_returns_input(self):
        layer = Conv2d("proj", 3, 3, (1, 1))
        w = np.eye(3).reshape(3, 3, 1, 1)
        x = np.random.default_rng(3).normal(size=(2, 3, 4, 5))
        np.testing.assert_allclose(conv2d_forward(x, layer, w), x, atol=1e-15)

    def test_strided_block_shape_matches_symbolic(self):
        spec = build(make_request("gemini_resnet", 18, path="T14c", base_channels=4,
                                  embedding_dim=16, input_freq_bins=16))
        result = verify_spec_numeric(spec, time=40)
        assert result.ok, result.detail


class TestSigmoid:
    def test_saturates_without_overflow(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = numkernel._sigmoid(np.array([-1000.0, 0.0, 1000.0]))
        assert out.tolist() == [0.0, 0.5, 1.0]

    def test_matches_direct_form_in_range(self):
        x = np.linspace(-30.0, 30.0, 121)
        np.testing.assert_allclose(numkernel._sigmoid(x), 1.0 / (1.0 + np.exp(-x)), rtol=1e-12)


class TestSqueezeExciteAndRes2Net:
    def test_squeeze_excite_matches_loop_oracle(self):
        rng = np.random.default_rng(16)
        x = rng.normal(size=(2, 8, 3, 5))
        params = {"w1": rng.normal(size=(2, 8)), "b1": rng.normal(size=2),
                  "w2": rng.normal(size=(8, 2)), "b2": rng.normal(size=8)}
        got = squeeze_excite_forward(x, SqueezeExcite("se", 8, 4), params)
        np.testing.assert_allclose(got, loop_squeeze_excite(x, **params), rtol=1e-12, atol=1e-12)

    def test_res2net_matches_loop_oracle(self):
        rng = np.random.default_rng(17)
        x = rng.normal(size=(2, 12, 4, 6))
        branches = [0.3 * rng.normal(size=(3, 3, 3, 3)) for _ in range(3)]
        got = res2net_forward(x, Res2NetConv("r2n", 12, 4), {"branches": branches})
        np.testing.assert_allclose(got, loop_res2net(x, branches), rtol=1e-12, atol=1e-12)


class TestStatsPooling:
    def test_constant_input(self):
        x = np.full((1, 2, 3, 8), 2.5)
        out = stats_pooling_forward(x)
        assert out.shape == (1, 12)
        np.testing.assert_allclose(out[0, :6], 2.5)
        assert np.all(out[0, 6:] < 1e-4)

    def test_alternating_series(self):
        x = np.zeros((1, 1, 1, 2))
        x[0, 0, 0] = [-1.0, 1.0]
        out = stats_pooling_forward(x)
        assert out[0, 0] == pytest.approx(0.0, abs=1e-12)
        assert out[0, 1] == pytest.approx(1.0, abs=1e-9)

    def test_minimal_cell_grid_pools_to_two(self):
        out = stats_pooling_forward(np.ones((1, 1, 1, 4)))
        assert out.shape == (1, 2)

    def test_matches_two_pass_oracle(self):
        x = np.random.default_rng(8).normal(size=(2, 3, 4, 9))
        np.testing.assert_allclose(stats_pooling_forward(x), two_pass_stats_pool(x), atol=1e-12)

    def test_requires_two_frames(self):
        with pytest.raises(KernelError):
            stats_pooling_forward(np.ones((1, 1, 1, 1)))


class TestNonFiniteValues:
    """``run_model`` refuses a non-finite input; the layer functions it
    calls pass NaN through as numpy does."""

    def nan_map(self):
        x = np.zeros((1, 1, 16, 40))
        x[0, 0, 3, 7] = np.nan
        return x

    def test_conv_passes_nan_through(self):
        layer = Conv2d("c", 1, 2, (3, 3), padding=(1, 1))
        out = conv2d_forward(self.nan_map(), layer, np.ones((2, 1, 3, 3)))
        window = np.zeros(out.shape, bool)
        window[:, :, 2:5, 6:9] = True
        assert np.isnan(out[window]).all()
        assert (out[~window] == 0.0).all()

    def test_max_pool_passes_nan_through(self):
        layer = MaxPool2d("pool", (3, 3), StridePair(2, 2), (1, 1))
        out = maxpool2d_forward(self.nan_map(), layer)
        assert np.isnan(out).sum() == 4 and np.isnan(out[0, 0, 1:3, 3:5]).all()

    def test_run_model_refuses_non_finite_input(self):
        with pytest.raises(KernelError, match=r"^run_model: tensor contains non-finite values$"):
            run_model(small_spec(), self.nan_map())


class TestRunModel:
    def test_embedding_length_and_counter_equality(self):
        spec = small_spec()
        x = np.random.default_rng(4).normal(size=(1, 1, 16, 40))
        result = run_model(spec, x)
        assert result.embedding.shape == (1, 16)
        analytic = count_flops(spec, TensorShape(1, 16, 40))
        assert result.counter.multiplies == analytic.flops_total

    def test_per_layer_shapes_match_symbolic_trace(self):
        spec = small_spec()
        x = np.random.default_rng(4).normal(size=(1, 1, 16, 40))
        result = run_model(spec, x)
        symbolic = trace(spec, TensorShape(1, 16, 40))
        assert len(result.shapes) == len(symbolic)
        for (name, shape), record in zip(result.shapes, symbolic):
            assert name == record.name
            assert shape == record.out_shape

    def test_deterministic_embedding(self):
        spec = small_spec()
        x = np.random.default_rng(4).normal(size=(1, 1, 16, 40))
        a = run_model(spec, x, seed=123).embedding
        b = run_model(spec, x, seed=123).embedding
        assert np.array_equal(a, b)
        c = run_model(spec, x, seed=124).embedding
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize(
        "family,depth,path", [("modified_resnet", 50, "MOD"), ("df_resnet", 182, "MOD"),
                              ("original_resnet", 34, "ORI")],
    )
    def test_layer_draws_match_init_weights(self, family, depth, path):
        spec = build(make_request(family, depth, path=path))
        x64 = np.random.default_rng(4).normal(size=(1, 1, 80, 64))
        for x in (x64, x64.astype(np.float32)):
            drawn = run_model(spec, x, seed=31).embedding
            assert drawn.dtype == x.dtype
            assert np.array_equal(drawn, run_model(spec, x, weights=init_weights(spec, 31)).embedding)

    @given(
        req=preset_requests(freq_bins=st.integers(8, 48), base_channels=st.sampled_from((4, 8)),
                            embedding_dim=st.just(16)),
        time=st.integers(2, 64),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=40, deadline=None)
    def test_float32_verdict_equals_float64(self, req, time, seed):
        # Narrow base channels keep both runs to milliseconds; block counts,
        # paths and options are the presets'. Over 1,283 drawn models the
        # embeddings differed by at most 4.9e-7 of the largest |value|
        # (6.1e-7 on the 23 full-width presets at 80x300), so 1e-5 allows
        # 16x that and still catches a layer left in the wrong precision.
        try:
            spec = build(req)
        except BuildError:
            assume(False)
        x = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(1, 1, req.input_freq_bins, time))
        try:
            want = run_model(spec, x, seed=seed)
        except KernelError as exc:  # too few frames left: both precisions say so
            with pytest.raises(KernelError, match=f"^{re.escape(str(exc))}$"):
                run_model(spec, x.astype(np.float32), seed=seed)
            return
        got = run_model(spec, x.astype(np.float32), seed=seed)
        assert got.shapes == want.shapes
        assert got.counter.multiplies == want.counter.multiplies
        assert got.embedding.dtype == np.float32
        scale = float(np.abs(want.embedding).max())
        assert float(np.abs(got.embedding - want.embedding).max()) <= 1e-5 * scale

    def test_other_input_dtypes_compute_in_float64(self):
        spec = small_spec()
        x = np.random.default_rng(4).normal(size=(1, 1, 16, 40)).astype(np.float16)
        got = run_model(spec, x).embedding
        assert got.dtype == np.float64
        assert np.array_equal(got, run_model(spec, x.astype(np.float64)).embedding)

    def test_float32_overflow_names_the_first_non_finite_layer(self):
        # Every map stays below float32's 3.4e38 at 1e30 input, but the
        # statistics pooling squares deviations of about 1e30.
        spec = small_spec()
        x = np.random.default_rng(4).uniform(-1.0, 1.0, size=(1, 1, 16, 40)) * 1e30
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isfinite(run_model(spec, x).embedding).all()
            with pytest.raises(KernelError, match="^head.pool: first layer with a non-finite output"):
                run_model(spec, x.astype(np.float32))

    def test_leaves_input_and_weights_unchanged(self):
        spec = small_spec()
        x = np.random.default_rng(4).normal(size=(1, 1, 16, 40))
        weights = init_weights(spec, 5)
        before_x = x.copy()
        before_w = init_weights(spec, 5)
        run_model(spec, x, weights=weights)
        run_model(spec, x, seed=5)
        assert np.array_equal(x, before_x)
        for name, params in before_w.items():
            for key, value in params.items():
                assert np.array_equal(weights[name][key], value), (name, key)

    def test_depthwise_model_holds_few_feature_maps(self):
        # DF-ResNet182 MOD's largest map is stage 2's 128 x 80 x T. A
        # depthwise conv needs its input and its output; the block input
        # is a quarter map. A whole-map padded copy, an output-sized tap
        # scratch and out-of-place ReLUs and adds put the peak near 4 maps.
        spec = build(make_request("df_resnet", 182, path="MOD"))
        frames = 64
        largest = 8 * max(int(np.prod(r.out_shape)) for r in trace(spec, TensorShape(1, spec.input_freq_bins, frames)) if len(r.out_shape) == 3)
        x = np.random.default_rng(4).normal(size=(1, 1, 80, frames))
        _, peak = traced_peak(run_model, spec, x)
        assert peak < 2.5 * largest

    def test_head_matrix_is_never_held_whole(self):
        # F50 keeps the full 80 frequency bins: its head is 2*256*80 x 256,
        # 84 MB of float64, drawn and multiplied one block of rows at a time.
        spec = catalog_spec("F50")
        fc = spec.entries[-1].layer
        head_bytes = 8 * fc.in_dim * fc.out_dim
        assert head_bytes > 80e6
        x = np.random.default_rng(4).normal(size=(1, 1, 80, 64))
        _, peak = traced_peak(run_model, spec, x)
        assert peak < head_bytes / 2

    def test_weights_are_drawn_per_layer(self):
        # ResNet50 MOD holds 84.7 MiB of weights, 40 MiB of them in the
        # head's fully connected layer; drawing a layer's weights only when
        # it runs keeps the peak near that one layer.
        spec = build(make_request("modified_resnet", 50, path="MOD"))
        weights = zero_weights(spec)
        weight_bytes = sum(a.nbytes for params in weights.values() for a in params.values())
        del weights
        x = np.random.default_rng(4).normal(size=(1, 1, 80, 64))
        _, peak = traced_peak(run_model, spec, x)
        assert peak < weight_bytes / 2

    def test_zero_weights_give_zero_embedding(self):
        spec = small_spec()
        x = np.random.default_rng(4).normal(size=(1, 1, 16, 40))
        result = run_model(spec, x, weights=zero_weights(spec))
        np.testing.assert_allclose(result.embedding, 0.0, atol=0)

    def test_mod34_final_feature_map(self, mod34):
        pool = next(r for r in trace(mod34, TensorShape(1, 80, 300)) if len(r.out_shape) == 1)
        assert pool.in_shape == (256, 10, 38)

    def test_se_and_res2net_paths_execute(self):
        spec = build(make_request("modified_resnet", 18, base_channels=8,
                                  se_reduction=4, res2net_scale=4,
                                  embedding_dim=8, input_freq_bins=16))
        result = verify_spec_numeric(spec, time=32)
        assert result.ok, result.detail

    def test_original_family_executes(self):
        spec = build(make_request("original_resnet", 18, path="ORI", base_channels=8,
                                  embedding_dim=8, input_freq_bins=32))
        result = verify_spec_numeric(spec, time=64)
        assert result.ok, result.detail

    def test_two_second_duration_agreement(self, mod34):
        result = verify_spec_numeric(mod34, time=200)
        assert result.ok, result.detail

    @pytest.mark.parametrize("family,depths", [
        pytest.param(family, labels, id=f"{family}-{'/'.join(map(str, labels))}")
        for family, depths in sorted(PRESETS.items())
        for labels in (depth if isinstance(depth, tuple) else (depth,) for depth in depths)
    ])
    def test_every_preset_verifies_in_float32(self, family, depths, monkeypatch):
        # A DF-ResNet label pair is one block table: the first label on a
        # path without a stage-2 stride, the second on one with it.
        paths = ("MOD", "T14c") if family == "df_resnet" else (None,)
        specs = [build(make_request(family, depth, path=path)) for depth, path in zip(depths, paths)]
        dtypes = []

        def run(spec, x, **kwargs):
            dtypes.append(x.dtype)
            result = run_model(spec, x, **kwargs)
            dtypes.append(result.embedding.dtype)
            return result

        monkeypatch.setattr(verification, "run_model", run)
        for spec in specs:
            result = verify_spec_numeric(spec, time=33)
            assert result.ok, result.detail
        assert set(dtypes) == {np.dtype(np.float32)}


class TestVerifyDivergence:
    """Each divergence ``verify_spec_numeric`` reports, driven by editing
    what the kernel run or the symbolic trace returns."""

    TIME = 32

    def verdict(self, monkeypatch, edit_run=None, edit_trace=None):
        spec = small_spec()
        if edit_run is not None:
            monkeypatch.setattr(verification, "run_model",
                                lambda *args, **kwargs: edit_run(run_model(*args, **kwargs)))
        if edit_trace is not None:
            monkeypatch.setattr(verification, "trace", lambda *args: edit_trace(trace(*args)))
        result = verify_spec_numeric(spec, time=self.TIME)
        assert result.ok is False
        return result

    def test_layer_count(self, monkeypatch):
        result = self.verdict(monkeypatch, edit_trace=lambda records: records[:-1])
        n = result.layers_checked
        assert result.detail == f"layer count mismatch: symbolic {n} vs numeric {n + 1}"

    def test_layer_order(self, monkeypatch):
        def swap_first_two(run):
            (a, shape_a), (b, shape_b), *rest = run.shapes
            return dataclasses.replace(run, shapes=((b, shape_a), (a, shape_b), *rest))

        result = self.verdict(monkeypatch, edit_run=swap_first_two)
        assert result.detail == "layer order mismatch at stem.conv vs stem.bn"

    def test_shape(self, monkeypatch):
        def widen_stem(run):
            (name, shape), *rest = run.shapes
            return dataclasses.replace(run, shapes=((name, (shape[0] + 1, *shape[1:])), *rest))

        result = self.verdict(monkeypatch, edit_run=widen_stem)
        assert result.detail == "stem.conv: symbolic shape (4, 16, 32) != numeric (5, 16, 32)"

    def test_multiply_count(self, monkeypatch):
        def one_more(run):
            return dataclasses.replace(run, counter=OpCounter(run.counter.multiplies + 1))

        result = self.verdict(monkeypatch, edit_run=one_more)
        assert result.multiplies == result.analytic_flops + 1
        assert result.detail == f"multiply count {result.multiplies} != analytic {result.analytic_flops}"

    def test_embedding_shape(self, monkeypatch):
        def flatten(run):
            return dataclasses.replace(run, embedding=run.embedding.ravel())

        result = self.verdict(monkeypatch, edit_run=flatten)
        assert result.detail == "embedding shape (16,)"


def weight_arrays(weights):
    """(layer.key, array) for every array of an ``init_weights`` result."""
    for name, params in weights.items():
        for key, value in params.items():
            for w in value if isinstance(value, list) else [value]:
                yield f"{name}.{key}", w


def weight_block_faults(spec, seed):
    """Every broken promise of ``init_weights(spec, seed)``: a value outside
    [-0.1, 0.1], or two equal rows of a conv (out x in/groups*kf*kt) or
    fully connected weight."""
    faults = []
    for label, w in weight_arrays(init_weights(spec, seed)):
        if np.abs(w).max() > 0.1:
            faults.append(f"{label}: value outside [-0.1, 0.1]")
        if w.ndim >= 2:
            rows = w.reshape(w.shape[0], -1)
            if len(np.unique(rows, axis=0)) < len(rows):
                faults.append(f"{label}: equal rows in {w.shape}")
    return faults


class TestWeightBlock:
    @given(
        req=preset_requests(freq_bins=st.integers(8, 48), base_channels=st.sampled_from((4, 8)),
                            embedding_dim=st.just(16)),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=30, deadline=None)
    def test_values_rows_and_seeds(self, req, seed):
        # Base width 8 draws more than one block (one 64-channel 3x3 conv
        # is 36,864 values), so rows and layers wrap around it.
        try:
            spec = build(req)
        except BuildError:
            assume(False)
        assert weight_block_faults(spec, seed) == []
        first, again, other = (weight_arrays(init_weights(spec, s)) for s in (seed, seed, seed + 1))
        for (label, w), (_, w_again), (_, w_other) in zip(first, again, other, strict=True):
            assert np.array_equal(w, w_again), label
            assert not np.array_equal(w, w_other), label

    @pytest.mark.parametrize("block,spec", [
        # ResNet34 MOD's head is 256 x 5,120; 5,120 * 64 is 5 * 65,536.
        (1 << 16, lambda: build(make_request("modified_resnet", 34, path="MOD"))),
        (1 << 6, small_spec),
    ], ids=["resnet34-head", "small-resnet18"])
    def test_row_check_fails_on_a_power_of_two_block(self, block, spec, monkeypatch):
        spec = spec()
        assert weight_block_faults(spec, 1) == []
        monkeypatch.setattr(numkernel, "WEIGHT_BLOCK", block)
        assert any("equal rows" in fault for fault in weight_block_faults(spec, 1))

    @given(sizes=st.lists(st.integers(0, 20), max_size=8))
    def test_draws_read_the_block_cyclically(self, sizes):
        # A block of 7 makes every wrap-around reachable with small draws.
        with mock.patch.object(numkernel, "WEIGHT_BLOCK", 7):
            block = numkernel._uniform_draw(3)(7)
            draw = numkernel._uniform_draw(3)
            parts = [draw(n) for n in sizes]
            draw32 = numkernel._uniform_draw(3, np.float32)
            parts32 = [draw32(n) for n in sizes]
        want = np.resize(block, sum(sizes))
        assert np.array_equal(np.concatenate([block[:0], *parts]), want)
        assert np.array_equal(np.concatenate([block[:0].astype(np.float32), *parts32]),
                              want.astype(np.float32))
        assert all(p.dtype == np.float32 for p in parts32)


class TestConvBackward:
    @staticmethod
    def oracle(x, layer, w, gy):
        return loop_conv2d_backward(
            x, w, gy,
            stride=(layer.stride.freq, layer.stride.time),
            padding=layer.padding, dilation=layer.dilation, groups=layer.groups,
        )

    @given(case=conv_cases(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_matches_loop_oracle_on_drawn_layers(self, case, seed):
        layer, x, w = case
        gy = np.random.default_rng(seed).normal(size=conv2d_forward(x, layer, w).shape)
        grad_x, grad_w = conv2d_backward(x, layer, w, gy)
        want_x, want_w = self.oracle(x, layer, w, gy)
        assert grad_x.shape == x.shape and grad_w.shape == w.shape
        np.testing.assert_allclose(grad_x, want_x, atol=1e-12)
        np.testing.assert_allclose(grad_w, want_w, atol=1e-12)

    @given(case=conv_cases(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_float32_matches_loop_oracle_on_drawn_layers(self, case, seed):
        # Single-precision operands give single-precision gradients, held
        # to single-precision rounding of the float64 loops over the same
        # values.
        layer, x, w = case
        x, w = x.astype(np.float32), w.astype(np.float32)
        gy = np.random.default_rng(seed).normal(size=conv2d_forward(x, layer, w).shape)
        gy = gy.astype(np.float32)
        for got, want in zip(conv2d_backward(x, layer, w, gy), self.oracle(x, layer, w, gy)):
            assert got.dtype == np.float32
            assert got.shape == want.shape
            scale = max(float(np.abs(want).max()), 1.0)
            assert float(np.abs(got - want).max()) <= 1e-5 * scale


class TestGradcheck:
    def test_pointwise_single_channel_is_exact(self):
        layer = Conv2d("c", 1, 1, (1, 1))
        report = gradcheck_conv(layer)
        assert report.passed
        assert report.max_rel_error < 1e-7

    def test_strided_conv(self):
        layer = Conv2d("c", 4, 4, (3, 3), stride=StridePair(1, 2), padding=(1, 1))
        report = gradcheck_conv(layer)
        assert report.passed, report.failures

    def test_depthwise_conv(self):
        layer = Conv2d("c", 4, 4, (3, 3), padding=(1, 1), groups=4)
        report = gradcheck_conv(layer)
        assert report.passed, report.failures

    def test_zero_tolerance_names_both_gradients(self):
        report = gradcheck_conv(Conv2d("c", 2, 2, (3, 3), padding=(1, 1)), tolerance=0.0)
        assert not report.passed
        assert report.failures == (
            f"weight gradient rel err {report.max_rel_error_weights:.3e} > 0.0e+00",
            f"input gradient rel err {report.max_rel_error_input:.3e} > 0.0e+00",
        )

    def test_backward_rejects_bad_grad_shape(self):
        layer = Conv2d("c", 2, 2, (3, 3), padding=(1, 1))
        x = np.zeros((1, 2, 5, 5))
        w = np.zeros((2, 2, 3, 3))
        with pytest.raises(KernelError):
            conv2d_backward(x, layer, w, np.zeros((1, 2, 4, 4)))

    def test_suite_sample(self):
        reports = gradcheck_suite(trials=15, seed=9)
        assert all(r.passed for r in reports)
        strided = [r for r in reports if not r.layer.stride.is_unit()]
        depthwise = [r for r in reports if r.layer.groups > 1]
        assert strided and depthwise


@dataclasses.dataclass(frozen=True)
class _Dropout:
    """A layer type the kernel has no rule for."""

    name: str


class TestRefusalTexts:
    """Each refusal of the kernel's own shape checks, with its exact text."""

    @staticmethod
    def refusal(fn, *args):
        with pytest.raises(KernelError) as err:
            fn(*args)
        return str(err.value)

    def test_run_model_refuses_a_3d_tensor(self):
        assert self.refusal(run_model, small_spec(), np.zeros((1, 16, 40))) == (
            "run_model: expected a (batch, channels, freq, time) tensor, got (1, 16, 40)")

    def test_run_model_refuses_two_channels(self):
        assert self.refusal(run_model, small_spec(), np.zeros((1, 2, 16, 40))) == (
            "backbones take single-channel spectrogram input")

    def test_fully_connected_refuses_another_input_dim(self):
        layer = FullyConnected("fc", 8, 3)
        assert self.refusal(fully_connected_forward, np.zeros((2, 4)), layer, np.zeros((3, 8)), None) == (
            "fc: expected (batch, 8) input, got (2, 4)")

    def test_squeeze_excite_refuses_other_channels(self):
        x = np.zeros((1, 4, 3, 3))
        assert self.refusal(squeeze_excite_forward, x, SqueezeExcite("se", 8, 4), {}) == "se: channel mismatch"

    def test_res2net_refuses_other_channels(self):
        x = np.zeros((1, 4, 3, 3))
        assert self.refusal(res2net_forward, x, Res2NetConv("r2n", 8, 4), {}) == "r2n: channel mismatch"

    def test_a_layer_with_no_kernel_rule(self):
        block = hand_block([_Dropout("b.drop")])
        assert self.refusal(run_block, block, np.zeros((1, 3, 5, 6)), {}) == "cannot execute layer _Dropout"

    def test_branch_and_shortcut_that_do_not_meet(self):
        # The branch halves both axes; an identity shortcut keeps them.
        conv = Conv2d("b.conv", 3, 3, (1, 1), stride=StridePair(2, 2))
        weights = {"b.conv": {"w": np.zeros((3, 3, 1, 1))}}
        assert self.refusal(run_block, hand_block([conv]), np.zeros((1, 3, 5, 6)), weights) == (
            "b.add: branch (1, 3, 3, 3) != shortcut (1, 3, 5, 6)")


class TestSeedRange:
    """Every seeded entry point takes a seed in [0, 2**63) and refuses any
    other with ``ValueError``, before numpy sees it."""

    @pytest.mark.parametrize("seed", [-1, 2**63, 2**64])
    def test_verify_refuses_seed(self, seed):
        with pytest.raises(ValueError, match=r"seed must be in \[0, 2\*\*63\)"):
            verify_spec_numeric(small_spec(), time=32, seed=seed)

    def test_run_model_refuses_seed(self):
        x = np.zeros((1, 1, 16, 32))
        with pytest.raises(ValueError, match=r"got -1$"):
            run_model(small_spec(), x, seed=-1)

    def test_gradcheck_refuses_seed(self):
        with pytest.raises(ValueError, match=r"got -1$"):
            gradcheck_suite(trials=1, seed=-1)
        with pytest.raises(ValueError, match=r"got -1$"):
            gradcheck_conv(Conv2d("c", 1, 1, (1, 1)), seed=-1)

    def test_environment_seed_out_of_range(self, monkeypatch):
        monkeypatch.setenv("STRIDE_LAB_SEED", "-5")
        with pytest.raises(ValueError, match=r"^STRIDE_LAB_SEED must be an integer in \[0, 2\*\*63\)"):
            gradcheck_suite(trials=1)

    def test_largest_seed_wraps_trial_seeds(self):
        reports = gradcheck_suite(trials=2, seed=2**63 - 1)
        assert len(reports) == 2 and all(r.passed for r in reports)
        assert numkernel.check_seed(2**63 - 1) == 2**63 - 1
