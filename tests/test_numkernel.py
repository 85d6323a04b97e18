import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import loop_conv2d, two_pass_stats_pool
from stride_lab import numkernel
from stride_lab.analysis import count_flops, layer_flops, trace
from stride_lab.builder import build, make_request
from stride_lab.layers import Conv2d, TensorShape
from stride_lab.numkernel import (
    KernelError,
    OpCounter,
    conv2d_backward,
    conv2d_forward,
    gradcheck_conv,
    init_weights,
    residual_block_forward,
    run_model,
    stats_pooling_forward,
    zero_weights,
)
from stride_lab.strides import StridePair
from stride_lab.verification import gradcheck_suite, verify_spec_numeric


def small_spec():
    return build(make_request("modified_resnet", 18, path="MOD", base_channels=4,
                              embedding_dim=16, input_freq_bins=16))


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
        # A zero budget fills and multiplies one output row at a time.
        layer, x, w = case
        with mock.patch.object(numkernel, "COLUMN_BUDGET", 0):
            got = conv2d_forward(x, layer, w)
        want = loop_conv2d(
            x, w,
            stride=(layer.stride.freq, layer.stride.time),
            padding=layer.padding, dilation=layer.dilation, groups=layer.groups,
        )
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_dense_column_buffer_is_bounded(self):
        # Padded input, column buffer and output; the whole (288, 80*300)
        # column buffer alone would be 55 MB, 4.5x input plus output.
        layer = Conv2d("c", 32, 32, (3, 3), padding=(1, 1))
        rng = np.random.default_rng(8)
        x = rng.normal(size=(1, 32, 80, 300))
        w = rng.normal(size=(32, 32, 3, 3))
        tracemalloc.start()
        try:
            out = conv2d_forward(x, layer, w)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.shape == (1, 32, 80, 300)
        assert peak < 2 * (x.nbytes + out.nbytes)

    def test_depthwise_builds_no_column_buffer(self):
        # Padded input, output and one scratch array fit in 4x the output;
        # a (C, 9, F*T) column buffer alone would be 9x.
        layer = Conv2d("dw", 64, 64, (3, 3), padding=(1, 1), groups=64)
        rng = np.random.default_rng(8)
        x = rng.normal(size=(1, 64, 40, 150))
        w = rng.normal(size=(64, 1, 3, 3))
        tracemalloc.start()
        try:
            out = conv2d_forward(x, layer, w)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.shape == (1, 64, 40, 150)
        assert peak < 4 * out.nbytes

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
        expected = layer_flops(layer, (8, out.shape[2], out.shape[3]))
        assert counter.multiplies == expected

    def test_rejects_wrong_weight_shape(self):
        layer = Conv2d("c", 4, 8, (3, 3), padding=(1, 1))
        with pytest.raises(KernelError):
            conv2d_forward(np.zeros((1, 4, 5, 5)), layer, np.zeros((8, 4, 5, 5)))

    def test_rejects_channel_mismatch(self):
        layer = Conv2d("c", 4, 8, (3, 3), padding=(1, 1))
        with pytest.raises(KernelError):
            conv2d_forward(np.zeros((1, 3, 5, 5)), layer, np.zeros((8, 4, 3, 3)))

    def test_output_shape_matches_symbolic(self):
        from stride_lab.analysis import propagate_shape

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
            sym = propagate_shape(TensorShape(cin, f, t), layer)
            assert out.shape[1:] == sym.as_tuple()


class TestResidualBlock:
    def test_zero_branch_identity_shortcut_returns_input(self):
        spec = small_spec()
        block = next(s for s in spec.segments() if s.kind == "block")
        weights = zero_weights(spec)
        x = np.abs(np.random.default_rng(2).normal(size=(1, 4, 16, 20)))
        out = residual_block_forward(x, block, weights)
        np.testing.assert_allclose(out, x, atol=0)

    def test_drawn_weights_refuse_a_layer_out_of_entry_order(self):
        spec = small_spec()
        block = next(s for s in spec.segments() if s.kind == "block")
        x = np.ones((1, 4, 16, 20))
        with pytest.raises(KernelError, match=r"out of entry order \(next drawn: stem\.conv\)"):
            residual_block_forward(x, block, numkernel._DrawnWeights(spec, 1))

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
        symbolic = trace(spec, freq=16, time=40)
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
        x = np.random.default_rng(4).normal(size=(1, 1, 80, 64))
        drawn = run_model(spec, x, seed=31).embedding
        assert np.array_equal(drawn, run_model(spec, x, weights=init_weights(spec, 31)).embedding)

    def test_weights_are_drawn_per_layer(self):
        # ResNet50 MOD holds 84.7 MiB of weights, 40 MiB of them in the
        # head's fully connected layer; drawing a layer's weights only when
        # it runs keeps the peak near that one layer.
        spec = build(make_request("modified_resnet", 50, path="MOD"))
        weights = zero_weights(spec)
        weight_bytes = sum(a.nbytes for params in weights.values() for a in params.values())
        del weights
        x = np.random.default_rng(4).normal(size=(1, 1, 80, 64))
        tracemalloc.start()
        try:
            run_model(spec, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < weight_bytes / 2

    def test_zero_weights_give_zero_embedding(self):
        spec = small_spec()
        x = np.random.default_rng(4).normal(size=(1, 1, 16, 40))
        result = run_model(spec, x, weights=zero_weights(spec))
        np.testing.assert_allclose(result.embedding, 0.0, atol=0)

    def test_mod34_final_feature_map(self, mod34):
        records = trace(mod34, freq=80, time=300, include_head=False)
        assert records[-1].out_shape == (256, 10, 38)

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
