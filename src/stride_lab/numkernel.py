"""Minimal numeric engine for verifying the symbolic analysis.

Executes a model spec on real double-precision tensors laid out as
(batch, channels, freq, time). Convolutions are direct, no FFT and no
approximation, and the input is padded once (not at all when the padding is
zero). Three regimes follow, chosen by the layer's shape alone:

* Depthwise convolutions (one input and one output channel per group) build
  no column buffer: each kernel tap scales the same strided slice by its
  per-channel weight into one output-sized scratch array, which is added in
  place to the (batch, channels, freq, time) output.
* 1x1 convolutions build no column buffer either: the input, subsampled when
  the layer strides, is the right-hand operand of one GEMM per group, so a
  stride-1 pointwise conv copies nothing and a strided one only its
  subsample.
* Other dense and grouped convolutions use a tap-major im2col. A column
  buffer of at most :data:`COLUMN_BUDGET` bytes, shape (groups,
  in/groups * kf * kt, rows * batch * T_out), is filled with one
  strided-slice copy per kernel tap for a block of output rows, and one
  grouped matrix multiplication with the (groups, out/groups,
  in/groups * kf * kt) kernel matrix writes those rows of the output in
  (channels, freq, batch, time) order, which for a single input is already
  the (batch, channels, freq, time) layout. A buffer that fits the budget
  whole is one block and one GEMM.

:func:`run_model` without explicit weights draws each layer's weights just
before the layer runs, from the same seeded generator and in the same order
as :func:`init_weights`, and drops them after use, so a model's weights are
never all held at once.

An :class:`OpCounter` accumulates the multiply count of every convolution
and fully connected layer under the same MAC convention the symbolic side
uses, so the two can be compared for exact equality.

Gradients are provided for single convolution layers only, enough to verify
the kernel against central finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .layers import (
    Activation,
    Add,
    BatchNorm2d,
    Conv2d,
    FullyConnected,
    GlobalAvgPool,
    MaxPool2d,
    ModelSpec,
    Res2NetConv,
    Role,
    ShortcutKind,
    SqueezeExcite,
    TemporalStatsPool,
)
from .strides import StridePair

__all__ = [
    "GradCheckReport",
    "KernelError",
    "OpCounter",
    "RunResult",
    "conv2d_backward",
    "conv2d_forward",
    "gradcheck_conv",
    "init_weights",
    "residual_block_forward",
    "run_model",
    "stats_pooling_forward",
    "zero_weights",
]

STATS_EPS = 1e-10
DEFAULT_SEED = 20240417
#: Bytes of float64 column buffer one dense or grouped k x k convolution may
#: hold. A conv whose whole buffer is larger fills and multiplies it one
#: block of output rows at a time; 4 MiB measured fastest on 80x300 maps,
#: where a 32-channel 3x3 would otherwise need 55 MB at once.
COLUMN_BUDGET = 4 << 20


class KernelError(ValueError):
    """Raised on tensor/layer dimension mismatches."""


@dataclass
class OpCounter:
    """Running multiply tally for one forward pass."""

    multiplies: int = 0


@dataclass(frozen=True)
class RunResult:
    embedding: np.ndarray
    counter: OpCounter
    shapes: tuple[tuple[str, tuple[int, ...]], ...]


def _require_tensor4(x: np.ndarray, where: str) -> None:
    if x.ndim != 4:
        raise KernelError(f"{where}: expected a (batch, channels, freq, time) tensor, got {x.shape}")
    if not np.isfinite(x).all():
        raise KernelError(f"{where}: tensor contains non-finite values")


def _gather_windows(
    x: np.ndarray,
    kernel: tuple[int, int],
    padding: tuple[int, int],
    dilation: tuple[int, int],
    stride: StridePair,
    pad_value: float = 0.0,
) -> np.ndarray:
    """(B, C, F_out, T_out, kf, kt) view of every receptive field."""
    kf, kt = kernel
    pf, pt = padding
    df, dt = dilation
    xp = np.pad(x, ((0, 0), (0, 0), (pf, pf), (pt, pt)), constant_values=pad_value)
    span_f = df * (kf - 1) + 1
    span_t = dt * (kt - 1) + 1
    if xp.shape[2] < span_f or xp.shape[3] < span_t:
        raise KernelError(
            f"spatial input {x.shape[2]}x{x.shape[3]} too small for kernel span {span_f}x{span_t}"
        )
    win = sliding_window_view(xp, (span_f, span_t), axis=(2, 3))
    win = win[..., ::df, ::dt]
    return win[:, :, :: stride.freq, :: stride.time]


def conv2d_forward(
    x: np.ndarray,
    layer: Conv2d,
    weight: np.ndarray,
    counter: OpCounter | None = None,
) -> np.ndarray:
    """Direct grouped 2D convolution.

    ``weight`` has shape (out_channels, in_channels // groups, kf, kt).
    Depthwise layers (in/groups == out/groups == 1) accumulate one per-tap
    multiply into the output. 1x1 layers multiply the kernel matrix with
    the (strided) input directly. Other layers fill a tap-major im2col
    buffer of at most :data:`COLUMN_BUDGET` bytes one block of output rows
    at a time, each block one grouped GEMM written straight into its rows
    of the output. The counter gains exactly one multiply per kernel tap
    per output value.
    """
    _require_tensor4(x, layer.name)
    b, cin, _, _ = x.shape
    if cin != layer.in_channels:
        raise KernelError(f"{layer.name}: expected {layer.in_channels} input channels, got {cin}")
    g = layer.groups
    cg = layer.in_channels // g
    og = layer.out_channels // g
    kf, kt = layer.kernel
    if weight.shape != (layer.out_channels, cg, kf, kt):
        raise KernelError(
            f"{layer.name}: weight shape {weight.shape} != {(layer.out_channels, cg, kf, kt)}"
        )
    pf, pt = layer.padding
    df, dt = layer.dilation
    sf, st = layer.stride.freq, layer.stride.time
    xp = np.pad(x, ((0, 0), (0, 0), (pf, pf), (pt, pt))) if pf or pt else x
    span_f = df * (kf - 1) + 1
    span_t = dt * (kt - 1) + 1
    if xp.shape[2] < span_f or xp.shape[3] < span_t:
        raise KernelError(
            f"spatial input {x.shape[2]}x{x.shape[3]} too small for kernel span {span_f}x{span_t}"
        )
    f_out = (xp.shape[2] - span_f) // sf + 1
    t_out = (xp.shape[3] - span_t) // st + 1
    if cg == 1 and og == 1:
        # Depthwise: output channel c reads input channel c only, so each
        # tap is a per-channel scale of one strided slice, accumulated in
        # place through one output-sized scratch array (no column buffer).
        out = np.zeros((b, g, f_out, t_out))
        tap = np.empty_like(out)
        for i in range(kf):
            for j in range(kt):
                window = xp[..., i * df : i * df + sf * f_out : sf, j * dt : j * dt + st * t_out : st]
                np.multiply(window, weight[:, 0, i, j, None, None], out=tap)
                out += tap
    elif kf == kt == 1:
        # 1x1: the input, subsampled when the conv strides, is itself the
        # (cg, F_out*T_out) operand of each group's GEMM; at stride 1 the
        # reshape is a view and nothing is copied.
        xs = xp[:, :, ::sf, ::st].reshape(b, g, cg, f_out * t_out)
        out = np.matmul(weight.reshape(g, og, cg), xs).reshape(b, layer.out_channels, f_out, t_out)
    else:
        # Row (c, i, j) of group k holds input channel k*cg + c seen through
        # tap (i, j); columns run over output positions in (F_out, B, T_out)
        # order, so each block of output rows is one contiguous column range
        # of the (groups, out/groups, F_out*B*T_out) output.
        xg = xp.reshape(b, g, cg, xp.shape[2], xp.shape[3]).transpose(1, 2, 3, 0, 4)
        taps = cg * kf * kt
        row = b * t_out
        rows = max(1, min(f_out, COLUMN_BUDGET // (8 * g * taps * row)))
        buf = np.empty(g * taps * rows * row)
        w = weight.reshape(g, og, taps)
        out = np.empty((g, og, f_out * row))
        for r0 in range(0, f_out, rows):
            n = min(rows, f_out - r0)
            cols = buf[: g * taps * n * row].reshape(g, cg, kf, kt, n, b, t_out)
            for i in range(kf):
                f0 = r0 * sf + i * df
                for j in range(kt):
                    cols[:, :, i, j] = xg[:, :, f0 : f0 + sf * n : sf, :, j * dt : j * dt + st * t_out : st]
            np.matmul(w, cols.reshape(g, taps, n * row), out=out[:, :, r0 * row : (r0 + n) * row])
        out = out.reshape(layer.out_channels, f_out, b, t_out).transpose(2, 0, 1, 3)
    if counter is not None:
        counter.multiplies += out.size * kf * kt * cg
    return out


def conv2d_backward(
    x: np.ndarray,
    layer: Conv2d,
    weight: np.ndarray,
    grad_out: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of a scalar loss w.r.t. conv input and weights."""
    _require_tensor4(x, layer.name)
    b = x.shape[0]
    g = layer.groups
    cg = layer.in_channels // g
    og = layer.out_channels // g
    kf, kt = layer.kernel
    pf, pt = layer.padding
    df, dt = layer.dilation
    sf, st = layer.stride.freq, layer.stride.time

    win = _gather_windows(x, layer.kernel, layer.padding, layer.dilation, layer.stride)
    f_out, t_out = win.shape[2], win.shape[3]
    if grad_out.shape != (b, layer.out_channels, f_out, t_out):
        raise KernelError(
            f"{layer.name}: grad shape {grad_out.shape} != {(b, layer.out_channels, f_out, t_out)}"
        )
    gy = grad_out.reshape(b, g, og, f_out, t_out)
    xg = win.reshape(b, g, cg, f_out, t_out, kf, kt)
    grad_w = np.einsum("bgoft,bgcftij->gocij", gy, xg).reshape(layer.out_channels, cg, kf, kt)

    wg = weight.reshape(g, og, cg, kf, kt)
    padded_shape = (b, layer.in_channels, x.shape[2] + 2 * pf, x.shape[3] + 2 * pt)
    grad_xp = np.zeros(padded_shape)
    grad_xp_g = grad_xp.reshape(b, g, cg, padded_shape[2], padded_shape[3])
    for i in range(kf):
        for j in range(kt):
            contrib = np.einsum("bgoft,goc->bgcft", gy, wg[:, :, :, i, j])
            grad_xp_g[
                :,
                :,
                :,
                i * df : i * df + sf * f_out : sf,
                j * dt : j * dt + st * t_out : st,
            ] += contrib
    grad_x = grad_xp[:, :, pf : padded_shape[2] - pf, pt : padded_shape[3] - pt]
    return grad_x, grad_w


def maxpool2d_forward(x: np.ndarray, layer: MaxPool2d) -> np.ndarray:
    _require_tensor4(x, layer.name)
    win = _gather_windows(
        x, layer.kernel, layer.padding, (1, 1), layer.stride, pad_value=-np.inf
    )
    return win.max(axis=(-2, -1))


def stats_pooling_forward(x: np.ndarray) -> np.ndarray:
    """Per (channel, freq) cell: mean then population std over time,
    concatenated to a (batch, 2*C*F) matrix."""
    _require_tensor4(x, "stats_pooling")
    if x.shape[3] < 2:
        raise KernelError("statistics pooling needs at least 2 time frames")
    b = x.shape[0]
    mean = x.mean(axis=3)
    var = ((x - mean[..., None]) ** 2).mean(axis=3)
    std = np.sqrt(var + STATS_EPS)
    return np.concatenate([mean.reshape(b, -1), std.reshape(b, -1)], axis=1)


def global_avg_pool_forward(x: np.ndarray) -> np.ndarray:
    _require_tensor4(x, "global_avg_pool")
    return x.mean(axis=(2, 3))


def fully_connected_forward(
    x: np.ndarray, layer: FullyConnected, weight: np.ndarray, bias: np.ndarray | None,
    counter: OpCounter | None = None,
) -> np.ndarray:
    if x.ndim != 2 or x.shape[1] != layer.in_dim:
        raise KernelError(f"{layer.name}: expected (batch, {layer.in_dim}) input, got {x.shape}")
    out = x @ weight.T
    if layer.bias:
        out = out + bias
    if counter is not None:
        counter.multiplies += x.shape[0] * layer.in_dim * layer.out_dim
    return out


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # 1 / (1 + exp(-x)) without forming exp(-x), which overflows below -709.
    return np.exp(-np.logaddexp(0.0, -x))


def squeeze_excite_forward(
    x: np.ndarray, layer: SqueezeExcite, params: dict, counter: OpCounter | None = None
) -> np.ndarray:
    _require_tensor4(x, layer.name)
    b, c = x.shape[0], x.shape[1]
    if c != layer.channels:
        raise KernelError(f"{layer.name}: channel mismatch")
    hidden = layer.channels // layer.reduction
    squeezed = x.mean(axis=(2, 3))
    h = np.maximum(squeezed @ params["w1"].T + params["b1"], 0.0)
    gate = _sigmoid(h @ params["w2"].T + params["b2"])
    if counter is not None:
        counter.multiplies += b * (c * hidden + hidden * c)
    return x * gate[:, :, None, None]


def res2net_forward(
    x: np.ndarray, layer: Res2NetConv, params: dict, counter: OpCounter | None = None
) -> np.ndarray:
    _require_tensor4(x, layer.name)
    if x.shape[1] != layer.channels:
        raise KernelError(f"{layer.name}: channel mismatch")
    w = layer.width
    chunks = [x[:, i * w : (i + 1) * w] for i in range(layer.scale)]
    branch_conv = Conv2d(
        f"{layer.name}.branch", w, w, layer.kernel, padding=layer.padding
    )
    outs = [chunks[0]]
    prev = None
    for i in range(1, layer.scale):
        inp = chunks[i] if prev is None else chunks[i] + prev
        y = conv2d_forward(inp, branch_conv, params["branches"][i - 1], counter)
        y = np.maximum(y, 0.0)
        outs.append(y)
        prev = y
    return np.concatenate(outs, axis=1)


def _subsample(x: np.ndarray, stride: StridePair) -> np.ndarray:
    return x[:, :, :: stride.freq, :: stride.time]


# ---------------------------------------------------------------------------
# Whole-model execution
# ---------------------------------------------------------------------------


def _layer_params(spec: ModelSpec, draw):
    """(layer name, params) for every weighted layer, in entry order, each
    array made by ``draw(*shape)``. The order fixes which draws of a seeded
    generator each layer receives."""
    for entry in spec.entries:
        layer = entry.layer
        if isinstance(layer, Conv2d):
            kf, kt = layer.kernel
            yield layer.name, {"w": draw(layer.out_channels, layer.in_channels // layer.groups, kf, kt)}
        elif isinstance(layer, FullyConnected):
            params = {"w": draw(layer.out_dim, layer.in_dim)}
            if layer.bias:
                params["b"] = draw(layer.out_dim)
            yield layer.name, params
        elif isinstance(layer, SqueezeExcite):
            hidden = layer.channels // layer.reduction
            yield layer.name, {
                "w1": draw(hidden, layer.channels),
                "b1": draw(hidden),
                "w2": draw(layer.channels, hidden),
                "b2": draw(layer.channels),
            }
        elif isinstance(layer, Res2NetConv):
            kf, kt = layer.kernel
            yield layer.name, {
                "branches": [draw(layer.width, layer.width, kf, kt) for _ in range(layer.scale - 1)]
            }


def _uniform_draw(seed: int):
    rng = np.random.default_rng(np.uint64(seed))
    return lambda *shape: rng.uniform(-0.1, 0.1, size=shape)


def init_weights(spec: ModelSpec, seed: int = DEFAULT_SEED) -> dict[str, dict]:
    """Deterministic uniform [-0.1, 0.1] weights keyed by layer name."""
    return dict(_layer_params(spec, _uniform_draw(seed)))


def zero_weights(spec: ModelSpec) -> dict[str, dict]:
    """All-zero weights (fully connected biases included)."""
    return dict(_layer_params(spec, lambda *shape: np.zeros(shape)))


class _DrawnWeights:
    """``init_weights(spec, seed)`` drawn one layer at a time.

    Looking up a layer draws its params and keeps nothing, so at most one
    layer's weights are alive. Lookups must come in entry order, the order
    in which :func:`run_model` executes layers.
    """

    def __init__(self, spec: ModelSpec, seed: int) -> None:
        self._params = _layer_params(spec, _uniform_draw(seed))

    def __getitem__(self, name: str) -> dict:
        drawn, params = next(self._params, (None, None))
        if drawn != name:
            raise KernelError(f"{name}: weights requested out of entry order (next drawn: {drawn})")
        return params


def _apply(layer, x, weights, counter):
    if isinstance(layer, Conv2d):
        return conv2d_forward(x, layer, weights[layer.name]["w"], counter)
    if isinstance(layer, BatchNorm2d):
        # Inference mode with zero mean, unit variance, unit scale, zero
        # shift: an exact identity.
        return x
    if isinstance(layer, Activation):
        return np.maximum(x, 0.0) if layer.fn == "relu" else _sigmoid(x)
    if isinstance(layer, MaxPool2d):
        return maxpool2d_forward(x, layer)
    if isinstance(layer, SqueezeExcite):
        return squeeze_excite_forward(x, layer, weights[layer.name], counter)
    if isinstance(layer, Res2NetConv):
        return res2net_forward(x, layer, weights[layer.name], counter)
    if isinstance(layer, TemporalStatsPool):
        return stats_pooling_forward(x)
    if isinstance(layer, GlobalAvgPool):
        return global_avg_pool_forward(x)
    if isinstance(layer, FullyConnected):
        params = weights[layer.name]
        return fully_connected_forward(x, layer, params["w"], params.get("b"), counter)
    raise KernelError(f"cannot execute layer {type(layer).__name__}")


def _record_shape(records, name, value):
    if value.ndim == 4:
        records.append((name, tuple(int(d) for d in value.shape[1:])))
    else:
        records.append((name, (int(value.shape[1]),)))


def residual_block_forward(
    x: np.ndarray,
    segment,
    weights: dict,
    counter: OpCounter | None = None,
    records: list | None = None,
) -> np.ndarray:
    """Execute one residual block segment: branch(x) plus shortcut(x).

    The shortcut is the identity when shapes are preserved, a parameter-free
    strided subsampling when only the spatial shape changes, and the
    segment's projection layers otherwise.
    """
    block_in = x
    branch = block_in
    shortcut = block_in
    merged = None
    for entry in segment.entries:
        layer = entry.layer
        if isinstance(layer, Add):
            if layer.shortcut is ShortcutKind.SUBSAMPLE:
                shortcut = _subsample(block_in, layer.stride)
            elif layer.shortcut is ShortcutKind.IDENTITY:
                shortcut = block_in
            if branch.shape != shortcut.shape:
                raise KernelError(
                    f"{layer.name}: branch {branch.shape} != shortcut {shortcut.shape}"
                )
            merged = branch + shortcut
            if records is not None:
                _record_shape(records, layer.name, merged)
        elif entry.role is Role.SHORTCUT:
            shortcut = _apply(layer, shortcut, weights, counter)
            if records is not None:
                _record_shape(records, layer.name, shortcut)
        else:
            if merged is not None:
                merged = _apply(layer, merged, weights, counter)
                if records is not None:
                    _record_shape(records, layer.name, merged)
            else:
                branch = _apply(layer, branch, weights, counter)
                if records is not None:
                    _record_shape(records, layer.name, branch)
    if merged is None:
        raise KernelError("residual segment executed without an add layer")
    return merged


def run_model(
    spec: ModelSpec,
    x: np.ndarray,
    weights: dict | None = None,
    seed: int = DEFAULT_SEED,
) -> RunResult:
    """Execute a spec end to end.

    Without ``weights``, each layer's weights are drawn from ``seed`` just
    before the layer runs and dropped after it, with the values
    ``init_weights(spec, seed)`` would give, so at most one layer's weights
    are held at a time.

    Returns the embedding matrix (batch, embedding_dim), the op counter, and
    one (layer name, output shape) record per layer; 4D shapes drop the
    batch axis so they compare directly against the symbolic trace.
    """
    _require_tensor4(x, "run_model")
    if x.shape[1] != 1:
        raise KernelError("backbones take single-channel spectrogram input")
    if weights is None:
        weights = _DrawnWeights(spec, seed)
    counter = OpCounter()
    records: list[tuple[str, tuple[int, ...]]] = []

    for segment in spec.segments():
        if segment.kind == "linear":
            for entry in segment.entries:
                x = _apply(entry.layer, x, weights, counter)
                _record_shape(records, entry.layer.name, x)
            continue
        x = residual_block_forward(x, segment, weights, counter, records)

    return RunResult(embedding=x, counter=counter, shapes=tuple(records))


# ---------------------------------------------------------------------------
# Gradient checking
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GradCheckReport:
    layer: Conv2d
    max_rel_error_weights: float
    max_rel_error_input: float
    tolerance: float
    failures: tuple[str, ...] = field(default_factory=tuple)

    @property
    def passed(self) -> bool:
        return not self.failures

    @property
    def max_rel_error(self) -> float:
        return max(self.max_rel_error_weights, self.max_rel_error_input)


def _loss_and_grad(x, layer, weight):
    y = conv2d_forward(x, layer, weight)
    return float(np.sum(y * y)), 2.0 * y


def _numeric_grad(f, array, h=1e-5):
    grad = np.zeros_like(array)
    flat = array.reshape(-1)
    gflat = grad.reshape(-1)
    for idx in range(flat.size):
        orig = flat[idx]
        flat[idx] = orig + h
        hi = f()
        flat[idx] = orig - h
        lo = f()
        flat[idx] = orig
        gflat[idx] = (hi - lo) / (2.0 * h)
    return grad


def _max_rel_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    # The denominator floor scales with the gradient magnitude so that
    # finite-difference roundoff on near-zero coordinates does not register
    # as relative error.
    scale = max(float(np.max(np.abs(numeric))), float(np.max(np.abs(analytic))), 1.0)
    floor = 1e-4 * scale
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return float(np.max(np.abs(analytic - numeric) / denom))


def gradcheck_conv(
    layer: Conv2d,
    x: np.ndarray | None = None,
    tolerance: float = 1e-4,
    seed: int = DEFAULT_SEED,
    h: float = 1e-5,
) -> GradCheckReport:
    """Compare analytic conv gradients against central finite differences.

    The loss is the sum of squared outputs. Intended for small layers; the
    numeric sweep touches every weight and input coordinate.
    """
    rng = np.random.default_rng(np.uint64(seed))
    if x is None:
        x = rng.uniform(-1.0, 1.0, size=(2, layer.in_channels, 6, 7))
    kf, kt = layer.kernel
    weight = rng.uniform(-1.0, 1.0, size=(layer.out_channels, layer.in_channels // layer.groups, kf, kt))

    _, grad_y = _loss_and_grad(x, layer, weight)
    grad_x, grad_w = conv2d_backward(x, layer, weight, grad_y)

    numeric_w = _numeric_grad(lambda: _loss_and_grad(x, layer, weight)[0], weight, h)
    numeric_x = _numeric_grad(lambda: _loss_and_grad(x, layer, weight)[0], x, h)

    err_w = _max_rel_error(grad_w, numeric_w)
    err_x = _max_rel_error(grad_x, numeric_x)
    failures = []
    if err_w > tolerance:
        failures.append(f"weight gradient rel err {err_w:.3e} > {tolerance:.1e}")
    if err_x > tolerance:
        failures.append(f"input gradient rel err {err_x:.3e} > {tolerance:.1e}")
    return GradCheckReport(
        layer=layer,
        max_rel_error_weights=err_w,
        max_rel_error_input=err_x,
        tolerance=tolerance,
        failures=tuple(failures),
    )
