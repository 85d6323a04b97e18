"""Minimal numeric engine for verifying the symbolic analysis.

Executes a model spec on real tensors laid out as (batch, channels, freq,
time). Convolutions are direct, no FFT and no approximation.

Every layer computes in its input's precision: float32 input stays float32
end to end, and any other input computes in float64. Seeded weights are a
cyclic read of one block of :data:`WEIGHT_BLOCK` uniform values, drawn once
in float64 and cast once to the working precision, so a seed gives the same
weights in both, and a weight costs a copy instead of a random draw.
Neither precision nor weight values can change a verification verdict: the
output shapes and multiply counts that :mod:`stride_lab.verification`
compares are read from array dimensions, never from values.

Three conv regimes follow, chosen by the layer's shape alone:

* Depthwise convolutions (one input and one output channel per group) build
  no column buffer and no padded copy of the map: one block of channels at
  a time, at most :data:`DEPTHWISE_BUDGET` bytes, is copied into a
  zero-bordered scratch, and each kernel tap scales a strided slice of it
  by its per-channel weight into a block-sized tap array, which is added in
  place to the block's output channels. The taps run in the same order as
  over the whole map, so the output is bit-identical to a whole-map pass.
* 1x1 convolutions build no column buffer either: the input, subsampled when
  the layer strides, is the right-hand operand of one GEMM per group, so a
  stride-1 pointwise conv copies nothing and a strided one only its
  subsample.
* Other dense and grouped convolutions pad the input once into a zeroed
  array (not at all when the padding is zero) and use a tap-major im2col.
  A column buffer of at most :data:`COLUMN_BUDGET` bytes, shape (groups,
  in/groups * kf * kt, rows * batch * T_out), is filled with one
  strided-slice copy per kernel tap for a block of output rows, and one
  grouped matrix multiplication with the (groups, out/groups, in/groups *
  kf * kt) kernel matrix writes those rows of the output in (channels,
  freq, batch, time) order, which for a single input is already the
  (batch, channels, freq, time) layout. A buffer that fits the budget
  whole is one block and one GEMM.

Kernel windows follow one rule: :func:`_geometry` sizes the output and
holds the only kernel-span check, :func:`_padded` borders a map (zeros, or
-inf to max-pool), and :func:`_tap` is the strided view one kernel tap
reads; max pooling and the conv backward pass are loops over tap views.

A fully connected layer multiplies one block of at most
:data:`COLUMN_BUDGET` bytes of weight rows at a time.

:func:`run_model` without explicit weights reads each layer's weights just
before the layer runs, from the same seeded block and in the same order as
:func:`init_weights`, and drops them after use, so a model's weights are
never all held at once. A fully connected layer's weight matrix is read one
row block at a time as the product reads it, then its bias, so the head
matrix is never held whole either.

Ownership: ReLUs and residual adds write in place, but only into maps the
running :func:`run_model` call allocated and nothing else reads. The
caller's input, given weights, a block input that the shortcut still reads
and any view of it (the subsample shortcut) are never written; a layer that
returns its input, such as the BN identity, passes that input's ownership
on. So a residual block holds its input, the branch map and the output of
the layer running, plus that layer's bounded scratch, and no head matrix is
held whole.

An :class:`OpCounter` accumulates the multiply count of every convolution
and fully connected layer under the same MAC convention the symbolic side
uses, so the two can be compared for exact equality.

:func:`run_model` checks each map once for non-finite values: its input
and every layer output it allocates. So an overflow raises
:class:`KernelError` naming the first layer whose output is not finite,
never a numpy warning; the layer functions check shapes only and pass NaN
and infinity through as numpy does. Float32
tops out at 3.4e38. On uniform [-1, 1] input at 80x300, the largest
|activation| measured over every preset is about 4e13 (ORI152, whose
global average pooling squares nothing); the statistics-pooling families
stay below 6e4, so the squares they pool stay below 4e9.

Gradients are provided for single convolution layers only, enough to verify
the kernel against central finite differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .layers import (
    Activation,
    Add,
    BatchNorm2d,
    Conv2d,
    FEED_MAP,
    FEED_SHORTCUT,
    FullyConnected,
    GlobalAvgPool,
    MaxPool2d,
    ModelSpec,
    Res2NetConv,
    ShortcutKind,
    SqueezeExcite,
    TemporalStatsPool,
    route,
)
from .strides import StridePair

__all__ = [
    "GradCheckReport",
    "KernelError",
    "OpCounter",
    "RunResult",
    "check_seed",
    "conv2d_backward",
    "conv2d_forward",
    "gradcheck_conv",
    "init_weights",
    "run_model",
    "stats_pooling_forward",
]

STATS_EPS = 1e-10
DEFAULT_SEED = 20240417
#: Bytes of column buffer, in the working precision, one dense or grouped
#: k x k convolution may hold. A conv whose whole buffer is larger fills and
#: multiplies it one block of output rows at a time.
COLUMN_BUDGET = 4 << 20
#: Bytes of zero-bordered scratch a depthwise convolution pads one block of
#: channels into; a block holds at least one channel.
DEPTHWISE_BUDGET = 256 << 10
#: Length of the seeded block that weights are read from cyclically. Rows r
#: and r + d of an (out, fan_in) weight are equal exactly when d * fan_in is
#: a multiple of the length, so it is a prime: with 65,536, rows 0 and 64 of
#: ResNet34 MOD's 5,120-wide head would be equal.
WEIGHT_BLOCK = 65521
#: Step of the central finite differences :func:`gradcheck_conv` takes.
GRADCHECK_STEP = 1e-5


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


def _work_dtype(x: np.ndarray) -> np.dtype:
    """The dtype a layer computes ``x`` in: float32 for float32 input,
    float64 for any other."""
    return x.dtype if x.dtype == np.float32 else np.dtype(np.float64)


def _require_tensor4(x: np.ndarray, where: str) -> None:
    if x.ndim != 4:
        raise KernelError(f"{where}: expected a (batch, channels, freq, time) tensor, got {x.shape}")


def _require_finite_output(y: np.ndarray, name: str) -> None:
    if not np.isfinite(y).all():
        raise KernelError(f"{name}: first layer with a non-finite output ({y.dtype} overflow)")


def _geometry(x: np.ndarray, kernel, padding, dilation, stride: StridePair) -> tuple[int, int]:
    """(F_out, T_out) of a kernel sliding over ``x`` padded by ``padding``:
    the one check that the padded map holds the kernel's span."""
    (kf, kt), (pf, pt), (df, dt) = kernel, padding, dilation
    f_pad, t_pad = x.shape[2] + 2 * pf, x.shape[3] + 2 * pt
    span_f, span_t = df * (kf - 1) + 1, dt * (kt - 1) + 1
    if f_pad < span_f or t_pad < span_t:
        raise KernelError(
            f"spatial input {x.shape[2]}x{x.shape[3]} too small for kernel span {span_f}x{span_t}"
        )
    return (f_pad - span_f) // stride.freq + 1, (t_pad - span_t) // stride.time + 1


def _padded(x: np.ndarray, padding: tuple[int, int], fill: float = 0.0) -> np.ndarray:
    """``x`` bordered by ``padding`` rows and columns of ``fill``; ``x``
    itself when the padding is zero."""
    pf, pt = padding
    if not (pf or pt):
        return x
    b, c, f, t = x.shape
    xp = np.full((b, c, f + 2 * pf, t + 2 * pt), fill, x.dtype)
    xp[..., pf : pf + f, pt : pt + t] = x
    return xp


def _tap(a, i, j, dilation, stride: StridePair, f_out, t_out) -> np.ndarray:
    """The strided view of the padded map ``a`` (freq and time last) that
    kernel tap (i, j) reads at every one of the F_out x T_out positions."""
    f0, t0, sf, st = i * dilation[0], j * dilation[1], stride.freq, stride.time
    return a[..., f0 : f0 + sf * f_out : sf, t0 : t0 + st * t_out : st]


def conv2d_forward(
    x: np.ndarray,
    layer: Conv2d,
    weight: np.ndarray,
    counter: OpCounter | None = None,
) -> np.ndarray:
    """Direct grouped 2D convolution.

    ``weight`` has shape (out_channels, in_channels // groups, kf, kt).
    Depthwise layers (in/groups == out/groups == 1) accumulate one per-tap
    multiply into the output, padding one block of channels at a time. 1x1
    layers multiply the kernel matrix with the (strided) input directly.
    Other layers fill a tap-major im2col
    buffer of at most :data:`COLUMN_BUDGET` bytes one block of output rows
    at a time, each block one grouped GEMM written straight into its rows
    of the output. The output and every scratch buffer are in the working
    precision of ``x`` (float32 or float64), and ``weight`` is cast to it
    once. The counter gains exactly one multiply per kernel tap per output
    value.
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
    work = _work_dtype(x)
    weight = weight.astype(work, copy=False)
    pf, pt = layer.padding
    df, dt = layer.dilation
    sf, st = layer.stride.freq, layer.stride.time
    f_pad, t_pad = x.shape[2] + 2 * pf, x.shape[3] + 2 * pt
    f_out, t_out = _geometry(x, layer.kernel, layer.padding, layer.dilation, layer.stride)
    if cg == 1 and og == 1:
        # Output channel c reads input channel c only, so each tap is a
        # per-channel scale of one strided slice. One block of channels at
        # a time is padded into a scratch of at most DEPTHWISE_BUDGET bytes,
        # and its taps are added in place to those output channels through
        # a block-sized tap array, in whole-map tap order: bit-identical to
        # one pass over a padded map, with no padded copy of the map.
        out = np.zeros((b, g, f_out, t_out), work)
        ch = max(1, min(g, DEPTHWISE_BUDGET // (work.itemsize * b * f_pad * t_pad)))
        pad = np.zeros((b, ch, f_pad, t_pad), work) if pf or pt else None
        tap = np.empty((b, ch, f_out, t_out), work)
        for c0 in range(0, g, ch):
            n = min(ch, g - c0)
            src = x[:, c0 : c0 + n]
            if pad is not None:
                pad[:, :n, pf : pf + x.shape[2], pt : pt + x.shape[3]] = src
                src = pad[:, :n]
            acc, scaled = out[:, c0 : c0 + n], tap[:, :n]
            for i in range(kf):
                for j in range(kt):
                    window = _tap(src, i, j, layer.dilation, layer.stride, f_out, t_out)
                    np.multiply(window, weight[c0 : c0 + n, 0, i, j, None, None], out=scaled)
                    acc += scaled
    elif kf == kt == 1:
        # 1x1: the input, subsampled when the conv strides, is itself the
        # (cg, F_out*T_out) operand of each group's GEMM; at stride 1 the
        # reshape is a view and nothing is copied.
        xs = _padded(x, layer.padding)[:, :, ::sf, ::st].reshape(b, g, cg, f_out * t_out)
        out = np.matmul(weight.reshape(g, og, cg), xs).reshape(b, layer.out_channels, f_out, t_out)
    else:
        # Row (c, i, j) of group k holds input channel k*cg + c seen through
        # tap (i, j); columns run over output positions in (F_out, B, T_out)
        # order, so each block of output rows is one contiguous column range
        # of the (groups, out/groups, F_out*B*T_out) output.
        xg = _padded(x, layer.padding).reshape(b, g, cg, f_pad, t_pad).transpose(1, 2, 3, 0, 4)
        taps = cg * kf * kt
        row = b * t_out
        rows = max(1, min(f_out, COLUMN_BUDGET // (work.itemsize * g * taps * row)))
        buf = np.empty(g * taps * rows * row, work)
        w = weight.reshape(g, og, taps)
        out = np.empty((g, og, f_out * row), work)
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
    b, _, f, t = x.shape
    g = layer.groups
    cg = layer.in_channels // g
    og = layer.out_channels // g
    kf, kt = layer.kernel
    pf, pt = layer.padding
    f_out, t_out = _geometry(x, layer.kernel, layer.padding, layer.dilation, layer.stride)
    if grad_out.shape != (b, layer.out_channels, f_out, t_out):
        raise KernelError(
            f"{layer.name}: grad shape {grad_out.shape} != {(b, layer.out_channels, f_out, t_out)}"
        )
    gy = grad_out.reshape(b, g, og, f_out, t_out)
    wg = weight.reshape(g, og, cg, kf, kt)
    xg = _padded(x, layer.padding).reshape(b, g, cg, f + 2 * pf, t + 2 * pt)
    dtype = np.result_type(grad_out, x)
    grad_xg = np.zeros(xg.shape, dtype)
    grad_w = np.empty(wg.shape, dtype)
    for i, j in np.ndindex(kf, kt):
        window = _tap(xg, i, j, layer.dilation, layer.stride, f_out, t_out)
        grad_w[..., i, j] = np.einsum("bgoft,bgcft->goc", gy, window)
        window = _tap(grad_xg, i, j, layer.dilation, layer.stride, f_out, t_out)
        window += np.einsum("bgoft,goc->bgcft", gy, wg[..., i, j])
    grad_x = grad_xg[..., pf : pf + f, pt : pt + t].reshape(x.shape)
    return grad_x, grad_w.reshape(weight.shape)


def maxpool2d_forward(x: np.ndarray, layer: MaxPool2d) -> np.ndarray:
    """Each window's maximum, as a running maximum over the kernel taps of
    a copy of ``x`` bordered by -inf."""
    _require_tensor4(x, layer.name)
    f_out, t_out = _geometry(x, layer.kernel, layer.padding, (1, 1), layer.stride)
    xp = _padded(x, layer.padding, -np.inf)
    taps = (_tap(xp, i, j, (1, 1), layer.stride, f_out, t_out) for i, j in np.ndindex(layer.kernel))
    out = next(taps).copy()
    for window in taps:
        np.maximum(out, window, out=out)
    return out


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
    """``x @ weight.T + bias``, one block of weight rows at a time.

    A block holds at most :data:`COLUMN_BUDGET` bytes of ``weight`` cast to
    the working precision of ``x``. ``weight`` is read one slice of leading
    rows at a time, in order, and ``bias`` after it, so drawn-on-read
    weights (:class:`_Deferred`) work as well as arrays and give the same
    result.
    """
    if x.ndim != 2 or x.shape[1] != layer.in_dim:
        raise KernelError(f"{layer.name}: expected (batch, {layer.in_dim}) input, got {x.shape}")
    work = _work_dtype(x)
    rows = max(1, COLUMN_BUDGET // (work.itemsize * layer.in_dim))
    out = np.empty((x.shape[0], layer.out_dim), work)
    for r0 in range(0, layer.out_dim, rows):
        r1 = min(r0 + rows, layer.out_dim)
        np.matmul(x, weight[r0:r1].astype(work, copy=False).T, out=out[:, r0:r1])
    if layer.bias:
        out += bias[: layer.out_dim].astype(work, copy=False)
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
    work = _work_dtype(x)
    w1, b1, w2, b2 = (params[k].astype(work, copy=False) for k in ("w1", "b1", "w2", "b2"))
    squeezed = x.mean(axis=(2, 3))
    h = np.maximum(squeezed @ w1.T + b1, 0.0)
    gate = _sigmoid(h @ w2.T + b2)
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


# ---------------------------------------------------------------------------
# Whole-model execution
# ---------------------------------------------------------------------------


def _layer_params(spec: ModelSpec, draw, draw_fc=None):
    """(layer name, params) for every weighted layer, in entry order, each
    array made by ``draw(*shape)``, or by ``draw_fc(*shape)`` for a fully
    connected layer when given. The order fixes which draws of a seeded
    generator each layer receives."""
    draw_fc = draw_fc or draw
    for entry in spec.entries:
        layer = entry.layer
        if isinstance(layer, Conv2d):
            kf, kt = layer.kernel
            yield layer.name, {"w": draw(layer.out_channels, layer.in_channels // layer.groups, kf, kt)}
        elif isinstance(layer, FullyConnected):
            params = {"w": draw_fc(layer.out_dim, layer.in_dim)}
            if layer.bias:
                params["b"] = draw_fc(layer.out_dim)
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


def check_seed(seed: int) -> int:
    """``seed`` if it is in [0, 2**63), the seed range of every seeded
    generator here; raises :class:`ValueError` otherwise."""
    if not 0 <= seed < 2**63:
        raise ValueError(f"seed must be in [0, 2**63), got {seed}")
    return seed


def _uniform_draw(seed: int, dtype=np.float64):
    """``draw(*shape)``: a fresh ``dtype`` array of the next ``prod(shape)``
    values of one seeded block of :data:`WEIGHT_BLOCK` uniform [-0.1, 0.1]
    values, read cyclically. The block is drawn once in float64 and cast
    once, so a float32 weight is the cast of the float64 one."""
    rng = np.random.default_rng(np.uint64(check_seed(seed)))
    block = rng.uniform(-0.1, 0.1, WEIGHT_BLOCK).astype(dtype)
    pos = 0

    def draw(*shape: int) -> np.ndarray:
        nonlocal pos
        out = np.empty(math.prod(shape), block.dtype)
        done = 0
        while done < out.size:
            n = min(out.size - done, block.size - pos)
            out[done : done + n] = block[pos : pos + n]
            done += n
            pos = (pos + n) % block.size
        return out.reshape(shape)

    return draw


def init_weights(spec: ModelSpec, seed: int = DEFAULT_SEED) -> dict[str, dict]:
    """Deterministic uniform [-0.1, 0.1] float64 weights keyed by layer
    name: the seed's weight block read cyclically in entry order (see
    :data:`WEIGHT_BLOCK`)."""
    return dict(_layer_params(spec, _uniform_draw(seed)))


class _Deferred:
    """An array drawn when read, one slice of leading rows at a time.

    Drawing r rows reads the next r rows' worth of the cyclic weight block,
    so slices read in order, each once, give the values and the block
    position of drawing the whole array at once.
    """

    def __init__(self, draw, shape: tuple[int, ...]) -> None:
        self._draw, self._shape, self._next = draw, shape, 0

    def __getitem__(self, rows: slice) -> np.ndarray:
        start, stop = rows.start or 0, min(rows.stop, self._shape[0])
        if start != self._next:
            raise KernelError(f"drawn rows read out of order: {start} after {self._next}")
        self._next = stop
        return self._draw(stop - start, *self._shape[1:])


class _DrawnWeights:
    """``init_weights(spec, seed)`` drawn one layer at a time, in ``dtype``.

    Looking up a layer draws its params and keeps nothing, so at most one
    layer's weights are alive; a fully connected layer's are
    :class:`_Deferred`, drawn block by block as the product reads them.
    Lookups must come in entry order, the order in which :func:`run_model`
    executes layers.
    """

    def __init__(self, spec: ModelSpec, seed: int, dtype=np.float64) -> None:
        draw = _uniform_draw(seed, dtype)
        self._params = _layer_params(spec, draw, lambda *shape: _Deferred(draw, shape))

    def __getitem__(self, name: str) -> dict:
        drawn, params = next(self._params, (None, None))
        if drawn != name:
            raise KernelError(f"{name}: weights requested out of entry order (next drawn: {drawn})")
        return params


def _apply(layer, x, weights, counter, owned=False):
    """One layer's output. ``owned`` marks ``x`` as an array the running
    model allocated and nothing else reads, which a ReLU then overwrites."""
    if isinstance(layer, Conv2d):
        return conv2d_forward(x, layer, weights[layer.name]["w"], counter)
    if isinstance(layer, BatchNorm2d):
        # Inference mode with zero mean, unit variance, unit scale, zero
        # shift: an exact identity.
        return x
    if isinstance(layer, Activation):  # a ReLU, the one activation
        return np.maximum(x, 0.0, out=x if owned else None)
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


def _step(layer, x, owned, weights, counter, records):
    """(output, owned) of one layer, its shape recorded. An output that may
    share memory with ``x`` (the BN identity, an in-place ReLU) keeps the
    ownership of ``x``; any other output is a fresh array, owned."""
    y = _apply(layer, x, weights, counter, owned)
    records.append((layer.name, tuple(int(d) for d in y.shape[1:])))  # no batch axis
    if np.may_share_memory(x, y):
        return y, owned  # x's own buffer, still finite
    _require_finite_output(y, layer.name)
    return y, True


def _merge(layer: Add, x, owned, block_in, shortcut, records):
    """The add's output: the shortcut merged into ``x``, in place when
    ``x`` is owned. The identity and subsample shortcuts read the block
    input, a projection its shortcut chain's output."""
    if layer.shortcut is ShortcutKind.SUBSAMPLE:
        shortcut = block_in[:, :, :: layer.stride.freq, :: layer.stride.time]
    elif layer.shortcut is ShortcutKind.IDENTITY:
        shortcut = block_in
    if x.shape != shortcut.shape:
        raise KernelError(f"{layer.name}: branch {x.shape} != shortcut {shortcut.shape}")
    y = np.add(x, shortcut, out=x if owned else None)
    _require_finite_output(y, layer.name)
    records.append((layer.name, tuple(int(d) for d in y.shape[1:])))
    return y


def _run(entries, x, weights, counter, records):
    """The output of ``entries``, a walk that starts at a block boundary,
    fed as :func:`~stride_lab.layers.route` says. ``x`` is never written,
    and neither is a block input, which the shortcut still reads: a ReLU or
    an add works in place only on a map this walk allocated. An overflow
    raises the KernelError of the first layer whose output is not finite,
    not a numpy warning."""
    owned = False  # x is the caller's until a layer allocates
    with np.errstate(over="ignore", invalid="ignore"):
        for layer, feed, opens in route(entries):
            if opens:
                block_in = shortcut = x
                owned = False
            if feed is FEED_MAP:
                x, owned = _step(layer, x, owned, weights, counter, records)
            elif feed is FEED_SHORTCUT:
                shortcut, _ = _step(layer, shortcut, False, weights, counter, records)
            else:
                x, owned = _merge(layer, x, owned, block_in, shortcut, records), True
    return x


def run_model(
    spec: ModelSpec,
    x: np.ndarray,
    weights: dict | None = None,
    seed: int = DEFAULT_SEED,
) -> RunResult:
    """Execute a spec end to end.

    Without ``weights``, each layer's weights are read from the block of
    ``seed`` (see :data:`WEIGHT_BLOCK`), already in the working precision,
    just before the layer runs and dropped after it, with the values
    ``init_weights(spec, seed)`` would give cast to that precision, so at
    most one layer's weights are held at a time; a fully connected layer's
    are read one block of rows at a time as its product reads them, so no
    whole head matrix is held either. Given weights go through the same
    blocked product, so both modes give bit-identical embeddings.

    ``x`` and ``weights`` are never written: ReLUs and residual adds work
    in place only on maps this call allocated (see the module docstring),
    so a block holds its input, the branch map and the output of the layer
    running, plus that layer's scratch of at most :data:`COLUMN_BUDGET` or
    :data:`DEPTHWISE_BUDGET` bytes.

    Every layer computes in the precision of ``x`` (float32 stays float32,
    anything else is float64), and a layer whose output is not finite
    raises :class:`KernelError`.

    Returns the embedding matrix (batch, embedding_dim), the op counter, and
    one (layer name, output shape) record per layer; 4D shapes drop the
    batch axis so they compare directly against the symbolic trace.
    """
    _require_tensor4(x, "run_model")
    if not np.isfinite(x).all():
        raise KernelError("run_model: tensor contains non-finite values")
    if x.shape[1] != 1:
        raise KernelError("backbones take single-channel spectrogram input")
    if weights is None:
        weights = _DrawnWeights(spec, seed, _work_dtype(x))
    counter = OpCounter()
    records: list[tuple[str, tuple[int, ...]]] = []
    x = _run(spec.entries, x, weights, counter, records)
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


def _numeric_grad(f, array):
    grad = np.zeros_like(array)
    flat = array.reshape(-1)
    gflat = grad.reshape(-1)
    for idx in range(flat.size):
        orig = flat[idx]
        flat[idx] = orig + GRADCHECK_STEP
        hi = f()
        flat[idx] = orig - GRADCHECK_STEP
        lo = f()
        flat[idx] = orig
        gflat[idx] = (hi - lo) / (2.0 * GRADCHECK_STEP)
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
) -> GradCheckReport:
    """Compare analytic conv gradients against central finite differences.

    The loss is the sum of squared outputs. Intended for small layers; the
    numeric sweep touches every weight and input coordinate.
    """
    rng = np.random.default_rng(np.uint64(check_seed(seed)))
    if x is None:
        x = rng.uniform(-1.0, 1.0, size=(2, layer.in_channels, 6, 7))
    kf, kt = layer.kernel
    weight = rng.uniform(-1.0, 1.0, size=(layer.out_channels, layer.in_channels // layer.groups, kf, kt))

    _, grad_y = _loss_and_grad(x, layer, weight)
    grad_x, grad_w = conv2d_backward(x, layer, weight, grad_y)

    numeric_w = _numeric_grad(lambda: _loss_and_grad(x, layer, weight)[0], weight)
    numeric_x = _numeric_grad(lambda: _loss_and_grad(x, layer, weight)[0], x)

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
