"""Symbolic analysis: shape propagation, parameter and FLOPs accounting.

Shapes follow the floor-division convolution arithmetic
``out = (in + 2p - d*(k - 1) - 1) // s + 1`` per dimension.

FLOPs use the multiply-accumulate convention: one MAC per FLOP, counted for
convolutions and fully connected layers only. Batch norm, activations,
pooling, and residual adds count zero. Parameters count conv kernels
(bias-free, a batch norm always follows), 2 per batch-norm channel, and
fully connected weights plus biases.

One rule table, ``_RULES``, maps each layer type to its shape, parameter,
MAC and (for pooling and projection layers) head rule; ``propagate_shape``,
``layer_flops``, ``trace`` and the counts all dispatch through it. The
walk carries shapes as plain ``(C, F, T)`` tuples, ``count_params`` calls
each layer's parameter rule once, and ``count_flops`` takes MACs and
parameters from the same walk. Every entry is on that walk (the head
included), in entry order, so its parameters equal ``count_params``'s
layer for layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

from .layers import (
    Activation,
    Add,
    BatchNorm2d,
    ComplexityReport,
    Conv2d,
    FullyConnected,
    GlobalAvgPool,
    Layer,
    MaxPool2d,
    ModelSpec,
    Res2NetConv,
    Role,
    ShortcutKind,
    SqueezeExcite,
    TemporalStatsPool,
    TensorShape,
)
from .strides import StridePair

__all__ = [
    "AnalysisError",
    "ShapeUnderflowError",
    "TraceEntry",
    "compare",
    "conv_out_size",
    "count_flops",
    "count_params",
    "layer_flops",
    "propagate_shape",
    "trace",
]


class AnalysisError(ValueError):
    """Raised when a spec is internally inconsistent with a given input."""


class ShapeUnderflowError(AnalysisError):
    """A spatial dimension reached zero during propagation."""

    def __init__(self, dimension: str, layer_name: str, value: int):
        self.dimension = dimension
        self.layer_name = layer_name
        self.value = value
        super().__init__(
            f"{layer_name}: {dimension} dimension underflows to {value} (< 1)"
        )


def conv_out_size(r_in: int, kernel: int, padding: int, dilation: int, stride: int) -> int:
    """Output resolution of a strided window op along one dimension."""
    return (r_in + 2 * padding - dilation * (kernel - 1) - 1) // stride + 1


# Shapes travel as plain (C, F, T) tuples; TensorShape validates only at the
# public boundary.


def _spatial_out(
    shape: tuple[int, int, int], kernel: tuple[int, int], padding: tuple[int, int],
    dilation: tuple[int, int], stride: StridePair, layer_name: str,
) -> tuple[int, int]:
    f_out = conv_out_size(shape[1], kernel[0], padding[0], dilation[0], stride.freq)
    t_out = conv_out_size(shape[2], kernel[1], padding[1], dilation[1], stride.time)
    if f_out < 1:
        raise ShapeUnderflowError("freq", layer_name, f_out)
    if t_out < 1:
        raise ShapeUnderflowError("time", layer_name, t_out)
    return f_out, t_out


def _subsample(shape: tuple[int, int, int], stride: StridePair) -> tuple[int, int, int]:
    """Shape after parameter-free strided slicing (ceil division)."""
    return (shape[0], -(-shape[1] // stride.freq), -(-shape[2] // stride.time))


# -- shape rules: (layer, (C, F, T)) -> (C, F, T), for 4D-preserving layers --


def _conv_shape(layer: Conv2d, shape):
    if layer.in_channels != shape[0]:
        raise AnalysisError(f"{layer.name}: expects {layer.in_channels} channels, got {shape[0]}")
    f_out, t_out = _spatial_out(
        shape, layer.kernel, layer.padding, layer.dilation, layer.stride, layer.name
    )
    return (layer.out_channels, f_out, t_out)


def _pool_shape(layer: MaxPool2d, shape):
    f_out, t_out = _spatial_out(shape, layer.kernel, layer.padding, (1, 1), layer.stride, layer.name)
    return (shape[0], f_out, t_out)


def _norm_shape(layer: BatchNorm2d, shape):
    if layer.channels != shape[0]:
        raise AnalysisError(f"{layer.name}: normalizes {layer.channels} channels, got {shape[0]}")
    return shape


def _same_shape(layer: Activation, shape):
    return shape


def _channel_shape(layer: SqueezeExcite | Res2NetConv, shape):
    if layer.channels != shape[0]:
        raise AnalysisError(f"{layer.name}: channel mismatch with {shape[0]}")
    return shape


def _no_shape(layer, shape):
    raise AnalysisError(f"propagate_shape does not apply to {type(layer).__name__}")


# -- head rules: (layer, (C, F, T) or None, flat dim or None) -> flat dim --


def _stats_pool_head(layer: TemporalStatsPool, shape, flat):
    if shape is None:
        raise AnalysisError(f"{layer.name}: pooling needs a 4D feature map")
    return 2 * shape[0] * shape[1]


def _avg_pool_head(layer: GlobalAvgPool, shape, flat):
    if shape is None:
        raise AnalysisError(f"{layer.name}: pooling needs a 4D feature map")
    return shape[0]


def _fc_head(layer: FullyConnected, shape, flat):
    if flat is None:
        raise AnalysisError(f"{layer.name}: fully connected layer needs a flat input")
    if layer.in_dim != flat:
        raise AnalysisError(f"{layer.name}: expects input dim {layer.in_dim}, got {flat}")
    return layer.out_dim


# -- params rules: layer -> int; flops rules: (layer, out shape) -> int --


def _zero(layer, out_shape=None) -> int:
    return 0


def _conv_params(layer: Conv2d) -> int:
    kf, kt = layer.kernel
    count = kf * kt * (layer.in_channels // layer.groups) * layer.out_channels
    return count + layer.out_channels if layer.bias else count


def _conv_flops(layer: Conv2d, out_shape) -> int:
    kf, kt = layer.kernel
    _, f_out, t_out = out_shape
    return kf * kt * (layer.in_channels // layer.groups) * layer.out_channels * f_out * t_out


def _norm_params(layer: BatchNorm2d) -> int:
    return 2 * layer.channels


def _fc_params(layer: FullyConnected) -> int:
    count = layer.in_dim * layer.out_dim
    return count + layer.out_dim if layer.bias else count


def _fc_flops(layer: FullyConnected, out_shape) -> int:
    return layer.in_dim * layer.out_dim


def _se_params(layer: SqueezeExcite) -> int:
    hidden = layer.channels // layer.reduction
    return (layer.channels * hidden + hidden) + (hidden * layer.channels + layer.channels)


def _se_flops(layer: SqueezeExcite, out_shape) -> int:
    return 2 * layer.channels * (layer.channels // layer.reduction)


def _res2net_params(layer: Res2NetConv) -> int:
    kf, kt = layer.kernel
    w = layer.width
    branches = layer.scale - 1
    return branches * (kf * kt * w * w) + branches * 2 * w


def _res2net_flops(layer: Res2NetConv, out_shape) -> int:
    kf, kt = layer.kernel
    w = layer.width
    _, f_out, t_out = out_shape
    return (layer.scale - 1) * kf * kt * w * w * f_out * t_out


class _Rule(NamedTuple):
    """How analysis treats one layer type. ``head`` is set only for the
    layers that pool or project to a flat vector."""

    shape: Callable
    params: Callable
    flops: Callable
    head: Callable | None = None


#: The one per-layer-type dispatch of shape, parameter and MAC accounting.
_RULES = {
    Conv2d: _Rule(_conv_shape, _conv_params, _conv_flops),
    MaxPool2d: _Rule(_pool_shape, _zero, _zero),
    BatchNorm2d: _Rule(_norm_shape, _norm_params, _zero),
    Activation: _Rule(_same_shape, _zero, _zero),
    SqueezeExcite: _Rule(_channel_shape, _se_params, _se_flops),
    Res2NetConv: _Rule(_channel_shape, _res2net_params, _res2net_flops),
    Add: _Rule(_no_shape, _zero, _zero),
    TemporalStatsPool: _Rule(_no_shape, _zero, _zero, _stats_pool_head),
    GlobalAvgPool: _Rule(_no_shape, _zero, _zero, _avg_pool_head),
    FullyConnected: _Rule(_no_shape, _fc_params, _fc_flops, _fc_head),
}
_NO_RULE = _Rule(_no_shape, _zero, _zero)


def propagate_shape(shape: TensorShape, layer: Layer) -> TensorShape:
    """Feature-map shape after a single 4D-preserving layer."""
    return TensorShape(*_RULES.get(type(layer), _NO_RULE).shape(layer, shape.as_tuple()))


def layer_flops(layer: Layer, out_shape: tuple[int, ...]) -> int:
    """Multiply-accumulate count of one layer for a given output shape."""
    return _RULES.get(type(layer), _NO_RULE).flops(layer, out_shape)


@dataclass(frozen=True)
class TraceEntry:
    """Per-layer shape record: 3-tuples are (C, F, T) maps, 1-tuples are flat."""

    name: str
    in_shape: tuple[int, ...]
    out_shape: tuple[int, ...]


def _walk(spec: ModelSpec, freq: int, time: int, include_head: bool) -> list[tuple]:
    """(layer, rule, in shape, out shape) per traced layer, in entry order."""
    shape: tuple[int, ...] | None = TensorShape(1, freq, time).as_tuple()
    flat: int | None = None
    records: list[tuple] = []

    for segment in spec.segments():
        if segment.kind == "linear":
            for entry in segment.entries:
                if entry.stage == 0 and not include_head:
                    continue
                layer = entry.layer
                rule = _RULES.get(type(layer), _NO_RULE)
                if rule.head is not None:
                    in_repr = shape if shape is not None else (flat,)
                    flat = rule.head(layer, shape, flat)
                    shape = None
                    records.append((layer, rule, in_repr, (flat,)))
                else:
                    if shape is None:
                        raise AnalysisError(f"{layer.name}: feature map already flattened")
                    out = rule.shape(layer, shape)
                    records.append((layer, rule, shape, out))
                    shape = out
            continue

        if shape is None:
            raise AnalysisError("residual block after the head")
        block_in = branch = shortcut = shape
        merged = None
        for entry in segment.entries:
            layer = entry.layer
            rule = _RULES.get(type(layer), _NO_RULE)
            if type(layer) is Add:
                if layer.shortcut is ShortcutKind.SUBSAMPLE:
                    shortcut = _subsample(block_in, layer.stride)
                elif layer.shortcut is ShortcutKind.IDENTITY:
                    shortcut = block_in
                if branch != shortcut:
                    raise AnalysisError(
                        f"{layer.name}: branch shape {branch} != shortcut shape {shortcut}"
                    )
                merged = branch
                records.append((layer, rule, branch, merged))
            elif entry.role is Role.SHORTCUT:
                out = rule.shape(layer, shortcut)
                records.append((layer, rule, shortcut, out))
                shortcut = out
            else:
                src = merged if merged is not None else branch
                out = rule.shape(layer, src)
                records.append((layer, rule, src, out))
                if merged is not None:
                    merged = out
                else:
                    branch = out
        shape = merged if merged is not None else branch

    return records


def trace(
    spec: ModelSpec,
    freq: int | None = None,
    time: int = 300,
    include_head: bool = True,
) -> tuple[TraceEntry, ...]:
    """Propagate an input through the whole spec, one record per layer.

    Residual blocks branch from their block input: main-branch layers chain,
    shortcut layers see the block input, and the add asserts both sides meet
    at the same shape.
    """
    if freq is None:
        freq = spec.input_freq_bins
    return tuple(
        TraceEntry(layer.name, in_shape, out_shape)
        for layer, _, in_shape, out_shape in _walk(spec, freq, time, include_head)
    )


def count_params(spec: ModelSpec) -> ComplexityReport:
    """Exact parameter count; independent of any input shape."""
    by_layer = []
    for entry in spec.entries:
        layer = entry.layer
        params = _RULES.get(type(layer), _NO_RULE).params(layer)
        if params:
            by_layer.append((layer.name, params))
    return ComplexityReport(
        params_total=sum(v for _, v in by_layer),
        params_by_layer=tuple(by_layer),
    )


def count_flops(spec: ModelSpec, input_shape: TensorShape) -> ComplexityReport:
    """Exact MAC count for one input shape (batch of one)."""
    if input_shape.channels != 1:
        raise AnalysisError("backbones take single-channel spectrogram input")
    params_by_layer = []
    flops_by_layer = []
    for layer, rule, _, out_shape in _walk(spec, input_shape.freq, input_shape.time, True):
        params = rule.params(layer)
        if params:
            params_by_layer.append((layer.name, params))
        flops = rule.flops(layer, out_shape)
        if flops:
            flops_by_layer.append((layer.name, flops))
    return ComplexityReport(
        params_total=sum(v for _, v in params_by_layer),
        params_by_layer=tuple(params_by_layer),
        flops_total=sum(v for _, v in flops_by_layer),
        flops_by_layer=tuple(flops_by_layer),
        input_shape=input_shape,
    )


@dataclass(frozen=True)
class ComparisonDelta:
    """Signed percentage change of ``b`` relative to ``a``."""

    params_pct: float
    flops_pct: float | None


def compare(a: ComplexityReport, b: ComplexityReport) -> ComparisonDelta:
    params_pct = 100.0 * (b.params_total - a.params_total) / a.params_total
    flops_pct = None
    if a.flops_total is not None and b.flops_total is not None:
        if a.input_shape is not None and b.input_shape is not None:
            if a.input_shape.as_tuple() != b.input_shape.as_tuple():
                raise AnalysisError("comparing FLOPs measured at different input shapes")
        flops_pct = 100.0 * (b.flops_total - a.flops_total) / a.flops_total
    return ComparisonDelta(params_pct=params_pct, flops_pct=flops_pct)
