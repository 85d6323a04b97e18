"""Symbolic analysis: shape propagation, parameter and FLOPs accounting.

Shapes follow the floor-division convolution arithmetic
``out = (in + 2p - d*(k - 1) - 1) // s + 1`` per dimension.

FLOPs use the multiply-accumulate convention: one MAC per FLOP, counted for
convolutions and fully connected layers only. Batch norm, activations,
pooling, and residual adds count zero. Parameters count conv kernels
(bias-free, a batch norm always follows), 2 per batch-norm channel, and
fully connected weights plus biases.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    "layer_params",
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


def _spatial_out(
    shape: TensorShape, kernel: tuple[int, int], padding: tuple[int, int],
    dilation: tuple[int, int], stride: StridePair, layer_name: str,
) -> tuple[int, int]:
    f_out = conv_out_size(shape.freq, kernel[0], padding[0], dilation[0], stride.freq)
    t_out = conv_out_size(shape.time, kernel[1], padding[1], dilation[1], stride.time)
    if f_out < 1:
        raise ShapeUnderflowError("freq", layer_name, f_out)
    if t_out < 1:
        raise ShapeUnderflowError("time", layer_name, t_out)
    return f_out, t_out


def subsample_out(shape: TensorShape, stride: StridePair) -> TensorShape:
    """Shape after parameter-free strided slicing (ceil division)."""
    return TensorShape(
        channels=shape.channels,
        freq=-(-shape.freq // stride.freq),
        time=-(-shape.time // stride.time),
    )


def propagate_shape(shape: TensorShape, layer: Layer) -> TensorShape:
    """Feature-map shape after a single 4D-preserving layer."""
    if isinstance(layer, Conv2d):
        if layer.in_channels != shape.channels:
            raise AnalysisError(
                f"{layer.name}: expects {layer.in_channels} channels, got {shape.channels}"
            )
        f_out, t_out = _spatial_out(
            shape, layer.kernel, layer.padding, layer.dilation, layer.stride, layer.name
        )
        return TensorShape(layer.out_channels, f_out, t_out)
    if isinstance(layer, MaxPool2d):
        f_out, t_out = _spatial_out(
            shape, layer.kernel, layer.padding, (1, 1), layer.stride, layer.name
        )
        return TensorShape(shape.channels, f_out, t_out)
    if isinstance(layer, BatchNorm2d):
        if layer.channels != shape.channels:
            raise AnalysisError(
                f"{layer.name}: normalizes {layer.channels} channels, got {shape.channels}"
            )
        return shape
    if isinstance(layer, (Activation, SqueezeExcite, Res2NetConv)):
        if isinstance(layer, (SqueezeExcite, Res2NetConv)) and layer.channels != shape.channels:
            raise AnalysisError(f"{layer.name}: channel mismatch with {shape.channels}")
        return shape
    raise AnalysisError(f"propagate_shape does not apply to {type(layer).__name__}")


def layer_params(layer: Layer) -> int:
    """Exact learnable parameter count of one layer."""
    if isinstance(layer, Conv2d):
        kf, kt = layer.kernel
        count = kf * kt * (layer.in_channels // layer.groups) * layer.out_channels
        if layer.bias:
            count += layer.out_channels
        return count
    if isinstance(layer, BatchNorm2d):
        return 2 * layer.channels
    if isinstance(layer, FullyConnected):
        count = layer.in_dim * layer.out_dim
        if layer.bias:
            count += layer.out_dim
        return count
    if isinstance(layer, SqueezeExcite):
        hidden = layer.channels // layer.reduction
        return (layer.channels * hidden + hidden) + (hidden * layer.channels + layer.channels)
    if isinstance(layer, Res2NetConv):
        kf, kt = layer.kernel
        w = layer.width
        branches = layer.scale - 1
        return branches * (kf * kt * w * w) + branches * 2 * w
    return 0


def layer_flops(layer: Layer, out_shape: tuple[int, ...]) -> int:
    """Multiply-accumulate count of one layer for a given output shape."""
    if isinstance(layer, Conv2d):
        kf, kt = layer.kernel
        _, f_out, t_out = out_shape
        return kf * kt * (layer.in_channels // layer.groups) * layer.out_channels * f_out * t_out
    if isinstance(layer, FullyConnected):
        return layer.in_dim * layer.out_dim
    if isinstance(layer, SqueezeExcite):
        hidden = layer.channels // layer.reduction
        return 2 * layer.channels * hidden
    if isinstance(layer, Res2NetConv):
        kf, kt = layer.kernel
        w = layer.width
        _, f_out, t_out = out_shape
        return (layer.scale - 1) * kf * kt * w * w * f_out * t_out
    return 0


@dataclass(frozen=True)
class TraceEntry:
    """Per-layer shape record: 3-tuples are (C, F, T) maps, 1-tuples are flat."""

    name: str
    in_shape: tuple[int, ...]
    out_shape: tuple[int, ...]


def _head_shape(layer: Layer, shape: TensorShape | None, flat: int | None, name: str):
    if isinstance(layer, TemporalStatsPool):
        if shape is None:
            raise AnalysisError(f"{name}: pooling needs a 4D feature map")
        return 2 * shape.channels * shape.freq
    if isinstance(layer, GlobalAvgPool):
        if shape is None:
            raise AnalysisError(f"{name}: pooling needs a 4D feature map")
        return shape.channels
    if isinstance(layer, FullyConnected):
        if flat is None:
            raise AnalysisError(f"{name}: fully connected layer needs a flat input")
        if layer.in_dim != flat:
            raise AnalysisError(f"{name}: expects input dim {layer.in_dim}, got {flat}")
        return layer.out_dim
    raise AnalysisError(f"unsupported head layer {type(layer).__name__}")


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
    shape: TensorShape | None = TensorShape(1, freq, time)
    flat: int | None = None
    records: list[TraceEntry] = []

    for segment in spec.segments():
        if segment.kind == "linear":
            for entry in segment.entries:
                if entry.stage == 0 and not include_head:
                    continue
                layer = entry.layer
                if isinstance(layer, (TemporalStatsPool, GlobalAvgPool, FullyConnected)):
                    in_repr = shape.as_tuple() if shape is not None else (flat,)
                    flat = _head_shape(layer, shape, flat, layer.name)
                    shape = None
                    records.append(TraceEntry(layer.name, in_repr, (flat,)))
                else:
                    if shape is None:
                        raise AnalysisError(f"{layer.name}: feature map already flattened")
                    out = propagate_shape(shape, layer)
                    records.append(TraceEntry(layer.name, shape.as_tuple(), out.as_tuple()))
                    shape = out
            continue

        if shape is None:
            raise AnalysisError("residual block after the head")
        block_in = shape
        branch = block_in
        shortcut = block_in
        merged: TensorShape | None = None
        for entry in segment.entries:
            layer = entry.layer
            if isinstance(layer, Add):
                if layer.shortcut is ShortcutKind.SUBSAMPLE:
                    shortcut = subsample_out(block_in, layer.stride)
                elif layer.shortcut is ShortcutKind.IDENTITY:
                    shortcut = block_in
                if branch.as_tuple() != shortcut.as_tuple():
                    raise AnalysisError(
                        f"{layer.name}: branch shape {branch.as_tuple()} != "
                        f"shortcut shape {shortcut.as_tuple()}"
                    )
                merged = branch
                records.append(TraceEntry(layer.name, branch.as_tuple(), merged.as_tuple()))
            elif entry.role is Role.SHORTCUT:
                out = propagate_shape(shortcut, layer)
                records.append(TraceEntry(layer.name, shortcut.as_tuple(), out.as_tuple()))
                shortcut = out
            else:
                src = merged if merged is not None else branch
                out = propagate_shape(src, layer)
                records.append(TraceEntry(layer.name, src.as_tuple(), out.as_tuple()))
                if merged is not None:
                    merged = out
                else:
                    branch = out
        shape = merged if merged is not None else branch

    return tuple(records)


def count_params(spec: ModelSpec) -> ComplexityReport:
    """Exact parameter count; independent of any input shape."""
    by_layer = tuple(
        (entry.layer.name, layer_params(entry.layer))
        for entry in spec.entries
        if layer_params(entry.layer)
    )
    return ComplexityReport(
        params_total=sum(v for _, v in by_layer),
        params_by_layer=by_layer,
    )


def count_flops(spec: ModelSpec, input_shape: TensorShape) -> ComplexityReport:
    """Exact MAC count for one input shape (batch of one)."""
    if input_shape.channels != 1:
        raise AnalysisError("backbones take single-channel spectrogram input")
    records = trace(spec, freq=input_shape.freq, time=input_shape.time)
    by_name = {r.name: r for r in records}
    flops_by_layer = []
    for entry in spec.entries:
        layer = entry.layer
        record = by_name[layer.name]
        flops = layer_flops(layer, record.out_shape)
        if flops:
            flops_by_layer.append((layer.name, flops))
    params = count_params(spec)
    return ComplexityReport(
        params_total=params.params_total,
        params_by_layer=params.params_by_layer,
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
