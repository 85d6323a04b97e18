"""Symbolic analysis: shape propagation, parameter and FLOPs accounting.

Shapes follow the floor-division convolution arithmetic
``out = (in + 2p - d*(k - 1) - 1) // s + 1`` per dimension.

FLOPs use the multiply-accumulate convention: one MAC per FLOP, counted for
convolutions and fully connected layers only. Batch norm, activations,
pooling, and residual adds count zero. Parameters count conv kernels
(bias-free, a batch norm always follows), 2 per batch-norm channel, and
fully connected weights plus biases.

One rule table, ``_RULES``, maps each layer type to its shape, parameter,
MAC and (for pooling and projection layers) head rule; ``trace`` and the
counts all dispatch through it. The
walk carries shapes as plain ``(C, F, T)`` tuples, ``count_params`` calls
each layer's parameter rule once, and ``count_flops`` takes MACs and
parameters from the same walk. Every entry is on that walk (the head
included), in entry order, so its parameters equal ``count_params``'s
layer for layer.

The walk may start at any block boundary from a given map, and it
returns the shape it ends at. A run's counts and output shape depend only
on its entries and its input shape, whether the run is a residual block or
the stem, max pool, downsampling conv or head between blocks, and so do a
part's. So a trellis ranking
(:func:`~stride_lab.trellis.rank_paths_by_flops`) sums the builder's own
parts (``builder._parts``: the stem, four stages and the head, each a
tuple of runs) through one table, ``_EDGES``, keyed by the part and its
input shape, that outlives the call. Its entries are the edges of the
stride trellis with their exact costs: a template's 1024 paths at one
duration pass through 256 of them, 4 stems, 4 stride pairs from each of
the 4, 9, 16 and 25 shapes stages 2..5 start at, and 36 heads (fewer when
ceiling shapes coincide, at F or T <= 16). A part seen at its shape, by this
ranking or an earlier one, costs one lookup, and only a new part is
walked, run by run.
A stage's cost is affine in its block count, since blocks 2..n share one
configuration and one input shape: a new stage walks its plumbing, its
first block and its block 2, and counts block 2 ``num_blocks - 1`` times
once block 2 is seen to end at the shape it started from.
A single ``count_flops`` walks the whole spec in one pass and keeps
nothing.

This module owns the table. Each value holds the part it keys, keeping
alive parts the builder's memos and template tables have dropped.
``_parts_totals`` clears the table whole when it finds it past
``_EDGE_TABLE_SIZE`` (4,096 entries, 16 template-durations) before it
counts a path; one path adds at most 6, so it never holds more than 4,102.
Traced on a 2-vCPU Xeon, an entry costs 210-320 B while the builder holds
its part and about 1.3 KB when it does not (ResNet152 and DF-ResNet182 at
32 widths, builder memos and tables cleared): at worst 5.1 MiB beside the
builder's memos, and 10.9 MiB with its template tables and their stored
requests. The benchmark's six sweep templates fill 1,236 entries (0.4
MiB); every preset and option fills 5,940 per duration.
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
    FEED_MERGE,
    FEED_SHORTCUT,
    FullyConnected,
    GlobalAvgPool,
    LayerEntry,
    MaxPool2d,
    ModelSpec,
    Res2NetConv,
    ShortcutKind,
    SqueezeExcite,
    TemporalStatsPool,
    TensorShape,
    route,
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
    raise AnalysisError(f"{layer.name}: no shape rule for {type(layer).__name__}")


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
    return kf * kt * (layer.in_channels // layer.groups) * layer.out_channels


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


@dataclass(frozen=True)
class TraceEntry:
    """Per-layer shape record: 3-tuples are (C, F, T) maps, 1-tuples are flat."""

    name: str
    in_shape: tuple[int, ...]
    out_shape: tuple[int, ...]


def _walk(entries, shape: tuple[int, ...]) -> tuple[list[tuple], tuple[int, ...]]:
    """(layer, rule, in shape, out shape) per entry, in entry order, each
    layer fed the shape that :func:`~stride_lab.layers.route` names, and
    the shape after the last entry.

    The walk may start at any block boundary, from a ``(C, F, T)`` map; it
    returns its end shape, ``(C, F, T)`` or, once a head layer has
    flattened the map, ``(n,)``, so a run that starts where another ended
    continues it exactly.
    """
    flat: int | None = None
    records: list[tuple] = []
    for layer, feed, opens in route(entries):
        rule = _RULES.get(type(layer), _NO_RULE)
        if opens:
            if shape is None:
                raise AnalysisError("residual block after the head")
            block_in = shortcut = shape
        if feed is FEED_SHORTCUT:
            out = rule.shape(layer, shortcut)
            records.append((layer, rule, shortcut, out))
            shortcut = out
        elif feed is FEED_MERGE:
            if layer.shortcut is ShortcutKind.SUBSAMPLE:  # strided slicing: ceil division
                c, f, t = block_in
                shortcut = (c, -(-f // layer.stride.freq), -(-t // layer.stride.time))
            elif layer.shortcut is ShortcutKind.IDENTITY:
                shortcut = block_in
            if shape != shortcut:
                raise AnalysisError(f"{layer.name}: branch shape {shape} != shortcut shape {shortcut}")
            records.append((layer, rule, shape, shape))
        elif rule.head is not None:
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
    return records, (shape if shape is not None else (flat,))


def _start(input_shape: TensorShape) -> tuple[int, int, int]:
    """The walk's start tuple for ``input_shape``: a backbone input has one channel."""
    if input_shape.channels != 1:
        raise AnalysisError("backbones take single-channel spectrogram input")
    return input_shape.as_tuple()


def trace(spec: ModelSpec, input_shape: TensorShape) -> tuple[TraceEntry, ...]:
    """Propagate an input through the whole spec, one record per layer.

    Residual blocks are routed by :func:`~stride_lab.layers.route`: main
    and shortcut layers chain from the block input, and the add asserts
    both sides meet at the same shape.
    """
    records, _ = _walk(spec.entries, _start(input_shape))
    return tuple(TraceEntry(layer.name, in_shape, out_shape) for layer, _, in_shape, out_shape in records)


def count_params(spec: ModelSpec) -> ComplexityReport:
    """Exact parameter count; independent of any input shape."""
    by_layer = []
    for entry in spec.entries:
        layer = entry.layer
        params = _RULES.get(type(layer), _NO_RULE).params(layer)
        if params:
            by_layer.append((layer.name, params))
    return ComplexityReport(params_by_layer=tuple(by_layer))


def count_flops(spec: ModelSpec, input_shape: TensorShape) -> ComplexityReport:
    """Exact MAC count for one input shape (batch of one)."""
    params_by_layer = []
    flops_by_layer = []
    for layer, rule, _, out_shape in _walk(spec.entries, _start(input_shape))[0]:
        params = rule.params(layer)
        if params:
            params_by_layer.append((layer.name, params))
        flops = rule.flops(layer, out_shape)
        if flops:
            flops_by_layer.append((layer.name, flops))
    return ComplexityReport(
        params_by_layer=tuple(params_by_layer),
        flops_by_layer=tuple(flops_by_layer),
        input_shape=input_shape,
    )


def _run_totals(run: tuple[LayerEntry, ...], shape: tuple[int, ...]) -> tuple:
    """``(params, MACs, out shape)`` of one run walked from ``shape``."""
    records, out = _walk(run, shape)
    return (sum(rule.params(layer) for layer, rule, _, _ in records),
            sum(rule.flops(layer, out_shape) for layer, rule, _, out_shape in records), out)


def _part_totals(part: tuple, shape: tuple[int, ...], further: int) -> tuple:
    """``(part, params, MACs, out shape)`` of one part walked from ``shape``,
    run by run.

    The last ``further`` runs are a stage's blocks 2..n, which
    ``builder._stage`` elaborates from the same arguments but their index.
    So the first of them is walked, and if it ends at the shape it started
    from, the rest cost what it costs: ``(n - 1) x`` one further block.
    Otherwise they are walked run by run like the others.
    """
    params = flops = 0
    first_further = len(part) - further
    for i, run in enumerate(part):
        run_params, run_flops, out = _run_totals(run, shape)
        if i == first_further and out == shape:
            return part, params + further * run_params, flops + further * run_flops, out
        params += run_params
        flops += run_flops
        shape = out
    return part, params, flops, shape


#: The rankings' edge table and its bound (see the module docstring).
_EDGES: dict = {}
_EDGE_TABLE_SIZE = 4096


def _parts_totals(parts, input_shape: TensorShape) -> tuple[int, int]:
    """The ``(params_total, flops_total)`` of ``count_flops`` on the spec
    that ``builder.build`` concatenates from ``parts``, the pairs that
    ``builder._parts`` yields.

    ``_EDGES``, cleared first if past its bound, maps a trellis edge,
    ``(id(part), in shape)``, to ``(part, params, MACs, out shape)``;
    holding the part keeps its id from being reused while the entry lives,
    so a rebuilt or patched part is a new tuple that misses, never a stale
    hit. A part seen at its input shape costs one lookup, and a new one is
    walked by :func:`_part_totals`.
    """
    if len(_EDGES) > _EDGE_TABLE_SIZE:
        _EDGES.clear()
    shape = _start(input_shape)
    params_total = flops_total = 0
    for stage, part in parts:
        totals = _EDGES.get((id(part), shape))
        if totals is None:
            further = stage.num_blocks - 1 if stage is not None else 0
            totals = _EDGES[id(part), shape] = _part_totals(part, shape, further)
        _, params, flops, shape = totals
        params_total += params
        flops_total += flops
    return params_total, flops_total


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
