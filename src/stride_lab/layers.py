"""Tensor shapes, layer specifications, and elaborated model specifications.

A :class:`ModelSpec` is a fully elaborated backbone: an ordered flat list of
:class:`LayerEntry` records, each tagging its layer with the stage, residual
block, and branch role it belongs to. The flat list is the single source of
truth; the symbolic analysis and the numeric kernel both walk it through
:func:`route`, the one place that decides which map feeds which layer.
Each layer checks its own fields when constructed; :meth:`ModelSpec.validate`
is the one gate for the rules that span layers, among them the path's
strides (its name derives from them) against its stages' and its layers'.

A :class:`Family`'s rules are one :class:`Recipe`, a row of ``_RECIPES``
that the builder, the CLI and display names read; one row adds a family.

Spatial tuples (kernel, padding, dilation) are in (freq, time) order,
matching the (channels, freq, time) tensor layout. Strides always travel as
:class:`~stride_lab.strides.StridePair` values with named components, so the
two orders never mix silently.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field
from itertools import zip_longest
from typing import Iterable, Iterator, Mapping, Union

from .catalog import GOLDEN_GEMINI_FACTORS, PRINCIPAL_CONFIG
from .strides import StridePair, TrellisPath, final_factors

__all__ = [
    "Activation",
    "Add",
    "BatchNorm2d",
    "BlockKind",
    "ComplexityReport",
    "Conv2d",
    "FEED_MAP",
    "FEED_MERGE",
    "FEED_SHORTCUT",
    "Family",
    "FullyConnected",
    "GlobalAvgPool",
    "Layer",
    "LayerEntry",
    "MaxPool2d",
    "ModelSpec",
    "Recipe",
    "Res2NetConv",
    "ShortcutKind",
    "SqueezeExcite",
    "StageSpec",
    "TemporalStatsPool",
    "TensorShape",
    "route",
]


def _check_positive(name: str, value: int) -> None:
    """A positive int; a bool is no int, as in the spec loader."""
    if type(value) is not int or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")


@dataclass(frozen=True)
class TensorShape:
    """A (channels, freq, time) feature-map shape; every field >= 1."""

    channels: int
    freq: int
    time: int

    def __post_init__(self) -> None:
        for name in ("channels", "freq", "time"):
            _check_positive(name, getattr(self, name))

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.channels, self.freq, self.time)


class Family(enum.Enum):
    ORIGINAL_RESNET = "original_resnet"
    MODIFIED_RESNET = "modified_resnet"
    GEMINI_RESNET = "gemini_resnet"
    DF_RESNET = "df_resnet"
    SD_RESNET = "sd_resnet"

    @functools.cached_property  # read on every build: an attribute once cached
    def recipe(self) -> Recipe:
        return _RECIPES[self]


class BlockKind(enum.Enum):
    BASIC = "basic"
    BOTTLENECK = "bottleneck"
    DF_INVERTED = "df_inverted"


@dataclass(frozen=True, eq=False)  # one per family: compared and hashed by identity
class Recipe:
    """One family's rules. ``presets``: depth label -> (block kind, per-stage
    block counts); ``block_kind``, the kind at every depth if one is, lets
    other labels build from given counts. ``original``: a 7x7 stem, a
    stage-2 max pool and an average-pool head. ``downsample``: which of
    stages 2..5 get a separate downsampling conv, on a path that keeps
    stage 2's resolution, then on one that strides there. ``golden``: the
    path must end at a golden-gemini endpoint."""

    display_name: str
    alias: str
    presets: Mapping[int, tuple[BlockKind, tuple[int, ...]]]
    default_path: str
    base_channels: int = 32
    original: bool = False
    downsample: tuple[tuple[bool, ...], tuple[bool, ...]] = ((False,) * 4,) * 2
    golden: bool = False
    block_kind: BlockKind | None = None

    def admits(self, path: TrellisPath) -> bool:
        """Whether ``path`` ends where this family may end."""
        return not self.golden or final_factors(path) in GOLDEN_GEMINI_FACTORS


_BASIC, _BOTTLENECK, _DF = BlockKind.BASIC, BlockKind.BOTTLENECK, BlockKind.DF_INVERTED
_RESNET_PRESETS = {18: (_BASIC, (2, 2, 2, 2)), 34: (_BASIC, (3, 4, 6, 3)), 50: (_BOTTLENECK, (3, 4, 6, 3)),
                   101: (_BOTTLENECK, (3, 4, 23, 3)), 152: (_BOTTLENECK, (3, 8, 36, 3))}
_RECIPES = {
    Family.ORIGINAL_RESNET: Recipe("original ResNet", "original-resnet", _RESNET_PRESETS, "ORI",
                                   base_channels=64, original=True),
    Family.MODIFIED_RESNET: Recipe("modified ResNet", "resnet", _RESNET_PRESETS, "MOD"),
    Family.GEMINI_RESNET: Recipe("Gemini ResNet", "gemini-resnet", _RESNET_PRESETS, PRINCIPAL_CONFIG,
                                 golden=True),
    # A depth-first label counts the separate downsampling convs, so each
    # block count has two labels: 3 convs, or 4 on a path striding at stage 2.
    Family.DF_RESNET: Recipe("DF-ResNet", "dfresnet", {
        59: (_DF, (3, 3, 9, 3)), 60: (_DF, (3, 3, 9, 3)), 113: (_DF, (3, 3, 27, 3)),
        114: (_DF, (3, 3, 27, 3)), 182: (_DF, (3, 8, 45, 3)), 183: (_DF, (3, 8, 45, 3)),
    }, "MOD", block_kind=_DF, downsample=((False, True, True, True), (True, True, True, True))),
    Family.SD_RESNET: Recipe("SD-ResNet", "sdresnet", {22: (_BASIC, (2, 2, 2, 2)), 38: (_BASIC, (3, 4, 6, 3))},
                             "MOD", block_kind=_BASIC, downsample=((True, True, True, True),) * 2),
}


class ShortcutKind(enum.Enum):
    IDENTITY = "identity"
    SUBSAMPLE = "subsample"
    PROJECTION = "projection"


@dataclass(frozen=True)
class Conv2d:
    name: str
    in_channels: int
    out_channels: int
    kernel: tuple[int, int]
    stride: StridePair = StridePair(1, 1)
    padding: tuple[int, int] = (0, 0)
    dilation: tuple[int, int] = (1, 1)
    groups: int = 1
    bias: bool = False

    def __post_init__(self) -> None:
        _check_positive("in_channels", self.in_channels)
        _check_positive("out_channels", self.out_channels)
        _check_positive("groups", self.groups)
        if self.in_channels % self.groups or self.out_channels % self.groups:
            raise ValueError(
                f"channels ({self.in_channels} -> {self.out_channels}) "
                f"must be divisible by groups ({self.groups})"
            )
        if min(self.kernel) < 1 or min(self.dilation) < 1:
            raise ValueError("kernel and dilation components must be >= 1")
        if min(self.padding) < 0:
            raise ValueError("padding components must be >= 0")
        if self.bias:
            raise ValueError("conv bias is not supported; a batch norm follows every conv")


@dataclass(frozen=True)
class MaxPool2d:
    name: str
    kernel: tuple[int, int]
    stride: StridePair
    padding: tuple[int, int] = (0, 0)

    def __post_init__(self) -> None:
        if min(self.kernel) < 1:
            raise ValueError("kernel components must be >= 1")
        if min(self.padding) < 0:
            raise ValueError("padding components must be >= 0")


@dataclass(frozen=True)
class BatchNorm2d:
    name: str
    channels: int

    def __post_init__(self) -> None:
        _check_positive("channels", self.channels)


@dataclass(frozen=True)
class Activation:
    name: str
    fn: str = "relu"

    def __post_init__(self) -> None:
        if self.fn != "relu":
            raise ValueError(f"unsupported activation {self.fn!r}")


@dataclass(frozen=True)
class Add:
    """Residual merge; carries the shortcut kind and the block's stride."""

    name: str
    shortcut: ShortcutKind
    stride: StridePair = StridePair(1, 1)


@dataclass(frozen=True)
class SqueezeExcite:
    """Channel attention: pooled squeeze, two fully connected layers, scale."""

    name: str
    channels: int
    reduction: int

    def __post_init__(self) -> None:
        _check_positive("channels", self.channels)
        if self.reduction < 1:
            raise ValueError("reduction ratio must be >= 1")
        if self.channels % self.reduction:
            raise ValueError(
                f"channels ({self.channels}) must be divisible by reduction ({self.reduction})"
            )


@dataclass(frozen=True)
class Res2NetConv:
    """Hierarchical multi-scale replacement for a 3x3 conv: the channel
    dimension splits into ``scale`` equal groups, the first passes through,
    each later group is convolved after adding the previous group's output."""

    name: str
    channels: int
    scale: int
    kernel: tuple[int, int] = (3, 3)
    padding: tuple[int, int] = (1, 1)

    def __post_init__(self) -> None:
        if self.scale < 2:
            raise ValueError("res2net scale must be >= 2")
        if self.channels % self.scale:
            raise ValueError(
                f"channels ({self.channels}) must split evenly into scale ({self.scale})"
            )

    @property
    def width(self) -> int:
        return self.channels // self.scale


@dataclass(frozen=True)
class TemporalStatsPool:
    """Mean and standard deviation over time per (channel, freq) cell,
    concatenated into a vector of length 2 * channels * freq."""

    name: str


@dataclass(frozen=True)
class GlobalAvgPool:
    """Channel-wise mean over both spatial dimensions."""

    name: str


@dataclass(frozen=True)
class FullyConnected:
    name: str
    in_dim: int
    out_dim: int
    bias: bool = True

    def __post_init__(self) -> None:
        _check_positive("in_dim", self.in_dim)
        _check_positive("out_dim", self.out_dim)


Layer = Union[
    Conv2d,
    MaxPool2d,
    BatchNorm2d,
    Activation,
    Add,
    SqueezeExcite,
    Res2NetConv,
    TemporalStatsPool,
    GlobalAvgPool,
    FullyConnected,
]


class Role(enum.Enum):
    MAIN = "main"
    SHORTCUT = "shortcut"


@dataclass(frozen=True)
class LayerEntry:
    """One layer in the flat elaboration, tagged with its structural slot.

    ``stage`` is 1 for the stem, 2..5 for residual stages, 0 for the head.
    ``block`` numbers residual blocks within a stage (1-based) and is None
    for plumbing outside blocks (stem, downsampling convs, head).
    """

    layer: Layer
    stage: int
    block: int | None = None
    role: Role = Role.MAIN


@dataclass(frozen=True)
class StageSpec:
    """Descriptor for one residual stage."""

    index: int
    kind: BlockKind
    width: int
    out_channels: int
    num_blocks: int
    stride: StridePair
    separate_downsample: bool = False


@dataclass(frozen=True)
class ModelSpec:
    """A fully elaborated backbone specification."""

    family: Family
    depth_label: int
    base_channels: int
    embedding_dim: int
    input_freq_bins: int
    path: TrellisPath
    stages: tuple[StageSpec, ...]
    entries: tuple[LayerEntry, ...]
    se_reduction: int | None = None
    res2net_scale: int | None = None
    notes: tuple[str, ...] = field(default_factory=tuple)

    @property
    def display_name(self) -> str:
        extras = []
        if self.se_reduction:
            extras.append("SE")
        if self.res2net_scale:
            extras.append(f"Res2Net(s={self.res2net_scale})")
        suffix = f" + {' + '.join(extras)}" if extras else ""
        return f"{self.family.recipe.display_name}{self.depth_label}{suffix}"

    def validate(self) -> None:
        """Check the rules no single layer can, in one :func:`route` pass:
        positive top-level sizes, a family that admits the path (as
        :func:`~.builder.build` requires), unique layer names, routable
        blocks, a head projection (the last :class:`FullyConnected`) whose
        ``out_dim`` is ``embedding_dim``, ``se_reduction`` and
        ``res2net_scale`` against their layers, the path's steps 2..5
        against the stages' strides, in order, then each step against the
        product of its stage's main-chain conv and pool strides (shortcut
        convs left out). Raises :class:`ValueError`."""
        for name in ("depth_label", "base_channels", "embedding_dim", "input_freq_bins"):
            _check_positive(name, getattr(self, name))
        if not self.family.recipe.admits(self.path):
            raise ValueError(f"gemini family requires a golden-gemini endpoint, got {final_factors(self.path)}")
        # Weights and per-layer counts are keyed by name, so a repeated name
        # would silently alias two layers.
        seen: set[str] = set()
        found = {SqueezeExcite: set(), Res2NetConv: set()}
        head = None
        layer_strides: dict[int, tuple[int, int]] = {}
        for entry, (layer, feed, _) in zip(self.entries, route(self.entries)):
            if layer.name in seen:
                raise ValueError(f"duplicate layer name {layer.name!r}")
            seen.add(layer.name)
            kind = type(layer)
            if kind is Conv2d or kind is MaxPool2d:
                stride = layer.stride  # most are unit strides, which change no product
                if stride.time * stride.freq > 1 and feed == FEED_MAP:
                    time, freq = layer_strides.get(entry.stage, (1, 1))
                    layer_strides[entry.stage] = (time * stride.time, freq * stride.freq)
            elif kind is SqueezeExcite:
                found[kind].add(layer.reduction)
            elif kind is Res2NetConv:
                found[kind].add(layer.scale)
            elif kind is FullyConnected:
                head = layer  # the last projection makes the embedding
        if head is None:
            raise ValueError(f"no FullyConnected layer makes the embedding (embedding_dim {self.embedding_dim})")
        if head.out_dim != self.embedding_dim:
            raise ValueError(
                f"embedding_dim {self.embedding_dim} does not match {head.name} out_dim {head.out_dim}"
            )
        for name, value, kind in (("se_reduction", self.se_reduction, SqueezeExcite),
                                  ("res2net_scale", self.res2net_scale, Res2NetConv)):
            if found[kind] != (set() if value is None else {value}):
                layers = ", ".join(map(str, sorted(found[kind]))) or "none"
                raise ValueError(f"{name} {value!r} does not match the {kind.__name__} layers ({layers})")
        strides = (stage.stride for stage in self.stages)
        for n, (stride, step) in enumerate(zip_longest(strides, self.path.steps[1:]), start=2):
            if stride != step:
                raise ValueError(f"stage {n} stride {stride} does not match the path's step {step}")
        for n, step in enumerate(self.path.steps, start=1):
            time, freq = layer_strides.get(n, (1, 1))
            if (time, freq) != (step.time, step.freq):
                raise ValueError(f"stage {n} layers stride (time={time}, freq={freq}) in all, "
                                 f"which does not match the path's step {step}")


#: What :func:`route` feeds a layer; the layer's output replaces that map.
#: Plain constants, and the shortcut role bound once: reading an enum member
#: off its class costs more than the rest of a walk's step.
FEED_MAP = "map"  # the running map
FEED_SHORTCUT = "shortcut"  # the block's shortcut chain
FEED_MERGE = "merge"  # the add: the shortcut merged into the running map
_SHORTCUT_ROLE = Role.SHORTCUT


def route(entries: Iterable[LayerEntry]) -> Iterator[tuple[Layer, str, bool]]:
    """``(layer, feed, opens)`` per entry, in order: the one routing rule.

    A residual block is a run of consecutive entries with the same
    ``(stage, block)``; ``opens`` is True on its first entry, where the
    running map becomes the block input. Main layers chain from the block
    input, shortcut layers chain from it too, the block's one add merges
    the shortcut into the running map, and layers after the add act on the
    merged map. Entries outside any block chain on the running map. The
    walk may start at any block boundary.

    Raises :class:`ValueError` at a block without exactly one add and at an
    add outside any block: neither can be routed.
    """
    stage = block = None
    adds = 0
    for entry in entries:
        layer = entry.layer
        opens = entry.block != block or entry.stage != stage
        if opens:
            _require_one_add(stage, block, adds)
            stage, block, adds = entry.stage, entry.block, 0
            opens = block is not None
        feed = FEED_MAP
        if type(layer) is Add:
            if block is None:
                raise ValueError(f"add layer {layer.name!r} is outside any residual block")
            adds += 1
            feed = FEED_MERGE
        elif entry.role is _SHORTCUT_ROLE and block is not None:
            feed = FEED_SHORTCUT
        yield layer, feed, opens
    _require_one_add(stage, block, adds)


def _require_one_add(stage: int | None, block: int | None, adds: int) -> None:
    if block is not None and adds != 1:
        raise ValueError(
            f"residual block stage{stage}.block{block} has {adds} add layers, expected exactly one"
        )


@dataclass(frozen=True)
class ComplexityReport:
    """Exact parameter and multiply-accumulate counts for a model. The totals
    sum the per-layer entries; a parameter-only count has no FLOPs (None)."""

    params_by_layer: tuple[tuple[str, int], ...]
    flops_by_layer: tuple[tuple[str, int], ...] | None = None
    input_shape: TensorShape | None = None

    @property
    def params_total(self) -> int:
        return sum(v for _, v in self.params_by_layer)

    @property
    def flops_total(self) -> int | None:
        if self.flops_by_layer is None:
            return None
        return sum(v for _, v in self.flops_by_layer)

    @property
    def params_millions(self) -> float:
        return self.params_total / 1e6

    @property
    def flops_giga(self) -> float | None:
        total = self.flops_total
        return None if total is None else total / 1e9
