"""Elaboration of (family, depth, path) triples into full model specs.

Families share a five-stage skeleton: a stem carrying the stage-1 stride,
four residual stages carrying stages 2..5, and an embedding head. They
differ in where a stage's stride lives (first block conv, the original
recipe's max pool, or a separate downsampling conv), in block architecture,
and in the head pooling.

Shortcut policy: a parametrized 1x1 projection (plus batch norm) is inserted
exactly when a block changes its channel count. A block that only changes
spatial resolution uses a parameter-free strided subsampling shortcut, which
keeps the parameter count of every path to a given endpoint identical.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .catalog import GOLDEN_GEMINI_FACTORS, PRINCIPAL_CONFIG
from .layers import (
    Activation,
    Add,
    BatchNorm2d,
    BlockKind,
    Conv2d,
    Family,
    FullyConnected,
    GlobalAvgPool,
    LayerEntry,
    MaxPool2d,
    ModelSpec,
    Res2NetConv,
    Role,
    ShortcutKind,
    SqueezeExcite,
    StageSpec,
    TemporalStatsPool,
)
from .strides import StridePair, TrellisPath, canonical_name, final_factors, resolve_name

__all__ = [
    "BuildError",
    "BuildRequest",
    "attach_head",
    "build",
    "default_base_channels",
    "default_block_counts",
    "depth_from_blocks",
    "request_from_spec",
]

UNIT = StridePair(1, 1)

#: Stage-depth presets per family. Keys are depth labels; values are
#: (block kind, per-stage block counts). For the depth-first family the
#: label already counts the separate downsampling convs, so the same block
#: counts appear under two labels (3 or 4 downsampling convs).
_RESNET_PRESETS: dict[int, tuple[BlockKind, tuple[int, ...]]] = {
    18: (BlockKind.BASIC, (2, 2, 2, 2)),
    34: (BlockKind.BASIC, (3, 4, 6, 3)),
    50: (BlockKind.BOTTLENECK, (3, 4, 6, 3)),
    101: (BlockKind.BOTTLENECK, (3, 4, 23, 3)),
    152: (BlockKind.BOTTLENECK, (3, 8, 36, 3)),
}

_DF_PRESETS: dict[int, tuple[int, ...]] = {
    59: (3, 3, 9, 3),
    60: (3, 3, 9, 3),
    113: (3, 3, 27, 3),
    114: (3, 3, 27, 3),
    182: (3, 8, 45, 3),
    183: (3, 8, 45, 3),
}

_SD_PRESETS: dict[int, tuple[int, ...]] = {
    22: (2, 2, 2, 2),
    38: (3, 4, 6, 3),
}

_BOTTLENECK_EXPANSION = 4
_DF_EXPANSION = 4


class BuildError(ValueError):
    """Raised when a build request is internally inconsistent."""


@dataclass(frozen=True)
class BuildRequest:
    family: Family
    depth_label: int
    path: TrellisPath
    base_channels: int
    block_counts: tuple[int, ...]
    embedding_dim: int = 256
    input_freq_bins: int = 80
    se_reduction: int | None = None
    res2net_scale: int | None = None


def default_base_channels(family: Family) -> int:
    return 64 if family is Family.ORIGINAL_RESNET else 32


def default_path(family: Family) -> TrellisPath:
    if family is Family.ORIGINAL_RESNET:
        return resolve_name("ORI")
    if family is Family.GEMINI_RESNET:
        return resolve_name(PRINCIPAL_CONFIG)
    return resolve_name("MOD")


def default_block_counts(family: Family, depth_label: int) -> tuple[BlockKind, tuple[int, ...]]:
    if family is Family.DF_RESNET:
        counts = _DF_PRESETS.get(depth_label)
        if counts is None:
            raise BuildError(f"no depth-first preset for depth {depth_label}")
        return (BlockKind.DF_INVERTED, counts)
    if family is Family.SD_RESNET:
        counts = _SD_PRESETS.get(depth_label)
        if counts is None:
            raise BuildError(f"no separate-downsampling preset for depth {depth_label}")
        return (BlockKind.BASIC, counts)
    preset = _RESNET_PRESETS.get(depth_label)
    if preset is None:
        raise BuildError(f"no preset for depth {depth_label}")
    return preset


def make_request(
    family: Family | str,
    depth_label: int,
    path: TrellisPath | str | None = None,
    base_channels: int | None = None,
    block_counts: tuple[int, ...] | None = None,
    embedding_dim: int = 256,
    input_freq_bins: int = 80,
    se_reduction: int | None = None,
    res2net_scale: int | None = None,
) -> BuildRequest:
    """Fill in family defaults and resolve path names."""
    if isinstance(family, str):
        try:
            family = Family(family)
        except ValueError as exc:
            raise BuildError(f"unknown family {family!r}") from exc
    if isinstance(path, str):
        path = resolve_name(path)
    if path is None:
        path = default_path(family)
    if block_counts is None:
        _, block_counts = default_block_counts(family, depth_label)
    return BuildRequest(
        family=family,
        depth_label=depth_label,
        path=path,
        base_channels=base_channels if base_channels is not None else default_base_channels(family),
        block_counts=tuple(block_counts),
        embedding_dim=embedding_dim,
        input_freq_bins=input_freq_bins,
        se_reduction=se_reduction,
        res2net_scale=res2net_scale,
    )


def depth_from_blocks(kind: BlockKind, m: int, extra_layers: int = 0) -> int:
    """Layer count: 2m or 3m convs in blocks, plus the stem conv and the
    embedding layer (k = 2), plus any separate downsampling convs."""
    if m < 1:
        raise BuildError("block count must be >= 1")
    per_block = 2 if kind is BlockKind.BASIC else 3
    return per_block * m + 2 + extra_layers


def _block_kind(req: BuildRequest) -> BlockKind:
    if req.family is Family.DF_RESNET:
        return BlockKind.DF_INVERTED
    if req.family is Family.SD_RESNET:
        return BlockKind.BASIC
    return default_block_counts(req.family, req.depth_label)[0]


def _sd_flags(req: BuildRequest) -> tuple[bool, bool, bool, bool]:
    """Which of stages 2..5 get a separate downsampling conv."""
    if req.family is Family.SD_RESNET:
        return (True, True, True, True)
    if req.family is Family.DF_RESNET:
        # Channel width changes force one at stages 3..5; stage 2 only needs
        # one when the path actually strides there.
        return (not req.path.steps[1].is_unit(), True, True, True)
    return (False, False, False, False)


def _validate_depth(req: BuildRequest, kind: BlockKind, sd_flags: tuple[bool, ...]) -> None:
    m = sum(req.block_counts)
    extra = sum(1 for flag in sd_flags if flag)
    expected = depth_from_blocks(kind, m, extra)
    if expected != req.depth_label:
        detail = f" incl. {extra} downsampling convs" if extra else ""
        raise BuildError(
            f"depth label {req.depth_label} does not match blocks {req.block_counts} "
            f"({kind.value} -> {expected} layers{detail})"
        )


def _check_options(req: BuildRequest, kind: BlockKind) -> None:
    if req.se_reduction is not None:
        if req.se_reduction < 1:
            raise BuildError("SE reduction ratio must be >= 1")
        if kind is BlockKind.DF_INVERTED:
            raise BuildError("SE blocks are not supported on the depth-first family")
    if req.res2net_scale is not None:
        if req.res2net_scale < 2:
            raise BuildError("res2net scale must be >= 2")
        if kind is not BlockKind.BASIC:
            raise BuildError("res2net splitting is only supported on basic blocks")
    if req.family is Family.GEMINI_RESNET and final_factors(req.path) not in GOLDEN_GEMINI_FACTORS:
        raise BuildError(
            f"gemini family requires a golden-gemini endpoint, got {final_factors(req.path)}"
        )


def _basic_block(
    entries: list[LayerEntry],
    stage: int,
    block: int,
    in_ch: int,
    out_ch: int,
    stride: StridePair,
    se_reduction: int | None,
    res2net_scale: int | None,
) -> None:
    prefix = f"stage{stage}.block{block}"
    main = [
        Conv2d(f"{prefix}.conv1", in_ch, out_ch, (3, 3), stride=stride, padding=(1, 1)),
        BatchNorm2d(f"{prefix}.bn1", out_ch),
        Activation(f"{prefix}.act1"),
    ]
    if res2net_scale:
        main.append(Res2NetConv(f"{prefix}.conv2", out_ch, res2net_scale))
    else:
        main.extend(
            [
                Conv2d(f"{prefix}.conv2", out_ch, out_ch, (3, 3), padding=(1, 1)),
                BatchNorm2d(f"{prefix}.bn2", out_ch),
            ]
        )
    _close_block(entries, prefix, stage, block, main, in_ch, out_ch, stride, se_reduction)


def _bottleneck_block(
    entries: list[LayerEntry],
    stage: int,
    block: int,
    in_ch: int,
    width: int,
    out_ch: int,
    stride: StridePair,
    se_reduction: int | None,
) -> None:
    prefix = f"stage{stage}.block{block}"
    main = [
        Conv2d(f"{prefix}.conv1", in_ch, width, (1, 1)),
        BatchNorm2d(f"{prefix}.bn1", width),
        Activation(f"{prefix}.act1"),
        Conv2d(f"{prefix}.conv2", width, width, (3, 3), stride=stride, padding=(1, 1)),
        BatchNorm2d(f"{prefix}.bn2", width),
        Activation(f"{prefix}.act2"),
        Conv2d(f"{prefix}.conv3", width, out_ch, (1, 1)),
        BatchNorm2d(f"{prefix}.bn3", out_ch),
    ]
    _close_block(entries, prefix, stage, block, main, in_ch, out_ch, stride, se_reduction)


def _df_block(entries: list[LayerEntry], stage: int, block: int, channels: int) -> None:
    hidden = channels * _DF_EXPANSION
    prefix = f"stage{stage}.block{block}"
    main = [
        Conv2d(f"{prefix}.conv1", channels, hidden, (1, 1)),
        BatchNorm2d(f"{prefix}.bn1", hidden),
        Activation(f"{prefix}.act1"),
        Conv2d(f"{prefix}.conv2", hidden, hidden, (3, 3), padding=(1, 1), groups=hidden),
        BatchNorm2d(f"{prefix}.bn2", hidden),
        Activation(f"{prefix}.act2"),
        Conv2d(f"{prefix}.conv3", hidden, channels, (1, 1)),
        BatchNorm2d(f"{prefix}.bn3", channels),
    ]
    for layer in main:
        entries.append(LayerEntry(layer, stage=stage, block=block))
    entries.append(
        LayerEntry(Add(f"{prefix}.add", ShortcutKind.IDENTITY), stage=stage, block=block)
    )
    entries.append(LayerEntry(Activation(f"{prefix}.act_out"), stage=stage, block=block))


def _close_block(
    entries: list[LayerEntry],
    prefix: str,
    stage: int,
    block: int,
    main: list,
    in_ch: int,
    out_ch: int,
    stride: StridePair,
    se_reduction: int | None,
) -> None:
    """Append a basic or bottleneck block: its main branch (plus SE), the
    shortcut, the merge and the output activation."""
    if se_reduction:
        main.append(SqueezeExcite(f"{prefix}.se", out_ch, se_reduction))
    for layer in main:
        entries.append(LayerEntry(layer, stage=stage, block=block))
    if in_ch != out_ch:
        entries.append(
            LayerEntry(
                Conv2d(f"{prefix}.shortcut.conv", in_ch, out_ch, (1, 1), stride=stride),
                stage=stage,
                block=block,
                role=Role.SHORTCUT,
            )
        )
        entries.append(
            LayerEntry(
                BatchNorm2d(f"{prefix}.shortcut.bn", out_ch),
                stage=stage,
                block=block,
                role=Role.SHORTCUT,
            )
        )
        kind = ShortcutKind.PROJECTION
    elif not stride.is_unit():
        kind = ShortcutKind.SUBSAMPLE
    else:
        kind = ShortcutKind.IDENTITY
    entries.append(LayerEntry(Add(f"{prefix}.add", kind, stride=stride), stage=stage, block=block))
    entries.append(LayerEntry(Activation(f"{prefix}.act_out"), stage=stage, block=block))


def _downsample_conv(
    entries: list[LayerEntry], stage: int, in_ch: int, out_ch: int, stride: StridePair
) -> None:
    prefix = f"stage{stage}.downsample"
    entries.append(
        LayerEntry(
            Conv2d(f"{prefix}.conv", in_ch, out_ch, (3, 3), stride=stride, padding=(1, 1)),
            stage=stage,
        )
    )
    entries.append(LayerEntry(BatchNorm2d(f"{prefix}.bn", out_ch), stage=stage))
    entries.append(LayerEntry(Activation(f"{prefix}.act"), stage=stage))


def build_body(req: BuildRequest) -> ModelSpec:
    """Elaborate the stem and the four residual stages (no head yet)."""
    if len(req.block_counts) != 4:
        raise BuildError(f"expected 4 per-stage block counts, got {req.block_counts}")
    kind = _block_kind(req)
    sd_flags = _sd_flags(req)
    _validate_depth(req, kind, sd_flags)
    _check_options(req, kind)

    c = req.base_channels
    entries: list[LayerEntry] = []
    stages: list[StageSpec] = []
    notes: list[str] = []
    original = req.family is Family.ORIGINAL_RESNET

    stem_kernel, stem_pad = ((7, 7), (3, 3)) if original else ((3, 3), (1, 1))
    entries.append(
        LayerEntry(
            Conv2d("stem.conv", 1, c, stem_kernel, stride=req.path.steps[0], padding=stem_pad),
            stage=1,
        )
    )
    entries.append(LayerEntry(BatchNorm2d("stem.bn", c), stage=1))
    entries.append(LayerEntry(Activation("stem.act"), stage=1))
    if original:
        entries.append(
            LayerEntry(
                MaxPool2d("stage2.maxpool", (3, 3), stride=req.path.steps[1], padding=(1, 1)),
                stage=2,
            )
        )
        if canonical_name(req.path) != "ORI":
            notes.append("non_canonical_path_for_original_family")

    in_ch = c
    for i, num_blocks in enumerate(req.block_counts):
        stage = i + 2
        width = c * (2 ** i)
        if kind is BlockKind.BOTTLENECK:
            out_ch = width * _BOTTLENECK_EXPANSION
        else:
            out_ch = width
        for option, value in (("SE reduction", req.se_reduction), ("res2net scale", req.res2net_scale)):
            if value and out_ch % value:
                raise BuildError(f"stage {stage}: {option} {value} does not divide its {out_ch} channels")
        path_stride = req.path.steps[stage - 1]
        # The original recipe consumes the stage-2 stride in its max pool.
        block_stage_stride = UNIT if (original and stage == 2) else path_stride
        has_sd = sd_flags[i]
        if has_sd:
            _downsample_conv(entries, stage, in_ch, out_ch, block_stage_stride)
            in_ch = out_ch
            block_stage_stride = UNIT
        stages.append(
            StageSpec(
                index=stage,
                kind=kind,
                width=width,
                out_channels=out_ch,
                num_blocks=num_blocks,
                stride=path_stride,
                separate_downsample=has_sd,
            )
        )
        for b in range(1, num_blocks + 1):
            stride = block_stage_stride if b == 1 else UNIT
            if kind is BlockKind.BASIC:
                _basic_block(
                    entries, stage, b, in_ch, out_ch, stride, req.se_reduction, req.res2net_scale
                )
            elif kind is BlockKind.BOTTLENECK:
                _bottleneck_block(
                    entries, stage, b, in_ch, width, out_ch, stride, req.se_reduction
                )
            else:
                _df_block(entries, stage, b, out_ch)
            in_ch = out_ch

    return ModelSpec(
        family=req.family,
        depth_label=req.depth_label,
        base_channels=req.base_channels,
        embedding_dim=req.embedding_dim,
        input_freq_bins=req.input_freq_bins,
        path=req.path.relabeled(canonical_name(req.path)),
        stages=tuple(stages),
        entries=tuple(entries),
        se_reduction=req.se_reduction,
        res2net_scale=req.res2net_scale,
        notes=tuple(notes),
    )


def _with_head(spec: ModelSpec, embedding_dim: int | None = None) -> ModelSpec:
    """Append the head, sized from the stage table and the path."""
    if embedding_dim is None:
        embedding_dim = spec.embedding_dim
    channels = spec.stages[-1].out_channels
    entries = list(spec.entries)
    if spec.family is Family.ORIGINAL_RESNET:
        entries.append(LayerEntry(GlobalAvgPool("head.pool"), stage=0))
        pooled = channels
    else:
        entries.append(LayerEntry(TemporalStatsPool("head.pool"), stage=0))
        pooled = 2 * channels * -(-spec.input_freq_bins // final_factors(spec.path)[1])
    entries.append(
        LayerEntry(FullyConnected("head.fc", pooled, embedding_dim, bias=True), stage=0)
    )
    return replace(spec, entries=tuple(entries), embedding_dim=embedding_dim)


def attach_head(spec: ModelSpec, embedding_dim: int | None = None) -> ModelSpec:
    """Append the pooling layer and the embedding projection.

    The classic image recipe keeps its channel-wise global average pool; the
    speech recipes pool first and second moments over time per
    (channel, freq) cell, tripling nothing and flattening to 2 * C * F.

    C and F are read from the spec, not traced: C is the last stage's
    ``out_channels`` and F is ``ceil(input_freq_bins / beta5)``, with
    ``beta5`` the path's cumulative freq stride. That is exact for every
    body the builder makes, since each of its striding layers maps n to
    ceil(n / 2). A spec whose layers disagree with its stages or path gets
    a head of the declared size, which analysis rejects: ``head.fc`` must
    take exactly the walked flat size.
    """
    if any(isinstance(e.layer, FullyConnected) for e in spec.entries):
        raise BuildError("spec already has a head")
    if not spec.stages:
        raise BuildError("spec has no stages to size a head from")
    return _with_head(spec, embedding_dim)


def build(req: BuildRequest) -> ModelSpec:
    """Full elaboration: body plus head."""
    return _with_head(build_body(req))


def request_from_spec(spec: ModelSpec, path: TrellisPath | None = None) -> BuildRequest:
    """Recover the build request a spec was elaborated from, optionally
    substituting a different stride configuration."""
    new_path = path if path is not None else spec.path
    family = spec.family
    if family is Family.GEMINI_RESNET and final_factors(new_path) not in GOLDEN_GEMINI_FACTORS:
        family = Family.MODIFIED_RESNET
    depth = spec.depth_label
    if family is Family.DF_RESNET and path is not None:
        # Keep the depth label consistent with the substituted path's
        # stage-2 downsampling conv.
        kind = BlockKind.DF_INVERTED
        extra = 3 + (0 if new_path.steps[1].is_unit() else 1)
        depth = depth_from_blocks(kind, sum(s.num_blocks for s in spec.stages), extra)
    return BuildRequest(
        family=family,
        depth_label=depth,
        path=new_path,
        base_channels=spec.base_channels,
        block_counts=tuple(s.num_blocks for s in spec.stages),
        embedding_dim=spec.embedding_dim,
        input_freq_bins=spec.input_freq_bins,
        se_reduction=spec.se_reduction,
        res2net_scale=spec.res2net_scale,
    )
