"""Elaboration of (family, depth, path) triples into full model specs.

Families share a five-stage skeleton: a stem carrying the stage-1 stride,
four residual stages carrying stages 2..5, and an embedding head. They
differ in where a stage's stride lives (first block conv, the original
recipe's max pool, or a separate downsampling conv), in block architecture,
and in the head pooling: the fields of a family's :class:`~.layers.Recipe`,
which the functions here read. :func:`_parts` is the one rule that
assembles a path, run once per request object (``BuildRequest._row``), so
once per template and path for the requests a ranking stores in the
template's table: :func:`build` checks a request once and concatenates its
parts' entries, and a trellis ranking counts the same parts. :func:`build` does not run
:meth:`ModelSpec.validate`, which its output passes by construction (a test
holds it) and which costs more than the build: on a 2-vCPU Xeon, 43-46 µs
against 15-16 µs for a ResNet34 build, and 181-197 µs against 19-20 µs for
DF-ResNet182.

Block architecture is a table: per block kind, ``_MAIN`` lists the rows of
its main branch, one conv each (basic: 3x3, 3x3; bottleneck: 1x1, 3x3, 1x1
x4; depth-first inverted: 1x1 x4, depthwise 3x3, 1x1). :func:`_block`
builds every kind from its rows, and :func:`depth_from_blocks` counts them.

Shortcut policy: a parametrized 1x1 projection (plus batch norm) is inserted
exactly when a block changes its channel count. A block that only changes
spatial resolution uses a parameter-free strided subsampling shortcut, so
no shortcut makes a path's parameter count depend on where it strides.

The stem, the stages, the residual blocks and the head are memoized,
each keyed (typed: a ``4.0`` never answers for a ``4``) on exactly the
arguments that shape it. A path of a trellis sweep is assembled from
shared tuples and elaborates only the stages its strides are new to, and
of those only the first block, as blocks 2..n never stride. The memos drop
their least recently used entries past 1024 blocks (2-3 KB each), 256
stages, 64 stems and 64 heads; every preset family and depth on all 1024
paths, without SE or Res2Net, fills 236, 180, 8 and 11. A stage keeps its
blocks, so at worst (DF-ResNet182 at 120 widths) the memos hold 11 MiB,
against 3 MiB for blocks alone. Specs from different builds share the
memoized entries, which are frozen, so a spec's bytes, equality and counts
do not depend on what was built before it.

Above those memos, one table per template (every request field but the
path, :func:`_template`) holds three things. The template's trellis edges:
the ``(StageSpec or None, part)`` pairs of 4 stems, 16 stages and at most
6 heads on every preset, each elaborated once. Each edge's entries, one
flat tuple per part, flattened once. And, by ``path.label``, the requests
a ranking keeps (:func:`_request_rule`): :func:`request_from_spec`'s, each
checked once and holding its row, its six parts and their six entry
tuples. A ranking keeps them in one table, its first request's template
under the ranked spec's family (a Gemini spec's fallback requests, modified
ResNet's, stay in Gemini's table), found once that request passes its
checks. So a warm ranking makes that one request, and each of its paths
is a lookup and a build that runs no check, whose parts are the objects
every path of the template shares, whatever the memos below have dropped,
and which concatenates six tuples instead of copying each block's run
(DF-ResNet182 has about 60 runs and 604 entries). The memo keeps 8
templates (the benchmark's sweep uses 7). Traced on a 2-vCPU Xeon, a
stored request with its row costs about 560 B; after ranking all 36
endpoints for 32 base widths and clearing the memos below, 8 tables hold
6.3 MiB for ResNet152, and 10.9 MiB at worst together with the ranking's
edge table (see :mod:`.analysis`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

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
    Recipe,
    Res2NetConv,
    Role,
    ShortcutKind,
    SqueezeExcite,
    StageSpec,
    TemporalStatsPool,
)
from .strides import StridePair, TrellisPath, final_factors, resolve_name

__all__ = [
    "BuildError",
    "BuildRequest",
    "build",
    "depth_from_blocks",
    "request_from_spec",
]

UNIT = StridePair(1, 1)

#: Per block kind, its main branch: one row per conv, each (output channels
#: as a multiple of the stage width, kernel size, whether it carries the
#: block's stride, whether it is depthwise). A depth-first stage's stride is
#: always taken by its separate downsampling conv, so no DF row carries one.
_MAIN = {
    BlockKind.BASIC: ((1, 3, True, False), (1, 3, False, False)),
    BlockKind.BOTTLENECK: ((1, 1, False, False), (1, 3, True, False), (4, 1, False, False)),
    BlockKind.DF_INVERTED: ((4, 1, False, False), (4, 3, False, True), (1, 1, False, False)),
}

#: Most residual blocks, stages, and stems or heads the memos keep (see the module docstring).
_BLOCK_MEMO_SIZE = 1024
_STAGE_MEMO_SIZE = 256
_END_MEMO_SIZE = 64
#: Most templates whose tables the template memo keeps (see the module docstring).
_TEMPLATE_MEMO_SIZE = 8


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

    @cached_property
    def _row(self):
        """``(tuple(_parts(self)), each part's entries)``, the six entry
        tuples being the template table's own, one per edge. Made once per
        request object, so once per template and path for the requests a
        ranking stores (:func:`_request_rule`)."""
        _, entries, _ = _table(self)
        parts = tuple(_parts(self))
        return parts, tuple(entries[id(part)] for _, part in parts)

    @cached_property
    def _checked(self):
        """``_row``, once :func:`build`'s checks have passed on this request
        object: a failing check raises and records nothing, so it raises
        again on the next build and no table is made for it."""
        if len(self.block_counts) != 4:
            raise BuildError(f"expected 4 per-stage block counts, got {self.block_counts}")
        _check_integers(self)
        recipe = self.family.recipe
        kind = _block_kind(recipe, self.depth_label)
        _validate_depth(self, kind, _sd_flags(recipe, self.path))
        _check_options(self, recipe, kind)
        return self._row

    @property
    def _elaborated(self):
        """``tuple(_parts(self))``, from ``_row``: a ranking's count reads
        it, and ``build`` reads the same row."""
        return self._row[0]


def _preset(recipe: Recipe, depth_label: int) -> tuple[BlockKind, tuple[int, ...]]:
    preset = recipe.presets.get(depth_label)
    if preset is None:
        raise BuildError(f"no {recipe.display_name} preset for depth {depth_label}")
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
    recipe = family.recipe
    if path is None:
        path = recipe.default_path
    if isinstance(path, str):
        path = resolve_name(path)
    if block_counts is None:
        _, block_counts = _preset(recipe, depth_label)
    return BuildRequest(
        family=family,
        depth_label=depth_label,
        path=path,
        base_channels=base_channels if base_channels is not None else recipe.base_channels,
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
    return len(_MAIN[kind]) * m + 2 + extra_layers


def _block_kind(recipe: Recipe, depth_label: int) -> BlockKind:
    return recipe.block_kind or _preset(recipe, depth_label)[0]


def _sd_flags(recipe: Recipe, path: TrellisPath) -> tuple[bool, ...]:
    """Which of stages 2..5 get a separate downsampling conv: the one rule
    behind the depth labels that count them."""
    return recipe.downsample[not path.steps[1].is_unit()]


def _validate_depth(req: BuildRequest, kind: BlockKind, sd_flags: tuple[bool, ...]) -> None:
    extra = sum(sd_flags)
    expected = depth_from_blocks(kind, sum(req.block_counts), extra)
    if expected != req.depth_label:
        detail = f" incl. {extra} downsampling convs" if extra else ""
        raise BuildError(
            f"depth label {req.depth_label} does not match blocks {req.block_counts} "
            f"({kind.value} -> {expected} layers{detail})"
        )


def _check_integers(req: BuildRequest) -> None:
    """Sizes must be positive ints and options ints or None, bools and floats
    refused: a spec carrying either writes JSON its own loader rejects."""
    names = ("depth_label", "base_channels", "embedding_dim", "input_freq_bins")
    sizes = (req.depth_label, req.base_channels, req.embedding_dim, req.input_freq_bins, *req.block_counts)
    for i, value in enumerate(sizes):
        if type(value) is not int or value < 1:
            name = names[i] if i < 4 else f"block_counts[{i - 4}]"
            raise BuildError(f"{name} must be a positive integer, got {value!r}")
    for name in ("se_reduction", "res2net_scale"):
        value = getattr(req, name)
        if value is not None and type(value) is not int:
            raise BuildError(f"{name} must be an integer, got {value!r}")


def _check_options(req: BuildRequest, recipe: Recipe, kind: BlockKind) -> None:
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
    if not recipe.admits(req.path):
        raise BuildError(f"gemini family requires a golden-gemini endpoint, got {final_factors(req.path)}")
    if req.se_reduction is None and req.res2net_scale is None:
        return
    expansion = _MAIN[kind][-1][0]
    for i in range(4):
        channels = req.base_channels * 2 ** i * expansion
        for option, value in (("SE reduction", req.se_reduction), ("res2net scale", req.res2net_scale)):
            if value and channels % value:
                raise BuildError(f"stage {i + 2}: {option} {value} does not divide its {channels} channels")


@lru_cache(maxsize=_BLOCK_MEMO_SIZE, typed=True)
def _block(
    kind: BlockKind,
    stage: int,
    block: int,
    in_ch: int,
    width: int,
    out_ch: int,
    stride: StridePair,
    se_reduction: int | None,
    res2net_scale: int | None,
) -> tuple[LayerEntry, ...]:
    """One residual block's entries, memoized on exactly these arguments:
    its main branch from the rows of ``_MAIN[kind]``, a Res2Net split in
    place of conv 2 and its batch norm, then any SE, the shortcut, the merge
    and the output activation."""
    prefix = f"stage{stage}.block{block}"
    rows = _MAIN[kind]
    main = []
    ch = in_ch
    for i, (multiple, k, strided, depthwise) in enumerate(rows, 1):
        out = width * multiple
        if i == 2 and res2net_scale:
            main.append(Res2NetConv(f"{prefix}.conv2", out, res2net_scale))
        else:
            main.append(Conv2d(f"{prefix}.conv{i}", ch, out, (k, k), stride=stride if strided else UNIT,
                               padding=(k // 2, k // 2), groups=out if depthwise else 1))
            main.append(BatchNorm2d(f"{prefix}.bn{i}", out))
        if i < len(rows):
            main.append(Activation(f"{prefix}.act{i}"))
        ch = out
    if se_reduction:
        main.append(SqueezeExcite(f"{prefix}.se", out_ch, se_reduction))
    entries = [LayerEntry(layer, stage=stage, block=block) for layer in main]
    if in_ch != out_ch:
        entries += [
            LayerEntry(
                Conv2d(f"{prefix}.shortcut.conv", in_ch, out_ch, (1, 1), stride=stride),
                stage=stage,
                block=block,
                role=Role.SHORTCUT,
            ),
            LayerEntry(
                BatchNorm2d(f"{prefix}.shortcut.bn", out_ch),
                stage=stage,
                block=block,
                role=Role.SHORTCUT,
            ),
        ]
        shortcut = ShortcutKind.PROJECTION
    elif not stride.is_unit():
        shortcut = ShortcutKind.SUBSAMPLE
    else:
        shortcut = ShortcutKind.IDENTITY
    entries.append(LayerEntry(Add(f"{prefix}.add", shortcut, stride=stride), stage=stage, block=block))
    entries.append(LayerEntry(Activation(f"{prefix}.act_out"), stage=stage, block=block))
    return tuple(entries)


@lru_cache(maxsize=_END_MEMO_SIZE, typed=True)
def _stem(original: bool, c: int, stride: StridePair) -> tuple[None, tuple[tuple[LayerEntry, ...]]]:
    """``(None, the stem part)``: one run of the stem conv carrying the
    stage-1 stride, its batch norm and activation."""
    kernel, padding = ((7, 7), (3, 3)) if original else ((3, 3), (1, 1))
    layers = (Conv2d("stem.conv", 1, c, kernel, stride=stride, padding=padding),
              BatchNorm2d("stem.bn", c), Activation("stem.act"))
    return None, (tuple(LayerEntry(layer, stage=1) for layer in layers),)


@lru_cache(maxsize=_STAGE_MEMO_SIZE, typed=True)
def _stage(kind: BlockKind, stage: int, num_blocks: int, in_ch: int, width: int, out_ch: int,
           path_stride: StridePair, original: bool, has_sd: bool, se_reduction: int | None,
           res2net_scale: int | None) -> tuple[StageSpec, tuple[tuple[LayerEntry, ...], ...]]:
    """One residual stage's spec and part: a run of the original recipe's
    stage-2 max pool or the separate downsampling conv, if either, then the
    memoized blocks, the first of which carries whatever stride is left.

    Blocks 2..n come from identical :func:`_block` arguments except their
    index: ``out_ch`` in and out and a unit stride. So their counts are
    equal: a ranking walks a new stage part's plumbing, block 1 and block
    2, which stands for all ``num_blocks - 1`` (``analysis._part_totals``)."""
    plumbing: list[LayerEntry] = []
    stride = path_stride
    if original and stage == 2:
        # The original recipe consumes the stage-2 stride in its max pool.
        maxpool = MaxPool2d("stage2.maxpool", (3, 3), stride=stride, padding=(1, 1))
        plumbing, stride = [LayerEntry(maxpool, stage=2)], UNIT
    if has_sd:
        prefix = f"stage{stage}.downsample"
        conv = Conv2d(f"{prefix}.conv", in_ch, out_ch, (3, 3), stride=stride, padding=(1, 1))
        layers = (conv, BatchNorm2d(f"{prefix}.bn", out_ch), Activation(f"{prefix}.act"))
        plumbing += (LayerEntry(layer, stage=stage) for layer in layers)
        in_ch, stride = out_ch, UNIT
    runs = [tuple(plumbing)] if plumbing else []
    for b in range(1, num_blocks + 1):
        runs.append(_block(kind, stage, b, in_ch, width, out_ch, stride, se_reduction, res2net_scale))
        in_ch, stride = out_ch, UNIT
    spec = StageSpec(index=stage, kind=kind, width=width, out_channels=out_ch, num_blocks=num_blocks,
                     stride=path_stride, separate_downsample=has_sd)
    return spec, tuple(runs)


@lru_cache(maxsize=_END_MEMO_SIZE, typed=True)
def _head(original: bool, pooled: int, embedding_dim: int) -> tuple[None, tuple[tuple[LayerEntry, ...]]]:
    """``(None, the head part)``: one run of the pooling layer and the
    embedding layer on ``pooled`` inputs."""
    pool = GlobalAvgPool("head.pool") if original else TemporalStatsPool("head.pool")
    fc = FullyConnected("head.fc", pooled, embedding_dim, bias=True)
    return None, ((LayerEntry(pool, stage=0), LayerEntry(fc, stage=0)),)


@lru_cache(maxsize=_TEMPLATE_MEMO_SIZE, typed=True)
def _template(rules, family, depth_label, base_channels, embedding_dim, input_freq_bins, se_reduction,
              res2net_scale, *block_counts) -> tuple[dict, dict, dict]:
    """A template's ``(edges, entries, requests)`` table, filled by
    :func:`_parts` and :func:`_request_rule`: the ``(StageSpec or None,
    part)`` pairs of the stem per stride, of each stage per stride pair and
    downsampling flag and of the head per input size; each of those parts'
    entries as one flat tuple, by ``id(part)`` (``edges`` holds the part, so
    no id is reused); and, by ``path.label``, the checked requests that
    rankings keep in it (see the module docstring). Its key is every
    request field but the path, typed (block counts one by one, so a
    ``4.0`` never shares a ``4``'s table), and ``rules``, the functions that
    elaborate and check it, so one that is replaced (a test's patch) starts
    a new table instead of being served stale parts or requests."""
    return {}, {}, {}


def _table(req: BuildRequest, family: Family | None = None) -> tuple[dict, dict, dict]:
    """The table of ``req``'s template, or of its template under ``family``."""
    return _template((_parts, _stem, _stage, _head, _check_integers, _validate_depth, _check_options),
                     req.family if family is None else family, req.depth_label, req.base_channels,
                     req.embedding_dim, req.input_freq_bins, req.se_reduction, req.res2net_scale, *req.block_counts)


def _edge(table, key, rule, *args):
    """``table``'s edge at ``key``, elaborated as ``rule(*args)`` on a miss,
    when its part's entries are flattened once into the table too."""
    edges, entries = table[0], table[1]
    pair = edges.get(key)
    if pair is None:
        pair = edges[key] = rule(*args)
        entries[id(pair[1])] = tuple(entry for run in pair[1] for entry in run)
    return pair


def _parts(req: BuildRequest):
    """``(StageSpec or None, part)`` for the stem, stages 2..5 and the head
    of the unchecked ``req``, in order. A part is a tuple of runs, and a run
    is one residual block or the plumbing outside blocks (stem, max pool,
    downsampling conv, head). Each pair is an edge of the template's table,
    elaborated by :func:`_stem`, :func:`_stage` or :func:`_head` the first
    time a path of the template passes through it, so it is the same object
    for every such path while the table lives.

    The classic image recipe's head is a channel-wise global average pool;
    the speech recipes pool first and second moments over time per
    (channel, freq) cell, flattening to 2 * C * F. C and F are not traced:
    C is the last stage's output channels and F is
    ``ceil(input_freq_bins / beta5)``, with ``beta5`` the path's cumulative
    freq stride, which is exact because every striding layer maps n to
    ceil(n / 2).
    """
    table = _table(req)
    recipe = req.family.recipe
    kind = _block_kind(recipe, req.depth_label)
    sd_flags = _sd_flags(recipe, req.path)
    steps = req.path.steps
    expansion = _MAIN[kind][-1][0]
    yield _edge(table, (1, steps[0]), _stem, recipe.original, req.base_channels, steps[0])
    in_ch = req.base_channels
    for i, num_blocks in enumerate(req.block_counts):
        width = req.base_channels * 2 ** i
        out_ch = width * expansion
        yield _edge(table, (i + 2, steps[i + 1], sd_flags[i]), _stage, kind, i + 2, num_blocks, in_ch, width,
                    out_ch, steps[i + 1], recipe.original, sd_flags[i], req.se_reduction, req.res2net_scale)
        in_ch = out_ch
    pooled = out_ch if recipe.original else 2 * out_ch * -(-req.input_freq_bins // final_factors(req.path)[1])
    yield _edge(table, (0, pooled), _head, recipe.original, pooled, req.embedding_dim)


def build(req: BuildRequest) -> ModelSpec:
    """Check ``req``, once per request object (``BuildRequest._checked``),
    then concatenate its six parts' entry tuples, kept in its template's
    table, into a fresh spec, whose stages are its four stage parts'
    specs."""
    parts, (stem, stage2, stage3, stage4, stage5, head) = req._checked
    recipe = req.family.recipe
    return ModelSpec(
        family=req.family,
        depth_label=req.depth_label,
        base_channels=req.base_channels,
        embedding_dim=req.embedding_dim,
        input_freq_bins=req.input_freq_bins,
        path=req.path,
        stages=(parts[1][0], parts[2][0], parts[3][0], parts[4][0]),
        entries=(*stem, *stage2, *stage3, *stage4, *stage5, *head),
        se_reduction=req.se_reduction,
        res2net_scale=req.res2net_scale,
        notes=(("non_canonical_path_for_original_family",)
               if recipe.original and req.path.label != recipe.default_path else ()),
    )


def _request_rule(spec: ModelSpec):
    """``path -> BuildRequest``: :func:`request_from_spec`'s request,
    checked and kept by ``path.label`` in one template table, found once
    the rule's first request passes its checks (see the module docstring)."""
    store = {}  # a placeholder, empty only until the first request passes its checks

    def request(path: TrellisPath) -> BuildRequest:
        nonlocal store
        req = store.get(path.label)
        if req is None:
            req = request_from_spec(spec, path)
            req._checked  # raises if a check fails, before anything is stored
            if not store:
                store = _table(req, spec.family)[2]
            req = store.setdefault(path.label, req)
        return req

    return request


def request_from_spec(spec: ModelSpec, path: TrellisPath | None = None) -> BuildRequest:
    """Recover the build request a spec was elaborated from, or substitute
    ``path`` into it: the one substitution rule. Where the spec's family
    does not admit the path (Gemini off the golden endpoints) the request
    is modified ResNet's, and its depth label counts the blocks and the
    path's downsampling convs (:func:`_sd_flags`)."""
    path = path if path is not None else spec.path
    family = spec.family if spec.family.recipe.admits(path) else Family.MODIFIED_RESNET
    block_counts = tuple(s.num_blocks for s in spec.stages)
    kind = spec.stages[0].kind if spec.stages else None  # no stages: 0 blocks, refused
    depth_label = depth_from_blocks(kind, sum(block_counts), sum(_sd_flags(family.recipe, path)))
    return BuildRequest(family, depth_label, path, spec.base_channels, block_counts, spec.embedding_dim,
                        spec.input_freq_bins, spec.se_reduction, spec.res2net_scale)
