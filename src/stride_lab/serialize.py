"""Wire formats: model-spec JSON (schema v1) and complexity-table CSV.

The JSON document carries the flat annotated layer list; loading rebuilds
the spec from it and re-validates every field through the dataclass
constructors, so a corrupted document (say, a stride of 3) is rejected.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass

from .layers import (
    Activation,
    Add,
    BatchNorm2d,
    Conv2d,
    Family,
    FullyConnected,
    GlobalAvgPool,
    Layer,
    LayerEntry,
    MaxPool2d,
    ModelSpec,
    Res2NetConv,
    Role,
    ShortcutKind,
    SqueezeExcite,
    StageSpec,
    TemporalStatsPool,
    BlockKind,
)
from .strides import StridePair, TrellisPath

__all__ = [
    "SCHEMA_VERSION",
    "SpecFormatError",
    "TableRow",
    "format_table",
    "model_from_json",
    "model_to_json",
    "parse_table",
]

SCHEMA_VERSION = 1


class SpecFormatError(ValueError):
    """Raised when a spec document cannot be parsed or validated."""


def _stride_dict(stride: StridePair) -> dict:
    return {"time": stride.time, "freq": stride.freq}


def _layer_dict(layer: Layer) -> dict:
    if isinstance(layer, Conv2d):
        return {
            "kind": "conv2d",
            "name": layer.name,
            "in_channels": layer.in_channels,
            "out_channels": layer.out_channels,
            "kernel": list(layer.kernel),
            "stride": _stride_dict(layer.stride),
            "padding": list(layer.padding),
            "dilation": list(layer.dilation),
            "groups": layer.groups,
            "bias": layer.bias,
        }
    if isinstance(layer, MaxPool2d):
        return {
            "kind": "maxpool2d",
            "name": layer.name,
            "kernel": list(layer.kernel),
            "stride": _stride_dict(layer.stride),
            "padding": list(layer.padding),
        }
    if isinstance(layer, BatchNorm2d):
        return {"kind": "batchnorm2d", "name": layer.name, "channels": layer.channels}
    if isinstance(layer, Activation):
        return {"kind": "activation", "name": layer.name, "fn": layer.fn}
    if isinstance(layer, Add):
        return {
            "kind": "add",
            "name": layer.name,
            "shortcut": layer.shortcut.value,
            "stride": _stride_dict(layer.stride),
        }
    if isinstance(layer, SqueezeExcite):
        return {
            "kind": "squeeze_excite",
            "name": layer.name,
            "channels": layer.channels,
            "reduction": layer.reduction,
        }
    if isinstance(layer, Res2NetConv):
        return {
            "kind": "res2net_conv",
            "name": layer.name,
            "channels": layer.channels,
            "scale": layer.scale,
            "kernel": list(layer.kernel),
            "padding": list(layer.padding),
        }
    if isinstance(layer, TemporalStatsPool):
        return {"kind": "temporal_stats_pool", "name": layer.name}
    if isinstance(layer, GlobalAvgPool):
        return {"kind": "global_avg_pool", "name": layer.name}
    if isinstance(layer, FullyConnected):
        return {
            "kind": "fully_connected",
            "name": layer.name,
            "in_dim": layer.in_dim,
            "out_dim": layer.out_dim,
            "bias": layer.bias,
        }
    raise SpecFormatError(f"unserializable layer {type(layer).__name__}")


def _pair(value, what: str) -> tuple[int, int]:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise SpecFormatError(f"{what} must be a 2-element list, got {value!r}")
    return (int(value[0]), int(value[1]))


def _parse_stride(value) -> StridePair:
    if not isinstance(value, dict) or set(value) != {"time", "freq"}:
        raise SpecFormatError(f"stride must be a {{time, freq}} object, got {value!r}")
    return StridePair(int(value["time"]), int(value["freq"]))


def _parse_layer(doc: dict) -> Layer:
    kind = doc.get("kind")
    name = doc.get("name")
    if not isinstance(name, str) or not name:
        raise SpecFormatError(f"layer missing name: {doc!r}")
    try:
        if kind == "conv2d":
            return Conv2d(
                name=name,
                in_channels=int(doc["in_channels"]),
                out_channels=int(doc["out_channels"]),
                kernel=_pair(doc["kernel"], "kernel"),
                stride=_parse_stride(doc["stride"]),
                padding=_pair(doc["padding"], "padding"),
                dilation=_pair(doc.get("dilation", [1, 1]), "dilation"),
                groups=int(doc.get("groups", 1)),
                bias=bool(doc.get("bias", False)),
            )
        if kind == "maxpool2d":
            return MaxPool2d(
                name=name,
                kernel=_pair(doc["kernel"], "kernel"),
                stride=_parse_stride(doc["stride"]),
                padding=_pair(doc.get("padding", [0, 0]), "padding"),
            )
        if kind == "batchnorm2d":
            return BatchNorm2d(name=name, channels=int(doc["channels"]))
        if kind == "activation":
            return Activation(name=name, fn=doc.get("fn", "relu"))
        if kind == "add":
            return Add(
                name=name,
                shortcut=ShortcutKind(doc["shortcut"]),
                stride=_parse_stride(doc.get("stride", {"time": 1, "freq": 1})),
            )
        if kind == "squeeze_excite":
            return SqueezeExcite(name=name, channels=int(doc["channels"]), reduction=int(doc["reduction"]))
        if kind == "res2net_conv":
            return Res2NetConv(
                name=name,
                channels=int(doc["channels"]),
                scale=int(doc["scale"]),
                kernel=_pair(doc.get("kernel", [3, 3]), "kernel"),
                padding=_pair(doc.get("padding", [1, 1]), "padding"),
            )
        if kind == "temporal_stats_pool":
            return TemporalStatsPool(name=name)
        if kind == "global_avg_pool":
            return GlobalAvgPool(name=name)
        if kind == "fully_connected":
            return FullyConnected(
                name=name,
                in_dim=int(doc["in_dim"]),
                out_dim=int(doc["out_dim"]),
                bias=bool(doc.get("bias", True)),
            )
    except SpecFormatError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise SpecFormatError(f"layer {name!r}: {exc}") from exc
    raise SpecFormatError(f"unknown layer kind {kind!r}")


def model_to_json(spec: ModelSpec, indent: int | None = 2) -> str:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "family": spec.family.value,
        "depth_label": spec.depth_label,
        "base_channels": spec.base_channels,
        "embedding_dim": spec.embedding_dim,
        "input_freq_bins": spec.input_freq_bins,
        "se_reduction": spec.se_reduction,
        "res2net_scale": spec.res2net_scale,
        "notes": list(spec.notes),
        "path": {
            "label": spec.path.label,
            "time_strides": list(spec.path.time_strides),
            "freq_strides": list(spec.path.freq_strides),
        },
        "stages": [
            {
                "index": s.index,
                "kind": s.kind.value,
                "width": s.width,
                "out_channels": s.out_channels,
                "num_blocks": s.num_blocks,
                "stride": _stride_dict(s.stride),
                "separate_downsample": s.separate_downsample,
            }
            for s in spec.stages
        ],
        "layers": [
            {
                "stage": e.stage,
                "block": e.block,
                "role": e.role.value,
                **_layer_dict(e.layer),
            }
            for e in spec.entries
        ],
    }
    return json.dumps(doc, indent=indent)


def model_from_json(text: str) -> ModelSpec:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SpecFormatError("spec document must be a JSON object")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise SpecFormatError(f"unsupported schema_version {version!r}")
    try:
        path_doc = doc["path"]
        path = TrellisPath.from_lists(
            tuple(int(v) for v in path_doc["time_strides"]),
            tuple(int(v) for v in path_doc["freq_strides"]),
            label=path_doc.get("label"),
        )
        stages = tuple(
            StageSpec(
                index=int(s["index"]),
                kind=BlockKind(s["kind"]),
                width=int(s["width"]),
                out_channels=int(s["out_channels"]),
                num_blocks=int(s["num_blocks"]),
                stride=_parse_stride(s["stride"]),
                separate_downsample=bool(s.get("separate_downsample", False)),
            )
            for s in doc["stages"]
        )
        entries = tuple(
            LayerEntry(
                layer=_parse_layer(e),
                stage=int(e["stage"]),
                block=None if e.get("block") is None else int(e["block"]),
                role=Role(e.get("role", "main")),
            )
            for e in doc["layers"]
        )
        # Weights and per-layer counts are keyed by name, so a repeated name
        # would silently alias two layers.
        seen: set[str] = set()
        for entry in entries:
            if entry.layer.name in seen:
                raise SpecFormatError(f"duplicate layer name {entry.layer.name!r}")
            seen.add(entry.layer.name)
        spec = ModelSpec(
            family=Family(doc["family"]),
            depth_label=int(doc["depth_label"]),
            base_channels=int(doc["base_channels"]),
            embedding_dim=int(doc["embedding_dim"]),
            input_freq_bins=int(doc["input_freq_bins"]),
            path=path,
            stages=stages,
            entries=entries,
            se_reduction=doc.get("se_reduction"),
            res2net_scale=doc.get("res2net_scale"),
            notes=tuple(doc.get("notes", ())),
        )
    except SpecFormatError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise SpecFormatError(str(exc)) from exc
    return spec


# ---------------------------------------------------------------------------
# Complexity-table CSV
# ---------------------------------------------------------------------------

TABLE_HEADER = (
    "index",
    "class",
    "alpha5",
    "beta5",
    "time_strides",
    "freq_strides",
    "params_millions",
    "flops_2s_giga",
    "flops_3s_giga",
    "cataloged",
)


@dataclass(frozen=True)
class TableRow:
    """One complexity-table row; numeric fields carry table precision."""

    index: str
    path_class: str
    alpha5: int
    beta5: int
    time_strides: tuple[int, ...]
    freq_strides: tuple[int, ...]
    params_millions: float
    flops_2s_giga: float
    flops_3s_giga: float
    cataloged: bool

    def as_record(self) -> tuple[str, ...]:
        return (
            self.index,
            self.path_class,
            str(self.alpha5),
            str(self.beta5),
            "-".join(str(v) for v in self.time_strides),
            "-".join(str(v) for v in self.freq_strides),
            f"{self.params_millions:.2f}",
            f"{self.flops_2s_giga:.2f}",
            f"{self.flops_3s_giga:.2f}",
            "yes" if self.cataloged else "no",
        )


def format_table(rows: list[TableRow] | tuple[TableRow, ...]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(TABLE_HEADER)
    for row in rows:
        writer.writerow(row.as_record())
    return buffer.getvalue()


def parse_table(text: str) -> tuple[TableRow, ...]:
    reader = csv.reader(io.StringIO(text))
    header = tuple(next(reader))
    if header != TABLE_HEADER:
        raise SpecFormatError(f"unexpected CSV header {header!r}")
    rows = []
    for record in reader:
        if not record:
            continue
        (index, path_class, alpha5, beta5, time_s, freq_s, params, f2, f3, cataloged) = record
        rows.append(
            TableRow(
                index=index,
                path_class=path_class,
                alpha5=int(alpha5),
                beta5=int(beta5),
                time_strides=tuple(int(v) for v in time_s.split("-")),
                freq_strides=tuple(int(v) for v in freq_s.split("-")),
                params_millions=float(params),
                flops_2s_giga=float(f2),
                flops_3s_giga=float(f3),
                cataloged=cataloged == "yes",
            )
        )
    return tuple(rows)
