"""Wire formats: model-spec JSON (schema v1) and complexity-table CSV.

Schema v1 is generated from the spec dataclasses in :mod:`.layers`. A layer
is ``{"stage", "block", "role", "kind", **fields}`` in field order, a stage
is its fields, and the document is ``schema_version``, the model's fields
(``entries`` travel as ``layers``). Ints, bools and strings are JSON values
of exactly that type, pairs 2-element lists, strides ``{time, freq}``
objects, enums their values. Loading checks every value against its field's
declared type with no coercion, lets a field be left out only when its
dataclass has a default, and re-validates through the dataclass
constructors; any non-conforming document raises :class:`SpecFormatError`.
"""

from __future__ import annotations

import csv
import enum
import io
import json
from dataclasses import MISSING, dataclass, fields
from operator import attrgetter
from typing import get_type_hints

from .layers import (
    Activation,
    Add,
    BatchNorm2d,
    Conv2d,
    FullyConnected,
    GlobalAvgPool,
    LayerEntry,
    MaxPool2d,
    ModelSpec,
    Res2NetConv,
    SqueezeExcite,
    StageSpec,
    TemporalStatsPool,
)
from .strides import STRIDE_VALUES, StridePair, TrellisPath

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

#: Kind registry: the schema-v1 ``kind`` of every layer class.
_LAYER_KINDS = {
    Conv2d: "conv2d",
    MaxPool2d: "maxpool2d",
    BatchNorm2d: "batchnorm2d",
    Activation: "activation",
    Add: "add",
    SqueezeExcite: "squeeze_excite",
    Res2NetConv: "res2net_conv",
    TemporalStatsPool: "temporal_stats_pool",
    GlobalAvgPool: "global_avg_pool",
    FullyConnected: "fully_connected",
}


class SpecFormatError(ValueError):
    """Raised when a spec document cannot be parsed or validated."""


# A checker takes a decoded JSON value and its field name, and returns the
# field value or raises SpecFormatError.


def _reject(name: str, expected: str, value) -> SpecFormatError:
    return SpecFormatError(f"{name} must be {expected}, got {value!r}")


def _exact(cls: type, expected: str):
    """Checker accepting only values of type ``cls`` itself (a bool is no int)."""

    def check(value, name: str):
        if type(value) is not cls:
            raise _reject(name, expected, value)
        return value

    return check


_int = _exact(int, "an integer")
_bool = _exact(bool, "true or false")
_list = _exact(list, "a list")


def _optional_int(value, name: str) -> int | None:
    return None if value is None else _int(value, name)


def _str(value, name: str) -> str:
    if type(value) is not str or not value:
        raise _reject(name, "a non-empty string", value)
    return value


def _strings(value, name: str) -> tuple[str, ...]:
    return tuple(_str(v, f"{name} item") for v in _list(value, name))


def _pair(value, name: str) -> tuple[int, int]:
    if type(value) is list and len(value) == 2 and type(value[0]) is int and type(value[1]) is int:
        return (value[0], value[1])
    raise _reject(name, "a 2-element list of integers", value)


_STRIDES = {(t, f): StridePair(t, f) for t in STRIDE_VALUES for f in STRIDE_VALUES}


def _stride(value, name: str) -> StridePair:
    if type(value) is dict and len(value) == 2:
        key = (value.get("time"), value.get("freq"))
        if type(key[0]) is int and type(key[1]) is int and key in _STRIDES:
            return _STRIDES[key]
    raise _reject(name, "a {time, freq} object of 1s and 2s", value)


def _stride_dict(stride: StridePair) -> dict:
    return {"time": stride.time, "freq": stride.freq}


def _path(value, name: str) -> TrellisPath:
    if type(value) is not dict:
        raise _reject(name, "an object", value)
    time, freq = (
        tuple(_int(v, key) for v in _list(value.get(key), key))
        for key in ("time_strides", "freq_strides")
    )
    label = value.get("label")
    return TrellisPath.from_lists(time, freq, label=None if label is None else _str(label, "label"))


def _path_dict(path: TrellisPath) -> dict:
    return {
        "label": path.label,
        "time_strides": list(path.time_strides),
        "freq_strides": list(path.freq_strides),
    }


def _stages(value, name: str) -> tuple[StageSpec, ...]:
    return tuple(_decode(StageSpec, s) for s in _list(value, name))


def _enum_codec(cls: type[enum.Enum]):
    members = {member.value: member for member in cls}

    def check(value, name: str):
        if type(value) is str and value in members:
            return members[value]
        raise _reject(name, f"one of {sorted(members)}", value)

    return attrgetter("value"), check


#: Declared field type -> (encoder, checker); a None encoder means the
#: value is already JSON. Enums are added per class by ``_plan``.
_CODECS = {
    int: (None, _int),
    int | None: (None, _optional_int),
    bool: (None, _bool),
    str: (None, _str),
    tuple[int, int]: (list, _pair),
    tuple[str, ...]: (list, _strings),
    StridePair: (_stride_dict, _stride),
    TrellisPath: (_path_dict, _path),
    tuple[StageSpec, ...]: (lambda stages: [_encode(s, {}) for s in stages], _stages),
}


def _plan(cls: type, order: tuple[str, ...] | None = None) -> tuple:
    """(field, encoder, checker, required) per field of ``cls``, in ``order``
    (default: declaration order). Fields outside ``order`` are skipped."""
    hints = get_type_hints(cls)
    by_name = {f.name: f for f in fields(cls)}
    plan = []
    for name in order or tuple(by_name):
        hint = hints[name]
        codec = _enum_codec(hint) if isinstance(hint, enum.EnumMeta) else _CODECS[hint]
        required = by_name[name].default is MISSING and by_name[name].default_factory is MISSING
        plan.append((name, *codec, required))
    return tuple(plan)


def _encode(obj, doc: dict) -> dict:
    """Add ``obj``'s fields to ``doc`` by its class's plan."""
    for name, encoder, _, _ in _PLANS[type(obj)]:
        value = getattr(obj, name)
        doc[name] = value if encoder is None else encoder(value)
    return doc


def _decode(cls: type, doc, **given):
    """Build ``cls`` from the JSON object ``doc`` by its plan, on top of
    the already-decoded fields in ``given``."""
    if type(doc) is not dict:
        raise _reject(cls.__name__, "an object", doc)
    try:
        for name, _, check, required in _PLANS[cls]:
            if name in doc:
                given[name] = check(doc[name], name)
            elif required:
                raise SpecFormatError(f"missing field {name!r}")
        return cls(**given)
    except (TypeError, ValueError) as exc:
        raise SpecFormatError(str(exc)) from exc


_LAYER_CLASSES = {kind: cls for cls, kind in _LAYER_KINDS.items()}

#: ModelSpec fields in document order; ``entries`` travels as ``layers``.
_MODEL_FIELDS = (
    "family", "depth_label", "base_channels", "embedding_dim", "input_freq_bins",
    "se_reduction", "res2net_scale", "notes", "path", "stages",
)

# Built once: serialization is on the analyze hot path.
_PLANS = {
    **{cls: _plan(cls) for cls in (*_LAYER_KINDS, StageSpec)},
    LayerEntry: _plan(LayerEntry, order=("stage", "block", "role")),
    ModelSpec: _plan(ModelSpec, order=_MODEL_FIELDS),
}


def _encode_entry(entry: LayerEntry) -> dict:
    kind = _LAYER_KINDS.get(type(entry.layer))
    if kind is None:
        raise SpecFormatError(f"unserializable layer {type(entry.layer).__name__}")
    doc = _encode(entry, {})
    doc["kind"] = kind
    return _encode(entry.layer, doc)


def _decode_entry(doc) -> LayerEntry:
    if type(doc) is not dict:
        raise _reject("layer", "an object", doc)
    try:
        kind = doc.get("kind")
        if type(kind) is not str or kind not in _LAYER_CLASSES:
            raise SpecFormatError(f"unknown layer kind {kind!r}")
        return _decode(LayerEntry, doc, layer=_decode(_LAYER_CLASSES[kind], doc))
    except SpecFormatError as exc:
        raise SpecFormatError(f"layer {doc.get('name')!r}: {exc}") from None


def model_to_json(spec: ModelSpec, indent: int | None = 2) -> str:
    doc = _encode(spec, {"schema_version": SCHEMA_VERSION})
    doc["layers"] = [_encode_entry(e) for e in spec.entries]
    return json.dumps(doc, indent=indent)


def model_from_json(text: str) -> ModelSpec:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecFormatError(f"invalid JSON: {exc}") from exc
    if type(doc) is not dict:
        raise SpecFormatError("spec document must be a JSON object")
    version = doc.get("schema_version")
    if type(version) is not int or version != SCHEMA_VERSION:
        raise SpecFormatError(f"unsupported schema_version {version!r}")
    if "layers" not in doc:
        raise SpecFormatError("missing field 'layers'")
    entries = tuple(_decode_entry(e) for e in _list(doc["layers"], "layers"))
    # Weights and per-layer counts are keyed by name, so a repeated name
    # would silently alias two layers.
    seen: set[str] = set()
    for entry in entries:
        if entry.layer.name in seen:
            raise SpecFormatError(f"duplicate layer name {entry.layer.name!r}")
        seen.add(entry.layer.name)
    return _decode(ModelSpec, doc, entries=entries)


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
