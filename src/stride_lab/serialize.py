"""Wire formats: model-spec JSON (schema v1) and complexity-table CSV.

Schema v1 is generated from the spec dataclasses in :mod:`.layers`. A layer
is ``{"stage", "block", "role", "kind", **fields}`` in field order, a stage
is its fields, and the document is ``schema_version``, the model's fields
(``entries`` travel as ``layers``). Ints, bools and strings are JSON values
of exactly that type, pairs 2-element lists, strides ``{time, freq}``
objects, enums their values.

Writing goes through templates compiled once, at import, from the same
per-class field plans the loader uses: each layer class (with its entry's
``stage``/``block``/``role`` and its ``kind``), :class:`StageSpec` and the
top level get one ``%``-format string with keys, two-space indentation and
brackets baked in. Per object, one ``attrgetter`` fetches the slot values,
a few converters render ``null``, ``true``/``false``, pairs and escaped
strings (:func:`json.encoder.encode_basestring_ascii`), and one ``%`` fills
the template. The bytes are those of ``json.dumps(doc, indent=2)``.

Loading checks every value against its field's declared type with no
coercion, lets a field be left out only when its dataclass has a default,
rejects keys the schema does not name, and re-validates through the
dataclass constructors. The top-level ints must be positive,
``embedding_dim`` must equal the head projection's ``out_dim``, and
``se_reduction``/``res2net_scale`` must match the SE/Res2Net layers. Any
non-conforming document raises :class:`SpecFormatError`.
"""

from __future__ import annotations

import csv
import enum
import io
import json
from dataclasses import MISSING, dataclass, fields
from json.encoder import encode_basestring_ascii as _quote
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
from .strides import NUM_STAGES, STRIDE_VALUES, StridePair, TrellisPath

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
# field value or raises SpecFormatError. A slot takes a field's attribute
# path and the indentation of its key line, and returns the field's JSON
# text with %-placeholders plus one (attribute path, converter or None) per
# placeholder; a None converter means the value fills its placeholder as is.


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


_PATH_KEYS = frozenset(("label", "time_strides", "freq_strides"))


def _path(value, name: str) -> TrellisPath:
    if type(value) is not dict:
        raise _reject(name, "an object", value)
    _check_keys(value, _PATH_KEYS, "path ")
    time, freq = (
        tuple(_int(v, key) for v in _list(value.get(key), key))
        for key in ("time_strides", "freq_strides")
    )
    label = value.get("label")
    return TrellisPath.from_lists(time, freq, label=None if label is None else _str(label, "label"))


def _stages(value, name: str) -> tuple[StageSpec, ...]:
    return tuple(_decode_stage(s) for s in _list(value, name))


def _check_keys(doc: dict, known: frozenset, where: str) -> None:
    if not doc.keys() <= known:
        key = next(k for k in doc if k not in known)
        raise SpecFormatError(f"unknown {where}field {key!r}")


def _array(items: list[str], pad: str) -> str:
    """JSON array of already-rendered items under a key indented by ``pad``."""
    if not items:
        return "[]"
    return f"[\n{pad}  " + f",\n{pad}  ".join(items) + f"\n{pad}]"


def _scalar(fragment: str, convert=None):
    return lambda attr, pad: (fragment, ((attr, convert),))


def _null_or(value):
    return "null" if value is None else value


def _pair_slot(attr: str, pad: str):
    return "%s", ((attr, f"[\n{pad}  %d,\n{pad}  %d\n{pad}]".__mod__),)


def _stride_slot(attr: str, pad: str):
    text = f'{{\n{pad}  "time": %d,\n{pad}  "freq": %d\n{pad}}}'
    return text, ((f"{attr}.time", None), (f"{attr}.freq", None))


def _strings_slot(attr: str, pad: str):
    return "%s", ((attr, lambda values: _array([_quote(v) for v in values], pad)),)


def _path_slot(attr: str, pad: str):
    inner = pad + "  "
    ints = f",\n{inner}  ".join(["%d"] * NUM_STAGES)
    text = (f'{{\n{inner}"label": %s,\n{inner}"time_strides": [\n{inner}  {ints}\n{inner}],'
            f'\n{inner}"freq_strides": [\n{inner}  {ints}\n{inner}]\n{pad}}}')

    def render(path: TrellisPath) -> str:
        label = "null" if path.label is None else _quote(path.label)
        return text % (label, *path.time_strides, *path.freq_strides)

    return "%s", ((attr, render),)


def _stages_slot(attr: str, pad: str):
    write = _writer(_members(StageSpec), pad + "  ")
    return "%s", ((attr, lambda stages: _array([write(s) for s in stages], pad)),)


def _enum_codec(cls: type[enum.Enum]):
    members = {member.value: member for member in cls}
    # Values go into the template between baked-in quotes.
    assert all(_quote(value) == f'"{value}"' for value in members)

    def check(value, name: str):
        if type(value) is str and value in members:
            return members[value]
        raise _reject(name, f"one of {sorted(members)}", value)

    return check, lambda attr, pad: ('"%s"', ((f"{attr}.value", None),))


#: Declared field type -> (checker, slot). Enums are added per class by
#: ``_plan``.
_CODECS = {
    int: (_int, _scalar("%d")),
    int | None: (_optional_int, _scalar("%s", _null_or)),
    bool: (_bool, _scalar("%s", {False: "false", True: "true"}.__getitem__)),
    str: (_str, _scalar("%s", _quote)),
    tuple[int, int]: (_pair, _pair_slot),
    tuple[str, ...]: (_strings, _strings_slot),
    StridePair: (_stride, _stride_slot),
    TrellisPath: (_path, _path_slot),
    tuple[StageSpec, ...]: (_stages, _stages_slot),
}


def _plan(cls: type, order: tuple[str, ...] | None = None) -> tuple:
    """(field, checker, slot, required) per field of ``cls``, in ``order``
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


def _members(cls: type, prefix: str = "") -> list[tuple]:
    """(key, attribute path, slot) per field of ``cls`` by its plan."""
    return [(name, prefix + name, slot) for name, _, slot, _ in _PLANS[cls]]


def _writer(members: list[tuple], opad: str):
    """Compile ``members`` into obj -> JSON object text, whose closing brace
    is indented by ``opad`` (the opening one follows its key or list comma)."""
    pad = opad + "  "
    lines, paths, conversions = [], [], []
    for key, attr, slot in members:
        fragment, slots = slot(attr, pad)
        lines.append(f"{pad}{_quote(key)}: {fragment}")
        for path, convert in slots:
            if convert is not None:
                conversions.append((len(paths), convert))
            paths.append(path)
    template = "{\n" + ",\n".join(lines) + f"\n{opad}}}"
    get = attrgetter(*paths)

    def write(obj) -> str:
        values = list(get(obj))
        for i, convert in conversions:
            values[i] = convert(values[i])
        return template % tuple(values)

    return write


def _const(text: str):
    return lambda attr, pad: (text, ())


def _layers_slot(attr: str, pad: str):
    writers = {
        cls: _writer([*_members(LayerEntry), ("kind", None, _const(_quote(kind))),
                      *_members(cls, "layer.")], pad + "  ")
        for cls, kind in _LAYER_KINDS.items()
    }

    def render(entries) -> str:
        items = []
        for entry in entries:
            write = writers.get(type(entry.layer))
            if write is None:
                raise SpecFormatError(f"unserializable layer {type(entry.layer).__name__}")
            items.append(write(entry))
        return _array(items, pad)

    return "%s", ((attr, render),)


def _decode(cls: type, doc, **given):
    """Build ``cls`` from the JSON object ``doc`` by its plan, on top of
    the already-decoded fields in ``given``."""
    try:
        for name, check, _, required in _PLANS[cls]:
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


def _keys(*classes: type, extra: tuple[str, ...] = ()) -> frozenset:
    return frozenset((*extra, *(name for cls in classes for name, *_ in _PLANS[cls])))


_STAGE_KEYS = _keys(StageSpec)
_MODEL_KEYS = _keys(ModelSpec, extra=("schema_version", "layers"))
_LAYER_KEYS = {cls: _keys(LayerEntry, cls, extra=("kind",)) for cls in _LAYER_KINDS}

_write_model = _writer(
    [("schema_version", None, _const(str(SCHEMA_VERSION))), *_members(ModelSpec),
     ("layers", "entries", _layers_slot)],
    "",
)


def _decode_stage(doc) -> StageSpec:
    if type(doc) is not dict:
        raise _reject("StageSpec", "an object", doc)
    _check_keys(doc, _STAGE_KEYS, "stage ")
    return _decode(StageSpec, doc)


def _decode_entry(doc) -> LayerEntry:
    if type(doc) is not dict:
        raise _reject("layer", "an object", doc)
    try:
        kind = doc.get("kind")
        cls = _LAYER_CLASSES.get(kind) if type(kind) is str else None
        if cls is None:
            raise SpecFormatError(f"unknown layer kind {kind!r}")
        _check_keys(doc, _LAYER_KEYS[cls], "")
        return _decode(LayerEntry, doc, layer=_decode(cls, doc))
    except SpecFormatError as exc:
        raise SpecFormatError(f"layer {doc.get('name')!r}: {exc}") from None


def _check_model(spec: ModelSpec) -> None:
    """Top-level fields against their bounds and against the layers."""
    for name in ("depth_label", "base_channels", "embedding_dim", "input_freq_bins"):
        value = getattr(spec, name)
        if value < 1:
            raise _reject(name, "a positive integer", value)
    # Weights and per-layer counts are keyed by name, so a repeated name
    # would silently alias two layers.
    seen: set[str] = set()
    found = {SqueezeExcite: set(), Res2NetConv: set()}
    head = None
    for entry in spec.entries:
        layer = entry.layer
        if layer.name in seen:
            raise SpecFormatError(f"duplicate layer name {layer.name!r}")
        seen.add(layer.name)
        kind = type(layer)
        if kind is SqueezeExcite:
            found[kind].add(layer.reduction)
        elif kind is Res2NetConv:
            found[kind].add(layer.scale)
        elif kind is FullyConnected:
            head = layer  # the last projection makes the embedding
    # Both walkers merge a block's shortcut at its one add; with none the
    # block cannot run, and a second add would merge the shortcut twice.
    for segment in spec.segments():
        if segment.kind != "block":
            continue
        adds = sum(type(entry.layer) is Add for entry in segment.entries)
        if adds != 1:
            first = segment.entries[0]
            raise SpecFormatError(
                f"residual block stage{first.stage}.block{first.block} has {adds} add layers, "
                f"expected exactly one"
            )
    if head is not None and head.out_dim != spec.embedding_dim:
        raise SpecFormatError(
            f"embedding_dim {spec.embedding_dim} does not match {head.name} out_dim {head.out_dim}"
        )
    for name, value, kind in (("se_reduction", spec.se_reduction, SqueezeExcite),
                              ("res2net_scale", spec.res2net_scale, Res2NetConv)):
        if found[kind] != (set() if value is None else {value}):
            layers = ", ".join(map(str, sorted(found[kind]))) or "none"
            raise SpecFormatError(f"{name} {value!r} does not match the {kind.__name__} layers ({layers})")


def model_to_json(spec: ModelSpec) -> str:
    """The schema-v1 document of ``spec``, indented by two spaces."""
    return _write_model(spec)


def model_from_json(text: str) -> ModelSpec:
    """Load and check a schema-v1 document; raises :class:`SpecFormatError`."""
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise SpecFormatError(f"invalid JSON: {exc}") from exc
    if type(doc) is not dict:
        raise SpecFormatError("spec document must be a JSON object")
    version = doc.get("schema_version")
    if type(version) is not int or version != SCHEMA_VERSION:
        raise SpecFormatError(f"unsupported schema_version {version!r}")
    _check_keys(doc, _MODEL_KEYS, "")
    if "layers" not in doc:
        raise SpecFormatError("missing field 'layers'")
    entries = tuple(_decode_entry(e) for e in _list(doc["layers"], "layers"))
    spec = _decode(ModelSpec, doc, entries=entries)
    _check_model(spec)
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
