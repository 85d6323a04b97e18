"""Wire formats: model-spec JSON (schema v1), written and read, and the
complexity-table CSV, which is written, never read.

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

Loading goes through one decoder per class, compiled once, at import, from
the same field plans into straight-line Python source (as :mod:`dataclasses`
compiles ``__init__``): one per layer class, which also decodes its entry's
slot, one for :class:`StageSpec` and one for the top level, which calls a
path decoder. Each checks the object's keys once, rejecting any the schema
does not name; then, field by field in plan order, it takes the default of a
missing field or rejects it if its dataclass has none, and checks a present
value's exact type inline, with no coercion. It calls the dataclass
constructor positionally, so every ``__post_init__`` rule runs. The whole
spec is then checked once through
:meth:`~stride_lab.layers.ModelSpec.validate`. A path is only its strides:
its ``label`` is written as the name they derive, and read as ``null``,
absent, or that name, checked after ``validate()``. Any non-conforming
document raises :class:`SpecFormatError`, whose text names the first
failing field and, for a layer, the layer.
"""

from __future__ import annotations

import csv
import enum
import io
import json
from dataclasses import MISSING, fields
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
from .strides import _STEPS, NUM_STAGES, StridePair, TrellisPath

__all__ = [
    "SCHEMA_VERSION",
    "SpecFormatError",
    "format_table",
    "model_from_json",
    "model_to_json",
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


# A load is Python source that checks the local ``v``, the JSON value of
# field ``{n}`` (a literal), and leaves the field's value in ``v``; the
# loaders compiled below inline it. A slot takes a field's attribute path
# and the indentation of its key line, and returns the field's JSON text
# with %-placeholders plus one (attribute path, converter or None) per
# placeholder; a None converter means the value fills its placeholder as is.


def _reject(name: str, expected: str, value) -> SpecFormatError:
    return SpecFormatError(f"{name} must be {expected}, got {value!r}")


def _list(value, name: str) -> list:
    if type(value) is not list:
        raise _reject(name, "a list", value)
    return value


def _str(value, name: str) -> str:
    if type(value) is not str or not value:
        raise _reject(name, "a non-empty string", value)
    return value


def _strings(value, name: str) -> tuple[str, ...]:
    return tuple(_str(v, f"{name} item") for v in _list(value, name))


def _stride(value, name: str) -> StridePair:
    if type(value) is dict and len(value) == 2:
        key = (value.get("time"), value.get("freq"))
        if type(key[0]) is int and type(key[1]) is int and key in _STEPS:
            return _STEPS[key]
    raise _reject(name, "a {time, freq} object of 1s and 2s", value)


_PATH_KEYS = frozenset(("label", "time_strides", "freq_strides"))


def _ints(value, name: str) -> tuple[int, ...]:
    for v in _list(value, name):
        if type(v) is not int:
            raise _reject(name, "an integer", v)
    return tuple(value)


def _path(value, name: str) -> TrellisPath:
    if type(value) is not dict:
        raise _reject(name, "an object", value)
    _check_keys(value, _PATH_KEYS, "path ")
    time = _ints(value.get("time_strides"), "time_strides")
    freq = _ints(value.get("freq_strides"), "freq_strides")
    if value.get("label") is not None:
        _str(value["label"], "label")  # its name is checked once the spec passes validate()
    try:
        return TrellisPath.from_lists(time, freq)
    except ValueError as exc:
        raise SpecFormatError(f"{name}: {exc}") from None


def _stages(value, name: str) -> tuple[StageSpec, ...]:
    return tuple(_load_stage(doc) for doc in _list(value, name))


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
    # A name is letters and digits only, so it needs no escaping.
    text = (f'{{\n{inner}"label": "%s",\n{inner}"time_strides": [\n{inner}  {ints}\n{inner}],'
            f'\n{inner}"freq_strides": [\n{inner}  {ints}\n{inner}]\n{pad}}}')

    def render(path: TrellisPath) -> str:
        return text % (path.label, *path.time_strides, *path.freq_strides)

    return "%s", ((attr, render),)


def _stages_slot(attr: str, pad: str):
    write = _writer(_members(StageSpec), pad + "  ")
    return "%s", ((attr, lambda stages: _array([write(s) for s in stages], pad)),)


#: Names the compiled loaders read, besides each loader's own constants.
_LOAD_ENV = {
    "SpecFormatError": SpecFormatError, "_reject": _reject, "_check_keys": _check_keys,
    "_stride": _stride, "_strings": _strings, "_path": _path, "_stages": _stages,
}


def _enum_codec(cls: type[enum.Enum]):
    members = {member.value: member for member in cls}
    # Values go into the template between baked-in quotes.
    assert all(_quote(value) == f'"{value}"' for value in members)
    table, expected = f"_{cls.__name__}", f"one of {sorted(members)}"
    _LOAD_ENV[table] = members
    load = (f"if type(v) is not str or v not in {table}: raise _reject({{n}}, {expected!r}, v)\n"
            f"v = {table}[v]")
    return load, lambda attr, pad: ('"%s"', ((f"{attr}.value", None),))


#: Declared field type -> (load, slot). Enums are added per class by
#: ``_plan``.
_CODECS = {
    int: ("if type(v) is not int: raise _reject({n}, 'an integer', v)", _scalar("%d")),
    int | None: ("if v is not None and type(v) is not int: raise _reject({n}, 'an integer', v)",
                 _scalar("%s", _null_or)),
    bool: ("if type(v) is not bool: raise _reject({n}, 'true or false', v)",
           _scalar("%s", {False: "false", True: "true"}.__getitem__)),
    str: ("if type(v) is not str or not v: raise _reject({n}, 'a non-empty string', v)",
          _scalar("%s", _quote)),
    tuple[int, int]: ("if type(v) is not list or len(v) != 2 or type(v[0]) is not int"
                      " or type(v[1]) is not int:\n"
                      "    raise _reject({n}, 'a 2-element list of integers', v)\n"
                      "v = (v[0], v[1])", _pair_slot),
    tuple[str, ...]: ("v = _strings(v, {n})", _strings_slot),
    StridePair: ("v = _stride(v, {n})", _stride_slot),
    TrellisPath: ("v = _path(v, {n})", _path_slot),
    tuple[StageSpec, ...]: ("v = _stages(v, {n})", _stages_slot),
}


def _plan(cls: type, order: tuple[str, ...] | None = None) -> tuple:
    """(name, load, slot, field) per field of ``cls``, in ``order``
    (default: declaration order). Fields outside ``order`` are skipped."""
    hints = get_type_hints(cls)
    by_name = {f.name: f for f in fields(cls)}
    plan = []
    for name in order or tuple(by_name):
        hint = hints[name]
        codec = _enum_codec(hint) if isinstance(hint, enum.EnumMeta) else _CODECS[hint]
        plan.append((name, *codec, by_name[name]))
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


def _load_lines(cls: type, env: dict) -> list[str]:
    """Source that reads the fields of ``cls``'s plan from the JSON object
    ``doc`` in plan order into ``f_<field>`` locals (a missing field takes
    its default or is rejected, a present one passes its load), then calls
    ``cls`` positionally on them into ``obj``. Constants go into ``env``."""
    lines = []
    for name, load, _, field in _PLANS[cls]:
        if field.default is not MISSING:
            env[f"d_{name}"] = field.default
            absent = f"v = d_{name}"
        elif field.default_factory is not MISSING:
            env[f"d_{name}"] = field.default_factory
            absent = f"v = d_{name}()"
        else:
            message = f"missing field {name!r}"
            absent = f"raise SpecFormatError({message!r})"
        lines += [f"if {name!r} in doc:", f"    v = doc[{name!r}]",
                  *(f"    {line}" for line in load.format(n=repr(name)).splitlines()),
                  "else:", f"    {absent}", f"f_{name} = v"]
    env[cls.__name__] = cls
    return [*lines, f"obj = {cls.__name__}({', '.join(f'f_{f.name}' for f in fields(cls))})"]


def _loader(parts: list, error: str, params: str = "doc", **env):
    """Compile ``parts`` (source lines, and classes to decode into ``obj``
    by :func:`_load_lines`) into ``load(params)``, which returns ``obj``
    and turns a ``TypeError`` or ``ValueError`` into the SpecFormatError
    ``error``, an expression of ``exc``."""
    env.update(_LOAD_ENV)
    lines = [line for part in parts
             for line in ([part] if type(part) is str else _load_lines(part, env))]
    body = "".join(f"\n        {line}" for line in [*lines, "return obj"])
    exec(f"def load({params}):\n    try:{body}\n    except (TypeError, ValueError) as exc:"
         f"\n        raise SpecFormatError({error}) from None", env)
    return env["load"]


# Compiled once: loading is on the analyze hot path. A layer loader checks
# the keys, decodes and builds the layer, then its entry's slot, and names
# the layer in every error.
_LOAD_LAYER = {
    kind: _loader(["if not doc.keys() <= KEYS: _check_keys(doc, KEYS, '')", cls,
                   "f_layer = obj", LayerEntry],
                  "f\"layer {doc.get('name')!r}: {exc}\"", KEYS=_LAYER_KEYS[cls])
    for cls, kind in _LAYER_KINDS.items()
}
_load_stage = _loader(["if type(doc) is not dict: raise _reject('StageSpec', 'an object', doc)",
                       "_check_keys(doc, KEYS, 'stage ')", StageSpec], "str(exc)", KEYS=_STAGE_KEYS)
_load_model = _loader([ModelSpec], "str(exc)", params="doc, f_entries")


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
    entries = []
    for layer in _list(doc["layers"], "layers"):
        if type(layer) is not dict:
            raise _reject("layer", "an object", layer)
        kind = layer.get("kind")
        load = _LOAD_LAYER.get(kind) if type(kind) is str else None
        if load is None:
            raise SpecFormatError(f"layer {layer.get('name')!r}: unknown layer kind {kind!r}")
        entries.append(load(layer))
    spec = _load_model(doc, tuple(entries))
    try:
        spec.validate()
    except ValueError as exc:
        raise SpecFormatError(str(exc)) from None
    label, name = doc["path"].get("label"), spec.path.label
    if label is not None and label != name:
        raise SpecFormatError(f"path: label {label!r} does not name its strides, which are {name!r}")
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


def format_table(records) -> str:
    """:data:`TABLE_HEADER`, then one CSV row per record of strings."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(TABLE_HEADER)
    writer.writerows(records)
    return buffer.getvalue()
