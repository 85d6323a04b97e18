"""Wire formats: model-spec JSON (schema v1), written and read, and the
complexity-table CSV, which is written, never read.

Schema v1 is generated from the spec dataclasses in :mod:`.layers`. A layer
is ``{"stage", "block", "role", "kind", **fields}`` in field order, a stage
is its fields, and the document is ``schema_version``, the model's fields
(``entries`` travel as ``layers``). Ints, bools and strings are JSON values
of exactly that type, pairs 2-element lists, strides ``{time, freq}``
objects, enums their values.

Writing and loading go through one codec per class and direction, compiled
once, at import, from the same per-class field plans into straight-line
Python source (as :mod:`dataclasses` compiles ``__init__``) by one
``exec`` step: one writer and one loader per layer class, which also
handle its entry's ``stage``/``block``/``role`` and its ``kind``, one pair
for :class:`StageSpec` and one for the top level. A writer is one
``%``-format string, with keys, two-space indentation and brackets baked
in, filled by one generated tuple of expressions; strings are escaped by
:func:`json.encoder.encode_basestring_ascii`. Its bytes are those of
``json.dumps(doc, indent=2)``.

A loader checks the object's keys once, rejecting any the schema does not
name; then, field by field in plan order, it takes the default of a
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
# field ``{n}`` (a literal), and leaves the field's value in ``v``. A dump
# takes the Python expression of a field's value and the indentation of its
# key line, and returns the field's JSON text with %-placeholders plus the
# expressions that fill them (a ``*``-expression fills several). The codecs
# compiled below inline both.


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


#: Names the compiled codecs read, besides each one's own constants.
_ENV = {
    "SpecFormatError": SpecFormatError, "_reject": _reject, "_check_keys": _check_keys,
    "_stride": _stride, "_strings": _strings, "_path": _path, "_stages": _stages,
    "_quote": _quote, "_array": _array,
}


def _compile(source: str, env: dict):
    """Run ``source``, which defines ``f``, over ``env`` and :data:`_ENV`."""
    env.update(_ENV)
    exec(source, env)
    return env["f"]


def _enum_codec(cls: type[enum.Enum]):
    members = {member.value: member for member in cls}
    # Values go into the template between baked-in quotes.
    assert all(_quote(value) == f'"{value}"' for value in members)
    table, expected = f"_{cls.__name__}", f"one of {sorted(members)}"
    _ENV[table] = members
    load = (f"if type(v) is not str or v not in {table}: raise _reject({{n}}, {expected!r}, v)\n"
            f"v = {table}[v]")
    return load, lambda e, pad: ('"%s"', (f"{e}.value",))


def _path_dump(e: str, pad: str):
    inner = pad + "  "
    ints = f",\n{inner}  ".join(["%d"] * NUM_STAGES)
    # A name is letters and digits only, so it needs no escaping.
    return (f'{{\n{inner}"label": "%s",\n{inner}"time_strides": [\n{inner}  {ints}\n{inner}],'
            f'\n{inner}"freq_strides": [\n{inner}  {ints}\n{inner}]\n{pad}}}',
            (f"{e}.label", f"*{e}.time_strides", f"*{e}.freq_strides"))


#: Declared field type -> (load, dump). Enums are added per class by
#: ``_plan``.
_CODECS = {
    int: ("if type(v) is not int: raise _reject({n}, 'an integer', v)",
          lambda e, pad: ("%d", (e,))),
    int | None: ("if v is not None and type(v) is not int: raise _reject({n}, 'an integer', v)",
                 lambda e, pad: ("%s", (f"'null' if {e} is None else {e}",))),
    bool: ("if type(v) is not bool: raise _reject({n}, 'true or false', v)",
           lambda e, pad: ("%s", (f"'true' if {e} else 'false'",))),
    str: ("if type(v) is not str or not v: raise _reject({n}, 'a non-empty string', v)",
          lambda e, pad: ("%s", (f"_quote({e})",))),
    tuple[int, int]: ("if type(v) is not list or len(v) != 2 or type(v[0]) is not int"
                      " or type(v[1]) is not int:\n"
                      "    raise _reject({n}, 'a 2-element list of integers', v)\n"
                      "v = (v[0], v[1])",
                      lambda e, pad: (f"[\n{pad}  %d,\n{pad}  %d\n{pad}]", (f"{e}[0]", f"{e}[1]"))),
    tuple[str, ...]: ("v = _strings(v, {n})",
                      lambda e, pad: ("%s", (f"_array([_quote(s) for s in {e}], {pad!r})",))),
    StridePair: ("v = _stride(v, {n})",
                 lambda e, pad: (f'{{\n{pad}  "time": %d,\n{pad}  "freq": %d\n{pad}}}',
                                 (f"{e}.time", f"{e}.freq"))),
    TrellisPath: ("v = _path(v, {n})", _path_dump),
    tuple[StageSpec, ...]: ("v = _stages(v, {n})", lambda e, pad: (
        "%s", (f"_array([_write_stage(s) for s in {e}], {pad!r})",))),
}


def _plan(cls: type, order: tuple[str, ...] | None = None) -> tuple:
    """(name, load, dump, field) per field of ``cls``, in ``order``
    (default: declaration order). Fields outside ``order`` are skipped."""
    hints = get_type_hints(cls)
    by_name = {f.name: f for f in fields(cls)}
    plan = []
    for name in order or tuple(by_name):
        hint = hints[name]
        codec = _enum_codec(hint) if isinstance(hint, enum.EnumMeta) else _CODECS[hint]
        plan.append((name, *codec, by_name[name]))
    return tuple(plan)


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
    by :func:`_load_lines`) into ``f(params)``, which returns ``obj``
    and turns a ``TypeError`` or ``ValueError`` into the SpecFormatError
    ``error``, an expression of ``exc``."""
    lines = [line for part in parts
             for line in ([part] if type(part) is str else _load_lines(part, env))]
    body = "".join(f"\n        {line}" for line in [*lines, "return obj"])
    return _compile(f"def f({params}):\n    try:{body}\n    except (TypeError, ValueError) as exc:"
                    f"\n        raise SpecFormatError({error}) from None", env)


def _dumper(parts: list, opad: str):
    """Compile ``parts`` into ``f(o)`` -> JSON object text, whose closing
    brace is indented by ``opad`` (the opening one follows its key or list
    comma). A part is ``(class, expression)``, the plan's fields of the
    object the expression gives, or ``(key, JSON text, expressions)``."""
    pad = opad + "  "
    lines, exprs = [], []
    for part in parts:
        members = ([(name, *dump(f"{part[1]}.{name}", pad)) for name, _, dump, _ in _PLANS[part[0]]]
                   if isinstance(part[0], type) else [part])
        for key, text, values in members:
            lines.append(f"{pad}{_quote(key)}: {text}")
            exprs += values
    template = "{\n" + ",\n".join(lines) + f"\n{opad}}}"
    return _compile(f"def f(o): return T % ({', '.join(exprs)},)", {"T": template})


class _LayerWriters(dict):
    """Layer class -> entry writer; any other class is refused."""

    def __missing__(self, cls: type):
        raise SpecFormatError(f"unserializable layer {cls.__name__}")


# Compiled once: serialization is on the analyze hot path. A layer loader
# checks the keys, decodes and builds the layer, then its entry's slot, and
# names the layer in every error.
_LOAD_LAYER = {
    kind: _loader(["if not doc.keys() <= KEYS: _check_keys(doc, KEYS, '')", cls,
                   "f_layer = obj", LayerEntry],
                  "f\"layer {doc.get('name')!r}: {exc}\"", KEYS=_LAYER_KEYS[cls])
    for cls, kind in _LAYER_KINDS.items()
}
_load_stage = _loader(["if type(doc) is not dict: raise _reject('StageSpec', 'an object', doc)",
                       "_check_keys(doc, KEYS, 'stage ')", StageSpec], "str(exc)", KEYS=_STAGE_KEYS)
_load_model = _loader([ModelSpec], "str(exc)", params="doc, f_entries")
# Stages and layers are top-level list items, so each closes at four spaces.
_ENV["_write_stage"] = _dumper([(StageSpec, "o")], "    ")
_ENV["_write_layer"] = _LayerWriters({
    cls: _dumper([(LayerEntry, "o"), ("kind", _quote(kind), ()), (cls, "o.layer")], "    ")
    for cls, kind in _LAYER_KINDS.items()
})
_write_model = _dumper([
    ("schema_version", str(SCHEMA_VERSION), ()), (ModelSpec, "o"),
    ("layers", "%s", ("_array([_write_layer[type(x.layer)](x) for x in o.entries], '  ')",)),
], "")


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
