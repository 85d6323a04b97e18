"""Independent reference implementations used only by the tests.

Everything here is written the slow, obvious way (explicit loops, reversed
loop orders, two-pass statistics) so it shares no code path with the
package implementations it checks. ``reference_doc`` is the schema-v1
document built as plain dicts from ``dataclasses.fields``, for
``json.dumps(..., indent=2)`` to encode, and ``reference_model_from_json``
is the loader that interpreted the same field plans one checker call per
field before each class got a compiled decoder; it checks a path's label
against ``canonical_name_by_index``. ``MALFORMED_SPECS`` holds the spec
documents that both the loader tests and the CLI tests expect rejected, and
``preset_requests`` draws build requests over every preset family and depth.
``rank_rows_by_count_flops`` ranks a trellis family with no block memo:
one whole ``count_flops`` per path. ``parent_depth_label`` is the depth
label rule ``request_from_spec`` had before ``builder._sd_flags`` held it.
``canonical_name_by_index`` and ``paths_to_endpoint_by_index`` are the
naming rule and the path list before names were looked up in a dict: a
path's rank is its index in its endpoint's family order, and every call
makes fresh paths.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import math
from typing import get_type_hints

import numpy as np
from hypothesis import strategies as st

from stride_lab import builder
from stride_lab.analysis import count_flops
from stride_lab.builder import depth_from_blocks, make_request
from stride_lab.catalog import GOLDEN_GEMINI_FACTORS
from stride_lab.layers import (
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
    SqueezeExcite,
    StageSpec,
    TemporalStatsPool,
)
from stride_lab.metrics import DegenerateScoresError, ScoreFileError
from stride_lab.serialize import SpecFormatError
from stride_lab.strides import (
    _RESERVED_EQUAL,
    StridePair,
    TrellisPath,
    _base_name,
    _family_order,
    _suffix,
    canonical_name,
    final_factors,
    iter_all_paths,
)


def conv_out_size_direct(r_in, kernel, padding, dilation, stride):
    """Count the output positions by walking them."""
    span = dilation * (kernel - 1) + 1
    total = r_in + 2 * padding
    count = 0
    pos = 0
    while pos + span <= total:
        count += 1
        pos += stride
    return count


def loop_conv2d(x, weight, stride=(1, 1), padding=(0, 0), dilation=(1, 1), groups=1):
    """Direct convolution with explicit loops, innermost loops reversed
    relative to the vectorized kernel's contraction order."""
    b, cin, f, t = x.shape
    cout, cg, kf, kt = weight.shape
    sf, st = stride
    pf, pt = padding
    df, dt = dilation
    og = cout // groups
    xp = np.zeros((b, cin, f + 2 * pf, t + 2 * pt))
    xp[:, :, pf : pf + f, pt : pt + t] = x
    f_out = conv_out_size_direct(f, kf, pf, df, sf)
    t_out = conv_out_size_direct(t, kt, pt, dt, st)
    out = np.zeros((b, cout, f_out, t_out))
    for n in range(b):
        for o in range(cout):
            g = o // og
            for fo in range(f_out):
                for to in range(t_out):
                    acc = 0.0
                    for j in reversed(range(kt)):
                        for i in reversed(range(kf)):
                            for c in reversed(range(cg)):
                                acc += (
                                    weight[o, c, i, j]
                                    * xp[n, g * cg + c, fo * sf + i * df, to * st + j * dt]
                                )
                    out[n, o, fo, to] = acc
    return out


def whole_map_depthwise(x, weight, stride=(1, 1), padding=(0, 0), dilation=(1, 1)):
    """Depthwise convolution over one zero-padded copy of the whole map,
    each tap's product added to the output in (row, column) tap order: the
    accumulation order a channel-blocked kernel must keep to match it bit
    for bit."""
    b, c, f, t = x.shape
    _, _, kf, kt = weight.shape
    sf, st = stride
    pf, pt = padding
    df, dt = dilation
    xp = np.zeros((b, c, f + 2 * pf, t + 2 * pt))
    xp[:, :, pf : pf + f, pt : pt + t] = x
    f_out = conv_out_size_direct(f, kf, pf, df, sf)
    t_out = conv_out_size_direct(t, kt, pt, dt, st)
    out = np.zeros((b, c, f_out, t_out))
    for i in range(kf):
        for j in range(kt):
            window = xp[:, :, i * df : i * df + sf * f_out : sf, j * dt : j * dt + st * t_out : st]
            out += window * weight[:, 0, i, j, None, None]
    return out


def loop_maxpool2d(x, kernel, stride=(1, 1), padding=(0, 0)):
    """Max pooling with explicit loops over a copy of the map bordered by
    -inf, each window's maximum taken one element at a time in reversed
    tap order."""
    b, c, f, t = x.shape
    kf, kt = kernel
    sf, st = stride
    pf, pt = padding
    xp = np.full((b, c, f + 2 * pf, t + 2 * pt), -np.inf)
    xp[:, :, pf : pf + f, pt : pt + t] = x
    f_out = conv_out_size_direct(f, kf, pf, 1, sf)
    t_out = conv_out_size_direct(t, kt, pt, 1, st)
    out = np.empty((b, c, f_out, t_out))
    for n in range(b):
        for ch in range(c):
            for fo in range(f_out):
                for to in range(t_out):
                    best = -math.inf
                    for j in reversed(range(kt)):
                        for i in reversed(range(kf)):
                            best = max(best, float(xp[n, ch, fo * sf + i, to * st + j]))
                    out[n, ch, fo, to] = best
    return out


def loop_conv2d_backward(x, weight, grad_out, stride=(1, 1), padding=(0, 0), dilation=(1, 1),
                         groups=1):
    """(grad_x, grad_w) of ``sum(grad_out * conv(x, weight))``, every
    product of an output gradient with an input or a weight added with
    explicit loops over a zero-padded copy of the map."""
    b, cin, f, t = x.shape
    cout, cg, kf, kt = weight.shape
    sf, st = stride
    pf, pt = padding
    df, dt = dilation
    og = cout // groups
    weight = np.asarray(weight, np.float64)
    xp = np.zeros((b, cin, f + 2 * pf, t + 2 * pt))
    xp[:, :, pf : pf + f, pt : pt + t] = x
    grad_xp = np.zeros_like(xp)
    grad_w = np.zeros((cout, cg, kf, kt))
    for n in range(b):
        for o in range(cout):
            g = o // og
            for fo in range(grad_out.shape[2]):
                for to in range(grad_out.shape[3]):
                    gy = float(grad_out[n, o, fo, to])
                    for j in reversed(range(kt)):
                        for i in reversed(range(kf)):
                            fi, ti = fo * sf + i * df, to * st + j * dt
                            for c in reversed(range(cg)):
                                grad_w[o, c, i, j] += gy * xp[n, g * cg + c, fi, ti]
                                grad_xp[n, g * cg + c, fi, ti] += gy * weight[o, c, i, j]
    return grad_xp[:, :, pf : pf + f, pt : pt + t], grad_w


def two_pass_stats_pool(x, eps=1e-10):
    """Temporal statistics pooling with per-cell Python loops."""
    b, c, f, t = x.shape
    out = np.zeros((b, 2 * c * f))
    for n in range(b):
        means = []
        stds = []
        for ci in range(c):
            for fi in range(f):
                series = [x[n, ci, fi, ti] for ti in range(t)]
                mean = sum(series) / t
                var = sum((v - mean) ** 2 for v in series) / t
                means.append(mean)
                stds.append((var + eps) ** 0.5)
        out[n] = np.array(means + stds)
    return out


def loop_squeeze_excite(x, w1, b1, w2, b2):
    """Squeeze-and-excitation with per-element Python loops: each channel's
    mean, a ReLU hidden layer, a sigmoid gate per channel, and every element
    scaled by its channel's gate."""
    b, c, f, t = x.shape
    hidden = w1.shape[0]
    out = np.zeros((b, c, f, t))
    for n in range(b):
        means = [sum(x[n, ci, fi, ti] for fi in range(f) for ti in range(t)) / (f * t)
                 for ci in range(c)]
        h = [max(b1[j] + sum(w1[j, ci] * means[ci] for ci in range(c)), 0.0)
             for j in range(hidden)]
        for ci in range(c):
            gate = 1.0 / (1.0 + math.exp(-(b2[ci] + sum(w2[ci, j] * h[j] for j in range(hidden)))))
            for fi in range(f):
                for ti in range(t):
                    out[n, ci, fi, ti] = x[n, ci, fi, ti] * gate
    return out


def loop_res2net(x, branches, padding=(1, 1)):
    """Res2Net's hierarchical convolution through ``loop_conv2d``: the first
    channel group passes through, and group ``i`` is convolved with
    ``branches[i - 1]`` after adding the previous branch's output (from the
    third group on), then ReLU'd."""
    width = branches[0].shape[0]
    groups = [x[:, i * width:(i + 1) * width] for i in range(len(branches) + 1)]
    outs = [groups[0]]
    for i, weight in enumerate(branches, start=1):
        inp = groups[i] if i == 1 else groups[i] + outs[-1]
        outs.append(np.maximum(loop_conv2d(inp, weight, padding=padding), 0.0))
    return np.concatenate(outs, axis=1)


def sweep_operating_points(scores, labels):
    """Counting-loop operating points: one per unique score, plus the
    reject-everything point."""
    n_target = sum(1 for l in labels if l)
    n_nontarget = len(labels) - n_target
    points = []
    for thr in sorted(set(scores)):
        fa = sum(1 for s, l in zip(scores, labels) if not l and s >= thr) / n_nontarget
        fr = sum(1 for s, l in zip(scores, labels) if l and s < thr) / n_target
        points.append((thr, fa, fr))
    points.append((max(scores), 0.0, 1.0))
    return points


def sweep_eer(scores, labels):
    """EER by brute-force sweep with the shared linear interpolation rule."""
    points = sweep_operating_points(scores, labels)
    prev_thr, prev_fa, prev_fr = points[0]
    for thr, fa, fr in points[1:]:
        if fa - fr <= 0:
            d_prev = prev_fa - prev_fr
            d_next = fa - fr
            frac = d_prev / (d_prev - d_next)
            eer = prev_fr + frac * (fr - prev_fr)
            threshold = prev_thr + frac * (thr - prev_thr)
            return eer, threshold
        prev_thr, prev_fa, prev_fr = thr, fa, fr
    raise AssertionError("no crossing found")


def sweep_min_dcf(scores, labels, p_target=0.01, c_fa=1.0, c_miss=1.0):
    """minDCF by evaluating the cost at every operating point."""
    points = sweep_operating_points(scores, labels)
    floor = min(c_miss * p_target, c_fa * (1.0 - p_target))
    best = None
    best_thr = None
    for thr, fa, fr in points:
        cost = (c_miss * fr * p_target + c_fa * fa * (1.0 - p_target)) / floor
        if best is None or cost < best:
            best = cost
            best_thr = thr
    return best, best_thr


def three_sort_operating_points(trials):
    """(thresholds, far, frr) of a ``TrialScoreSet`` from three sorts: each
    class sorted on its own, ``np.unique`` over both, and the rates counted
    by binary search. Same arithmetic as the package, so equal under ``==``."""
    targets = np.sort(trials.target_scores)
    nontargets = np.sort(trials.nontarget_scores)
    unique = np.unique(np.concatenate([targets, nontargets]))
    if unique.size < 2:
        raise DegenerateScoresError("all trial scores are identical")
    thresholds = np.concatenate([unique, unique[-1:]])
    frr = np.empty(unique.size + 1)
    far = np.empty(unique.size + 1)
    frr[:-1] = np.searchsorted(targets, unique, side="left") / targets.size
    far[:-1] = 1.0 - np.searchsorted(nontargets, unique, side="left") / nontargets.size
    frr[-1] = 1.0
    far[-1] = 0.0
    return thresholds, far, frr


def random_trials(rng, n_min=10, n_max=120, separation=None):
    """A random labeled trial set with at least one score per class."""
    n = int(rng.integers(n_min, n_max + 1))
    n_target = int(rng.integers(1, n))
    if separation is None:
        separation = float(rng.uniform(0.0, 1.5))
    target = rng.normal(separation, 1.0, size=n_target)
    nontarget = rng.normal(0.0, 1.0, size=n - n_target)
    scores = list(target) + list(nontarget)
    labels = [True] * n_target + [False] * (n - n_target)
    return scores, labels


def loop_parse_trials(text):
    """Trial tuple of a score file, parsed line by line: label, then score
    syntax, then finiteness, raising at the first bad line."""
    trials = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 2:
            raise ScoreFileError(lineno, f"expected 'label score', got {raw.strip()!r}")
        label, score_text = fields
        if label not in ("target", "nontarget"):
            raise ScoreFileError(lineno, f"label must be target or nontarget, got {label!r}")
        try:
            score = float(score_text)
        except ValueError:
            raise ScoreFileError(lineno, f"unparseable score {score_text!r}") from None
        if not np.isfinite(score):
            raise ScoreFileError(lineno, f"score must be finite, got {score_text}")
        trials.append((score, label == "target"))
    if not trials:
        raise ScoreFileError(0, "no trials found")
    return tuple(trials)


REFERENCE_KINDS = {
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

#: Top-level members after ``schema_version``, in document order.
REFERENCE_MODEL_FIELDS = (
    "family", "depth_label", "base_channels", "embedding_dim", "input_freq_bins",
    "se_reduction", "res2net_scale", "notes", "path", "stages",
)


def _reference_value(value):
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, StridePair):
        return {"time": value.time, "freq": value.freq}
    if isinstance(value, TrellisPath):
        return {
            "label": value.label,
            "time_strides": [step.time for step in value.steps],
            "freq_strides": [step.freq for step in value.steps],
        }
    if isinstance(value, StageSpec):
        return {f.name: _reference_value(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, tuple):
        return [_reference_value(v) for v in value]
    return value


def reference_doc(spec):
    """Schema-v1 document of ``spec`` as nested dicts and lists."""
    doc = {"schema_version": 1}
    for name in REFERENCE_MODEL_FIELDS:
        doc[name] = _reference_value(getattr(spec, name))
    doc["layers"] = []
    for entry in spec.entries:
        layer_doc = {
            "stage": entry.stage,
            "block": entry.block,
            "role": entry.role.value,
            "kind": REFERENCE_KINDS[type(entry.layer)],
        }
        for f in dataclasses.fields(entry.layer):
            layer_doc[f.name] = _reference_value(getattr(entry.layer, f.name))
        doc["layers"].append(layer_doc)
    return doc


def _reject(name, expected, value):
    return SpecFormatError(f"{name} must be {expected}, got {value!r}")


def _exact(cls, expected):
    def check(value, name):
        if type(value) is not cls:
            raise _reject(name, expected, value)
        return value

    return check


_int = _exact(int, "an integer")
_bool = _exact(bool, "true or false")
_list = _exact(list, "a list")


def _optional_int(value, name):
    return None if value is None else _int(value, name)


def _str(value, name):
    if type(value) is not str or not value:
        raise _reject(name, "a non-empty string", value)
    return value


def _strings(value, name):
    return tuple(_str(v, f"{name} item") for v in _list(value, name))


def _pair(value, name):
    if type(value) is list and len(value) == 2 and type(value[0]) is int and type(value[1]) is int:
        return (value[0], value[1])
    raise _reject(name, "a 2-element list of integers", value)


def _stride(value, name):
    if type(value) is dict and len(value) == 2:
        time, freq = value.get("time"), value.get("freq")
        if type(time) is int and type(freq) is int and time in (1, 2) and freq in (1, 2):
            return StridePair(time, freq)
    raise _reject(name, "a {time, freq} object of 1s and 2s", value)


def _check_keys(doc, known, where):
    if not doc.keys() <= known:
        key = next(k for k in doc if k not in known)
        raise SpecFormatError(f"unknown {where}field {key!r}")


def _path(value, name):
    if type(value) is not dict:
        raise _reject(name, "an object", value)
    _check_keys(value, {"label", "time_strides", "freq_strides"}, "path ")
    time, freq = (
        tuple(_int(v, key) for v in _list(value.get(key), key))
        for key in ("time_strides", "freq_strides")
    )
    if value.get("label") is not None:
        _str(value["label"], "label")
    try:
        return TrellisPath.from_lists(time, freq)
    except ValueError as exc:
        raise SpecFormatError(f"{name}: {exc}") from None


def _stages(value, name):
    return tuple(_decode_stage(s) for s in _list(value, name))


def _enum_check(cls):
    members = {member.value: member for member in cls}

    def check(value, name):
        if type(value) is str and value in members:
            return members[value]
        raise _reject(name, f"one of {sorted(members)}", value)

    return check


_CHECKERS = {
    int: _int,
    int | None: _optional_int,
    bool: _bool,
    str: _str,
    tuple[int, int]: _pair,
    tuple[str, ...]: _strings,
    StridePair: _stride,
    TrellisPath: _path,
    tuple[StageSpec, ...]: _stages,
}


def _reference_plan(cls, order=None):
    """(field, checker, required) per field of ``cls`` in ``order``."""
    hints = get_type_hints(cls)
    by_name = {f.name: f for f in dataclasses.fields(cls)}
    return tuple(
        (name, _enum_check(hints[name]) if isinstance(hints[name], enum.EnumMeta) else _CHECKERS[hints[name]],
         by_name[name].default is dataclasses.MISSING and by_name[name].default_factory is dataclasses.MISSING)
        for name in order or tuple(by_name)
    )


_REFERENCE_PLANS = {
    **{cls: _reference_plan(cls) for cls in (*REFERENCE_KINDS, StageSpec)},
    LayerEntry: _reference_plan(LayerEntry, order=("stage", "block", "role")),
    ModelSpec: _reference_plan(ModelSpec, order=REFERENCE_MODEL_FIELDS),
}
_REFERENCE_CLASSES = {kind: cls for cls, kind in REFERENCE_KINDS.items()}


def _plan_keys(*classes, extra=()):
    return {*extra, *(name for cls in classes for name, *_ in _REFERENCE_PLANS[cls])}


_STAGE_KEYS = _plan_keys(StageSpec)
_LAYER_KEYS = {cls: _plan_keys(LayerEntry, cls, extra=("kind",)) for cls in REFERENCE_KINDS}


def _decode(cls, doc, **given):
    """Build ``cls`` from the JSON object ``doc`` by its plan, on top of
    the already-decoded fields in ``given``: one checker call per field."""
    try:
        for name, check, required in _REFERENCE_PLANS[cls]:
            if name in doc:
                given[name] = check(doc[name], name)
            elif required:
                raise SpecFormatError(f"missing field {name!r}")
        return cls(**given)
    except (TypeError, ValueError) as exc:
        raise SpecFormatError(str(exc)) from exc


def _decode_stage(doc):
    if type(doc) is not dict:
        raise _reject("StageSpec", "an object", doc)
    _check_keys(doc, _STAGE_KEYS, "stage ")
    return _decode(StageSpec, doc)


def _decode_entry(doc):
    if type(doc) is not dict:
        raise _reject("layer", "an object", doc)
    try:
        kind = doc.get("kind")
        cls = _REFERENCE_CLASSES.get(kind) if type(kind) is str else None
        if cls is None:
            raise SpecFormatError(f"unknown layer kind {kind!r}")
        _check_keys(doc, _LAYER_KEYS[cls], "")
        return _decode(LayerEntry, doc, layer=_decode(cls, doc))
    except SpecFormatError as exc:
        raise SpecFormatError(f"layer {doc.get('name')!r}: {exc}") from None


def reference_model_from_json(text):
    """The schema-v1 loader as a plan interpreter: a checker call per field
    and a keyword constructor call per object, then a label that is not
    ``null`` must be the index rule's name of the path's strides."""
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise SpecFormatError(f"invalid JSON: {exc}") from exc
    if type(doc) is not dict:
        raise SpecFormatError("spec document must be a JSON object")
    version = doc.get("schema_version")
    if type(version) is not int or version != 1:
        raise SpecFormatError(f"unsupported schema_version {version!r}")
    _check_keys(doc, _plan_keys(ModelSpec, extra=("schema_version", "layers")), "")
    if "layers" not in doc:
        raise SpecFormatError("missing field 'layers'")
    entries = tuple(_decode_entry(e) for e in _list(doc["layers"], "layers"))
    spec = _decode(ModelSpec, doc, entries=entries)
    try:
        spec.validate()
    except ValueError as exc:
        raise SpecFormatError(str(exc)) from None
    label, name = doc["path"].get("label"), canonical_name_by_index(spec.path)
    if label not in (None, name):
        raise SpecFormatError(f"path: label {label!r} does not name its strides, which are {name!r}")
    return spec


def _first_layer(doc, kind):
    return next(layer for layer in doc["layers"] if layer["kind"] == kind)


def _layer_index(doc, name):
    return next(i for i, layer in enumerate(doc["layers"]) if layer["name"] == name)


def _add_outside_block(doc):
    """A copy of a block's add, renamed and outside any block, placed
    before that block."""
    add = dict(doc["layers"][_layer_index(doc, "stage2.block1.add")], name="stem.add", block=None)
    doc["layers"].insert(_layer_index(doc, "stage2.block1.conv1"), add)


def _duplicate_add(doc):
    """A renamed second copy of a block's add, placed after its last layer."""
    add = dict(doc["layers"][_layer_index(doc, "stage2.block1.add")], name="stage2.block1.add2")
    doc["layers"].insert(_layer_index(doc, "stage2.block1.act_out") + 1, add)


def _stages_and_path_claim_e33p(doc):
    """Path and stages moved to E33p's strides, the layers left as they are."""
    time, freq = [1, 2, 2, 2, 1], [1, 2, 2, 2, 1]
    doc["path"].update(label="E33p", time_strides=time, freq_strides=freq)
    for stage, t, f in zip(doc["stages"], time[1:], freq[1:]):
        stage["stride"] = {"time": t, "freq": f}


#: Schema-v1 mutations that the loader must reject, applied in
#: place to a ResNet34 document: id -> (mutate(doc), message fragment).
MALFORMED_SPECS = {
    "float-out-channels": (lambda d: _first_layer(d, "conv2d").update(out_channels=32.7),
                           "out_channels must be an integer, got 32.7"),
    "string-in-channels": (lambda d: _first_layer(d, "conv2d").update(in_channels="1"),
                           "in_channels must be an integer, got '1'"),
    "string-bias": (lambda d: _first_layer(d, "conv2d").update(bias="no"),
                    "bias must be true or false, got 'no'"),
    "conv-bias": (lambda d: _first_layer(d, "conv2d").update(bias=True),
                  "layer 'stem.conv': conv bias is not supported"),
    "float-num-blocks": (lambda d: d["stages"][0].update(num_blocks=2.9),
                         "num_blocks must be an integer, got 2.9"),
    "string-stage": (lambda d: d["layers"][0].update(stage="1"),
                     "stage must be an integer, got '1'"),
    "string-notes": (lambda d: d.update(notes="abc"), "notes must be a list, got 'abc'"),
    "string-se-reduction": (lambda d: d.update(se_reduction="x"),
                            "se_reduction must be an integer, got 'x'"),
    "string-layer": (lambda d: d["layers"].__setitem__(0, "stem.conv"),
                     "layer must be an object, got 'stem.conv'"),
    "object-layers": (lambda d: d.update(layers={}), "layers must be a list, got {}"),
    "int-stage-entry": (lambda d: d.update(stages=[1]), "must be an object, got 1"),
    "unknown-layer-key": (lambda d: _first_layer(d, "conv2d").update(grups=4),
                          "layer 'stem.conv': unknown field 'grups'"),
    "unknown-stage-key": (lambda d: d["stages"][0].update(blocks=3),
                          "unknown stage field 'blocks'"),
    "unknown-path-key": (lambda d: d["path"].update(lable="MOD"),
                         "unknown path field 'lable'"),
    "unknown-top-level-key": (lambda d: d.update(embeding_dim=256),
                              "unknown field 'embeding_dim'"),
    "zero-input-freq-bins": (lambda d: d.update(input_freq_bins=0),
                             "input_freq_bins must be a positive integer, got 0"),
    "negative-depth-label": (lambda d: d.update(depth_label=-5),
                             "depth_label must be a positive integer, got -5"),
    "zero-base-channels": (lambda d: d.update(base_channels=0),
                           "base_channels must be a positive integer, got 0"),
    "zero-embedding-dim": (lambda d: d.update(embedding_dim=0),
                           "embedding_dim must be a positive integer, got 0"),
    "embedding-dim-not-head": (lambda d: d.update(embedding_dim=128),
                               "embedding_dim 128 does not match head.fc out_dim 256"),
    "no-layers": (lambda d: d.update(layers=[]),
                  "no FullyConnected layer makes the embedding (embedding_dim 256)"),
    "no-head": (lambda d: d.update(layers=[layer for layer in d["layers"] if layer["stage"] != 0]),
                "no FullyConnected layer makes the embedding (embedding_dim 256)"),
    "se-reduction-without-se": (lambda d: d.update(se_reduction=4),
                                "se_reduction 4 does not match the SqueezeExcite layers (none)"),
    "res2net-scale-without-res2net": (lambda d: d.update(res2net_scale=4),
                                      "res2net_scale 4 does not match the Res2NetConv layers (none)"),
    "block-with-two-adds": (_duplicate_add,
                            "residual block stage2.block1 has 2 add layers, expected exactly one"),
    "block-without-add": (lambda d: d["layers"].pop(_layer_index(d, "stage2.block1.add")),
                          "residual block stage2.block1 has 0 add layers, expected exactly one"),
    "add-outside-block": (_add_outside_block, "add layer 'stem.add' is outside any residual block"),
    "stride-3-in-path": (lambda d: d["path"].update(time_strides=[1, 1, 3, 1, 1]),
                         "path: stride components must be 1 or 2, got 3"),
    "four-time-strides": (lambda d: d["path"].update(time_strides=[1, 1, 1, 1]),
                          "path: time and freq stride lists must have equal length"),
    "path-not-the-stage-strides": (
        lambda d: d["path"].update(time_strides=[2] * 5, freq_strides=[1] * 5),
        "stage 2 stride StridePair(time=1, freq=1) does not match the path's step "
        "StridePair(time=2, freq=1)"),
    "label-not-the-strides": (lambda d: d["path"].update(label="T14c"),
                              "path: label 'T14c' does not name its strides, which are 'MOD'"),
    "stem-not-the-path": (
        lambda d: d["path"].update(time_strides=[2, 1, 2, 2, 2]),
        "stage 1 layers stride (time=1, freq=1) in all, which does not match the path's step "
        "StridePair(time=2, freq=1)"),
    "stages-and-path-not-the-layers": (
        _stages_and_path_claim_e33p,
        "stage 2 layers stride (time=1, freq=1) in all, which does not match the path's step "
        "StridePair(time=2, freq=2)"),
    "activation-sigmoid": (lambda d: _first_layer(d, "activation").update(fn="sigmoid"),
                           "layer 'stem.act': unsupported activation 'sigmoid'"),
}


PRESETS = {
    "original_resnet": (18, 34, 50, 101, 152),
    "modified_resnet": (18, 34, 50, 101, 152),
    "gemini_resnet": (18, 34, 50, 101, 152),
    "sd_resnet": (22, 38),
    # Label pairs with the same blocks: the second counts a stage-2
    # downsampling conv, which only a path striding at stage 2 gets.
    "df_resnet": ((59, 60), (113, 114), (182, 183)),
}
ALL_PATHS = tuple(iter_all_paths())
GOLDEN_PATHS = tuple(p for p in ALL_PATHS if final_factors(p) in GOLDEN_GEMINI_FACTORS)


@st.composite
def preset_requests(draw, freq_bins=st.integers(1, 200), base_channels=st.none(),
                    embedding_dim=st.just(256)):
    """A preset family and depth on any of its paths, with or without SE
    and Res2Net; ``build`` may still reject the options for the family."""
    family = draw(st.sampled_from(sorted(PRESETS)))
    path = draw(st.sampled_from(GOLDEN_PATHS if family == "gemini_resnet" else ALL_PATHS))
    depth = draw(st.sampled_from(PRESETS[family]))
    if family == "df_resnet":
        depth = depth[0] if path.steps[1].is_unit() else depth[1]
    return make_request(
        family, depth, path=path,
        input_freq_bins=draw(freq_bins),
        se_reduction=draw(st.sampled_from((None, 2, 4))),
        res2net_scale=draw(st.sampled_from((None, 2, 4))),
        base_channels=draw(base_channels),
        embedding_dim=draw(embedding_dim),
    )


def rank_rows_by_count_flops(family, input_shape, template):
    """``[name, rank, flops_total, params_total, error]`` per path, as
    ``rank_paths_by_flops`` ranks them, with no memo: every path is built
    (through ``builder.build``, so a test's patch applies) and counted by
    a whole ``count_flops``. Raises the ranking's AssertionError when the
    params of the paths differ."""
    rows = []
    for path in family.paths:
        spec = builder.build(builder.request_from_spec(template, path=path))
        report = count_flops(spec, input_shape)
        rows.append([canonical_name(path), report.flops_total, report.params_total, None])
    params = sorted({row[2] for row in rows})
    if len(params) > 1:
        endpoint = family.endpoint
        raise AssertionError(
            f"parameter count varies within family ({endpoint.alpha5}, {endpoint.beta5}): {params}"
        )
    rows.sort(key=lambda row: (-row[1], row[0]))
    return [[name, rank, flops, params, error]
            for rank, (name, flops, params, error) in enumerate(rows, start=1)]


def parent_depth_label(spec, path):
    """The depth label ``request_from_spec(spec, path)`` gave while it
    special-cased the depth-first family: the spec's own label, except that
    a substituted DF path counts 3 downsampling convs, plus one when it
    strides at stage 2."""
    if spec.family is Family.DF_RESNET and path is not None:
        extra = 3 + (0 if path.steps[1].is_unit() else 1)
        return depth_from_blocks(BlockKind.DF_INVERTED, sum(s.num_blocks for s in spec.stages), extra)
    return spec.depth_label


def canonical_name_by_index(path):
    """The name of ``path`` by a linear search for its rank in its
    endpoint's family order."""
    alpha5, beta5 = final_factors(path)
    rank = _family_order(alpha5, beta5).index((path.time_strides, path.freq_strides))
    if rank == 0 and (alpha5, beta5) in _RESERVED_EQUAL:
        return _RESERVED_EQUAL[(alpha5, beta5)]
    return _base_name(alpha5, beta5) + _suffix(rank)


def paths_to_endpoint_by_index(alpha5, beta5):
    """Fresh paths to ``(alpha5, beta5)`` in family order."""
    return tuple(TrellisPath.from_lists(time, freq) for time, freq in _family_order(alpha5, beta5))
