"""Independent reference implementations used only by the tests.

Everything here is written the slow, obvious way (explicit loops, reversed
loop orders, two-pass statistics) so it shares no code path with the
package implementations it checks. ``reference_doc`` is the schema-v1
document built as plain dicts from ``dataclasses.fields``, for
``json.dumps(..., indent=2)`` to encode. ``MALFORMED_SPECS`` holds the spec
documents that both the loader tests and the CLI tests expect rejected.
"""

from __future__ import annotations

import dataclasses
import enum

import numpy as np

from stride_lab.layers import (
    Activation,
    Add,
    BatchNorm2d,
    Conv2d,
    FullyConnected,
    GlobalAvgPool,
    MaxPool2d,
    Res2NetConv,
    SqueezeExcite,
    StageSpec,
    TemporalStatsPool,
)
from stride_lab.metrics import DegenerateScoresError, ScoreFileError
from stride_lab.strides import StridePair, TrellisPath


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


def _first_layer(doc, kind):
    return next(layer for layer in doc["layers"] if layer["kind"] == kind)


def _layer_index(doc, name):
    return next(i for i, layer in enumerate(doc["layers"]) if layer["name"] == name)


def _duplicate_add(doc):
    """A renamed second copy of a block's add, placed after its last layer."""
    add = dict(doc["layers"][_layer_index(doc, "stage2.block1.add")], name="stage2.block1.add2")
    doc["layers"].insert(_layer_index(doc, "stage2.block1.act_out") + 1, add)


#: Schema-v1 mutations that a type-strict loader must reject, applied in
#: place to a ResNet34 document: id -> (mutate(doc), message fragment).
MALFORMED_SPECS = {
    "float-out-channels": (lambda d: _first_layer(d, "conv2d").update(out_channels=32.7),
                           "out_channels must be an integer, got 32.7"),
    "string-in-channels": (lambda d: _first_layer(d, "conv2d").update(in_channels="1"),
                           "in_channels must be an integer, got '1'"),
    "string-bias": (lambda d: _first_layer(d, "conv2d").update(bias="no"),
                    "bias must be true or false, got 'no'"),
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
    "se-reduction-without-se": (lambda d: d.update(se_reduction=4),
                                "se_reduction 4 does not match the SqueezeExcite layers (none)"),
    "res2net-scale-without-res2net": (lambda d: d.update(res2net_scale=4),
                                      "res2net_scale 4 does not match the Res2NetConv layers (none)"),
    "block-with-two-adds": (_duplicate_add,
                            "residual block stage2.block1 has 2 add layers, expected exactly one"),
    "block-without-add": (lambda d: d["layers"].pop(_layer_index(d, "stage2.block1.add")),
                          "residual block stage2.block1 has 0 add layers, expected exactly one"),
}
