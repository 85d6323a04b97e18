"""Spans around calls into stride_lab, installed from outside the library.

``Tracer.install`` replaces each traced function with a timing wrapper in
*every* ``stride_lab`` namespace that binds it: modules that did
``from .analysis import trace`` hold their own reference, and a wrapper set
only on the defining module would never see those calls. Spans stay in
memory as ``[name, start, end, parent, op]`` lists; a span's self time is
its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# The package does not import ``verification`` itself; import it so its
# bindings are in sys.modules when ``install`` scans them.
import stride_lab.verification  # noqa: F401

#: module -> public functions timed in that module. Fine-grained helpers
#: called once per layer (``propagate_shape``, ``layer_flops``) are left out:
#: wrapping them would cost more than the work they do.
TRACED = {
    "strides": ("canonical_name", "resolve_name"),
    "trellis": ("enumerate_paths", "rank_paths_by_flops"),
    "builder": ("make_request", "build"),
    "analysis": ("trace", "count_flops", "count_params"),
    "serialize": ("model_to_json", "model_from_json"),
    "numkernel": ("conv2d_forward", "init_weights", "run_model"),
    "verification": ("verify_spec_numeric",),
    "metrics": ("compute_eer", "compute_min_dcf", "operating_points"),
}
#: Class methods, patched on the class itself.
TRACED_METHODS = {"metrics": (("TrialScoreSet", "from_text"),)}

BUCKETS = ("stem", "stage2", "stage3", "stage4", "stage5", "depthwise")


def conv_bucket(layer) -> str:
    """Grouped convs are one bucket; dense ones go by layer-name prefix."""
    if layer.groups > 1:
        return "depthwise"
    prefix = layer.name.split(".", 1)[0]
    return prefix if prefix in BUCKETS else "other"


def _conv_extra(args, result):
    """(layer name, output (C, F, T), MACs, computed im2col bytes, bucket),
    or None when the call raised.

    The gathered column matrix is (groups, B*F_out*T_out, C_in/groups*kf*kt)
    float64, which is B*F_out*T_out*C_in*kf*kt*8 bytes in total.
    """
    if result is None:
        return None
    x, layer = args[0], args[1]
    b, cout, f_out, t_out = result.shape
    kf, kt = layer.kernel
    taps = kf * kt * (layer.in_channels // layer.groups)
    macs = b * cout * f_out * t_out * taps
    im2col = b * f_out * t_out * layer.in_channels * kf * kt * x.itemsize
    return (layer.name, (cout, f_out, t_out), macs, im2col, conv_bucket(layer))


def _rank_extra(args, result):
    """Paths attempted, whether or not the ranking raised."""
    return len(args[0].paths)


EXTRAS = {
    "numkernel.conv2d_forward": _conv_extra,
    "trellis.rank_paths_by_flops": _rank_extra,
}


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.extra: dict[int, object] = {}
        self.op = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock, extra = self.spans, self._stack, self.clock, self.extra
        record = EXTRAS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            spans.append(span)
            stack.append(index)
            result = None
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span[2] = clock()
                stack.pop()
                if record is not None:
                    extra[index] = record(args, result)

        return wrapper

    def install(self, skip: frozenset[tuple[str, str]] = frozenset()) -> None:
        """Wrap every traced function in every namespace binding it.

        ``skip`` holds (namespace, attribute) pairs to leave unwrapped; it
        exists so the self-test can show that a missed rebinding fails the
        reconciliation.
        """
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if n == "stride_lab" or n.startswith("stride_lab.")]
        for short, names in TRACED.items():
            module = sys.modules[f"stride_lab.{short}"]
            for attr in names:
                original = getattr(module, attr)
                wrapper = self._wrap(f"{short}.{attr}", original)
                for namespace in namespaces:
                    for bound, value in list(vars(namespace).items()):
                        if value is original and (namespace.__name__, bound) not in skip:
                            self._patched.append((namespace, bound, original))
                            setattr(namespace, bound, wrapper)
        for short, methods in TRACED_METHODS.items():
            module = sys.modules[f"stride_lab.{short}"]
            for cls_name, attr in methods:
                cls = getattr(module, cls_name)
                raw = cls.__dict__[attr]
                wrapper = self._wrap(f"{short}.{cls_name}.{attr}", raw.__func__)
                self._patched.append((cls, attr, raw))
                setattr(cls, attr, classmethod(wrapper))

    def uninstall(self) -> None:
        for namespace, attr, original in reversed(self._patched):
            setattr(namespace, attr, original)
        self._patched.clear()

    # -- aggregation ---------------------------------------------------------

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        return [s[2] - s[1] - c for s, c in zip(self.spans, child)]

    def aggregate(self) -> dict[str, dict[str, float]]:
        """name -> calls, inclusive seconds and self seconds over op spans."""
        totals: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for span, own in zip(self.spans, self.self_times()):
            if span[4] < 0:
                continue
            entry = totals[span[0]]
            entry["calls"] += 1
            entry["s"] += span[2] - span[1]
            entry["self_s"] += own
        return totals
