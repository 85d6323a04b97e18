"""Cross-checks between the symbolic analysis and the numeric kernel.

Each check builds a spec, runs it on a real tensor, and demands that the
numeric per-layer output shapes equal the symbolic trace and that the
instrumented multiply count equals the analytic MAC count exactly. The two
sides share one thing: :func:`~stride_lab.layers.route`, which decides
which map feeds which layer. The rest is independent. Numeric shapes come
from real arrays and multiplies from the dimensions of the arrays each
kernel multiplies; the analytic shapes, MACs and parameters come from the
rule table ``analysis._RULES``.

The numeric run is in single precision (:data:`VERIFY_DTYPE`), about twice
the GEMM rate of float64. Precision cannot change a verdict: shapes and
multiply counts are read from array dimensions, never from values; only an
overflow could, and it fails the run with a :class:`~.numkernel.KernelError`
naming the layer. The gradient checks stay in float64, where central
differences are accurate.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .analysis import count_flops, trace
from .builder import make_request, build
from .catalog import CATALOG_NAMES
from .layers import Conv2d, Family, ModelSpec, TensorShape
from .numkernel import DEFAULT_SEED, GradCheckReport, check_seed, gradcheck_conv, run_model
from .strides import StridePair

__all__ = [
    "CheckResult",
    "default_seed",
    "gradcheck_suite",
    "verify_catalog_configs",
    "verify_spec_numeric",
]

SEED_ENV_VAR = "STRIDE_LAB_SEED"
#: Precision of the input, and so of every layer, of a numeric check.
VERIFY_DTYPE = np.dtype(np.float32)


def default_seed() -> int:
    """The numeric seed, overridable through the environment by an integer
    that passes :func:`~.numkernel.check_seed`; else :class:`ValueError`."""
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return DEFAULT_SEED
    try:
        return check_seed(int(raw))
    except ValueError as exc:
        raise ValueError(f"{SEED_ENV_VAR} must be an integer in [0, 2**63), got {raw!r}") from exc


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    layers_checked: int
    multiplies: int
    analytic_flops: int
    detail: str = ""


def verify_spec_numeric(
    spec: ModelSpec,
    time: int = 300,
    seed: int | None = None,
    name: str | None = None,
) -> CheckResult:
    """Numeric run vs symbolic trace: shapes per layer, multiplies exactly.

    The input is drawn from ``seed`` in float64 and cast to
    :data:`VERIFY_DTYPE`, so a seed names the same input as before."""
    if seed is None:
        seed = default_seed()
    label = name or spec.display_name
    shape = TensorShape(1, spec.input_freq_bins, time)
    symbolic = trace(spec, shape)
    rng = np.random.default_rng(np.uint64(check_seed(seed)))
    x = rng.uniform(-1.0, 1.0, size=(1, 1, spec.input_freq_bins, time)).astype(VERIFY_DTYPE)
    result = run_model(spec, x, seed=seed)
    analytic = count_flops(spec, shape)

    problems = []
    if len(symbolic) != len(result.shapes):
        problems.append(
            f"layer count mismatch: symbolic {len(symbolic)} vs numeric {len(result.shapes)}"
        )
    else:
        for sym, (num_name, num_shape) in zip(symbolic, result.shapes):
            if sym.name != num_name:
                problems.append(f"layer order mismatch at {sym.name} vs {num_name}")
                break
            if sym.out_shape != num_shape:
                problems.append(
                    f"{sym.name}: symbolic shape {sym.out_shape} != numeric {num_shape}"
                )
    if result.counter.multiplies != analytic.flops_total:
        problems.append(
            f"multiply count {result.counter.multiplies} != analytic {analytic.flops_total}"
        )
    if result.embedding.shape != (1, spec.embedding_dim):
        problems.append(f"embedding shape {result.embedding.shape}")
    return CheckResult(
        name=label,
        ok=not problems,
        layers_checked=len(symbolic),
        multiplies=result.counter.multiplies,
        analytic_flops=analytic.flops_total,
        detail="; ".join(problems),
    )


def catalog_family(config_name: str) -> Family:
    """A catalog row's family: the ORI row keeps the original recipe (7x7
    stem, max pool, C=64), every other row is the modified ResNet."""
    return Family.ORIGINAL_RESNET if config_name == "ORI" else Family.MODIFIED_RESNET


def catalog_spec(config_name: str, depth: int = 34) -> ModelSpec:
    """The spec of a cataloged configuration name, in its :func:`catalog_family`."""
    return build(make_request(catalog_family(config_name), depth, path=config_name))


def verify_catalog_configs(
    names: tuple[str, ...] = CATALOG_NAMES,
    depth: int = 34,
    time: int = 300,
    seed: int | None = None,
) -> tuple[CheckResult, ...]:
    results = []
    for config_name in names:
        spec = catalog_spec(config_name, depth)
        results.append(
            verify_spec_numeric(spec, time=time, seed=seed, name=config_name)
        )
    return tuple(results)


def _grad_layer(rng: np.random.Generator, index: int) -> Conv2d:
    """Small random conv layer; the cycle guarantees strided and depthwise
    cases keep appearing."""
    kernel = int(rng.choice([1, 3]))
    stride = StridePair(int(rng.choice([1, 2])), int(rng.choice([1, 2])))
    if index % 3 == 1:
        stride = StridePair(2, int(rng.choice([1, 2])))
    if index % 4 == 2:  # depthwise
        in_ch = out_ch = groups = int(rng.integers(2, 9))
    else:
        in_ch, out_ch, groups = int(rng.integers(1, 9)), int(rng.integers(1, 9)), 1
    return Conv2d(
        name=f"gradcheck{index}",
        in_channels=in_ch,
        out_channels=out_ch,
        kernel=(kernel, kernel),
        stride=stride,
        padding=(kernel // 2, kernel // 2),
        groups=groups,
    )


def gradcheck_suite(
    trials: int = 100,
    tolerance: float = 1e-4,
    seed: int | None = None,
) -> tuple[GradCheckReport, ...]:
    """Finite-difference checks over random small layers, strided and
    depthwise cases included. Trial i seeds its check with ``seed + i``,
    wrapped into [0, 2**63)."""
    if seed is None:
        seed = default_seed()
    rng = np.random.default_rng(np.uint64(check_seed(seed)))
    reports = []
    for i in range(trials):
        layer = _grad_layer(rng, i)
        f = int(rng.integers(4, 9))
        t = int(rng.integers(4, 9))
        x = rng.uniform(-1.0, 1.0, size=(1, layer.in_channels, f, t))
        reports.append(gradcheck_conv(layer, x=x, tolerance=tolerance, seed=(seed + i) % 2**63))
    return tuple(reports)
