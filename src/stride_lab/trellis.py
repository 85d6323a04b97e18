"""Enumeration of the stride space: endpoints, path families, FLOPs ranking.

The trellis is the 6x6 grid of reachable cumulative downsampling states
(alpha_5, beta_5), both powers of two with exponent 0..5. Every 5-step
{1,2}-stride configuration is a path on the grid; paths sharing an endpoint
form a family whose members have identical parameter counts but different
FLOPs, depending on how early the downsampling happens.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import comb

from .catalog import GOLDEN_GEMINI_FACTORS
from .layers import ModelSpec, TensorShape
from .strides import (
    ENDPOINT_FACTORS,
    NUM_STAGES,
    PathClass,
    TrellisPath,
    canonical_name,
    endpoint_class,
    paths_to_endpoint,
)

__all__ = [
    "PathFamily",
    "RankedPath",
    "TrellisEndpoint",
    "enumerate_endpoints",
    "enumerate_paths",
    "golden_gemini_endpoints",
    "rank_paths_by_flops",
]


@dataclass(frozen=True)
class TrellisEndpoint:
    """A node on the final column of the trellis: (alpha_5, beta_5)."""

    alpha5: int
    beta5: int

    def __post_init__(self) -> None:
        for value in (self.alpha5, self.beta5):
            if value not in ENDPOINT_FACTORS:
                raise ValueError(f"endpoint factors must be powers of two in 1..32, got {value}")

    @property
    def exponents(self) -> tuple[int, int]:
        return (self.alpha5.bit_length() - 1, self.beta5.bit_length() - 1)

    @property
    def path_class(self) -> PathClass:
        return endpoint_class(self.alpha5, self.beta5)

    def on_boundary(self) -> bool:
        return any(e in (0, NUM_STAGES) for e in self.exponents)


@dataclass(frozen=True)
class PathFamily:
    """All stride configurations converging on one endpoint."""

    endpoint: TrellisEndpoint
    paths: tuple[TrellisPath, ...]

    def __post_init__(self) -> None:
        expected = comb(NUM_STAGES, self.endpoint.exponents[0]) * comb(
            NUM_STAGES, self.endpoint.exponents[1]
        )
        if len(self.paths) != expected:
            raise ValueError(
                f"endpoint ({self.endpoint.alpha5}, {self.endpoint.beta5}) "
                f"must have {expected} paths, got {len(self.paths)}"
            )


@dataclass(frozen=True)
class RankedPath:
    """One family member with its analytic complexity, ordered by FLOPs."""

    path: TrellisPath
    name: str
    rank: int
    flops_total: int
    params_total: int
    error: str | None = None


def enumerate_endpoints() -> tuple[TrellisEndpoint, ...]:
    """The 36 endpoints of the 6x6 exponent grid, in deterministic order."""
    return tuple(
        TrellisEndpoint(2 ** a, 2 ** b)
        for a in range(NUM_STAGES + 1)
        for b in range(NUM_STAGES + 1)
    )


def enumerate_paths(endpoint: TrellisEndpoint) -> PathFamily:
    """All paths whose stride products equal the endpoint factors."""
    return PathFamily(endpoint=endpoint, paths=paths_to_endpoint(endpoint.alpha5, endpoint.beta5))


def golden_gemini_endpoints() -> tuple[TrellisEndpoint, TrellisEndpoint]:
    """The two optimal operating endpoints, (2, 16) and (4, 8)."""
    first, second = GOLDEN_GEMINI_FACTORS
    return (TrellisEndpoint(*first), TrellisEndpoint(*second))


def rank_paths_by_flops(
    family: PathFamily,
    input_shape: TensorShape,
    spec_template: ModelSpec,
) -> tuple[RankedPath, ...]:
    """Order a family's paths by descending analytic FLOPs.

    Every path is substituted into the template's build request and
    re-elaborated; parameter counts are asserted identical across the family.
    Paths that underflow the input shape are reported with an error and sort
    last instead of aborting the ranking.
    """
    from .analysis import ShapeUnderflowError, count_flops, count_params
    from .builder import build, request_from_spec

    ranked: list[RankedPath] = []
    params_seen: set[int] = set()
    for path in family.paths:
        name = canonical_name(path)
        spec = build(request_from_spec(spec_template, path=path))
        try:
            report = count_flops(spec, input_shape)
        except ShapeUnderflowError as exc:
            ranked.append(RankedPath(path, name, rank=-1, flops_total=0,
                                     params_total=count_params(spec).params_total,
                                     error=str(exc)))
            continue
        params_seen.add(report.params_total)
        ranked.append(RankedPath(path, name, rank=-1, flops_total=report.flops_total,
                                 params_total=report.params_total))
    if len(params_seen) > 1:
        raise AssertionError(
            f"parameter count varies within family ({family.endpoint.alpha5}, "
            f"{family.endpoint.beta5}): {sorted(params_seen)}"
        )
    valid = [r for r in ranked if r.error is None]
    invalid = [r for r in ranked if r.error is not None]
    valid.sort(key=lambda r: (-r.flops_total, r.name))
    return tuple(replace(r, rank=i + 1) for i, r in enumerate(valid + invalid))
