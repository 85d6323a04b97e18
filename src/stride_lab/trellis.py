"""Path families on the stride trellis and their FLOPs ranking.

The trellis's endpoints and paths live in :mod:`.strides`; this module
groups the paths sharing an endpoint into a family, whose members have
identical parameter counts but different FLOPs, depending on how early
the downsampling happens, and ranks a family by those FLOPs. Except in
DF-ResNet, where a stage-2 stride adds a conv: 24 of DF-ResNet182's 36
families mix two counts, and ranking one raises ``AssertionError``.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

from .catalog import GOLDEN_GEMINI_FACTORS
from .layers import ModelSpec, TensorShape
from .strides import TrellisEndpoint, TrellisPath, paths_to_endpoint

__all__ = [
    "PathFamily",
    "RankedPath",
    "enumerate_paths",
    "golden_gemini_endpoints",
    "rank_paths_by_flops",
]


@dataclass(frozen=True)
class PathFamily:
    """All stride configurations converging on one endpoint."""

    endpoint: TrellisEndpoint

    @property
    def paths(self) -> tuple[TrellisPath, ...]:
        """The endpoint's memoized paths in canonical naming order."""
        return paths_to_endpoint(self.endpoint.alpha5, self.endpoint.beta5)


@dataclass(frozen=True)
class RankedPath:
    """One family member with its analytic complexity, ordered by FLOPs."""

    path: TrellisPath
    rank: int
    flops_total: int
    params_total: int
    #: Always None (no built path underflows); the benchmark's ranking digest reads it.
    error: str | None = None

    @property
    def name(self) -> str:
        """The path's name, derived from its strides."""
        return self.path.label


def enumerate_paths(endpoint: TrellisEndpoint) -> PathFamily:
    """All paths whose stride products equal the endpoint factors."""
    return PathFamily(endpoint)


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

    Every path is substituted into the template's build request and built
    once; its parts are elaborated once per template and path and kept in
    the template's table (``BuildRequest._elaborated``), and ``build`` and
    the count read that tuple. Parameter counts are asserted
    identical across the family, and each path is named by its strides.
    No built path underflows the input shape (every striding layer maps n to
    ceil(n/2)); a spec that does raises :class:`~.analysis.ShapeUnderflowError`.

    The totals are ``count_flops``'s, summed over those parts (the stem,
    stages and head of ``builder._parts``) by ``analysis._parts_totals``,
    through the edge table that :mod:`.analysis` keeps across calls and
    bounds, one entry per trellis edge, ``(part, input shape)``: 256 for
    all 36 families of a template at one duration, at most 6 per path. A
    part seen at the same input shape, by this ranking or an earlier one,
    reuses its counts, and a new stage is counted from its plumbing, its
    first block and ``num_blocks - 1`` times its block 2.
    """
    from .analysis import _parts_totals
    from .builder import build, request_from_spec

    rows = []
    params_seen: set[int] = set()
    for path in family.paths:
        req = request_from_spec(spec_template, path=path)
        build(req)
        params, flops = _parts_totals(req._elaborated, input_shape)
        params_seen.add(params)
        rows.append((-flops, path.label, path, params))
    if len(params_seen) > 1:
        raise AssertionError(
            f"parameter count varies within family ({family.endpoint.alpha5}, "
            f"{family.endpoint.beta5}): {sorted(params_seen)}"
        )
    rows.sort(key=itemgetter(0, 1))  # rows are (-flops, name, path, params)
    return tuple(RankedPath(path, rank, -neg_flops, params)
                 for rank, (neg_flops, _, path, params) in enumerate(rows, start=1))
