"""Stride pairs, trellis endpoints and paths, and the canonical naming scheme.

A backbone's downsampling plan is a five-step sequence of per-stage
(time, frequency) stride pairs, each component restricted to 1 or 2.
Running products of the strides give the cumulative downsampling
factors (alpha_n, beta_n); the pair after stage 5 is the path's
endpoint on the 6x6 trellis grid. An endpoint's two factors are each an
``int`` (not a ``bool``) and a power of two in 1..32;
:class:`TrellisEndpoint` is the one check of that rule, and anything else
raises ``ValueError``.

A path stores only its steps. This module alone derives its name
(:attr:`TrellisPath.label`), by endpoint and rank within its endpoint family:

* ``T{a}{b}`` / ``F{a}{b}`` for time-priority (alpha < beta) and
  frequency-priority (alpha > beta) endpoints, where ``a = log2 alpha5``
  and ``b = log2 beta5``;
* ``MOD`` and ``ORI`` for the two reserved equal-stride configurations,
  other equal paths get ``E{a}{a}``;
* the family's latest-downsampling path carries the bare name, alternate
  paths to the same endpoint carry a deterministic letter suffix
  (``b``, ``c``, ...).
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
import re
from dataclasses import dataclass

__all__ = [
    "PathClass",
    "StridePair",
    "TrellisEndpoint",
    "TrellisPath",
    "UnknownConfigError",
    "canonical_name",
    "classify_path",
    "downsampling_factors",
    "endpoint_class",
    "enumerate_endpoints",
    "final_factors",
    "iter_all_paths",
    "paths_to_endpoint",
    "resolve_name",
]

NUM_STAGES = 5

#: Allowed per-dimension stride values.
STRIDE_VALUES = (1, 2)

#: Valid cumulative downsampling factors after stage 5.
ENDPOINT_FACTORS = (1, 2, 4, 8, 16, 32)


class PathClass(enum.Enum):
    """Which resolution a stride configuration preserves."""

    TIME_PRIORITY = "time_priority"
    EQUAL = "equal"
    FREQUENCY_PRIORITY = "frequency_priority"


class UnknownConfigError(ValueError):
    """Raised when a configuration name cannot be resolved to a path."""


@dataclass(frozen=True)
class StridePair:
    """Per-stage stride: ``time`` and ``freq`` components, each 1 or 2."""

    time: int
    freq: int

    def __post_init__(self) -> None:
        for value in (self.time, self.freq):
            if type(value) is not int or value not in STRIDE_VALUES:
                raise ValueError(f"stride components must be 1 or 2, got {value}")

    def is_unit(self) -> bool:
        return self.time == 1 and self.freq == 1


@dataclass(frozen=True)
class TrellisPath:
    """A stride configuration: exactly five sequential stride pairs."""

    steps: tuple[StridePair, ...]

    def __post_init__(self) -> None:
        if len(self.steps) != NUM_STAGES:
            raise ValueError(f"a path has exactly {NUM_STAGES} steps, got {len(self.steps)}")
        if not all(isinstance(step, StridePair) for step in self.steps):
            raise TypeError("path steps must be StridePair values")

    @classmethod
    def from_lists(
        cls,
        time_strides: tuple[int, ...] | list[int],
        freq_strides: tuple[int, ...] | list[int],
    ) -> "TrellisPath":
        if len(time_strides) != len(freq_strides):
            raise ValueError("time and freq stride lists must have equal length")
        return cls(tuple(StridePair(t, f) for t, f in zip(time_strides, freq_strides)))

    @functools.cached_property
    def label(self) -> str:
        """The path's name, derived once from its strides by :func:`canonical_name`."""
        return canonical_name(self)

    @property
    def time_strides(self) -> tuple[int, ...]:
        return tuple(step.time for step in self.steps)

    @property
    def freq_strides(self) -> tuple[int, ...]:
        return tuple(step.freq for step in self.steps)


def downsampling_factors(path: TrellisPath) -> tuple[tuple[int, int], ...]:
    """Cumulative (alpha_n, beta_n) after each stage, n = 1..5."""
    factors = []
    alpha = beta = 1
    for step in path.steps:
        alpha *= step.time
        beta *= step.freq
        factors.append((alpha, beta))
    return tuple(factors)


def final_factors(path: TrellisPath) -> tuple[int, int]:
    """The path's endpoint (alpha_5, beta_5)."""
    return downsampling_factors(path)[-1]


def endpoint_class(alpha5: int, beta5: int) -> PathClass:
    """Time-priority iff alpha_5 < beta_5, frequency-priority iff the reverse."""
    if alpha5 < beta5:
        return PathClass.TIME_PRIORITY
    if alpha5 > beta5:
        return PathClass.FREQUENCY_PRIORITY
    return PathClass.EQUAL


def classify_path(path: TrellisPath) -> PathClass:
    return endpoint_class(*final_factors(path))


@dataclass(frozen=True)
class TrellisEndpoint:
    """A node on the final column of the trellis: (alpha_5, beta_5)."""

    alpha5: int
    beta5: int

    def __post_init__(self) -> None:
        for value in (self.alpha5, self.beta5):
            if type(value) is not int or value not in ENDPOINT_FACTORS:
                raise ValueError(f"invalid endpoint ({self.alpha5!r}, {self.beta5!r}): factors "
                                 "must be ints that are powers of two in 1..32")

    @property
    def exponents(self) -> tuple[int, int]:
        return (self.alpha5.bit_length() - 1, self.beta5.bit_length() - 1)

    @property
    def path_class(self) -> PathClass:
        return endpoint_class(self.alpha5, self.beta5)


def enumerate_endpoints() -> tuple[TrellisEndpoint, ...]:
    """The 36 endpoints of the 6x6 exponent grid, in deterministic order."""
    return tuple(TrellisEndpoint(2 ** a, 2 ** b)
                 for a in range(NUM_STAGES + 1) for b in range(NUM_STAGES + 1))


# ---------------------------------------------------------------------------
# Endpoint families and canonical naming
# ---------------------------------------------------------------------------

# Published alternate configurations pinned to their established letter
# suffixes, keyed by endpoint. Each entry is (time_strides, freq_strides) in
# suffix order b, c, d. The general departure-stage rule below gives the
# (2, 16) letters T14b/c/d on its own, so only the (4, 8) ones are pinned.
_PINNED_ALTERNATES: dict[tuple[int, int], tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]] = {
    (4, 8): (
        ((1, 1, 2, 2, 1), (1, 1, 2, 2, 2)),
        ((1, 1, 1, 2, 2), (1, 2, 2, 2, 1)),
        ((1, 1, 2, 1, 2), (1, 2, 2, 2, 1)),
    ),
}

# Reserved names for the two equal-stride configurations every report
# cross-references: the default modern recipe and the classic image one.
_RESERVED_EQUAL = {
    (8, 8): "MOD",
    (32, 32): "ORI",
}

_SUFFIX_ALPHABET = "bcdefghijklmnopqrstuvwxyz"


def _suffix(rank: int) -> str:
    """Letter suffix for the rank-th alternate path (rank >= 1)."""
    if rank < 1:
        return ""
    rank -= 1
    n = len(_SUFFIX_ALPHABET)
    if rank < n:
        return _SUFFIX_ALPHABET[rank]
    hi, lo = divmod(rank - n, n)
    return _SUFFIX_ALPHABET[hi] + _SUFFIX_ALPHABET[lo]


def _dim_tuples(factor: int) -> list[tuple[int, ...]]:
    """All per-dimension stride tuples whose product equals ``factor``; the
    last packs all downsampling into the latest stages."""
    exponent = factor.bit_length() - 1
    tuples = []
    for positions in itertools.combinations(range(NUM_STAGES), exponent):
        strides = [1] * NUM_STAGES
        for pos in positions:
            strides[pos] = 2
        tuples.append(tuple(strides))
    return tuples


def _first_departure(time: tuple[int, ...], freq: tuple[int, ...],
                     canon_time: tuple[int, ...], canon_freq: tuple[int, ...]) -> int:
    for stage in range(NUM_STAGES):
        if time[stage] != canon_time[stage] or freq[stage] != canon_freq[stage]:
            return stage + 1
    return NUM_STAGES + 1


@functools.lru_cache(maxsize=None)
def _family_order(alpha5: int, beta5: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """Deterministic ordering of all paths to an endpoint.

    The latest-downsampling path comes first (bare name), pinned published
    alternates follow in their established order, and the remaining paths are
    sorted by departing later from the canonical path, ties broken
    lexicographically. The endpoint must be valid: callers check it first.
    """
    time, freq = _dim_tuples(alpha5), _dim_tuples(beta5)
    canon = (time[-1], freq[-1])
    pinned = _PINNED_ALTERNATES.get((alpha5, beta5), ())
    placed = {canon, *pinned}
    rest = [config for config in itertools.product(time, freq) if config not in placed]
    rest.sort(key=lambda cfg: (-_first_departure(cfg[0], cfg[1], *canon), cfg[0], cfg[1]))
    return (canon, *pinned, *rest)


_CLASS_PREFIX = {PathClass.TIME_PRIORITY: "T", PathClass.FREQUENCY_PRIORITY: "F", PathClass.EQUAL: "E"}


def _base_name(alpha5: int, beta5: int) -> str:
    prefix = _CLASS_PREFIX[endpoint_class(alpha5, beta5)]
    return f"{prefix}{alpha5.bit_length() - 1}{beta5.bit_length() - 1}"


#: The four stride pairs, shared by the memoized paths.
_STEPS = {(t, f): StridePair(t, f) for t in STRIDE_VALUES for f in STRIDE_VALUES}


@functools.lru_cache(maxsize=None)
def _family(alpha5: int, beta5: int) -> tuple[dict, dict, tuple[TrellisPath, ...]]:
    """The one memo of an endpoint's names: ``({(time_strides,
    freq_strides): name}, {name: path}, paths)``. Rank ``r`` in
    :func:`_family_order` takes suffix ``r``, and the first path of a
    reserved endpoint takes the reserved name. Callers check the endpoint."""
    order = _family_order(alpha5, beta5)
    base = _base_name(alpha5, beta5)
    names = {config: base + _suffix(rank) for rank, config in enumerate(order)}
    if (alpha5, beta5) in _RESERVED_EQUAL:
        names[order[0]] = _RESERVED_EQUAL[(alpha5, beta5)]
    paths = tuple(TrellisPath(tuple(_STEPS[step] for step in zip(time, freq))) for time, freq in order)
    return names, dict(zip(names.values(), paths)), paths


def canonical_name(path: TrellisPath) -> str:
    """Stable, injective short name for a path (e.g. ``T14c``, ``MOD``)."""
    time, freq = path.time_strides, path.freq_strides
    return _family(math.prod(time), math.prod(freq))[0][(time, freq)]


# Suffixes are drawn from _SUFFIX_ALPHABET, which has no ``a``.
_NAME_PATTERN = re.compile(r"^(?P<cls>[TFE])(?P<a>[0-5])(?P<b>[0-5])(?P<suffix>[b-z]{0,2})$")


def resolve_name(name: str) -> TrellisPath:
    """Inverse of :func:`canonical_name`; raises :class:`UnknownConfigError`."""
    cleaned = name.strip()
    for endpoint, reserved in _RESERVED_EQUAL.items():
        if cleaned.upper() == reserved:
            return paths_to_endpoint(*endpoint)[0]
    match = _NAME_PATTERN.match(cleaned)
    if match is None:
        raise UnknownConfigError(f"unrecognized configuration name {cleaned!r}")
    alpha5 = 2 ** int(match.group("a"))
    beta5 = 2 ** int(match.group("b"))
    cls = match.group("cls")
    if _CLASS_PREFIX[endpoint_class(alpha5, beta5)] != cls:
        raise UnknownConfigError(f"{cleaned!r}: prefix {cls!r} does not match endpoint ({alpha5}, {beta5})")
    _, by_name, paths = _family(alpha5, beta5)
    if cleaned in by_name:
        return by_name[cleaned]
    if not match.group("suffix") and (alpha5, beta5) in _RESERVED_EQUAL:
        reserved = _RESERVED_EQUAL[(alpha5, beta5)]
        raise UnknownConfigError(f"{cleaned!r}: this configuration is named {reserved!r}")
    raise UnknownConfigError(f"{cleaned!r}: endpoint ({alpha5}, {beta5}) has only {len(paths)} paths")


def paths_to_endpoint(alpha5: int, beta5: int) -> tuple[TrellisPath, ...]:
    """All paths reaching (alpha5, beta5), in canonical naming order. The
    endpoint is checked before any memo is read; every call for a valid
    endpoint returns the same tuple of frozen paths (36 tuples, 1024 paths
    in all)."""
    TrellisEndpoint(alpha5, beta5)
    return _family(alpha5, beta5)[2]


def iter_all_paths():
    """All 4^5 = 1024 stride configurations, in endpoint-major order."""
    for endpoint in enumerate_endpoints():
        yield from paths_to_endpoint(endpoint.alpha5, endpoint.beta5)
