"""The whole stride space, pinned: ``(template, T, path name, params, MACs)``
for every path of every preset template at three durations, hashed against
one digest.

The rows are counted as ``rank_paths_by_flops`` counts them: each path's
request is made from its template through ``request_from_spec``, built, and
counted over the builder's parts by ``analysis._parts_totals``, through
the edge table the rankings share, emptied for the test. The
digest was made from the memo-free oracle (``build`` + ``count_params`` +
``count_flops`` per path, :func:`oracle_rows`), so a change to how a path is
built or counted that moves any integer fails here, and the failure names
the first row where the production count and the oracle part.
"""

from __future__ import annotations

import hashlib

from stride_lab.analysis import _parts_totals, count_flops, count_params
from stride_lab.builder import _parts, build, make_request, request_from_spec
from stride_lab.layers import TensorShape
from stride_lab.strides import enumerate_endpoints
from stride_lab.trellis import enumerate_paths

#: (family, depth label, options) of every preset, then SE, Res2Net and
#: Gemini ResNet34, whose non-golden paths build as modified ResNet34.
TEMPLATES = (
    *((family, depth, {}) for family in ("modified_resnet", "original_resnet")
      for depth in (18, 34, 50, 101, 152)),
    *(("df_resnet", depth, {}) for depth in (59, 60, 113, 114, 182, 183)),
    ("sd_resnet", 22, {}),
    ("sd_resnet", 38, {}),
    ("modified_resnet", 34, {"se_reduction": 4}),
    ("modified_resnet", 34, {"res2net_scale": 4}),
    ("gemini_resnet", 34, {}),
)
FRAMES = (200, 300, 21)
SHAPES = tuple(TensorShape(1, 80, frames) for frames in FRAMES)

#: sha256 of "\n".join(rows), from oracle_rows().
STRIDE_SPACE_DIGEST = "0c321308011add7601588b9cf436667c9405345e00ed5fece77cf59733ef181e"


def _template_rows(count_path):
    """Every row. ``count_path()`` is called once per endpoint family and
    returns a counter: (request, spec) -> one ``(params, MACs)`` per T of
    FRAMES."""
    rows = []
    for family, depth, options in TEMPLATES:
        label = "/".join([family, str(depth), *(f"{k}={v}" for k, v in options.items())])
        try:
            template = build(make_request(family, depth, **options))
        except Exception as exc:  # a refused template is one row naming its error
            rows.append(f"{label}\t{type(exc).__name__}")
            continue
        for endpoint in enumerate_endpoints():
            count = count_path()
            for path in enumerate_paths(endpoint).paths:
                req = request_from_spec(template, path=path)
                for frames, (params, macs) in zip(FRAMES, count(req, build(req))):
                    rows.append(f"{label}\t{frames}\t{path.label}\t{params}\t{macs}")
    return rows


def memo_rows():
    """The rows as the ranking counts them, through the edge table."""

    def count_path():
        return lambda req, spec: [_parts_totals(_parts(req), shape) for shape in SHAPES]

    return _template_rows(count_path)


def oracle_rows():
    """The rows with no memo: a whole ``count_params`` and ``count_flops``
    per path and T."""

    def count_path():
        return lambda req, spec: [(count_params(spec).params_total, count_flops(spec, shape).flops_total)
                             for shape in SHAPES]

    return _template_rows(count_path)


def _digest(rows):
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()


def test_stride_space_digest(fresh_edges):
    rows = memo_rows()
    if _digest(rows) != STRIDE_SPACE_DIGEST:
        oracle = oracle_rows()
        first = next((i for i, (a, b) in enumerate(zip(rows, oracle)) if a != b), None)
        if first is None and len(rows) == len(oracle):
            raise AssertionError(f"the oracle agrees with all {len(rows)} rows, but their digest "
                                 f"{_digest(rows)} is not the recorded one")
        first = min(len(rows), len(oracle)) if first is None else first
        raise AssertionError(f"first differing row {first}: counted "
                             f"{rows[first] if first < len(rows) else None!r}, oracle "
                             f"{oracle[first] if first < len(oracle) else None!r}")
