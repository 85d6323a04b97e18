"""Catalog of the well-known named stride configurations.

These are the configurations that complexity reports and diagrams
cross-reference by short name: the two reserved equal-stride recipes
(ORI, MOD), the strategic-search grid (T05 .. F50), and the lettered
alternate routes to the two golden endpoints.
"""

from __future__ import annotations

from .strides import TrellisPath

__all__ = [
    "CATALOG_NAMES",
    "GOLDEN_GEMINI_FACTORS",
    "PRINCIPAL_CONFIG",
    "is_cataloged",
]

#: The two endpoints with the best observed operating states: both
#: time-priority, neither on the trellis boundary.
GOLDEN_GEMINI_FACTORS = ((2, 16), (4, 8))

#: The configuration used as the default golden-gemini recipe.
PRINCIPAL_CONFIG = "T14c"

#: Catalog order: equal-stride references, the strategic-search grid in
#: report order, then the lettered golden-endpoint routes.
CATALOG_NAMES = (
    "ORI",
    "MOD",
    "T05",
    "F50",
    "T15",
    "F51",
    "T25",
    "F52",
    "T14",
    "F41",
    "T24",
    "F42",
    "T34",
    "F43",
    "T23",
    "F32",
    "T04",
    "T13",
    "T14b",
    "T14c",
    "T14d",
    "T23b",
    "T23c",
    "T23d",
)


def is_cataloged(path: TrellisPath) -> bool:
    return path.label in CATALOG_NAMES
