"""Every family's rules, pinned as they stand.

Each family is built at every preset depth label of any family, plus one
label no family presets, on its default path, MOD, T14c and ORI. So is
each family at the labels one block per stage could have, with those
block counts given: only a family with one block kind at every depth
needs no preset for them. A build records the sha256 of its schema-v1
JSON or the class of the exception it raises; a spec that builds also records the depth label and family that
``request_from_spec`` recovers for each of the four paths (its own path
for the default). The digest of those records is pinned per family, with
each family's display name and command-line alias.
"""

import hashlib

import pytest

from stride_lab.builder import build, make_request, request_from_spec
from stride_lab.cli import _FAMILIES, main
from stride_lab.layers import Family
from stride_lab.serialize import model_to_json
from stride_lab.strides import resolve_name

#: Every preset depth label of any family, and 20, which no family presets.
DEPTHS = (18, 20, 22, 34, 38, 50, 59, 60, 101, 113, 114, 152, 182, 183)
#: Labels of one block per stage: basic (10), basic with 4 separate
#: downsampling convs (14), depth-first with 3 or 4 (17, 18).
ONE_BLOCK_DEPTHS = (10, 14, 17, 18)
#: None is the family's default path (the spec's own path for a substitution).
PATHS = (None, "MOD", "T14c", "ORI")

FAMILY_DIGESTS = {
    "original_resnet": "bad7314c2c610e107c0eb26536630e69c4af7ef3dda9817495ee17f6088bee6d",
    "modified_resnet": "38143ad5e1d9b3b4d7aafa5113937fbe3630309ee17c82a887ae0ebb86668655",
    "gemini_resnet": "d54aa8e8f602910d2364238750397ff57f624283a4988258ab8c3ad97af9302a",
    "df_resnet": "71f05606fa652a904449bb477ecfc78337040070f5a0af170e45355541eca3c0",
    "sd_resnet": "8fbb7af54600359eaf058b872b8973448ed58b59d882feb434a1cc03c002eed9",
}

#: Per family: its command-line alias, and the display name of its build
#: at the given depth on its default path.
NAMES = {
    "original_resnet": ("original-resnet", 34, "original ResNet34"),
    "modified_resnet": ("resnet", 34, "modified ResNet34"),
    "gemini_resnet": ("gemini-resnet", 34, "Gemini ResNet34"),
    "df_resnet": ("dfresnet", 59, "DF-ResNet59"),
    "sd_resnet": ("sdresnet", 22, "SD-ResNet22"),
}


def family_records(family: Family) -> str:
    lines = []
    cases = [(depth, None) for depth in DEPTHS] + [(depth, (1, 1, 1, 1)) for depth in ONE_BLOCK_DEPTHS]
    for depth, counts in cases:
        for path in PATHS:
            key = f"{depth}/{path or 'default'}{'/one-block' if counts else ''}"
            try:
                spec = build(make_request(family, depth, path=path, block_counts=counts))
            except Exception as exc:  # the class is the record
                lines.append(f"{key} raises {type(exc).__name__}")
                continue
            digest = hashlib.sha256(model_to_json(spec).encode()).hexdigest()
            recovered = []
            for other in PATHS:
                req = request_from_spec(spec, None if other is None else resolve_name(other))
                recovered.append(f"{other or 'own'}={req.family.value}/{req.depth_label}")
            lines.append(f"{key} {digest} {' '.join(recovered)}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
def test_family_records_unchanged(family):
    text = family_records(family)
    assert hashlib.sha256(text.encode()).hexdigest() == FAMILY_DIGESTS[family.value], text


def test_every_family_is_pinned():
    assert sorted(FAMILY_DIGESTS) == sorted(NAMES) == sorted(f.value for f in Family)


def test_cli_aliases():
    assert _FAMILIES == {alias: Family(value) for value, (alias, _, _) in NAMES.items()}


@pytest.mark.parametrize("value", sorted(NAMES))
def test_display_name(value):
    _, depth, name = NAMES[value]
    assert build(make_request(value, depth)).display_name == name


@pytest.mark.parametrize("alias", sorted(alias for alias, _, _ in NAMES.values()))
def test_preset_miss_exits_2(alias, capsys):
    assert main(["analyze", alias, "20"]) == 2
    assert "preset for depth 20" in capsys.readouterr().err
