"""Every residual block kind, pinned as it stands.

Basic, bottleneck and depth-first blocks are built through the families
that carry them, with and without each block option (squeeze-excite,
Res2Net), on four paths: MOD and ORI, T14c (a golden-gemini endpoint that
strides stage 2 in frequency only) and F50 (time strides only). A build
records the sha256 of its schema-v1 JSON or the class of the exception it
raises, so an option a kind refuses is pinned as its refusal. The layer
count of one to three blocks of each kind is pinned as a number.
"""

import hashlib

import pytest

from stride_lab.builder import BuildError, build, depth_from_blocks, make_request
from stride_lab.layers import BlockKind
from stride_lab.serialize import model_to_json

#: (family, depth label): basic, bottleneck and depth-first blocks, on the
#: modified, original, Gemini and separately-downsampled recipes.
MODELS = (
    ("modified_resnet", 18),
    ("modified_resnet", 50),
    ("original_resnet", 34),
    ("gemini_resnet", 50),
    ("sd_resnet", 22),
    ("df_resnet", 59),
    ("df_resnet", 60),
)
OPTIONS = {
    "plain": {},
    "se4": {"se_reduction": 4},
    "res2net4": {"res2net_scale": 4},
}
PATHS = ("MOD", "T14c", "ORI", "F50")

BLOCK_DIGESTS = {
    "modified_resnet/18/plain": "8db44705428f58d17d93779ec20d670a8e593dd01c7df9736141b2afe89ea106",
    "modified_resnet/18/se4": "7e6c7be1b9e0ab02e62bd50f8912929bfa7b726ae67df75fde5702b1a56d1cd3",
    "modified_resnet/18/res2net4": "6b0868364f7cb4ee4964e8d2a3d108a4787fa6c1005880271139466a112e9fdf",
    "modified_resnet/50/plain": "ece586451792d93367680b7333daaf7b4a5a25a7d15d8b56e487587ab37b792f",
    "modified_resnet/50/se4": "a26e04a4d8f20ec256f33ffc912eb803ff1bf9cd5d1411f6e52033fa9a5ef0fa",
    "modified_resnet/50/res2net4": "a4b585eff1b9c68b4849aa00aaedbcbd741b1db4ff904a4b64799757cce5df71",
    "original_resnet/34/plain": "2e57ca0bb329bca85accd8d52a502ad5fb8310bc278b2b33aaf82866e12f2097",
    "original_resnet/34/se4": "8b87916de938e371a0f801b5270b5067bfae9416c09c345fdd0f1c2fc200042c",
    "original_resnet/34/res2net4": "9518474597ecd9e076f0ded8b36a1e8d57358e595f26eec63747df2886be4ef7",
    "gemini_resnet/50/plain": "08829c500539ccf748dafaeef9e702d4403be6140740cda73f9fc5388259e0df",
    "gemini_resnet/50/se4": "c1418dedb7ffbb3840ebfa12746cdd001e25a47d479b4965aaca909e5c55d513",
    "gemini_resnet/50/res2net4": "a4b585eff1b9c68b4849aa00aaedbcbd741b1db4ff904a4b64799757cce5df71",
    "sd_resnet/22/plain": "9773aa95750e60463a2ae28e14f0b664a76fd19c3be2a645a291ddcf6d9a1967",
    "sd_resnet/22/se4": "c1480f7dc6e5917372f22c8bbb3c19a9b0238ab2e4a91126f5ab6d58160c08a7",
    "sd_resnet/22/res2net4": "b3728b8876f2d89899886b2e0bdcc2a80fdf0bb1a88be556c517905c51c177bb",
    "df_resnet/59/plain": "3855eef015e1260a61c9d971387bfb8719789270d88f9471b7290f152e3f90bc",
    "df_resnet/59/se4": "a4b585eff1b9c68b4849aa00aaedbcbd741b1db4ff904a4b64799757cce5df71",
    "df_resnet/59/res2net4": "a4b585eff1b9c68b4849aa00aaedbcbd741b1db4ff904a4b64799757cce5df71",
    "df_resnet/60/plain": "b34219ee47e44d92f3f79944a3347527425904d5a1feb1944eb03107733b841d",
    "df_resnet/60/se4": "a4b585eff1b9c68b4849aa00aaedbcbd741b1db4ff904a4b64799757cce5df71",
    "df_resnet/60/res2net4": "a4b585eff1b9c68b4849aa00aaedbcbd741b1db4ff904a4b64799757cce5df71",
}

#: Per kind, the layer count of m = 1, 2, 3 blocks with no downsampling
#: convs: the blocks' convs plus the stem conv and the embedding layer.
DEPTHS_FROM_BLOCKS = {
    BlockKind.BASIC: (4, 6, 8),
    BlockKind.BOTTLENECK: (5, 8, 11),
    BlockKind.DF_INVERTED: (5, 8, 11),
}

CASES = [(family, depth, option) for family, depth in MODELS for option in OPTIONS]


def block_records(family: str, depth: int, option: str) -> str:
    lines = []
    for path in PATHS:
        try:
            spec = build(make_request(family, depth, path=path, **OPTIONS[option]))
        except Exception as exc:  # the class is the record
            lines.append(f"{path} raises {type(exc).__name__}")
            continue
        lines.append(f"{path} {hashlib.sha256(model_to_json(spec).encode()).hexdigest()}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(("family", "depth", "option"), CASES, ids=lambda v: str(v))
def test_block_records_unchanged(family, depth, option):
    text = block_records(family, depth, option)
    assert hashlib.sha256(text.encode()).hexdigest() == BLOCK_DIGESTS[f"{family}/{depth}/{option}"], text


def test_every_case_is_pinned():
    assert sorted(BLOCK_DIGESTS) == sorted(f"{f}/{d}/{o}" for f, d, o in CASES)


@pytest.mark.parametrize("kind", list(BlockKind), ids=lambda k: k.value)
def test_depth_from_blocks(kind):
    assert tuple(depth_from_blocks(kind, m) for m in (1, 2, 3)) == DEPTHS_FROM_BLOCKS[kind]
    assert tuple(depth_from_blocks(kind, m, 4) for m in (1, 2, 3)) == tuple(
        d + 4 for d in DEPTHS_FROM_BLOCKS[kind])


@pytest.mark.parametrize("kind", [*BlockKind, None], ids=lambda k: getattr(k, "value", "none"))
def test_depth_from_no_blocks_is_refused(kind):
    with pytest.raises(BuildError, match="block count must be >= 1"):
        depth_from_blocks(kind, 0)
