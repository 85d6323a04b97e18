import dataclasses
import functools
import hashlib
import json
import operator
import re

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from stride_lab import cli
from stride_lab.analysis import AnalysisError, count_flops
from stride_lab.builder import BuildError, build, make_request
from stride_lab.catalog import GOLDEN_GEMINI_FACTORS
from stride_lab.cli import main
from stride_lab.diagram import trellis_dot
from stride_lab.layers import Conv2d, TensorShape
from stride_lab.serialize import (
    SpecFormatError,
    format_table,
    model_from_json,
    model_to_json,
)
from stride_lab.strides import final_factors, iter_all_paths, resolve_name
from stride_lab.verification import catalog_spec

from oracles import MALFORMED_SPECS, reference_doc, reference_model_from_json


# sha256 of model_to_json(spec) (indent 2), recorded before the field-driven
# codec replaced the per-kind encoder. Keys are family/depth/path[/option];
# "catalog" rows go through catalog_spec, "default" takes the family's
# default path.
SCHEMA_V1_DIGESTS = {
    "catalog/34/ORI": "42291eaef15ed079907dc23f3d70112b9e7e13ecdae22f0389606613e79ba3b8",
    "catalog/34/MOD": "ed7e1b9f9b5d4e6b2f1eaa3d46f69da637fcab0a78fee0428cd9cf8975894cee",
    "catalog/34/T05": "c766a0a0213338f916e7efbaa7c20626496bb9fb3d35877815029dee15dfb20e",
    "catalog/34/F50": "533185d70fae371a39f4806e36a4f9822f5dfa96e77f36d7765bee3aa791a3e9",
    "catalog/34/T15": "fbca4d626cbc35ba965cb56475db4a8e7125214d8e0c88fc69681e7154ab120a",
    "catalog/34/F51": "11ae3c340e645daa77f6f8cd85695799bd887e7f2ad03e74c05ea866e14b07ed",
    "catalog/34/T25": "aa362a1a781f6323aea8fba48efe006f2572e7c43a459ed4ab7170ca1d1dc963",
    "catalog/34/F52": "8058757ccf834e46338f01ea766792941797ca27a8ebabfb804ffc8bdffd5c3c",
    "catalog/34/T14": "3f36341d71f11fed7bb7d6c7cb66808ac1fe230c036fd433a24a6a946e6870c4",
    "catalog/34/F41": "a7c6c5a4ab56972882503477c3f42cf0e0c04f41ae42293d92fcc1091f39f005",
    "catalog/34/T24": "918b6f9cf87596d83bce181fa60ffb8ab41997cbd8fecacbca212c1be699a6fb",
    "catalog/34/F42": "ea4247148f65366e95bfdb076d65950af38887c8f37826d816d6ce50092143a2",
    "catalog/34/T34": "ae6ef484c4ece71eeb20921c7361ac40003b94d5d74ce8e303c56d21b4bf7d1b",
    "catalog/34/F43": "ee35f27544b9652d427efa8fa4cde4d255eadde47e052fbc8e94b6c789c5ec0a",
    "catalog/34/T23": "e5fe8fddce1fa3557a88330b02296f1ac34ea7484e26e286e345c09c6a4354bb",
    "catalog/34/F32": "7ae56f635a905983007c5ac60072dc619c17960bf187dcc78939fae3dce87c09",
    "catalog/34/T04": "78b9d5f9c725206c0f3ea30f191b8513dee2b717dbeef0229a26f64be0a1306c",
    "catalog/34/T13": "bfc733771605ba1954642714d0df0920c0c8006b6aabfd648fc1c5604cfd266a",
    "catalog/34/T14b": "9752f1a0ab8d6870ddfbc68bc65915b0338b02f912077aa87bb1ae8d59015885",
    "catalog/34/T14c": "dbfa2e17293497984f1156e9ee07af5b2e82858fba03fb7721304827570d8673",
    "catalog/34/T14d": "6fd1a1b6d0dbb039d99fe07afce89f751942de99c9d7e3feecbe5bc4075e5499",
    "catalog/34/T23b": "b263e91ff843d225596d1f4f09f8d57abd8e8fcd884546e8b2c3d3fcccbd8d37",
    "catalog/34/T23c": "c237e7748218b5a667850a79764ddd03add2a124b7c28e8be6adb9c882241a64",
    "catalog/34/T23d": "5b73cdb898dbc6556cc7d331d7266d6bdb98fbc188753efc63008a37b795ce86",
    "original_resnet/18/default": "9fcec9ed2a2223cb8296e9df3fa21ddd7c03e7c99dc066b2899b045fa8a691f1",
    "original_resnet/34/default": "42291eaef15ed079907dc23f3d70112b9e7e13ecdae22f0389606613e79ba3b8",
    "original_resnet/50/default": "9d798877b90cd0dad4b7ebed8635a5b1e770b6db0e0ba9927a8500ef38ec74cc",
    "original_resnet/101/default": "f946d6c2cda830f9cebb2bfaeb40dbb744e5cdf0823d6cad92f1c8f06aea5e0e",
    "original_resnet/152/default": "4fed34fd2b5041b914197437e85a9613fe1d1b4f2cac12a862a75741aa68c250",
    "modified_resnet/18/default": "b673dc72eed4e191752f88cd52f4357f67fe29137e807176a4294175a156761c",
    "modified_resnet/34/default": "ed7e1b9f9b5d4e6b2f1eaa3d46f69da637fcab0a78fee0428cd9cf8975894cee",
    "modified_resnet/50/default": "0904b63631d28816df37332de3f7b01f74ba1bcb5ce2c242d7d866a62c407a0d",
    "modified_resnet/101/default": "ad2d3afa41ffbb05d9f04af7ad843962f0c2c4749e0df3742ddfa27e39e11b02",
    "modified_resnet/152/default": "32b8f4af0a70b2b8e8e13015e68d33ce792f8ba1379a1685aee17c9871a88972",
    "gemini_resnet/18/default": "5f7948d2cabdc3fe33e1384b5271b7f05dca465c481c793965e0475d564d9863",
    "gemini_resnet/34/default": "6d237ae35e1976b9005d02c1f3cd80796a65c7fa4f05c348cf678c888c950e48",
    "gemini_resnet/50/default": "14dc4950abd9fbd9fb6292afe959a2fccd39d3f988ade8896a110726180e9750",
    "gemini_resnet/101/default": "6b027721afc70dcdb47a3ecf519fe683273a12f4edc38941615537d90505368d",
    "gemini_resnet/152/default": "620d534e5da828ba559c07cba44453c73df1c32577fad789621ae4e238c440c3",
    "df_resnet/59/default": "8a8092cb02b17f3757c176e31972da3e0ff720447aac281837b68cd8a4c24823",
    "df_resnet/113/default": "2d421e8d77a6547c913ec60ab4e73a025cb16f5264cfafbe7ee7c19642c95676",
    "df_resnet/182/default": "04bd1e1f04c8bda6645287ef44da761fc475d1aa7a866caf002c19ea6d7e35c8",
    "sd_resnet/22/default": "1d881f0eb0da7714bbcdd6593a53688e33bdc34ed53b80ebda7e1036a1e10461",
    "sd_resnet/38/default": "c518642587d31d11883896bac5ee616b74669db295121614639248ee27a91119",
    "df_resnet/60/T14c": "3e01711ebb5464ebb1a753a96ad29599d73a41b206ddce67736e741f88005a2d",
    "df_resnet/114/T14c": "1f0f1c37f4145cb5b4b8375381b33240f51435734d782d518fd55622db223ec9",
    "df_resnet/183/T14c": "980500c36b9de43b5099b0bd37211c426403d7ed1d507c8619d2a2ff05e8399c",
    "modified_resnet/18/MOD/se4": "35d1ca5f77724c905acd48a3f76cc59ef1148e33bcd8d37ce0ba59be3f1d23d8",
    "modified_resnet/18/MOD/res2net4": "e7af386144877bce4ab17824d20d9abbfc56168e6e3c767645851fee238f2571",
    "modified_resnet/34/MOD/se4": "7ee780a58f17152f51bfb6e03f52802d3314ddff3b58377b21f4bcab6b775f1a",
    "modified_resnet/34/MOD/res2net4": "210d9383f2d32355190ab30779e09ea8a557190999c17300d63ec1bb755c02fb",
}

_GOLDEN_OPTIONS = {"se4": {"se_reduction": 4}, "res2net4": {"res2net_scale": 4}}


def _golden_spec(key):
    family, depth, path, *option = key.split("/")
    if family == "catalog":
        return catalog_spec(path, int(depth))
    extra = _GOLDEN_OPTIONS[option[0]] if option else {}
    return build(make_request(family, int(depth), path=None if path == "default" else path, **extra))


@pytest.mark.parametrize("key", sorted(SCHEMA_V1_DIGESTS))
def test_schema_v1_bytes_unchanged(key):
    spec = _golden_spec(key)
    text = model_to_json(spec)
    assert hashlib.sha256(text.encode()).hexdigest() == SCHEMA_V1_DIGESTS[key]
    assert model_from_json(text) == spec


class TestModelJson:
    def test_round_trip_identity(self, mod34, gemini34, original34, df183):
        for spec in (mod34, gemini34, original34, df183):
            loaded = model_from_json(model_to_json(spec))
            assert loaded == spec

    def test_a_document_that_is_not_an_object(self):
        with pytest.raises(SpecFormatError) as info:
            model_from_json("[]")
        assert str(info.value) == "spec document must be a JSON object"

    def test_round_trip_preserves_analysis(self, gemini34):
        loaded = model_from_json(model_to_json(gemini34))
        shape = TensorShape(1, 80, 300)
        assert count_flops(loaded, shape) == count_flops(gemini34, shape)

    def test_schema_version_checked(self, mod34):
        doc = json.loads(model_to_json(mod34))
        doc["schema_version"] = 99
        with pytest.raises(SpecFormatError):
            model_from_json(json.dumps(doc))

    def test_corrupted_stride_rejected(self, mod34):
        doc = json.loads(model_to_json(mod34))
        for layer in doc["layers"]:
            if layer["kind"] == "conv2d":
                layer["stride"]["freq"] = 3
                break
        with pytest.raises(SpecFormatError):
            model_from_json(json.dumps(doc))

    def test_invalid_json_rejected(self):
        with pytest.raises(SpecFormatError):
            model_from_json("{not json")

    def test_unknown_layer_kind_rejected(self, mod34):
        doc = json.loads(model_to_json(mod34))
        doc["layers"][0]["kind"] = "deconv9d"
        with pytest.raises(SpecFormatError):
            model_from_json(json.dumps(doc))

    def test_unserializable_layer_refused(self, mod34):
        @dataclasses.dataclass(frozen=True)
        class Conv3d(Conv2d):
            pass

        entry = mod34.entries[0]
        odd = dataclasses.replace(entry, layer=Conv3d(**vars(entry.layer)))
        spec = dataclasses.replace(mod34, entries=(odd, *mod34.entries[1:]))
        with pytest.raises(SpecFormatError, match=r"^unserializable layer Conv3d$"):
            model_to_json(spec)

    def test_duplicate_layer_name_rejected(self):
        doc = json.loads(model_to_json(build(make_request("modified_resnet", 18, path="MOD"))))
        renamed = [l for l in doc["layers"] if l["name"] == "stage2.block2.conv1"]
        assert len(renamed) == 1
        renamed[0]["name"] = "stage2.block1.conv2"
        with pytest.raises(SpecFormatError, match=r"duplicate layer name 'stage2\.block1\.conv2'"):
            model_from_json(json.dumps(doc))

    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("padding", [-1, -1], "padding components must be >= 0"),
            ("kernel", [0, 0], "kernel components must be >= 1"),
        ],
        ids=["negative-padding", "zero-kernel"],
    )
    def test_invalid_maxpool_rejected(self, original34, field, value, message):
        doc = json.loads(model_to_json(original34))
        pool = next(l for l in doc["layers"] if l["kind"] == "maxpool2d")
        pool[field] = value
        with pytest.raises(SpecFormatError, match=rf"^layer 'stage2\.maxpool': {message}$") as info:
            model_from_json(json.dumps(doc))
        assert str(info.value).count("stage2.maxpool") == 1

    @pytest.mark.parametrize("mutation", sorted(MALFORMED_SPECS))
    def test_malformed_spec_rejected(self, mod34, mutation):
        doc = json.loads(model_to_json(mod34))
        mutate, message = MALFORMED_SPECS[mutation]
        mutate(doc)
        with pytest.raises(SpecFormatError, match=re.escape(message)) as info:
            model_from_json(json.dumps(doc))
        named = re.match(r"layer '([^']+)'", message)
        assert named is None or str(info.value).count(named[1]) == 1

    @pytest.mark.parametrize("family,depth,options", [
        ("original_resnet", 18, {}),
        ("modified_resnet", 18, {"se_reduction": 4, "res2net_scale": 4}),
        ("df_resnet", 60, {"path": "T14c"}),
    ])
    def test_defaulted_fields_may_be_omitted(self, family, depth, options):
        spec = build(make_request(family, depth, **options))
        full = model_to_json(spec)
        doc = json.loads(full)

        def drop_defaults(obj, obj_doc):
            for f in dataclasses.fields(obj):
                if f.default is not dataclasses.MISSING and getattr(obj, f.name) == f.default:
                    del obj_doc[f.name]

        for key in ("se_reduction", "res2net_scale", "notes"):
            if not doc[key]:
                del doc[key]
        for stage, stage_doc in zip(spec.stages, doc["stages"]):
            drop_defaults(stage, stage_doc)
        for entry, layer_doc in zip(spec.entries, doc["layers"]):
            drop_defaults(entry, layer_doc)
            drop_defaults(entry.layer, layer_doc)
        convs = [layer for layer in doc["layers"] if layer["kind"] == "conv2d"]
        assert any("stride" not in conv for conv in convs)
        assert any("padding" not in conv for conv in convs)
        assert model_from_json(json.dumps(doc)) == model_from_json(full) == spec

    def test_se_and_res2net_round_trip(self):
        spec = build(make_request("modified_resnet", 34, se_reduction=4))
        assert model_from_json(model_to_json(spec)) == spec
        spec = build(make_request("modified_resnet", 34, res2net_scale=4))
        assert model_from_json(model_to_json(spec)) == spec


    def test_deep_nesting_is_invalid_json(self):
        with pytest.raises(SpecFormatError, match="invalid JSON: maximum recursion depth"):
            model_from_json("[" * 100_000)


#: Preset depths per family; a depth-first pair shares its blocks and fits
#: a path under exactly one of its two labels.
_DEPTHS = {
    "original_resnet": ((18,), (34,), (50,), (101,), (152,)),
    "modified_resnet": ((18,), (34,), (50,), (101,), (152,)),
    "gemini_resnet": ((18,), (34,), (50,), (101,), (152,)),
    "sd_resnet": ((22,), (38,)),
    "df_resnet": ((59, 60), (113, 114), (182, 183)),
}
_PATHS = tuple(iter_all_paths())
_GOLDEN_PATHS = tuple(p for p in _PATHS if final_factors(p) in GOLDEN_GEMINI_FACTORS)

#: Layer-name text: JSON specials, control characters, non-ASCII and
#: template-like characters, besides anything else Hypothesis draws.
_NAME_TEXT = st.text(
    st.one_of(st.sampled_from('"\\{}[],:%\n\t\x00\x1f\x7f\u00e9\u2028\U0001f600'), st.characters()),
    max_size=6,
)


@st.composite
def _specs(draw):
    """A built spec with drawn family, preset depth, path and SE/Res2Net,
    its layers renamed from ``_NAME_TEXT`` and notes drawn too (a path's
    label is derived from its strides, so it is not drawn)."""
    family = draw(st.sampled_from(sorted(_DEPTHS)))
    labels = draw(st.sampled_from(_DEPTHS[family]))
    path = draw(st.sampled_from(_GOLDEN_PATHS if family == "gemini_resnet" else _PATHS))
    options = {"se_reduction": draw(st.sampled_from((None, 2, 4))),
                "res2net_scale": draw(st.sampled_from((None, 2, 4)))}
    spec = None
    for depth in labels:
        try:
            spec = build(make_request(family, depth, path=path, **options))
            break
        except (BuildError, AnalysisError):
            continue
    assume(spec is not None)
    stems = draw(st.lists(_NAME_TEXT, min_size=1, max_size=4))
    # "#" and the index keep the names unique whatever the stems are.
    entries = tuple(
        dataclasses.replace(e, layer=dataclasses.replace(e.layer, name=f"{stems[i % len(stems)]}#{i}"))
        for i, e in enumerate(spec.entries)
    )
    notes = tuple(draw(st.lists(_NAME_TEXT.filter(bool), max_size=3)))
    return dataclasses.replace(spec, entries=entries, notes=notes)


@given(spec=_specs())
@settings(max_examples=60, deadline=None)
def test_writer_matches_reference_encoder(spec):
    text = model_to_json(spec)
    assert text == json.dumps(reference_doc(spec), indent=2)
    assert model_from_json(text) == spec


def _slots(node):
    """(container, key or index) of every member at any depth of a document."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield node, key
        if isinstance(value, (dict, list)):
            yield from _slots(value)


_OTHER_JSON = st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.floats(allow_nan=False),
                        st.text(max_size=3), st.just([]), st.just({}))


@given(spec=_specs(), data=st.data())
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_mutated_document_loads_or_is_rejected(spec, data, tmp_path, capsys):
    doc = json.loads(model_to_json(spec))
    container, key = data.draw(st.sampled_from(list(_slots(doc))))
    mutation = data.draw(st.sampled_from(
        ("drop", "retype", "nest") + (("rename",) if isinstance(container, dict) else ())
    ))
    if mutation == "drop":
        del container[key]
    elif mutation == "rename":
        container[key + data.draw(st.sampled_from(("_", "s", "X")))] = container.pop(key)
    elif mutation == "retype":
        old = container[key]
        container[key] = data.draw(_OTHER_JSON.filter(lambda v: type(v) is not type(old)))
    else:
        container[key] = data.draw(st.sampled_from(([container[key]], {"value": container[key]})))
    text = json.dumps(doc)
    try:
        model_from_json(text)
    except SpecFormatError:
        pass
    spec_file = tmp_path / "mutated.json"
    spec_file.write_text(text)
    code = main(["verify", "--spec", str(spec_file), "--frames", "48"])
    out, err = capsys.readouterr()
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in out + err


def _mutate(container, key, mutation, value=None):
    """Apply one mutation to ``container[key]``: drop it, rename its key,
    retype it to ``value``, nest it in a list or an object, or widen it (one
    more item or key)."""
    if mutation == "drop":
        del container[key]
    elif mutation == "rename":
        container[key + value] = container.pop(key)
    elif mutation == "retype":
        container[key] = value
    elif mutation == "nest":
        container[key] = [container[key]] if value == "list" else {"value": container[key]}
    elif isinstance(container[key], list):
        container[key].append(container[key][-1] if container[key] else 1)
    else:
        container[key]["extra"] = 1


def _assert_loads_like_reference(text):
    """The loader returns the reference loader's spec, or raises
    SpecFormatError with the reference loader's text."""
    try:
        expected = reference_model_from_json(text)
    except SpecFormatError as exc:
        with pytest.raises(SpecFormatError) as info:
            model_from_json(text)
        assert str(info.value) == str(exc)
    else:
        assert model_from_json(text) == expected


@given(spec=_specs(), data=st.data())
@settings(max_examples=40, deadline=None)
def test_loader_matches_reference_loader(spec, data):
    _assert_loads_like_reference(model_to_json(spec))
    doc = json.loads(model_to_json(spec))
    container, key = data.draw(st.sampled_from(list(_slots(doc))))
    mutation = data.draw(st.sampled_from(
        ("drop", "retype", "nest") + (("rename",) if isinstance(container, dict) else ())
    ))
    value = None
    if mutation == "rename":
        value = data.draw(st.sampled_from(("_", "s", "X")))
    elif mutation == "retype":
        old = container[key]
        value = data.draw(_OTHER_JSON.filter(lambda v: type(v) is not type(old)))
    elif mutation == "nest":
        value = data.draw(st.sampled_from(("list", "object")))
    _mutate(container, key, mutation, value)
    _assert_loads_like_reference(json.dumps(doc))


#: Values a retyped member takes in the exhaustive comparison.
_RETYPES = (None, True, 3, "", [], {})


def _positions(node, seen, where=(), keys=()):
    """{schema position: key path} of the first member at each position not
    in ``seen``: list indices collapse, except that a layer is told apart by
    its kind."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    found = {}
    for key, value in items:
        kind = value.get("kind", "*") if isinstance(value, dict) else "*"
        position = (*where, key if isinstance(node, dict) else kind)
        if position not in seen:
            seen.add(position)
            found[position] = (*keys, key)
        if isinstance(value, (dict, list)):
            found.update(_positions(value, seen, position, (*keys, key)))
    return found


def test_loader_matches_reference_loader_at_every_position():
    # Between them the two documents hold every layer kind. Each schema
    # position is dropped, renamed, retyped to every other JSON type,
    # emptied, nested and widened, so a decoder missing any one check
    # differs.
    seen = set()
    for family in ("original_resnet", "modified_resnet"):
        text = model_to_json(build(make_request(family, 18, se_reduction=4, res2net_scale=4)))
        for *outer, key in _positions(json.loads(text), seen).values():
            container = functools.reduce(operator.getitem, outer, json.loads(text))
            old = container[key]
            mutations = [("drop", None), ("nest", "list"), ("nest", "object")]
            mutations += [("retype", v) for v in _RETYPES if type(v) is not type(old)]
            mutations += [("retype", type(old)())] if type(old) in (str, list, dict) else []
            mutations += [("rename", "_")] if isinstance(container, dict) else []
            mutations += [("widen", None)] if isinstance(old, (dict, list)) else []
            for mutation, value in mutations:
                doc = json.loads(text)
                _mutate(functools.reduce(operator.getitem, outer, doc), key, mutation, value)
                _assert_loads_like_reference(json.dumps(doc))


class TestTableCsv:
    def make_row(self):
        spec = build(make_request("gemini_resnet", 34, path="T14c"))
        return cli._table_row(*cli._analyze_spec(spec))

    def test_header_is_fixed(self):
        text = format_table([self.make_row()])
        assert text.splitlines()[0] == (
            "index,class,alpha5,beta5,time_strides,freq_strides,"
            "params_millions,flops_2s_giga,flops_3s_giga,cataloged"
        )

    def test_numeric_formatting_two_decimals(self):
        line = format_table([self.make_row()]).splitlines()[1]
        assert line == "T14c,time_priority,2,16,1-1-2-1-1,1-2-2-2-2,5.98,4.35,6.52,yes"


#: sha256 of ``trellis_dot`` output: the diagram is an output format, so an
#: overlay or annotation added later must leave these bytes as they are.
DOT_DIGESTS = {
    (): "87afe677adab23f6dcf1eb9abf8ce49c19b51ef9888020847a8cf5bd91fc7999",
    ("T14", "T14b", "T14c", "T14d"): "c16b8c2cc771c29bb9f0bbf88e73aa4471186f7c850d297b058e6985ebd2b1da",
}


class TestTrellisDot:
    @pytest.mark.parametrize("names", sorted(DOT_DIGESTS))
    def test_dot_bytes_unchanged(self, names):
        dot = trellis_dot(paths=tuple(resolve_name(name) for name in names))
        assert hashlib.sha256(dot.encode()).hexdigest() == DOT_DIGESTS[names]

    def test_grid_has_36_nodes(self):
        dot = trellis_dot()
        assert dot.count('pos="') == 36
        assert dot.startswith("digraph trellis {")
        assert dot.rstrip().endswith("}")

    def test_golden_endpoints_marked(self):
        dot = trellis_dot()
        assert dot.count("peripheries=2") == 2
        assert "fillcolor=gold" in dot

    def test_deterministic(self):
        assert trellis_dot() == trellis_dot()

    def test_path_overlay_adds_colored_edges(self):
        dot = trellis_dot(paths=(resolve_name("T14c"),))
        assert "penwidth=2.0" in dot
        assert 'tooltip="T14c"' in dot
        base = trellis_dot()
        assert len(dot.splitlines()) == len(base.splitlines()) + 5
