import json

import pytest

from stride_lab.analysis import count_flops
from stride_lab.builder import build, make_request
from stride_lab.diagram import trellis_dot
from stride_lab.layers import TensorShape
from stride_lab.serialize import (
    SpecFormatError,
    TableRow,
    format_table,
    model_from_json,
    model_to_json,
    parse_table,
)
from stride_lab.strides import resolve_name


class TestModelJson:
    def test_round_trip_identity(self, mod34, gemini34, original34, df183):
        for spec in (mod34, gemini34, original34, df183):
            loaded = model_from_json(model_to_json(spec))
            assert loaded == spec

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
        with pytest.raises(SpecFormatError, match=rf"stage2\.maxpool: {message}"):
            model_from_json(json.dumps(doc))

    def test_se_and_res2net_round_trip(self):
        spec = build(make_request("modified_resnet", 34, se_reduction=4))
        assert model_from_json(model_to_json(spec)) == spec
        spec = build(make_request("modified_resnet", 34, res2net_scale=4))
        assert model_from_json(model_to_json(spec)) == spec


class TestTableCsv:
    def make_row(self):
        path = resolve_name("T14c")
        return TableRow(
            index="T14c",
            path_class="time_priority",
            alpha5=2,
            beta5=16,
            time_strides=path.time_strides,
            freq_strides=path.freq_strides,
            params_millions=5.98,
            flops_2s_giga=4.35,
            flops_3s_giga=6.52,
            cataloged=True,
        )

    def test_format_parse_round_trip(self):
        rows = (self.make_row(),)
        assert parse_table(format_table(rows)) == rows

    def test_header_is_fixed(self):
        text = format_table([self.make_row()])
        assert text.splitlines()[0] == (
            "index,class,alpha5,beta5,time_strides,freq_strides,"
            "params_millions,flops_2s_giga,flops_3s_giga,cataloged"
        )

    def test_rejects_foreign_header(self):
        with pytest.raises(SpecFormatError):
            parse_table("a,b,c\n1,2,3\n")

    def test_numeric_formatting_two_decimals(self):
        line = format_table([self.make_row()]).splitlines()[1]
        assert ",5.98,4.35,6.52," in line


class TestTrellisDot:
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
