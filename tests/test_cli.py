import json
import os
import struct

import numpy as np
import pytest

from mvdet.cli import main
from mvdet import decoder
from mvdet.featcore import write_tensor
from mvdet.matching import load_predictions


def read_bytes_tree(root):
    out = {}
    for dirpath, _, filenames in os.walk(root):
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            out[os.path.relpath(path, root)] = open(path, "rb").read()
    return out


@pytest.fixture(scope="module")
def scene_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("scene")
    code = main([
        "synth", "--seed", "5", "--objects", "30", "--channels", "8",
        "--strides", "8,16", "--out", str(out),
    ])
    assert code == 0
    return out


class TestSynthCommand:
    def test_writes_expected_files(self, scene_dir):
        assert (scene_dir / "calib.json").exists()
        assert (scene_dir / "annotations.json").exists()
        assert (scene_dir / "pyramid" / "pyramid.json").exists()
        calib = json.loads((scene_dir / "calib.json").read_text())
        assert len(calib["cameras"]) == 6

    def test_rerun_byte_identical(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        for out in (out_a, out_b):
            assert main([
                "synth", "--seed", "9", "--objects", "10", "--channels", "4",
                "--strides", "16", "--out", str(out),
            ]) == 0
        assert read_bytes_tree(out_a) == read_bytes_tree(out_b)

    def test_invalid_style_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            main(["synth", "--style", "warped", "--seed", "1", "--out", str(tmp_path)])
        assert err.value.code == 2


class TestProjectCommand:
    def test_reports_visibility(self, scene_dir, capsys):
        code = main([
            "project", "--calib", str(scene_dir / "calib.json"),
            "--point", "20,0,1.5", "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["visible_cameras"] == [0]
        front = payload["cameras"][0]
        assert front["visible"] and front["depth"] > 0

    def test_box_region(self, scene_dir, capsys):
        code = main([
            "project", "--calib", str(scene_dir / "calib.json"),
            "--point", "20,0,1.5", "--box", "20,0,1.5,2,4,1.5,0", "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["region"] == "non_overlapping"

    def test_missing_calib_io_error(self, tmp_path):
        assert main(["project", "--calib", str(tmp_path / "nope.json"), "--point", "1,2,3"]) == 2

    def test_malformed_point_usage_error(self, scene_dir):
        assert main(["project", "--calib", str(scene_dir / "calib.json"), "--point", "1,2"]) == 2


class TestAugmentCommand:
    def test_identity_range_identity_output(self, scene_dir, tmp_path, capsys):
        out = tmp_path / "aug"
        code = main([
            "augment", "--annotations", str(scene_dir / "annotations.json"),
            "--scale-min", "1", "--scale-max", "1", "--mode", "depth-invariant",
            "--seed", "3", "--out", str(out), "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scales"] == [1.0]
        original = json.loads((scene_dir / "annotations.json").read_text())
        transformed = json.loads((out / "annotations.json").read_text())
        assert original == transformed

    def test_depth_divided_by_logged_scale(self, scene_dir, tmp_path):
        out = tmp_path / "aug2"
        assert main([
            "augment", "--annotations", str(scene_dir / "annotations.json"),
            "--scale-min", "0.7", "--scale-max", "1.4", "--mode", "depth-invariant",
            "--seed", "11", "--out", str(out),
        ]) == 0
        log = json.loads((out / "augment_log.json").read_text())
        r = log["frames"][0]["scale"]
        original = json.loads((scene_dir / "annotations.json").read_text())
        transformed = json.loads((out / "annotations.json").read_text())
        for before, after in zip(original["frames"][0]["objects"], transformed["frames"][0]["objects"]):
            assert after["depth"] == pytest.approx(before["depth"] / r, rel=1e-15)
            assert after["center"] == before["center"]

    def test_vanilla_scales_intrinsics_keeps_boxes(self, scene_dir, tmp_path):
        out = tmp_path / "aug3"
        assert main([
            "augment", "--annotations", str(scene_dir / "annotations.json"),
            "--scale-min", "1.2", "--scale-max", "1.2", "--mode", "vanilla",
            "--seed", "4", "--out", str(out),
        ]) == 0
        original = json.loads((scene_dir / "annotations.json").read_text())
        transformed = json.loads((out / "annotations.json").read_text())
        cam_before = original["frames"][0]["calib"]["cameras"][0]
        cam_after = transformed["frames"][0]["calib"]["cameras"][0]
        assert cam_after["fx"] == pytest.approx(1.2 * cam_before["fx"], rel=1e-15)
        assert transformed["frames"][0]["objects"] == original["frames"][0]["objects"]

    def test_invalid_range_error(self, scene_dir, tmp_path):
        assert main([
            "augment", "--annotations", str(scene_dir / "annotations.json"),
            "--scale-min", "2", "--scale-max", "1", "--seed", "1",
            "--out", str(tmp_path / "x"),
        ]) == 2


class TestDecodeCommand:
    def test_emits_predictions(self, scene_dir, tmp_path, capsys):
        out = tmp_path / "preds.json"
        code = main([
            "decode", "--pyramid", str(scene_dir / "pyramid" / "pyramid.json"),
            "--calib", str(scene_dir / "calib.json"),
            "--dim", "8", "--queries", "12", "--layers", "2", "--neighbors", "16",
            "--heads", "2", "--seed", "2", "--out", str(out), "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 12
        preds = load_predictions(out)
        assert len(preds) == 12

    def test_degenerate_graph_equals_single_point(self, scene_dir, tmp_path):
        # Zero offsets and saturated unit weights turn the dynamic graph into
        # plain center sampling; the two modes must write identical bytes.
        dim = 8
        layers = decoder.init_decoder(3, layers=2, dim=dim, neighbors=1, heads=2)
        from tests.test_decoder import degenerate_layer

        layers = [degenerate_layer(l, dim) for l in layers]
        head = decoder.PredictionHead.seeded(3, dim=dim)
        bundle = decoder.save_params(tmp_path / "params", layers, head)
        outputs = {}
        for mode in ("single-point", "dynamic-graph"):
            out = tmp_path / f"{mode}.json"
            assert main([
                "decode", "--pyramid", str(scene_dir / "pyramid" / "pyramid.json"),
                "--calib", str(scene_dir / "calib.json"), "--params", str(bundle),
                "--mode", mode, "--queries", "10", "--seed", "6", "--out", str(out),
            ]) == 0
            outputs[mode] = out.read_bytes()
        assert outputs["single-point"] == outputs["dynamic-graph"]

    def test_missing_params_io_error(self, scene_dir, tmp_path):
        assert main([
            "decode", "--pyramid", str(scene_dir / "pyramid" / "pyramid.json"),
            "--calib", str(scene_dir / "calib.json"),
            "--params", str(tmp_path / "absent.json"),
            "--seed", "1", "--out", str(tmp_path / "p.json"),
        ]) == 2

    def test_channel_mismatch_error(self, scene_dir, tmp_path):
        assert main([
            "decode", "--pyramid", str(scene_dir / "pyramid" / "pyramid.json"),
            "--calib", str(scene_dir / "calib.json"),
            "--dim", "16", "--queries", "4", "--layers", "1",
            "--seed", "1", "--out", str(tmp_path / "p.json"),
        ]) == 2


    @pytest.mark.parametrize("dims", [(2**40,), (2**32, 2**32)])
    def test_hostile_tensor_header_error(self, scene_dir, tmp_path, capsys, dims):
        blob = b"GDT3" + struct.pack(f"<II{len(dims)}Q", 1, len(dims), *dims)
        (tmp_path / "level.gdt3").write_bytes(blob + b"\x00" * (40 - len(blob)))
        manifest = tmp_path / "pyramid.json"
        manifest.write_text(json.dumps({"version": 1, "cameras": [{"levels": [{"file": "level.gdt3", "stride": 8}]}]}))
        assert main([
            "decode", "--pyramid", str(manifest),
            "--calib", str(scene_dir / "calib.json"),
            "--seed", "1", "--out", str(tmp_path / "p.json"),
        ]) == 2
        assert "truncated payload" in capsys.readouterr().err


class TestGradcheckCommand:
    def test_passes_by_default(self, capsys):
        assert main(["gradcheck", "--probes", "3", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"]

    def test_zero_tolerance_fails(self):
        assert main(["gradcheck", "--probes", "2", "--tol", "0"]) == 1

    def test_zero_probes_usage_error(self, capsys):
        assert main(["gradcheck", "--probes", "0"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_constant_field_reports_zero_offset_gradient(self, capsys):
        # Covered analytically in unit tests; at the CLI level the offset
        # component must pass with zero jitters on the default field.
        assert main(["gradcheck", "--probes", "2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        offset = next(c for c in payload["components"] if c["component"] == "offset")
        assert offset["passed"]


def _calib_with_null_fx(scene_dir):
    calib = json.loads((scene_dir / "calib.json").read_text())
    calib["cameras"][0]["fx"] = None
    return calib


def _frame_with(**fields):
    def build(scene_dir):
        ann = json.loads((scene_dir / "annotations.json").read_text())
        ann["frames"][0].update(fields)
        return ann

    return build


def _object_with(**fields):
    def build(scene_dir):
        ann = json.loads((scene_dir / "annotations.json").read_text())
        ann["frames"][0]["objects"][0].update(fields)
        return ann

    return build


_LEVEL = {"file": "level.gdt3", "stride": 8}
_PRED = {"center": [10.0, 0.0, 1.0], "size": [2.0, 4.0, 1.5], "yaw": 0.0, "score": 0.5}
_MALFORMED = {
    "pyramid-list": ("pyramid", []),
    "pyramid-cameras-int": ("pyramid", {"cameras": 3}),
    "pyramid-stride-null": ("pyramid", {"cameras": [{"levels": [dict(_LEVEL, stride=None)]}]}),
    "pyramid-stride-list": ("pyramid", {"cameras": [{"levels": [dict(_LEVEL, stride=[8])]}]}),
    "pyramid-file-int": ("pyramid", {"cameras": [{"levels": [dict(_LEVEL, file=5)]}]}),
    "params-list": ("params", []),
    "params-entries-int": ("params", {"meta": {}, "entries": 3}),
    "params-file-int": ("params", {"meta": {}, "entries": [{"name": "x", "file": 5, "shape": [1]}]}),
    "params-meta-int": ("params", {"meta": 5, "entries": []}),
    "params-layers-list": ("params", {"meta": {"layers": [1], "heads": 1, "activations": {}}, "entries": []}),
    "calib-fx-null": ("calib", _calib_with_null_fx),
    "predictions-list": ("pred", []),
    "predictions-int": ("pred", {"predictions": 5}),
    "predictions-item-int": ("pred", {"predictions": [1]}),
    "predictions-yaw-null": ("pred", {"predictions": [dict(_PRED, yaw=None)]}),
    "predictions-score-null": ("pred", {"predictions": [dict(_PRED, score=None)]}),
    "predictions-center-object": ("pred", {"predictions": [dict(_PRED, center={"x": 1})]}),
    "annotations-list": ("annotations", []),
    "annotations-frames-int": ("annotations", {"frames": 5}),
    "annotations-item-int": ("annotations", {"frames": [1]}),
    "annotations-objects-int": ("annotations", _frame_with(objects=5)),
    "annotations-image-sizes-int": ("annotations", _frame_with(image_sizes=[5])),
    "annotations-depth-null": ("annotations", _object_with(depth=None)),
    "annotations-class-list": ("annotations", _object_with(**{"class": [1]})),
}


class TestMalformedInputFiles:
    @pytest.mark.parametrize("case", sorted(_MALFORMED))
    def test_exits_with_usage_error(self, scene_dir, tmp_path, capsys, case):
        kind, content = _MALFORMED[case]
        bad = tmp_path / "bad.json"
        write_tensor(tmp_path / "level.gdt3", np.zeros((8, 4, 4)))
        bad.write_text(json.dumps(content(scene_dir) if callable(content) else content))
        pyramid, calib = str(scene_dir / "pyramid" / "pyramid.json"), str(scene_dir / "calib.json")
        gt, out = str(scene_dir / "annotations.json"), str(tmp_path / "out")
        argv = {
            "pyramid": ["decode", "--pyramid", str(bad), "--calib", calib, "--seed", "1", "--out", out],
            "params": ["decode", "--pyramid", pyramid, "--calib", calib, "--params", str(bad),
                       "--seed", "1", "--out", out],
            "calib": ["project", "--calib", str(bad), "--point", "10,0,1"],
            "pred": ["evaluate", "--gt", gt, "--pred", str(bad), "--calib", calib, "--out", out],
            "annotations": ["augment", "--annotations", str(bad), "--scale-min", "1", "--scale-max", "1",
                            "--seed", "1", "--out", out],
        }[kind]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err


class TestEvaluateCommand:
    def test_perfect_predictions_full_score(self, scene_dir, tmp_path, capsys):
        ann = json.loads((scene_dir / "annotations.json").read_text())
        preds = [
            {
                "center": o["center"], "size": o["size"], "yaw": o["yaw"],
                "velocity": o["velocity"], "class": o["class"],
                "attribute": o["attribute"], "score": 0.9,
            }
            for o in ann["frames"][0]["objects"]
        ]
        pred_path = tmp_path / "preds.json"
        pred_path.write_text(json.dumps({"predictions": preds}))
        out = tmp_path / "eval"
        code = main([
            "evaluate", "--gt", str(scene_dir / "annotations.json"),
            "--pred", str(pred_path), "--calib", str(scene_dir / "calib.json"),
            "--out", str(out), "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["overall_NDS"] == 1.0
        assert (out / "report.json").exists()
        assert (out / "report.csv").exists()

    def test_camera_count_mismatch_error(self, scene_dir, tmp_path):
        single = tmp_path / "single"
        assert main(["synth", "--seed", "2", "--style", "single", "--objects", "5",
                     "--channels", "4", "--strides", "16", "--out", str(single)]) == 0
        pred_path = tmp_path / "p.json"
        pred_path.write_text(json.dumps({"predictions": []}))
        assert main([
            "evaluate", "--gt", str(scene_dir / "annotations.json"),
            "--pred", str(pred_path), "--calib", str(single / "calib.json"),
            "--out", str(tmp_path / "e"),
        ]) == 2


class TestBenchCommand:
    def test_runs_and_reports(self, capsys):
        code = main([
            "bench", "--queries", "16", "--neighbors", "4", "--cameras", "2",
            "--levels", "2", "--dim", "8", "--layers", "1", "--repeats", "2", "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["node_count"] == 64
        assert payload["timing"]["decoder_pass"]["median_s"] > 0
        assert len(payload["output_checksum"]) == 64

    def test_checksum_thread_invariant(self, capsys):
        checksums = []
        for _ in range(2):
            code = main([
                "bench", "--queries", "8", "--neighbors", "2", "--cameras", "1",
                "--levels", "1", "--dim", "8", "--layers", "1", "--repeats", "1", "--json",
            ])
            assert code == 0
            checksums.append(json.loads(capsys.readouterr().out)["output_checksum"])
        assert checksums[0] == checksums[1]
