import hashlib
import json
import os
import struct

import numpy as np
import pytest

from mvdet.augment import AugmentError
from mvdet.camgeo import GeometryError
from mvdet.cli import _ERRORS, main
from mvdet import decoder
from mvdet.featcore import FeatureError, TensorFormatError, write_tensor
from mvdet.matching import MatchingError, load_predictions
from mvdet.metrics import MetricsError
from mvdet.synth import ConfigError

from helpers import degenerate_layer


def read_bytes_tree(root):
    out = {}
    for dirpath, _, filenames in os.walk(root):
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
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

    def test_annotations_bytes(self, scene_dir):
        # sha256 computed when each object's depth came from the single-point
        # projection helpers; the annotation file must not change a byte.
        blob = (scene_dir / "annotations.json").read_bytes()
        assert hashlib.sha256(blob).hexdigest() == "5b002e576144ebefcddfd50fe01eedf963130a9b084ed459c5a4ea9378851211"

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

    def test_two_camera_point_json_bytes(self, scene_dir, capsys):
        # A point on the seam of front_right and back_right, and a box around
        # it; the stdout sha256 was computed with the single-point helpers.
        point = "3.915785766601551,-29.74334584121431,1.5"
        code = main([
            "project", "--calib", str(scene_dir / "calib.json"),
            "--point", point, "--box", point + ",2,4,1.5,0.3", "--json",
        ])
        assert code == 0
        out = capsys.readouterr().out
        payload = json.loads(out)
        assert payload["visible_cameras"] == [2, 4]
        assert payload["region"] == "overlapping"
        assert [c["pixel"] is None for c in payload["cameras"]] == [False, True, False, True, False, True]
        assert hashlib.sha256(out.encode()).hexdigest() == "7934869c6e7e2cb9b4b3f5965e26a682134ff47fe0d6da84c51b597e9637cc8f"

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

    @pytest.mark.parametrize("lo, hi", [("inf", "inf"), ("1e308", "1e308"), ("1", "inf")])
    def test_overflowing_scale_is_a_usage_error(self, scene_dir, tmp_path, capsys, lo, hi):
        code = main([
            "augment", "--annotations", str(scene_dir / "annotations.json"),
            "--scale-min", lo, "--scale-max", hi, "--seed", "3", "--out", str(tmp_path / "aug"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

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

    def test_predictions_bytes(self, scene_dir, tmp_path):
        # sha256 computed while predictions and annotations each had their
        # own box writer; the prediction file must not change a byte.
        out = tmp_path / "preds.json"
        assert main([
            "decode", "--pyramid", str(scene_dir / "pyramid" / "pyramid.json"),
            "--calib", str(scene_dir / "calib.json"),
            "--dim", "8", "--queries", "12", "--layers", "2", "--neighbors", "16",
            "--heads", "2", "--seed", "2", "--out", str(out),
        ]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == "6da6170b1dfb3af50a0fed35e8222294d3c1ae214dc4aa1eecca4405b35f960c"

    def test_degenerate_graph_equals_single_point(self, scene_dir, tmp_path):
        # Zero offsets and saturated unit weights turn the dynamic graph into
        # plain center sampling; the two modes must write identical bytes.
        dim = 8
        layers = decoder.init_decoder(3, layers=2, dim=dim, neighbors=1, heads=2)
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


@pytest.mark.parametrize(
    "command, flag",
    [("decode", "--heads"), ("decode", "--layers"), ("decode", "--dim"), ("bench", "--heads"), ("bench", "--layers")],
)
def test_nonpositive_decoder_size_usage_error(scene_dir, tmp_path, capsys, command, flag):
    argv = {
        "decode": ["decode", "--pyramid", str(scene_dir / "pyramid" / "pyramid.json"),
                   "--calib", str(scene_dir / "calib.json"), "--dim", "8", "--queries", "4",
                   "--layers", "1", "--heads", "2", "--seed", "1", "--out", str(tmp_path / "p.json")],
        "bench": ["bench", "--queries", "4", "--neighbors", "2", "--cameras", "1", "--levels", "1",
                  "--dim", "8", "--layers", "1", "--heads", "2", "--repeats", "1"],
    }[command]
    argv[argv.index(flag) + 1] = "0"
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize(
    "command, flag, value, named",
    [
        ("synth", "--strides", "8,0", "stride must be >= 1, got 0"),
        ("bench", "--repeats", "0", "--repeats"),
        ("bench", "--levels", "0", "--levels"),
        ("bench", "--levels", "5", "--levels"),
    ],
)
def test_size_flag_usage_error_names_flag(tmp_path, capsys, command, flag, value, named):
    argv = {
        "synth": ["synth", "--seed", "1", "--objects", "2", "--channels", "2", "--strides", "8",
                  "--out", str(tmp_path / "scene")],
        "bench": ["bench", "--queries", "4", "--neighbors", "2", "--cameras", "1", "--levels", "1",
                  "--dim", "8", "--layers", "1", "--heads", "2", "--repeats", "1"],
    }[command]
    argv[argv.index(flag) + 1] = value
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert named in err


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


def _calib_with(**fields):
    def build(scene_dir):
        calib = json.loads((scene_dir / "calib.json").read_text())
        calib["cameras"][0].update(fields)
        return calib

    return build


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


def _frame_without(field):
    def build(scene_dir):
        ann = json.loads((scene_dir / "annotations.json").read_text())
        del ann["frames"][0][field]
        return ann

    return build


def _pyramid_with(level=(), **fields):
    """The scene's pyramid manifest with ``fields`` overriding its own and
    ``level`` the fields of its first level; its tensor files are referenced
    by absolute path."""
    def build(scene_dir):
        manifest = json.loads((scene_dir / "pyramid" / "pyramid.json").read_text())
        for cam in manifest["cameras"]:
            for lv in cam["levels"]:
                lv["file"] = str(scene_dir / "pyramid" / lv["file"])
        manifest["cameras"][0]["levels"][0].update(level)
        manifest.update(fields)
        return manifest

    return build


def _params_with(drop=(), **meta):
    """A real one-layer bundle with ``meta`` overriding its metadata and the
    activations and tensor entries named in ``drop`` left out; its tensor
    files are referenced by absolute path."""
    def build(scene_dir):
        params = scene_dir / "params-one-layer"
        layers = decoder.init_decoder(1, layers=1, dim=8, neighbors=1, heads=1)
        head = decoder.PredictionHead.seeded(1, dim=8)
        with open(decoder.save_params(params, layers, head)) as fh:
            bundle = json.load(fh)
        bundle["meta"].update(meta)
        for net in drop:
            bundle["meta"]["activations"].pop(net, None)
        bundle["entries"] = [e for e in bundle["entries"] if e["name"] not in drop]
        for entry in bundle["entries"]:
            entry["file"] = str(params / entry["file"])
        return bundle

    return build


_LEVEL = {"file": "level.gdt3", "stride": 8}
_PRED = {"center": [10.0, 0.0, 1.0], "size": [2.0, 4.0, 1.5], "yaw": 0.0, "score": 0.5}
_MALFORMED = {
    "pyramid-list": ("pyramid", []),
    "pyramid-cameras-int": ("pyramid", {"version": 1, "cameras": 3}),
    "pyramid-stride-null": ("pyramid", {"version": 1, "cameras": [{"levels": [dict(_LEVEL, stride=None)]}]}),
    "pyramid-stride-list": ("pyramid", {"version": 1, "cameras": [{"levels": [dict(_LEVEL, stride=[8])]}]}),
    "pyramid-file-int": ("pyramid", {"version": 1, "cameras": [{"levels": [dict(_LEVEL, file=5)]}]}),
    "pyramid-stride-fraction": ("pyramid", _pyramid_with(level={"stride": 8.7})),
    "pyramid-version-list": ("pyramid", _pyramid_with(version=["x"])),
    "params-list": ("params", []),
    "params-entries-int": ("params", {"meta": {}, "entries": 3}),
    "params-file-int": ("params", {"meta": {}, "entries": [{"name": "x", "file": 5, "shape": [1]}]}),
    "params-meta-int": ("params", {"meta": 5, "entries": []}),
    "params-layers-list": ("params", {"meta": {"layers": [1], "heads": 1, "activations": {}}, "entries": []}),
    "params-layers-zero": ("params", _params_with(layers=0)),
    "params-heads-zero": ("params", _params_with(heads=0)),
    "params-layers-beyond-entries": ("params", _params_with(layers=2)),
    "params-activations-missing": ("params", _params_with(drop=("layer00.ffn",))),
    "params-tensor-missing": ("params", _params_with(drop=("layer00.ffn.b1",))),
    "params-num-classes-fraction": ("params", _params_with(num_classes=-2.5)),
    "calib-fx-null": ("calib", _calib_with(fx=None)),
    "calib-id-null": ("calib", _calib_with(id=None)),
    "calib-width-fraction": ("calib", _calib_with(width=1600.9)),
    "predictions-list": ("pred", []),
    "predictions-int": ("pred", {"predictions": 5}),
    "predictions-item-int": ("pred", {"predictions": [1]}),
    "predictions-yaw-null": ("pred", {"predictions": [dict(_PRED, yaw=None)]}),
    "predictions-score-null": ("pred", {"predictions": [dict(_PRED, score=None)]}),
    "predictions-yaw-nan-string": ("pred", {"predictions": [dict(_PRED, yaw="nan")]}),
    "predictions-yaw-nan": ("pred", {"predictions": [dict(_PRED, yaw=float("nan"))]}),
    "predictions-class-fraction": ("pred", {"predictions": [dict(_PRED, **{"class": -2.5})]}),
    "predictions-attribute-string": ("pred", {"predictions": [dict(_PRED, attribute="3")]}),
    "predictions-center-object": ("pred", {"predictions": [dict(_PRED, center={"x": 1})]}),
    "annotations-list": ("annotations", []),
    "annotations-frames-int": ("annotations", {"frames": 5}),
    "annotations-item-int": ("annotations", {"frames": [1]}),
    "annotations-objects-int": ("annotations", _frame_with(objects=5)),
    "annotations-calib-missing": ("annotations", _frame_without("calib")),
    "annotations-image-sizes-int": ("annotations", _frame_with(image_sizes=[5])),
    "annotations-depth-null": ("annotations", _object_with(depth=None)),
    "annotations-class-list": ("annotations", _object_with(**{"class": [1]})),
    "annotations-regression-mask-string": ("annotations", _frame_with(regression_mask="false")),
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
            "pyramid": ["decode", "--pyramid", str(bad), "--calib", calib, "--dim", "8", "--heads", "2",
                        "--queries", "16", "--layers", "1", "--seed", "1", "--out", out],
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


def test_every_module_error_is_a_usage_error():
    errors = (GeometryError, FeatureError, TensorFormatError, decoder.DecoderError, AugmentError,
              MatchingError, MetricsError, ConfigError)
    assert _ERRORS == (OSError, ValueError)
    assert all(issubclass(err, _ERRORS) for err in errors)


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
