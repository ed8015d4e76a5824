import functools
import hashlib
import inspect
import json
import os
import struct
import subprocess
import sys

import numpy as np
import pytest

from mvdet.augment import AugmentError, load_frames
from mvdet.camgeo import GeometryError, load_rig, save_rig
from mvdet.cli import _ERRORS, main
from mvdet import camgeo, cli, decoder, synth
from mvdet.featcore import FeatureError, TensorFormatError, load_pyramid, save_pyramid, write_tensor
from mvdet.matching import MatchingError, load_predictions, save_predictions
from mvdet.metrics import MetricsError
from mvdet.synth import ConfigError, NoiseSpec, perturb_predictions

from helpers import DEEP_JSON, degenerate_layer


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

    def test_defaults_are_make_scenes(self, tmp_path):
        assert main(["synth", "--seed", "3", "--out", str(tmp_path / "cli")]) == 0
        scene = synth.make_scene(3)
        (tmp_path / "lib").mkdir()
        save_rig(tmp_path / "lib" / "calib.json", scene.rig)
        save_pyramid(tmp_path / "lib" / "pyramid", scene.pyramid)
        written, library = read_bytes_tree(tmp_path / "cli"), read_bytes_tree(tmp_path / "lib")
        assert {name: written[name] for name in library} == library
        (frame,) = load_frames(tmp_path / "cli" / "annotations.json")
        assert [obj.box.center.tolist() for obj in frame.objects] == [box.center.tolist() for box in scene.objects]

    def test_annotations_bytes(self, scene_dir):
        # sha256 computed when each object's depth came from the single-point
        # projection helpers; the annotation file must not change a byte.
        blob = (scene_dir / "annotations.json").read_bytes()
        assert hashlib.sha256(blob).hexdigest() == "5b002e576144ebefcddfd50fe01eedf963130a9b084ed459c5a4ea9378851211"

    def test_pyramid_bytes(self, scene_dir):
        # sha256 over the sorted names and bytes of the pyramid's tensor files
        # and manifest, computed while every camera rendered its own levels.
        h = hashlib.sha256()
        for path in sorted((scene_dir / "pyramid").iterdir()):
            h.update(path.name.encode() + path.read_bytes())
        assert h.hexdigest() == "975df281c952684b220da4785c59627a0109d14e7aa64d8af8b1e4e1d69bf242"

    @pytest.mark.parametrize(
        "seed, style, objects, digest",
        [
            # A one-camera rig where most centroids are seen by no camera
            # (planar-range fallback), and a six-camera scene with centroids
            # seen by two cameras (first camera wins).
            (3, "single", 40, "7b6a9df2341b8f43181607b1147294903070350a538e34c715ff76e9681c99b5"),
            (11, "nuscenes-like", 200, "7c89a71b8cb156ded292c2f7f322a534ce1dc55418d9ccfbffaa09b9fa56d22f"),
        ],
    )
    def test_annotation_depth_bytes(self, tmp_path, capsys, seed, style, objects, digest):
        # sha256 first computed with each object's depth taken from a
        # per-camera visibility mask and projection, one camera at a time.
        assert main([
            "synth", "--seed", str(seed), "--style", style, "--objects", str(objects),
            "--channels", "2", "--strides", "32", "--out", str(tmp_path),
        ]) == 0
        assert hashlib.sha256((tmp_path / "annotations.json").read_bytes()).hexdigest() == digest

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

    @pytest.mark.parametrize(
        "point, digest",
        [
            # Behind the front camera, seen by the back camera only.
            ("-20,0.5,1.5", "1c652f42b34fe144525f7bcf13375e24d9b59927d56d4b67af3a03fb820a3a77"),
            # The front_left camera's optical centre: depth exactly 0 there,
            # behind every other camera.
            (
                "0.5735764363510462,0.8191520442889918,1.5",
                "292a7932acaa7aa1d7d001eab55cb22d63705fe053549d29196ae870c6ba5fd8",
            ),
        ],
    )
    def test_behind_camera_json_bytes(self, scene_dir, tmp_path, capsys, point, digest):
        # stdout and --out sha256 first computed with one projection and one
        # visibility mask per camera, one camera at a time.
        args = ["project", "--calib", str(scene_dir / "calib.json"), "--point=" + point, "--json"]
        if point.startswith("-"):
            args.append("--box=" + point + ",2,4,1.5,0")
        assert main([*args, "--out", str(tmp_path / "out.json")]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out)
        assert any(c["depth"] <= 0 and c["pixel"] is None and not c["visible"] for c in payload["cameras"])
        assert hashlib.sha256(out.encode()).hexdigest() == digest
        assert hashlib.sha256((tmp_path / "out.json").read_bytes()).hexdigest() == digest

    def test_missing_calib_io_error(self, tmp_path):
        assert main(["project", "--calib", str(tmp_path / "nope.json"), "--point", "1,2,3"]) == 2

    @pytest.mark.parametrize("point", ["1,2", "nan,0,1", "inf,0,1", "1e400,0,1"])
    def test_malformed_point_usage_error(self, scene_dir, tmp_path, capsys, point):
        out = tmp_path / "out.json"
        argv = ["project", "--calib", str(scene_dir / "calib.json"), "--point", point, "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--point" in err and "Traceback" not in err
        assert not out.exists()


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

    @pytest.mark.parametrize("lo, hi", [("inf", "inf"), ("1e308", "1e308"), ("1", "inf"), ("1e300", "1e300")])
    def test_overflowing_scale_is_a_usage_error(self, scene_dir, tmp_path, capsys, lo, hi):
        for mode in ("vanilla", "depth-invariant", "disentangled"):
            code = main([
                "augment", "--annotations", str(scene_dir / "annotations.json"),
                "--scale-min", lo, "--scale-max", hi, "--mode", mode, "--seed", "3",
                "--out", str(tmp_path / "aug"),
            ])
            assert code == 2, mode
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "Traceback" not in err
            assert not (tmp_path / "aug").exists()

    @pytest.mark.parametrize("lo, hi", [("1", "inf"), ("1", "nan")])
    def test_bad_range_with_no_frames_is_a_usage_error(self, tmp_path, capsys, lo, hi):
        # With no frames, no scale is ever drawn: only the range check can refuse.
        ann = tmp_path / "empty.json"
        ann.write_text('{"frames": []}')
        code = main([
            "augment", "--annotations", str(ann), "--scale-min", lo, "--scale-max", hi,
            "--seed", "3", "--out", str(tmp_path / "aug"),
        ])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: invalid scale range")
        assert not (tmp_path / "aug").exists()

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
            "--queries", "12", "--layers", "2", "--neighbors", "16",
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
            "--queries", "12", "--layers", "2", "--neighbors", "16",
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

    def test_defaults_are_the_library_defaults_at_the_pyramid_width(self, scene_dir, tmp_path):
        out = tmp_path / "preds.json"
        manifest, calib = scene_dir / "pyramid" / "pyramid.json", scene_dir / "calib.json"
        assert main([
            "decode", "--pyramid", str(manifest), "--calib", str(calib),
            "--queries", "12", "--seed", "4", "--out", str(out),
        ]) == 0
        pyramid = load_pyramid(manifest)
        dim = pyramid.channels
        qs = decoder.init_queries(4, count=12, dim=dim, bounds=synth.DEFAULT_BOUNDS)
        refined, refs = decoder.decoder_forward(qs, decoder.init_decoder(4, dim=dim), pyramid, load_rig(calib))
        preds = decoder.decode_predictions(refined, refs[-1], decoder.PredictionHead.seeded(4, dim=dim))
        save_predictions(tmp_path / "library.json", preds)
        assert out.read_bytes() == (tmp_path / "library.json").read_bytes()

    @pytest.mark.parametrize("flag", ["--layers", "--neighbors", "--heads", "--classes"])
    def test_net_size_flag_beside_params_usage_error(self, scene_dir, tmp_path, capsys, flag):
        layers = decoder.init_decoder(1, layers=1, dim=8, neighbors=2, heads=2)
        bundle = decoder.save_params(tmp_path / "params", layers, decoder.PredictionHead.seeded(1, dim=8))
        out = tmp_path / "p.json"
        assert main([
            "decode", "--pyramid", str(scene_dir / "pyramid" / "pyramid.json"),
            "--calib", str(scene_dir / "calib.json"), "--params", str(bundle),
            flag, "3", "--queries", "4", "--seed", "1", "--out", str(out),
        ]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and flag in err
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["single-point", "fixed-points"])
    def test_offset_scale_beside_fixed_graph_usage_error(self, tmp_path, capsys, monkeypatch, mode):
        def refuse(*args, **kwargs):
            raise AssertionError("a file was read")

        monkeypatch.setattr(cli, "load_pyramid", refuse)
        monkeypatch.setattr(camgeo, "load_rig", refuse)
        out = tmp_path / "p.json"
        assert main([
            "decode", "--pyramid", str(tmp_path / "absent.json"), "--calib", str(tmp_path / "absent-calib.json"),
            "--mode", mode, "--offset-scale", "3", "--queries", "4", "--seed", "1", "--out", str(out),
        ]) == 2
        err = capsys.readouterr().err
        assert err == f"error: --offset-scale cannot be given with --mode {mode}: only dynamic graphs read it\n"
        assert not out.exists()

    def test_offset_scale_moves_dynamic_graph_predictions(self, scene_dir, tmp_path):
        outputs = {}
        for scale in (None, "2", "3"):
            out = tmp_path / f"{scale}.json"
            assert main([
                "decode", "--pyramid", str(scene_dir / "pyramid" / "pyramid.json"),
                "--calib", str(scene_dir / "calib.json"), "--queries", "6", "--layers", "1",
                "--heads", "2", "--seed", "3", "--out", str(out),
                *([] if scale is None else ["--offset-scale", scale]),
            ]) == 0
            outputs[scale] = out.read_bytes()
        assert outputs[None] == outputs["2"] != outputs["3"]

    def test_missing_params_io_error(self, scene_dir, tmp_path):
        assert main([
            "decode", "--pyramid", str(scene_dir / "pyramid" / "pyramid.json"),
            "--calib", str(scene_dir / "calib.json"),
            "--params", str(tmp_path / "absent.json"),
            "--seed", "1", "--out", str(tmp_path / "p.json"),
        ]) == 2

    def test_channel_mismatch_error(self, scene_dir, tmp_path, capsys):
        layers = decoder.init_decoder(1, layers=1, dim=16, neighbors=2, heads=2)
        bundle = decoder.save_params(tmp_path / "params", layers, decoder.PredictionHead.seeded(1, dim=16))
        assert main([
            "decode", "--pyramid", str(scene_dir / "pyramid" / "pyramid.json"),
            "--calib", str(scene_dir / "calib.json"), "--params", str(bundle),
            "--queries", "4", "--seed", "1", "--out", str(tmp_path / "p.json"),
        ]) == 2
        # scene_dir's pyramid has 8 channels.
        assert "error: pyramid channels (8) must match query dim (16)" in capsys.readouterr().err
        assert not (tmp_path / "p.json").exists()


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
    [("decode", "--heads"), ("decode", "--layers"), ("bench", "--heads"), ("bench", "--layers")],
)
def test_nonpositive_decoder_size_usage_error(scene_dir, tmp_path, capsys, command, flag):
    argv = {
        "decode": ["decode", "--pyramid", str(scene_dir / "pyramid" / "pyramid.json"),
                   "--calib", str(scene_dir / "calib.json"), "--queries", "4",
                   "--layers", "1", "--heads", "2", "--seed", "1", "--out", str(tmp_path / "p.json")],
        "bench": ["bench", "--queries", "4", "--neighbors", "2", "--cameras", "1", "--levels", "1",
                  "--dim", "8", "--layers", "1", "--heads", "2", "--repeats", "1"],
    }[command]
    argv[argv.index(flag) + 1] = "0"
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("command", ["decode", "bench"])
def test_queries_above_bound_usage_error(scene_dir, tmp_path, capsys, monkeypatch, command):
    def refuse(*args, **kwargs):
        raise AssertionError("self_attention reached")

    monkeypatch.setattr(decoder, "self_attention", refuse)
    queries = str(decoder._MAX_QUERIES + 1)
    argv = {
        "decode": ["decode", "--pyramid", str(scene_dir / "pyramid" / "pyramid.json"),
                   "--calib", str(scene_dir / "calib.json"), "--queries", queries,
                   "--layers", "1", "--heads", "2", "--seed", "1", "--out", str(tmp_path / "p.json")],
        "bench": ["bench", "--queries", queries, "--neighbors", "2", "--cameras", "1", "--levels", "1",
                  "--dim", "8", "--layers", "1", "--heads", "2", "--repeats", "1"],
    }[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == f"error: count must be at most {decoder._MAX_QUERIES}, got {queries}\n"
    assert not (tmp_path / "p.json").exists()


@pytest.mark.parametrize(
    "command, flag, value, named",
    [
        ("synth", "--strides", "8,0", "stride must be >= 1, got 0"),
        ("bench", "--repeats", "0", "--repeats"),
        ("bench", "--levels", "0", "--levels"),
        ("bench", "--levels", "5", "--levels"),
        ("bench", "--cameras", "0", "--cameras"),
        ("bench", "--cameras", "7", "--cameras"),
        ("gradcheck", "--eps", "nan", "eps must be finite and positive, got nan"),
        ("gradcheck", "--eps", "inf", "eps must be finite and positive, got inf"),
        ("gradcheck", "--eps", "0", "eps must be finite and positive, got 0.0"),
        ("gradcheck", "--tol", "nan", "tol must be finite and at least 0, got nan"),
        ("gradcheck", "--tol", "inf", "tol must be finite and at least 0, got inf"),
        ("gradcheck", "--tol", "-1", "tol must be finite and at least 0, got -1.0"),
    ],
)
def test_size_flag_usage_error_names_flag(tmp_path, capsys, command, flag, value, named):
    argv = {
        "synth": ["synth", "--seed", "1", "--objects", "2", "--channels", "2", "--strides", "8",
                  "--out", str(tmp_path / "scene")],
        "bench": ["bench", "--queries", "4", "--neighbors", "2", "--cameras", "1", "--levels", "1",
                  "--dim", "8", "--layers", "1", "--heads", "2", "--repeats", "1"],
        "gradcheck": ["gradcheck", "--probes", "1", "--eps", "1e-4", "--tol", "1e-6"],
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

    def test_defaults_are_grad_checks(self, capsys):
        assert main(["gradcheck", "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == decoder.grad_check().to_dict()

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


def _params_with(drop=(), head=True, **meta):
    """A real one-layer bundle with ``meta`` overriding its metadata and the
    activations and tensor entries named in ``drop`` left out; its tensor
    files are referenced by absolute path.  Without ``head``, every
    ``head.*`` entry and activation is left out and ``num_classes`` is null."""
    def build(scene_dir):
        params = scene_dir / "params-one-layer"
        layers = decoder.init_decoder(1, layers=1, dim=8, neighbors=1, heads=1)
        with open(decoder.save_params(params, layers, decoder.PredictionHead.seeded(1, dim=8))) as fh:
            bundle = json.load(fh)
        bundle["meta"].update(meta)
        left_out = set(drop)
        if not head:
            bundle["meta"]["num_classes"] = None
            names = [*bundle["meta"]["activations"], *(e["name"] for e in bundle["entries"])]
            left_out.update(name for name in names if name.startswith("head."))
        for net in left_out:
            bundle["meta"]["activations"].pop(net, None)
        bundle["entries"] = [e for e in bundle["entries"] if e["name"] not in left_out]
        for entry in bundle["entries"]:
            entry["file"] = str(params / entry["file"])
        return bundle

    return build


def _pyramid_file_twice(scene_dir):
    """The scene's pyramid manifest with camera 1's first level naming camera
    0's tensor file."""
    manifest = _pyramid_with()(scene_dir)
    cams = manifest["cameras"]
    cams[1]["levels"][0]["file"] = cams[0]["levels"][0]["file"]
    return manifest


def _params_file_directory(scene_dir):
    """A real one-layer bundle whose first entry names a directory."""
    bundle = _params_with()(scene_dir)
    bundle["entries"][0]["file"] = "."
    return bundle


def _params_with_entry(name):
    """A real one-layer bundle with one more entry, ``name``, on a tensor file
    of its own (the test's ``level.gdt3``, beside the manifest)."""
    def build(scene_dir):
        bundle = _params_with()(scene_dir)
        bundle["entries"].append({"file": "level.gdt3", "name": name, "shape": [8, 4, 4]})
        return bundle

    return build


def _params_with_activations(net, acts):
    """A real one-layer bundle whose meta also lists ``acts`` for ``net``."""
    def build(scene_dir):
        bundle = _params_with()(scene_dir)
        bundle["meta"]["activations"][net] = acts
        return bundle

    return build


def _params_file_twice(scene_dir):
    """A real one-layer bundle with one more entry on its first tensor file."""
    bundle = _params_with()(scene_dir)
    bundle["entries"].append(dict(bundle["entries"][0], name="extra"))
    return bundle


_LEVEL = {"file": "level.gdt3", "stride": 8}
_PRED = {"center": [10.0, 0.0, 1.0], "size": [2.0, 4.0, 1.5], "yaw": 0.0, "score": 0.5}
_NESTED_40 = functools.reduce(lambda v, _: [v], range(40), 1.0)  # past numpy's 32-dim iterator limit
_MALFORMED = {
    "pyramid-list": ("pyramid", []),
    "pyramid-cameras-int": ("pyramid", {"version": 1, "cameras": 3}),
    "pyramid-stride-null": ("pyramid", {"version": 1, "cameras": [{"levels": [dict(_LEVEL, stride=None)]}]}),
    "pyramid-stride-list": ("pyramid", {"version": 1, "cameras": [{"levels": [dict(_LEVEL, stride=[8])]}]}),
    "pyramid-file-int": ("pyramid", {"version": 1, "cameras": [{"levels": [dict(_LEVEL, file=5)]}]}),
    "pyramid-stride-fraction": ("pyramid", _pyramid_with(level={"stride": 8.7})),
    "pyramid-version-list": ("pyramid", _pyramid_with(version=["x"])),
    "pyramid-file-twice": ("pyramid", _pyramid_file_twice),
    "pyramid-file-directory": ("pyramid", _pyramid_with(level={"file": "."})),
    "params-list": ("params", []),
    "params-entries-int": ("params", {"version": 1, "meta": {}, "entries": 3}),
    "params-file-int": ("params", {"version": 1, "meta": {}, "entries": [{"name": "x", "file": 5, "shape": [1]}]}),
    "params-meta-int": ("params", {"version": 1, "meta": 5, "entries": []}),
    "params-layers-list": ("params", {"version": 1, "meta": {"layers": [1], "heads": 1, "activations": {}}, "entries": []}),
    "params-layers-zero": ("params", _params_with(layers=0)),
    "params-heads-zero": ("params", _params_with(heads=0)),
    "params-layers-beyond-entries": ("params", _params_with(layers=2)),
    "params-activations-missing": ("params", _params_with(drop=("layer00.ffn",))),
    "params-tensor-missing": ("params", _params_with(drop=("layer00.ffn.b1",))),
    "params-num-classes-fraction": ("params", _params_with(num_classes=-2.5)),
    "params-no-head": ("params", _params_with(head=False)),
    "params-dim-mismatch": ("params", _params_with(dim=999)),
    "params-dim-fraction": ("params", _params_with(dim=8.5)),
    "params-neighbors-mismatch": ("params", _params_with(neighbors=-4)),
    "params-num-classes-mismatch": ("params", _params_with(num_classes=3)),
    "params-entry-outside-layout": ("params", _params_with_entry("extra")),
    "params-entry-unread": ("params", _params_with_entry("layer00.ffn.w7")),
    "params-file-twice": ("params", _params_file_twice),
    "params-file-directory": ("params", _params_file_directory),
    "params-activations-outside-layout": ("params", _params_with_activations("layer05.ffn", ["relu", "bogus"])),
    "calib-fx-null": ("calib", _calib_with(fx=None)),
    "calib-fx-inf": ("calib", _calib_with(fx=float("inf"))),
    "calib-id-null": ("calib", _calib_with(id=None)),
    "calib-width-fraction": ("calib", _calib_with(width=1600.9)),
    "calib-width-huge": ("calib", _calib_with(width=10**300)),
    "calib-fx-string": ("calib", _calib_with(fx="1142.5")),
    "calib-fx-huge": ("calib", _calib_with(fx=10**400)),
    "calib-translation-bool-string": ("calib", _calib_with(translation=[True, "0", 0])),
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
    "predictions-score-string": ("pred", {"predictions": [dict(_PRED, score="0.9")]}),
    "predictions-center-strings": ("pred", {"predictions": [dict(_PRED, center=["1", "2", "3"])]}),
    "predictions-center-nested-40": ("pred", {"predictions": [dict(_PRED, center=_NESTED_40)]}),
    "annotations-list": ("annotations", []),
    "annotations-frames-int": ("annotations", {"frames": 5}),
    "annotations-item-int": ("annotations", {"frames": [1]}),
    "annotations-objects-int": ("annotations", _frame_with(objects=5)),
    "annotations-calib-missing": ("annotations", _frame_without("calib")),
    "annotations-image-sizes-int": ("annotations", _frame_with(image_sizes=[5])),
    "annotations-width-huge": ("annotations", _frame_with(image_sizes=[[10**300, 900]] * 6)),
    "annotations-depth-null": ("annotations", _object_with(depth=None)),
    "annotations-depth-string": ("annotations", _object_with(depth="5")),
    "annotations-class-list": ("annotations", _object_with(**{"class": [1]})),
    "annotations-regression-mask-string": ("annotations", _frame_with(regression_mask="false")),
    "calib-deep-nesting": ("calib", DEEP_JSON),
    "annotations-deep-nesting": ("annotations", DEEP_JSON),
    "predictions-deep-nesting": ("pred", DEEP_JSON),
    "pyramid-deep-nesting": ("pyramid", DEEP_JSON),
    "params-deep-nesting": ("params", DEEP_JSON),
}


class TestMalformedInputFiles:
    @pytest.mark.parametrize("case", sorted(_MALFORMED))
    def test_exits_with_usage_error(self, scene_dir, tmp_path, capsys, case):
        kind, content = _MALFORMED[case]
        bad = tmp_path / "bad.json"
        write_tensor(tmp_path / "level.gdt3", np.zeros((8, 4, 4)))
        if isinstance(content, bytes):
            bad.write_bytes(content)
        else:
            bad.write_text(json.dumps(content(scene_dir) if callable(content) else content))
        pyramid, calib = str(scene_dir / "pyramid" / "pyramid.json"), str(scene_dir / "calib.json")
        gt, out = str(scene_dir / "annotations.json"), str(tmp_path / "out")
        argv = {
            "pyramid": ["decode", "--pyramid", str(bad), "--calib", calib, "--heads", "2",
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

    @pytest.mark.parametrize("kind", ["pyramid", "params"])
    def test_fifo_tensor_file_usage_error(self, scene_dir, tmp_path, kind):
        # Opening a FIFO for reading waits for a writer, so the CLI runs in a
        # process of its own that a timeout ends if it waits.
        fifo = tmp_path / "level.gdt3"
        os.mkfifo(fifo)
        if kind == "pyramid":
            manifest = _pyramid_with(level={"file": str(fifo)})(scene_dir)
        else:
            manifest = _params_with()(scene_dir)
            manifest["entries"][0]["file"] = str(fifo)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(manifest))
        argv = {
            "pyramid": ["--pyramid", str(bad), "--heads", "2", "--queries", "4", "--layers", "1"],
            "params": ["--pyramid", str(scene_dir / "pyramid" / "pyramid.json"), "--params", str(bad)],
        }[kind]
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "mvdet.cli", "decode", *argv, "--calib", str(scene_dir / "calib.json"),
             "--seed", "1", "--out", str(tmp_path / "p.json")],
            capture_output=True, text=True, env=env, timeout=30,
        )
        assert proc.returncode == 2
        assert proc.stderr == f"error: {fifo}: not a regular file\n"
        assert not (tmp_path / "p.json").exists()


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

    @pytest.mark.parametrize("sizes", [[], 0, "", False], ids=["empty-list", "zero", "empty-string", "false"])
    def test_empty_or_false_image_sizes_exit_2(self, scene_dir, tmp_path, capsys, sizes):
        (tmp_path / "gt.json").write_text(json.dumps(_frame_with(image_sizes=sizes)(scene_dir)))
        (tmp_path / "preds.json").write_text(json.dumps({"predictions": []}))
        assert main([
            "evaluate", "--gt", str(tmp_path / "gt.json"), "--pred", str(tmp_path / "preds.json"),
            "--calib", str(scene_dir / "calib.json"), "--out", str(tmp_path / "eval"),
        ]) == 2
        assert capsys.readouterr().err.startswith(
            ("error: image_sizes must have one entry per camera", "error: annotation frame: missing or malformed field")
        )

    def test_class_ids_beyond_int64(self, scene_dir, tmp_path, capsys):
        # Class ids are Python ints end to end: ids past int64 load, match
        # and are written as decimal numbers and strings.
        ann = json.loads((scene_dir / "annotations.json").read_text())
        objects = ann["frames"][0]["objects"]
        for o in objects:
            o["class"] = 10**30 + o["class"] % 2
        (tmp_path / "gt.json").write_text(json.dumps(ann))
        keys = ("center", "size", "yaw", "velocity", "class", "attribute")
        preds = [{key: o[key] for key in keys} | {"score": 0.9} for o in objects]
        (tmp_path / "preds.json").write_text(json.dumps({"predictions": preds}))
        out = tmp_path / "eval"
        assert main([
            "evaluate", "--gt", str(tmp_path / "gt.json"), "--pred", str(tmp_path / "preds.json"),
            "--calib", str(scene_dir / "calib.json"), "--split", "--out", str(out), "--json",
        ]) == 0
        assert json.loads(capsys.readouterr().out)["overall_NDS"] == 1.0
        report = json.loads((out / "report.json").read_text())
        assert report["overall"]["classes"] == [10**30, 10**30 + 1]
        assert sorted(report["overall"]["ap"]) == [str(10**30), str(10**30 + 1)]
        # sha256 computed while the greedy matcher still sorted predictions in Python.
        assert hashlib.sha256((out / "report.json").read_bytes()).hexdigest() == "d8a5fe0c778dcd8ac6ca04aa09ffbc0b958af6dbb5cedb6c1ee42c807382d866"
        assert hashlib.sha256((out / "report.csv").read_bytes()).hexdigest() == "b33b9ff3cdc8501ddafef49266faaefe6f96059a685e73248b990a0d4a283984"

    def test_no_split_report_bytes(self, scene_dir, tmp_path, capsys):
        gts = [o.box for o in load_frames(scene_dir / "annotations.json")[0].objects]
        noise = NoiseSpec(center_sigma=0.5, yaw_sigma=0.2, velocity_sigma=0.3, drop_rate=0.2, false_positive_rate=0.3)
        save_predictions(tmp_path / "preds.json", perturb_predictions(gts, noise, seed=7))
        out = tmp_path / "eval"
        assert main([
            "evaluate", "--gt", str(scene_dir / "annotations.json"), "--pred", str(tmp_path / "preds.json"),
            "--calib", str(scene_dir / "calib.json"), "--no-split", "--out", str(out), "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert sorted(payload) == ["NDS", "csv", "mAP", "report"]
        report = json.loads((out / "report.json").read_text())
        assert report["NDS"] == payload["NDS"] and "overall" not in report
        rows = (out / "report.csv").read_text().splitlines()
        assert {row.split(",")[0] for row in rows[1:]} == {"overall"}
        # sha256 computed while NoiseSpec still had its score-range and false-positive-bounds options.
        assert hashlib.sha256((out / "report.json").read_bytes()).hexdigest() == "482c50c8e68772f69c1dddd56f85ec7e73b167b6cf9d6fc336bce0a35818edb2"
        assert hashlib.sha256((out / "report.csv").read_bytes()).hexdigest() == "e5b5005e0fd97417042c7246efaf9cae6aa8a01e3d49785ded1948e4a97d3de1"

    def test_no_split_without_objects_writes_none_row(self, scene_dir, tmp_path):
        ann = json.loads((scene_dir / "annotations.json").read_text())
        ann["frames"][0]["objects"] = []
        (tmp_path / "empty.json").write_text(json.dumps(ann))
        (tmp_path / "preds.json").write_text(json.dumps({"predictions": []}))
        out = tmp_path / "eval"
        assert main([
            "evaluate", "--gt", str(tmp_path / "empty.json"), "--pred", str(tmp_path / "preds.json"),
            "--calib", str(scene_dir / "calib.json"), "--no-split", "--out", str(out),
        ]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["classes"] == [] and report["no_gts"] and report["tp_fallback"]
        assert (out / "report.csv").read_text().splitlines() == [
            "region,class,mAP,mATE,mASE,mAOE,mAVE,mAAE,NDS",
            "overall,none,0.000000,,,,,,0.000000",
        ]

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
        assert payload["config"]["workers"] == min(2, len(os.sched_getaffinity(0)))
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

    def test_sizes_not_given_are_init_decoders(self, capsys):
        # Checksum computed with --layers 6 --neighbors 16 --heads 8 given,
        # when bench restated init_decoder's defaults as its own.
        assert main(["bench", "--queries", "4", "--cameras", "1", "--levels", "1", "--dim", "8",
                     "--repeats", "1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        defaults = inspect.signature(decoder.init_decoder).parameters
        config = payload["config"]
        assert (config["layers"], config["neighbors"], config["heads"]) == tuple(
            defaults[name].default for name in ("layers", "neighbors", "heads")
        )
        assert payload["node_count"] == 4 * defaults["neighbors"].default
        assert payload["output_checksum"] == "147f50a08db3debe0e37e636d414fae3aaf4e102810de221b544965abd5b2de6"

    def test_output_checksum_pin(self, capsys):
        assert main(["bench", "--queries", "16", "--neighbors", "4", "--cameras", "2", "--levels", "2",
                     "--dim", "8", "--layers", "1", "--heads", "2", "--repeats", "1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["output_checksum"] == "342b17f8796ac1212d2a66d699c2e4a639f3e463ab51947692f4b73e3eba44d5"

    @pytest.mark.parametrize("sampling_only, passes", [(False, 1 + 3), (True, 0)], ids=["full", "sampling-only"])
    def test_decoder_passes_are_the_timed_ones(self, capsys, monkeypatch, sampling_only, passes):
        calls = []
        forward = decoder.decoder_forward

        def counted(*args, **kwargs):
            calls.append(None)
            return forward(*args, **kwargs)

        monkeypatch.setattr(decoder, "decoder_forward", counted)
        assert main(["bench", "--queries", "8", "--neighbors", "2", "--cameras", "1", "--levels", "1",
                     "--dim", "8", "--layers", "1", "--repeats", "3", "--json",
                     *(["--sampling-only"] if sampling_only else [])]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(calls) == passes
        assert ("output_checksum" in payload) is not sampling_only
        assert ("decoder_pass" in payload["timing"]) is not sampling_only
