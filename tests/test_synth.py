import hashlib
import math

import numpy as np
import pytest

from mvdet.camgeo import RegionLabel, classify_regions, project_points, visible_counts
from mvdet.featcore import FeatureError, bilinear_sample_many, sample_multiview_many
from mvdet.metrics import evaluate, match_detections
from mvdet.synth import (
    _MAX_CHANNELS,
    AnalyticField,
    CameraSpec,
    ConfigError,
    NoiseSpec,
    adjacent_seam_azimuths,
    gen_objects,
    gen_rig,
    make_scene,
    perturb_predictions,
    random_field,
    render_pyramid,
)

from helpers import seen_by


class TestGenRig:
    def test_single(self):
        rig = gen_rig("single")
        assert len(rig) == 1

    def test_integral_camera_sides_are_stored_as_ints(self):
        spec = CameraSpec(id="c", yaw_deg=0.0, width=np.int64(1600), height=900.0)
        assert (spec.width, spec.height) == (1600, 900) and type(spec.width) is int and type(spec.height) is int

    def test_six_camera_layout(self):
        rig = gen_rig("nuscenes-like")
        assert len(rig) == 6
        assert [c.id for c in rig] == ["front", "front_left", "front_right", "back_left", "back_right", "back"]

    def test_adjacent_overlaps_nonempty(self):
        # Oracle: exhaustive projection of seam-direction rays.
        rig = gen_rig("nuscenes-like")
        for i, j, az in adjacent_seam_azimuths():
            rad = math.radians(az)
            p = np.array([30 * math.cos(rad), 30 * math.sin(rad), 1.5])
            assert seen_by(p, rig) == {i, j}

    def test_exclusive_regions_nonempty(self):
        rig = gen_rig("nuscenes-like")
        assert seen_by(np.array([20.0, 0.0, 1.5]), rig) == {0}

    def test_duplicated_custom_cameras_double_count(self):
        specs = [
            CameraSpec(id="a", yaw_deg=0.0),
            CameraSpec(id="b", yaw_deg=0.0),
        ]
        rig = gen_rig("custom", specs=specs)
        rng = np.random.default_rng(0)
        pts = rng.uniform((5, -5, 0.5), (40, 5, 2.5), size=(100, 3))
        counts = visible_counts(pts, rig)
        assert np.all((counts == 0) | (counts == 2))
        assert np.any(counts == 2)

    def test_invalid_style_rejected(self):
        with pytest.raises(ConfigError):
            gen_rig("spherical")

    def test_custom_requires_specs(self):
        with pytest.raises(ConfigError):
            gen_rig("custom")


class TestRenderPyramid:
    def test_constant_everywhere(self):
        rig = gen_rig("single")
        pyr = render_pyramid(AnalyticField.constant([2.5, -1.0]), rig, strides=(8, 32))
        for level in pyr.levels(0):
            assert np.all(level.data[0] == 2.5)
            assert np.all(level.data[1] == -1.0)

    def test_linear_field_follows_stride(self):
        rig = gen_rig("single")
        a, b = 0.5, 0.125
        pyr = render_pyramid(AnalyticField.linear([a], [b], [0.0]), rig, strides=(8, 16))
        for level in pyr.levels(0):
            u = np.arange(level.width)
            expected = a + b * u * level.stride
            assert np.allclose(level.data[0, 0, :], expected, atol=1e-5)

    def test_bilinear_sampling_matches_closed_form(self):
        rig = gen_rig("single")
        rng = np.random.default_rng(1)
        field = AnalyticField(
            a=rng.uniform(-1, 1, 3),
            b=rng.uniform(-1, 1, 3) * 1e-3,
            c=rng.uniform(-1, 1, 3) * 1e-3,
            d=rng.uniform(-1, 1, 3) * 1e-6,
        )
        pyr = render_pyramid(field, rig, strides=(8, 16, 32, 64))
        for level in pyr.levels(0):
            pos = rng.uniform((0, 0), (level.width - 1, level.height - 1), size=(500, 2))
            feats, inside = bilinear_sample_many(level, pos[:50])
            assert inside.all()
            for p, feat in zip(pos[:50], feats):
                expected = field.evaluate(p[0] * level.stride, p[1] * level.stride)
                assert np.all(np.abs(feat - expected) <= 1e-5 * np.maximum(1.0, np.abs(expected)))

    @staticmethod
    def level_digest(pyr):
        h = hashlib.sha256()
        for cam in range(pyr.camera_count):
            for level in pyr.levels(cam):
                h.update(level.data.tobytes())
        return h.hexdigest()

    def test_surround_levels_bytes_and_shared(self):
        pyr = render_pyramid(random_field(3, "bilinear", 4), gen_rig("nuscenes-like"), strides=(8, 16, 32, 64))
        # sha256 computed while every camera rendered its own levels.
        assert self.level_digest(pyr) == "3b569d8cafcd39f7bd88bbe67f375d59201e3a20351c867aa98d781d19ea9ee3"
        for cam in range(pyr.camera_count):
            assert all(a is b for a, b in zip(pyr.levels(0), pyr.levels(cam), strict=True))

    def test_image_sizes_with_equal_level_shapes_share_levels(self):
        # ceil(1599 / s) == ceil(1600 / s) for every stride s here.
        specs = [CameraSpec(id="a", yaw_deg=0.0), CameraSpec(id="b", yaw_deg=90.0, width=1599)]
        pyr = render_pyramid(random_field(3, "bilinear", 4), gen_rig("custom", specs), strides=(8, 16, 32, 64))
        assert pyr.levels(0)[0].data.shape == (4, 113, 200)
        assert all(a is b for a, b in zip(pyr.levels(0), pyr.levels(1), strict=True))
        # sha256 computed while every camera rendered its own levels.
        assert self.level_digest(pyr) == "058cdbf655dd3e20100a4069c0ea0b3aeadbdf926afd93390f85321aa2bcda39"

    def test_image_sizes_with_different_level_shapes_rejected(self):
        specs = [CameraSpec(id="a", yaw_deg=0.0), CameraSpec(id="b", yaw_deg=90.0, width=800, height=450)]
        with pytest.raises(FeatureError, match="identical per-level shapes"):
            render_pyramid(random_field(3, "bilinear", 4), gen_rig("custom", specs), strides=(8, 16))

    @staticmethod
    def assert_levels_equal_meshgrid_render(pyr, field):
        # Reference: the field evaluated on the full meshgrid of each level.
        for cam in range(pyr.camera_count):
            for level in pyr.levels(cam):
                uu, vv = np.meshgrid(
                    np.arange(level.width, dtype=np.float64) * level.stride,
                    np.arange(level.height, dtype=np.float64) * level.stride,
                )
                expected = np.moveaxis(field.evaluate(uu, vv), -1, 0).astype(np.float32)
                assert level.data.shape == expected.shape
                assert level.data.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("channels", [4, 64])
    @pytest.mark.parametrize("kind", ["constant", "linear", "bilinear"])
    def test_levels_equal_meshgrid_render(self, kind, channels):
        field = random_field(7, kind, channels)
        pyr = render_pyramid(field, gen_rig("nuscenes-like"), strides=(8, 16, 32, 64))
        self.assert_levels_equal_meshgrid_render(pyr, field)

    def test_one_pixel_wide_level_equals_meshgrid_render(self):
        field = random_field(7, "bilinear", 4)
        rig = gen_rig("custom", [CameraSpec(id="narrow", yaw_deg=0.0, width=2, height=9)])
        pyr = render_pyramid(field, rig, strides=(1, 4))
        assert [level.data.shape for level in pyr.levels(0)] == [(4, 9, 2), (4, 3, 1)]
        self.assert_levels_equal_meshgrid_render(pyr, field)

    @pytest.mark.parametrize("stride", [0, -8])
    def test_stride_below_one(self, stride):
        rig = gen_rig("single")
        with pytest.raises(ConfigError, match=f"stride must be at least 1, got {stride}"):
            render_pyramid(AnalyticField.constant([1.0]), rig, strides=(8, stride))


class TestRandomField:
    @pytest.mark.parametrize("seed", [0, 21])
    def test_constant_and_linear_take_the_bilinear_draw(self, seed):
        bilinear = random_field(seed, "bilinear", 5)
        constant = random_field(seed, "constant", 5)
        linear = random_field(seed, "linear", 5)
        assert np.array_equal(constant.a, bilinear.a)
        assert np.all(constant.b == 0) and np.all(constant.c == 0) and np.all(constant.d == 0)
        for name in ("a", "b", "c"):
            assert np.array_equal(getattr(linear, name), getattr(bilinear, name))
        assert np.all(linear.d == 0)
        assert np.all(bilinear.b != 0) and np.all(bilinear.d != 0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="unknown field kind"):
            random_field(0, "quadratic", 2)


class TestGenObjects:
    def test_zero_count(self):
        assert gen_objects(1, 0) == []

    def test_determinism(self):
        a = gen_objects(7, 40)
        b = gen_objects(7, 40)
        for x, y in zip(a, b):
            assert np.array_equal(x.center, y.center)
            assert np.array_equal(x.size, y.size)
            assert x.yaw == y.yaw and x.class_id == y.class_id

    def test_ranges(self):
        boxes = gen_objects(3, 200)
        for b in boxes:
            assert np.all(b.size >= 0.5) and np.all(b.size <= 5.0)
            assert -math.pi < b.yaw <= math.pi
            assert np.all(b.center >= (-40, -40, -0.5)) and np.all(b.center <= (40, 40, 3))

    def test_region_fractions_match_exhaustive_classification(self):
        # Oracle: per-point visibility counting over centroid plus corners.
        rig = gen_rig("nuscenes-like")
        boxes = gen_objects(7, 100)
        labels = classify_regions(boxes, rig)
        from mvdet.camgeo import box_corners

        for box, label in zip(boxes, labels):
            probes = np.vstack([box.center[None], box_corners(box)])
            counts = [len(seen_by(p, rig)) for p in probes]
            if max(counts) >= 2:
                assert label is RegionLabel.OVERLAPPING
            elif max(counts) == 1:
                assert label is RegionLabel.NON_OVERLAPPING
            else:
                assert label is RegionLabel.INVISIBLE
        assert sum(1 for l in labels if l is RegionLabel.OVERLAPPING) > 0
        assert sum(1 for l in labels if l is RegionLabel.NON_OVERLAPPING) > 0


class TestPerturbPredictions:
    def test_zero_noise_perfect_metrics(self):
        gts = gen_objects(5, 150)
        preds = perturb_predictions(gts, NoiseSpec(), seed=2)
        report = evaluate(preds, gts)
        assert report.mean_ap == 1.0
        assert report.tp.as_tuple() == (0.0, 0.0, 0.0, 0.0, 0.0)
        assert report.nds == 1.0

    def test_center_noise_matches_rayleigh_mean(self):
        # Monte-Carlo oracle: E[|2D gaussian|] = sigma * sqrt(pi / 2).
        gts = gen_objects(6, 10_000)
        sigma = 0.1
        preds = perturb_predictions(gts, NoiseSpec(center_sigma=sigma), seed=3)
        pairs = match_detections(preds, gts, 2.0)
        assert len(pairs) == len(gts)
        dists = [np.linalg.norm(preds[pi].box.center[:2] - gts[gi].center[:2]) for pi, gi in pairs]
        expected = sigma * math.sqrt(math.pi / 2)
        assert abs(float(np.mean(dists)) - expected) < 0.05 * expected

    def test_drop_rate_recall_plateau(self):
        gts = gen_objects(8, 4000)
        preds = perturb_predictions(gts, NoiseSpec(drop_rate=0.5), seed=4)
        pairs = match_detections(preds, gts, 2.0)
        assert abs(len(pairs) / len(gts) - 0.5) < 0.03

    def test_false_positive_injection(self):
        gts = gen_objects(9, 200)
        preds = perturb_predictions(gts, NoiseSpec(false_positive_rate=0.25), seed=5)
        assert len(preds) == 250
        fp_scores = [p.score for p in preds[200:]]
        assert max(fp_scores) <= 0.5

    def test_determinism(self):
        gts = gen_objects(10, 50)
        spec = NoiseSpec(center_sigma=0.2, yaw_sigma=0.1, drop_rate=0.3)
        a = perturb_predictions(gts, spec, seed=6)
        b = perturb_predictions(gts, spec, seed=6)
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert np.array_equal(x.box.center, y.box.center)
            assert x.score == y.score

    def test_invalid_noise_rejected(self):
        with pytest.raises(ConfigError):
            NoiseSpec(drop_rate=1.5)
        with pytest.raises(ConfigError):
            NoiseSpec(center_sigma=-0.1)


# Invalid values the module's own checks refuse; a rig the geometry refuses
# fails as a ConfigError too.
_INVALID_VALUES = {
    "field-nan": lambda: AnalyticField(a=[math.nan], b=[0.0], c=[0.0], d=[0.0]),
    "field-2d": lambda: AnalyticField(a=np.zeros((2, 2)), b=0.0, c=0.0, d=0.0),
    "field-channel-count": lambda: AnalyticField(a=np.zeros(2), b=np.zeros(3), c=np.zeros(2), d=np.zeros(2)),
    "camera-fov": lambda: CameraSpec(id="c", yaw_deg=0.0, hfov_deg=180.0),
    "camera-size": lambda: CameraSpec(id="c", yaw_deg=0.0, width=1),
    "custom-rig-duplicate-ids": lambda: gen_rig("custom", [CameraSpec(id="c", yaw_deg=0.0), CameraSpec(id="c", yaw_deg=90.0)]),
    "objects-negative-count": lambda: gen_objects(0, count=-1),
    "objects-count-fraction": lambda: gen_objects(1, 2.5),
    "camera-width-fraction": lambda: gen_rig("custom", [CameraSpec(id="c", yaw_deg=0.0, width=1600.5)]),
    "render-stride-fraction": lambda: render_pyramid(AnalyticField.constant([1.0]), gen_rig("single"), strides=(8.5,)),
    "objects-class-count-fraction": lambda: gen_objects(1, 5, class_count=2.5),
    "objects-no-classes": lambda: gen_objects(1, 5, class_count=0),
    "scene-channels-fraction": lambda: make_scene(1, channels=2.5),
    "scene-no-channels": lambda: make_scene(1, channels=0),
    "random-field-channels-above-bound": lambda: random_field(1, "bilinear", _MAX_CHANNELS + 1),
    "render-no-channels": lambda: render_pyramid(AnalyticField.constant(np.zeros(0)), gen_rig("single"), strides=(64,)),
    "render-channels-above-bound": lambda: render_pyramid(
        AnalyticField.constant(np.zeros(_MAX_CHANNELS + 1)), gen_rig("single"), strides=(64,)
    ),
    "camera-spec-width-fraction": lambda: CameraSpec(id="c", yaw_deg=0.0, width=1600.5),
    "camera-spec-width-bool": lambda: CameraSpec(id="c", yaw_deg=0.0, width=True),
    "noise-center-nan": lambda: NoiseSpec(center_sigma=math.nan),
    "noise-false-positives-inf": lambda: NoiseSpec(false_positive_rate=math.inf),
    "noise-false-positives-nan": lambda: NoiseSpec(false_positive_rate=math.nan),
}


@pytest.mark.parametrize("case", sorted(_INVALID_VALUES))
def test_invalid_value_raises_config_error(case):
    with pytest.raises(ConfigError):
        _INVALID_VALUES[case]()


class TestSceneDeterminism:
    def test_scene_bit_identical(self):
        a = make_scene(13, object_count=20, channels=4, strides=(16, 32))
        b = make_scene(13, object_count=20, channels=4, strides=(16, 32))
        for ca, cb in zip(a.rig, b.rig):
            assert np.array_equal(ca.extrinsics.rotation, cb.extrinsics.rotation)
        for ci in range(a.pyramid.camera_count):
            for la, lb in zip(a.pyramid.levels(ci), b.pyramid.levels(ci)):
                assert np.array_equal(la.data, lb.data)
        for oa, ob in zip(a.objects, b.objects):
            assert np.array_equal(oa.center, ob.center)

    def test_sampling_oracle_through_scene(self):
        scene = make_scene(14, object_count=0, channels=4)
        p = np.array([18.0, 2.0, 1.5])
        feats, counts = sample_multiview_many(scene.pyramid, scene.rig, p)
        assert counts[0] > 0
        pixel = project_points([p], scene.rig[0])[0][0]
        expected = scene.field.evaluate(pixel[0], pixel[1])
        assert np.all(np.abs(feats[0] - expected) <= 1e-5 * np.maximum(1.0, np.abs(expected)))
