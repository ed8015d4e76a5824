import hashlib
import json

import numpy as np
import pytest

from mvdet.augment import (
    AnnotatedFrame,
    AnnotatedObject,
    AugmentError,
    DepthScaler,
    ScaleMode,
    apply_transform,
    frame_from_dict,
    frame_to_dict,
    load_frames,
    pixel_depth_decode,
    sample_scale,
    save_frames,
)
from mvdet.camgeo import Box3D, CameraIntrinsics, pixel_size, project_points
from mvdet.synth import derived_rng, gen_rig

from helpers import make_frame


class TestSampleScale:
    def test_degenerate_range(self):
        assert sample_scale((1.0, 1.0), derived_rng(0, 0)) == 1.0

    def test_seeded_regression_value(self):
        r = sample_scale((0.7, 1.4), derived_rng(42, 100, 0))
        assert r == pytest.approx(0.893984432923071, rel=0, abs=1e-15)

    def test_law_of_large_numbers(self):
        rng = derived_rng(7, 0)
        samples = [sample_scale((0.7, 1.4), rng) for _ in range(100_000)]
        assert abs(float(np.mean(samples)) - 1.05) < 0.005

    def test_invalid_ranges(self):
        for bad in [(0.0, 1.0), (-1.0, 1.0), (1.5, 1.0), (1.0, float("inf")), (float("inf"),) * 2]:
            with pytest.raises(AugmentError):
                sample_scale(bad, derived_rng(0, 0))


class TestResize:
    """The side rule of ``apply_transform`` on a frame's recorded image sizes."""

    @staticmethod
    def sized_frame(w, h):
        return AnnotatedFrame(rig=gen_rig("single"), objects=(), image_sizes=((w, h),))

    def test_size_rounding_half_even(self):
        out = apply_transform(self.sized_frame(5, 5), 0.5, ScaleMode.DEPTH_INVARIANT)  # 2.5 rounds to 2
        assert out.image_sizes == ((2, 2),)
        out = apply_transform(self.sized_frame(7, 7), 0.5, ScaleMode.DEPTH_INVARIANT)  # 3.5 rounds to 4
        assert out.image_sizes == ((4, 4),)

    def test_collapse_rejected(self):
        with pytest.raises(AugmentError, match="below one pixel"):
            apply_transform(self.sized_frame(4, 4), 0.05, ScaleMode.DEPTH_INVARIANT)
        with pytest.raises(AugmentError):
            apply_transform(self.sized_frame(4, 4), -1.0, ScaleMode.DEPTH_INVARIANT)

    def test_oversized_result_rejected(self):
        frame = make_frame()
        with pytest.raises(AugmentError, match="exceed 65536 pixels"):
            apply_transform(frame, 1e300, ScaleMode.DEPTH_INVARIANT)
        with pytest.raises(AugmentError, match="exceed 65536 pixels"):
            apply_transform(self.sized_frame(4, 4), 2**15, ScaleMode.DEPTH_INVARIANT)

    def test_resize_frame_updates_sizes_not_intrinsics(self):
        frame = make_frame()
        out = apply_transform(frame, 0.5, ScaleMode.DEPTH_INVARIANT)
        for cam_a, cam_b in zip(frame.rig, out.rig):
            assert cam_a.intrinsics == cam_b.intrinsics
        for (w0, h0), (w1, h1) in zip(frame.image_sizes, out.image_sizes):
            assert w1 == round(w0 * 0.5) and h1 == round(h0 * 0.5)


class TestDepthInvariant:
    def test_depth_division(self):
        box = Box3D(center=(10, 0, 1), size=(1, 1, 1), yaw=0.2)
        frame = make_frame(objects=(AnnotatedObject(box=box, depth=30.0),))
        out = apply_transform(frame, 2.0, ScaleMode.DEPTH_INVARIANT)
        assert out.objects[0].depth == 15.0
        assert np.array_equal(out.objects[0].box.center, box.center)
        assert out.objects[0].box.yaw == box.yaw

    def test_unit_scale_identity(self):
        frame = make_frame()
        out = apply_transform(frame, 1.0, ScaleMode.DEPTH_INVARIANT)
        assert out.image_sizes == frame.image_sizes
        for a, b in zip(frame.objects, out.objects):
            assert a.depth == b.depth
            assert np.array_equal(a.box.center, b.box.center)

    def test_round_trip_exact(self):
        frame = make_frame()
        r = 1.25
        mode = ScaleMode.DEPTH_INVARIANT
        back = apply_transform(apply_transform(frame, r, mode), 1.0 / r, mode)
        for a, b in zip(frame.objects, back.objects):
            assert abs(b.depth - a.depth) <= 1e-12 * abs(a.depth)
            assert np.array_equal(a.box.center, b.box.center)
            assert np.array_equal(a.box.size, b.box.size)
            assert a.box.yaw == b.box.yaw

    def test_composition_on_depths(self):
        frame = make_frame()
        r1, r2 = 0.8, 1.5
        mode = ScaleMode.DEPTH_INVARIANT
        composed = apply_transform(apply_transform(frame, r1, mode), r2, mode)
        direct = apply_transform(frame, r1 * r2, mode)
        for obj, expected in zip(composed.objects, direct.objects):
            assert obj.depth == pytest.approx(expected.depth, rel=1e-15)
        # Sizes round twice on the composed path; one pixel of slack.
        for (wc, hc), (wd, hd) in zip(composed.image_sizes, direct.image_sizes):
            assert abs(wc - wd) <= 1 and abs(hc - hd) <= 1

    def test_only_depth_changes(self):
        frame = make_frame()
        out = apply_transform(frame, 1.7, ScaleMode.DEPTH_INVARIANT)
        for a, b in zip(frame.objects, out.objects):
            assert np.array_equal(a.box.center, b.box.center)
            assert np.array_equal(a.box.size, b.box.size)
            assert np.array_equal(a.box.velocity, b.box.velocity)
            assert a.box.yaw == b.box.yaw
            assert a.box.class_id == b.box.class_id
            assert b.depth == a.depth / 1.7


class TestVanilla:
    def test_unit_scale_identity(self):
        frame = make_frame()
        out = apply_transform(frame, 1.0, ScaleMode.VANILLA)
        for a, b in zip(frame.rig, out.rig):
            assert a.intrinsics == b.intrinsics

    def test_focal_lengths_scale(self):
        frame = make_frame()
        out = apply_transform(frame, 2.0, ScaleMode.VANILLA)
        for a, b in zip(frame.rig, out.rig):
            assert b.intrinsics.fx == 2 * a.intrinsics.fx
            assert b.intrinsics.cx == 2 * a.intrinsics.cx
            assert b.intrinsics.width == round(2 * a.intrinsics.width)

    def test_boxes_bit_exact(self):
        frame = make_frame()
        out = apply_transform(frame, 1.3, ScaleMode.VANILLA)
        for a, b in zip(frame.objects, out.objects):
            assert np.array_equal(a.box.center, b.box.center)
            assert np.array_equal(a.box.size, b.box.size)
            assert a.box.yaw == b.box.yaw
            assert a.depth == b.depth

    def test_projection_scales_by_r(self):
        frame = make_frame()
        r = 1.5
        out = apply_transform(frame, r, ScaleMode.VANILLA)
        p = np.array([20.0, 1.0, 1.5])
        for cam_a, cam_b in zip(frame.rig, out.rig):
            (pa,), (da,) = project_points([p], cam_a)
            (pb,), (db,) = project_points([p], cam_b)
            if da > 0:
                assert np.all(np.abs(pb - r * pa) <= 1e-9 * np.maximum(1, np.abs(r * pa)))
                assert db == da


class TestDisentangled:
    def test_unit_scale_keeps_mask(self):
        out = apply_transform(make_frame(), 1.0, ScaleMode.DISENTANGLED)
        assert out.regression_mask is True

    def test_scaled_clears_mask(self):
        out = apply_transform(make_frame(), 1.2, ScaleMode.DISENTANGLED)
        assert out.regression_mask is False

    def test_boxes_unchanged(self):
        frame = make_frame()
        for r in (0.8, 1.0, 1.2):
            out = apply_transform(frame, r, ScaleMode.DISENTANGLED)
            for a, b in zip(frame.objects, out.objects):
                assert np.array_equal(a.box.center, b.box.center)
                assert a.depth == b.depth

    def test_mode_dispatch(self):
        frame = make_frame()
        assert apply_transform(frame, 1.2, ScaleMode.DISENTANGLED).regression_mask is False
        assert apply_transform(frame, 1.2, ScaleMode.VANILLA).regression_mask is True
        di = apply_transform(frame, 1.2, ScaleMode.DEPTH_INVARIANT)
        assert di.objects[0].depth == frame.objects[0].depth / 1.2

    def test_apply_transform_scales_depth_by_factor(self):
        frame = make_frame()
        out = apply_transform(frame, 2.0, ScaleMode.DEPTH_INVARIANT)
        assert out.objects[0].depth == frame.objects[0].depth / 2.0
        with pytest.raises(AugmentError):
            apply_transform(frame, 0.0, ScaleMode.DEPTH_INVARIANT)


class TestApplyTransform:
    # sha256 of the image-free bytes, computed while frames could still
    # carry image arrays.
    DIGESTS = {
        ScaleMode.VANILLA: "d2e1f04a3891b7a618f8b25de186825da48348fb43c56b82706b70b0a21b67f1",
        ScaleMode.DEPTH_INVARIANT: "f4870919f6e831a98ec8b276e18966a0ba089075fcd6efb045ccafcfe5875ca5",
        ScaleMode.DISENTANGLED: "119e22a51e2eaf31d5aa2fe4997acde3cc02758e764c571c32d4091b29ea00f1",
    }

    @pytest.mark.parametrize("mode", list(ScaleMode), ids=lambda m: m.value)
    def test_regression_hash(self, mode):
        frame = make_frame()
        h = hashlib.sha256()
        for r in (0.5, 0.7, 1.0, 1.25, 2.0):
            out = apply_transform(frame, r, mode)
            h.update(json.dumps(frame_to_dict(out), sort_keys=True).encode())
            h.update(repr(out.regression_mask).encode())
        assert h.hexdigest() == self.DIGESTS[mode]


class TestPixelDepthDecode:
    def test_identity_scaler_arithmetic(self):
        intr = CameraIntrinsics(fx=1000, fy=1000, cx=800, cy=450, width=1600, height=900)
        d = pixel_depth_decode(0.0141421356, DepthScaler(), intr)
        assert d == pytest.approx(10.0, rel=1e-8)

    def test_zero_maps_to_zero(self):
        intr = CameraIntrinsics(fx=500, fy=600, cx=1, cy=1, width=10, height=10)
        assert pixel_depth_decode(0.0, DepthScaler(sigma=3.0, mu=0.0), intr) == 0.0

    def test_scale_consistency_identity(self):
        # Core invariance: decoding z / r with intrinsics scaled by r equals
        # decoding z with the original intrinsics.
        rng = np.random.default_rng(5)
        scaler = DepthScaler()
        for _ in range(200):
            fx, fy = rng.uniform(200, 3000, 2)
            z = float(rng.uniform(0.01, 1.0))
            r = float(rng.uniform(0.25, 4.0))
            intr = CameraIntrinsics(fx=fx, fy=fy, cx=1, cy=1, width=10, height=10)
            scaled = CameraIntrinsics(fx=r * fx, fy=r * fy, cx=1, cy=1, width=10, height=10)
            base = pixel_depth_decode(z, scaler, intr)
            transformed = pixel_depth_decode(z / r, scaler, scaled)
            assert abs(transformed - base) <= 1e-12 * abs(base)

    def test_affine_scaler(self):
        intr = CameraIntrinsics(fx=1000, fy=1000, cx=1, cy=1, width=10, height=10)
        p = pixel_size(intr)
        d = pixel_depth_decode(2.0, DepthScaler(sigma=0.5, mu=0.25), intr)
        assert d == pytest.approx((0.5 * 2.0 + 0.25) / p, rel=1e-14)


class TestAnnotationJson:
    def test_round_trip(self, tmp_path):
        frames = [make_frame(), apply_transform(make_frame(), 1.4, ScaleMode.DISENTANGLED)]
        path = tmp_path / "ann.json"
        save_frames(path, frames)
        loaded = load_frames(path)
        assert len(loaded) == 2
        assert loaded[1].regression_mask is False
        for a, b in zip(frames[0].objects, loaded[0].objects):
            assert np.array_equal(a.box.center, b.box.center)
            assert a.depth == b.depth
            assert a.box.class_id == b.box.class_id

    def test_schema_fields(self):
        data = frame_to_dict(make_frame())
        obj = data["objects"][0]
        assert set(obj) == {"center", "size", "yaw", "velocity", "class", "attribute", "depth"}
        assert "calib" in data and "cameras" in data["calib"]

    @pytest.mark.parametrize(
        "field, value",
        [("depth", "5"), ("depth", True), ("depth", 10**400), ("yaw", "0.1"), ("center", ["1", "2", "3"])],
        ids=["depth-string", "depth-bool", "depth-huge", "yaw-string", "center-strings"],
    )
    def test_numbers_must_be_json_numbers(self, tmp_path, field, value):
        data = frame_to_dict(make_frame())
        data["objects"][0][field] = value
        path = tmp_path / "ann.json"
        path.write_text(json.dumps({"frames": [data]}))
        with pytest.raises(AugmentError, match="annotated object: missing or malformed field"):
            load_frames(path)

    def test_missing_calib(self):
        data = frame_to_dict(make_frame())
        del data["calib"]
        with pytest.raises(AugmentError, match="'calib'"):
            frame_from_dict(data)

    @pytest.mark.parametrize("sizes", [[], 0, "", False], ids=["empty-list", "zero", "empty-string", "false"])
    def test_empty_or_false_image_sizes_rejected(self, sizes):
        data = frame_to_dict(make_frame())
        data["image_sizes"] = sizes
        with pytest.raises(AugmentError, match="one entry per camera|missing or malformed field"):
            frame_from_dict(data)

    def test_null_or_missing_image_sizes_take_the_calibration(self):
        frame = make_frame()
        data = frame_to_dict(frame)
        data["image_sizes"] = None
        assert frame_from_dict(data).image_sizes == frame.image_sizes
        del data["image_sizes"]
        assert frame_from_dict(data).image_sizes == frame.image_sizes

    @pytest.mark.parametrize("size", [(10**300, 900), (1600, 2**16 + 1), (0, 900)], ids=["huge", "tall", "zero"])
    def test_image_size_out_of_range_rejected(self, size):
        rig = gen_rig("single")
        with pytest.raises(AugmentError, match="image size must be within"):
            AnnotatedFrame(rig=rig, objects=(), image_sizes=(size,))
