import math

import numpy as np
import pytest

from mvdet.camgeo import (
    Box3D,
    CameraExtrinsics,
    CameraIntrinsics,
    CameraModel,
    CameraRig,
    GeometryError,
    RegionLabel,
    back_project,
    box_corners,
    classify_regions,
    load_rig,
    pixel_size,
    project_points,
    rig_from_dict,
    rig_to_dict,
    save_rig,
    visible_counts,
    visible_mask,
)
from mvdet.synth import adjacent_seam_azimuths, gen_objects

from helpers import seen_by


def seam_probe(rig, az_deg, dist=30.0, z=1.5):
    rad = math.radians(az_deg)
    return np.array([dist * math.cos(rad), dist * math.sin(rad), z])


class TestProjection:
    def test_optical_axis_point(self, ident_cam):
        pixels, depths = project_points([(0, 0, 10)], ident_cam)
        assert np.allclose(pixels[0], (800, 450))
        assert depths[0] == 10.0

    def test_pinhole_arithmetic(self, ident_cam):
        pixels, depths = project_points([(1, 0, 10)], ident_cam)
        assert np.allclose(pixels[0], (900, 450))
        assert depths[0] == 10.0

    def test_behind_camera_sign(self, ident_cam):
        pixels, depths = project_points([(0, 0, -5)], ident_cam)
        assert depths[0] == -5.0
        assert np.all(np.isnan(pixels[0]))

    def test_intrinsic_scaling_invariant(self, ident_cam):
        rng = np.random.default_rng(3)
        for _ in range(50):
            p = rng.uniform((-5, -5, 1), (5, 5, 40))
            r = float(rng.uniform(0.25, 4.0))
            scaled = CameraModel(
                intrinsics=CameraIntrinsics(
                    fx=1000 * r, fy=1000 * r, cx=800 * r, cy=450 * r,
                    width=max(1, round(1600 * r)), height=max(1, round(900 * r)),
                ),
                extrinsics=ident_cam.extrinsics,
                id="scaled",
            )
            base = project_points([p], ident_cam)[0][0]
            up = project_points([p], scaled)[0][0]
            assert np.all(np.abs(up - r * base) <= 1e-9 * np.maximum(1.0, np.abs(r * base)))

    def test_back_projection_round_trip(self, ident_cam, rig6):
        rng = np.random.default_rng(11)
        cams = [ident_cam] + list(rig6)
        for cam in cams:
            for _ in range(20):
                pixel = rng.uniform((0, 0), (cam.intrinsics.width - 1, cam.intrinsics.height - 1))
                depth = float(rng.uniform(0.5, 60.0))
                p = back_project(pixel, depth, cam)
                (round_trip,), (rt_depth,) = project_points([p], cam)
                assert np.all(np.abs(round_trip - pixel) <= 1e-9 * np.maximum(1.0, np.abs(pixel)))
                assert abs(rt_depth - depth) <= 1e-9 * depth

    def test_back_project_rejects_nonpositive_depth(self, ident_cam):
        with pytest.raises(GeometryError):
            back_project((800, 450), 0.0, ident_cam)

    def test_project_points_batch_matches_scalar(self, rig6):
        rng = np.random.default_rng(4)
        pts = rng.uniform((-30, -30, 0), (30, 30, 3), size=(64, 3))
        for cam in rig6:
            pixels, depths = project_points(pts, cam)
            for i in range(len(pts)):
                pixel_i, depth_i = project_points(pts[i : i + 1], cam)
                assert depth_i[0] == depths[i]
                if depth_i[0] > 0:
                    assert np.array_equal(pixel_i[0], pixels[i])


class TestVisibility:
    def test_on_axis_visible(self, ident_cam):
        assert visible_mask([(0, 0, 10)], ident_cam)[0]

    def test_behind_invisible(self, ident_cam):
        assert not visible_mask([(0, 0, -5)], ident_cam)[0]

    def test_out_of_bounds_invisible(self, ident_cam):
        # u = 1000*8.05/10 + 800 = 1605 = width + 5
        assert not visible_mask([(8.05, 0, 10)], ident_cam)[0]

    def test_half_open_bounds(self, ident_cam):
        # u exactly at width is out; u = 0 is in.
        assert not visible_mask([back_project((1600.0, 450.0), 10.0, ident_cam)], ident_cam)[0]
        assert visible_mask([back_project((0.0, 450.0), 10.0, ident_cam)], ident_cam)[0]

    def test_seam_point_seen_by_both_adjacent_cameras(self, rig6):
        # Oracle: exhaustive per-camera projection.
        for i, j, az in adjacent_seam_azimuths():
            p = seam_probe(rig6, az)
            expected = seen_by(p, rig6)
            assert visible_counts([p], rig6)[0] == len(expected) and expected == {i, j}

    def test_exclusive_frustum_singleton(self, rig6):
        p = np.array([20.0, 0.0, 1.5])
        expected = seen_by(p, rig6)
        assert visible_counts([p], rig6)[0] == len(expected) and expected == {0}

    def test_rig_origin_invisible(self, rig6):
        assert seen_by(np.zeros(3), rig6) == set()
        assert visible_counts([np.zeros(3)], rig6)[0] == 0


class TestBoxCorners:
    def test_unit_cube(self):
        corners = box_corners(Box3D(center=(0, 0, 0), size=(1, 1, 1), yaw=0.0))
        expected = {tuple(s) for s in np.array(np.meshgrid([-0.5, 0.5], [-0.5, 0.5], [-0.5, 0.5])).T.reshape(-1, 3)}
        assert {tuple(np.round(c, 12)) for c in corners} == expected

    def test_quarter_turn_symmetry(self):
        base = box_corners(Box3D(center=(0, 0, 0), size=(1, 1, 1), yaw=0.0))
        turned = box_corners(Box3D(center=(0, 0, 0), size=(1, 1, 1), yaw=math.pi / 2))
        assert {tuple(np.round(c, 12)) for c in base} == {tuple(np.round(c, 12)) for c in turned}

    def test_rotated_extents(self):
        # Oracle: rotate the axis-aligned corner set independently.
        box = Box3D(center=(0, 0, 0), size=(2, 4, 1), yaw=math.pi / 2)
        signs = np.array(np.meshgrid([-1, 1], [-1, 1], [-1, 1])).T.reshape(-1, 3)
        aligned = signs * np.array([1.0, 2.0, 0.5])
        rot = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        expected = aligned @ rot.T
        corners = box_corners(box)
        assert np.allclose(sorted(map(tuple, corners)), sorted(map(tuple, expected)), atol=1e-12)
        assert np.allclose(np.abs(corners[:, 0]).max(), 2.0)
        assert np.allclose(np.abs(corners[:, 1]).max(), 1.0)

    def test_centroid_and_opposite_corners(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            box = Box3D(
                center=rng.uniform(-10, 10, 3),
                size=rng.uniform(0.5, 5.0, 3),
                yaw=float(rng.uniform(-math.pi, math.pi)),
            )
            corners = box_corners(box)
            assert np.all(np.abs(corners.mean(axis=0) - box.center) <= 1e-12)
            for i in range(4):
                mid = (corners[i] + corners[7 - i]) / 2.0
                assert np.all(np.abs(mid - box.center) <= 1e-12)


class TestRegionClassification:
    def test_seam_centroid_overlapping(self, rig6):
        _, _, az = adjacent_seam_azimuths()[2]
        box = Box3D(center=seam_probe(rig6, az), size=(1, 1, 1), yaw=0.0)
        assert classify_regions([box], rig6) == [RegionLabel.OVERLAPPING]

    def test_exclusive_box_non_overlapping(self, rig6):
        box = Box3D(center=(20.0, 0.0, 1.5), size=(0.5, 0.5, 0.5), yaw=0.0)
        assert classify_regions([box], rig6) == [RegionLabel.NON_OVERLAPPING]

    def test_box_outside_every_frustum_invisible(self, rig6):
        # Directly above the rig: outside the vertical FOV of every camera.
        box = Box3D(center=(0.0, 0.0, 50.0), size=(1, 1, 1), yaw=0.0)
        assert all(len(seen_by(c, rig6)) == 0 for c in box_corners(box))
        assert classify_regions([box], rig6) == [RegionLabel.INVISIBLE]

    def test_box_behind_single_camera_invisible(self, ident_rig):
        box = Box3D(center=(0.0, 0.0, -25.0), size=(1, 1, 1), yaw=0.0)
        assert classify_regions([box], ident_rig) == [RegionLabel.INVISIBLE]

    def test_partition_and_permutation_invariance(self, rig6):
        boxes = gen_objects(17, 200)
        labels = classify_regions(boxes, rig6)
        assert len(labels) == len(boxes)
        permuted = CameraRig(cameras=tuple(rig6.cameras[::-1]))
        assert classify_regions(boxes, permuted) == labels

    def test_corner_only_overlap_counts(self, rig6):
        # A box whose centroid sits in one camera but whose extent crosses a
        # seam: some corner lands in two cameras.
        _, _, az = adjacent_seam_azimuths()[2]
        center = seam_probe(rig6, az + 4.0)
        box = Box3D(center=center, size=(8.0, 8.0, 1.0), yaw=0.0)
        corner_counts = [len(seen_by(c, rig6)) for c in box_corners(box)]
        assert max(corner_counts) >= 2  # geometry sanity for this probe
        assert classify_regions([box], rig6) == [RegionLabel.OVERLAPPING]


class TestPixelSize:
    def test_basic_value(self):
        intr = CameraIntrinsics(fx=1000, fy=1000, cx=800, cy=450, width=1600, height=900)
        assert abs(pixel_size(intr) - math.sqrt(2) / 1000) < 1e-15

    def test_scaling_halves(self):
        a = CameraIntrinsics(fx=1000, fy=1000, cx=800, cy=450, width=1600, height=900)
        b = CameraIntrinsics(fx=2000, fy=2000, cx=800, cy=450, width=1600, height=900)
        assert abs(pixel_size(b) - pixel_size(a) / 2) <= 1e-12 * pixel_size(a)

    def test_one_sided_limit(self):
        intr = CameraIntrinsics(fx=1.0, fy=1e12, cx=0.0, cy=0.0, width=10, height=10)
        assert abs(pixel_size(intr) - 1.0) < 1e-12

    def test_scale_invariance_property(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            fx, fy = rng.uniform(100, 4000, 2)
            r = float(rng.uniform(0.1, 10))
            a = CameraIntrinsics(fx=fx, fy=fy, cx=1.0, cy=1.0, width=10, height=10)
            b = CameraIntrinsics(fx=r * fx, fy=r * fy, cx=1.0, cy=1.0, width=10, height=10)
            assert abs(pixel_size(b) - pixel_size(a) / r) <= 1e-12 * pixel_size(a) / r


class TestValidation:
    def test_negative_focal_rejected(self):
        with pytest.raises(GeometryError):
            CameraIntrinsics(fx=-1, fy=1, cx=0, cy=0, width=4, height=4)

    def test_principal_point_bounds(self):
        with pytest.raises(GeometryError):
            CameraIntrinsics(fx=1, fy=1, cx=4, cy=0, width=4, height=4)

    def test_non_orthonormal_rotation_rejected(self):
        with pytest.raises(GeometryError):
            CameraExtrinsics(rotation=np.eye(3) * 2.0, translation=np.zeros(3))

    def test_reflection_rejected(self):
        rot = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(GeometryError):
            CameraExtrinsics(rotation=rot, translation=np.zeros(3))

    def test_box_size_positive(self):
        with pytest.raises(GeometryError):
            Box3D(center=(0, 0, 0), size=(0, 1, 1), yaw=0.0)

    @pytest.mark.parametrize("yaw", [math.nan, math.inf, -math.inf])
    def test_non_finite_yaw_rejected(self, yaw):
        with pytest.raises(GeometryError, match="yaw"):
            Box3D(center=(0, 0, 0), size=(1, 1, 1), yaw=yaw)

    @pytest.mark.parametrize("r", [math.inf, 1e308])
    def test_scaled_to_non_finite_size_rejected(self, r):
        intr = CameraIntrinsics(fx=1000, fy=1000, cx=800, cy=450, width=1600, height=900)
        with pytest.raises(GeometryError):
            intr.scaled(r)

    def test_yaw_normalized(self):
        assert Box3D(center=(0, 0, 0), size=(1, 1, 1), yaw=3 * math.pi).yaw == pytest.approx(math.pi)
        assert Box3D(center=(0, 0, 0), size=(1, 1, 1), yaw=-math.pi).yaw == pytest.approx(math.pi)

    def test_duplicate_camera_ids_rejected(self, ident_cam):
        with pytest.raises(GeometryError):
            CameraRig(cameras=(ident_cam, ident_cam))


class TestCalibrationJson:
    def test_round_trip(self, rig6, tmp_path):
        path = tmp_path / "calib.json"
        save_rig(path, rig6)
        loaded = load_rig(path)
        assert len(loaded) == len(rig6)
        for a, b in zip(rig6, loaded):
            assert a.id == b.id
            assert np.array_equal(a.extrinsics.rotation, b.extrinsics.rotation)
            assert np.array_equal(a.extrinsics.translation, b.extrinsics.translation)
            assert a.intrinsics == b.intrinsics

    def test_schema_fields(self, rig6):
        data = rig_to_dict(rig6)
        cam = data["cameras"][0]
        assert set(cam) == {"id", "fx", "fy", "cx", "cy", "width", "height", "rotation", "translation"}
        assert len(cam["rotation"]) == 9
        assert len(cam["translation"]) == 3

    def test_missing_cameras_key(self):
        with pytest.raises(GeometryError):
            rig_from_dict({})
