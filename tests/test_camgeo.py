import dataclasses
import json
import math

import numpy as np
import pytest

from mvdet import camgeo
from mvdet.augment import AnnotatedFrame, AnnotatedObject, AugmentError, load_frames, save_frames
from mvdet.camgeo import (
    Box3D,
    CameraExtrinsics,
    CameraIntrinsics,
    CameraModel,
    CameraRig,
    DetectionResult,
    GeometryError,
    RegionLabel,
    SceneBounds,
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
)
from mvdet.matching import MatchingError, load_predictions, save_predictions
from mvdet.synth import adjacent_seam_azimuths, gen_objects, gen_rig

from helpers import seen_by, visible_in


def reference_corners(box):
    """The 8 corners of one box, written out: binary sign order, then the
    yaw rotation."""
    signs = np.array([[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)], dtype=np.float64)
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    return box.center + (signs * (box.size / 2.0)) @ rot.T


def reference_region(box, rig):
    """One box's label from its centroid and written-out corners."""
    probes = np.vstack([box.center, reference_corners(box)])
    best = int(visible_counts(probes, rig).max())
    if best >= 2:
        return RegionLabel.OVERLAPPING
    return RegionLabel.NON_OVERLAPPING if best == 1 else RegionLabel.INVISIBLE


def border_boxes(rig, count, seed):
    """Seeded boxes centred just inside or outside an image border of a
    random camera, sized so their corners straddle that border."""
    rng = np.random.default_rng(seed)
    boxes = []
    for _ in range(count):
        cam = rig[int(rng.integers(len(rig)))]
        w, h = cam.intrinsics.width, cam.intrinsics.height
        edge = int(rng.integers(4))
        along = float(rng.uniform(0, w if edge < 2 else h))
        across = float(rng.uniform(-40, 40))
        pixel = {0: (along, across), 1: (along, h + across), 2: (across, along), 3: (w + across, along)}[edge]
        center = back_project(pixel, float(rng.uniform(2.0, 60.0)), cam)
        boxes.append(Box3D(center=center, size=rng.uniform(0.3, 5.0, 3), yaw=float(rng.uniform(-4.0, 4.0))))
    return boxes


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


def broadcast_projection(points, cam):
    """One camera's (pixels, depths), written out as the (N, 3) broadcast
    transform the package used before the per-axis core; NaN pixels where
    depth <= 0."""
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    rot = cam.extrinsics.rotation
    cam_pts = pts[:, 0, None] * rot[:, 0] + pts[:, 1, None] * rot[:, 1] + pts[:, 2, None] * rot[:, 2]
    cam_pts = cam_pts + cam.extrinsics.translation
    depths = cam_pts[:, 2]
    intr = cam.intrinsics
    with np.errstate(divide="ignore", invalid="ignore"):
        u = intr.fx * cam_pts[:, 0] / depths + intr.cx
        v = intr.fy * cam_pts[:, 1] / depths + intr.cy
    pixels = np.stack([u, v], axis=-1)
    pixels[depths <= 0] = np.nan
    return pixels, depths


def broadcast_visible(points, cam):
    """One camera's visibility from ``broadcast_projection``, written out."""
    pixels, depths = broadcast_projection(points, cam)
    intr = cam.intrinsics
    with np.errstate(invalid="ignore"):
        inside = (pixels[:, 0] >= 0) & (pixels[:, 0] < intr.width) & (pixels[:, 1] >= 0) & (pixels[:, 1] < intr.height)
    return (depths > 0) & inside


def camera_centres(rig):
    """Each camera's optical centre in the ego frame; on the nuscenes-like
    rig at least one camera's own depth there is exactly 0."""
    return np.array([-cam.extrinsics.rotation.T @ cam.extrinsics.translation for cam in rig])


def tilted_rig(rig, seed):
    """``rig`` with every camera turned by a seeded general rotation, so no
    rotation entry is 0 or 1 and each sum's rounding depends on its order."""
    rng = np.random.default_rng(seed)
    cameras = []
    for cam in rig:
        q, r = np.linalg.qr(rng.normal(size=(3, 3)))
        q = q * np.sign(np.diag(r))
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        extr = CameraExtrinsics(rotation=q @ cam.extrinsics.rotation, translation=cam.extrinsics.translation)
        cameras.append(CameraModel(intrinsics=cam.intrinsics, extrinsics=extr, id=cam.id))
    return CameraRig(cameras=tuple(cameras))


class TestProjectionCore:
    @pytest.mark.parametrize("tilted", [False, True], ids=["nuscenes-like", "tilted"])
    @pytest.mark.parametrize("n", [1, 4, 14400])
    def test_bit_equals_broadcast_reference(self, rig6, n, tilted):
        rig = tilted_rig(rig6, n) if tilted else rig6
        rng = np.random.default_rng(n)
        pts = rng.uniform((-60, -60, -2), (60, 60, 4), size=(n, 3))
        pts[: min(n, 3)] = camera_centres(rig)[1:4][: min(n, 3)]
        u, v, depths = camgeo._project(pts, rig.cameras)
        ref = [broadcast_projection(pts, cam) for cam in rig]
        ref_depths = np.array([d for _, d in ref])
        # The tilted rig's centres round to depths near, not at, 0.
        assert tilted or np.any(ref_depths == 0.0)
        assert np.any(ref_depths < 0) and (n == 1 or np.any(ref_depths > 0))
        for i, cam in enumerate(rig):
            ref_pixels, ref_depth = ref[i]
            pixels, depth = project_points(pts, cam)
            assert pixels.tobytes() == ref_pixels.tobytes()
            assert depth.tobytes() == ref_depth.tobytes() == depths[i].tobytes()
            front = ref_depth > 0
            assert u[i][front].tobytes() == ref_pixels[front, 0].tobytes()
            assert v[i][front].tobytes() == ref_pixels[front, 1].tobytes()
            # A one-camera call gives the rig-wide call's row bit for bit.
            one = camgeo._project(pts, (cam,))
            assert all(a[0].tobytes() == b[i].tobytes() for a, b in zip(one, (u, v, depths)))

    def test_visible_counts_sum_masks_on_mixed_image_sizes(self, rig6):
        # Each camera keeps its extrinsics but gets its own image size, so
        # the bounds differ per camera; points sit on and around every
        # camera's image borders, behind it and at its centre.
        rig = CameraRig(
            cameras=tuple(
                CameraModel(intrinsics=cam.intrinsics.scaled(r), extrinsics=cam.extrinsics, id=cam.id)
                for cam, r in zip(rig6, (1.0, 0.5, 0.75, 1.25, 0.3, 2.0))
            )
        )
        assert len({(cam.intrinsics.width, cam.intrinsics.height) for cam in rig}) == len(rig)
        rng = np.random.default_rng(21)
        pts = [rng.uniform((-60, -60, -2), (60, 60, 4), size=(2000, 3)), camera_centres(rig)]
        for cam in rig:
            w, h = cam.intrinsics.width, cam.intrinsics.height
            for pixel in [(0.0, h / 2), (w, h / 2), (w / 2, 0.0), (w / 2, h), (-0.5, 1.0), (w - 1e-9, h - 1e-9)]:
                pts.append(back_project(pixel, float(rng.uniform(1.0, 50.0)), cam)[None])
        pts = np.concatenate(pts)
        masks = np.array([visible_in(pts, cam) for cam in rig])
        assert np.array_equal(masks, np.array([broadcast_visible(pts, cam) for cam in rig]))
        counts = visible_counts(pts, rig)
        assert counts.dtype == np.int64
        assert np.array_equal(counts, masks.sum(axis=0))
        assert set(counts.tolist()) >= {0, 1, 2}


class TestVisibility:
    def test_on_axis_visible(self, ident_rig):
        assert visible_counts([(0, 0, 10)], ident_rig).tolist() == [1]

    def test_behind_invisible(self, ident_rig):
        assert visible_counts([(0, 0, -5)], ident_rig).tolist() == [0]

    def test_out_of_bounds_invisible(self, ident_rig):
        # u = 1000*8.05/10 + 800 = 1605 = width + 5
        assert visible_counts([(8.05, 0, 10)], ident_rig).tolist() == [0]

    def test_half_open_bounds(self, ident_cam, ident_rig):
        # u exactly at width is out; u = 0 is in.
        edges = [back_project((1600.0, 450.0), 10.0, ident_cam), back_project((0.0, 450.0), 10.0, ident_cam)]
        assert visible_counts(edges, ident_rig).tolist() == [0, 1]

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
    def test_bit_equals_written_out_reference(self):
        boxes = gen_objects(4, 300) + border_boxes(gen_rig("nuscenes-like"), 100, 5)
        for box in boxes:
            assert box_corners(box).tobytes() == reference_corners(box).tobytes()

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

    def test_labels_equal_per_box_reference(self, rig6):
        boxes = gen_objects(23, 1200) + border_boxes(rig6, 1200, 24)
        labels = classify_regions(boxes, rig6)
        assert labels == [reference_region(b, rig6) for b in boxes]
        # The border boxes cover every label.
        assert set(labels[1200:]) == set(RegionLabel)

    def test_no_per_box_corner_calls(self, rig6, monkeypatch):
        calls = []

        def counting(box):
            calls.append(box)
            return box_corners(box)

        monkeypatch.setattr(camgeo, "box_corners", counting)
        classify_regions(gen_objects(25, 50), rig6)
        assert calls == []

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


# Invalid values the module's own checks refuse; a None dimension of
# ``_as_array`` takes any length but keeps the others and the rank exact.
_INVALID_VALUES = {
    "box-center-nan": lambda: Box3D(center=(math.nan, 0, 0), size=(1, 1, 1), yaw=0.0),
    "box-velocity-inf": lambda: Box3D(center=(0, 0, 0), size=(1, 1, 1), yaw=0.0, velocity=(0, math.inf)),
    "bounds-no-extent": lambda: SceneBounds(lo=(0, 0, 0), hi=(1, 0, 1)),
    "array-wildcard-other-dim": lambda: camgeo._as_array(np.zeros((2, 3)), (None, 4), "x", GeometryError),
    "array-wildcard-rank": lambda: camgeo._as_array(np.zeros(3), (None, None), "x", GeometryError),
    "box-class-fraction": lambda: Box3D(center=(0, 0, 0), size=(1, 1, 1), yaw=0.0, class_id=2.7),
    "box-attribute-bool": lambda: Box3D(center=(0, 0, 0), size=(1, 1, 1), yaw=0.0, attribute_id=True),
    "intrinsics-width-fraction": lambda: CameraIntrinsics(fx=1, fy=1, cx=0, cy=0, width=10.5, height=4),
    "intrinsics-height-fraction": lambda: CameraIntrinsics(fx=1, fy=1, cx=0, cy=0, width=10, height=4.2),
    "intrinsics-width-huge": lambda: CameraIntrinsics(fx=1, fy=1, cx=0, cy=0, width=10**5000, height=4),
}


class TestValidation:
    def test_negative_focal_rejected(self):
        with pytest.raises(GeometryError):
            CameraIntrinsics(fx=-1, fy=1, cx=0, cy=0, width=4, height=4)

    @pytest.mark.parametrize("fx, fy", [(math.inf, 1.0), (1.0, math.inf), (-math.inf, 1.0), (math.nan, 1.0)])
    def test_non_finite_focal_rejected(self, fx, fy):
        with pytest.raises(GeometryError, match="focal lengths must be finite and positive"):
            CameraIntrinsics(fx=fx, fy=fy, cx=0, cy=0, width=4, height=4)

    def test_principal_point_bounds(self):
        with pytest.raises(GeometryError):
            CameraIntrinsics(fx=1, fy=1, cx=4, cy=0, width=4, height=4)

    @pytest.mark.parametrize(
        "width, height, message",
        [
            (2**16 + 1, 4, "width must be at most 65536, got 65537"),
            (4, 2**16 + 1, "height must be at most 65536, got 65537"),
            (10**300, 4, "width must be at most 65536, got 1000"),
            (0, 4, "width must be at least 1, got 0"),
        ],
        ids=["wide", "tall", "huge", "zero"],
    )
    def test_image_side_out_of_range_rejected(self, width, height, message):
        with pytest.raises(GeometryError, match=message):
            CameraIntrinsics(fx=1, fy=1, cx=0, cy=0, width=width, height=height)

    def test_largest_image_side_accepted_and_scaling_past_it_rejected(self):
        intr = CameraIntrinsics(fx=1, fy=1, cx=0, cy=0, width=2**16, height=2**16)
        assert intr.scaled(0.5).width == 2**15
        with pytest.raises(GeometryError, match="exceed 65536 pixels"):
            intr.scaled(1.0001)

    def test_scaling_below_one_pixel_rejected(self):
        intr = CameraIntrinsics(fx=1000, fy=1000, cx=800, cy=450, width=1600, height=900)
        with pytest.raises(GeometryError, match="below one pixel"):
            intr.scaled(1e-4)

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

    def test_score_stored_as_float(self):
        box = Box3D(center=(0, 0, 0), size=(1, 1, 1), yaw=0.0)
        result = DetectionResult(box, 2**53 + 1)
        assert type(result.score) is float and result.score == 2.0**53
        assert type(DetectionResult(box, np.float32(0.5)).score) is float
        for score in (math.nan, math.inf):
            with pytest.raises(GeometryError, match="score must be finite"):
                DetectionResult(box, score)
        with pytest.raises(TypeError):
            DetectionResult(box, "0.5")

    def test_duplicate_camera_ids_rejected(self, ident_cam):
        with pytest.raises(GeometryError):
            CameraRig(cameras=(ident_cam, ident_cam))

    @pytest.mark.parametrize("case", sorted(_INVALID_VALUES))
    def test_invalid_value_raises_geometry_error(self, case):
        with pytest.raises(GeometryError):
            _INVALID_VALUES[case]()

    def test_integral_fields_are_stored_as_ints(self):
        box = Box3D(center=(0, 0, 0), size=(1, 1, 1), yaw=0.0, class_id=np.int64(3), attribute_id=2.0)
        intr = CameraIntrinsics(fx=1, fy=1, cx=0, cy=0, width=np.uint16(10), height=4.0)
        stored = (box.class_id, box.attribute_id, intr.width, intr.height)
        assert stored == (3, 2, 10, 4) and all(type(v) is int for v in stored)

    def test_stored_array_is_a_read_only_float64_copy(self):
        given = np.zeros((2, 3), dtype=np.float32)
        stored = camgeo._as_array(given, (None, 3), "x", GeometryError)
        assert stored.shape == (2, 3) and stored.dtype == np.float64 and not stored.flags.writeable
        given[0, 0] = 1.0
        assert stored[0, 0] == 0.0


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

    @pytest.mark.parametrize(
        "field, value",
        [("fx", "1142.5"), ("cy", True), ("fx", 10**400), ("translation", [True, "0", 0]),
         ("rotation", [["1", 0, 0], [0, 1, 0], [0, 0, 1]])],
        ids=["fx-string", "cy-bool", "fx-huge", "translation-bool-string", "rotation-string"],
    )
    def test_numbers_must_be_json_numbers(self, tmp_path, field, value):
        data = rig_to_dict(gen_rig("single"))
        data["cameras"][0][field] = value
        path = tmp_path / "calib.json"
        path.write_text(json.dumps(data))
        with pytest.raises(GeometryError, match="calibration camera: missing or malformed field"):
            load_rig(path)


# Each file of box records: its writer, its reader, the records of its
# parsed JSON, and its loader's error.
_BOX_FILES = {
    "predictions": (
        lambda path, boxes: save_predictions(path, [DetectionResult(box, 0.5) for box in boxes]),
        lambda path: [p.box for p in load_predictions(path)],
        lambda data: data["predictions"],
        MatchingError,
    ),
    "frames": (
        lambda path, boxes: save_frames(path, [
            AnnotatedFrame(rig=gen_rig("single"), objects=tuple(AnnotatedObject(box=b, depth=1.0) for b in boxes))
        ]),
        lambda path: [o.box for o in load_frames(path)[0].objects],
        lambda data: data["frames"][0]["objects"],
        AugmentError,
    ),
}


@pytest.mark.parametrize("file", sorted(_BOX_FILES))
class TestBoxRecords:
    def _saved(self, tmp_path, file, boxes):
        path = tmp_path / "boxes.json"
        _BOX_FILES[file][0](path, boxes)
        return path

    def _edited(self, path, file, drop):
        data = json.loads(path.read_text())
        for key in drop:
            del _BOX_FILES[file][2](data)[0][key]
        path.write_text(json.dumps(data))
        return path

    def test_every_field_round_trips(self, tmp_path, file):
        boxes = [
            Box3D(center=(1.5, -2.1, 0.3), size=(2.2, 4.7, 1.9), yaw=math.pi, velocity=(0.1, -3.7),
                  class_id=10**30, attribute_id=7),
            Box3D(center=(0, 0, 0), size=(1, 1, 1), yaw=-0.3),
        ]
        loaded = _BOX_FILES[file][1](self._saved(tmp_path, file, boxes))
        assert len(loaded) == len(boxes)
        for given, back in zip(boxes, loaded):
            for f in dataclasses.fields(Box3D):
                assert np.array_equal(getattr(back, f.name), getattr(given, f.name)), f.name
        assert loaded[0].yaw == math.pi and loaded[0].class_id == 10**30 and type(loaded[0].class_id) is int

    def test_missing_velocity_class_and_attribute_read_zeros(self, tmp_path, file):
        box = Box3D(center=(1, 2, 0), size=(1, 2, 3), yaw=0.5, velocity=(1, 2), class_id=4, attribute_id=5)
        path = self._edited(self._saved(tmp_path, file, [box]), file, ("velocity", "class", "attribute"))
        (back,) = _BOX_FILES[file][1](path)
        assert np.array_equal(back.velocity, np.zeros(2)) and (back.class_id, back.attribute_id) == (0, 0)
        assert np.array_equal(back.center, box.center) and back.yaw == box.yaw

    @pytest.mark.parametrize("key", ["center", "size", "yaw"])
    def test_missing_required_field_fails(self, tmp_path, file, key):
        box = Box3D(center=(1, 2, 0), size=(1, 2, 3), yaw=0.5)
        path = self._edited(self._saved(tmp_path, file, [box]), file, (key,))
        with pytest.raises(_BOX_FILES[file][3], match=f"missing or malformed field.*{key}"):
            _BOX_FILES[file][1](path)
