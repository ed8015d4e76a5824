import json
import math
import os
import re
import struct
import threading
from types import SimpleNamespace

import numpy as np
import pytest

from mvdet.camgeo import CameraExtrinsics, CameraIntrinsics, CameraModel, CameraRig, project_points
from mvdet import featcore
from mvdet.featcore import (
    FeatureError,
    FeatureLevel,
    FeaturePyramid,
    TensorFormatError,
    bilinear_grad,
    bilinear_sample_many,
    load_pyramid,
    read_tensor,
    sample_multiview_many,
    save_pyramid,
    write_tensor,
)
from mvdet.synth import DEFAULT_BOUNDS, AnalyticField, gen_rig, render_pyramid

from helpers import constant_pyramid, make_ident_cam


def level_2x2():
    return FeatureLevel(data=np.array([[[0.0, 1.0], [2.0, 3.0]]]), stride=1)


def exact_camera():
    """fx = 64 and depth 2 make the projection exact: the point
    ((u - 48) / 32, (v - 32) / 32, 2) lands on pixel (u, v) for dyadic u, v."""
    return CameraModel(
        intrinsics=CameraIntrinsics(fx=64.0, fy=64.0, cx=48.0, cy=32.0, width=96, height=64),
        extrinsics=CameraExtrinsics(rotation=np.eye(3), translation=np.zeros(3)),
        id="c0",
    )


def central_difference(level, pos, h):
    """(C, 2) central differences of the sampled feature along u and v."""
    steps = np.array([[h, 0.0], [0.0, h]])
    plus, _ = bilinear_sample_many(level, pos + steps)
    minus, _ = bilinear_sample_many(level, pos - steps)
    return ((plus - minus) / (2 * h)).T


class TestBilinearSample:
    def test_center_of_four_cells(self):
        feats, inside = bilinear_sample_many(level_2x2(), [(0.5, 0.5)])
        assert inside[0]
        assert feats[0, 0] == pytest.approx(1.5)

    def test_grid_point_identity(self):
        feats, inside = bilinear_sample_many(level_2x2(), [(0, 0), (1, 0), (0, 1), (1, 1)])
        assert inside.all()
        assert np.array_equal(feats[:, 0], [0.0, 1.0, 2.0, 3.0])

    def test_constant_field(self):
        level = FeatureLevel(data=np.full((3, 5, 7), 2.25), stride=1)
        rng = np.random.default_rng(0)
        feats, inside = bilinear_sample_many(level, rng.uniform((0, 0), (6, 4), size=(20, 2)))
        assert inside.all()
        assert np.all(feats == 2.25)

    def test_outside_is_zero_and_flagged(self):
        pos = [(-0.01, 0.5), (1.01, 0.5), (0.5, -2), (0.5, 1.5), (np.nan, 0.5)]
        feats, inside = bilinear_sample_many(level_2x2(), pos)
        assert not inside.any()
        assert np.all(feats == 0.0)

    def test_exact_on_bilinear_field_f32(self):
        # Random bilinear field; f32 storage bounds the error at ~1e-6 relative.
        rng = np.random.default_rng(1)
        a, b, c, d = rng.uniform(-1, 1, 4)
        h, w = 17, 23
        uu, vv = np.meshgrid(np.arange(w, dtype=float), np.arange(h, dtype=float))
        level = FeatureLevel(data=(a + b * uu + c * vv + d * uu * vv)[None], stride=1)
        pos = rng.uniform((0, 0), (w - 1, h - 1), size=(500, 2))
        feats, inside = bilinear_sample_many(level, pos)
        assert inside.all()
        expected = a + b * pos[:, 0] + c * pos[:, 1] + d * pos[:, 0] * pos[:, 1]
        rel = np.abs(feats[:, 0] - expected) / np.maximum(1.0, np.abs(expected))
        assert rel.max() <= 1e-6

    def test_exact_on_dyadic_bilinear_field_f64_accumulation(self):
        # Dyadic coefficients are exactly representable in f32, so the only
        # error left is the 64-bit interpolation arithmetic.
        a, b, c, d = 0.5, 0.25, -0.125, 0.0625
        h, w = 9, 11
        uu, vv = np.meshgrid(np.arange(w, dtype=float), np.arange(h, dtype=float))
        level = FeatureLevel(data=(a + b * uu + c * vv + d * uu * vv)[None], stride=1)
        rng = np.random.default_rng(2)
        pos = rng.uniform((0, 0), (w - 1, h - 1), size=(300, 2))
        feats, _ = bilinear_sample_many(level, pos)
        expected = a + b * pos[:, 0] + c * pos[:, 1] + d * pos[:, 0] * pos[:, 1]
        assert np.abs(feats[:, 0] - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_sample_within_support_range(self):
        rng = np.random.default_rng(3)
        data = rng.uniform(-5, 5, size=(2, 6, 8))
        level = FeatureLevel(data=data, stride=1)
        positions = rng.uniform((0, 0), (7, 5), size=(100, 2))
        feats, _ = bilinear_sample_many(level, positions)
        for pos, feat in zip(positions, feats):
            x0, y0 = int(pos[0]), int(pos[1])
            x1, y1 = min(x0 + 1, 7), min(y0 + 1, 5)
            support = level.data[:, [y0, y0, y1, y1], [x0, x1, x0, x1]].astype(np.float64)
            assert np.all(feat >= support.min(axis=1) - 1e-12)
            assert np.all(feat <= support.max(axis=1) + 1e-12)


def grad_at(level, pos):
    """bilinear_grad of one inside position: its (C, 2) gradient."""
    rows, grads = bilinear_grad(level, np.array([pos]))
    assert rows.tolist() == [0]
    return grads[0]


class TestBilinearGrad:
    def test_constant_zero_gradient(self):
        level = FeatureLevel(data=np.full((2, 4, 4), 3.0), stride=1)
        grad = grad_at(level, (1.5, 2.5))
        assert grad.shape == (2, 2)
        assert np.all(grad == 0.0)

    def test_linear_ramp_slope(self):
        s = 0.75
        data = (s * np.arange(6, dtype=float))[None, None, :].repeat(5, axis=1)
        level = FeatureLevel(data=data, stride=1)
        grad = grad_at(level, (2.25, 3.5))
        assert grad[0, 0] == pytest.approx(s, abs=1e-12)
        assert grad[0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_2x2_gradient_matches_central_difference(self):
        # Oracle: central finite differences with h = 1e-5.
        level = level_2x2()
        h = 1e-5
        pos = np.array([0.5, 0.5])
        fd = central_difference(level, pos, h)
        grad = grad_at(level, pos)
        assert grad[0, 0] == pytest.approx(fd[0, 0], abs=1e-9)
        assert grad[0, 1] == pytest.approx(fd[0, 1], abs=1e-9)
        assert (grad[0, 0], grad[0, 1]) == (1.0, 2.0)

    def test_outside_positions_not_in_rows(self):
        level = FeatureLevel(data=np.arange(12, dtype=float).reshape(1, 3, 4), stride=1)
        pos = np.array([[-0.5, 0.5], [0.5, 0.5], [3.5, 1.0], [np.nan, 1.0], [3.0, 2.0]])
        rows, grads = bilinear_grad(level, pos)
        assert rows.tolist() == [1, 4]
        assert grads.shape == (2, 1, 2)
        # The last column and row take the one-sided slope of the cell before.
        assert grads[1, 0].tolist() == [1.0, 4.0]
        rows, grads = bilinear_grad(level, np.zeros((0, 2)))
        assert rows.shape == (0,) and grads.shape == (0, 1, 2)

    def test_matches_fd_at_random_non_kink_points(self):
        rng = np.random.default_rng(4)
        data = rng.uniform(-2, 2, size=(3, 9, 9))
        level = FeatureLevel(data=data, stride=1)
        h = 1e-4
        checked = 0
        while checked < 200:
            pos = rng.uniform((0.05, 0.05), (7.95, 7.95))
            frac = np.abs(pos - np.round(pos))
            if frac.min() < 0.01:
                continue
            grad = grad_at(level, pos)
            fd = central_difference(level, pos, h)
            assert np.all(np.abs(grad - fd) <= 1e-6 + 1e-6 * np.abs(grad))
            checked += 1


class TestSampleMultiview:
    def test_one_camera_constant(self):
        cam = make_ident_cam()
        rig = CameraRig(cameras=(cam,))
        pyr = constant_pyramid(rig, [4.5], strides=(2, 4, 8))
        feats, counts = sample_multiview_many(pyr, rig, [(0, 0, 10)])
        assert counts[0] == 3  # one camera, L=3 levels
        assert np.all(feats[0] == 4.5)

    def test_two_camera_mean(self):
        # Two co-located cameras with constant maps a and b see everything twice.
        cams = (make_ident_cam("a"), make_ident_cam("b"))
        rig = CameraRig(cameras=cams)
        pyr = constant_pyramid(rig, [1.0, 5.0])
        feats, counts = sample_multiview_many(pyr, rig, [(0, 0, 10)])
        assert counts[0] == 4
        assert np.all(feats[0] == 3.0)  # (a + b) / 2

    def test_behind_everything_invalid(self):
        cam = make_ident_cam()
        rig = CameraRig(cameras=(cam,))
        pyr = constant_pyramid(rig, [7.0])
        feats, counts = sample_multiview_many(pyr, rig, [(0, 0, -10)])
        assert counts[0] == 0
        assert np.all(feats[0] == 0.0)

    def test_visible_count_matches_exhaustive_mask(self):
        rig = gen_rig("nuscenes-like")
        field = AnalyticField.constant(np.ones(2))
        pyr = render_pyramid(field, rig, strides=(8, 16, 32))
        rng = np.random.default_rng(5)
        pts = rng.uniform((-30, -30, 0), (30, 30, 3), size=(200, 3))
        _, counts = sample_multiview_many(pyr, rig, pts)
        for i, p in enumerate(pts):
            expected = 0
            for ci, cam in enumerate(rig):
                (pixel,), (depth,) = project_points([p], cam)
                if depth <= 0:
                    continue
                for level in pyr.levels(ci):
                    pos = pixel / level.stride
                    if 0 <= pos[0] <= level.width - 1 and 0 <= pos[1] <= level.height - 1:
                        expected += 1
            assert counts[i] == expected

    def test_output_in_componentwise_hull(self):
        rig = gen_rig("nuscenes-like")
        rng = np.random.default_rng(6)
        field = AnalyticField(
            a=rng.uniform(-1, 1, 3),
            b=rng.uniform(-1, 1, 3) * 1e-3,
            c=rng.uniform(-1, 1, 3) * 1e-3,
            d=rng.uniform(-1, 1, 3) * 1e-6,
        )
        pyr = render_pyramid(field, rig, strides=(8, 16))
        pts = rng.uniform((-30, -30, 0), (30, 30, 3), size=(100, 3))
        feats, counts = sample_multiview_many(pyr, rig, pts)
        for p, feature, count in zip(pts, feats, counts):
            contributions = []
            for ci, cam in enumerate(rig):
                (pixel,), (depth,) = project_points([p], cam)
                if depth <= 0:
                    continue
                for level in pyr.levels(ci):
                    feat, inside = bilinear_sample_many(level, pixel / level.stride)
                    if inside[0]:
                        contributions.append(feat[0])
            if not contributions:
                assert count == 0
                continue
            arr = np.array(contributions)
            assert np.all(feature >= arr.min(axis=0) - 1e-12)
            assert np.all(feature <= arr.max(axis=0) + 1e-12)

    def test_scalar_matches_batch_bitwise(self):
        rig = gen_rig("nuscenes-like")
        pyr = render_pyramid(AnalyticField.constant([1.0, 2.0]), rig, strides=(8,))
        rng = np.random.default_rng(7)
        pts = rng.uniform((-30, -30, 0), (30, 30, 3), size=(32, 3))
        feats, counts = sample_multiview_many(pyr, rig, pts)
        for i in range(len(pts)):
            single, count = sample_multiview_many(pyr, rig, pts[i])
            assert single.tobytes() == feats[i : i + 1].tobytes()
            assert count[0] == counts[i]

    def test_camera_count_mismatch_rejected(self):
        rig = gen_rig("nuscenes-like")
        cam = make_ident_cam()
        pyr = constant_pyramid(CameraRig(cameras=(cam,)), [1.0])
        with pytest.raises(FeatureError):
            sample_multiview_many(pyr, rig, [(0, 0, 10)])


def dense_bilinear(level, pos):
    """Reference sampler: widen the whole level to float64, sample every
    position, then zero the rows outside the level."""
    data = level.data.astype(np.float64)
    pos = np.asarray(pos, dtype=np.float64).reshape(-1, 2)
    pos = np.where(np.isfinite(pos), pos, -1.0)
    u, v = pos[:, 0], pos[:, 1]
    inside = (u >= 0) & (u <= level.width - 1) & (v >= 0) & (v <= level.height - 1)
    uc = np.where(inside, u, 0.0)
    vc = np.where(inside, v, 0.0)
    x0 = np.floor(uc).astype(np.int64)
    y0 = np.floor(vc).astype(np.int64)
    fu, fv = uc - x0, vc - y0
    x1 = np.minimum(x0 + 1, level.width - 1)
    y1 = np.minimum(y0 + 1, level.height - 1)
    f00, f10 = data[:, y0, x0], data[:, y0, x1]
    f01, f11 = data[:, y1, x0], data[:, y1, x1]
    top = f00 + fu * (f10 - f00)
    bottom = f01 + fu * (f11 - f01)
    feats = (top + fv * (bottom - top)).T
    feats[~inside] = 0.0
    return feats, inside


def dense_multiview(pyr, rig, points):
    """Reference multi-view mean: every (camera, level) pair samples every
    point densely; the pairs behind the camera or outside the level are
    masked out."""
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    total = np.zeros((len(pts), pyr.channels))
    counts = np.zeros(len(pts), dtype=np.int64)
    for ci, cam in enumerate(rig):
        pixels, depths = project_points(pts, cam)
        for level in pyr.levels(ci):
            feats, inside = dense_bilinear(level, pixels / level.stride)
            mask = inside & (depths > 0)
            feats[~mask] = 0.0
            total += feats
            counts += mask
    valid = counts > 0
    features = np.zeros_like(total)
    features[valid] = total[valid] / counts[valid, None]
    return features, counts


def random_pyramid(rig, strides, channels, seed):
    rng = np.random.default_rng(seed)
    cam = rig[0].intrinsics
    cams = []
    for _ in rig:
        levels = []
        for stride in strides:
            shape = (channels, math.ceil(cam.height / stride), math.ceil(cam.width / stride))
            levels.append(FeatureLevel(data=rng.uniform(-3, 3, size=shape), stride=stride))
        cams.append(levels)
    return FeaturePyramid(cams)


class TestSparseSamplingBitIdentity:
    """The in-view kernel must reproduce dense sampling byte for byte."""

    def assert_same_multiview(self, pyr, rig, pts):
        feats, counts = sample_multiview_many(pyr, rig, pts)
        ref_feats, ref_counts = dense_multiview(pyr, rig, pts)
        assert feats.shape == ref_feats.shape
        assert feats.tobytes() == ref_feats.tobytes()
        assert counts.tobytes() == ref_counts.tobytes()
        return counts

    def test_scene_bounds_with_behind_and_outside_points(self):
        rig = gen_rig("nuscenes-like")
        pyr = random_pyramid(rig, (8, 16, 32), channels=5, seed=11)
        rng = np.random.default_rng(12)
        margin = np.array([5.0, 5.0, 1.0])
        # More points than one sampling block holds, so a block seam is crossed.
        count = featcore._BLOCK_POINTS + 1500
        pts = rng.uniform(DEFAULT_BOUNDS.lo - margin, DEFAULT_BOUNDS.hi + margin, size=(count, 3))
        counts = self.assert_same_multiview(pyr, rig, pts)
        # The set covers unseen points, one-camera points and overlaps.
        assert (counts == 0).any() and (counts > 0).any()
        behind = np.array([project_points(pts, cam)[1] <= 0 for cam in rig])
        assert behind.any(axis=0).all()

    def test_positions_on_last_row_and_column(self):
        # The projection is exact, so these points land exactly on u == W-1
        # or v == H-1 of every level.
        cam = exact_camera()
        rig = CameraRig(cameras=(cam,))
        pyr = random_pyramid(rig, (1, 2, 4, 8), channels=3, seed=13)
        pts = []
        for level in pyr.levels(0):
            u_last = (level.width - 1) * level.stride
            v_last = (level.height - 1) * level.stride
            for u, v in [(u_last, 0.0), (u_last, 13.5), (0.0, v_last), (21.25, v_last), (u_last, v_last)]:
                pts.append([(u - 48.0) / 32.0, (v - 32.0) / 32.0, 2.0])
        pts = np.array(pts)
        pixels, _ = project_points(pts, cam)
        for level in pyr.levels(0):
            pos = pixels / level.stride
            assert (pos[:, 0] == level.width - 1).any() and (pos[:, 1] == level.height - 1).any()
        counts = self.assert_same_multiview(pyr, rig, pts)
        assert counts.min() >= 1

    def test_no_points(self):
        rig = gen_rig("nuscenes-like")
        pyr = random_pyramid(rig, (8,), channels=2, seed=16)
        feats, counts = sample_multiview_many(pyr, rig, np.zeros((0, 3)))
        assert feats.shape == (0, 2) and counts.shape == (0,)
        self.assert_same_multiview(pyr, rig, np.zeros((0, 3)))

    def test_bilinear_sample_many_nan_and_border(self):
        level = random_pyramid(CameraRig(cameras=(make_ident_cam(),)), (4,), channels=3, seed=17).levels(0)[0]
        w, h = level.width, level.height
        rng = np.random.default_rng(18)
        pos = np.concatenate([
            rng.uniform((-2, -2), (w + 1, h + 1), size=(400, 2)),
            [[w - 1, h - 1], [w - 1, 0.5], [0.25, h - 1], [np.nan, 1.0], [1.0, np.nan],
             [np.nan, np.nan], [np.inf, 1.0], [-np.inf, 1.0]],
        ])
        feats, inside = bilinear_sample_many(level, pos)
        ref_feats, ref_inside = dense_bilinear(level, pos)
        assert feats.tobytes() == ref_feats.tobytes()
        assert inside.tobytes() == ref_inside.tobytes()
        assert not inside[-5:].any() and inside[-8:-5].all()

    def test_bilinear_sample_many_no_positions(self):
        level = level_2x2()
        feats, inside = bilinear_sample_many(level, np.zeros((0, 2)))
        ref_feats, ref_inside = dense_bilinear(level, np.zeros((0, 2)))
        assert feats.shape == (0, 1) and inside.shape == (0,)
        assert feats.tobytes() == ref_feats.tobytes()
        assert inside.tobytes() == ref_inside.tobytes()

    def test_bilinear_grad_matches_widened_level(self):
        level = random_pyramid(CameraRig(cameras=(make_ident_cam(),)), (2,), channels=3, seed=19).levels(0)[0]
        data = level.data.astype(np.float64)
        rng = np.random.default_rng(20)
        pos = rng.uniform((0, 0), (level.width - 1, level.height - 1), size=(50, 2))
        rows, grads = bilinear_grad(level, pos)
        assert rows.tolist() == list(range(50))
        for (u, v), grad in zip(pos, grads):
            assert grad.tobytes() == reference_grad(data, u, v).tobytes()


def reference_grad(data, u, v):
    """Float64 (C, 2) one-sided derivative at an inside position of (C, H, W)
    data; the support cell is clamped to start at most at W-2 and H-2."""
    _, h, w = data.shape
    x0 = min(max(math.floor(u), 0), max(w - 2, 0))
    y0 = min(max(math.floor(v), 0), max(h - 2, 0))
    x1, y1 = min(x0 + 1, w - 1), min(y0 + 1, h - 1)
    fu, fv = u - x0, v - y0
    f00, f10, f01, f11 = data[:, y0, x0], data[:, y0, x1], data[:, y1, x0], data[:, y1, x1]
    du = (1 - fv) * (f10 - f00) + fv * (f11 - f01)
    dv = (1 - fu) * (f01 - f00) + fu * (f11 - f10)
    return np.stack([du, dv], axis=-1)


class TestRowSplit:
    """Large calls sample two halves of their points on two threads; each
    half writes only its own rows, so the bytes equal one thread's."""

    @pytest.fixture(scope="class")
    def scene(self):
        rig = gen_rig("nuscenes-like")
        return rig, random_pyramid(rig, (8, 16), 3, seed=4)

    @pytest.mark.parametrize("n", [1, 301, 2 * featcore._BLOCK_POINTS + 3])
    def test_sampling_bit_identical(self, scene, split_runs, n):
        # 2 * _BLOCK_POINTS + 3 points put a block boundary inside each half.
        rig, pyr = scene
        pts = np.random.default_rng(n).uniform(DEFAULT_BOUNDS.lo, DEFAULT_BOUNDS.hi, (n, 3))
        pts[1::5, 2] = -1e4  # far below the ground: in no camera's view
        one, two, threads = split_runs(lambda: sample_multiview_many(pyr, rig, pts))
        assert threads == (n > 1)
        assert one[0].tobytes() == two[0].tobytes()
        assert one[1].tobytes() == two[1].tobytes()
        if n > 1:
            assert 0 < np.count_nonzero(one[1]) < n

    def test_sampling_with_no_visible_node(self, split_runs):
        rig = CameraRig(cameras=(make_ident_cam(),))
        pyr = random_pyramid(rig, (2, 4), 3, seed=5)
        pts = np.column_stack([np.zeros((9, 2)), -np.arange(1.0, 10.0)])
        one, two, threads = split_runs(lambda: sample_multiview_many(pyr, rig, pts))
        assert threads == 1
        assert not one[1].any() and not one[0].any()
        assert one[0].tobytes() == two[0].tobytes() and one[1].tobytes() == two[1].tobytes()

    @pytest.mark.parametrize("failing", ["first", "second"])
    def test_exception_in_either_half_reaches_caller(self, monkeypatch, failing):
        monkeypatch.setattr(featcore, "_WORKERS", 2)
        before = threading.active_count()
        ranges = []

        def fn(lo, hi):
            ranges.append((lo, hi))
            if (lo == 0) == (failing == "first"):
                raise RuntimeError(failing)

        with pytest.raises(RuntimeError, match=failing):
            featcore._split_rows(7, featcore._SPLIT_MIN_SIZE, fn)
        assert sorted(ranges) == [(0, 4), (4, 7)]
        assert threading.active_count() == before

    @pytest.mark.parametrize(
        "workers, n, width",
        [
            (1, 2**20, 64),
            (2, 2**20, featcore._SPLIT_MIN_WIDTH - 1),
            (2, featcore._SPLIT_MIN_SIZE // 64 - 1, 64),
        ],
        ids=["one-worker", "narrow-rows", "small-call"],
    )
    def test_one_worker_or_small_call_runs_inline(self, monkeypatch, workers, n, width):
        monkeypatch.setattr(featcore, "_WORKERS", workers)
        ranges = []
        featcore._split_rows(n, width, lambda lo, hi: ranges.append((lo, hi, threading.current_thread())))
        assert ranges == [(0, n, threading.main_thread())]

    def test_workers_follow_affinity_then_cpu_count(self, monkeypatch):
        assert featcore._WORKERS == min(2, len(os.sched_getaffinity(0)))
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert featcore._cpu_count() == 3


class TestLevelLayout:
    """A level keeps one read-only channel-last float32 buffer and shows it
    in (C, H, W) order."""

    @pytest.mark.parametrize(
        "convert",
        [
            lambda a: a.astype(np.float32),
            lambda a: a,
            lambda a: np.asfortranarray(a),
            lambda a: np.repeat(a, 2, axis=2)[:, ::-1, ::2],
            # One channel: the channel-last view of the input is already
            # contiguous, and the level must still copy it.
            lambda a: a[:1].astype(np.float32),
        ],
        ids=["float32", "float64", "fortran-order", "strided", "float32-one-channel"],
    )
    def test_data_is_a_read_only_view_of_channel_last_storage(self, convert):
        rng = np.random.default_rng(30)
        # float32-representable values, so every input dtype stores exactly.
        values = rng.uniform(-3, 3, size=(3, 4, 5)).astype(np.float32).astype(np.float64)
        src = convert(values)
        expected = src.copy()
        level = FeatureLevel(data=src, stride=4)
        assert level.data.shape == src.shape
        assert level.data.dtype == np.float32
        assert np.array_equal(level.data, expected)
        assert level.data.transpose(1, 2, 0).flags.c_contiguous
        assert not level.data.flags.writeable
        with pytest.raises(ValueError):
            level.data[0, 0, 0] = 1.0
        assert np.shares_memory(level.pixels, level.data)
        assert np.array_equal(level.pixels, level.data.transpose(1, 2, 0).reshape(-1, src.shape[0]))
        # The level owns its storage: the input stays writable and changing
        # it does not change the level.
        assert not np.shares_memory(level.data, src)
        src[0, 0, 0] += 1.0
        assert np.array_equal(level.data, expected)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e39], ids=["nan", "inf", "-inf", "beyond-float32"])
    def test_non_finite_stored_value_rejected(self, value):
        # 1e39 is a finite float64 that float32 stores as inf.
        data = np.zeros((2, 3, 4))
        data[1, 2, 3] = value
        with pytest.raises(FeatureError, match="feature data contains non-finite values"):
            FeatureLevel(data=data, stride=8)

    @pytest.mark.parametrize("shape", [(3, 5, 1), (3, 1, 6), (1, 5, 6)], ids=["W=1", "H=1", "C=1"])
    def test_degenerate_levels_match_float64_reference(self, shape):
        rng = np.random.default_rng(31)
        rig = CameraRig(cameras=(exact_camera(),))
        levels = [
            FeatureLevel(data=rng.uniform(-3, 3, size=shape), stride=stride) for stride in (8, 4)
        ]
        pyr = FeaturePyramid([levels])
        _, h, w = shape
        # Full-resolution pixels on the first and last rows and columns of
        # the stride-8 level, between them, and outside it.
        us = [0.0, 2.0, 4.5, 8 * (w - 1), 8 * (w - 1) + 0.5]
        vs = [0.0, 3.25, 8 * (h - 1), 8 * (h - 1) + 2.0]
        pixels = np.array([(u, v) for u in us for v in vs])
        pts = np.column_stack([(pixels[:, 0] - 48.0) / 32.0, (pixels[:, 1] - 32.0) / 32.0, np.full(len(pixels), 2.0)])
        assert np.array_equal(project_points(pts, rig[0])[0], pixels)

        feats, counts = sample_multiview_many(pyr, rig, pts)
        ref_feats, ref_counts = dense_multiview(pyr, rig, pts)
        assert counts.tobytes() == ref_counts.tobytes()
        assert feats.tobytes() == ref_feats.tobytes()
        assert (counts == 0).any() and (counts > 0).any()

        level = levels[0]
        pos = pixels / level.stride
        rows, grads = bilinear_grad(level, pos)
        inside = (pos >= 0).all(axis=1) & (pos[:, 0] <= w - 1) & (pos[:, 1] <= h - 1)
        assert rows.tolist() == np.flatnonzero(inside).tolist()
        data = level.data.astype(np.float64)
        expected = np.array([reference_grad(data, u, v) for u, v in pos[rows]])
        assert grads.tobytes() == expected.tobytes()


class TestTensorFiles:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(8)
        for shape in [(4, 5, 6), (0, 3), ()]:
            arr = rng.uniform(-3, 3, size=shape).astype(np.float32)
            path = tmp_path / "t.gdt3"
            write_tensor(path, arr)
            back = read_tensor(path)
            assert back.dtype == np.float32
            assert back.shape == shape
            assert back.flags.c_contiguous and back.flags.writeable
            assert np.array_equal(back, arr)

    def test_header_layout(self, tmp_path):
        path = tmp_path / "t.gdt3"
        write_tensor(path, np.zeros((2, 3), dtype=np.float32))
        blob = path.read_bytes()
        assert blob[:4] == b"GDT3"
        assert int.from_bytes(blob[4:8], "little") == 1
        assert int.from_bytes(blob[8:12], "little") == 2
        assert int.from_bytes(blob[12:20], "little") == 2
        assert int.from_bytes(blob[20:28], "little") == 3
        assert len(blob) == 28 + 4 * 6

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.gdt3"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(TensorFormatError):
            read_tensor(path)

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "t.gdt3"
        write_tensor(path, np.zeros((4, 4), dtype=np.float32))
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(TensorFormatError):
            read_tensor(path)

    def test_payload_cut_short_during_read_rejected(self, tmp_path, monkeypatch):
        # The size taken before the read says the payload fits, but the file
        # ends early, as when it is cut short while being read.
        path = tmp_path / "t.gdt3"
        write_tensor(path, np.zeros((4, 4), dtype=np.float32))
        path.write_bytes(path.read_bytes()[:-8])
        size = path.stat().st_size
        monkeypatch.setattr(featcore.os, "fstat", lambda fd: SimpleNamespace(st_size=size + 8))
        with pytest.raises(TensorFormatError, match="truncated payload$"):
            read_tensor(path)

    def test_huge_declared_dim_rejected(self, tmp_path):
        # 40 bytes that declare 2^40 floats: rejected before any payload read.
        path = tmp_path / "huge.gdt3"
        path.write_bytes(b"GDT3" + struct.pack("<IIQ", 1, 1, 2**40) + b"\x00" * 20)
        assert path.stat().st_size == 40
        with pytest.raises(TensorFormatError, match="truncated payload"):
            read_tensor(path)

    def test_wrapping_dim_product_rejected(self, tmp_path):
        # 2^32 x 2^32 wraps a 64-bit product to 0.
        path = tmp_path / "wrap.gdt3"
        path.write_bytes(b"GDT3" + struct.pack("<IIQQ", 1, 2, 2**32, 2**32) + b"\x00" * 16)
        with pytest.raises(TensorFormatError, match="truncated payload"):
            read_tensor(path)

    def test_huge_ndim_rejected(self, tmp_path):
        path = tmp_path / "ndim.gdt3"
        path.write_bytes(b"GDT3" + struct.pack("<II", 1, 2**32 - 1) + b"\x00" * 28)
        with pytest.raises(TensorFormatError, match="ndim"):
            read_tensor(path)

    def test_unindexable_empty_shape_rejected(self, tmp_path):
        path = tmp_path / "empty.gdt3"
        path.write_bytes(b"GDT3" + struct.pack("<IIQQ", 1, 2, 0, 2**63))
        with pytest.raises(TensorFormatError):
            read_tensor(path)

    def test_pyramid_round_trip(self, tmp_path):
        rig = gen_rig("single")
        field = AnalyticField.constant([1.0, -2.0, 0.5])
        pyr = render_pyramid(field, rig, strides=(8, 16))
        manifest = save_pyramid(tmp_path / "pyr", pyr)
        loaded = load_pyramid(manifest)
        assert loaded.camera_count == pyr.camera_count
        assert loaded.strides == pyr.strides
        for ci in range(pyr.camera_count):
            for a, b in zip(pyr.levels(ci), loaded.levels(ci)):
                assert np.array_equal(a.data, b.data)
                assert a.stride == b.stride

    @pytest.mark.parametrize("channels", [1, 3])
    def test_pyramid_round_trip_keeps_every_level(self, tmp_path, channels):
        # Different values in every (camera, level) file: a level that
        # showed another file's values would fail.
        rig = gen_rig("nuscenes-like")
        pyr = random_pyramid(rig, (32, 64, 16), channels=channels, seed=33)
        loaded = load_pyramid(save_pyramid(tmp_path / "pyr", pyr))
        for ci in range(pyr.camera_count):
            for a, b in zip(pyr.levels(ci), loaded.levels(ci)):
                assert a.data.tobytes() == b.data.tobytes()
                assert a.stride == b.stride

    def test_pyramid_save_of_loaded_pyramid_is_byte_identical(self, tmp_path):
        # Cameras of a rendered pyramid share level objects; the loaded one
        # holds a level per file.  Both must write the same bytes.
        rig = gen_rig("nuscenes-like")
        rng = np.random.default_rng(32)
        field = AnalyticField(*(rng.uniform(-1, 1, 5) * s for s in (1.0, 1e-3, 1e-3, 1e-6)))
        first = save_pyramid(tmp_path / "a", render_pyramid(field, rig, strides=(32, 64)))
        save_pyramid(tmp_path / "b", load_pyramid(first))
        names = sorted(p.name for p in (tmp_path / "a").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
        assert len(names) == 2 * len(rig) + 1
        for name in names:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    @pytest.mark.parametrize("second", ["big.gdt3", "./big.gdt3"])
    def test_pyramid_names_each_file_once(self, tmp_path, second):
        write_tensor(tmp_path / "big.gdt3", np.zeros((1, 4, 4)))
        cameras = [{"levels": [{"file": name, "stride": 8}]} for name in ("big.gdt3", second)]
        manifest = tmp_path / "pyramid.json"
        manifest.write_text(json.dumps({"version": 1, "cameras": cameras}))
        with pytest.raises(FeatureError, match=re.escape(f"{second!r} is named more than once")):
            load_pyramid(manifest)


class TestValidation:
    def test_bad_shape_rejected(self):
        with pytest.raises(FeatureError):
            FeatureLevel(data=np.zeros((4, 4)), stride=8)

    def test_bad_stride_rejected(self):
        with pytest.raises(FeatureError):
            FeatureLevel(data=np.zeros((1, 4, 4)), stride=0)

    @pytest.mark.parametrize("stride", [8.9, True, "8"], ids=["fraction", "bool", "string"])
    def test_non_integer_stride_rejected(self, stride):
        with pytest.raises(FeatureError, match="stride must be an integer"):
            FeatureLevel(data=np.zeros((1, 4, 4)), stride=stride)

    def test_integral_stride_stored_as_int(self):
        assert type(FeatureLevel(data=np.zeros((1, 4, 4)), stride=np.int32(8)).stride) is int
        assert FeatureLevel(data=np.zeros((1, 4, 4)), stride=8.0).stride == 8

    def test_pyramid_shape_mismatch_rejected(self):
        a = [FeatureLevel(data=np.zeros((1, 4, 4)), stride=8)]
        b = [FeatureLevel(data=np.zeros((1, 4, 5)), stride=8)]
        with pytest.raises(FeatureError):
            FeaturePyramid([a, b])
