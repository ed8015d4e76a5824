"""Deterministic synthetic scenes: camera rigs, analytic feature fields,
seeded object layouts, and controlled prediction perturbations.

Everything here is a pure function of (seed, config); identical inputs give
bit-identical rigs, pyramids, objects, and perturbed predictions.  Analytic
fields exist so sampling code can be checked against closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .camgeo import (
    Box3D,
    CameraExtrinsics,
    CameraIntrinsics,
    CameraModel,
    CameraRig,
    DetectionResult,
    GeometryError,
    SceneBounds,
    _as_array,
    _check_int,
    normalize_yaw,
)
from .featcore import FeatureLevel, FeaturePyramid

__all__ = [
    "ConfigError",
    "AnalyticField",
    "CameraSpec",
    "NoiseSpec",
    "SyntheticScene",
    "SURROUND_SPECS",
    "DEFAULT_BOUNDS",
    "DEFAULT_STRIDES",
    "gen_rig",
    "adjacent_seam_azimuths",
    "render_pyramid",
    "gen_objects",
    "perturb_predictions",
    "random_field",
    "make_scene",
    "derived_rng",
]

DEFAULT_STRIDES = (8, 16, 32, 64)
DEFAULT_BOUNDS = SceneBounds(lo=(-40.0, -40.0, -0.5), hi=(40.0, 40.0, 3.0))
# A level is rendered through (H, W, C) float64 arrays: 177 MiB each for the
# stride-8 level of a 1600 x 900 camera at this many channels.
_MAX_CHANNELS = 1024


class ConfigError(ValueError):
    """A generator was configured with invalid parameters."""


def derived_rng(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for (seed, unit index); schedule-independent."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)))


@dataclass(frozen=True)
class AnalyticField:
    """Per-channel field f(u, v) = a + b*u + c*v + d*u*v over image coordinates.

    Constant fields have b = c = d = 0; linear fields have d = 0.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        channels = None  # set by ``a``; b, c and d must match it
        for name in ("a", "b", "c", "d"):
            arr = _as_array(np.atleast_1d(getattr(self, name)), (channels,), f"field coefficient {name}", ConfigError)
            channels = len(arr)
            object.__setattr__(self, name, arr)

    @classmethod
    def constant(cls, values) -> "AnalyticField":
        a = np.atleast_1d(np.asarray(values, dtype=np.float64))
        zero = np.zeros_like(a)
        return cls(a=a, b=zero, c=zero, d=zero)

    @classmethod
    def linear(cls, a, b, c) -> "AnalyticField":
        a = np.atleast_1d(np.asarray(a, dtype=np.float64))
        return cls(a=a, b=b, c=c, d=np.zeros_like(a))

    def evaluate(self, u, v) -> np.ndarray:
        """Field value at image coordinates; broadcasts to (..., C)."""
        u = np.asarray(u, dtype=np.float64)[..., None]
        v = np.asarray(v, dtype=np.float64)[..., None]
        return self.a + self.b * u + self.c * v + self.d * u * v


# ---------------------------------------------------------------------------
# Camera rigs


@dataclass(frozen=True)
class CameraSpec:
    """One custom camera: outward-facing at ``yaw_deg`` with the given FOV."""

    id: str
    yaw_deg: float
    hfov_deg: float = 70.0
    width: int = 1600
    height: int = 900

    def __post_init__(self):
        if not (0 < self.hfov_deg < 180):
            raise ConfigError(f"horizontal FOV must be in (0, 180), got {self.hfov_deg}")
        for side in ("width", "height"):
            object.__setattr__(self, side, _check_int(getattr(self, side), side, ConfigError, lo=2))


# Every camera is mounted 1 m out along its forward axis from this point.
_MOUNT = np.array([0.0, 0.0, 1.5])


def _camera_from_spec(spec: CameraSpec) -> CameraModel:
    yaw = math.radians(spec.yaw_deg)
    fx = (spec.width / 2.0) / math.tan(math.radians(spec.hfov_deg) / 2.0)
    intr = CameraIntrinsics(
        fx=fx,
        fy=fx,
        cx=spec.width / 2.0,
        cy=spec.height / 2.0,
        width=spec.width,
        height=spec.height,
    )
    # Rows are the camera axes (right, down, forward) expressed in ego coords.
    forward = np.array([math.cos(yaw), math.sin(yaw), 0.0])
    right = np.array([math.sin(yaw), -math.cos(yaw), 0.0])
    down = np.array([0.0, 0.0, -1.0])
    rot = np.stack([right, down, forward])
    center = _MOUNT + forward
    extr = CameraExtrinsics(rotation=rot, translation=-rot @ center)
    return CameraModel(intrinsics=intr, extrinsics=extr, id=spec.id)


# Six outward cameras covering the full azimuth.  The back camera gets a
# wider FOV so its frustum overlaps the +-110 degree side cameras even after
# accounting for the mounting offset; a narrower one leaves the rear seams
# uncovered at finite range.
SURROUND_SPECS = (
    CameraSpec(id="front", yaw_deg=0.0, hfov_deg=70.0),
    CameraSpec(id="front_left", yaw_deg=55.0, hfov_deg=70.0),
    CameraSpec(id="front_right", yaw_deg=-55.0, hfov_deg=70.0),
    CameraSpec(id="back_left", yaw_deg=110.0, hfov_deg=70.0),
    CameraSpec(id="back_right", yaw_deg=-110.0, hfov_deg=70.0),
    CameraSpec(id="back", yaw_deg=180.0, hfov_deg=80.0),
)


def gen_rig(style: str = "nuscenes-like", specs: Sequence[CameraSpec] | None = None) -> CameraRig:
    """Build a camera rig.

    Styles: ``nuscenes-like`` (6 surround cameras with overlapping adjacent
    frusta), ``single`` (one forward camera), ``custom`` (from ``specs``).
    """
    if style == "nuscenes-like":
        return CameraRig(cameras=tuple(_camera_from_spec(s) for s in SURROUND_SPECS))
    if style == "single":
        return CameraRig(cameras=(_camera_from_spec(CameraSpec(id="front", yaw_deg=0.0)),))
    if style == "custom":
        if not specs:
            raise ConfigError("custom style requires at least one CameraSpec")
        try:
            return CameraRig(cameras=tuple(_camera_from_spec(s) for s in specs))
        except GeometryError as exc:
            raise ConfigError(str(exc)) from exc
    raise ConfigError(f"unknown rig style {style!r}")


def adjacent_seam_azimuths() -> list[tuple[int, int, float]]:
    """(index_i, index_j, azimuth_deg) for each adjacent frustum overlap
    midline of the SURROUND_SPECS rig."""
    specs = SURROUND_SPECS
    order = sorted(range(len(specs)), key=lambda i: specs[i].yaw_deg)
    out = []
    for k in range(len(order)):
        i = order[k]
        j = order[(k + 1) % len(order)]
        gap = (specs[j].yaw_deg - specs[i].yaw_deg) % 360.0
        hi = specs[i].yaw_deg + specs[i].hfov_deg / 2.0
        lo = specs[i].yaw_deg + gap - specs[j].hfov_deg / 2.0
        out.append((i, j, (hi + lo) / 2.0))
    return out


# ---------------------------------------------------------------------------
# Rendering and layouts


def render_pyramid(
    field: AnalyticField,
    rig: CameraRig,
    strides: Sequence[int] = DEFAULT_STRIDES,
) -> FeaturePyramid:
    """Rasterize one analytic field, shared by every camera, into a feature
    pyramid.  Level pixel (u, v) holds the field evaluated at
    full-resolution coordinates (u * stride, v * stride).

    A level's raster depends only on its width, height and stride, so each
    distinct level is rendered once and cameras with the same image size
    share the same (read-only) ``FeatureLevel`` object.  A level is evaluated
    on a (1, W) axis of column coordinates u and an (H, 1) axis of row
    coordinates v: ``evaluate`` computes ``((a + b*u) + c*v) + (d*u)*v``, so
    ``b*u``, ``c*v`` and ``d*u`` are one row or column long and only three
    operations span the level, with the same operations per pixel as on the
    full grid.  The field has 1 to ``_MAX_CHANNELS`` channels.
    """
    _check_int(len(field.a), "channels", ConfigError, lo=1, hi=_MAX_CHANNELS)
    strides = [_check_int(stride, "stride", ConfigError, lo=1) for stride in strides]
    rendered: dict[tuple[int, int, int], FeatureLevel] = {}
    cams = []
    for cam in rig:
        w, h = cam.intrinsics.width, cam.intrinsics.height
        levels = []
        for stride in strides:
            lw = max(1, math.ceil(w / stride))
            lh = max(1, math.ceil(h / stride))
            key = (lw, lh, stride)
            if key not in rendered:
                u = np.arange(lw, dtype=np.float64) * stride
                v = np.arange(lh, dtype=np.float64) * stride
                values = field.evaluate(u[None, :], v[:, None])  # (lh, lw, C)
                rendered[key] = FeatureLevel(data=np.moveaxis(values, -1, 0), stride=stride)
            levels.append(rendered[key])
        cams.append(levels)
    return FeaturePyramid(cams)


def gen_objects(seed: int, count: int, class_count: int = 10) -> list[Box3D]:
    """Seeded uniform box layout inside DEFAULT_BOUNDS; sizes in [0.5, 5] m,
    attributes in [0, 4)."""
    count = _check_int(count, "count", ConfigError, lo=0)
    class_count = _check_int(class_count, "class_count", ConfigError, lo=1)
    rng = derived_rng(seed, 0)
    boxes = []
    for _ in range(count):
        center = rng.uniform(DEFAULT_BOUNDS.lo, DEFAULT_BOUNDS.hi)
        size = rng.uniform(0.5, 5.0, size=3)
        yaw = normalize_yaw(rng.uniform(-math.pi, math.pi))
        velocity = rng.uniform(-3.0, 3.0, size=2)
        class_id = int(rng.integers(0, class_count))
        attribute_id = int(rng.integers(0, 4))
        boxes.append(
            Box3D(
                center=center,
                size=size,
                yaw=yaw,
                velocity=velocity,
                class_id=class_id,
                attribute_id=attribute_id,
            )
        )
    return boxes


# Kept predictions score in [0.5, 1); false positives score below 0.5.
_SCORE_SPLIT = 0.5


@dataclass(frozen=True)
class NoiseSpec:
    """Controlled perturbation of ground truths into predictions."""

    center_sigma: float = 0.0
    yaw_sigma: float = 0.0
    velocity_sigma: float = 0.0
    drop_rate: float = 0.0
    false_positive_rate: float = 0.0

    def __post_init__(self):
        for name in ("center_sigma", "yaw_sigma", "velocity_sigma", "drop_rate", "false_positive_rate"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be finite and >= 0, got {getattr(self, name)}")
        if not (0.0 <= self.drop_rate <= 1.0):
            raise ConfigError(f"drop_rate must be in [0, 1], got {self.drop_rate}")


def perturb_predictions(
    gts: Sequence[Box3D],
    noise: NoiseSpec,
    seed: int,
    class_count: int = 10,
) -> list[DetectionResult]:
    """Derive seeded predictions from ground truths.

    Every random draw happens for every object regardless of whether it is
    dropped, so changing the drop rate alone does not shift the noise stream
    of surviving objects.
    """
    rng = derived_rng(seed, 1)
    preds = []
    for gt in gts:
        keep = rng.uniform() >= noise.drop_rate
        center = gt.center + rng.normal(0.0, 1.0, size=3) * noise.center_sigma
        yaw = gt.yaw + rng.normal(0.0, 1.0) * noise.yaw_sigma
        velocity = gt.velocity + rng.normal(0.0, 1.0, size=2) * noise.velocity_sigma
        score = rng.uniform(_SCORE_SPLIT, 1.0)
        if not keep:
            continue
        preds.append(
            DetectionResult(
                box=Box3D(
                    center=center,
                    size=gt.size,
                    yaw=yaw,
                    velocity=velocity,
                    class_id=gt.class_id,
                    attribute_id=gt.attribute_id,
                ),
                score=score,
            )
        )
    n_fp = int(round(noise.false_positive_rate * len(gts)))
    for fp in gen_objects(seed + 1, n_fp, class_count=class_count):
        preds.append(DetectionResult(box=fp, score=rng.uniform(0.0, _SCORE_SPLIT)))
    return preds


def random_field(seed: int, kind: str, channels: int) -> AnalyticField:
    """Seeded field coefficients of 1 to ``_MAX_CHANNELS`` channels; slopes
    are scaled down so values stay O(1)."""
    channels = _check_int(channels, "channels", ConfigError, lo=1, hi=_MAX_CHANNELS)
    rng = derived_rng(seed, 2)
    a = rng.uniform(-1.0, 1.0, size=channels)
    b = rng.uniform(-1.0, 1.0, size=channels) * 1e-3
    c = rng.uniform(-1.0, 1.0, size=channels) * 1e-3
    d = rng.uniform(-1.0, 1.0, size=channels) * 1e-6
    if kind == "constant":
        return AnalyticField.constant(a)
    if kind == "linear":
        return AnalyticField.linear(a, b, c)
    if kind == "bilinear":
        return AnalyticField(a=a, b=b, c=c, d=d)
    raise ConfigError(f"unknown field kind {kind!r}")


@dataclass(frozen=True)
class SyntheticScene:
    rig: CameraRig
    objects: tuple[Box3D, ...]
    pyramid: FeaturePyramid
    field: AnalyticField


def make_scene(
    seed: int,
    style: str = "nuscenes-like",
    object_count: int = 50,
    field_kind: str = "bilinear",
    channels: int = 8,
    strides: Sequence[int] = DEFAULT_STRIDES,
) -> SyntheticScene:
    rig = gen_rig(style)
    fld = random_field(seed, field_kind, channels)
    pyramid = render_pyramid(fld, rig, strides)
    objects = tuple(gen_objects(seed, object_count))
    return SyntheticScene(rig=rig, objects=objects, pyramid=pyramid, field=fld)
