"""Multi-scale training transforms with a depth-invariant variant.

``apply_transform`` resizes a frame's recorded image sizes by a factor r in
one of three modes: vanilla (intrinsics scaled with the images),
depth-invariant (object depths divided by r instead), and disentangled
(vanilla, with box supervision disabled whenever r is not 1).

Object depth is carried as an explicit annotation channel next to each box
so the transform stays exact.  Image sides are rounded half to even.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .camgeo import (
    Box3D,
    CameraIntrinsics,
    CameraRig,
    GeometryError,
    _box_from_json,
    _box_to_json,
    _check_image_size,
    _json_fields,
    _json_float,
    _json_int,
    _json_read,
    _json_records,
    _json_write,
    _scaled_side,
    pixel_size,
    rig_from_dict,
    rig_to_dict,
)

__all__ = [
    "AugmentError",
    "ScaleMode",
    "DepthScaler",
    "AnnotatedObject",
    "AnnotatedFrame",
    "check_scale_range",
    "sample_scale",
    "apply_transform",
    "pixel_depth_decode",
    "frame_to_dict",
    "frame_from_dict",
    "save_frames",
    "load_frames",
]


class AugmentError(ValueError):
    """Invalid augmentation configuration or frame."""


class ScaleMode(enum.Enum):
    VANILLA = "vanilla"
    DEPTH_INVARIANT = "depth-invariant"
    DISENTANGLED = "disentangled"


@dataclass(frozen=True)
class DepthScaler:
    """Affine gain/offset applied to the raw depth prediction before the
    pixel-size division; identity by default."""

    sigma: float = 1.0
    mu: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.sigma) and math.isfinite(self.mu)):
            raise AugmentError("depth scaler parameters must be finite")


@dataclass(frozen=True)
class AnnotatedObject:
    """A ground-truth box plus its scalar depth channel (meters)."""

    box: Box3D
    depth: float

    def __post_init__(self):
        if not math.isfinite(self.depth):
            raise AugmentError(f"object depth must be finite, got {self.depth}")


@dataclass(frozen=True)
class AnnotatedFrame:
    """One multi-view sample: rig, objects and per-camera image sizes.

    ``image_sizes`` records the current (width, height) per camera
    independently of the rig intrinsics, since the depth-invariant transform
    resizes images without touching intrinsics.
    """

    rig: CameraRig
    objects: tuple[AnnotatedObject, ...]
    image_sizes: tuple[tuple[int, int], ...] | None = None
    regression_mask: bool = True

    def __post_init__(self):
        objects = tuple(self.objects)
        object.__setattr__(self, "objects", objects)
        sizes = self.image_sizes
        if sizes is None:
            sizes = tuple((cam.intrinsics.width, cam.intrinsics.height) for cam in self.rig)
        else:
            sizes = tuple((int(w), int(h)) for w, h in sizes)
            if len(sizes) != len(self.rig):
                raise AugmentError("image_sizes must have one entry per camera")
            for w, h in sizes:
                _check_image_size(w, h, AugmentError)
        object.__setattr__(self, "image_sizes", sizes)


# ---------------------------------------------------------------------------
# Scale sampling


def check_scale_range(scale_range: Sequence[float]) -> tuple[float, float]:
    """(lo, hi) as floats; raises unless 0 < lo <= hi < inf."""
    lo, hi = float(scale_range[0]), float(scale_range[1])
    if not (0 < lo <= hi < math.inf):
        raise AugmentError(f"invalid scale range [{lo}, {hi}]")
    return lo, hi


def sample_scale(scale_range: Sequence[float], rng: np.random.Generator) -> float:
    """Uniform draw from [lo, hi]; requires 0 < lo <= hi < inf."""
    lo, hi = check_scale_range(scale_range)
    if lo == hi:
        return lo
    return float(rng.uniform(lo, hi))


# ---------------------------------------------------------------------------
# Transform


def apply_transform(frame: AnnotatedFrame, r: float, mode: ScaleMode) -> AnnotatedFrame:
    """Resize the frame's recorded image sizes by r, then:

    * depth-invariant: divide every object depth by r; intrinsics untouched,
      and r -> 1/r is an exact inverse on the depth channel.
    * vanilla: scale every camera's intrinsics (focal lengths, principal
      point, image size) by r; objects untouched.
    * disentangled: vanilla, with the regression mask cleared unless r == 1.
    """
    if not isinstance(mode, ScaleMode):
        raise AugmentError(f"unknown scale mode {mode!r}")
    if r <= 0:
        raise AugmentError(f"resize factor must be positive, got {r}")
    sizes = tuple((_scaled_side(w, r, AugmentError), _scaled_side(h, r, AugmentError)) for w, h in frame.image_sizes)
    rig, objects, mask = frame.rig, frame.objects, frame.regression_mask
    if mode is ScaleMode.DEPTH_INVARIANT:
        objects = tuple(replace(obj, depth=obj.depth / r) for obj in objects)
    else:
        try:
            rig = CameraRig(cameras=tuple(replace(cam, intrinsics=cam.intrinsics.scaled(r)) for cam in rig))
        except GeometryError as exc:
            raise AugmentError(str(exc)) from exc
        if mode is ScaleMode.DISENTANGLED:
            mask = r == 1.0
    return replace(frame, rig=rig, objects=objects, image_sizes=sizes, regression_mask=mask)


def pixel_depth_decode(z: float, scaler: DepthScaler, intr: CameraIntrinsics) -> float:
    """Convert a raw depth prediction into metric depth:
    (sigma * z + mu) / pixel_size(intr)."""
    p = pixel_size(intr)
    return (scaler.sigma * float(z) + scaler.mu) / p


# ---------------------------------------------------------------------------
# Annotation JSON


def _object_to_dict(obj: AnnotatedObject) -> dict:
    return {**_box_to_json(obj.box), "depth": float(obj.depth)}


def _object_from_dict(data: dict) -> AnnotatedObject:
    box = _box_from_json(data, AugmentError, "annotated object")
    return AnnotatedObject(box=box, **_json_fields(data, {"depth": _json_float}, AugmentError, "annotated object"))


def frame_to_dict(frame: AnnotatedFrame) -> dict:
    out = {
        "calib": rig_to_dict(frame.rig),
        "image_sizes": [[w, h] for w, h in frame.image_sizes],
        "objects": [_object_to_dict(o) for o in frame.objects],
    }
    if not frame.regression_mask:
        out["regression_mask"] = False
    return out


def _image_sizes(sizes) -> tuple[tuple[int, int], ...] | None:
    """Only null means the calibration's sizes; an empty or non-list value
    fails the type check or the one-entry-per-camera check."""
    return None if sizes is None else tuple((_json_int(w), _json_int(h)) for w, h in sizes)


def _json_bool(value) -> bool:
    if not isinstance(value, bool):
        raise TypeError(f"expected true or false, got {value!r}")
    return value


_FRAME_FIELDS = {"image_sizes": _image_sizes, "regression_mask": _json_bool}


def frame_from_dict(data: dict) -> AnnotatedFrame:
    if "calib" not in data:
        raise AugmentError("annotation frame: missing field 'calib'")
    rig = rig_from_dict(data["calib"])
    records = _json_records({"objects": [], **data}, "objects", AugmentError, "annotation frame")
    f = _json_fields({"image_sizes": None, "regression_mask": True, **data}, _FRAME_FIELDS, AugmentError, "annotation frame")
    return AnnotatedFrame(
        rig=rig,
        objects=tuple(_object_from_dict(o) for o in records),
        image_sizes=f["image_sizes"],
        regression_mask=f["regression_mask"],
    )


def save_frames(path, frames: Sequence[AnnotatedFrame]) -> None:
    _json_write(path, {"frames": [frame_to_dict(f) for f in frames]})


def load_frames(path) -> list[AnnotatedFrame]:
    data = _json_read(path, AugmentError)
    return [frame_from_dict(f) for f in _json_records(data, "frames", AugmentError, f"annotation file {path}")]
