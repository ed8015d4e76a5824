"""Multi-scale training transforms with a depth-invariant variant.

Three modes share the same image resize:

* vanilla: rescale images and camera intrinsics; boxes untouched.
* depth-invariant: rescale images and divide each object's depth channel by
  the scale factor; intrinsics untouched.
* disentangled: vanilla plus a regression mask that disables box supervision
  whenever the scale factor is not 1.

Object depth is carried as an explicit annotation channel next to each box
so the transform stays exact.  Image resizing uses bilinear resampling with
integer coordinates at pixel centers (output pixel u maps to input
coordinate u / r, clamped at the borders) and round-half-even size rounding.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .camgeo import (
    Box3D,
    CameraIntrinsics,
    CameraModel,
    CameraRig,
    GeometryError,
    _box_from_json,
    _box_to_json,
    _json_fields,
    _json_int,
    _json_records,
    _json_write,
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
    "sample_scale",
    "resize_image",
    "resize_frame",
    "depth_invariant_transform",
    "vanilla_transform",
    "disentangled_transform",
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
    """One multi-view sample: rig, objects, optional per-camera image stacks.

    ``image_sizes`` records the current (width, height) per camera
    independently of the rig intrinsics, since the depth-invariant transform
    resizes images without touching intrinsics.  ``images``, when present,
    holds one list of (C, H, W) arrays per camera.
    """

    rig: CameraRig
    objects: tuple[AnnotatedObject, ...]
    images: tuple[tuple[np.ndarray, ...], ...] | None = None
    image_sizes: tuple[tuple[int, int], ...] | None = None
    regression_mask: bool = True

    def __post_init__(self):
        objects = tuple(self.objects)
        object.__setattr__(self, "objects", objects)
        if self.images is not None:
            imgs = tuple(tuple(np.asarray(a, dtype=np.float64) for a in cam) for cam in self.images)
            if len(imgs) != len(self.rig):
                raise AugmentError(
                    f"got images for {len(imgs)} cameras but rig has {len(self.rig)}"
                )
            for cam_imgs in imgs:
                for arr in cam_imgs:
                    if arr.ndim != 3:
                        raise AugmentError(f"images must be (C, H, W), got {arr.shape}")
            object.__setattr__(self, "images", imgs)
        sizes = self.image_sizes
        if sizes is None:
            sizes = tuple((cam.intrinsics.width, cam.intrinsics.height) for cam in self.rig)
        else:
            sizes = tuple((int(w), int(h)) for w, h in sizes)
            if len(sizes) != len(self.rig):
                raise AugmentError("image_sizes must have one entry per camera")
        object.__setattr__(self, "image_sizes", sizes)


# ---------------------------------------------------------------------------
# Scale sampling and resizing


def sample_scale(scale_range: Sequence[float], rng: np.random.Generator) -> float:
    """Uniform draw from [lo, hi]; requires 0 < lo <= hi < inf."""
    lo, hi = float(scale_range[0]), float(scale_range[1])
    if not (0 < lo <= hi < math.inf):
        raise AugmentError(f"invalid scale range [{lo}, {hi}]")
    if lo == hi:
        return lo
    return float(rng.uniform(lo, hi))


def _scaled_len(n: int, r: float) -> int:
    if not math.isfinite(n * r):
        raise AugmentError(f"resize factor {r} makes dimension {n} non-finite")
    out = round(n * r)  # round-half-even, deterministic across platforms
    if out < 1:
        raise AugmentError(f"resize factor {r} collapses dimension {n} below one pixel")
    return out


def resize_image(image: np.ndarray, r: float) -> np.ndarray:
    """Bilinearly resize a (C, H, W) array by factor r.

    Output pixel (u, v) samples the input at (u / r, v / r) with border
    clamping, so a constant image stays constant for any r.
    """
    if r <= 0:
        raise AugmentError(f"resize factor must be positive, got {r}")
    img = np.asarray(image, dtype=np.float64)
    if img.ndim != 3:
        raise AugmentError(f"image must be (C, H, W), got {img.shape}")
    _, h, w = img.shape
    if r == 1.0:
        return img.copy()
    new_h = _scaled_len(h, r)
    new_w = _scaled_len(w, r)
    src_u = np.minimum(np.arange(new_w, dtype=np.float64) / r, w - 1)
    src_v = np.minimum(np.arange(new_h, dtype=np.float64) / r, h - 1)
    x0 = np.floor(src_u).astype(np.int64)
    y0 = np.floor(src_v).astype(np.int64)
    fu = src_u - x0
    fv = src_v - y0
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    f00 = img[:, y0[:, None], x0[None, :]]
    f10 = img[:, y0[:, None], x1[None, :]]
    f01 = img[:, y1[:, None], x0[None, :]]
    f11 = img[:, y1[:, None], x1[None, :]]
    top = f00 + fu * (f10 - f00)
    bot = f01 + fu * (f11 - f01)
    return top + fv[None, :, None] * (bot - top)


def resize_frame(frame: AnnotatedFrame, r: float) -> AnnotatedFrame:
    """Resize images and recorded image sizes by r; intrinsics and objects
    are left untouched."""
    if r <= 0:
        raise AugmentError(f"resize factor must be positive, got {r}")
    images = frame.images
    if images is not None:
        images = tuple(tuple(resize_image(a, r) for a in cam) for cam in images)
    sizes = tuple((_scaled_len(w, r), _scaled_len(h, r)) for w, h in frame.image_sizes)
    return replace(frame, images=images, image_sizes=sizes)


# ---------------------------------------------------------------------------
# Transforms


def depth_invariant_transform(frame: AnnotatedFrame, r: float) -> AnnotatedFrame:
    """Resize images and divide every object depth by r; boxes otherwise
    unchanged.  Exact inverse under r -> 1/r on the depth channel."""
    out = resize_frame(frame, r)
    objects = tuple(replace(obj, depth=obj.depth / r) for obj in out.objects)
    return replace(out, objects=objects)


def _scale_rig(rig: CameraRig, r: float) -> CameraRig:
    cameras = []
    for cam in rig:
        cameras.append(CameraModel(intrinsics=cam.intrinsics.scaled(r), extrinsics=cam.extrinsics, id=cam.id))
    return CameraRig(cameras=tuple(cameras))


def vanilla_transform(frame: AnnotatedFrame, r: float) -> AnnotatedFrame:
    """Resize images and scale intrinsics (focal lengths, principal point,
    image size) by r; object annotations are unchanged."""
    out = resize_frame(frame, r)
    try:
        rig = _scale_rig(frame.rig, r)
    except GeometryError as exc:
        raise AugmentError(str(exc)) from exc
    return replace(out, rig=rig)


def disentangled_transform(frame: AnnotatedFrame, r: float) -> AnnotatedFrame:
    """Vanilla transform that additionally clears the regression mask
    whenever r != 1, leaving only classification supervision."""
    out = vanilla_transform(frame, r)
    return replace(out, regression_mask=(r == 1.0))


def apply_transform(frame: AnnotatedFrame, r: float, mode: ScaleMode) -> AnnotatedFrame:
    if mode is ScaleMode.VANILLA:
        return vanilla_transform(frame, r)
    if mode is ScaleMode.DEPTH_INVARIANT:
        return depth_invariant_transform(frame, r)
    if mode is ScaleMode.DISENTANGLED:
        return disentangled_transform(frame, r)
    raise AugmentError(f"unknown scale mode {mode!r}")


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
    return AnnotatedObject(box=box, **_json_fields(data, {"depth": float}, AugmentError, "annotated object"))


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
    return tuple((_json_int(w), _json_int(h)) for w, h in sizes) if sizes else None


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
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return [frame_from_dict(f) for f in _json_records(data, "frames", AugmentError, f"annotation file {path}")]
