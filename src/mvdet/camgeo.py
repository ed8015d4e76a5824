"""Multi-camera pinhole geometry: projection, visibility, boxes, region labels.

Conventions used throughout the package:

* Ego frame: x forward, y left, z up; meters; right-handed.
* Camera frame: x right, y down, z forward (optical axis).
* Image frame: u right, v down, pixels; integer coordinates sit at pixel
  centers.
* Extrinsics map ego to camera: ``p_cam = rotation @ p_ego + translation``.
* Visibility uses half-open pixel bounds ``[0, width) x [0, height)`` and
  strictly positive depth, so behind-camera points are never visible.
"""

from __future__ import annotations

import enum
import json
import math
import operator
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

__all__ = [
    "GeometryError",
    "CameraIntrinsics",
    "CameraExtrinsics",
    "CameraModel",
    "CameraRig",
    "Box3D",
    "DetectionResult",
    "SceneBounds",
    "RegionLabel",
    "project_points",
    "back_project",
    "visible_mask",
    "visible_counts",
    "box_corners",
    "classify_regions",
    "pixel_size",
    "rig_to_dict",
    "rig_from_dict",
    "save_rig",
    "load_rig",
]

_ORTHO_TOL = 1e-9


class GeometryError(ValueError):
    """Camera or box parameters violate their invariants."""


def _as_array(values, shape, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.shape != shape:
        raise GeometryError(f"{name} must have shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise GeometryError(f"{name} contains non-finite values")
    arr = arr.copy()
    arr.flags.writeable = False
    return arr


def normalize_yaw(yaw: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    wrapped = (float(yaw) + math.pi) % math.tau - math.pi
    if wrapped == -math.pi:
        wrapped = math.pi
    return wrapped


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole intrinsics; focal lengths and principal point in pixels."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        if not (self.fx > 0 and self.fy > 0):
            raise GeometryError(f"focal lengths must be positive, got ({self.fx}, {self.fy})")
        if not (self.width > 0 and self.height > 0):
            raise GeometryError(f"image size must be positive, got ({self.width}, {self.height})")
        if not (0 <= self.cx < self.width and 0 <= self.cy < self.height):
            raise GeometryError(
                f"principal point ({self.cx}, {self.cy}) outside image "
                f"{self.width}x{self.height}"
            )

    def scaled(self, r: float) -> "CameraIntrinsics":
        """Intrinsics for an image resized by factor ``r`` (half-even size rounding)."""
        if r <= 0:
            raise GeometryError(f"scale factor must be positive, got {r}")
        if not (math.isfinite(self.width * r) and math.isfinite(self.height * r)):
            raise GeometryError(f"scale factor {r} gives a non-finite image size")
        return CameraIntrinsics(
            fx=self.fx * r,
            fy=self.fy * r,
            cx=self.cx * r,
            cy=self.cy * r,
            width=max(1, round(self.width * r)),
            height=max(1, round(self.height * r)),
        )


@dataclass(frozen=True)
class CameraExtrinsics:
    """Ego-to-camera rigid transform."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        rot = _as_array(self.rotation, (3, 3), "rotation")
        trans = _as_array(self.translation, (3,), "translation")
        if not np.allclose(rot.T @ rot, np.eye(3), atol=_ORTHO_TOL):
            raise GeometryError("rotation is not orthonormal")
        if abs(np.linalg.det(rot) - 1.0) > _ORTHO_TOL:
            raise GeometryError("rotation determinant must be +1")
        object.__setattr__(self, "rotation", rot)
        object.__setattr__(self, "translation", trans)


@dataclass(frozen=True)
class CameraModel:
    intrinsics: CameraIntrinsics
    extrinsics: CameraExtrinsics
    id: str


@dataclass(frozen=True)
class CameraRig:
    """Ordered collection of cameras with pairwise distinct ids."""

    cameras: tuple[CameraModel, ...]

    def __post_init__(self):
        cams = tuple(self.cameras)
        if len(cams) < 1:
            raise GeometryError("a rig needs at least one camera")
        ids = [c.id for c in cams]
        if len(set(ids)) != len(ids):
            raise GeometryError(f"camera ids are not unique: {ids}")
        object.__setattr__(self, "cameras", cams)

    def __len__(self) -> int:
        return len(self.cameras)

    def __iter__(self):
        return iter(self.cameras)

    def __getitem__(self, idx: int) -> CameraModel:
        return self.cameras[idx]


@dataclass(frozen=True)
class Box3D:
    """Yaw-rotated 3D box in the ego frame.

    ``size`` is (w, l, h); at zero yaw w spans x, l spans y, h spans z.
    Yaw rotates the box counterclockwise about +z and is normalized to
    (-pi, pi] on construction.
    """

    center: np.ndarray
    size: np.ndarray
    yaw: float
    velocity: np.ndarray = field(default_factory=lambda: np.zeros(2))
    class_id: int = 0
    attribute_id: int = 0

    def __post_init__(self):
        center = _as_array(self.center, (3,), "center")
        size = _as_array(self.size, (3,), "size")
        velocity = _as_array(self.velocity, (2,), "velocity")
        if not np.all(size > 0):
            raise GeometryError(f"box size must be positive, got {size}")
        if not math.isfinite(float(self.yaw)):
            raise GeometryError(f"box yaw must be finite, got {self.yaw}")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "velocity", velocity)
        object.__setattr__(self, "yaw", normalize_yaw(self.yaw))
        object.__setattr__(self, "class_id", int(self.class_id))
        object.__setattr__(self, "attribute_id", int(self.attribute_id))


@dataclass(frozen=True)
class DetectionResult:
    """A scored 3D box prediction."""

    box: Box3D
    score: float

    def __post_init__(self):
        if not math.isfinite(self.score):
            raise GeometryError(f"score must be finite, got {self.score}")


@dataclass(frozen=True)
class SceneBounds:
    """Axis-aligned box with positive extent on every axis."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = _as_array(self.lo, (3,), "lo")
        hi = _as_array(self.hi, (3,), "hi")
        if not np.all(hi > lo):
            raise GeometryError(f"bounds must have positive extent, got lo={lo} hi={hi}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def extent(self) -> np.ndarray:
        return self.hi - self.lo


class RegionLabel(enum.Enum):
    """Where a box falls relative to the rig's camera coverage."""

    OVERLAPPING = "overlapping"
    NON_OVERLAPPING = "non_overlapping"
    INVISIBLE = "invisible"


# ---------------------------------------------------------------------------
# Projection


def project_points(points: np.ndarray, cam: CameraModel) -> tuple[np.ndarray, np.ndarray]:
    """Project ego-frame points into one camera.

    Args:
        points: (N, 3) ego-frame points in meters.
        cam: target camera.

    Returns:
        (pixels, depths) with pixels (N, 2) and depths (N,).  Pixels are NaN
        where depth <= 0 (behind the camera).
    """
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    rot = cam.extrinsics.rotation
    trans = cam.extrinsics.translation
    # Elementwise transform keeps results bit-identical for any batch size
    # (BLAS matmul kernels round differently depending on shape).
    cam_pts = (
        pts[:, 0, None] * rot[:, 0]
        + pts[:, 1, None] * rot[:, 1]
        + pts[:, 2, None] * rot[:, 2]
        + trans
    )
    depths = cam_pts[:, 2]
    intr = cam.intrinsics
    with np.errstate(divide="ignore", invalid="ignore"):
        u = intr.fx * cam_pts[:, 0] / depths + intr.cx
        v = intr.fy * cam_pts[:, 1] / depths + intr.cy
    pixels = np.stack([u, v], axis=-1)
    pixels[depths <= 0] = np.nan
    return pixels, depths


def back_project(pixel, depth: float, cam: CameraModel) -> np.ndarray:
    """Invert projection at a known positive depth; returns the ego-frame point."""
    if depth <= 0:
        raise GeometryError(f"back-projection requires positive depth, got {depth}")
    u, v = float(pixel[0]), float(pixel[1])
    intr = cam.intrinsics
    cam_pt = np.array(
        [(u - intr.cx) * depth / intr.fx, (v - intr.cy) * depth / intr.fy, depth]
    )
    return cam.extrinsics.rotation.T @ (cam_pt - cam.extrinsics.translation)


def visible_mask(points: np.ndarray, cam: CameraModel) -> np.ndarray:
    """Boolean (N,) mask of points with positive depth projecting inside the image."""
    pixels, depths = project_points(points, cam)
    intr = cam.intrinsics
    with np.errstate(invalid="ignore"):
        inside = (
            (pixels[:, 0] >= 0)
            & (pixels[:, 0] < intr.width)
            & (pixels[:, 1] >= 0)
            & (pixels[:, 1] < intr.height)
        )
    return (depths > 0) & inside


def visible_counts(points: np.ndarray, rig: CameraRig) -> np.ndarray:
    """Number of rig cameras in which each point is visible; (N,) ints."""
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    counts = np.zeros(len(pts), dtype=np.int64)
    for cam in rig:
        counts += visible_mask(pts, cam)
    return counts


# ---------------------------------------------------------------------------
# Boxes

# Binary sign order makes corner i and corner 7-i opposite about the center.
_CORNER_SIGNS = np.array(
    [
        [-1, -1, -1],
        [-1, -1, 1],
        [-1, 1, -1],
        [-1, 1, 1],
        [1, -1, -1],
        [1, -1, 1],
        [1, 1, -1],
        [1, 1, 1],
    ],
    dtype=np.float64,
)


def box_corners(b: Box3D) -> np.ndarray:
    """The 8 corners of the box, (8, 3), in the ego frame."""
    half = b.size / 2.0
    offsets = _CORNER_SIGNS * half
    c, s = math.cos(b.yaw), math.sin(b.yaw)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    return b.center + offsets @ rot.T


def classify_regions(boxes: Sequence[Box3D], rig: CameraRig) -> list[RegionLabel]:
    """Region label per box, vectorized across boxes.

    A box is OVERLAPPING when its centroid or any corner is visible in two
    or more cameras, NON_OVERLAPPING when the most-covered of those points
    is visible in exactly one camera, and INVISIBLE otherwise.  The label is
    invariant under permutation of the rig's camera order.
    """
    if not boxes:
        return []
    probes = np.empty((len(boxes), 9, 3), dtype=np.float64)
    for i, b in enumerate(boxes):
        probes[i, 0] = b.center
        probes[i, 1:] = box_corners(b)
    counts = visible_counts(probes.reshape(-1, 3), rig).reshape(len(boxes), 9)
    best = counts.max(axis=1)
    labels = []
    for value in best:
        if value >= 2:
            labels.append(RegionLabel.OVERLAPPING)
        elif value == 1:
            labels.append(RegionLabel.NON_OVERLAPPING)
        else:
            labels.append(RegionLabel.INVISIBLE)
    return labels


def pixel_size(intr: CameraIntrinsics) -> float:
    """Pixel size sqrt(1/fx^2 + 1/fy^2); converts metric depth to pixel-level depth."""
    if intr.fx <= 0 or intr.fy <= 0:
        raise GeometryError(f"focal lengths must be positive, got ({intr.fx}, {intr.fy})")
    return math.sqrt(1.0 / intr.fx**2 + 1.0 / intr.fy**2)


# ---------------------------------------------------------------------------
# Calibration JSON


def rig_to_dict(rig: CameraRig) -> dict:
    return {
        "cameras": [
            {
                "id": cam.id,
                "fx": cam.intrinsics.fx,
                "fy": cam.intrinsics.fy,
                "cx": cam.intrinsics.cx,
                "cy": cam.intrinsics.cy,
                "width": cam.intrinsics.width,
                "height": cam.intrinsics.height,
                "rotation": [float(x) for x in cam.extrinsics.rotation.reshape(-1)],
                "translation": [float(x) for x in cam.extrinsics.translation],
            }
            for cam in rig
        ]
    }


def _json_write(path, payload) -> None:
    """Write ``payload`` as sorted, 2-space-indented JSON plus a newline;
    every JSON file the package writes goes through here."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# Parsed JSON input is checked with these helpers; each loader passes its
# module's own error type, which the CLI reports with exit code 2.


def _json_records(data, key: str, error: type[Exception], what: str) -> list[dict]:
    """``data[key]``, checked to be a list of objects."""
    items = data.get(key) if isinstance(data, dict) else None
    if not isinstance(items, list) or not all(isinstance(item, dict) for item in items):
        raise error(f"{what} must be an object with a {key!r} list of objects")
    return items


def _json_fields(entry: dict, kinds: dict, error: type[Exception], what: str) -> dict:
    """``kind(entry[key])`` for each ``key: kind`` in ``kinds``."""
    try:
        return {key: kind(entry[key]) for key, kind in kinds.items()}
    except (KeyError, TypeError, ValueError) as exc:
        raise error(f"{what}: missing or malformed field ({exc!r})") from exc


def _json_text(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {value!r}")
    return value


def _json_int(value) -> int:
    """An integer; a float counts only when its value is integral."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool):
        raise TypeError(f"expected an integer, got {value!r}")
    return operator.index(value)


def _json_floats(value) -> np.ndarray:
    return np.asarray(value, dtype=np.float64)


_BOX_FIELDS = {
    "center": _json_floats,
    "size": _json_floats,
    "yaw": float,
    "velocity": _json_floats,
    "class": _json_int,
    "attribute": _json_int,
}


def _box_to_json(box: Box3D) -> dict:
    """The box fields of a prediction or annotation record."""
    return {
        "center": [float(x) for x in box.center],
        "size": [float(x) for x in box.size],
        "yaw": float(box.yaw),
        "velocity": [float(x) for x in box.velocity],
        "class": box.class_id,
        "attribute": box.attribute_id,
    }


def _box_from_json(entry: dict, error: type[Exception], what: str) -> Box3D:
    """The box of a prediction or annotation record; velocity, class and
    attribute default to zero."""
    f = _json_fields({"velocity": (0.0, 0.0), "class": 0, "attribute": 0, **entry}, _BOX_FIELDS, error, what)
    return Box3D(
        center=f["center"],
        size=f["size"],
        yaw=f["yaw"],
        velocity=f["velocity"],
        class_id=f["class"],
        attribute_id=f["attribute"],
    )


_CAMERA_FIELDS = {
    **dict.fromkeys(("fx", "fy", "cx", "cy"), float),
    "width": _json_int,
    "height": _json_int,
    "rotation": lambda value: _json_floats(value).reshape(3, 3),
    "translation": _json_floats,
    "id": _json_text,
}


def rig_from_dict(data: dict) -> CameraRig:
    cameras = []
    for entry in _json_records(data, "cameras", GeometryError, "calibration data"):
        f = _json_fields(entry, _CAMERA_FIELDS, GeometryError, "calibration camera")
        intr = CameraIntrinsics(**{key: f[key] for key in ("fx", "fy", "cx", "cy", "width", "height")})
        extr = CameraExtrinsics(rotation=f["rotation"], translation=f["translation"])
        cameras.append(CameraModel(intrinsics=intr, extrinsics=extr, id=f["id"]))
    return CameraRig(cameras=tuple(cameras))


def save_rig(path, rig: CameraRig) -> None:
    _json_write(path, rig_to_dict(rig))


def load_rig(path) -> CameraRig:
    with open(path, "r", encoding="utf-8") as fh:
        return rig_from_dict(json.load(fh))
