"""Multi-camera pinhole geometry: projection, visibility, boxes, region labels.

Conventions used throughout the package:

* Ego frame: x forward, y left, z up; meters; right-handed.
* Camera frame: x right, y down, z forward (optical axis).
* Image frame: u right, v down, pixels; integer coordinates sit at pixel
  centers.
* Extrinsics map ego to camera: ``p_cam = rotation @ p_ego + translation``.
* Visibility uses half-open pixel bounds ``[0, width) x [0, height)`` and
  strictly positive depth, so behind-camera points are never visible.

All forward projection arithmetic lives in one private core, ``_project(points,
cameras)``, which returns u, v and depth as one (len(cameras), N) array per
axis.  Computing per axis in a fixed elementwise order keeps every result
independent of the batch (no BLAS matmul, whose rounding depends on shape)
and builds no (N, 3) temporaries; ``project_points``, ``visible_counts``
and the package's samplers read from it.
"""

from __future__ import annotations

import enum
import json
import math
import numbers
import operator
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

__all__ = [
    "GeometryError",
    "normalize_yaw",
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
# Largest accepted image side in pixels, so that a hostile calibration or
# scale factor cannot produce image sizes no array could hold.
_MAX_IMAGE_SIDE = 2**16


class GeometryError(ValueError):
    """Camera or box parameters violate their invariants."""


def _check_array(arr: np.ndarray, shape: tuple, name: str, error: type[Exception]) -> np.ndarray:
    """``arr``, unchanged; raises ``error`` unless its shape is ``shape``,
    where a ``None`` dimension takes any length, and every value is finite.
    Every array the package stores passes this check."""
    if arr.shape != shape and (
        arr.ndim != len(shape) or any(want not in (None, got) for want, got in zip(shape, arr.shape))
    ):
        raise error(f"{name} must have shape {shape}, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise error(f"{name} contains non-finite values")
    return arr


def _as_array(values, shape: tuple, name: str, error: type[Exception]) -> np.ndarray:
    """A read-only, C-ordered float64 copy of ``values`` that passes
    ``_check_array``, the one form in which the package stores a float64
    array."""
    arr = _check_array(np.array(values, dtype=np.float64, order="C"), shape, name, error)
    arr.flags.writeable = False
    return arr


def _scaled_side(n: int, r: float, error: type[Exception]) -> int:
    """Image side ``n`` resized by factor ``r``, rounded half to even (the
    same on every platform); raises ``error`` unless the result is a finite
    side in [1, _MAX_IMAGE_SIDE]."""
    if not math.isfinite(n * r):
        raise error(f"resize factor {r} makes dimension {n} non-finite")
    out = round(n * r)
    if out < 1:
        raise error(f"resize factor {r} collapses dimension {n} below one pixel")
    if out > _MAX_IMAGE_SIDE:
        raise error(f"resize factor {r} makes dimension {n} exceed {_MAX_IMAGE_SIDE} pixels")
    return out


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
        for key in ("fx", "fy", "cx", "cy"):
            object.__setattr__(self, key, _check_float(getattr(self, key), key, GeometryError))
        if not (self.fx > 0 and self.fy > 0):
            raise GeometryError(f"focal lengths must be positive, got ({self.fx}, {self.fy})")
        for side in ("width", "height"):
            object.__setattr__(self, side, _check_int(getattr(self, side), side, GeometryError, lo=1, hi=_MAX_IMAGE_SIDE))
        if not (0 <= self.cx < self.width and 0 <= self.cy < self.height):
            raise GeometryError(
                f"principal point ({self.cx}, {self.cy}) outside image "
                f"{self.width}x{self.height}"
            )

    def scaled(self, r: float) -> "CameraIntrinsics":
        """Intrinsics for an image resized by factor ``r`` (sides as ``_scaled_side``)."""
        return CameraIntrinsics(
            fx=self.fx * r,
            fy=self.fy * r,
            cx=self.cx * r,
            cy=self.cy * r,
            width=_scaled_side(self.width, r, GeometryError),
            height=_scaled_side(self.height, r, GeometryError),
        )


@dataclass(frozen=True)
class CameraExtrinsics:
    """Ego-to-camera rigid transform."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        rot = _as_array(self.rotation, (3, 3), "rotation", GeometryError)
        trans = _as_array(self.translation, (3,), "translation", GeometryError)
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
        center = _as_array(self.center, (3,), "center", GeometryError)
        size = _as_array(self.size, (3,), "size", GeometryError)
        velocity = _as_array(self.velocity, (2,), "velocity", GeometryError)
        if not np.all(size > 0):
            raise GeometryError(f"box size must be positive, got {size}")
        if not math.isfinite(float(self.yaw)):
            raise GeometryError(f"box yaw must be finite, got {self.yaw}")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "velocity", velocity)
        object.__setattr__(self, "yaw", normalize_yaw(self.yaw))
        object.__setattr__(self, "class_id", _check_int(self.class_id, "class_id", GeometryError))
        object.__setattr__(self, "attribute_id", _check_int(self.attribute_id, "attribute_id", GeometryError))


@dataclass(frozen=True)
class DetectionResult:
    """A scored 3D box prediction.  The score is stored as a Python float,
    so every consumer sees the same value (an int beyond 2**53 is rounded
    once, here)."""

    box: Box3D
    score: float

    def __post_init__(self):
        if not math.isfinite(self.score):
            raise GeometryError(f"score must be finite, got {self.score}")
        object.__setattr__(self, "score", float(self.score))


@dataclass(frozen=True)
class SceneBounds:
    """Axis-aligned box with positive extent on every axis."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = _as_array(self.lo, (3,), "lo", GeometryError)
        hi = _as_array(self.hi, (3,), "hi", GeometryError)
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


def _project(points: np.ndarray, cameras: Sequence[CameraModel]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The projection core: ego-frame points in each of ``cameras``.

    Every projection in the package goes through here.  Each camera-frame
    axis is one (len(cameras), N) array, ``((x*R[i,0] + y*R[i,1]) + z*R[i,2])
    + t[i]``, and the pixels are ``fx*X/Z + cx`` and ``fy*Y/Z + cy``.  These
    are elementwise operations in a fixed order, so a point's values do not
    depend on the other points or cameras of the call (a BLAS matmul rounds
    by shape), and no (N, 3) temporary is built.

    Args:
        points: (N, 3) ego-frame points in meters.
        cameras: the cameras to project into.

    Returns:
        (u, v, depth), each (len(cameras), N).  u and v are meaningless
        where depth <= 0 (behind the camera); callers mask them by depth.
    """
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
    rot = np.array([cam.extrinsics.rotation for cam in cameras])[..., None]
    trans = np.array([cam.extrinsics.translation for cam in cameras])[..., None]
    cam_x, cam_y, depth = (x * rot[:, i, 0] + y * rot[:, i, 1] + z * rot[:, i, 2] + trans[:, i] for i in range(3))
    intr = [cam.intrinsics for cam in cameras]
    fx, fy, cx, cy = np.array([(k.fx, k.fy, k.cx, k.cy) for k in intr]).T[..., None]
    with np.errstate(divide="ignore", invalid="ignore"):
        u = fx * cam_x / depth + cx
        v = fy * cam_y / depth + cy
    return u, v, depth


def _in_image(u: np.ndarray, v: np.ndarray, depth: np.ndarray, cameras: Sequence[CameraModel]) -> np.ndarray:
    """(len(cameras), N) visibility of ``_project``'s output: positive depth
    and a pixel inside the camera's half-open image bounds."""
    width, height = np.array([(cam.intrinsics.width, cam.intrinsics.height) for cam in cameras]).T[..., None]
    with np.errstate(invalid="ignore"):
        return (depth > 0) & (u >= 0) & (u < width) & (v >= 0) & (v < height)


def project_points(points: np.ndarray, cam: CameraModel) -> tuple[np.ndarray, np.ndarray]:
    """Project ego-frame points into one camera.

    A thin wrapper over the core ``_project``, which computes one array per
    axis so that a point's pixel does not depend on the other points of the
    call and no (N, 3) temporaries are built; only this wrapper stacks the
    (N, 2) pixels and writes NaN behind the camera.

    Args:
        points: (N, 3) ego-frame points in meters.
        cam: target camera.

    Returns:
        (pixels, depths) with pixels (N, 2) and depths (N,).  Pixels are NaN
        where depth <= 0 (behind the camera).
    """
    (u,), (v,), (depths,) = _project(points, (cam,))
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


def visible_counts(points: np.ndarray, rig: CameraRig) -> np.ndarray:
    """Number of rig cameras in which each point is visible; (N,) ints, from
    one core call over the whole rig."""
    return _in_image(*_project(points, rig.cameras), rig.cameras).sum(axis=0)


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


def _box_corners(boxes: Sequence[Box3D]) -> np.ndarray:
    """(B, 8, 3) corners of B boxes in the ego frame: one stacked
    (B, 8, 3) @ (B, 3, 3) matmul of the half-size offsets with each box's
    yaw rotation, built from ``math.cos``/``math.sin`` per yaw."""
    n = len(boxes)
    half = np.array([b.size for b in boxes]).reshape(n, 3) / 2.0
    centers = np.array([b.center for b in boxes]).reshape(n, 3)
    cos = np.array([math.cos(b.yaw) for b in boxes])
    sin = np.array([math.sin(b.yaw) for b in boxes])
    rot = np.zeros((n, 3, 3))
    rot[:, 0, 0] = cos
    rot[:, 0, 1] = -sin
    rot[:, 1, 0] = sin
    rot[:, 1, 1] = cos
    rot[:, 2, 2] = 1.0
    offsets = _CORNER_SIGNS * half[:, None, :]
    return centers[:, None, :] + offsets @ rot.transpose(0, 2, 1)


def box_corners(b: Box3D) -> np.ndarray:
    """The 8 corners of the box, (8, 3), in the ego frame."""
    return _box_corners([b])[0]


# Region label by the most cameras any probe point of a box is visible in,
# capped at 2.
_REGION_BY_COUNT = (RegionLabel.INVISIBLE, RegionLabel.NON_OVERLAPPING, RegionLabel.OVERLAPPING)


def classify_regions(boxes: Sequence[Box3D], rig: CameraRig) -> list[RegionLabel]:
    """Region label per box, vectorized across boxes.

    A box is OVERLAPPING when its centroid or any corner is visible in two
    or more cameras, NON_OVERLAPPING when the most-covered of those points
    is visible in exactly one camera, and INVISIBLE otherwise.  The label is
    invariant under permutation of the rig's camera order.
    """
    if not boxes:
        return []
    centers = np.array([b.center for b in boxes])
    probes = np.concatenate([centers[:, None, :], _box_corners(boxes)], axis=1)
    counts = visible_counts(probes.reshape(-1, 3), rig).reshape(len(boxes), 9)
    return [_REGION_BY_COUNT[c] for c in np.minimum(counts.max(axis=1), 2).tolist()]


def pixel_size(intr: CameraIntrinsics) -> float:
    """Pixel size sqrt(1/fx^2 + 1/fy^2); converts metric depth to pixel-level depth."""
    return math.sqrt(1.0 / intr.fx**2 + 1.0 / intr.fy**2)


# ---------------------------------------------------------------------------
# Calibration JSON


# The calibration keys that are ``CameraIntrinsics`` fields of the same name:
# four floats, then the two image sides.
_INTRINSICS_KEYS = ("fx", "fy", "cx", "cy", "width", "height")


def rig_to_dict(rig: CameraRig) -> dict:
    return {
        "cameras": [
            {
                "id": cam.id,
                **{key: getattr(cam.intrinsics, key) for key in _INTRINSICS_KEYS},
                "rotation": cam.extrinsics.rotation.reshape(-1).tolist(),
                "translation": cam.extrinsics.translation.tolist(),
            }
            for cam in rig
        ]
    }


def _json_write(path, payload) -> None:
    """Write ``payload`` as sorted, 2-space-indented JSON plus a newline;
    every JSON file the package writes goes through here.  The text is built
    before the file is opened, so a payload that cannot be serialized
    leaves an existing file as it was."""
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _json_read(path, error: type[Exception]):
    """The JSON document in ``path``; malformed JSON, text that is not UTF-8,
    over-long integers and nesting too deep to parse raise ``error``."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise error(f"{path}: unreadable JSON ({exc})") from exc


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
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
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


def _check_int(value, name: str, error: type[Exception], lo: int | None = None, hi: int | None = None) -> int:
    """``value`` as an int by ``_json_int``'s rule, at least ``lo`` and at
    most ``hi`` where they are given; raises ``error`` naming ``name`` for
    anything else, so a fractional size or id is never truncated.  Every
    size, count, stride and class index the package takes passes here."""
    try:
        checked = _json_int(value)
    except TypeError as exc:
        raise error(f"{name} must be an integer, got {value!r}") from exc
    if lo is not None and checked < lo:
        raise error(f"{name} must be at least {lo}, got {_int_text(checked)}")
    if hi is not None and checked > hi:
        raise error(f"{name} must be at most {hi}, got {_int_text(checked)}")
    return checked


def _int_text(value: int) -> str:
    """``value`` in decimal, or by its bit length where it has more digits
    than Python converts to text."""
    try:
        return str(value)
    except ValueError:
        return f"an integer of {value.bit_length()} bits"


def _json_float(value) -> float:
    """A number as a Python float; numeric strings and booleans are
    refused."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def _check_float(value, name: str, error: type[Exception]) -> float:
    """``value`` as a finite Python float by ``_json_float``'s rule; raises
    ``error`` naming ``name`` for anything else.  A float64 keeps its
    bits."""
    try:
        checked = _json_float(value)
    except (TypeError, OverflowError) as exc:
        raise error(f"{name} must be a finite number, got {value!r}") from exc
    if not math.isfinite(checked):
        raise error(f"{name} must be a finite number, got {value!r}")
    return checked


def _json_floats(value) -> np.ndarray:
    items = np.asarray(value, dtype=object)  # a number or nested lists of them
    # ravel, not flat: numpy's iterator refuses arrays of more than 32 dims.
    return np.array([_json_float(v) for v in items.ravel()], dtype=np.float64).reshape(items.shape)


# Each key of a box record: the ``Box3D`` attribute it holds and its parser.
_BOX_FIELDS = {
    "center": ("center", _json_floats),
    "size": ("size", _json_floats),
    "yaw": ("yaw", _json_float),
    "velocity": ("velocity", _json_floats),
    "class": ("class_id", _json_int),
    "attribute": ("attribute_id", _json_int),
}


def _box_to_json(box: Box3D) -> dict:
    """The box fields of a prediction or annotation record."""
    return {key: np.asarray(getattr(box, attr)).tolist() for key, (attr, _) in _BOX_FIELDS.items()}


def _box_from_json(entry: dict, error: type[Exception], what: str) -> Box3D:
    """The box of a prediction or annotation record; velocity, class and
    attribute default to zero."""
    entry = {"velocity": (0.0, 0.0), "class": 0, "attribute": 0, **entry}
    f = _json_fields(entry, {key: parse for key, (_, parse) in _BOX_FIELDS.items()}, error, what)
    return Box3D(**{attr: f[key] for key, (attr, _) in _BOX_FIELDS.items()})


_CAMERA_FIELDS = {
    **dict.fromkeys(_INTRINSICS_KEYS[:4], _json_float),
    **dict.fromkeys(_INTRINSICS_KEYS[4:], _json_int),
    "rotation": lambda value: _json_floats(value).reshape(3, 3),
    "translation": _json_floats,
    "id": _json_text,
}


def rig_from_dict(data: dict) -> CameraRig:
    cameras = []
    for entry in _json_records(data, "cameras", GeometryError, "calibration data"):
        f = _json_fields(entry, _CAMERA_FIELDS, GeometryError, "calibration camera")
        intr = CameraIntrinsics(**{key: f[key] for key in _INTRINSICS_KEYS})
        extr = CameraExtrinsics(rotation=f["rotation"], translation=f["translation"])
        cameras.append(CameraModel(intrinsics=intr, extrinsics=extr, id=f["id"]))
    return CameraRig(cameras=tuple(cameras))


def save_rig(path, rig: CameraRig) -> None:
    _json_write(path, rig_to_dict(rig))


def load_rig(path) -> CameraRig:
    return rig_from_dict(_json_read(path, GeometryError))
