"""Dense feature pyramids, bilinear sampling, and multi-view aggregation.

Sampling convention: integer coordinates sit at pixel centers and level
coordinates equal full-resolution image pixels divided by the level stride.
Out-of-bounds samples contribute a zero feature with a zero visibility mask
instead of clamping.  Feature maps are stored as 32-bit floats in (C, H, W)
order, and stay that way: sampling gathers the four support corners of each
in-view position from that storage and widens only the gathered values to
64-bit, in which all interpolation and reduction arithmetic runs.  Widening
is exact, so results equal those of sampling a 64-bit copy of the level.

Multi-view sampling gathers only the in-view samples: for each
(camera, level) pair only the points in front of that camera whose position
falls inside that level are interpolated and accumulated.  A real scene puts
each point in one or two of the cameras, so most pairs are skipped.
``bilinear_grad``, the sampling gradient, selects and gathers the same way.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .camgeo import CameraRig, _json_fields, _json_int, _json_records, _json_text, _json_write, project_points

__all__ = [
    "FeatureError",
    "TensorFormatError",
    "FeatureLevel",
    "FeaturePyramid",
    "bilinear_sample_many",
    "bilinear_grad",
    "sample_multiview_many",
    "write_tensor",
    "read_tensor",
    "save_pyramid",
    "load_pyramid",
]

TENSOR_MAGIC = b"GDT3"
TENSOR_VERSION = 1
TENSOR_MAX_NDIM = 32


class FeatureError(ValueError):
    """Feature map inputs violate their invariants."""


class TensorFormatError(IOError):
    """A tensor file is malformed or uses an unsupported version."""


@dataclass(frozen=True)
class FeatureLevel:
    """One dense feature map of shape (C, H, W) plus its downsampling stride."""

    data: np.ndarray
    stride: int

    def __post_init__(self):
        arr = np.asarray(self.data)
        if arr.ndim != 3:
            raise FeatureError(f"feature data must be (C, H, W), got shape {arr.shape}")
        if min(arr.shape) < 1:
            raise FeatureError(f"feature dimensions must be >= 1, got {arr.shape}")
        if self.stride < 1:
            raise FeatureError(f"stride must be >= 1, got {self.stride}")
        arr = np.ascontiguousarray(arr, dtype=np.float32)
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)
        object.__setattr__(self, "stride", int(self.stride))

    @property
    def channels(self) -> int:
        return self.data.shape[0]

    @property
    def height(self) -> int:
        return self.data.shape[1]

    @property
    def width(self) -> int:
        return self.data.shape[2]


class FeaturePyramid:
    """Per-camera stacks of feature levels with identical shapes across cameras."""

    def __init__(self, levels_per_camera: Sequence[Sequence[FeatureLevel]]):
        cams = [tuple(levels) for levels in levels_per_camera]
        if not cams or not cams[0]:
            raise FeatureError("pyramid needs at least one camera with one level")
        ref = [(lv.data.shape, lv.stride) for lv in cams[0]]
        for levels in cams[1:]:
            if [(lv.data.shape, lv.stride) for lv in levels] != ref:
                raise FeatureError("all cameras must share identical per-level shapes")
        self._cams = tuple(cams)

    @property
    def camera_count(self) -> int:
        return len(self._cams)

    @property
    def level_count(self) -> int:
        return len(self._cams[0])

    @property
    def channels(self) -> int:
        return self._cams[0][0].channels

    @property
    def strides(self) -> tuple[int, ...]:
        return tuple(lv.stride for lv in self._cams[0])

    def levels(self, camera: int) -> tuple[FeatureLevel, ...]:
        return self._cams[camera]

    def __iter__(self):
        return iter(self._cams)


# ---------------------------------------------------------------------------
# Bilinear interpolation


def _inside_rows(level: FeatureLevel, pos: np.ndarray) -> np.ndarray:
    """Ascending indices of the (N, 2) level positions inside
    [0, W-1] x [0, H-1]; NaN positions are outside."""
    u = pos[:, 0]
    v = pos[:, 1]
    return np.flatnonzero((u >= 0) & (u <= level.width - 1) & (v >= 0) & (v <= level.height - 1))


def _bilinear_inside(level: FeatureLevel, pos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bilinearly sample the positions that fall inside the level.

    Nested linear interpolation keeps constant fields and integer grid
    points exact.  Only the inside rows are gathered, from the float32
    storage; the arithmetic widens the gathered corners to float64.

    Args:
        level: feature map to sample.
        pos: (N, 2) float64 positions in the level's own pixel grid; NaN
            positions are outside.

    Returns:
        (rows, feats): rows (M,) ascending indices into ``pos`` of the
        positions inside [0, W-1] x [0, H-1], and feats (M, C) float64.
    """
    rows = _inside_rows(level, pos)
    if not len(rows):
        return rows, np.empty((0, level.channels))
    w, h = level.width, level.height
    u = pos[:, 0][rows]
    v = pos[:, 1][rows]
    # floor keeps integer positions exact (frac 0); at u == width-1 the
    # second support column collapses onto the first.
    x0 = np.floor(u).astype(np.int64)
    y0 = np.floor(v).astype(np.int64)
    fu = u - x0
    fv = v - y0
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    data = level.data
    top = _lerp(data[:, y0, x0], data[:, y0, x1], fu)
    bottom = _lerp(data[:, y1, x0], data[:, y1, x1], fu)
    return rows, _lerp(top, bottom, fv).T


def _lerp(a: np.ndarray, b: np.ndarray, t: np.ndarray) -> np.ndarray:
    """``a + t * (b - a)`` in float64, widening float32 operands exactly.
    The product and the sum reuse the difference's array (IEEE addition and
    multiplication commute, so the result is the same bit for bit)."""
    out = np.subtract(b, a, dtype=np.float64)
    out *= t
    out += a
    return out


def bilinear_sample_many(level: FeatureLevel, pos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bilinearly sample many positions at once.

    Args:
        level: feature map to sample.
        pos: (N, 2) continuous positions in the level's own pixel grid.

    Returns:
        (features, inside): features (N, C) float64, zero rows where the
        position falls outside [0, W-1] x [0, H-1] or is not finite;
        inside (N,) bool.
    """
    pos = np.asarray(pos, dtype=np.float64).reshape(-1, 2)
    rows, vals = _bilinear_inside(level, pos)
    feats = np.zeros((len(pos), level.channels), dtype=np.float64)
    feats[rows] = vals
    inside = np.zeros(len(pos), dtype=bool)
    inside[rows] = True
    return feats, inside


def bilinear_grad(level: FeatureLevel, pos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Analytic derivative of the sampled feature w.r.t. the sample position,
    at the rows and from the corners that ``_bilinear_inside`` samples.

    On an integer coordinate line, where the interpolant has a kink, this is
    the one-sided derivative of the cell to the right or below (to the left
    or above on the last column or row).

    Args:
        level: feature map.
        pos: (N, 2) positions in the level's own pixel grid; NaN is outside.

    Returns:
        (rows, grads): rows (M,) ascending indices into ``pos`` of the
        positions inside [0, W-1] x [0, H-1]; grads (M, C, 2) float64 with
        columns d/du and d/dv.
    """
    pos = np.asarray(pos, dtype=np.float64).reshape(-1, 2)
    rows = _inside_rows(level, pos)
    if not len(rows):
        return rows, np.empty((0, level.channels, 2))
    w, h = level.width, level.height
    u, v = pos[rows].T
    x0 = np.clip(np.floor(u), 0, max(w - 2, 0)).astype(np.int64)
    y0 = np.clip(np.floor(v), 0, max(h - 2, 0)).astype(np.int64)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fu = u - x0
    fv = v - y0
    data = level.data
    f00 = data[:, y0, x0].astype(np.float64)
    f10 = data[:, y0, x1].astype(np.float64)
    f01 = data[:, y1, x0].astype(np.float64)
    f11 = data[:, y1, x1].astype(np.float64)
    du = (1 - fv) * (f10 - f00) + fv * (f11 - f01)
    dv = (1 - fu) * (f01 - f00) + fu * (f11 - f10)
    return rows, np.stack([du.T, dv.T], axis=-1)


# ---------------------------------------------------------------------------
# Multi-view aggregation


def _resolve_scales(image_scale, camera_count: int) -> np.ndarray:
    if image_scale is None:
        return np.ones((camera_count, 2), dtype=np.float64)
    arr = np.asarray(image_scale, dtype=np.float64)
    if arr.shape == (2,):
        arr = np.tile(arr, (camera_count, 1))
    if arr.shape != (camera_count, 2):
        raise FeatureError(
            f"image_scale must be (2,) or ({camera_count}, 2), got {arr.shape}"
        )
    return arr


# Points are sampled in blocks so that each block's per-camera temporaries
# stay cache-sized: the cost then grows linearly with the point count
# instead of jumping where the temporaries outgrow the cache.
_BLOCK_POINTS = 16384


def sample_multiview_many(
    pyr: FeaturePyramid,
    rig: CameraRig,
    points: np.ndarray,
    image_scale=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Visibility-normalized mean of bilinear samples across cameras and levels.

    Each point is projected into every camera; per level the image-plane
    position is scaled by the per-camera resize factor and divided by the
    level stride.  Only the samples in front of a camera and inside a level
    are gathered; the others carry a zero mask.  The returned feature is the
    sum of the gathered samples divided by their count, accumulated
    camera-major then level in a fixed order.

    Returns:
        (features, counts): features (N, C) float64 (zero rows where no
        sample was visible) and counts (N,) of visible (camera, level) pairs.
    """
    if pyr.camera_count != len(rig):
        raise FeatureError(
            f"pyramid has {pyr.camera_count} cameras but rig has {len(rig)}"
        )
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    scales = _resolve_scales(image_scale, len(rig))
    n = len(pts)
    total = np.zeros((n, pyr.channels), dtype=np.float64)
    counts = np.zeros(n, dtype=np.int64)
    for start in range(0, n, _BLOCK_POINTS):
        block = pts[start : start + _BLOCK_POINTS]
        for ci, cam in enumerate(rig):
            pixels, depths = project_points(block, cam)
            front = np.flatnonzero(depths > 0)
            if not len(front):
                continue
            scaled = pixels[front] * scales[ci]
            front += start
            for level in pyr.levels(ci):
                rows, feats = _bilinear_inside(level, scaled / level.stride)
                rows = front[rows]
                total[rows] += feats
                counts[rows] += 1
    # Rows without a visible sample stay zero.
    np.divide(total, counts[:, None], out=total, where=counts[:, None] > 0)
    return total, counts


# ---------------------------------------------------------------------------
# Binary tensor files ("GDT3": magic, u32 version, u32 ndim, ndim x u64 dims,
# then little-endian f32 data in row-major order)


def write_tensor(path, array: np.ndarray) -> None:
    arr = np.ascontiguousarray(array, dtype="<f4")
    with open(path, "wb") as fh:
        fh.write(TENSOR_MAGIC)
        fh.write(struct.pack("<II", TENSOR_VERSION, arr.ndim))
        fh.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        fh.write(arr.tobytes(order="C"))


def read_tensor(path) -> np.ndarray:
    """Read a GDT3 tensor.  The header is checked against the file before
    the payload is read, so a hostile header cannot request a huge read."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        magic = fh.read(4)
        if magic != TENSOR_MAGIC:
            raise TensorFormatError(f"{path}: bad magic {magic!r}")
        header = fh.read(8)
        if len(header) != 8:
            raise TensorFormatError(f"{path}: truncated header")
        version, ndim = struct.unpack("<II", header)
        if version != TENSOR_VERSION:
            raise TensorFormatError(f"{path}: unsupported version {version}")
        if ndim > TENSOR_MAX_NDIM:
            raise TensorFormatError(f"{path}: ndim {ndim} exceeds {TENSOR_MAX_NDIM}")
        dims_raw = fh.read(8 * ndim)
        if len(dims_raw) != 8 * ndim:
            raise TensorFormatError(f"{path}: truncated dims")
        dims = struct.unpack(f"<{ndim}Q", dims_raw)
        # Python ints: a product of u64 dims cannot wrap.
        nbytes = 4 * math.prod(dims)
        remaining = size - fh.tell()
        if nbytes > remaining:
            raise TensorFormatError(
                f"{path}: truncated payload (dims {dims} need {nbytes} bytes, {remaining} remain)"
            )
        payload = fh.read(nbytes)
        if len(payload) != nbytes:
            raise TensorFormatError(f"{path}: truncated payload")
        try:
            return np.frombuffer(payload, dtype="<f4").reshape(dims).copy()
        except ValueError as exc:  # e.g. a zero-size shape with a dim numpy cannot index
            raise TensorFormatError(f"{path}: unsupported shape {dims}: {exc}") from exc


def save_pyramid(directory, pyr: FeaturePyramid) -> str:
    """Write one tensor file per (camera, level) plus a manifest; returns the manifest path."""
    os.makedirs(directory, exist_ok=True)
    cameras = []
    for ci in range(pyr.camera_count):
        entries = []
        for li, level in enumerate(pyr.levels(ci)):
            fname = f"cam{ci:02d}_level{li}.gdt3"
            write_tensor(os.path.join(directory, fname), level.data)
            entries.append({"file": fname, "stride": level.stride})
        cameras.append({"levels": entries})
    manifest_path = os.path.join(directory, "pyramid.json")
    _json_write(manifest_path, {"version": TENSOR_VERSION, "cameras": cameras})
    return manifest_path


def load_pyramid(manifest_path) -> FeaturePyramid:
    with open(manifest_path, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    base = os.path.dirname(os.path.abspath(manifest_path))
    what = f"pyramid manifest {manifest_path}"
    version = _json_fields(manifest, {"version": _json_int}, FeatureError, what)["version"]
    if version != TENSOR_VERSION:
        raise FeatureError(f"{what}: unsupported version {version}")
    cams = []
    for cam_entry in _json_records(manifest, "cameras", FeatureError, what):
        levels = []
        for lv in _json_records(cam_entry, "levels", FeatureError, f"a camera of {manifest_path}"):
            lv = _json_fields(lv, {"file": _json_text, "stride": _json_int}, FeatureError, f"a level of {manifest_path}")
            levels.append(FeatureLevel(data=read_tensor(os.path.join(base, lv["file"])), stride=lv["stride"]))
        cams.append(levels)
    return FeaturePyramid(cams)
