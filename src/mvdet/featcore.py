"""Dense feature pyramids, bilinear sampling, and multi-view aggregation.

Sampling convention: integer coordinates sit at pixel centers and level
coordinates equal full-resolution image pixels divided by the level stride.
Out-of-bounds samples contribute a zero feature with a zero visibility mask
instead of clamping.  Feature maps are stored as 32-bit floats channel-last,
one contiguous row of C values per pixel, and are exposed in (C, H, W) order
as a view of that storage.  Sampling gathers each support corner of an
in-view position as one such row and widens only the gathered values to
64-bit, in which all interpolation and reduction arithmetic runs, one row
per position.  Widening is exact, so results equal those of sampling a
64-bit copy of the level.

Multi-view sampling gathers only the in-view samples: for each
(camera, level) pair only the points in front of that camera whose position
falls inside that level are interpolated and accumulated.  A real scene puts
each point in one or two of the cameras, so most pairs are skipped.
``bilinear_grad``, the sampling gradient, selects and gathers the same way.

On a machine whose CPU affinity allows two or more CPUs, a large
multi-view call samples its two halves of the points on two threads.  A
point's row depends on no other point, so the split changes no bit.
"""

from __future__ import annotations

import math
import os
import struct
import threading
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .camgeo import CameraRig, _json_fields, _json_int, _json_read, _json_records, _json_text, _json_write, _project

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
    """One dense feature map of shape (C, H, W) plus its downsampling stride.

    The values live in one read-only, C-contiguous (H, W, C) float32 buffer
    that the level owns: it is always a copy of the input, so no other
    array can change it.  ``data`` is the (C, H, W) view of it and
    ``pixels`` the (H * W, C) view, one row per pixel in row-major order,
    which sampling gathers from.
    """

    data: np.ndarray
    stride: int
    pixels: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        arr = np.asarray(self.data)
        if arr.ndim != 3:
            raise FeatureError(f"feature data must be (C, H, W), got shape {arr.shape}")
        if min(arr.shape) < 1:
            raise FeatureError(f"feature dimensions must be >= 1, got {arr.shape}")
        if self.stride < 1:
            raise FeatureError(f"stride must be >= 1, got {self.stride}")
        hwc = np.array(arr.transpose(1, 2, 0), dtype=np.float32, order="C")
        hwc.flags.writeable = False
        object.__setattr__(self, "data", hwc.transpose(2, 0, 1))
        object.__setattr__(self, "pixels", hwc.reshape(-1, arr.shape[0]))
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


# ---------------------------------------------------------------------------
# Bilinear interpolation


def _inside_rows(level: FeatureLevel, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Ascending indices of the (N,) level positions (u, v) inside
    [0, W-1] x [0, H-1]; NaN positions are outside."""
    return np.flatnonzero((u >= 0) & (u <= level.width - 1) & (v >= 0) & (v <= level.height - 1))


def _bilinear_inside(level: FeatureLevel, u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bilinearly sample the positions that fall inside the level.

    Nested linear interpolation keeps constant fields and integer grid
    points exact.  Only the inside rows are gathered, from the float32
    storage; the arithmetic widens the gathered corners to float64.

    Args:
        level: feature map to sample.
        u, v: (N,) float64 positions in the level's own pixel grid; NaN
            positions are outside.

    Returns:
        (rows, feats): rows (M,) ascending indices of the positions inside
        [0, W-1] x [0, H-1], and feats (M, C) float64.
    """
    rows = _inside_rows(level, u, v)
    if not len(rows):
        return rows, np.empty((0, level.channels))
    w, h = level.width, level.height
    u = u[rows]
    v = v[rows]
    # floor keeps integer positions exact (frac 0); at u == width-1 the
    # second support column collapses onto the first.
    x0 = np.floor(u).astype(np.int64)
    y0 = np.floor(v).astype(np.int64)
    fu = (u - x0)[:, None]
    fv = (v - y0)[:, None]
    x1 = np.minimum(x0 + 1, w - 1)
    # Row y of the level starts at pixel y * W of ``pixels``.
    top = y0 * w
    bottom = np.minimum(y0 + 1, h - 1) * w
    pix = level.pixels
    upper = _lerp(pix[top + x0], pix[top + x1], fu)
    lower = _lerp(pix[bottom + x0], pix[bottom + x1], fu)
    return rows, _lerp(upper, lower, fv, out=lower)


def _lerp(a: np.ndarray, b: np.ndarray, t: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``a + t * (b - a)`` in float64, widening float32 operands exactly.
    The product and the sum reuse the difference's array, ``out`` if given
    (IEEE addition and multiplication commute, so the result is the same bit
    for bit)."""
    out = np.subtract(b, a, out=out, dtype=np.float64)
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
    rows, vals = _bilinear_inside(level, pos[:, 0], pos[:, 1])
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
    rows = _inside_rows(level, pos[:, 0], pos[:, 1])
    if not len(rows):
        return rows, np.empty((0, level.channels, 2))
    w, h = level.width, level.height
    u, v = pos[rows].T
    x0 = np.clip(np.floor(u), 0, max(w - 2, 0)).astype(np.int64)
    y0 = np.clip(np.floor(v), 0, max(h - 2, 0)).astype(np.int64)
    x1 = np.minimum(x0 + 1, w - 1)
    fu = (u - x0)[:, None]
    fv = (v - y0)[:, None]
    top = y0 * w
    bottom = np.minimum(y0 + 1, h - 1) * w
    pix = level.pixels
    f00 = pix[top + x0].astype(np.float64)
    f10 = pix[top + x1].astype(np.float64)
    f01 = pix[bottom + x0].astype(np.float64)
    f11 = pix[bottom + x1].astype(np.float64)
    du = (1 - fv) * (f10 - f00) + fv * (f11 - f01)
    dv = (1 - fu) * (f01 - f00) + fu * (f11 - f10)
    return rows, np.stack([du, dv], axis=-1)


# ---------------------------------------------------------------------------
# Two-thread split


def _cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


# Threads ``_split_rows`` may use: two where the process may run on two CPUs
# when the package is imported.  numpy releases the GIL in the elementwise,
# gather, scatter and matmul loops the halves spend their time in.
_WORKERS = min(2, _cpu_count())

# Floors below which a split costs more than it saves, measured on a 2-vCPU
# VM: a call of fewer elements (items times width) saves less than a
# thread's start and join (a 256-query softmax ran slower on two threads),
# and in narrower rows too little of the work is in the loops that release
# the GIL (sampling 8-channel rows ran slower on two threads than on one).
_SPLIT_MIN_SIZE = 2**18
_SPLIT_MIN_WIDTH = 32


def _split_rows(n: int, width: int, fn) -> None:
    """Run ``fn(start, stop)`` over ``range(n)`` items (rows or heads) of
    ``width`` values each, on two threads when ``_WORKERS`` allows it and the
    items reach ``_SPLIT_MIN_WIDTH`` and ``_SPLIT_MIN_SIZE``: the calling
    thread runs the first half and a new thread the second.  ``fn`` must
    write only to its own items, so the result does not depend on the split.
    An exception in either half reaches the caller once both halves end."""
    if _WORKERS < 2 or width < _SPLIT_MIN_WIDTH or n * width < _SPLIT_MIN_SIZE or n < 2:
        fn(0, n)
        return
    mid = (n + 1) // 2
    failure = []

    def second_half():
        try:
            fn(mid, n)
        except BaseException as exc:
            failure.append(exc)

    worker = threading.Thread(target=second_half)
    worker.start()
    try:
        fn(0, mid)
    finally:
        worker.join()
    if failure:
        raise failure[0]


# ---------------------------------------------------------------------------
# Multi-view aggregation


# Points are sampled in blocks so that each block's per-camera temporaries
# (the core's per-axis projection rows and the per-level gathers) stay
# cache-sized: the cost then grows linearly with the point count instead of
# jumping where the temporaries outgrow the cache.
_BLOCK_POINTS = 16384


def sample_multiview_many(
    pyr: FeaturePyramid,
    rig: CameraRig,
    points: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Visibility-normalized mean of bilinear samples across cameras and levels.

    Each point is projected into every camera; per level the image-plane
    position is divided by the level stride.  Only the samples in front of a
    camera and inside a level are gathered; the others carry a zero mask.
    Resizing an image is expressed in the rig's intrinsics
    (``CameraIntrinsics.scaled``), not here.  The returned feature is the
    sum of the gathered samples divided by their count, accumulated
    camera-major then level in a fixed order.  A large call samples two
    halves of the points on two threads (``_split_rows``).

    Returns:
        (features, counts): features (N, C) float64 (zero rows where no
        sample was visible) and counts (N,) of visible (camera, level) pairs.
    """
    if pyr.camera_count != len(rig):
        raise FeatureError(
            f"pyramid has {pyr.camera_count} cameras but rig has {len(rig)}"
        )
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    n = len(pts)
    total = np.zeros((n, pyr.channels), dtype=np.float64)
    counts = np.zeros(n, dtype=np.int64)

    def sample(lo: int, hi: int) -> None:
        # Each call writes only the rows lo:hi of total and counts.
        for start in range(lo, hi, _BLOCK_POINTS):
            block = pts[start : min(start + _BLOCK_POINTS, hi)]
            for ci, cam in enumerate(rig):
                # One camera per core call: a rig-wide call gains no time
                # here and holds every camera's arrays at once.
                (u,), (v,), (depths,) = _project(block, (cam,))
                front = np.flatnonzero(depths > 0)
                if not len(front):
                    continue
                u = u[front]
                v = v[front]
                front += start
                for level in pyr.levels(ci):
                    rows, feats = _bilinear_inside(level, u / level.stride, v / level.stride)
                    rows = front[rows]
                    total[rows] += feats
                    counts[rows] += 1
        # Rows without a visible sample stay zero.
        seen = counts[lo:hi, None]
        np.divide(total[lo:hi], seen, out=total[lo:hi], where=seen > 0)

    _split_rows(n, pyr.channels, sample)
    return total, counts


# ---------------------------------------------------------------------------
# Binary tensor files ("GDT3": magic, u32 version, u32 ndim, ndim x u64 dims,
# then little-endian f32 data in row-major order)


def write_tensor(path, array: np.ndarray) -> None:
    arr = np.asarray(array, dtype="<f4", order="C")
    with open(path, "wb") as fh:
        fh.write(TENSOR_MAGIC)
        fh.write(struct.pack("<II", TENSOR_VERSION, arr.ndim))
        fh.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        fh.write(arr.data)


def read_tensor(path) -> np.ndarray:
    """Read a GDT3 tensor into a new array.  The header is checked against
    the file before the payload is read, so a hostile header cannot request
    a huge read."""
    return _read_tensor(path, None)


def _read_tensor(path, scratch: np.ndarray | None) -> np.ndarray:
    """``read_tensor``, reading the payload into the front of the flat
    float32 ``scratch`` when it fits (the result is then a view of it) and
    into a new array otherwise."""
    # Before opening: a FIFO's open would wait for a writer. A missing file fails in open.
    if not os.path.isfile(path) and os.path.exists(path):
        raise TensorFormatError(f"{path}: not a regular file")
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
        count = math.prod(dims)
        nbytes = 4 * count
        remaining = size - fh.tell()
        if nbytes > remaining:
            raise TensorFormatError(
                f"{path}: truncated payload (dims {dims} need {nbytes} bytes, {remaining} remain)"
            )
        try:
            if scratch is not None and count <= scratch.size:
                arr = scratch[:count].reshape(dims)
            else:
                arr = np.empty(dims, dtype="<f4")
        except ValueError as exc:  # e.g. a zero-size shape with a dim numpy cannot index
            raise TensorFormatError(f"{path}: unsupported shape {dims}: {exc}") from exc
        # A flat byte view, not memoryview(arr).cast("B"), which rejects
        # zero-size arrays.
        if fh.readinto(arr.reshape(-1).view(np.uint8)) != nbytes:
            raise TensorFormatError(f"{path}: truncated payload")
        return arr


# Pixels per block of the channel-major copy: one block's (B, C) rows and
# (C, B) columns stay in cache, where numpy's whole-level transposing copy
# strides through memory.
_TRANSPOSE_BLOCK = 1024


def _channel_major(level: FeatureLevel) -> np.ndarray:
    """A new C-contiguous (C, H, W) copy of ``level``'s values."""
    pixels = level.pixels
    out = np.empty((level.channels, len(pixels)), dtype=np.float32)
    for s in range(0, len(pixels), _TRANSPOSE_BLOCK):
        out[:, s : s + _TRANSPOSE_BLOCK] = pixels[s : s + _TRANSPOSE_BLOCK].T
    return out.reshape(level.data.shape)


def save_pyramid(directory, pyr: FeaturePyramid) -> str:
    """Write one tensor file per (camera, level) plus a manifest; returns the manifest path."""
    os.makedirs(directory, exist_ok=True)
    # Cameras may share level objects, and the (C, H, W) copy of a
    # channel-last level is a transposing copy, so each object is converted
    # once.  Keys are ids of levels that ``pyr`` keeps alive.
    chw: dict[int, np.ndarray] = {}
    cameras = []
    for ci in range(pyr.camera_count):
        entries = []
        for li, level in enumerate(pyr.levels(ci)):
            if id(level) not in chw:
                chw[id(level)] = _channel_major(level)
            fname = f"cam{ci:02d}_level{li}.gdt3"
            write_tensor(os.path.join(directory, fname), chw[id(level)])
            entries.append({"file": fname, "stride": level.stride})
        cameras.append({"levels": entries})
    manifest_path = os.path.join(directory, "pyramid.json")
    _json_write(manifest_path, {"version": TENSOR_VERSION, "cameras": cameras})
    return manifest_path


def _unique_tensor_path(base: str, name: str, seen: set[str], error: type[Exception], what: str) -> str:
    """The path of tensor file ``name`` relative to ``base``.  ``seen`` holds
    the resolved paths named so far in one manifest; a file named twice is an
    error, so each file is read at most once."""
    path = os.path.join(base, name)
    resolved = os.path.realpath(path)
    if resolved in seen:
        raise error(f"{what}: tensor file {name!r} is named more than once")
    seen.add(resolved)
    return path


def _check_version(manifest, error: type[Exception], what: str) -> None:
    """Refuse a manifest whose ``version`` is not the integer TENSOR_VERSION."""
    version = _json_fields(manifest, {"version": _json_int}, error, what)["version"]
    if version != TENSOR_VERSION:
        raise error(f"{what}: unsupported version {version}")


def load_pyramid(manifest_path) -> FeaturePyramid:
    manifest = _json_read(manifest_path, FeatureError)
    base = os.path.dirname(os.path.abspath(manifest_path))
    what = f"pyramid manifest {manifest_path}"
    _check_version(manifest, FeatureError, what)
    cams = []
    seen: set[str] = set()
    # Each level copies its file's values into its own channel-last storage,
    # so all files are read through one buffer, kept at the largest payload
    # so far: a new array per file would cost a second fresh allocation of
    # every payload.
    scratch = np.empty(0, dtype="<f4")
    for cam_entry in _json_records(manifest, "cameras", FeatureError, what):
        levels = []
        for lv in _json_records(cam_entry, "levels", FeatureError, f"a camera of {manifest_path}"):
            lv = _json_fields(lv, {"file": _json_text, "stride": _json_int}, FeatureError, f"a level of {manifest_path}")
            path = _unique_tensor_path(base, lv["file"], seen, FeatureError, what)
            data = _read_tensor(path, scratch)
            if data.size > scratch.size:
                scratch = data.reshape(-1)
            levels.append(FeatureLevel(data=data, stride=lv["stride"]))
        cams.append(levels)
    return FeaturePyramid(cams)
