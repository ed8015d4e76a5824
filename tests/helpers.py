"""Builders shared by several test modules.

pytest puts this directory on ``sys.path`` (the tests are not a package),
so test modules import these as ``from helpers import ...``.
"""

import math

import numpy as np

from mvdet.augment import AnnotatedFrame, AnnotatedObject
from mvdet.camgeo import CameraExtrinsics, CameraIntrinsics, CameraModel, CameraRig, visible_counts
from mvdet.decoder import DecoderLayer, Mlp
from mvdet.featcore import FeatureLevel, FeaturePyramid
from mvdet.synth import gen_objects, gen_rig


# A JSON file nested too deeply for any JSON parser's recursion limit.
DEEP_JSON = b"[" * 200_000 + b"]" * 200_000


def make_frame(objects=None, rig=None):
    rig = rig or gen_rig("nuscenes-like")
    if objects is None:
        objects = tuple(
            AnnotatedObject(box=b, depth=float(np.linalg.norm(b.center[:2])))
            for b in gen_objects(1, 12)
        )
    return AnnotatedFrame(rig=rig, objects=objects)


def make_ident_cam(cam_id="c0", fx=100.0, width=64, height=48):
    return CameraModel(
        intrinsics=CameraIntrinsics(fx=fx, fy=fx, cx=width / 2, cy=height / 2, width=width, height=height),
        extrinsics=CameraExtrinsics(rotation=np.eye(3), translation=np.zeros(3)),
        id=cam_id,
    )


def visible_in(points, cam):
    """Boolean (N,) visibility of ``points`` in the one camera ``cam``:
    ``visible_counts`` over a one-camera rig."""
    return visible_counts(points, CameraRig(cameras=(cam,))) == 1


def seen_by(p, rig):
    """Indices of the rig cameras in which point ``p`` is visible, checked
    one camera at a time."""
    return {k for k, cam in enumerate(rig) if visible_in([p], cam)[0]}


def constant_pyramid(rig, values, strides=(2, 4)):
    """Per-camera constant pyramids; values is one scalar per camera."""
    cams = []
    for cam, value in zip(rig, values):
        levels = []
        for stride in strides:
            h = math.ceil(cam.intrinsics.height / stride)
            w = math.ceil(cam.intrinsics.width / stride)
            levels.append(FeatureLevel(data=np.full((1, h, w), value), stride=stride))
        cams.append(levels)
    return FeaturePyramid(cams)


def degenerate_layer(layer: DecoderLayer, dim: int) -> DecoderLayer:
    """Zero offsets and exactly-unit edge weights (sigmoid saturates to 1.0)."""
    k = 1
    off = Mlp.zeros([dim, dim, 3 * k])
    w = Mlp(weights=(np.zeros((k, dim)),), biases=(np.array([1e6]),), activations=("identity",))
    return DecoderLayer(
        ref_net=layer.ref_net, offset_net=off, weight_net=w, attention=layer.attention, ffn=layer.ffn
    )
