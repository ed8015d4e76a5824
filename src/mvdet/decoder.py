"""Query-based refinement decoder over multi-view feature pyramids.

Each decoder layer runs self-attention across object queries, decodes a 3D
reference point per query, gathers image evidence from a graph of nodes
around it, and applies a residual feed-forward block.  Every aggregation mode
is a graph, sampled in one call and merged in node order through the same
weighted sum:

* ``single-point``: a fixed graph of one node, the reference point.
* ``fixed-points``: a fixed graph of the reference point plus the corners of
  a nominal box around it, all with unit weights.
* ``dynamic-graph``: learned offset nodes with learned per-edge weights; with
  one neighbor, zero offset, and unit weight this reproduces
  ``single-point`` bit-exactly.

``grad_check`` is the finite-difference oracle of one query's dynamic-graph
aggregation, run on a fixed configuration (dim 16, 4 nodes, every component).
Its loss is the sum of the query plus the sum of the decoder's own
``_graph_update``, not the residual, as its field has 4 channels and its
queries 16.  It works in two phases: it chooses its probes one at a time,
jittering each off the bilinear and ReLU kinks, then scores the chosen probes
together, with one sampling call for their nodes' analytic gradients and one
``_graph_update`` call for all their finite-difference cases.

All parameters and arithmetic are 64-bit.  Given identical seeds and inputs
the decoder is bit-deterministic, on one thread or two: node sampling may
run on two threads split by rows and self-attention split by whole heads,
and each row's or head's values depend on no other.
"""

from __future__ import annotations

import enum
import math
import os
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .camgeo import (
    Box3D,
    CameraRig,
    DetectionResult,
    SceneBounds,
    _json_fields,
    _json_int,
    _json_read,
    _json_records,
    _json_text,
    _json_write,
    _project,
    box_corners,
    project_points,
)
from .featcore import (
    TENSOR_VERSION,
    FeaturePyramid,
    _check_version,
    _inside_rows,
    _split_rows,
    _unique_tensor_path,
    bilinear_grad,
    read_tensor,
    sample_multiview_many,
    write_tensor,
)
from .synth import AnalyticField, derived_rng, gen_rig, render_pyramid

__all__ = [
    "DecoderError",
    "Mlp",
    "QuerySet",
    "AttentionParams",
    "DecoderLayer",
    "PredictionHead",
    "AggregationMode",
    "sigmoid",
    "softmax",
    "decode_reference_point",
    "graph_nodes",
    "self_attention",
    "decoder_forward",
    "decode_predictions",
    "init_queries",
    "init_decoder",
    "save_params",
    "load_params",
    "grad_check",
    "GradCheckReport",
    "ComponentReport",
]


class DecoderError(ValueError):
    """Decoder configuration or numeric state is invalid."""


def _check_sizes(**sizes: int) -> None:
    for name, value in sizes.items():
        if value < 1:
            raise DecoderError(f"{name} must be at least 1, got {value}")


def sigmoid(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(np.minimum(x, -x))  # -|x|, keeping a NaN's sign bit as -np.abs would not
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


# ---------------------------------------------------------------------------
# MLPs


@dataclass(frozen=True)
class Mlp:
    """Fully connected layers with ReLU or identity activations.

    ``weights[i]`` has shape (out_i, in_i); activations name one of
    ``relu``/``identity`` per layer.  Inputs broadcast over leading axes.

    A row's output bits can depend on its batch: a flat (n, C) batch is one
    multi-row BLAS product, which rounds differently from the one-row
    product of a single (C,) input.  A (n, 1, C) stack is n one-row
    products, so each of its rows gets the one-row bits.
    """

    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]
    activations: tuple[str, ...]

    def __post_init__(self):
        ws = tuple(np.asarray(w, dtype=np.float64) for w in self.weights)
        bs = tuple(np.asarray(b, dtype=np.float64) for b in self.biases)
        acts = tuple(self.activations)
        if not (len(ws) == len(bs) == len(acts)) or not ws:
            raise DecoderError("weights, biases, activations must align and be nonempty")
        for i, (w, b, act) in enumerate(zip(ws, bs, acts)):
            if w.ndim != 2 or b.shape != (w.shape[0],):
                raise DecoderError(f"layer {i}: weight {w.shape} / bias {b.shape} mismatch")
            if act not in ("relu", "identity"):
                raise DecoderError(f"layer {i}: unknown activation {act!r}")
            if i and w.shape[1] != ws[i - 1].shape[0]:
                raise DecoderError(f"layer {i}: input dim {w.shape[1]} != previous out")
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise DecoderError(f"layer {i}: non-finite parameters")
        object.__setattr__(self, "weights", ws)
        object.__setattr__(self, "biases", bs)
        object.__setattr__(self, "activations", acts)

    @property
    def in_dim(self) -> int:
        return self.weights[0].shape[1]

    @property
    def out_dim(self) -> int:
        return self.weights[-1].shape[0]

    def __call__(self, x: np.ndarray) -> np.ndarray:
        z = self.preactivations(x)[-1]
        h = np.maximum(z, 0.0) if self.activations[-1] == "relu" else z
        if not np.all(np.isfinite(h)):
            raise DecoderError("MLP produced non-finite output")
        return h

    def preactivations(self, x: np.ndarray) -> list[np.ndarray]:
        """Per-layer preactivation values (before the nonlinearity)."""
        h = np.asarray(x, dtype=np.float64)
        pres = []
        for w, b, act in zip(self.weights, self.biases, self.activations):
            z = h @ w.T + b
            pres.append(z)
            h = np.maximum(z, 0.0) if act == "relu" else z
        return pres

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        """d output / d input at a single input point; shape (out_dim, in_dim)."""
        jac = None
        pres = self.preactivations(np.asarray(x, dtype=np.float64).reshape(self.in_dim))
        for z, w, act in zip(pres, self.weights, self.activations):
            jac = w if jac is None else w @ jac
            if act == "relu":
                jac = jac * (z > 0).astype(np.float64)[:, None]
        return jac

    @classmethod
    def seeded(cls, sizes: Sequence[int], rng: np.random.Generator) -> "Mlp":
        """Uniform(+-1/sqrt(fan_in)) init; ReLU on hidden layers, identity on
        the last."""
        ws, bs, acts = [], [], []
        for i in range(len(sizes) - 1):
            fan_in = sizes[i]
            bound = 1.0 / math.sqrt(fan_in)
            ws.append(rng.uniform(-bound, bound, size=(sizes[i + 1], fan_in)))
            bs.append(rng.uniform(-bound, bound, size=sizes[i + 1]))
            acts.append("identity" if i == len(sizes) - 2 else "relu")
        return cls(weights=tuple(ws), biases=tuple(bs), activations=tuple(acts))

    @classmethod
    def zeros(cls, sizes: Sequence[int]) -> "Mlp":
        ws = [np.zeros((sizes[i + 1], sizes[i])) for i in range(len(sizes) - 1)]
        bs = [np.zeros(sizes[i + 1]) for i in range(len(sizes) - 1)]
        acts = ["relu"] * (len(sizes) - 2) + ["identity"]
        return cls(weights=tuple(ws), biases=tuple(bs), activations=tuple(acts))


# ---------------------------------------------------------------------------
# Queries


@dataclass(frozen=True)
class QuerySet:
    """M object queries stored row-wise plus the scene box used to
    denormalize reference points."""

    embeddings: np.ndarray
    scene_bounds: SceneBounds

    def __post_init__(self):
        emb = np.asarray(self.embeddings, dtype=np.float64)
        if emb.ndim != 2 or emb.shape[0] < 1:
            raise DecoderError(f"embeddings must be (M, C) with M >= 1, got {emb.shape}")
        if not np.all(np.isfinite(emb)):
            raise DecoderError("query embeddings must be finite")
        emb = emb.copy()
        emb.flags.writeable = False
        object.__setattr__(self, "embeddings", emb)

    def __len__(self) -> int:
        return self.embeddings.shape[0]

    @property
    def dim(self) -> int:
        return self.embeddings.shape[1]


_MAX_QUERIES = 4096  # self-attention's two (M, M) float64 buffers: 256 MiB


def init_queries(seed: int, count: int, dim: int, bounds: SceneBounds) -> QuerySet:
    _check_sizes(count=count, dim=dim)
    if count > _MAX_QUERIES:
        raise DecoderError(f"count must be at most {_MAX_QUERIES}, got {count}")
    rng = derived_rng(seed, 10)
    bound = 1.0 / math.sqrt(dim)
    return QuerySet(embeddings=rng.uniform(-bound, bound, size=(count, dim)), scene_bounds=bounds)


# ---------------------------------------------------------------------------
# Reference points and dynamic graphs


def decode_reference_point(emb: np.ndarray, ref_net: Mlp, bounds: SceneBounds) -> np.ndarray:
    """Map query embeddings (..., C) to 3D points (..., 3) strictly inside
    ``bounds`` via a sigmoid."""
    if ref_net.out_dim != 3:
        raise DecoderError(f"reference net must output 3 values, got {ref_net.out_dim}")
    return bounds.lo + sigmoid(ref_net(emb)) * bounds.extent


def graph_nodes(
    emb: np.ndarray, refs: np.ndarray, offset_net: Mlp, weight_net: Mlp, offset_scale: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Predict each query's K graph nodes and edge weights.

    Offsets are ``offset_scale * tanh(offset_net(q))`` so nodes stay within
    a bounded walk of the reference point; weights pass through a per-edge
    sigmoid.

    Args:
        emb: (..., C) query embeddings.
        refs: (..., 3) reference points.

    Returns:
        (nodes, offsets, weights): nodes ``refs + offsets`` and offsets
        (..., K, 3), weights (..., K).
    """
    k = weight_net.out_dim
    if offset_net.out_dim != 3 * k:
        raise DecoderError(f"offset net must output {3 * k} values, got {offset_net.out_dim}")
    offsets = offset_scale * np.tanh(offset_net(emb)).reshape(*np.shape(emb)[:-1], k, 3)
    weights = sigmoid(weight_net(emb))
    return refs[..., None, :] + offsets, offsets, weights


# ---------------------------------------------------------------------------
# Self-attention


# A layer's parts in bundle order, the attention tensors (the four (C, C)
# matrices, then the four (C,) biases) and the prediction head's nets.
_LAYER_PARTS = ("ref_net", "offset_net", "weight_net", "attention", "ffn")
_ATTENTION_TENSORS = ("w_q", "w_k", "w_v", "w_o", "b_q", "b_k", "b_v", "b_o")
_HEAD_NETS = ("reg_net", "cls_net")


@dataclass(frozen=True)
class AttentionParams:
    """Multi-head self-attention projections (all (C, C) with biases)."""

    heads: int
    w_q: np.ndarray
    w_k: np.ndarray
    w_v: np.ndarray
    w_o: np.ndarray
    b_q: np.ndarray
    b_k: np.ndarray
    b_v: np.ndarray
    b_o: np.ndarray

    def __post_init__(self):
        dim = np.asarray(self.w_q).shape[0]
        if self.heads < 1:
            raise DecoderError(f"heads must be at least 1, got {self.heads}")
        if dim % self.heads != 0:
            raise DecoderError(f"dim {dim} not divisible by heads {self.heads}")
        for name in _ATTENTION_TENSORS:
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            shape = (dim, dim) if name.startswith("w") else (dim,)
            if arr.shape != shape:
                raise DecoderError(f"{name} must be {shape}, got {arr.shape}")
            object.__setattr__(self, name, arr)

    @property
    def dim(self) -> int:
        return self.w_q.shape[0]

    @classmethod
    def seeded(cls, dim: int, heads: int, rng: np.random.Generator) -> "AttentionParams":
        bound = 1.0 / math.sqrt(dim)
        tensors = {
            n: rng.uniform(-bound, bound, size=(dim, dim) if n.startswith("w") else dim)
            for n in _ATTENTION_TENSORS
        }
        return cls(heads=heads, **tensors)


def self_attention(qs: QuerySet, params: AttentionParams) -> QuerySet:
    """Scaled dot-product multi-head self-attention with a residual connection."""
    emb = qs.embeddings
    m, dim = emb.shape
    if dim != params.dim:
        raise DecoderError(f"query dim {dim} does not match attention dim {params.dim}")
    h = params.heads
    dh = dim // h
    q = (emb @ params.w_q.T + params.b_q).reshape(m, h, dh)
    k = (emb @ params.w_k.T + params.b_k).reshape(m, h, dh)
    v = (emb @ params.w_v.T + params.b_v).reshape(m, h, dh)
    out = np.empty((m, h, dh))
    scale = 1.0 / math.sqrt(dh)
    # Each thread runs whole heads (a gemm over part of the rows rounds
    # differently) in one (M, M) buffer.  The worker runs the last heads, so
    # theirs is allocated here; the calling thread allocates the first heads'
    # only when the heads split, as a buffer made in the worker costs more RSS.
    last = np.empty((m, m))

    def run_heads(lo: int, hi: int) -> None:
        weights = last if hi == h else np.empty((m, m))
        for head in range(lo, hi):
            np.matmul(q[:, head], k[:, head].T, out=weights)
            weights *= scale
            weights -= np.max(weights, axis=1, keepdims=True)
            np.exp(weights, out=weights)
            weights /= np.sum(weights, axis=1, keepdims=True)
            out[:, head] = weights @ v[:, head]

    _split_rows(h, m * m, run_heads)
    merged = out.reshape(m, dim) @ params.w_o.T + params.b_o
    return QuerySet(embeddings=emb + merged, scene_bounds=qs.scene_bounds)


# ---------------------------------------------------------------------------
# Full decoder


class AggregationMode(enum.Enum):
    SINGLE_POINT = "single-point"
    FIXED_POINTS = "fixed-points"
    DYNAMIC_GRAPH = "dynamic-graph"


@dataclass(frozen=True)
class DecoderLayer:
    """One refinement layer; nets sized for queries of dim C and K neighbors."""

    ref_net: Mlp
    offset_net: Mlp
    weight_net: Mlp
    attention: AttentionParams
    ffn: Mlp

    def __post_init__(self):
        if self.ref_net.out_dim != 3:
            raise DecoderError("ref_net must output 3 values")
        if self.offset_net.out_dim % 3 != 0:
            raise DecoderError("offset_net must output 3K values")
        if self.weight_net.out_dim * 3 != self.offset_net.out_dim:
            raise DecoderError("weight_net must output K values matching offset_net")
        if self.ffn.out_dim != self.ffn.in_dim:
            raise DecoderError("feed-forward net must preserve the query dim")

    @property
    def neighbors(self) -> int:
        return self.weight_net.out_dim


# Nominal box (w, l, h) whose corners form the fixed-points subgraph.
FIXED_POINTS_BOX_SIZE = (2.0, 4.0, 1.5)

# Node offsets (K, 3) of the fixed graphs; all their edges have unit weight.
_FIXED_GRAPHS = {
    AggregationMode.SINGLE_POINT: np.zeros((1, 3)),
    AggregationMode.FIXED_POINTS: np.vstack(
        [np.zeros(3), box_corners(Box3D(center=np.zeros(3), size=FIXED_POINTS_BOX_SIZE, yaw=0.0))]
    ),
}


def init_decoder(
    seed: int,
    layers: int = 6,
    dim: int = 256,
    neighbors: int = 16,
    heads: int = 8,
) -> list[DecoderLayer]:
    """Deterministic seeded decoder stack."""
    _check_sizes(layers=layers, dim=dim, neighbors=neighbors, heads=heads)
    built = []
    for li in range(layers):
        rng = derived_rng(seed, 20, li)
        built.append(
            DecoderLayer(
                ref_net=Mlp.seeded([dim, dim, 3], rng),
                offset_net=Mlp.seeded([dim, dim, 3 * neighbors], rng),
                weight_net=Mlp.seeded([dim, neighbors], rng),
                attention=AttentionParams.seeded(dim, heads, rng),
                ffn=Mlp.seeded([dim, 4 * dim, dim], rng),
            )
        )
    return built


def _graph_update(nodes: np.ndarray, weights: np.ndarray, pyr: FeaturePyramid, rig: CameraRig) -> np.ndarray:
    """Update (M, C) of M graphs: their nodes (M, K, 3) are sampled in one
    call and merged in node order with their edge weights (M, K).  A row
    does not depend on the other graphs of the call."""
    m, k = weights.shape
    feats = sample_multiview_many(pyr, rig, nodes.reshape(-1, 3))[0].reshape(m, k, -1)
    update = np.zeros((m, feats.shape[2]))
    for j in range(k):
        update = update + feats[:, j] * weights[:, j : j + 1]
    return update


def _aggregate(
    emb: np.ndarray,
    refs: np.ndarray,
    layer: DecoderLayer,
    pyr: FeaturePyramid,
    rig: CameraRig,
    mode: AggregationMode,
    offset_scale: float,
) -> np.ndarray:
    """Residual update of queries (M, C) by their graphs' ``_graph_update``."""
    if mode is AggregationMode.DYNAMIC_GRAPH:
        nodes, _, weights = graph_nodes(emb, refs, layer.offset_net, layer.weight_net, offset_scale)
    elif mode in (AggregationMode.SINGLE_POINT, AggregationMode.FIXED_POINTS):
        nodes = refs[:, None, :] + _FIXED_GRAPHS[mode]
        weights = np.ones(nodes.shape[:2])
    else:
        raise DecoderError(f"unknown aggregation mode {mode!r}")
    return emb + _graph_update(nodes, weights, pyr, rig)


DEFAULT_OFFSET_SCALE = 2.0  # meters a dynamic-graph node may walk per axis (``graph_nodes``)


def decoder_forward(
    qs: QuerySet,
    layers: Sequence[DecoderLayer],
    pyr: FeaturePyramid,
    rig: CameraRig,
    mode: AggregationMode = AggregationMode.DYNAMIC_GRAPH,
    offset_scale: float = DEFAULT_OFFSET_SCALE,
) -> tuple[QuerySet, np.ndarray]:
    """Run the full layer stack.

    Returns the refined query set and the per-layer reference points with
    shape (num_layers, M, 3).  Reference points are re-decoded from the
    updated queries at every layer.  Only dynamic graphs read ``offset_scale``.
    """
    if not layers:
        raise DecoderError("the decoder needs at least one layer")
    if not math.isfinite(offset_scale):
        raise DecoderError(f"offset scale must be finite, got {offset_scale}")
    if pyr.channels != qs.dim:
        raise DecoderError(
            f"pyramid channels ({pyr.channels}) must match query dim ({qs.dim})"
        )
    current = qs
    all_refs = np.empty((len(layers), len(qs), 3))
    for li, layer in enumerate(layers):
        current = self_attention(current, layer.attention)
        emb = current.embeddings
        bounds = current.scene_bounds
        refs = decode_reference_point(emb, layer.ref_net, bounds)
        all_refs[li] = refs
        emb = _aggregate(emb, refs, layer, pyr, rig, mode, offset_scale)
        emb = emb + layer.ffn(emb)
        current = QuerySet(embeddings=emb, scene_bounds=bounds)
    return current, all_refs


# ---------------------------------------------------------------------------
# Prediction head


@dataclass(frozen=True)
class PredictionHead:
    """Regression and classification nets applied to refined queries.

    The regression net outputs (dx, dy, dz, log w, log l, log h, sin yaw,
    cos yaw, vx, vy) relative to the final reference point; class
    probabilities are a softmax over the classification logits.
    """

    reg_net: Mlp
    cls_net: Mlp

    def __post_init__(self):
        if self.reg_net.out_dim != 10:
            raise DecoderError("regression net must output 10 values")
        if self.cls_net.out_dim < 1:
            raise DecoderError("classification net must output at least one class")

    @property
    def num_classes(self) -> int:
        return self.cls_net.out_dim

    @classmethod
    def seeded(cls, seed: int, dim: int, num_classes: int = 10) -> "PredictionHead":
        rng = derived_rng(seed, 30)
        return cls(reg_net=Mlp.seeded([dim, dim, 10], rng), cls_net=Mlp.seeded([dim, num_classes], rng))


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def decode_predictions(qs: QuerySet, refs: np.ndarray, head: PredictionHead) -> list[DetectionResult]:
    """Turn refined queries plus final reference points into scored boxes."""
    emb = qs.embeddings
    reg = head.reg_net(emb)
    probs = softmax(head.cls_net(emb))
    refs = np.asarray(refs, dtype=np.float64).reshape(len(qs), 3)
    results = []
    for i in range(len(qs)):
        center = refs[i] + reg[i, 0:3]
        size = np.exp(reg[i, 3:6])
        yaw = math.atan2(reg[i, 6], reg[i, 7])
        velocity = reg[i, 8:10]
        class_id = int(np.argmax(probs[i]))
        results.append(
            DetectionResult(
                box=Box3D(center=center, size=size, yaw=yaw, velocity=velocity, class_id=class_id),
                score=probs[i, class_id],
            )
        )
    return results


# ---------------------------------------------------------------------------
# Parameter bundles (one tensor file per matrix + JSON manifest)


def _bundle_parts(layers: Sequence[DecoderLayer], head: PredictionHead):
    """(name, part) of every layer part and head net, in bundle order."""
    for li, layer in enumerate(layers):
        for part in _LAYER_PARTS:
            yield f"layer{li:02d}.{part}", getattr(layer, part)
    for net in _HEAD_NETS:
        yield f"head.{net}", getattr(head, net)


def _bundle_meta(layers: Sequence[DecoderLayer], head: PredictionHead) -> dict:
    """The meta sizes that describe a whole stack and its head."""
    sizes = {
        "dim": {layer.ffn.in_dim for layer in layers},
        "neighbors": {layer.neighbors for layer in layers},
    }
    for key, values in sizes.items():
        if len(values) != 1:
            raise DecoderError(f"the layers must share one {key}, got {sorted(values)}")
    return {key: values.pop() for key, values in sizes.items()} | {"num_classes": head.num_classes}


def save_params(directory, layers: Sequence[DecoderLayer], head: PredictionHead) -> str:
    """Write the parameter bundle; tensors are stored as 32-bit floats, so a
    load returns the stored (truncated) values rather than the in-memory
    64-bit originals.  Returns the manifest path."""
    _check_sizes(layers=len(layers))
    os.makedirs(directory, exist_ok=True)
    entries = []
    activations = {}
    for prefix, part in _bundle_parts(layers, head):
        if isinstance(part, Mlp):
            activations[prefix] = list(part.activations)
            tensors = {}
            for i, (w, b) in enumerate(zip(part.weights, part.biases)):
                tensors[f"w{i}"], tensors[f"b{i}"] = w, b
        else:
            tensors = {n: getattr(part, n) for n in _ATTENTION_TENSORS}
        for key, arr in tensors.items():
            name = f"{prefix}.{key}"
            fname = name.replace(".", "_") + ".gdt3"
            write_tensor(os.path.join(directory, fname), arr)
            entries.append({"file": fname, "name": name, "shape": list(arr.shape)})
    meta = {
        "heads": layers[0].attention.heads,
        "layers": len(layers),
        **_bundle_meta(layers, head),
        "activations": activations,
    }
    manifest_path = os.path.join(directory, "params.json")
    _json_write(manifest_path, {"version": TENSOR_VERSION, "meta": meta, "entries": entries})
    return manifest_path


_PARAM_ENTRY_FIELDS = {"name": _json_text, "file": _json_text, "shape": list}
_PARAM_META_FIELDS = {
    "layers": _json_int,
    "heads": _json_int,
    "dim": _json_int,
    "neighbors": _json_int,
    "num_classes": _json_int,
    "activations": lambda table: {net: tuple(acts) for net, acts in dict(table).items()},
}
def load_params(manifest_path) -> tuple[list[DecoderLayer], PredictionHead]:
    """Read a parameter bundle, whose ``version`` must be TENSOR_VERSION.
    Tensor entries are looked up by the names the meta's layout gives:
    ``meta.layers`` layers and a head, each net with one ``w<i>``/``b<i>``
    pair per item of its ``meta.activations`` list.  Each tensor is read
    when the walk takes it, and the first one missing fails.  A tensor or
    activations entry outside that layout fails once the walk is done; such
    a tensor's file is never read.  The meta's ``dim``, ``neighbors`` and
    ``num_classes`` must match the loaded nets."""
    bundle = _json_read(manifest_path, DecoderError)
    base = os.path.dirname(os.path.abspath(manifest_path))
    what = f"parameter manifest {manifest_path}"
    _check_version(bundle, DecoderError, what)
    entries = _json_records(bundle, "entries", DecoderError, what)
    meta = _json_fields(bundle, {"meta": dict}, DecoderError, str(manifest_path))["meta"]
    meta = _json_fields(meta, _PARAM_META_FIELDS, DecoderError, f"the meta of {manifest_path}")
    _check_sizes(layers=meta["layers"], num_classes=meta["num_classes"])
    table = {}
    seen: set[str] = set()
    for entry in entries:
        entry = _json_fields(entry, _PARAM_ENTRY_FIELDS, DecoderError, f"an entry of {manifest_path}")
        path = _unique_tensor_path(base, entry["file"], seen, DecoderError, what)
        name = entry["name"]
        if name in table:
            raise DecoderError(f"{what}: entry {name!r} is named more than once")
        table[name] = path, entry["shape"]

    def take(items: dict, key: str, kind: str):
        if key not in items:
            raise DecoderError(f"{what}: missing {kind} {key!r}")
        return items.pop(key)

    def read(name: str) -> np.ndarray:
        path, shape = take(table, name, "tensor")
        arr = read_tensor(path).astype(np.float64)
        if list(arr.shape) != shape:
            raise DecoderError(f"parameter {name}: shape mismatch")
        return arr

    def load_mlp(prefix: str) -> Mlp:
        acts = take(meta["activations"], prefix, "activations of")
        tensors = [read(f"{prefix}.{key}{i}") for i in range(len(acts)) for key in "wb"]
        return Mlp(weights=tuple(tensors[0::2]), biases=tuple(tensors[1::2]), activations=acts)

    layers = []
    for li in range(meta["layers"]):
        name = f"layer{li:02d}"
        # The attention tensors are looked up first, so a layer missing from
        # the bundle is reported by its first tensor.
        tensors = {n: read(f"{name}.attention.{n}") for n in _ATTENTION_TENSORS}
        parts = {p: load_mlp(f"{name}.{p}") for p in _LAYER_PARTS if p != "attention"}
        layers.append(DecoderLayer(attention=AttentionParams(heads=meta["heads"], **tensors), **parts))
    head = PredictionHead(**{net: load_mlp(f"head.{net}") for net in _HEAD_NETS})
    for kind, left in (("entry", table), ("activations entry", meta["activations"])):
        if left:
            raise DecoderError(f"{what}: {kind} {next(iter(left))!r} is not part of a {meta['layers']}-layer bundle")
    for key, loaded in _bundle_meta(layers, head).items():
        if loaded != meta[key]:
            raise DecoderError(f"{what}: meta {key} is {meta[key]}, but the loaded nets have {loaded}")
    return layers, head


# ---------------------------------------------------------------------------
# Gradient checking


@dataclass(frozen=True)
class ComponentReport:
    component: str
    n_checked: int
    n_jittered: int
    max_abs_dev: float
    max_rel_dev: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_rel_dev <= self.tol


@dataclass(frozen=True)
class GradCheckReport:
    components: tuple[ComponentReport, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.components)

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "components": [{**asdict(c), "passed": c.passed} for c in self.components],
        }


_GRAD_COMPONENTS = ("offset", "weight", "query")
# grad_check's fixed rig, built once: a rig is frozen and its arrays read-only.
_GRAD_RIG = gen_rig("nuscenes-like")
# Probes scored per batch; bounds the memory of a grad_check call of any size.
_GRAD_GROUP = 32


class _GradProbe:
    """Analytic gradients of one query's loss, sum(q) + sum(_graph_update):
    the decoder's own update, summed apart from q because the oracle's field
    has 4 channels and q has 16, so the residual q + update does not apply."""

    def __init__(self, pyr, rig, ref_net, offset_net, weight_net, bounds, offset_scale):
        self.pyr = pyr
        self.rig = rig
        self.ref_net = ref_net
        self.offset_net = offset_net
        self.weight_net = weight_net
        self.bounds = bounds
        self.offset_scale = offset_scale

    # -- forward pieces ----------------------------------------------------

    def derive(self, q: np.ndarray):
        """(reference, nodes, offsets, weights) of one query's graph."""
        c = decode_reference_point(q, self.ref_net, self.bounds)
        return (c, *graph_nodes(q, c, self.offset_net, self.weight_net, self.offset_scale))

    def signed_steps(self, q: np.ndarray, derived, component: str, eps: float):
        """(qs, nodes, weights) of one component's central-difference cases:
        a step of +eps along each of its axes, then one of -eps along each."""
        c, nodes, offsets, weights = derived
        if component == "query":
            qs = np.concatenate([q + eps * np.eye(len(q)), q - eps * np.eye(len(q))])
            # A (n, 1, C) stack derives each step with the one-row bits.
            _, nodes, _, weights = self.derive(qs[:, None, :])
            return qs, nodes[:, 0], weights[:, 0]
        if component == "offset":
            unit = eps * np.eye(offsets.size).reshape(-1, *offsets.shape)
            nodes = c + np.concatenate([offsets + unit, offsets - unit])
        else:
            unit = eps * np.eye(len(weights))
            weights = np.concatenate([weights + unit, weights - unit])
        n = 2 * len(unit)
        qs = np.tile(q, (n, 1))
        return qs, np.broadcast_to(nodes, (n, *offsets.shape)), np.broadcast_to(weights, (n, len(offsets)))

    # -- analytic gradients -------------------------------------------------

    def node_grads(self, nodes: np.ndarray):
        """Per-node S_j (channel-summed feature) (N,) and dS_j/dnode (N, 3) of
        (N, 3) nodes; a node's values do not depend on the other nodes."""
        sums = np.zeros((len(nodes), 3))
        for ci, cam in enumerate(self.rig):
            intr, rot = cam.intrinsics, cam.extrinsics.rotation
            pixels, depths = project_points(nodes, cam)
            # d(u, v)/dnode = (f * R_row - (pixel - principal point) * R_2) / depth;
            # rows behind the camera are NaN and never inside a level.
            centered = pixels - (intr.cx, intr.cy)
            focal = np.array([[intr.fx], [intr.fy]])
            jac = (focal * rot[:2] - centered[:, :, None] * rot[2]) / depths[:, None, None]
            for level in self.pyr.levels(ci):
                rows, grads = bilinear_grad(level, pixels / level.stride)
                # A stacked (1, 2) @ (2, 3) matmul rounds as the one-row product.
                sums[rows] += (grads.sum(axis=1)[:, None, :] @ jac[rows])[:, 0] / level.stride
        feats, counts = sample_multiview_many(self.pyr, self.rig, nodes)
        ds = np.divide(sums, counts[:, None], out=np.zeros_like(sums), where=counts[:, None] > 0)
        return feats.sum(axis=1), ds

    def analytic(self, q: np.ndarray, derived, s: np.ndarray, ds: np.ndarray):
        """Gradients of the loss w.r.t. offsets (K,3), weights (K,), query (C,),
        given the query's graph ``derived = self.derive(q)`` and its nodes'
        ``(s, ds) = self.node_grads(nodes)``."""
        weights = derived[3]
        grad_offsets = weights[:, None] * ds
        grad_weights = s
        # Query gradient: residual + weight path + node path, where a node is
        # the reference plus its offset.
        sig_ref = sigmoid(self.ref_net(q))
        dc_dq = (self.bounds.extent * sig_ref * (1 - sig_ref))[:, None] * self.ref_net.jacobian(q)
        z_off = self.offset_net(q)
        doff_dq = (self.offset_scale * (1 - np.tanh(z_off) ** 2))[:, None] * self.offset_net.jacobian(q)
        # The edge weights are the weight net's sigmoid outputs.
        dw_dq = (weights * (1 - weights))[:, None] * self.weight_net.jacobian(q)
        grad_q = 1.0 + s @ dw_dq + grad_offsets.sum(axis=0) @ dc_dq + grad_offsets.reshape(-1) @ doff_dq
        return grad_offsets, grad_weights, grad_q

    # -- kink detection ------------------------------------------------------

    def near_relu_kink(self, q: np.ndarray, eps: float) -> bool:
        """True when a step of ``eps`` along one query axis can carry some
        ReLU preactivation of the ref, offset or weight net across zero.

        The reach of the step is bounded layer by layer by the absolute
        weights (ReLU is 1-Lipschitz), one column per query axis.
        """
        for mlp in (self.ref_net, self.offset_net, self.weight_net):
            reach = eps * np.eye(len(q))
            for z, w, act in zip(mlp.preactivations(q), mlp.weights, mlp.activations):
                reach = np.abs(w) @ reach
                if act == "relu" and np.any(np.abs(z)[:, None] <= reach):
                    return True
        return False

    def min_level_margin(self, nodes: np.ndarray) -> float:
        """Smallest distance of any sample position to a level border or,
        inside the level, to an integer coordinate line, in level pixels.
        A node at a depth in (0, 1e-3] in some camera gives 0.

        One core projection covers the whole rig, and each level index is
        tested once over all cameras: a pyramid's cameras share level shapes
        and strides."""
        u, v, depths = _project(nodes, self.rig.cameras)
        if np.any((depths > 0) & (depths <= 1e-3)):
            return 0.0
        front = depths > 1e-3
        u, v = u[front], v[front]
        margin = np.inf
        for level in self.pyr.levels(0):
            pu, pv = u / level.stride, v / level.stride
            inside = _inside_rows(level, pu, pv)
            for pos, last in ((pu, level.width - 1), (pv, level.height - 1)):
                border = min(np.abs(pos).min(initial=np.inf), np.abs(last - pos).min(initial=np.inf))
                frac = np.abs(pos[inside] - np.round(pos[inside]))
                margin = min(margin, border, frac.min(initial=np.inf))
        return float(margin)


def grad_check(
    seed: int = 0,
    eps: float = 1e-4,
    tol: float = 1e-6,
    probes: int = 32,
) -> GradCheckReport:
    """Compare analytic gradients of the propagation loss against central
    finite differences, for queries of dim 16 and graphs of 4 nodes, in every
    component ("offset", "weight", "query").

    The probes are chosen first, one at a time: a probe whose sample
    positions land on (or too close to) a bilinear kink, or whose query
    steps can cross a ReLU kink of the ref, offset or weight net, is
    jittered by a small deterministic amount and retried; jitters are
    counted in the report.  The chosen probes are then scored together in
    groups of up to ``_GRAD_GROUP``: one ``node_grads`` call on all their
    nodes, one ``_graph_update`` call on all their finite-difference cases, and
    one ``analytic`` call per probe, in probe order.  A case's loss and a
    node's gradient do not depend on the other rows of a call, so grouping
    changes no bit.  Relative deviation is |analytic - fd| / (1 + |analytic|).

    ``eps`` must be finite and positive, ``tol`` finite and at least 0, and
    ``probes`` at least 1.
    """
    if not (math.isfinite(eps) and eps > 0):
        raise DecoderError(f"eps must be finite and positive, got {eps}")
    if not (math.isfinite(tol) and tol >= 0):
        raise DecoderError(f"tol must be finite and at least 0, got {tol}")
    if probes < 1:
        raise DecoderError(f"probes must be at least 1, got {probes}")

    dim, k = 16, 4
    rng = derived_rng(seed, 40)
    channels = 4
    fld = AnalyticField(
        a=rng.uniform(-1, 1, channels),
        b=rng.uniform(-1, 1, channels) * 0.01,
        c=rng.uniform(-1, 1, channels) * 0.01,
        d=rng.uniform(-1, 1, channels) * 1e-5,
    )
    pyr = render_pyramid(fld, _GRAD_RIG, strides=(8, 16))
    bounds = SceneBounds(lo=(5.0, -6.0, 0.5), hi=(25.0, 6.0, 2.5))
    net_rng = derived_rng(seed, 41)
    probe = _GradProbe(
        pyr=pyr,
        rig=_GRAD_RIG,
        ref_net=Mlp.seeded([dim, dim, 3], net_rng),
        offset_net=Mlp.seeded([dim, dim, 3 * k], net_rng),
        weight_net=Mlp.seeded([dim, k], net_rng),
        bounds=bounds,
        offset_scale=1.0,
    )
    chosen = []  # per probe: (q, derived)
    n_jittered = 0
    kink_margin = 1e-3
    for _ in range(probes):
        q = rng.uniform(-1.0, 1.0, size=dim)
        derived = probe.derive(q)
        for _attempt in range(8):
            if probe.min_level_margin(derived[1]) > kink_margin and not probe.near_relu_kink(q, eps):
                break
            q = q + rng.uniform(-0.05, 0.05, size=dim)
            n_jittered += 1
            derived = probe.derive(q)
        chosen.append((q, derived))

    checked = {name: [] for name in _GRAD_COMPONENTS}  # per probe: (analytic, fd) arrays
    for first in range(0, probes, _GRAD_GROUP):
        group = chosen[first : first + _GRAD_GROUP]
        sums, dsums = probe.node_grads(np.concatenate([derived[1] for _, derived in group]))
        steps = [probe.signed_steps(q, derived, name, eps) for q, derived in group for name in _GRAD_COMPONENTS]
        qs, nodes, weights = (np.concatenate(parts) for parts in zip(*steps))
        losses = qs.sum(axis=1) + _graph_update(nodes, weights, pyr, _GRAD_RIG).sum(axis=1)
        start = 0
        for (q, derived), s, ds in zip(group, sums.reshape(-1, k), dsums.reshape(-1, k, 3)):
            grads = probe.analytic(q, derived, s, ds)
            # A component has one +eps and one -eps case per gradient entry.
            for name, grad in zip(_GRAD_COMPONENTS, grads):
                lp, lm = losses[start : start + 2 * grad.size].reshape(2, -1)
                checked[name].append((grad.ravel(), (lp - lm) / (2 * eps)))
                start += 2 * grad.size

    reports = []
    for name, pairs in checked.items():
        analytic, fd = map(np.concatenate, zip(*pairs))
        dev = np.abs(analytic - fd)
        reports.append(
            ComponentReport(
                component=name,
                n_checked=len(dev),
                n_jittered=n_jittered,
                max_abs_dev=float(max(0.0, *dev)),
                max_rel_dev=float(max(0.0, *(dev / (1.0 + np.abs(analytic))))),
                tol=float(tol),
            )
        )
    return GradCheckReport(components=tuple(reports))
