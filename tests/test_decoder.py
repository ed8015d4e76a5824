import hashlib
import json
import math
import re
import tracemalloc
from copy import deepcopy
from dataclasses import replace

import numpy as np
import pytest

from mvdet.camgeo import Box3D, DetectionResult, SceneBounds, _project, back_project, box_corners, project_points
from mvdet.decoder import (
    FIXED_POINTS_BOX_SIZE,
    AggregationMode,
    AttentionParams,
    DecoderError,
    DecoderLayer,
    Mlp,
    PredictionHead,
    QuerySet,
    _MAX_CLASSES,
    _MAX_DIM,
    _MAX_LAYERS,
    _MAX_NEIGHBORS,
    _aggregate,
    _grad_setup,
    _GradProbe,
    decode_predictions,
    decode_reference_point,
    decoder_forward,
    grad_check,
    graph_nodes,
    init_decoder,
    init_queries,
    load_params,
    save_params,
    self_attention,
    sigmoid,
    softmax,
)
from mvdet import featcore
from mvdet.featcore import FeatureLevel, FeaturePyramid, _inside_rows, sample_multiview_many, write_tensor
from mvdet.synth import AnalyticField, gen_rig, make_scene, render_pyramid

from helpers import constant_pyramid, degenerate_layer, make_ident_cam

BOUNDS = SceneBounds(lo=(-30.0, -30.0, 0.0), hi=(30.0, 30.0, 3.0))


def const_net(dim: int, values) -> Mlp:
    """A one-layer net that ignores its input and outputs ``values``."""
    values = np.asarray(values, dtype=np.float64)
    return Mlp(weights=(np.zeros((len(values), dim)),), biases=(values,), activations=("identity",))


def graph_layer(offset_net: Mlp, weight_net: Mlp) -> DecoderLayer:
    """A layer carrying the given graph nets; its other nets are unused by
    aggregation."""
    dim = weight_net.in_dim
    attention = AttentionParams.seeded(dim, 1, np.random.Generator(np.random.PCG64(0)))
    return DecoderLayer(
        ref_net=Mlp.zeros([dim, 3]), offset_net=offset_net, weight_net=weight_net,
        attention=attention, ffn=Mlp.zeros([dim, dim]),
    )


def aggregate(emb, refs, pyr, rig, mode=AggregationMode.DYNAMIC_GRAPH, layer=None, offset_scale=2.0):
    """Batched aggregation of (M, C) queries at (M, 3) reference points."""
    emb = np.atleast_2d(np.asarray(emb, dtype=np.float64))
    refs = np.atleast_2d(np.asarray(refs, dtype=np.float64))
    return _aggregate(emb, refs, layer, pyr, rig, mode, offset_scale)


def test_sigmoid_matches_two_branch_form_bit_for_bit():
    def two_branch(x):
        out = np.empty_like(x)
        pos = x >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        out[~pos] = ex / (1.0 + ex)
        return out

    edges = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 710.0, -710.0, 745.2, -745.2]
    rng = np.random.default_rng(0)
    x = np.concatenate([edges, *(rng.normal(scale=s, size=20_000) for s in (1e-3, 1.0, 30.0, 800.0))])
    assert sigmoid(x).tobytes() == two_branch(x).tobytes()


class TestMlp:
    def test_seeded_shapes_and_determinism(self):
        rng1 = np.random.Generator(np.random.PCG64(1))
        rng2 = np.random.Generator(np.random.PCG64(1))
        a = Mlp.seeded([4, 8, 2], rng1)
        b = Mlp.seeded([4, 8, 2], rng2)
        assert [w.shape for w in a.weights] == [(8, 4), (2, 8)]
        assert a.activations == ("relu", "identity")
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)

    def test_init_bound_is_inverse_sqrt_fan_in(self):
        rng = np.random.Generator(np.random.PCG64(2))
        net = Mlp.seeded([16, 64, 1], rng)
        assert np.abs(net.weights[0]).max() <= 1 / 4
        assert np.abs(net.weights[1]).max() <= 1 / 8

    def test_jacobian_matches_fd(self):
        rng = np.random.Generator(np.random.PCG64(3))
        net = Mlp.seeded([5, 7, 4], rng)
        x = rng.uniform(-1, 1, 5)
        jac = net.jacobian(x)
        h = 1e-6
        for i in range(5):
            step = np.zeros(5)
            step[i] = h
            fd = (net(x + step) - net(x - step)) / (2 * h)
            assert np.all(np.abs(jac[:, i] - fd) < 1e-6)

    @pytest.mark.parametrize("sizes", [[16, 16, 3], [16, 16, 12], [16, 4], [64, 64, 48]])
    def test_stacked_rows_equal_single_rows(self, sizes):
        # A (n, 1, C) stack runs n one-row products; grad_check relies on it
        # to derive its query steps with the bits of a one-row derive.
        for seed in range(30):
            rng = np.random.Generator(np.random.PCG64(seed))
            net = Mlp.seeded(sizes, rng)
            x = rng.uniform(-1, 1, (32, sizes[0]))
            rows = np.stack([net(row) for row in x])
            assert net(x[:, None, :])[:, 0].tobytes() == rows.tobytes()

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DecoderError):
            Mlp(weights=(np.zeros((3, 4)), np.zeros((2, 5))), biases=(np.zeros(3), np.zeros(2)),
                activations=("relu", "identity"))

    def test_non_finite_rejected(self):
        with pytest.raises(DecoderError):
            Mlp(weights=(np.array([[np.inf]]),), biases=(np.zeros(1),), activations=("identity",))


def _attention(**tensors) -> AttentionParams:
    """Seeded dim-4, one-head attention with ``tensors`` replaced."""
    return replace(AttentionParams.seeded(4, 1, np.random.Generator(np.random.PCG64(0))), **tensors)


def _layer(**parts) -> DecoderLayer:
    """A seeded dim-4, one-neighbor layer with ``parts`` replaced."""
    return replace(init_decoder(0, layers=1, dim=4, neighbors=1, heads=1)[0], **parts)


# Invalid values the module's own checks refuse.
_INVALID_VALUES = {
    "mlp-unaligned": lambda: Mlp(weights=(np.zeros((2, 2)),), biases=(), activations=("identity",)),
    "mlp-empty": lambda: Mlp(weights=(), biases=(), activations=()),
    "mlp-bias-shape": lambda: Mlp(weights=(np.zeros((2, 3)),), biases=(np.zeros(3),), activations=("identity",)),
    "mlp-weight-rank": lambda: Mlp(weights=(np.zeros(3),), biases=(np.zeros(3),), activations=("identity",)),
    "mlp-nan-bias": lambda: Mlp(weights=(np.zeros((1, 1)),), biases=(np.full(1, np.nan),), activations=("identity",)),
    "queries-rank": lambda: QuerySet(embeddings=np.zeros(4), scene_bounds=BOUNDS),
    "queries-none": lambda: QuerySet(embeddings=np.zeros((0, 4)), scene_bounds=BOUNDS),
    "queries-nan": lambda: QuerySet(embeddings=np.full((2, 4), np.nan), scene_bounds=BOUNDS),
    "attention-shape": lambda: _attention(w_k=np.zeros((4, 3))),
    "attention-w_q-0d": lambda: _attention(w_q=np.float64(1.0)),
    "attention-w_q-non-square": lambda: _attention(w_q=np.zeros((4, 5))),
    "attention-nan": lambda: _attention(w_v=np.full((4, 4), np.nan)),
    "attention-inf-bias": lambda: _attention(b_o=np.full(4, np.inf)),
    "self-attention-dim": lambda: self_attention(np.zeros((2, 8)), _attention()),
    "layer-ref-net": lambda: _layer(ref_net=Mlp.zeros([4, 4])),
    "layer-offset-net": lambda: _layer(offset_net=Mlp.zeros([4, 4])),
    "layer-weight-net": lambda: _layer(weight_net=Mlp.zeros([4, 2])),
    "layer-ffn": lambda: _layer(ffn=Mlp.zeros([4, 5])),
    "aggregate-mode": lambda: _aggregate(np.zeros((1, 4)), np.zeros((1, 3)), _layer(), None, None, "bogus", 1.0),
    "head-reg-net": lambda: PredictionHead(reg_net=Mlp.zeros([4, 9]), cls_net=Mlp.zeros([4, 2])),
    "head-no-classes": lambda: PredictionHead(reg_net=Mlp.zeros([4, 10]), cls_net=Mlp.zeros([4, 0])),
    "init-decoder-dim-fraction": lambda: init_decoder(0, layers=1, dim=8.5, neighbors=1, heads=1),
    "init-decoder-neighbors-above-bound": lambda: init_decoder(0, layers=1, dim=4, neighbors=_MAX_NEIGHBORS + 1, heads=1),
    "init-decoder-dim-above-bound": lambda: init_decoder(0, layers=1, dim=_MAX_DIM + 1, neighbors=1, heads=1),
    "init-decoder-layers-above-bound": lambda: init_decoder(0, layers=_MAX_LAYERS + 1, dim=4, neighbors=1, heads=1),
    "init-queries-dim-above-bound": lambda: init_queries(0, 2, _MAX_DIM + 1, BOUNDS),
    "init-queries-count-fraction": lambda: init_queries(0, 2.5, 4, BOUNDS),
    "init-queries-count-huge": lambda: init_queries(0, 10**5000, 4, BOUNDS),
    "attention-heads-fraction": lambda: AttentionParams.seeded(5, 2.5, np.random.default_rng(0)),
    "attention-heads-bool": lambda: AttentionParams.seeded(4, True, np.random.default_rng(0)),
    "head-dim-fraction": lambda: PredictionHead.seeded(0, dim=2.5),
    "head-classes-fraction": lambda: PredictionHead.seeded(0, dim=4, num_classes=2.5),
    "head-dim-above-bound": lambda: PredictionHead.seeded(0, dim=_MAX_DIM + 1),
    "head-classes-above-bound": lambda: PredictionHead.seeded(0, dim=4, num_classes=_MAX_CLASSES + 1),
    "grad-check-probes-fraction": lambda: grad_check(probes=2.5),
    "grad-check-probes-bool": lambda: grad_check(probes=True),
}


@pytest.mark.parametrize("case", sorted(_INVALID_VALUES))
def test_invalid_value_raises_decoder_error(case):
    with pytest.raises(DecoderError):
        _INVALID_VALUES[case]()


def test_integral_sizes_are_stored_as_ints():
    (layer,) = init_decoder(0, layers=np.int64(1), dim=np.int64(8), neighbors=np.int64(1), heads=np.int64(2))
    assert layer.attention.dim == 8 and layer.attention.heads == 2 and type(layer.attention.heads) is int
    assert type(AttentionParams.seeded(4, 2.0, np.random.default_rng(0)).heads) is int


class TestStoredTensors:
    """Every tensor a net, the attention or a query set stores is its own
    read-only float64 copy of the caller's array."""

    @staticmethod
    def given_and_stored(part):
        rng = np.random.Generator(np.random.PCG64(0))
        w, b = rng.uniform(-1, 1, (4, 4)).astype(np.float32), rng.uniform(-1, 1, 4)
        if part == "mlp":
            mlp = Mlp(weights=[w], biases=[b], activations=["identity"])
            return (w, b), mlp.weights + mlp.biases
        if part == "attention":
            att = AttentionParams(heads=2, w_q=w, w_k=w, w_v=w, w_o=w, b_q=b, b_k=b, b_v=b, b_o=b)
            return (w, b), (att.w_q, att.w_o, att.b_q, att.b_o)
        return (w,), (QuerySet(embeddings=w, scene_bounds=BOUNDS).embeddings,)

    @pytest.mark.parametrize("part", ["mlp", "attention", "queries"])
    def test_writing_a_stored_tensor_raises(self, part):
        _, stored = self.given_and_stored(part)
        for arr in stored:
            assert arr.dtype == np.float64 and not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0

    @pytest.mark.parametrize("part", ["mlp", "attention", "queries"])
    def test_mutating_the_callers_array_changes_nothing(self, part):
        given, stored = self.given_and_stored(part)
        before = [arr.tobytes() for arr in stored]
        for arr in given:
            arr[...] = np.nan
        assert [arr.tobytes() for arr in stored] == before


class TestReferencePoints:
    def test_zero_net_gives_bounds_center(self):
        net = Mlp.zeros([8, 8, 3])
        ref = decode_reference_point(np.ones(8), net, BOUNDS)
        assert np.allclose(ref, (BOUNDS.lo + BOUNDS.hi) / 2)

    def test_saturated_bias_approaches_max(self):
        net = Mlp(
            weights=(np.zeros((3, 8)),),
            biases=(np.full(3, 1e6),),
            activations=("identity",),
        )
        ref = decode_reference_point(np.zeros(8), net, BOUNDS)
        assert np.all(np.abs(ref - BOUNDS.hi) <= 1e-9)

    def test_always_inside_bounds(self):
        rng = np.random.Generator(np.random.PCG64(4))
        net = Mlp.seeded([8, 8, 3], rng)
        for _ in range(100):
            ref = decode_reference_point(rng.uniform(-5, 5, 8), net, BOUNDS)
            assert np.all(ref >= BOUNDS.lo) and np.all(ref <= BOUNDS.hi)

    def test_seeded_regression_value(self):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(123)))
        net = Mlp.seeded([8, 8, 3], rng)
        ref = decode_reference_point(
            np.linspace(-1, 1, 8), net, SceneBounds(lo=(-10, -10, 0), hi=(10, 10, 4))
        )
        golden = [-1.2323471619182431, 0.6684675320958089, 2.101347241083697]
        assert np.allclose(ref, golden, rtol=0, atol=1e-15)

    def test_wrong_output_dim_rejected(self):
        with pytest.raises(DecoderError):
            decode_reference_point(np.zeros(8), Mlp.zeros([8, 4]), BOUNDS)

    def test_batch_matches_rows(self):
        rng = np.random.Generator(np.random.PCG64(13))
        net = Mlp.seeded([16, 16, 3], rng)
        emb = rng.uniform(-1, 1, (24, 16))
        batch = decode_reference_point(emb, net, BOUNDS)
        assert batch.shape == (24, 3)
        # Leading axes are batch axes: a (4, 6, C) stack decodes to the same bytes.
        stacked = decode_reference_point(emb.reshape(4, 6, 16), net, BOUNDS)
        assert stacked.reshape(24, 3).tobytes() == batch.tobytes()
        rows = np.stack([decode_reference_point(e, net, BOUNDS) for e in emb])
        one_row = np.concatenate([decode_reference_point(emb[i : i + 1], net, BOUNDS) for i in range(24)])
        assert one_row.tobytes() == rows.tobytes()
        # A multi-row matmul may round differently from a one-row one (BLAS
        # picks another kernel), so rows agree with the batch to rounding only.
        assert np.abs(batch - rows).max() <= 1e-13 * BOUNDS.extent.max()


class TestBaselineAggregate:
    def test_invisible_point_identity(self):
        scene = make_scene(1, object_count=0, channels=4, strides=(8,))
        q = np.arange(4.0)
        out = aggregate(q, (0.0, 0.0, 0.0), scene.pyramid, scene.rig, AggregationMode.SINGLE_POINT)
        assert np.array_equal(out[0], q)

    def test_constant_field_adds_constant(self):
        rig = gen_rig("single")
        pyr = render_pyramid(AnalyticField.constant([2.0, -1.0]), rig, strides=(8, 16))
        out = aggregate(np.zeros(2), (20.0, 0.0, 1.5), pyr, rig, AggregationMode.SINGLE_POINT)
        assert np.array_equal(out[0], np.array([2.0, -1.0]))

    def test_linear_field_matches_analytic_sample(self):
        # Oracle: evaluate the field formula at the projected coordinates.
        rig = gen_rig("single")
        field = AnalyticField.linear([0.1, -0.2], [1e-3, 2e-3], [-1e-3, 5e-4])
        pyr = render_pyramid(field, rig, strides=(8, 16))
        p = np.array([15.0, 1.0, 1.8])
        pixel = project_points([p], rig[0])[0][0]
        expected = field.evaluate(pixel[0], pixel[1])
        out = aggregate(np.zeros(2), p, pyr, rig, AggregationMode.SINGLE_POINT)
        assert np.all(np.abs(out[0] - expected) <= 1e-5 * np.maximum(1, np.abs(expected)))


class TestDynamicGraph:
    def test_zero_offset_net_collapses_nodes(self):
        off = Mlp.zeros([8, 8, 12])
        w = Mlp.zeros([8, 4])
        nodes, offsets, _ = graph_nodes(np.ones(8), np.array([1.0, 2.0, 1.0]), off, w, 2.0)
        assert np.all(nodes == np.array([1.0, 2.0, 1.0]))
        assert np.all(offsets == 0.0)

    def test_zero_weight_net_gives_half(self):
        off = Mlp.zeros([8, 8, 12])
        w = Mlp.zeros([8, 4])
        _, _, weights = graph_nodes(np.ones((3, 8)), np.zeros((3, 3)), off, w, 2.0)
        assert weights.shape == (3, 4)
        assert np.all(weights == 0.5)

    def test_default_neighbor_count(self):
        rng = np.random.Generator(np.random.PCG64(5))
        k = 16
        off = Mlp.seeded([8, 8, 3 * k], rng)
        w = Mlp.seeded([8, k], rng)
        nodes, offsets, weights = graph_nodes(np.ones(8), np.array([0.0, 0.0, 1.0]), off, w, 2.0)
        assert nodes.shape == offsets.shape == (16, 3) and weights.shape == (16,)
        nodes, _, weights = graph_nodes(np.ones((5, 8)), np.zeros((5, 3)), off, w, 2.0)
        assert nodes.shape == (5, 16, 3) and weights.shape == (5, 16)
        with pytest.raises(DecoderError):
            graph_nodes(np.ones(8), np.zeros(3), Mlp.seeded([8, 8, 3 * k - 1], rng), w, 2.0)

    def test_offsets_bounded_by_scale(self):
        rng = np.random.Generator(np.random.PCG64(6))
        off = Mlp.seeded([8, 8, 6], rng)
        w = Mlp.seeded([8, 2], rng)
        for scale in (0.5, 2.0, 4.0):
            refs = np.tile([0.0, 0.0, 1.0], (10, 1))
            nodes, offsets, _ = graph_nodes(rng.uniform(-3, 3, (10, 8)), refs, off, w, scale)
            assert np.abs(offsets).max() <= scale
            assert np.array_equal(nodes, refs[:, None, :] + offsets)

    def test_node_feature_mean_across_two_cameras(self):
        from mvdet.camgeo import CameraRig

        rig = CameraRig(cameras=(make_ident_cam("a"), make_ident_cam("b")))
        pyr = constant_pyramid(rig, [1.0, 3.0])
        layer = graph_layer(Mlp.zeros([1, 3]), const_net(1, [1e6]))
        out = aggregate(np.zeros(1), (0.0, 0.0, 10.0), pyr, rig, layer=layer)
        assert np.all(out == 2.0)

    def test_invisible_node_zero_feature(self):
        scene = make_scene(2, object_count=0, channels=4, strides=(8,))
        layer = graph_layer(Mlp.zeros([4, 3]), const_net(4, [1e6]))
        q = np.arange(4.0)
        assert np.array_equal(aggregate(q, np.zeros(3), scene.pyramid, scene.rig, layer=layer)[0], q)

    def test_node_features_match_field_closed_form(self):
        # Oracle: evaluate the analytic field at each node's projection.
        rig = gen_rig("single")
        rng = np.random.Generator(np.random.PCG64(20))
        field = AnalyticField(
            a=rng.uniform(-1, 1, 3),
            b=rng.uniform(-1, 1, 3) * 1e-3,
            c=rng.uniform(-1, 1, 3) * 1e-3,
            d=rng.uniform(-1, 1, 3) * 1e-6,
        )
        pyr = render_pyramid(field, rig, strides=(8, 16))
        c = np.array([16.0, 0.5, 1.6])
        nodes, _, _ = graph_nodes(
            rng.uniform(-1, 1, 3), c, Mlp.seeded([3, 3, 9], rng), Mlp.seeded([3, 3], rng), 1.0
        )
        feats, _ = sample_multiview_many(pyr, rig, nodes)
        for j, node in enumerate(nodes):
            (pixel,), (depth,) = project_points([node], rig[0])
            assert depth > 0
            expected = field.evaluate(pixel[0], pixel[1])
            assert np.all(np.abs(feats[j] - expected) <= 1e-5 * np.maximum(1, np.abs(expected)))

    def test_propagate_zero_weights_identity(self):
        rig = gen_rig("single")
        pyr = render_pyramid(AnalyticField.constant(np.ones(6)), rig, strides=(8,))
        layer = graph_layer(Mlp.zeros([6, 6, 9]), const_net(6, [-1e6] * 3))
        q = np.arange(6.0)
        assert np.array_equal(aggregate(q, (20.0, 0.0, 1.5), pyr, rig, layer=layer)[0], q)

    def test_propagate_degenerates_to_baseline(self):
        scene = make_scene(3, object_count=0, channels=4, strides=(8, 16))
        layer = degenerate_layer(init_decoder(3, layers=1, dim=4, neighbors=1, heads=2)[0], 4)
        c = np.array([18.0, 1.0, 1.5])
        q = np.arange(4.0)
        graph_out = aggregate(q, c, scene.pyramid, scene.rig, layer=layer)
        base_out = aggregate(q, c, scene.pyramid, scene.rig, AggregationMode.SINGLE_POINT)
        assert not np.array_equal(base_out, q[None])
        assert np.array_equal(graph_out, base_out)

    def test_propagate_two_nodes_direct_formula(self):
        rig = gen_rig("single")
        field = AnalyticField.linear([1.0, -0.5], [1e-3, 2e-3], [-1e-3, 5e-4])
        pyr = render_pyramid(field, rig, strides=(8,))
        w = np.array([0.25, 0.5])
        offsets = np.array([[0.0, 0.5, 0.0], [0.0, -1.0, 0.25]])
        layer = graph_layer(const_net(2, np.arctanh(offsets.ravel() / 2.0)), const_net(2, np.log(w / (1 - w))))
        c = np.array([18.0, 0.0, 1.5])
        q = np.array([0.5, -2.0])
        out = aggregate(q, c, pyr, rig, layer=layer)[0]
        x, counts = sample_multiview_many(pyr, rig, c + offsets)
        assert np.all(counts > 0) and not np.allclose(x[0], x[1])
        assert np.allclose(out, q + w[0] * x[0] + w[1] * x[1])

class TestSelfAttention:
    def test_single_query_formula(self):
        rng = np.random.Generator(np.random.PCG64(7))
        dim, heads = 8, 2
        params = AttentionParams.seeded(dim, heads, rng)
        q = rng.uniform(-1, 1, (1, dim))
        out = self_attention(q, params)
        value = q @ params.w_v.T + params.b_v
        expected = q + value @ params.w_o.T + params.b_o
        assert np.allclose(out, expected, atol=1e-12)

    def test_zero_output_projection_is_identity(self):
        rng = np.random.Generator(np.random.PCG64(8))
        params = AttentionParams.seeded(8, 2, rng)
        params = replace(params, w_o=np.zeros((8, 8)), b_o=np.zeros(8))
        q = rng.uniform(-1, 1, (5, 8))
        assert np.array_equal(self_attention(q, params), q)

    def test_permutation_equivariance(self):
        rng = np.random.Generator(np.random.PCG64(9))
        params = AttentionParams.seeded(16, 4, rng)
        q = rng.uniform(-1, 1, (12, 16))
        perm = rng.permutation(12)
        out = self_attention(q, params)
        out_perm = self_attention(q[perm], params)
        assert np.all(np.abs(out_perm - out[perm]) <= 1e-12)

    def test_bit_equals_allocating_reference(self):
        # Reference: fresh logits and weights arrays for every head.
        rng = np.random.Generator(np.random.PCG64(10))
        m, dim, heads = 70, 32, 4
        params = AttentionParams.seeded(dim, heads, rng)
        emb = rng.uniform(-1, 1, (m, dim))
        dh = dim // heads
        q = (emb @ params.w_q.T + params.b_q).reshape(m, heads, dh)
        k = (emb @ params.w_k.T + params.b_k).reshape(m, heads, dh)
        v = (emb @ params.w_v.T + params.b_v).reshape(m, heads, dh)
        out = np.empty((m, heads, dh))
        for head in range(heads):
            logits = (q[:, head] @ k[:, head].T) * (1.0 / np.sqrt(dh))
            logits -= logits.max(axis=1, keepdims=True)
            weights = np.exp(logits)
            weights /= weights.sum(axis=1, keepdims=True)
            out[:, head] = weights @ v[:, head]
        expected = emb + (out.reshape(m, dim) @ params.w_o.T + params.b_o)
        got = self_attention(emb, params)
        assert got.tobytes() == expected.tobytes()

    def test_two_threads_bit_identical_at_odd_m(self, split_runs):
        rng = np.random.Generator(np.random.PCG64(11))
        # The scene-decode shape with one query more: a row-split product of
        # this size would round some logits differently.
        params = AttentionParams.seeded(64, 8, rng)
        emb = rng.uniform(-1, 1, (901, 64))
        one, two, threads = split_runs(lambda: self_attention(emb, params))
        assert threads == 1  # four heads on each thread
        assert one.tobytes() == two.tobytes()

    @pytest.mark.parametrize("dim, heads", [(48, 3), (64, 1)], ids=["uneven-halves", "one-head"])
    def test_two_threads_bit_identical_at_other_head_counts(self, split_runs, dim, heads):
        # Three heads split two and one; one head runs inline.
        rng = np.random.Generator(np.random.PCG64(12))
        params = AttentionParams.seeded(dim, heads, rng)
        emb = rng.uniform(-1, 1, (301, dim))
        one, two, threads = split_runs(lambda: self_attention(emb, params))
        assert threads == (heads > 1)
        assert one.tobytes() == two.tobytes()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_peak_memory_is_one_buffer_per_thread(self, monkeypatch, workers):
        # At the scene-decode shape the heads split wherever two CPUs are
        # free, and each thread then holds one (M, M) float64 buffer.  The
        # rest is q, k, v and the output's (M, C) arrays, seven at most.
        m, dim = 900, 64
        buffer, slack = m * m * 8, 8 * m * dim * 8
        rng = np.random.Generator(np.random.PCG64(13))
        params = AttentionParams.seeded(dim, 8, rng)
        emb = rng.uniform(-1, 1, (m, dim))
        monkeypatch.setattr(featcore, "_WORKERS", workers)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            self_attention(emb, params)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert workers * buffer <= peak < workers * buffer + slack

    def test_head_divisibility_enforced(self):
        with pytest.raises(DecoderError):
            AttentionParams.seeded(10, 4, np.random.Generator(np.random.PCG64(0)))

    def test_zero_heads_rejected(self):
        with pytest.raises(DecoderError, match="heads"):
            AttentionParams.seeded(8, 0, np.random.Generator(np.random.PCG64(0)))


class TestDecoderForward:
    @pytest.mark.parametrize("size", ["layers", "dim", "neighbors", "heads"])
    def test_init_decoder_rejects_nonpositive_sizes(self, size):
        with pytest.raises(DecoderError, match=size):
            init_decoder(0, **{"layers": 1, "dim": 4, "neighbors": 1, "heads": 1, size: 0})

    @pytest.mark.parametrize("size", ["count", "dim"])
    def test_init_queries_rejects_nonpositive_sizes(self, size):
        with pytest.raises(DecoderError, match=size):
            init_queries(0, **{"count": 2, "dim": 4, size: 0}, bounds=BOUNDS)

    def test_empty_layer_stack_rejected(self):
        scene = make_scene(1, object_count=0, channels=4, strides=(16,))
        with pytest.raises(DecoderError, match="layer"):
            decoder_forward(init_queries(0, count=2, dim=4, bounds=BOUNDS), [], scene.pyramid, scene.rig)

    @pytest.mark.parametrize("scale", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_offset_scale_rejected(self, scale):
        scene = make_scene(1, object_count=0, channels=4, strides=(16,))
        layers = init_decoder(0, layers=1, dim=4, neighbors=1, heads=1)
        qs = init_queries(0, count=2, dim=4, bounds=BOUNDS)
        with pytest.raises(DecoderError, match="offset scale must be finite"):
            decoder_forward(qs, layers, scene.pyramid, scene.rig, offset_scale=scale)

    @pytest.mark.parametrize("layer", [0, 1], ids=["first", "last"])
    def test_non_finite_attention_output_rejected(self, layer):
        # The layers pass bare arrays: the nets' own output checks catch an
        # attention output that is not finite.  The parameters are finite,
        # but v is 1e308 in every row and w_o sums its four entries twice,
        # so the output projection overflows to inf.
        scene = make_scene(1, object_count=0, channels=4, strides=(16,))
        layers = init_decoder(0, layers=2, dim=4, neighbors=1, heads=1)
        overflow = dict(w_v=np.zeros((4, 4)), b_v=np.full(4, 1e308), w_o=np.full((4, 4), 2.0))
        layers[layer] = replace(layers[layer], attention=replace(layers[layer].attention, **overflow))
        with pytest.raises(DecoderError, match="finite"), np.errstate(over="ignore", invalid="ignore"):
            decoder_forward(init_queries(0, count=3, dim=4, bounds=BOUNDS), layers, scene.pyramid, scene.rig)

    def test_zero_params_zero_field(self):
        dim = 8
        rig = gen_rig("nuscenes-like")
        pyr = render_pyramid(AnalyticField.constant(np.zeros(dim)), rig, strides=(8, 16))
        zero_attn = AttentionParams(
            heads=2, w_q=np.zeros((dim, dim)), w_k=np.zeros((dim, dim)), w_v=np.zeros((dim, dim)),
            w_o=np.zeros((dim, dim)), b_q=np.zeros(dim), b_k=np.zeros(dim), b_v=np.zeros(dim),
            b_o=np.zeros(dim),
        )
        layer = DecoderLayer(
            ref_net=Mlp.zeros([dim, dim, 3]),
            offset_net=Mlp.zeros([dim, dim, 3]),
            weight_net=Mlp.zeros([dim, 1]),
            attention=zero_attn,
            ffn=Mlp.zeros([dim, 4 * dim, dim]),
        )
        qs = init_queries(0, count=4, dim=dim, bounds=BOUNDS)
        out, refs = decoder_forward(qs, [layer] * 3, pyr, rig, mode=AggregationMode.DYNAMIC_GRAPH)
        assert np.array_equal(out.embeddings, qs.embeddings)
        center = (BOUNDS.lo + BOUNDS.hi) / 2
        assert np.allclose(refs, np.broadcast_to(center, refs.shape))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_degeneration_bit_identical(self, seed):
        dim = 16
        scene = make_scene(seed + 100, object_count=0, channels=dim, strides=(8, 16))
        layers = [degenerate_layer(l, dim) for l in init_decoder(seed, layers=3, dim=dim, neighbors=1, heads=4)]
        qs = init_queries(seed, count=6, dim=dim, bounds=BOUNDS)
        out_b, refs_b = decoder_forward(qs, layers, scene.pyramid, scene.rig, mode=AggregationMode.SINGLE_POINT)
        out_g, refs_g = decoder_forward(qs, layers, scene.pyramid, scene.rig, mode=AggregationMode.DYNAMIC_GRAPH)
        assert np.array_equal(out_b.embeddings, out_g.embeddings)
        assert np.array_equal(refs_b, refs_g)

    def test_fixed_points_mode_runs(self):
        dim = 8
        scene = make_scene(4, object_count=0, channels=dim, strides=(8, 16))
        layers = init_decoder(4, layers=2, dim=dim, neighbors=2, heads=2)
        qs = init_queries(4, count=5, dim=dim, bounds=BOUNDS)
        out, refs = decoder_forward(qs, layers, scene.pyramid, scene.rig, mode=AggregationMode.FIXED_POINTS)
        assert out.embeddings.shape == (5, dim)
        assert refs.shape == (2, 5, 3)

    def test_reference_points_inside_bounds(self):
        dim = 16
        scene = make_scene(5, object_count=0, channels=dim, strides=(8,))
        layers = init_decoder(5, layers=4, dim=dim, neighbors=4, heads=4)
        qs = init_queries(5, count=16, dim=dim, bounds=BOUNDS)
        _, refs = decoder_forward(qs, layers, scene.pyramid, scene.rig)
        assert np.all(refs >= BOUNDS.lo) and np.all(refs <= BOUNDS.hi)

    def test_run_to_run_determinism(self):
        dim = 16
        scene = make_scene(6, object_count=0, channels=dim, strides=(8, 16))
        outs = []
        for _ in range(2):
            layers = init_decoder(6, layers=2, dim=dim, neighbors=4, heads=4)
            qs = init_queries(6, count=8, dim=dim, bounds=BOUNDS)
            out, refs = decoder_forward(qs, layers, scene.pyramid, scene.rig)
            outs.append((out.embeddings, refs))
        assert np.array_equal(outs[0][0], outs[1][0])
        assert np.array_equal(outs[0][1], outs[1][1])

    def test_seeded_regression_hash(self):
        scene = make_scene(77, object_count=0, channels=16, strides=(8, 16))
        qs = init_queries(7, count=6, dim=16, bounds=BOUNDS)
        layers = init_decoder(7, layers=2, dim=16, neighbors=4, heads=4)
        out, refs = decoder_forward(qs, layers, scene.pyramid, scene.rig, mode=AggregationMode.DYNAMIC_GRAPH)
        digest = hashlib.sha256(out.embeddings.tobytes() + refs.tobytes()).hexdigest()
        assert digest == "9de257aabb18c022d62b7d0fc2217b334213273f8fdeea16e7ca21d32a468f22"

    def test_seeded_regression_hash_on_two_threads(self, split_runs):
        scene = make_scene(77, object_count=0, channels=16, strides=(8, 16))
        qs = init_queries(7, count=6, dim=16, bounds=BOUNDS)
        layers = init_decoder(7, layers=2, dim=16, neighbors=4, heads=4)

        def digest():
            out, refs = decoder_forward(qs, layers, scene.pyramid, scene.rig, mode=AggregationMode.DYNAMIC_GRAPH)
            return hashlib.sha256(out.embeddings.tobytes() + refs.tobytes()).hexdigest()

        one, two, threads = split_runs(digest)
        # Per layer: one sampling call and one attention call, split by heads.
        assert threads == 2 * (1 + 1)
        assert one == two == "9de257aabb18c022d62b7d0fc2217b334213273f8fdeea16e7ca21d32a468f22"

    def test_fixed_points_regression_hash(self):
        scene = make_scene(4, object_count=0, channels=8, strides=(8, 16))
        layers = init_decoder(4, layers=2, dim=8, neighbors=2, heads=2)
        qs = init_queries(4, count=16, dim=8, bounds=BOUNDS)
        out, refs = decoder_forward(qs, layers, scene.pyramid, scene.rig, mode=AggregationMode.FIXED_POINTS)
        digest = hashlib.sha256(out.embeddings.tobytes() + refs.tobytes()).hexdigest()
        assert digest == "79cf63e646d7ef13ba14909f8dcb7fda361270272f07798dd610e70b799a7764"

    def test_single_point_regression_hash(self):
        scene = make_scene(4, object_count=0, channels=8, strides=(8, 16))
        layers = init_decoder(4, layers=2, dim=8, neighbors=2, heads=2)
        qs = init_queries(4, count=16, dim=8, bounds=BOUNDS)
        out, refs = decoder_forward(qs, layers, scene.pyramid, scene.rig, mode=AggregationMode.SINGLE_POINT)
        digest = hashlib.sha256(out.embeddings.tobytes() + refs.tobytes()).hexdigest()
        assert digest == "e7ef931dde04d03a52573c21cc43d9d14d5e6e3ea7c507fce530b3091d62899f"

    @pytest.mark.parametrize("channels", [1, 8])
    def test_fixed_points_add_nodes_left_to_right(self, channels):
        # The fixed graph is the reference point plus the 8 box corners, and
        # its update adds their features in node order at every channel count.
        scene = make_scene(4, object_count=0, channels=channels, strides=(8, 16))
        rng = np.random.Generator(np.random.PCG64(12))
        refs = rng.uniform((-20.0, -20.0, 0.0), (20.0, 20.0, 2.0), size=(64, 3))
        emb = rng.uniform(-1, 1, size=(64, channels))
        corners = box_corners(Box3D(center=np.zeros(3), size=FIXED_POINTS_BOX_SIZE, yaw=0.0))
        nodes = refs[:, None, :] + np.vstack([np.zeros(3), corners])
        feats = sample_multiview_many(scene.pyramid, scene.rig, nodes.reshape(-1, 3))[0].reshape(64, 9, -1)
        total = feats[:, 0]
        for j in range(1, 9):
            total = total + feats[:, j]
        out = aggregate(emb, refs, scene.pyramid, scene.rig, mode=AggregationMode.FIXED_POINTS)
        assert np.array_equal(out, emb + total)

    def test_locality_of_propagation(self):
        # Pixels outside every node's 2x2 support must not influence the output.
        dim = 8
        rig = gen_rig("single")
        rng = np.random.Generator(np.random.PCG64(10))
        data = rng.uniform(-1, 1, size=(dim, 113, 200)).astype(np.float32)
        pyr = FeaturePyramid([[FeatureLevel(data=data, stride=8)]])
        c = np.array([20.0, 0.3, 1.4])
        layer = graph_layer(Mlp.seeded([dim, dim, 6], rng), Mlp.seeded([dim, 2], rng))
        q = rng.uniform(-1, 1, dim)
        base = aggregate(q, c, pyr, rig, layer=layer)
        nodes, _, _ = graph_nodes(q, c, layer.offset_net, layer.weight_net, 2.0)

        support = set()
        for node in nodes:
            (pixel,), (depth,) = project_points([node], rig[0])
            assert depth > 0
            pos = pixel / 8
            x0, y0 = int(np.floor(pos[0])), int(np.floor(pos[1]))
            for dx in (0, 1):
                for dy in (0, 1):
                    support.add((min(y0 + dy, 112), min(x0 + dx, 199)))
        tampered = data.copy()
        mask = np.ones((113, 200), dtype=bool)
        for y, x in support:
            mask[y, x] = False
        tampered[:, mask] += 5.0
        pyr2 = FeaturePyramid([[FeatureLevel(data=tampered, stride=8)]])
        assert np.array_equal(aggregate(q, c, pyr2, rig, layer=layer), base)


class TestPredictions:
    def test_decode_predictions_shapes(self):
        head = PredictionHead.seeded(0, dim=16, num_classes=10)
        qs = init_queries(0, count=9, dim=16, bounds=BOUNDS)
        refs = np.tile(np.array([5.0, 0.0, 1.0]), (9, 1))
        preds = decode_predictions(qs, refs, head)
        assert len(preds) == 9
        for p in preds:
            assert 0.0 < p.score <= 1.0
            assert np.all(p.box.size > 0)
            assert 0 <= p.box.class_id < 10

    @pytest.mark.parametrize("rows", ["random", "ties", "plus-minus-700"])
    def test_softmax_bit_equals_three_line_form(self, rows):
        rng = np.random.Generator(np.random.PCG64(21))
        logits = {
            "random": rng.normal(0.0, 5.0, (300, 10)),
            "ties": rng.integers(-2, 3, (300, 10)).astype(np.float64),
            "plus-minus-700": rng.choice([-700.0, 700.0], (300, 10)),
        }[rows]
        given = logits.copy()
        z = logits - logits.max(axis=-1, keepdims=True)
        e = np.exp(z)
        expected = e / e.sum(axis=-1, keepdims=True)
        assert softmax(logits).tobytes() == expected.tobytes()
        assert logits.tobytes() == given.tobytes()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_decode_predictions_equal_per_row_loop(self, seed):
        # Reference: every field decoded one query at a time.
        rng = np.random.Generator(np.random.PCG64(seed))
        head = PredictionHead.seeded(seed, dim=64)
        qs = QuerySet(embeddings=rng.uniform(-1.0, 1.0, (900, 64)), scene_bounds=BOUNDS)
        refs = rng.uniform(BOUNDS.lo, BOUNDS.hi, (900, 3))
        reg = head.reg_net(qs.embeddings)
        probs = softmax(head.cls_net(qs.embeddings))
        expected = []
        for i in range(900):
            class_id = int(np.argmax(probs[i]))
            box = Box3D(
                center=refs[i] + reg[i, 0:3], size=np.exp(reg[i, 3:6]), yaw=math.atan2(reg[i, 6], reg[i, 7]),
                velocity=reg[i, 8:10], class_id=class_id,
            )
            expected.append(DetectionResult(box=box, score=probs[i, class_id]))
        for got, want in zip(decode_predictions(qs, refs, head), expected, strict=True):
            for name in ("center", "size", "velocity"):
                assert getattr(got.box, name).tobytes() == getattr(want.box, name).tobytes()
            assert (got.box.yaw, got.box.class_id, got.score) == (want.box.yaw, want.box.class_id, want.score)

    def test_params_round_trip_is_deterministic(self, tmp_path):
        layers = init_decoder(3, layers=2, dim=8, neighbors=2, heads=2)
        head = PredictionHead.seeded(3, dim=8, num_classes=5)
        manifest = save_params(tmp_path / "params", layers, head)
        loaded_layers, loaded_head = load_params(manifest)
        assert len(loaded_layers) == 2
        assert loaded_head is not None and loaded_head.num_classes == 5
        # Stored tensors are f32; loading them twice gives identical values.
        again_layers, _ = load_params(manifest)
        for a, b in zip(loaded_layers, again_layers):
            for wa, wb in zip(a.ffn.weights, b.ffn.weights):
                assert np.array_equal(wa, wb)
        # And the f32 quantization error is bounded.
        for a, b in zip(layers, loaded_layers):
            for wa, wb in zip(a.ffn.weights, b.ffn.weights):
                assert np.abs(wa - wb).max() <= 2e-7 * max(1.0, np.abs(wa).max())

    def test_bundle_regression_hash(self, tmp_path):
        layers = init_decoder(3, layers=2, dim=8, neighbors=2, heads=2)
        manifest = save_params(tmp_path / "params", layers, PredictionHead.seeded(3, dim=8, num_classes=5))
        h = hashlib.sha256()
        for path in sorted((tmp_path / "params").iterdir()):
            h.update(path.name.encode() + path.read_bytes())
        loaded_layers, loaded_head = load_params(manifest)
        nets = [loaded_head.reg_net, loaded_head.cls_net]
        for layer in loaded_layers:
            nets += [layer.ref_net, layer.offset_net, layer.weight_net, layer.ffn]
            att = layer.attention
            for arr in (att.w_q, att.w_k, att.w_v, att.w_o, att.b_q, att.b_k, att.b_v, att.b_o):
                h.update(arr.tobytes())
        for net in nets:
            for w, b in zip(net.weights, net.biases):
                h.update(w.tobytes() + b.tobytes())
            h.update(",".join(net.activations).encode())
        # sha256 computed while the bundle could be written without a head.
        assert h.hexdigest() == "b2b4ac0ea85e53c28e9f339660aaabab2bf178d25696dc9b73d77f7ca4cd2d3b"

    def test_save_params_rejects_empty_stack(self, tmp_path):
        with pytest.raises(DecoderError, match="layers must be at least 1"):
            save_params(tmp_path / "params", [], PredictionHead.seeded(3, dim=8))

    @pytest.mark.parametrize("second", ["layer00_ffn_b1.gdt3", "./layer00_ffn_b1.gdt3"])
    def test_params_name_each_file_once(self, tmp_path, second):
        layers = init_decoder(3, layers=1, dim=8, neighbors=2, heads=2)
        manifest = save_params(tmp_path / "params", layers, PredictionHead.seeded(3, dim=8))
        with open(manifest) as fh:
            bundle = json.load(fh)
        bundle["entries"].append({"file": second, "name": "extra", "shape": [8]})
        with open(manifest, "w") as fh:
            json.dump(bundle, fh)
        with pytest.raises(DecoderError, match=re.escape(f"{second!r} is named more than once")):
            load_params(manifest)

    @staticmethod
    def edited_bundle(tmp_path, edit):
        """A saved one-layer bundle (dim 8, 2 neighbors, 10 classes) after
        ``edit`` of its manifest; returns the manifest path."""
        layers = init_decoder(3, layers=1, dim=8, neighbors=2, heads=2)
        manifest = save_params(tmp_path / "params", layers, PredictionHead.seeded(3, dim=8))
        with open(manifest) as fh:
            bundle = json.load(fh)
        edit(bundle)
        with open(manifest, "w") as fh:
            json.dump(bundle, fh)
        return manifest

    @pytest.mark.parametrize(
        "edit, missing",
        [
            (lambda b: b["meta"].update(layers=2), "layer01.attention.w_q"),
            (lambda b: b["meta"]["activations"].pop("layer00.ffn"), "layer00.ffn"),
            (lambda b: b.update(entries=[e for e in b["entries"] if e["name"] != "layer00.ffn.b1"]), "layer00.ffn.b1"),
            (lambda b: b["meta"].update(layers=10**18), "layer01.attention.w_q"),
            (lambda b: b["meta"]["activations"]["layer00.ffn"].append("relu"), "layer00.ffn.w2"),
        ],
    )
    def test_incomplete_params_name_the_missing_item(self, tmp_path, edit, missing):
        manifest = self.edited_bundle(tmp_path, edit)
        with pytest.raises(DecoderError, match=re.escape(repr(missing))):
            load_params(manifest)

    @pytest.mark.parametrize(
        "key, value, loaded",
        [("dim", 999, 8), ("dim", 16.0, 8), ("neighbors", -4, 2), ("neighbors", 1, 2), ("num_classes", 3, 10)],
    )
    def test_params_meta_must_match_nets(self, tmp_path, key, value, loaded):
        manifest = self.edited_bundle(tmp_path, lambda b: b["meta"].update({key: value}))
        with pytest.raises(DecoderError, match=f"meta {key} is {int(value)}, but the loaded nets have {loaded}"):
            load_params(manifest)

    @pytest.mark.parametrize(
        "edit",
        [lambda b: b.update(version=2), lambda b: b.update(version="x"), lambda b: b.update(version=None),
         lambda b: b.pop("version")],
        ids=["two", "string", "null", "missing"],
    )
    def test_params_version_must_be_one(self, tmp_path, edit):
        manifest = self.edited_bundle(tmp_path, edit)
        with pytest.raises(DecoderError, match="parameter manifest .*(unsupported version 2|malformed field)"):
            load_params(manifest)

    @pytest.mark.parametrize("value", [8.5, "8", None, True])
    def test_params_meta_dim_must_be_an_integer(self, tmp_path, value):
        manifest = self.edited_bundle(tmp_path, lambda b: b["meta"].update(dim=value))
        with pytest.raises(DecoderError, match="malformed field"):
            load_params(manifest)

    @pytest.mark.parametrize(
        "name",
        [
            "extra",
            "layer01.ffn.w0",  # the bundle has one layer
            "layer0.ffn.w0",
            "layer000.ffn.w0",
            pytest.param("layer" + "9" * 5000 + ".ffn.w0", id="layer-index-of-5000-digits"),
            "layer00.ffn",
            "layer00.ffn.w01",
            "layer00.ffn.x0",
            "layer00.ffn.w0.copy",
            "layer00.attention.w0",
            "layer00.head.w0",
            "head.ffn.w0",
            "head.attention.w_q",
        ],
    )
    def test_params_entry_outside_layout_rejected_before_read(self, tmp_path, name):
        # The entry's file does not exist: reading it would raise FileNotFoundError.
        entry = {"file": "absent.gdt3", "name": name, "shape": [8]}
        manifest = self.edited_bundle(tmp_path, lambda b: b["entries"].append(entry))
        with pytest.raises(DecoderError, match=re.escape(f"entry {name!r} is not part of a 1-layer bundle")):
            load_params(manifest)

    @pytest.mark.parametrize("net", ["layer05.ffn", "layer01.ref", "head.attention", "extra"])
    def test_params_activations_outside_layout_rejected(self, tmp_path, net):
        manifest = self.edited_bundle(tmp_path, lambda b: b["meta"]["activations"].update({net: ["relu", "bogus"]}))
        with pytest.raises(DecoderError, match=re.escape(f"activations entry {net!r} is not part of a 1-layer bundle")):
            load_params(manifest)

    def test_params_entry_nothing_reads_rejected(self, tmp_path):
        # The ffn has two linear layers: w0/b0 and w1/b1. The entry is rejected
        # whether its file is present or absent, so the file is never read.
        write_tensor(tmp_path / "spare.gdt3", np.zeros((8, 8)))
        for file in (str(tmp_path / "spare.gdt3"), "absent.gdt3"):
            entry = {"file": file, "name": "layer00.ffn.w7", "shape": [8, 8]}
            manifest = self.edited_bundle(tmp_path, lambda b: b["entries"].append(entry))
            with pytest.raises(DecoderError, match=re.escape("entry 'layer00.ffn.w7' is not part of a 1-layer bundle")):
                load_params(manifest)

    def test_params_entry_named_twice_rejected(self, tmp_path):
        write_tensor(tmp_path / "spare.gdt3", np.zeros(8))
        entry = {"file": str(tmp_path / "spare.gdt3"), "name": "layer00.ffn.b1", "shape": [8]}
        manifest = self.edited_bundle(tmp_path, lambda b: b["entries"].append(entry))
        with pytest.raises(DecoderError, match=re.escape("entry 'layer00.ffn.b1' is named more than once")):
            load_params(manifest)

    @pytest.mark.parametrize("key, sizes", [
        ("neighbors", dict(neighbors=3)), ("dim", dict(dim=4, heads=1)), ("heads", dict(heads=4)),
    ])
    def test_save_params_rejects_stack_of_mixed_sizes(self, tmp_path, key, sizes):
        base = dict(layers=1, dim=8, neighbors=2, heads=2)
        layers = init_decoder(3, **base) + init_decoder(4, **(base | sizes))
        with pytest.raises(DecoderError, match=f"the layers must share one {key}"):
            save_params(tmp_path / "params", layers, PredictionHead.seeded(3, dim=8))


class TestGradCheck:
    def test_constant_field_offset_gradient_exactly_zero(self):
        # Offsets only matter through the sampled field; a constant field has
        # no spatial gradient anywhere.
        rig = gen_rig("nuscenes-like")
        pyr = render_pyramid(AnalyticField.constant(np.full(4, 1.5)), rig, strides=(8, 16))
        rng = np.random.Generator(np.random.PCG64(11))
        probe = _GradProbe(
            pyr=pyr,
            rig=rig,
            ref_net=Mlp.seeded([8, 8, 3], rng),
            offset_net=Mlp.seeded([8, 8, 6], rng),
            weight_net=Mlp.seeded([8, 2], rng),
            bounds=SceneBounds(lo=(5, -6, 0.5), hi=(25, 6, 2.5)),
            offset_scale=1.0,
        )
        qs = rng.uniform(-1, 1, (3, 8))
        derived = probe.derive_rows(qs)
        sums, dsums = probe.node_grads(derived[1].reshape(-1, 3))
        grad_offsets, _, _ = probe.analytic(qs, derived, sums.reshape(3, 2), dsums.reshape(3, 2, 3))
        assert grad_offsets.shape == (3, 2, 3) and np.all(grad_offsets == 0.0)

    @staticmethod
    def one_probe_analytic(probe, q, derived, s, ds):
        """Reference: the gradients of one probe, given its (C,) query, its
        graph, and its nodes' (K,) sums and (K, 3) dsums, each product a
        one-query matmul."""
        weights = derived[3]
        grad_offsets = weights[:, None] * ds
        sig_ref = sigmoid(probe.ref_net(q))
        dc_dq = (probe.bounds.extent * sig_ref * (1 - sig_ref))[:, None] * probe.ref_net.jacobian(q)
        z_off = probe.offset_net(q)
        doff_dq = (probe.offset_scale * (1 - np.tanh(z_off) ** 2))[:, None] * probe.offset_net.jacobian(q)
        dw_dq = (weights * (1 - weights))[:, None] * probe.weight_net.jacobian(q)
        grad_q = 1.0 + s @ dw_dq + grad_offsets.sum(axis=0) @ dc_dq + grad_offsets.reshape(-1) @ doff_dq
        return grad_offsets, s, grad_q

    def test_group_analytic_equals_one_probe_at_a_time(self):
        # Each group grad_check scores at 1, 8 and 33 probes (32 + 1), on the
        # probes it chooses and the node gradients it takes.
        checked = 0
        for seed in range(200):
            for probes in (1, 8, 33):
                probe, rng = _grad_setup(seed)
                k = probe.weight_net.out_dim
                for first in range(0, probes, 32):
                    qs, derived, _ = probe.choose(rng, min(32, probes - first), 1e-4)
                    sums, dsums = probe.node_grads(derived[1].reshape(-1, 3))
                    sums, dsums = sums.reshape(-1, k), dsums.reshape(-1, k, 3)
                    got = probe.analytic(qs, derived, sums, dsums)
                    assert [g.shape for g in got] == [(len(qs), k, 3), (len(qs), k), qs.shape]
                    for i, (q, graph, s, ds) in enumerate(zip(qs, zip(*derived), sums, dsums)):
                        expected = self.one_probe_analytic(probe, q, graph, s, ds)
                        assert [g[i].tobytes() for g in got] == [e.tobytes() for e in expected]
                        checked += 1
        assert checked == 200 * (1 + 8 + 33)

    @staticmethod
    def per_camera_node_grads(probe, nodes):
        """Reference: the node gradients taken through one ``project_points``
        call per camera."""
        sums = np.zeros((len(nodes), 3))
        for ci, cam in enumerate(probe.rig):
            intr, rot = cam.intrinsics, cam.extrinsics.rotation
            pixels, depths = project_points(nodes, cam)
            centered = pixels - (intr.cx, intr.cy)
            focal = np.array([[intr.fx], [intr.fy]])
            jac = (focal * rot[:2] - centered[:, :, None] * rot[2]) / depths[:, None, None]
            for level in probe.pyr.levels(ci):
                rows, grads = featcore.bilinear_grad(level, pixels / level.stride)
                sums[rows] += (grads.sum(axis=1)[:, None, :] @ jac[rows])[:, 0] / level.stride
        feats, counts = sample_multiview_many(probe.pyr, probe.rig, nodes)
        ds = np.divide(sums, counts[:, None], out=np.zeros_like(sums), where=counts[:, None] > 0)
        return feats.sum(axis=1), ds

    def test_node_grads_equal_per_camera_loop(self, monkeypatch):
        # On every group of nodes grad_check scores for seeds 0-49, and on
        # nodes scattered around the rig, most of them seen by no camera.
        node_grads = _GradProbe.node_grads
        seen = []

        def checked(probe, nodes):
            got = node_grads(probe, nodes)
            expected = self.per_camera_node_grads(probe, nodes)
            assert [part.tobytes() for part in got] == [part.tobytes() for part in expected]
            seen.append(len(nodes))
            return got

        monkeypatch.setattr(_GradProbe, "node_grads", checked)
        for seed in range(50):
            grad_check(seed=seed, probes=8)
        assert seen == [8 * 4] * 50
        probe, rng = _grad_setup(0)
        nodes = rng.uniform((-60.0, -60.0, -5.0), (60.0, 60.0, 10.0), (500, 3))
        sums, dsums = checked(probe, nodes)
        assert np.any(dsums == 0.0) and np.any(dsums != 0.0)

    def test_linear_field_gradient_equals_slope(self):
        # For a field linear in u, dS/du equals the slope exactly; checked
        # through the image-plane chain at one node on a single camera.
        rig = gen_rig("single")
        slope = 0.02
        pyr = render_pyramid(AnalyticField.linear([0.0], [slope], [0.0]), rig, strides=(8,))
        rng = np.random.Generator(np.random.PCG64(12))
        probe = _GradProbe(
            pyr=pyr,
            rig=rig,
            ref_net=Mlp.zeros([4, 4, 3]),
            offset_net=Mlp.zeros([4, 4, 3]),
            weight_net=Mlp.zeros([4, 1]),
            bounds=SceneBounds(lo=(10, -1, 1.0), hi=(20, 1, 2.0)),
            offset_scale=1.0,
        )
        node = np.array([[15.0, 0.37, 1.53]])
        s, ds = probe.node_grads(node)
        # Closed form: dS/dnode = slope * d(u_img)/d(node); the level stride
        # cancels between the level-space field slope and the level-space
        # position. du/dnode = fx * (R_row0 - (x_c/z_c) R_row2) / z_c.
        cam = rig[0]
        rot = cam.extrinsics.rotation
        cam_pt = rot @ node[0] + cam.extrinsics.translation
        x_c, _, z_c = cam_pt
        du_dnode = cam.intrinsics.fx * (rot[0] - (x_c / z_c) * rot[2]) / z_c
        expected = slope * du_dnode
        # 32-bit level storage rounds the rendered ramp, bounding agreement
        # with the infinite-precision slope at the f32 epsilon scale.
        assert np.all(np.abs(ds[0] - expected) <= 2e-5 * np.maximum(1.0, np.abs(expected)))

    @staticmethod
    def margin_probe():
        rig = gen_rig("single")
        pyr = render_pyramid(AnalyticField.constant([1.0]), rig, strides=(8,))
        probe = _GradProbe(
            pyr=pyr,
            rig=rig,
            ref_net=Mlp.zeros([2, 3]),
            offset_net=Mlp.zeros([2, 3]),
            weight_net=Mlp.zeros([2, 1]),
            bounds=BOUNDS,
            offset_scale=1.0,
        )
        return probe, rig[0], pyr.levels(0)[0]

    def test_min_level_margin_fractional_pixel(self):
        # Level position (10.3, 7.8) is 0.2 from the line v = 8 and far from
        # every border; a node behind the camera adds no sample.
        probe, cam, level = self.margin_probe()
        node = back_project(np.array([10.3, 7.8]) * level.stride, 15.0, cam)
        behind = np.array([-20.0, 0.0, 1.5])
        assert probe.min_level_margin(np.stack([node, behind])) == pytest.approx(0.2, abs=1e-9)

    def test_min_level_margin_outside_level_gives_border_distance(self):
        probe, cam, level = self.margin_probe()
        left = back_project(np.array([-0.7, 5.5]) * level.stride, 15.0, cam)
        assert probe.min_level_margin(left[None]) == pytest.approx(0.7, abs=1e-9)
        right = back_project(np.array([level.width - 1 + 0.4, 5.5]) * level.stride, 15.0, cam)
        assert probe.min_level_margin(right[None]) == pytest.approx(0.4, abs=1e-9)

    def test_min_level_margin_near_camera_plane_is_zero(self):
        probe, cam, level = self.margin_probe()
        node = back_project(np.array([10.3, 7.8]) * level.stride, 5e-4, cam)
        far = back_project(np.array([10.3, 7.8]) * level.stride, 15.0, cam)
        assert probe.min_level_margin(np.stack([far, node])) == 0.0

    def test_min_level_margin_equals_per_camera_loop(self, monkeypatch):
        # Reference: the per-camera loop the margin ran before one rig-wide
        # projection fed one test per level index, checked for every graph
        # of every batch grad_check screens for seeds 0-39.
        def per_camera_margin(probe, nodes):
            margin = np.inf
            for ci, cam in enumerate(probe.rig):
                pixels, depths = project_points(nodes, cam)
                if np.any((depths > 0) & (depths <= 1e-3)):
                    return 0.0
                pixels = pixels[depths > 1e-3]
                for level in probe.pyr.levels(ci):
                    pos = pixels / level.stride
                    border = np.abs(np.hstack([pos, (level.width - 1, level.height - 1) - pos]))
                    u, v = pos[:, 0], pos[:, 1]
                    inside = pos[(u >= 0) & (u <= level.width - 1) & (v >= 0) & (v <= level.height - 1)]
                    frac = np.abs(inside - np.round(inside))
                    margin = min(margin, border.min(initial=np.inf), frac.min(initial=np.inf))
            return float(margin)

        margins = []
        min_level_margin = _GradProbe.min_level_margin

        def checked(probe, nodes):
            got = min_level_margin(probe, nodes)
            assert got.shape == nodes.shape[:-2]
            for graph, margin in zip(nodes.reshape(-1, *nodes.shape[-2:]), got.ravel().tolist()):
                assert margin == per_camera_margin(probe, graph)
                margins.append(margin)
            return got

        monkeypatch.setattr(_GradProbe, "min_level_margin", checked)
        for seed in range(40):
            grad_check(seed=seed, probes=8)
        assert len(margins) > 320 and min(margins) <= 1e-3

    @staticmethod
    def one_query_near_relu_kink(probe, q, eps):
        """The ReLU screen of one (C,) query, its reach chain built per query."""
        for mlp in (probe.ref_net, probe.offset_net, probe.weight_net):
            reach = eps * np.eye(len(q))
            for z, w, act in zip(mlp.preactivations(q), mlp.weights, mlp.activations):
                reach = np.abs(w) @ reach
                if act == "relu" and np.any(np.abs(z)[:, None] <= reach):
                    return True
        return False

    @staticmethod
    def one_graph_margin(probe, nodes):
        """The bilinear screen of one graph's (K, 3) nodes: one rig-wide
        projection, then one test per level index."""
        u, v, depths = _project(nodes, probe.rig.cameras)
        if np.any((depths > 0) & (depths <= 1e-3)):
            return 0.0
        front = depths > 1e-3
        u, v = u[front], v[front]
        margin = np.inf
        for level in probe.pyr.levels(0):
            pu, pv = u / level.stride, v / level.stride
            inside = _inside_rows(level, pu, pv)
            for pos, last in ((pu, level.width - 1), (pv, level.height - 1)):
                border = min(np.abs(pos).min(initial=np.inf), np.abs(last - pos).min(initial=np.inf))
                frac = np.abs(pos[inside] - np.round(pos[inside]))
                margin = min(margin, border, frac.min(initial=np.inf))
        return float(margin)

    def one_at_a_time(self, probe, rng, count, eps):
        """Reference: the selection loop that draws, derives and screens one
        probe at a time, through the one-graph and one-query screens above.
        Returns per probe its query, its graph, its jitter count and the
        generator state after it."""
        chosen = []
        for _ in range(count):
            q = rng.uniform(-1.0, 1.0, size=probe.ref_net.in_dim)
            derived = probe.derive(q)
            jittered = 0
            for _attempt in range(8):
                if self.one_graph_margin(probe, derived[1]) > 1e-3 and not self.one_query_near_relu_kink(probe, q, eps):
                    break
                q = q + rng.uniform(-0.05, 0.05, size=len(q))
                jittered += 1
                derived = probe.derive(q)
            chosen.append((q, derived, jittered, rng.bit_generator.state))
        return chosen

    def assert_choice_equals_one_at_a_time(self, seeds, eps):
        """Chooses 1, 31, 32, 32 + 1 and 32 + 32 + 6 probes of each seed in
        groups of 32, so a rewind can fall inside a group, on its last probe
        and on the first probe of the next, and asserts the bits, jitter
        counts and final generator state of ``one_at_a_time``.  Returns each
        seed's 70 reference jitter counts."""
        counts = []
        for seed in seeds:
            probe, rng = _grad_setup(seed)
            reference = self.one_at_a_time(probe, deepcopy(rng), 70, eps)
            counts.append([jittered for _, _, jittered, _ in reference])
            for probes in (1, 31, 32, 33, 70):
                group_rng, chosen = deepcopy(rng), []
                for first in range(0, probes, 32):
                    qs, derived, jittered = probe.choose(group_rng, min(32, probes - first), eps)
                    assert jittered == sum(counts[-1][first : first + len(qs)])
                    chosen += zip(qs, zip(*derived))
                assert len(chosen) == probes
                for (q, graph), (ref_q, ref_graph, _, _) in zip(chosen, reference):
                    assert q.tobytes() == ref_q.tobytes()
                    assert [part.tobytes() for part in graph] == [part.tobytes() for part in ref_graph]
                assert group_rng.bit_generator.state == reference[probes - 1][3]
        return counts

    def test_batched_choice_equals_one_at_a_time(self):
        counts = self.assert_choice_equals_one_at_a_time([*range(200), 236352767], 1e-4)
        jittered_at = {i for seed_counts in counts for i, n in enumerate(seed_counts) if n}
        assert {0, 31, 32} & jittered_at and jittered_at - {0, 31, 32, 69}

    def test_batched_choice_keeps_the_jitter_cap(self):
        # A query step of 1 reaches some ReLU kink from every query, so every
        # probe is jittered 8 times and its last jitter is taken unchecked.
        counts = self.assert_choice_equals_one_at_a_time(range(3), 1.0)
        assert {n for seed_counts in counts for n in seed_counts} == {8}

    def test_default_config_passes(self):
        report = grad_check(seed=42, probes=8)
        assert report.passed
        for comp in report.components:
            assert comp.max_rel_dev < 1e-6

    def test_query_step_across_relu_kink_is_jittered(self):
        # Unjittered, one query step of this seed straddles a ReLU kink of the
        # offset net (preactivation 5.9e-9 from zero) and the query component
        # fails with relative deviation 0.064.
        report = grad_check(seed=236352767, probes=8)
        assert report.passed
        assert all(comp.n_jittered >= 1 for comp in report.components)

    def test_zero_tolerance_fails(self):
        report = grad_check(seed=0, probes=2, tol=0.0)
        assert not report.passed

    def test_invalid_eps_rejected(self):
        for eps in (0.0, -1e-4, np.nan, np.inf, -np.inf):
            with pytest.raises(DecoderError, match=re.escape(f"eps must be finite and positive, got {eps}")):
                grad_check(eps=eps)

    def test_invalid_tol_rejected(self):
        for tol in (-1.0, np.nan, np.inf, -np.inf):
            with pytest.raises(DecoderError, match=re.escape(f"tol must be finite and at least 0, got {tol}")):
                grad_check(tol=tol)

    @pytest.mark.parametrize("kwargs", [{"probes": 0}, {"probes": -1}])
    def test_check_of_nothing_rejected(self, kwargs):
        with pytest.raises(DecoderError):
            grad_check(**kwargs)

    def test_grad_check_report_regression_hash(self):
        # sha256 of the sorted-JSON reports, computed once the oracle scored
        # its cases through the decoder's own ``_graph_update``.
        expected = {
            42: "b8d7b24778c9db3cbc61da052d3f5d6b08343f27e0da0cfc84a58842a9ed8801",
            236352767: "5de54c1a707c3c1ee0c05856d744e3757e3e106bbc3e417e88d57f8451088076",
        }
        for seed, digest in expected.items():
            blob = json.dumps(grad_check(seed=seed, probes=8).to_dict(), sort_keys=True)
            assert hashlib.sha256(blob.encode()).hexdigest() == digest

    def test_grad_check_report_sweep_hash(self):
        # sha256 over the sorted-JSON reports of a seed sweep, computed once
        # the oracle scored its cases through ``_graph_update``.  Seed 3 with
        # 70 probes spans three groups.
        sweep = hashlib.sha256()
        for seed in [*range(40), 97, 1000, 1199, 236352767]:
            sweep.update(json.dumps(grad_check(seed=seed, probes=8).to_dict(), sort_keys=True).encode())
        assert sweep.hexdigest() == "378da90458590de88193cac73d77c649d2156f97db79f65c3f38cd9af8262682"
        blob = json.dumps(grad_check(seed=3, probes=70).to_dict(), sort_keys=True)
        assert hashlib.sha256(blob.encode()).hexdigest() == (
            "e1f0a19f4e5164dabcd742ae907bde87b45f6968b5d6c7dbe5a5bfaee1451929"
        )

    def test_grad_check_report_structure_hash(self):
        # sha256 over the sweep's sorted-JSON reports without their deviation
        # fields: which components pass, and how many entries were checked and
        # probes jittered, on the seeds of the sweep above.  Computed before
        # the oracle scored its cases through ``_graph_update``, which moved
        # only deviation bits.
        sweep = hashlib.sha256()
        for seed, probes in [*((s, 8) for s in [*range(40), 97, 1000, 1199, 236352767]), (3, 70)]:
            report = grad_check(seed=seed, probes=probes).to_dict()
            for comp in report["components"]:
                del comp["max_abs_dev"], comp["max_rel_dev"]
            sweep.update(json.dumps(report, sort_keys=True).encode())
        assert sweep.hexdigest() == "1b9e4a4a4e40c55e74721c729441fca210c28ecc0fca62d2d5994784a6a48cb6"

    def test_peak_memory_does_not_grow_with_probes(self):
        # Each group of probes is chosen, scored and folded into the report
        # before the next is chosen.  Holding every probe to the end costs
        # about 2.5 KB per probe, 1.5 MB more at 640 probes than at 64.
        grad_check(seed=0, probes=1)  # one-time allocations stay out of the trace
        peaks = []
        for probes in (64, 640):
            tracemalloc.start()
            try:
                grad_check(seed=5, probes=probes)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 256 * 1024

    def test_starts_no_thread(self, monkeypatch):
        # Its sampling calls of a 4-channel field are below the row split's
        # floors, so the oracle runs on the calling thread even where two
        # CPUs are free.
        def refuse(*args, **kwargs):
            raise AssertionError("grad_check started a thread")

        monkeypatch.setattr(featcore, "_WORKERS", 2)
        monkeypatch.setattr(featcore.threading, "Thread", refuse)
        assert grad_check(seed=7, probes=8).passed

    def test_jacobians_taken_once_per_net_per_probe(self, monkeypatch):
        # Order and count matter to tooling that maps each Jacobian call to
        # its probe: ref, offset, weight, once each per probe.
        calls = []
        jacobian = Mlp.jacobian

        def record(mlp, x):
            calls.append(mlp.out_dim)
            return jacobian(mlp, x)

        monkeypatch.setattr(Mlp, "jacobian", record)
        grad_check(seed=5, probes=2)
        assert calls == [3, 12, 4, 3, 12, 4]

    def test_batched_losses_match_per_case_sums(self, monkeypatch):
        # Reference: each case's loss written out as sum(q) plus the row sum of
        # a one-case ``_graph_update`` call, on the probes grad_check draws.
        from mvdet import decoder

        groups, updates = [], []
        cases, graph_update = _GradProbe.cases, decoder._graph_update

        def record_cases(probe, *args):
            groups.append(cases(probe, *args))
            return groups[-1]

        def record_update(nodes, weights, pyr, rig):
            updates.append((nodes, weights, pyr, rig, graph_update(nodes, weights, pyr, rig)))
            return updates[-1][-1]

        monkeypatch.setattr(_GradProbe, "cases", record_cases)
        monkeypatch.setattr(decoder, "_graph_update", record_update)
        for seed in (0, 5, 42, 236352767):
            grad_check(seed=seed, probes=4)
        # One call per grad_check builds the cases of all its 4 probes, each
        # with 2 * (12 + 4 + 16) cases, and one call scores them.
        assert len(updates) == len(groups) == 4
        for (qs, step_nodes, step_weights), (nodes, weights, pyr, rig, update) in zip(groups, updates):
            assert qs.shape == (4 * 64, 16)
            assert step_nodes.tobytes() == nodes.tobytes() and step_weights.tobytes() == weights.tobytes()
            losses = qs.sum(axis=1) + update.sum(axis=1)
            expected = np.array([
                np.sum(q) + graph_update(n[None], w[None], pyr, rig).sum(axis=1)[0]
                for q, n, w in zip(qs, nodes, weights)
            ])
            assert losses.tobytes() == expected.tobytes()

    def test_one_graph_update_per_layer_and_per_probe_group(self, monkeypatch):
        # The decoder and the oracle share one update: one call per layer of
        # decoder_forward and one per group of grad_check's probes.
        from mvdet import decoder

        calls = []
        graph_update = decoder._graph_update

        def record(nodes, weights, pyr, rig):
            calls.append(weights.shape)
            return graph_update(nodes, weights, pyr, rig)

        monkeypatch.setattr(decoder, "_graph_update", record)
        rig = gen_rig("nuscenes-like")
        pyr = render_pyramid(AnalyticField.constant(np.full(8, 0.5)), rig, strides=(16,))
        layers = init_decoder(0, layers=3, dim=8, neighbors=2, heads=2)
        decoder_forward(init_queries(0, 5, 8, BOUNDS), layers, pyr, rig)
        assert calls == [(5, 2)] * 3
        calls.clear()
        grad_check(seed=5, probes=70)
        # Groups of 32, 32 and 6 probes; each has 2 * (12 + 4 + 16) cases of 4 nodes.
        assert calls == [(32 * 64, 4), (32 * 64, 4), (6 * 64, 4)]

    def test_two_sampling_calls_per_probe_group(self, monkeypatch):
        from mvdet import decoder

        calls = []
        sample = decoder.sample_multiview_many

        def record(pyr, rig, points, *args):
            calls.append(len(np.asarray(points).reshape(-1, 3)))
            return sample(pyr, rig, points, *args)

        monkeypatch.setattr(decoder, "sample_multiview_many", record)
        grad_check(seed=5, probes=8)
        # The 8 probes form one group: the analytic gradients sample their
        # 8 * K = 32 nodes, then one call samples the nodes of all their
        # 8 * 2 * (12 + 4 + 16) signed steps.
        assert calls == [8 * 4, 8 * 64 * 4]

    def test_rig_built_once_and_read_only(self, monkeypatch):
        rigs = []
        init = _GradProbe.__init__

        def record(probe, *args, **kwargs):
            init(probe, *args, **kwargs)
            rigs.append(probe.rig)

        monkeypatch.setattr(_GradProbe, "__init__", record)
        grad_check(seed=5, probes=1)
        grad_check(seed=6, probes=1)
        assert len(rigs) == 2 and rigs[0] is rigs[1]
        for cam, fresh in zip(rigs[0], gen_rig("nuscenes-like"), strict=True):
            assert (cam.id, cam.intrinsics) == (fresh.id, fresh.intrinsics)
            for name in ("rotation", "translation"):
                arr = getattr(cam.extrinsics, name)
                assert not arr.flags.writeable
                assert arr.tobytes() == getattr(fresh.extrinsics, name).tobytes()
