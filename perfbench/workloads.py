"""The benchmark workloads.

Each workload builds its inputs from the base seed (``build``), runs one
operation through mvdet's public functions (``run``), and checks that
operation's outputs against an oracle that does not share the code under
test (``check``).  ``describe`` gives descriptors of the traffic that repeat
exactly for one seed, so a change that shifts a workload shows.

Only public names of the package are called, always through their module
(``featcore.load_pyramid``, never an imported alias), so the tracer can
wrap them.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import statistics
import sys

import numpy as np

from mvdet import augment, camgeo, decoder, featcore, matching, metrics, synth

# Float32 storage of field values of magnitude <= ~5 bounds the sampling
# error well below this.
SAMPLE_TOL = 1e-5


def camera_counts(points: np.ndarray, rig: camgeo.CameraRig) -> np.ndarray:
    """Cameras seeing each point, by an explicit pinhole projection that
    does not use camgeo's projection code."""
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    counts = np.zeros(len(pts), dtype=np.int64)
    for cam in rig:
        u, v, z = _pinhole(pts, cam)
        intr = cam.intrinsics
        counts += (z > 0) & (u >= 0) & (u < intr.width) & (v >= 0) & (v < intr.height)
    return counts


def _pinhole(pts, cam):
    cam_pts = pts @ cam.extrinsics.rotation.T + cam.extrinsics.translation
    z = cam_pts[:, 2]
    intr = cam.intrinsics
    with np.errstate(divide="ignore", invalid="ignore"):
        u = intr.fx * cam_pts[:, 0] / z + intr.cx
        v = intr.fy * cam_pts[:, 1] / z + intr.cy
    return u, v, z


def ref_spread_m(refs: np.ndarray) -> float:
    """Spread of reference points: the smaller of the x and y standard
    deviations, in metres."""
    return float(min(refs[:, 0].std(), refs[:, 1].std()))


def duplicate_row_frac(dets) -> float:
    """Share of prediction rows that repeat an earlier row: same class,
    centre within 5 cm."""
    centers = np.array([d.box.center for d in dets])
    cls = np.array([d.box.class_id for d in dets])
    dist = np.linalg.norm(centers[:, None, :] - centers[None, :, :], axis=2)
    near = np.tril((dist < 0.05) & (cls[:, None] == cls[None, :]), k=-1)
    return float(near.any(axis=1).mean())


def _sha(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# scene-decode


class SceneDecode:
    """One camera frame as ``mvdet decode`` serves it: load the frame's GDT3
    pyramid and the calibration, run the dynamic-graph decoder, decode the
    predictions.

    The decoder is built so that reference points cover DEFAULT_BOUNDS at
    every layer, as a trained decoder's do: embedding channels 0-2 carry the
    reference-point logits, each layer's ref net passes them through (ReLU
    pair) with a small per-layer bias, and attention output, feed-forward
    output and pyramid channels 0-2 are zero so nothing else moves them.
    All other weights keep the seeded uniform init of ``init_decoder``.
    """

    name = "scene-decode"
    queries, neighbors, layers, dim, heads, frames = 900, 16, 6, 64, 8, 3
    check_nodes = 256
    min_visible, min_spread_m = 0.8, 10.0

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def build(self) -> None:
        seed, dim = self.seed, self.dim
        self.rig = synth.gen_rig("nuscenes-like")
        self.calib = os.path.join(self.workdir, "calib.json")
        camgeo.save_rig(self.calib, self.rig)
        self.decoder_layers = [self._layer(synth.derived_rng(seed, 500, li)) for li in range(self.layers)]
        self.head = decoder.PredictionHead.seeded(seed, dim=dim, num_classes=10)
        rng = synth.derived_rng(seed, 501)
        emb = rng.uniform(-1.0, 1.0, size=(self.queries, dim)) / math.sqrt(dim)
        frac = rng.uniform(0.02, 0.98, size=(self.queries, 3))
        emb[:, :3] = np.log(frac / (1.0 - frac))
        self.qs = decoder.QuerySet(embeddings=emb, scene_bounds=synth.DEFAULT_BOUNDS)
        self.fields, self.manifests = [], []
        for f in range(self.frames):
            rng = synth.derived_rng(seed, 502, f)
            coeffs = [rng.uniform(-1.0, 1.0, dim) * s for s in (1.0, 1e-3, 1e-3, 1e-6)]
            for arr in coeffs:
                arr[:3] = 0.0
            field = synth.AnalyticField(*coeffs)
            pyr = synth.render_pyramid(field, self.rig, synth.DEFAULT_STRIDES)
            self.fields.append(field)
            self.manifests.append(featcore.save_pyramid(os.path.join(self.workdir, f"frame{f}"), pyr))
        self.mlp_roles = {
            id(getattr(layer, role)): role
            for layer in self.decoder_layers
            for role in ("ref_net", "offset_net", "weight_net", "ffn")
        }

    def _layer(self, rng) -> decoder.DecoderLayer:
        dim, k = self.dim, self.neighbors
        w0 = np.zeros((dim, dim))
        w1 = np.zeros((3, dim))
        w0[0:3, 0:3], w0[3:6, 0:3] = np.eye(3), -np.eye(3)
        w1[:, 0:3], w1[:, 3:6] = np.eye(3), -np.eye(3)
        ref_net = decoder.Mlp(
            weights=(w0, w1),
            biases=(np.zeros(dim), rng.uniform(-0.2, 0.2, 3)),
            activations=("relu", "identity"),
        )
        offset_net = decoder.Mlp.seeded([dim, dim, 3 * k], rng)
        weight_net = decoder.Mlp.seeded([dim, k], rng)
        att = decoder.AttentionParams.seeded(dim, self.heads, rng)
        w_o, b_o = att.w_o.copy(), att.b_o.copy()
        w_o[:3], b_o[:3] = 0.0, 0.0
        att = decoder.AttentionParams(
            heads=att.heads, w_q=att.w_q, w_k=att.w_k, w_v=att.w_v, w_o=w_o,
            b_q=att.b_q, b_k=att.b_k, b_v=att.b_v, b_o=b_o,
        )
        ffn = decoder.Mlp.seeded([dim, 4 * dim, dim], rng)
        f_w, f_b = ffn.weights[1].copy(), ffn.biases[1].copy()
        f_w[:3], f_b[:3] = 0.0, 0.0
        ffn = decoder.Mlp(weights=(ffn.weights[0], f_w), biases=(ffn.biases[0], f_b), activations=ffn.activations)
        return decoder.DecoderLayer(ref_net=ref_net, offset_net=offset_net, weight_net=weight_net, attention=att, ffn=ffn)

    def run(self, i: int):
        frame = i % self.frames
        pyr = featcore.load_pyramid(self.manifests[frame])
        rig = camgeo.load_rig(self.calib)
        refined, refs = decoder.decoder_forward(self.qs, self.decoder_layers, pyr, rig)
        preds = decoder.decode_predictions(refined, refs[-1], self.head)
        return frame, pyr, refined, refs, preds

    @staticmethod
    def digest(out) -> str:
        _, _, refined, refs, _ = out
        return _sha(refined.embeddings.tobytes(), refs.tobytes())

    def _ref_stats(self, refs):
        stats = []
        for layer_refs in refs:
            seen = camera_counts(layer_refs, self.rig)
            stats.append({
                "spread_m": ref_spread_m(layer_refs),
                "visible_1plus": float(np.mean(seen >= 1)),
                "visible_2plus": float(np.mean(seen >= 2)),
            })
        return stats

    def check(self, i: int, out) -> list[str]:
        frame, pyr, _, refs, preds = out
        problems = []
        if len(preds) != self.queries:
            problems.append(f"{len(preds)} predictions, expected {self.queries}")
        for p in preds:
            b = p.box
            values = np.concatenate([b.center, b.size, b.velocity, [b.yaw, p.score]])
            if not np.all(np.isfinite(values)):
                problems.append("non-finite prediction")
                break
        for li, st in enumerate(self._ref_stats(refs)):
            if st["visible_1plus"] < self.min_visible or st["visible_2plus"] <= 0 or st["spread_m"] < self.min_spread_m:
                problems.append(f"layer {li} reference points below the spread/visibility floor: {st}")
        # Sampling oracle: the closed-form field value averaged over the
        # (camera, level) pairs where the node lands inside the level.
        rng = synth.derived_rng(self.seed, 503, i)
        nodes = refs[-1][rng.choice(self.queries, self.check_nodes, replace=False)]
        nodes = nodes + rng.uniform(-2.0, 2.0, size=nodes.shape)
        feats, counts = featcore.sample_multiview_many(pyr, self.rig, nodes)
        field = self.fields[frame]
        total = np.zeros_like(feats)
        expected_counts = np.zeros(len(nodes), dtype=np.int64)
        for cam in self.rig:
            u, v, z = _pinhole(nodes, cam)
            for stride in synth.DEFAULT_STRIDES:
                lw = math.ceil(cam.intrinsics.width / stride)
                lh = math.ceil(cam.intrinsics.height / stride)
                inside = (z > 0) & (u >= 0) & (u <= (lw - 1) * stride) & (v >= 0) & (v <= (lh - 1) * stride)
                total[inside] += field.evaluate(u[inside], v[inside])
                expected_counts += inside
        expected = np.zeros_like(total)
        seen = expected_counts > 0
        expected[seen] = total[seen] / expected_counts[seen, None]
        if not np.array_equal(counts, expected_counts):
            problems.append(f"visible pair counts differ at {int(np.sum(counts != expected_counts))} nodes")
        else:
            err = float(np.abs(feats - expected).max())
            if err > SAMPLE_TOL:
                problems.append(f"sampled features differ from the analytic field by {err:.3e}")
        return problems

    def describe(self, out) -> dict:
        return {"frame0_digest": self.digest(out), "reference_points": self._ref_stats(out[3])}

    def layer_extras(self, descriptors: dict) -> dict:
        return {}


# ---------------------------------------------------------------------------
# train-eval


class TrainEval:
    """One training/evaluation frame without image features: the
    depth-invariant transform, the set loss of 900 scored predictions
    against ~50 ground truths, and region-split evaluation."""

    name = "train-eval"
    # 125 of 900 rows: the median near-duplicate share (13.9%) of the
    # untrained decoder's predictions, from perfbench/measure_duplicates.py.
    # The noise of the other rows is an assumption, not a measurement.
    objects, predictions, duplicates, classes, frames = 50, 900, 125, 10, 4
    noise = synth.NoiseSpec(
        center_sigma=0.4, yaw_sigma=0.15, velocity_sigma=0.3, drop_rate=0.1, false_positive_rate=0.3
    )

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.mlp_roles: dict = {}
        self._controls: set = set()

    def build(self) -> None:
        self.rig = synth.gen_rig("nuscenes-like")
        self.inputs = [self._frame(f) for f in range(self.frames)]

    def _frame(self, f: int):
        rng = synth.derived_rng(self.seed, 600, f)
        gts = synth.gen_objects(int(rng.integers(2**31)), self.objects, class_count=self.classes)
        frame = augment.AnnotatedFrame(
            rig=self.rig,
            objects=tuple(augment.AnnotatedObject(box=b, depth=float(np.linalg.norm(b.center))) for b in gts),
        )
        dets = []
        while len(dets) < self.predictions - self.duplicates:
            dets += synth.perturb_predictions(gts, self.noise, int(rng.integers(2**31)), self.classes)
        dets = dets[: self.predictions - self.duplicates]
        # Near-duplicate rows, as the untrained decoder emits them.
        for j in rng.integers(0, len(dets), size=self.duplicates):
            b = dets[j].box
            box = camgeo.Box3D(
                center=b.center + rng.normal(0.0, 0.005, 3), size=b.size, yaw=b.yaw,
                velocity=b.velocity, class_id=b.class_id, attribute_id=b.attribute_id,
            )
            dets.append(camgeo.DetectionResult(box=box, score=dets[j].score * 0.99))
        probs = np.empty((len(dets), self.classes))
        for row, det in zip(probs, dets):
            conf = rng.uniform(0.2, 0.9)
            row[:] = rng.dirichlet(np.ones(self.classes)) * (1.0 - conf)
            row[det.box.class_id] += conf
        control = synth.perturb_predictions(gts, synth.NoiseSpec(), int(rng.integers(2**31)), self.classes)
        return {
            "frame": frame,
            "scale": float(rng.uniform(0.7, 1.4)),
            "dets": dets,
            "pred_pairs": [(p, d.box) for p, d in zip(probs, dets)],
            "probs": probs,
            "control": control,
        }

    def run(self, i: int):
        inp = self.inputs[i % self.frames]
        frame = augment.apply_transform(inp["frame"], inp["scale"], augment.ScaleMode.DEPTH_INVARIANT)
        gt_boxes = [obj.box for obj in frame.objects]
        loss, assignment = matching.set_loss(inp["pred_pairs"], [(b.class_id, b) for b in gt_boxes])
        report = metrics.evaluate_region_split(inp["dets"], gt_boxes, frame.rig)
        return i % self.frames, gt_boxes, loss, assignment, report

    @staticmethod
    def digest(out) -> str:
        _, _, loss, assignment, report = out
        payload = {"loss": [loss.cls, loss.reg], "pairs": assignment.pairs, "report": report.to_dict()}
        return _sha(json.dumps(payload, sort_keys=True).encode())

    def _cost(self, inp, gt_boxes) -> np.ndarray:
        """Matching costs computed independently of matching.match_cost."""
        def vec(boxes):
            return np.array([
                [*b.center, *np.log(b.size), math.sin(b.yaw), math.cos(b.yaw), *b.velocity] for b in boxes
            ])

        pv, gv = vec(d.box for d in inp["dets"]), vec(gt_boxes)
        gt_cls = np.array([b.class_id for b in gt_boxes])
        reg = np.abs(pv[:, None, :] - gv[None, :, :]).sum(axis=2)
        return -inp["probs"][:, gt_cls] + 0.25 * reg

    def check(self, i: int, out) -> list[str]:
        frame, gt_boxes, _, assignment, report = out
        # Imported here so that setup_s, which counts imports, holds only mvdet's.
        from scipy.optimize import linear_sum_assignment

        inp = self.inputs[frame]
        problems = []
        cost = self._cost(inp, gt_boxes)
        rows, cols = linear_sum_assignment(cost)
        optimum = float(cost[rows, cols].sum())
        pairs = assignment.pairs
        if len(pairs) != len(gt_boxes) or len({r for r, _ in pairs}) != len(pairs) or len({c for _, c in pairs}) != len(pairs):
            problems.append("assignment is not a full one-to-one matching")
        if abs(assignment.total_cost - optimum) > 1e-9 * (1.0 + abs(optimum)):
            problems.append(f"assignment total {assignment.total_cost!r} != independent optimum {optimum!r}")
        for rep in (report.overall, report.overlapping, report.non_overlapping):
            if not 0.0 <= rep.nds <= 1.0:
                problems.append(f"NDS {rep.nds} outside [0, 1]")
        if frame not in self._controls:
            control = metrics.evaluate_region_split(inp["control"], gt_boxes, self.rig)
            for rep in (control.overall, control.overlapping, control.non_overlapping):
                if rep.gt_count and rep.nds != 1.0:
                    problems.append(f"zero-noise control frame scores NDS {rep.nds}")
            self._controls.add(frame)
        return problems

    def describe(self, out) -> dict:
        seen = []
        for inp in self.inputs:
            boxes = [obj.box for obj in inp["frame"].objects]
            probes = np.array([[b.center, *camgeo.box_corners(b)] for b in boxes])
            seen.append(camera_counts(probes.reshape(-1, 3), self.rig).reshape(len(boxes), 9).max(axis=1))
        seen = np.concatenate(seen)
        return {
            "frame0_digest": self.digest(out),
            "duplicate_row_frac": statistics.fmean(duplicate_row_frac(inp["dets"]) for inp in self.inputs),
            "gt_overlapping": int(np.sum(seen >= 2)),
            "gt_non_overlapping": int(np.sum(seen == 1)),
            "gt_invisible": int(np.sum(seen == 0)),
        }

    def layer_extras(self, descriptors: dict) -> dict:
        return {"matching.duplicate_row_frac": descriptors["duplicate_row_frac"]}


# ---------------------------------------------------------------------------
# oracle-gradcheck


class OracleGradcheck:
    """The finite-difference gradient oracle: ``grad_check(seed=base+i)``
    with eps and tol at their defaults.  It samples features the way
    scene-decode does, but in thousands of calls of at most 4 nodes each,
    and renders its own pyramid on every call."""

    name = "oracle-gradcheck"
    probes = 8
    eps = 1e-4  # grad_check's default, fixed here so the workload cannot drift

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.mlp_roles: dict = {}
        self.voided: dict = {}  # seed -> its probes whose query step straddles a ReLU kink

    def build(self) -> None:
        """grad_check builds its own rig, field and networks."""

    def run(self, i: int):
        return decoder.grad_check(seed=self.seed + i, probes=self.probes, eps=self.eps)

    @staticmethod
    def digest(out) -> str:
        return _sha(json.dumps(out.to_dict(), sort_keys=True).encode())

    def check(self, i: int, out) -> list[str]:
        """``out.passed``, with one exception.  A central difference checks a
        gradient only where the loss is differentiable over the step.
        grad_check moves probes off bilinear kinks but not off the ReLU kinks
        of its networks, so on about 1% of seeds a query step straddles one
        and the query component fails although the gradient is right there.
        Such a failure is voided (and listed in ``voided``) only when it is
        the query component alone, ``_relu_straddles`` finds the kink, and
        the probes before the first straddling one pass on their own."""
        seed = self.seed + i
        if out.passed:
            return []
        if [c.component for c in out.components if not c.passed] == ["query"]:
            if seed not in self.voided:
                probes = self._relu_straddles(seed)
                if probes and (probes[0] == 0 or decoder.grad_check(seed=seed, probes=probes[0], eps=self.eps).passed):
                    print(f"perfbench: grad_check(seed={seed}) query verdict voided: the finite-difference "
                          f"step straddles a ReLU kink at probes {probes}", file=sys.stderr)
                    self.voided[seed] = probes
            if seed in self.voided:
                return []
        return [f"grad_check(seed={seed}) failed: {out.to_dict()}"]

    def _relu_straddles(self, seed: int) -> list[int]:
        """Run grad_check(seed) again, recording the query of each probe as
        ``Mlp.jacobian`` receives it, and return the probes where some ReLU
        preactivation of a network lies within reach of a query step of
        ``eps`` along one axis (reach bounded layer by layer by |W|)."""
        seen = []
        jacobian = decoder.Mlp.jacobian

        def record(mlp, x):
            seen.append((mlp, np.array(x, dtype=np.float64)))
            return jacobian(mlp, x)

        decoder.Mlp.jacobian = record
        try:
            decoder.grad_check(seed=seed, probes=self.probes, eps=self.eps)
        finally:
            decoder.Mlp.jacobian = jacobian
        # analytic() takes the ref, offset and weight Jacobians once per probe.
        nets = len(seen) // self.probes
        probes = set()
        for n, (mlp, q) in enumerate(seen):
            reach = self.eps * np.eye(len(q))
            for z, w, act in zip(mlp.preactivations(q), mlp.weights, mlp.activations):
                reach = np.abs(w) @ reach
                if act == "relu" and np.any(np.abs(z)[:, None] <= reach):
                    probes.add(n // nets)
        return sorted(probes)

    @staticmethod
    def _jittered(out) -> int:
        """Probes jittered off a bilinear kink (every component counts the
        same jitters)."""
        return max(c.n_jittered for c in out.components)

    def describe(self, out) -> dict:
        return {"frame0_digest": self.digest(out), "jittered": self._jittered(out)}

    def layer_extras(self, descriptors: dict) -> dict:
        return {"decoder.grad_check.jittered": descriptors["jittered"]}


WORKLOADS = {w.name: w for w in (SceneDecode, TrainEval, OracleGradcheck)}
