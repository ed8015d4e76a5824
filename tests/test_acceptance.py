"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its runtime (run with ``pytest -s`` to see them live).
"""

import contextlib
import io
import itertools
import json
import os
import time

import numpy as np

from mvdet.augment import DepthScaler, depth_invariant_transform, pixel_depth_decode
from mvdet.camgeo import (
    CameraIntrinsics,
    RegionLabel,
    SceneBounds,
    box_corners,
    classify_regions,
)
from mvdet.cli import main as cli_main
from mvdet.decoder import (
    AggregationMode,
    DecoderLayer,
    Mlp,
    decoder_forward,
    grad_check,
    init_decoder,
    init_queries,
)
from mvdet.featcore import bilinear_sample_many
from mvdet.matching import hungarian
from mvdet.metrics import evaluate_region_split, match_detections, nds
from mvdet.synth import (
    CameraSpec,
    NoiseSpec,
    gen_objects,
    gen_rig,
    perturb_predictions,
    random_field,
    render_pyramid,
)

from helpers import make_frame


def report(number, name, started, budget_s):
    elapsed = time.time() - started
    print(f"[acceptance] criterion {number} ({name}): PASS in {elapsed:.2f}s (budget {budget_s}s)")
    assert elapsed < budget_s, f"criterion {number} exceeded its {budget_s}s budget ({elapsed:.1f}s)"


def run_cli(argv):
    """Invoke the CLI in-process, capturing stdout regardless of pytest's
    capture mode."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli_main(argv)
    return code, buffer.getvalue()


def small_surround_rig():
    """Six-camera surround rig at reduced resolution for fast scene sweeps."""
    specs = [
        CameraSpec(id="front", yaw_deg=0.0, width=400, height=224),
        CameraSpec(id="front_left", yaw_deg=55.0, width=400, height=224),
        CameraSpec(id="front_right", yaw_deg=-55.0, width=400, height=224),
        CameraSpec(id="back_left", yaw_deg=110.0, width=400, height=224),
        CameraSpec(id="back_right", yaw_deg=-110.0, width=400, height=224),
        CameraSpec(id="back", yaw_deg=180.0, hfov_deg=80.0, width=400, height=224),
    ]
    return gen_rig("custom", specs=specs)


def test_criterion_1_nds_formula_cross_check():
    started = time.time()
    value = nds(0.412, (0.641, 0.255, 0.394, 0.845, 0.133))
    assert abs(value - 0.479) < 0.0005
    report(1, "published-row NDS cross-check", started, 1)


def test_criterion_2_depth_invariance_identity():
    started = time.time()
    rng = np.random.default_rng(2024)
    scaler = DepthScaler()
    for _ in range(1000):
        fx, fy = rng.uniform(150, 4000, size=2)
        z = float(rng.uniform(1e-3, 2.0))
        r = float(rng.uniform(0.2, 5.0))
        intr = CameraIntrinsics(fx=fx, fy=fy, cx=1.0, cy=1.0, width=8, height=8)
        scaled = CameraIntrinsics(fx=r * fx, fy=r * fy, cx=1.0, cy=1.0, width=8, height=8)
        base = pixel_depth_decode(z, scaler, intr)
        transformed = pixel_depth_decode(z / r, scaler, scaled)
        assert abs(transformed - base) <= 1e-12 * abs(base)

    frame = make_frame()
    for r in (0.5, 0.8, 1.25, 2.0):
        back = depth_invariant_transform(depth_invariant_transform(frame, r), 1.0 / r)
        for a, b in zip(frame.objects, back.objects):
            assert abs(b.depth - a.depth) <= 1e-12 * abs(a.depth)
            assert np.array_equal(a.box.center, b.box.center)
            assert np.array_equal(a.box.size, b.box.size)
            assert a.box.yaw == b.box.yaw
    report(2, "depth-invariance identity", started, 1)


def test_criterion_3_dynamic_graph_degeneration():
    started = time.time()
    rig = small_surround_rig()
    dim = 16
    bounds = SceneBounds(lo=(-30, -30, 0), hi=(30, 30, 3))
    for seed in range(100):
        pyramid = render_pyramid(random_field(seed, "bilinear", dim), rig, strides=(8, 16))
        base_layers = init_decoder(seed, layers=2, dim=dim, neighbors=1, heads=4)
        layers = [
            DecoderLayer(
                ref_net=l.ref_net,
                offset_net=Mlp.zeros([dim, dim, 3]),
                weight_net=Mlp(
                    weights=(np.zeros((1, dim)),),
                    biases=(np.array([1e6]),),
                    activations=("identity",),
                ),
                attention=l.attention,
                ffn=l.ffn,
            )
            for l in base_layers
        ]
        qs = init_queries(seed, count=8, dim=dim, bounds=bounds)
        out_single, refs_single = decoder_forward(
            qs, layers, pyramid, rig, mode=AggregationMode.SINGLE_POINT
        )
        out_graph, refs_graph = decoder_forward(
            qs, layers, pyramid, rig, mode=AggregationMode.DYNAMIC_GRAPH
        )
        assert np.array_equal(out_single.embeddings, out_graph.embeddings)
        assert np.array_equal(refs_single, refs_graph)
    report(3, "dynamic-graph degeneration bit-identity", started, 30)


def test_criterion_4_bilinear_sampling_oracle():
    started = time.time()
    rig = gen_rig("single")
    field = random_field(404, "bilinear", 4)
    pyramid = render_pyramid(field, rig, strides=(8, 16, 32, 64))
    rng = np.random.default_rng(404)
    worst = 0.0
    for level in pyramid.levels(0):
        pos = rng.uniform((0, 0), (level.width - 1, level.height - 1), size=(100_000, 2))
        feats, inside = bilinear_sample_many(level, pos)
        assert inside.all()
        expected = field.evaluate(pos[:, 0] * level.stride, pos[:, 1] * level.stride)
        worst = max(worst, float(np.abs(feats - expected).max()))
    assert worst <= 1e-5, f"max sampling error {worst:.3e}"
    report(4, f"bilinear sampling oracle (max err {worst:.2e})", started, 10)


def test_criterion_5_gradient_suite():
    started = time.time()
    result = grad_check(seed=42, eps=1e-4, tol=1e-6, probes=32)
    total_points = sum(c.n_checked for c in result.components)
    assert total_points >= 1000
    for comp in result.components:
        assert comp.max_rel_dev <= 1e-6, f"{comp.component}: {comp.max_rel_dev:.3e}"
    assert result.passed
    report(5, f"gradient suite ({total_points} points)", started, 30)


_PERM_CACHE: dict = {}


def _perm_array(n_items, n_slots):
    key = ("perm", n_items, n_slots)
    if key not in _PERM_CACHE:
        _PERM_CACHE[key] = np.array(
            list(itertools.permutations(range(n_items), n_slots)), dtype=np.int64
        )
    return _PERM_CACHE[key]


def _comb_array(n_items, n_slots):
    key = ("comb", n_items, n_slots)
    if key not in _PERM_CACHE:
        _PERM_CACHE[key] = np.array(
            list(itertools.combinations(range(n_items), n_slots)), dtype=np.int64
        )
    return _PERM_CACHE[key]


def brute_force_minimum(cost: np.ndarray) -> float:
    """Exhaustive assignment minimum, summed row-ascending like the solver."""
    rows, cols = cost.shape
    if rows <= cols:
        perms = _perm_array(cols, rows)
        total = np.zeros(len(perms))
        for i in range(rows):
            total = total + cost[i, perms[:, i]]
    else:
        combos = _comb_array(rows, cols)
        colperms = _perm_array(cols, cols)
        total = np.zeros((len(combos), len(colperms)))
        for i in range(cols):
            total = total + cost[combos[:, i][:, None], colperms[None, :, i]]
        total = total.reshape(-1)
    return float(total.min())


def test_criterion_6_hungarian_optimality():
    started = time.time()
    rng = np.random.default_rng(606)
    for trial in range(10_000):
        rows = int(rng.integers(1, 9))
        cols = int(rng.integers(1, 9))
        if trial % 5 == 0:
            cost = rng.integers(-3, 4, size=(rows, cols)).astype(float)
        else:
            cost = rng.uniform(-10, 10, size=(rows, cols))
        result = hungarian(cost)
        assert result.total_cost == brute_force_minimum(cost), f"trial {trial}"
    report(6, "assignment optimality vs exhaustive oracle", started, 60)


def test_criterion_7_region_split_soundness():
    started = time.time()
    rig = gen_rig("nuscenes-like")
    boxes = gen_objects(707, 10_000)
    labels = classify_regions(boxes, rig)

    # Independent oracle: explicit pinhole projection per camera.
    probes = np.empty((len(boxes), 9, 3))
    for i, box in enumerate(boxes):
        probes[i, 0] = box.center
        probes[i, 1:] = box_corners(box)
    flat = probes.reshape(-1, 3)
    counts = np.zeros(len(flat), dtype=np.int64)
    for cam in rig:
        rot = cam.extrinsics.rotation
        trans = cam.extrinsics.translation
        intr = cam.intrinsics
        cam_pts = flat @ rot.T + trans
        z = cam_pts[:, 2]
        with np.errstate(divide="ignore", invalid="ignore"):
            u = intr.fx * cam_pts[:, 0] / z + intr.cx
            v = intr.fy * cam_pts[:, 1] / z + intr.cy
        counts += (z > 0) & (u >= 0) & (u < intr.width) & (v >= 0) & (v < intr.height)
    best = counts.reshape(len(boxes), 9).max(axis=1)
    for i, label in enumerate(labels):
        if best[i] >= 2:
            assert label is RegionLabel.OVERLAPPING, i
        elif best[i] == 1:
            assert label is RegionLabel.NON_OVERLAPPING, i
        else:
            assert label is RegionLabel.INVISIBLE, i

    single = gen_rig("single")
    single_labels = classify_regions(boxes[:2000], single)
    assert all(l is not RegionLabel.OVERLAPPING for l in single_labels)
    split = evaluate_region_split([], boxes[:2000], single)
    assert split.overlapping.gt_count == 0
    report(7, "region split vs exhaustive projection", started, 30)


def test_criterion_8_metric_sanity():
    started = time.time()
    rig = gen_rig("nuscenes-like")
    gts = gen_objects(808, 300)
    perfect = perturb_predictions(gts, NoiseSpec(), seed=808)
    split = evaluate_region_split(perfect, gts, rig)
    for rep in (split.overall, split.overlapping, split.non_overlapping):
        assert rep.mean_ap == 1.0
        assert rep.tp.as_tuple() == (0.0, 0.0, 0.0, 0.0, 0.0)
        assert rep.nds == 1.0

    big = gen_objects(809, 10_000)
    for drop in (0.5, 0.3):
        preds = perturb_predictions(big, NoiseSpec(drop_rate=drop), seed=810)
        recall = len(match_detections(preds, big, 2.0)) / len(big)
        assert abs(recall - (1.0 - drop)) <= 0.02, f"drop {drop}: recall {recall:.4f}"
    report(8, "end-to-end metric sanity", started, 60)


def _measure_sampling_ratio():
    """Best-of-rounds node-sampling time ratio for K=32 over K=16.

    The query count keeps both working sets well above the allocator's mmap
    threshold so the two sizes share one allocation regime; asymmetric
    regimes (one heap, one mmap) systematically skew the ratio away from the
    algorithmic scaling.
    """
    best = {16: np.inf, 32: np.inf}
    for _ in range(3):
        for k in (16, 32):
            code, out = run_cli([
                "bench", "--queries", "2048", "--neighbors", str(k), "--cameras", "6",
                "--levels", "4", "--dim", "8", "--layers", "1", "--repeats", "5",
                "--seed", "9", "--sampling-only", "--json",
            ])
            assert code == 0
            payload = json.loads(out)
            assert payload["node_count"] == 2048 * k
            best[k] = min(best[k], payload["timing"]["node_sampling"]["min_s"])
    return best


def test_criterion_9_neighbor_scaling_benchmark():
    # Sampling cost must scale linearly with the neighbor count.  Wall-clock
    # ratios are re-measured once if a scheduler hiccup pushes the first
    # attempt out of band; the final measurement must stand on its own.
    started = time.time()
    for attempt in range(2):
        best = _measure_sampling_ratio()
        ratio = best[32] / best[16]
        print(f"[acceptance] node sampling best (attempt {attempt}): "
              f"K=16 {best[16]*1e3:.2f}ms, K=32 {best[32]*1e3:.2f}ms, ratio {ratio:.2f}")
        if 1.7 <= ratio <= 2.3:
            break
    assert 1.7 <= ratio <= 2.3, f"scaling ratio {ratio:.2f} outside [1.7, 2.3]"
    report(9, f"neighbor cost scaling (ratio {ratio:.2f})", started, 120)


def _run_twice_and_compare(argv_factory, tmp_path, name):
    """Run a CLI invocation twice and byte-compare every produced file."""
    trees = []
    for run in ("a", "b"):
        out_dir = tmp_path / name / run
        os.makedirs(out_dir, exist_ok=True)
        code, _ = run_cli(argv_factory(out_dir))
        assert code == 0, f"{name} run {run} failed"
        tree = {}
        for dirpath, _, files in os.walk(out_dir):
            for fname in sorted(files):
                path = os.path.join(dirpath, fname)
                with open(path, "rb") as fh:
                    tree[os.path.relpath(path, out_dir)] = fh.read()
        trees.append(tree)
    assert trees[0].keys() == trees[1].keys(), f"{name}: file sets differ"
    for key in trees[0]:
        assert trees[0][key] == trees[1][key], f"{name}: {key} differs between runs"
    return trees[0]


def test_criterion_10_cli_determinism(tmp_path):
    started = time.time()
    scene = tmp_path / "scene"
    _run_twice_and_compare(
        lambda out: [
            "synth", "--seed", "4", "--objects", "40", "--channels", "8",
            "--strides", "8,16", "--out", str(out),
        ],
        tmp_path,
        "synth",
    )
    # Materialize one scene for downstream commands.
    os.makedirs(scene, exist_ok=True)
    code, _ = run_cli([
        "synth", "--seed", "4", "--objects", "40", "--channels", "8",
        "--strides", "8,16", "--out", str(scene),
    ])
    assert code == 0

    _run_twice_and_compare(
        lambda out: [
            "project", "--calib", str(scene / "calib.json"), "--point", "18,3,1.5",
            "--box", "18,3,1.5,2,4,1.5,0.4", "--out", str(out / "projection.json"),
        ],
        tmp_path,
        "project",
    )
    _run_twice_and_compare(
        lambda out: [
            "augment", "--annotations", str(scene / "annotations.json"),
            "--scale-min", "0.7", "--scale-max", "1.4", "--mode", "depth-invariant",
            "--seed", "12", "--out", str(out),
        ],
        tmp_path,
        "augment",
    )
    _run_twice_and_compare(
        lambda out: [
            "decode", "--pyramid", str(scene / "pyramid" / "pyramid.json"),
            "--calib", str(scene / "calib.json"), "--dim", "8", "--queries", "32",
            "--layers", "2", "--neighbors", "4", "--heads", "2", "--seed", "5",
            "--out", str(out / "predictions.json"),
        ],
        tmp_path,
        "decode",
    )
    _run_twice_and_compare(
        lambda out: [
            "gradcheck", "--seed", "3", "--probes", "2", "--out", str(out / "gradcheck.json"),
        ],
        tmp_path,
        "gradcheck",
    )
    preds_path = tmp_path / "decode" / "a" / "predictions.json"
    _run_twice_and_compare(
        lambda out: [
            "evaluate", "--gt", str(scene / "annotations.json"), "--pred", str(preds_path),
            "--calib", str(scene / "calib.json"), "--out", str(out),
        ],
        tmp_path,
        "evaluate",
    )
    # bench writes no files; its deterministic payload (timings stripped)
    # must match across reruns.
    payloads = []
    for _ in range(2):
        code, out = run_cli([
            "bench", "--queries", "16", "--neighbors", "2",
            "--cameras", "2", "--levels", "2", "--dim", "8", "--layers", "1",
            "--repeats", "1", "--json",
        ])
        assert code == 0
        payload = json.loads(out)
        payload.pop("timing")
        payloads.append(payload)
    assert payloads[0] == payloads[1]
    report(10, "CLI determinism across reruns", started, 120)
