"""Command-line interface.

Subcommands: synth, project, augment, decode, gradcheck, evaluate, bench.
Every command is deterministic given its inputs and seed: reruns produce
byte-identical output files (bench timing figures, which are measurements
rather than outputs, are the one exception and are kept out of files).

Sizes are taken from where they are fixed, never restated here: ``decode``
adds sampled features to its queries unprojected, so the query width is the
pyramid's channel count; net sizes come from the ``--params`` bundle (a size
flag beside it is a usage error) or else from the library, whose defaults
stand for every flag not given, as in ``synth``, ``gradcheck`` and ``bench``.
A flag that would do nothing (``--offset-scale`` beside a fixed graph) is too.

Exit codes: 0 success, 1 check failure, 2 usage or I/O error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import sys
import time
from typing import Sequence

import numpy as np

from . import augment as aug
from . import camgeo, decoder, matching, metrics, synth
from .featcore import _WORKERS, load_pyramid, sample_multiview_many, save_pyramid

__all__ = ["build_parser", "main"]

# Every module error type derives from one of these (TensorFormatError from
# OSError, the rest from ValueError); the loaders turn malformed JSON into
# their own error, and an unreadable file stays an OSError.
_ERRORS = (OSError, ValueError)


def _emit(payload: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return
    for key, value in payload.items():
        print(f"{key}: {value}")


def _given(**values) -> dict:
    """The keyword arguments whose flag was given; the callee's defaults stand for the rest."""
    return {key: value for key, value in values.items() if value is not None}


def _parse_floats(text: str, n: int, what: str) -> np.ndarray:
    parts = [p for p in text.replace(",", " ").split() if p]
    if len(parts) != n:
        raise ValueError(f"{what} needs {n} comma-separated numbers, got {len(parts)}")
    values = np.array([float(p) for p in parts])
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{what} needs finite numbers, got {text!r}")
    return values


# ---------------------------------------------------------------------------
# synth


def _object_depth(box: camgeo.Box3D, rig: camgeo.CameraRig) -> float:
    """Depth channel for an annotation: optical-axis range in the first
    camera that sees the centroid, else the planar range from the origin."""
    u, v, depths = camgeo._project(box.center, rig.cameras)
    seen = np.flatnonzero(camgeo._in_image(u, v, depths, rig.cameras)[:, 0])
    if len(seen):
        return float(depths[seen[0], 0])
    return float(np.linalg.norm(box.center[:2]))


def _cmd_synth(args) -> int:
    strides = None if args.strides is None else tuple(int(s) for s in args.strides.split(","))
    scene = synth.make_scene(
        seed=args.seed,
        **_given(style=args.style, object_count=args.objects, field_kind=args.field, channels=args.channels, strides=strides),
    )
    os.makedirs(args.out, exist_ok=True)
    camgeo.save_rig(os.path.join(args.out, "calib.json"), scene.rig)
    objects = tuple(
        aug.AnnotatedObject(box=b, depth=_object_depth(b, scene.rig)) for b in scene.objects
    )
    frame = aug.AnnotatedFrame(rig=scene.rig, objects=objects)
    aug.save_frames(os.path.join(args.out, "annotations.json"), [frame])
    manifest = save_pyramid(os.path.join(args.out, "pyramid"), scene.pyramid)
    _emit(
        {
            "calib": os.path.join(args.out, "calib.json"),
            "annotations": os.path.join(args.out, "annotations.json"),
            "pyramid": manifest,
            "cameras": len(scene.rig),
            "objects": len(scene.objects),
        },
        args.json,
    )
    return 0


# ---------------------------------------------------------------------------
# project


def _cmd_project(args) -> int:
    rig = camgeo.load_rig(args.calib)
    point = _parse_floats(args.point, 3, "--point")
    u, v, depths = camgeo._project(point, rig.cameras)
    visible = camgeo._in_image(u, v, depths, rig.cameras)[:, 0]
    cameras = []
    for i, cam in enumerate(rig):
        depth = float(depths[i, 0])
        cameras.append(
            {
                "id": cam.id,
                "index": i,
                "pixel": None if depth <= 0 else [float(u[i, 0]), float(v[i, 0])],
                "depth": depth,
                "visible": bool(visible[i]),
            }
        )
    payload = {
        "point": [float(x) for x in point],
        "cameras": cameras,
        "visible_cameras": [c["index"] for c in cameras if c["visible"]],
    }
    if args.box:
        vals = _parse_floats(args.box, 7, "--box")
        box = camgeo.Box3D(center=vals[:3], size=vals[3:6], yaw=float(vals[6]))
        payload["region"] = camgeo.classify_regions([box], rig)[0].value
    if args.out:
        camgeo._json_write(args.out, payload)
    _emit(payload, args.json)
    return 0


# ---------------------------------------------------------------------------
# augment


def _cmd_augment(args) -> int:
    scale_range = aug.check_scale_range((args.scale_min, args.scale_max))
    frames = aug.load_frames(args.annotations)
    mode = aug.ScaleMode(args.mode)
    transformed = []
    log = []
    for idx, frame in enumerate(frames):
        rng = synth.derived_rng(args.seed, 100, idx)
        r = aug.sample_scale(scale_range, rng)
        transformed.append(aug.apply_transform(frame, r, mode))
        log.append({"frame": idx, "scale": r})
    os.makedirs(args.out, exist_ok=True)
    out_frames = os.path.join(args.out, "annotations.json")
    aug.save_frames(out_frames, transformed)
    out_log = os.path.join(args.out, "augment_log.json")
    camgeo._json_write(out_log, {"mode": args.mode, "seed": args.seed, "frames": log})
    _emit({"annotations": out_frames, "log": out_log, "scales": [e["scale"] for e in log]}, args.json)
    return 0


# ---------------------------------------------------------------------------
# decode


def _cmd_decode(args) -> int:
    given = [f"--{name}" for name in ("layers", "neighbors", "heads", "classes") if getattr(args, name) is not None]
    if args.params and given:
        raise ValueError(f"{', '.join(given)} cannot be given with --params: the bundle fixes the net sizes")
    mode = decoder.AggregationMode(args.mode)
    if args.offset_scale is not None and mode is not decoder.AggregationMode.DYNAMIC_GRAPH:
        raise ValueError(f"--offset-scale cannot be given with --mode {args.mode}: only dynamic graphs read it")
    bounds = camgeo.SceneBounds(
        lo=synth.DEFAULT_BOUNDS.lo if args.bounds_lo is None else _parse_floats(args.bounds_lo, 3, "--bounds-lo"),
        hi=synth.DEFAULT_BOUNDS.hi if args.bounds_hi is None else _parse_floats(args.bounds_hi, 3, "--bounds-hi"),
    )
    pyramid = load_pyramid(args.pyramid)
    rig = camgeo.load_rig(args.calib)
    if args.params:
        layers, head = decoder.load_params(args.params)
        dim = layers[0].ffn.in_dim
    else:
        dim = pyramid.channels
        layers = decoder.init_decoder(
            args.seed, dim=dim, **_given(layers=args.layers, neighbors=args.neighbors, heads=args.heads)
        )
        head = decoder.PredictionHead.seeded(args.seed, dim=dim, **_given(num_classes=args.classes))
    qs = decoder.init_queries(args.seed, count=args.queries, dim=dim, bounds=bounds)
    refined, refs = decoder.decoder_forward(qs, layers, pyramid, rig, mode=mode, **_given(offset_scale=args.offset_scale))
    preds = decoder.decode_predictions(refined, refs[-1], head)
    matching.save_predictions(args.out, preds)
    _emit({"predictions": args.out, "count": len(preds), "mode": args.mode}, args.json)
    return 0


# ---------------------------------------------------------------------------
# gradcheck


def _cmd_gradcheck(args) -> int:
    report = decoder.grad_check(**_given(seed=args.seed, eps=args.eps, tol=args.tol, probes=args.probes))
    payload = report.to_dict()
    if args.out:
        camgeo._json_write(args.out, payload)
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for comp in report.components:
            status = "pass" if comp.passed else "FAIL"
            print(
                f"{comp.component}: n={comp.n_checked} jittered={comp.n_jittered} "
                f"max_abs={comp.max_abs_dev:.3e} max_rel={comp.max_rel_dev:.3e} [{status}]"
            )
        print(f"overall: {'pass' if report.passed else 'FAIL'}")
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# evaluate


def _cmd_evaluate(args) -> int:
    frames = aug.load_frames(args.gt)
    preds = matching.load_predictions(args.pred)
    rig = camgeo.load_rig(args.calib)
    for frame in frames:
        if len(frame.rig) != len(rig):
            raise ValueError(
                f"camera count mismatch: calibration has {len(rig)}, "
                f"annotations have {len(frame.rig)}"
            )
    gts = [obj.box for frame in frames for obj in frame.objects]
    os.makedirs(args.out, exist_ok=True)
    if args.split:
        report = metrics.evaluate_region_split(preds, gts, rig)
        summary = {
            "overall_NDS": report.overall.nds,
            "overlapping_NDS": report.overlapping.nds,
            "non_overlapping_NDS": report.non_overlapping.nds,
            "overall_mAP": report.overall.mean_ap,
        }
    else:
        report = metrics.evaluate(preds, gts)
        summary = {"NDS": report.nds, "mAP": report.mean_ap}
    report_path = os.path.join(args.out, "report.json")
    csv_path = os.path.join(args.out, "report.csv")
    metrics.save_report(report_path, report)
    metrics.save_report_csv(csv_path, report)
    _emit({"report": report_path, "csv": csv_path, **summary}, args.json)
    return 0


# ---------------------------------------------------------------------------
# bench


def _bench_times(fn, repeats: int) -> tuple:
    first = fn()  # warm-up, untimed; its result is returned with the timings
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    ordered = sorted(times)
    return first, {
        "median_s": statistics.median(times),
        "p95_s": ordered[min(len(ordered) - 1, int(math.ceil(0.95 * len(ordered))) - 1)],
        "min_s": ordered[0],
        "repeats": repeats,
    }


def _cmd_bench(args) -> int:
    for flag, items in (("--cameras", synth.SURROUND_SPECS), ("--levels", synth.DEFAULT_STRIDES)):
        if not 1 <= getattr(args, flag[2:]) <= len(items):
            raise ValueError(f"{flag} must be between 1 and {len(items)}")
    if args.repeats < 1:
        raise ValueError(f"--repeats must be >= 1, got {args.repeats}")
    rig = synth.gen_rig("custom", specs=synth.SURROUND_SPECS[: args.cameras])
    field = synth.random_field(args.seed, "bilinear", args.dim)
    pyramid = synth.render_pyramid(field, rig, synth.DEFAULT_STRIDES[: args.levels])
    layers = decoder.init_decoder(
        args.seed, dim=args.dim, **_given(layers=args.layers, neighbors=args.neighbors, heads=args.heads)
    )
    qs = decoder.init_queries(args.seed, count=args.queries, dim=args.dim, bounds=synth.DEFAULT_BOUNDS)

    # Node-feature sampling isolated: the per-neighbor cost of one layer.
    layer, emb = layers[0], qs.embeddings
    refs0 = decoder.decode_reference_point(emb, layer.ref_net, qs.scene_bounds)
    nodes, _, _ = decoder.graph_nodes(emb, refs0, layer.offset_net, layer.weight_net, decoder.DEFAULT_OFFSET_SCALE)
    nodes = nodes.reshape(-1, 3)

    timing = {"node_sampling": _bench_times(lambda: sample_multiview_many(pyramid, rig, nodes), args.repeats)[1]}
    payload = {
        "config": {
            "queries": args.queries,
            "neighbors": layer.neighbors,
            "cameras": args.cameras,
            "levels": args.levels,
            "dim": args.dim,
            "layers": len(layers),
            "heads": layer.attention.heads,
            "seed": args.seed,
            # Threads a large sampling call or an attention layer's heads may split over.
            "workers": _WORKERS,
        },
        "node_count": int(nodes.shape[0]),
    }
    if not args.sampling_only:
        (refined, refs), timing["decoder_pass"] = _bench_times(
            lambda: decoder.decoder_forward(qs, layers, pyramid, rig), args.repeats
        )
        payload["output_checksum"] = hashlib.sha256(refined.embeddings.tobytes() + refs.tobytes()).hexdigest()
    payload["timing"] = timing
    _emit(payload, args.json)
    return 0


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mvdet",
        description="Multi-view 3D detection toolkit: synthetic scenes, projection, "
        "augmentation, decoding, gradient checks, evaluation, benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic scene")
    p.add_argument("--style", choices=("nuscenes-like", "single"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--objects", type=int)
    p.add_argument("--field", choices=("constant", "linear", "bilinear"))
    p.add_argument("--channels", type=int)
    p.add_argument("--strides", help="comma-separated level strides")
    p.add_argument("--out", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("project", help="project a point (and classify a box) against a rig")
    p.add_argument("--calib", required=True)
    p.add_argument("--point", required=True, help="x,y,z in meters")
    p.add_argument("--box", help="cx,cy,cz,w,l,h,yaw")
    p.add_argument("--out")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_project)

    p = sub.add_parser("augment", help="apply a multi-scale transform to annotation frames")
    p.add_argument("--annotations", required=True)
    p.add_argument("--scale-min", type=float, required=True)
    p.add_argument("--scale-max", type=float, required=True)
    p.add_argument("--mode", choices=sorted(m.value for m in aug.ScaleMode), default="depth-invariant")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_augment)

    # decode and bench share one query count.
    queries = argparse.ArgumentParser(add_help=False)
    queries.add_argument("--queries", type=int, default=900)

    p = sub.add_parser("decode", parents=[queries], help="run the query decoder over a pyramid")
    p.add_argument("--pyramid", required=True, help="pyramid manifest path")
    p.add_argument("--calib", required=True)
    p.add_argument("--params", help="parameter bundle manifest; seeded init when omitted")
    p.add_argument("--mode", choices=sorted(m.value for m in decoder.AggregationMode), default="dynamic-graph")
    seeded_only = "seeded decoder only: a --params bundle fixes it"
    p.add_argument("--neighbors", type=int, help=seeded_only)
    p.add_argument("--layers", type=int, help=seeded_only)
    p.add_argument("--heads", type=int, help=seeded_only)
    p.add_argument("--classes", type=int, help=seeded_only)
    p.add_argument("--offset-scale", type=float, help="dynamic-graph mode only")
    p.add_argument("--bounds-lo", help="x,y,z of the query box's low corner in meters")
    p.add_argument("--bounds-hi", help="x,y,z of the query box's high corner in meters")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="predictions JSON path")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("gradcheck", help="finite-difference check of analytic gradients")
    p.add_argument("--seed", type=int)
    p.add_argument("--eps", type=float)
    p.add_argument("--tol", type=float)
    p.add_argument("--probes", type=int)
    p.add_argument("--out")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_gradcheck)

    p = sub.add_parser("evaluate", help="score predictions against annotations")
    p.add_argument("--gt", required=True, help="annotation JSON")
    p.add_argument("--pred", required=True, help="prediction JSON")
    p.add_argument("--calib", required=True)
    p.add_argument("--split", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("bench", parents=[queries], help="decoder latency and sampling throughput")
    p.add_argument("--neighbors", type=int)
    p.add_argument("--cameras", type=int, default=len(synth.SURROUND_SPECS))
    p.add_argument("--levels", type=int, default=len(synth.DEFAULT_STRIDES))
    p.add_argument("--dim", type=int, default=64)
    p.add_argument("--layers", type=int)
    p.add_argument("--heads", type=int)
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sampling-only", action="store_true",
                   help="time node-feature sampling only; run no decoder pass and report no output_checksum")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
