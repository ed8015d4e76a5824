"""Detection evaluation: center-distance AP, true-positive error means, the
composite detection score, and camera-coverage region splits.

AP follows the nuScenes convention: greedy score-descending one-to-one
matching on 2D center distance, a 101-point interpolated precision/recall
curve, and normalized area for recall >= 0.1 and precision >= 0.1.  The
composite score is (5 * mAP + sum(1 - min(1, mTP))) / 10 over the five TP
error terms.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .camgeo import Box3D, CameraRig, DetectionResult, RegionLabel, _json_write, classify_regions

__all__ = [
    "MetricsError",
    "EvalConfig",
    "TpErrors",
    "MetricsReport",
    "RegionSplitReport",
    "match_detections",
    "ap_at_threshold",
    "tp_errors",
    "nds",
    "evaluate",
    "evaluate_region_split",
    "save_report",
    "save_report_csv",
]

_INTERP_POINTS = 101
# The nuScenes floors: AP integrates recall >= 0.1 and precision above 0.1.
_MIN_RECALL = 0.1
_MIN_PRECISION = 0.1


class MetricsError(ValueError):
    """Evaluation inputs are inconsistent."""


@dataclass(frozen=True)
class EvalConfig:
    """Evaluation knobs; defaults follow the common outdoor-detection setup."""

    dist_thresholds: tuple[float, ...] = (0.5, 1.0, 2.0, 4.0)
    tp_threshold: float = 2.0
    classes: tuple[int, ...] | None = None

    def __post_init__(self):
        ths = tuple(float(t) for t in self.dist_thresholds)
        if not ths or any(t <= 0 for t in ths) or list(ths) != sorted(ths):
            raise MetricsError(f"distance thresholds must be positive ascending, got {ths}")
        if self.tp_threshold <= 0:
            raise MetricsError(f"tp threshold must be positive, got {self.tp_threshold}")
        object.__setattr__(self, "dist_thresholds", ths)
        if self.classes is not None:
            object.__setattr__(self, "classes", tuple(int(c) for c in self.classes))


@dataclass(frozen=True)
class TpErrors:
    """Mean true-positive errors; ``fallback`` marks the no-matches case
    where every term is reported as the worst value 1.0."""

    mate: float
    mase: float
    maoe: float
    mave: float
    maae: float
    fallback: bool = False

    def as_tuple(self) -> tuple[float, float, float, float, float]:
        return (self.mate, self.mase, self.maoe, self.mave, self.maae)


@dataclass(frozen=True)
class MetricsReport:
    class_ids: tuple[int, ...]
    ap: dict
    mean_ap: float
    tp: TpErrors
    nds: float
    gt_count: int
    pred_count: int
    no_gts: bool

    def to_dict(self) -> dict:
        return {
            "classes": list(self.class_ids),
            "ap": {str(c): {str(t): v for t, v in per.items()} for c, per in self.ap.items()},
            "mAP": self.mean_ap,
            "mATE": self.tp.mate,
            "mASE": self.tp.mase,
            "mAOE": self.tp.maoe,
            "mAVE": self.tp.mave,
            "mAAE": self.tp.maae,
            "NDS": self.nds,
            "gt_count": self.gt_count,
            "pred_count": self.pred_count,
            "no_gts": self.no_gts,
            "tp_fallback": self.tp.fallback,
        }


@dataclass(frozen=True)
class RegionSplitReport:
    overall: MetricsReport
    overlapping: MetricsReport
    non_overlapping: MetricsReport

    def to_dict(self) -> dict:
        return {
            "overall": self.overall.to_dict(),
            "overlapping": self.overlapping.to_dict(),
            "non_overlapping": self.non_overlapping.to_dict(),
        }


# ---------------------------------------------------------------------------
# Matching


def _center_xy(box: Box3D) -> np.ndarray:
    return box.center[:2]


def _sorted_pred_indices(preds: Sequence[DetectionResult]) -> list[int]:
    # Descending score; original order breaks score ties deterministically.
    return sorted(range(len(preds)), key=lambda i: (-preds[i].score, i))


def _greedy_class_match(
    preds: Sequence[DetectionResult],
    gts: Sequence[Box3D],
    class_id: int,
    threshold: float,
):
    """One-to-one greedy matching of one class at a distance threshold.

    Returns (pairs, tp_flags, scores): pairs of (pred index, gt index) into
    the original sequences, plus per-prediction hit flags and scores in
    score-descending order for PR accumulation.
    """
    gt_idx = [i for i, g in enumerate(gts) if g.class_id == class_id]
    pred_order = [i for i in _sorted_pred_indices(preds) if preds[i].box.class_id == class_id]
    gt_centers = np.array([_center_xy(gts[i]) for i in gt_idx]) if gt_idx else np.zeros((0, 2))
    taken = np.zeros(len(gt_idx), dtype=bool)
    pairs = []
    tp_flags = []
    scores = []
    for pi in pred_order:
        scores.append(preds[pi].score)
        if len(gt_idx) == 0:
            tp_flags.append(False)
            continue
        dists = np.linalg.norm(gt_centers - _center_xy(preds[pi].box), axis=1)
        dists = np.where(taken, np.inf, dists)
        j = int(np.argmin(dists))
        if dists[j] < threshold:
            taken[j] = True
            pairs.append((pi, gt_idx[j]))
            tp_flags.append(True)
        else:
            tp_flags.append(False)
    return pairs, np.array(tp_flags, dtype=bool), np.array(scores)


def match_detections(
    preds: Sequence[DetectionResult],
    gts: Sequence[Box3D],
    threshold: float,
    classes: Sequence[int] | None = None,
) -> list[tuple[int, int]]:
    """Greedy per-class matching pooled over classes; (pred, gt) index pairs."""
    if classes is None:
        classes = sorted({g.class_id for g in gts})
    pairs = []
    for cid in classes:
        cls_pairs, _, _ = _greedy_class_match(preds, gts, cid, threshold)
        pairs.extend(cls_pairs)
    return pairs


# ---------------------------------------------------------------------------
# AP and TP errors


def ap_at_threshold(
    preds: Sequence[DetectionResult],
    gts: Sequence[Box3D],
    class_id: int,
    threshold: float,
) -> float:
    """Average precision of one class at one center-distance threshold."""
    npos = sum(1 for g in gts if g.class_id == class_id)
    if npos == 0:
        return 0.0
    _, tp_flags, _ = _greedy_class_match(preds, gts, class_id, threshold)
    if len(tp_flags) == 0:
        return 0.0
    tp = np.cumsum(tp_flags)
    fp = np.cumsum(~tp_flags)
    recall = tp / npos
    precision = tp / (tp + fp)
    rec_grid = np.linspace(0.0, 1.0, _INTERP_POINTS)
    prec_interp = np.interp(rec_grid, recall, precision, right=0.0)
    start = round(100 * _MIN_RECALL) + 1
    clipped = np.clip(prec_interp[start:] - _MIN_PRECISION, 0.0, None)
    return min(1.0, float(clipped.mean() / (1.0 - _MIN_PRECISION)))


def _smallest_yaw_diff(a: float, b: float) -> float:
    diff = (a - b + math.pi) % math.tau - math.pi
    return abs(diff)


def _scale_error(pred: Box3D, gt: Box3D) -> float:
    """1 - IoU of the two boxes after aligning centers and yaw (size-only)."""
    mins = np.minimum(pred.size, gt.size)
    inter = float(np.prod(mins))
    union = float(np.prod(pred.size)) + float(np.prod(gt.size)) - inter
    return 1.0 - inter / union


def tp_errors(matched: Sequence[tuple[DetectionResult, Box3D]]) -> TpErrors:
    """Mean errors over matched (prediction, ground truth) pairs.

    Each error is one plain mean pooled over all matched pairs of every
    class.  This simplifies the nuScenes devkit, which averages each TP
    error per class over the recall >= 0.1 range (excluding some
    class/error pairs) and then averages across classes.

    Zero matches yields the worst-case value 1.0 for every term with the
    fallback flag set.
    """
    if not matched:
        return TpErrors(mate=1.0, mase=1.0, maoe=1.0, mave=1.0, maae=1.0, fallback=True)
    mate = float(np.mean([np.linalg.norm(_center_xy(p.box) - _center_xy(g)) for p, g in matched]))
    mase = float(np.mean([_scale_error(p.box, g) for p, g in matched]))
    maoe = float(np.mean([_smallest_yaw_diff(p.box.yaw, g.yaw) for p, g in matched]))
    mave = float(np.mean([np.linalg.norm(p.box.velocity - g.velocity) for p, g in matched]))
    maae = float(np.mean([0.0 if p.box.attribute_id == g.attribute_id else 1.0 for p, g in matched]))
    return TpErrors(mate=mate, mase=mase, maoe=maoe, mave=mave, maae=maae)


def nds(mean_ap: float, mtps: Sequence[float]) -> float:
    """Composite score (5 * mAP + sum(1 - min(1, mTP))) / 10 over 5 TP terms."""
    if not (0.0 <= mean_ap <= 1.0):
        raise MetricsError(f"mAP must be within [0, 1], got {mean_ap}")
    mtps = [float(x) for x in mtps]
    if len(mtps) != 5:
        raise MetricsError(f"expected 5 TP error terms, got {len(mtps)}")
    if any(x < 0 for x in mtps):
        raise MetricsError("TP errors must be nonnegative")
    return (5.0 * mean_ap + sum(1.0 - min(1.0, x) for x in mtps)) / 10.0


# ---------------------------------------------------------------------------
# Full evaluation


def evaluate(
    preds: Sequence[DetectionResult],
    gts: Sequence[Box3D],
    cfg: EvalConfig = EvalConfig(),
) -> MetricsReport:
    """Score predictions against ground truths.  Classes default to those
    present in the ground truths."""
    preds = list(preds)
    gts = list(gts)
    classes = cfg.classes if cfg.classes is not None else tuple(sorted({g.class_id for g in gts}))
    ap_table: dict[int, dict[float, float]] = {}
    ap_values = []
    for cid in classes:
        per = {}
        for th in cfg.dist_thresholds:
            per[th] = ap_at_threshold(preds, gts, cid, th)
            ap_values.append(per[th])
        ap_table[cid] = per
    mean_ap = float(np.mean(ap_values)) if ap_values else 0.0
    pairs = match_detections(preds, gts, cfg.tp_threshold, classes)
    matched = [(preds[pi], gts[gi]) for pi, gi in pairs]
    tp = tp_errors(matched)
    score = nds(mean_ap, tp.as_tuple())
    return MetricsReport(
        class_ids=tuple(classes),
        ap=ap_table,
        mean_ap=mean_ap,
        tp=tp,
        nds=score,
        gt_count=len(gts),
        pred_count=len(preds),
        no_gts=len(gts) == 0,
    )


def evaluate_region_split(
    preds: Sequence[DetectionResult],
    gts: Sequence[Box3D],
    rig: CameraRig,
    cfg: EvalConfig = EvalConfig(),
) -> RegionSplitReport:
    """Overall, overlapping-region, and non-overlapping-region reports.

    Region reports keep only ground truths classified into that region and
    predictions whose own boxes classify the same way; boxes invisible to
    every camera appear only in the overall report.  Each box set is
    classified once.
    """
    preds = list(preds)
    gts = list(gts)
    gt_labels = classify_regions(gts, rig)
    pred_labels = classify_regions([p.box for p in preds], rig)

    def region_report(region: RegionLabel) -> MetricsReport:
        kept_preds = [p for p, lab in zip(preds, pred_labels) if lab is region]
        kept_gts = [g for g, lab in zip(gts, gt_labels) if lab is region]
        return evaluate(kept_preds, kept_gts, cfg)

    return RegionSplitReport(
        overall=evaluate(preds, gts, cfg),
        overlapping=region_report(RegionLabel.OVERLAPPING),
        non_overlapping=region_report(RegionLabel.NON_OVERLAPPING),
    )


# ---------------------------------------------------------------------------
# Report files


def save_report(path, report: MetricsReport | RegionSplitReport) -> None:
    _json_write(path, report.to_dict())


def save_report_csv(path, report: MetricsReport | RegionSplitReport) -> None:
    """One row per region x class with per-threshold APs and summary columns."""
    if isinstance(report, RegionSplitReport):
        regions = [
            ("overall", report.overall),
            ("overlapping", report.overlapping),
            ("non_overlapping", report.non_overlapping),
        ]
    else:
        regions = [("overall", report)]
    thresholds = sorted({t for _, rep in regions for per in rep.ap.values() for t in per})
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["region", "class"]
            + [f"ap@{t:g}" for t in thresholds]
            + ["mAP", "mATE", "mASE", "mAOE", "mAVE", "mAAE", "NDS"]
        )
        for name, rep in regions:
            for cid in rep.class_ids:
                row = [name, cid]
                row += [f"{rep.ap[cid].get(t, ''):.6f}" if t in rep.ap[cid] else "" for t in thresholds]
                row += [
                    f"{rep.mean_ap:.6f}",
                    f"{rep.tp.mate:.6f}",
                    f"{rep.tp.mase:.6f}",
                    f"{rep.tp.maoe:.6f}",
                    f"{rep.tp.mave:.6f}",
                    f"{rep.tp.maae:.6f}",
                    f"{rep.nds:.6f}",
                ]
                writer.writerow(row)
            if not rep.class_ids:
                writer.writerow([name, "none"] + [""] * len(thresholds) + ["0.000000"] + [""] * 5 + [f"{rep.nds:.6f}"])
