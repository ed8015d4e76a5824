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
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .camgeo import Box3D, CameraRig, DetectionResult, RegionLabel, _json_write, classify_regions, normalize_yaw

__all__ = [
    "MetricsError",
    "DIST_THRESHOLDS",
    "TP_THRESHOLD",
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

# AP is reported at each center-distance threshold (meters); the TP errors
# come from the matches at TP_THRESHOLD, which is one of them.
DIST_THRESHOLDS = (0.5, 1.0, 2.0, 4.0)
TP_THRESHOLD = 2.0

_INTERP_POINTS = 101
_REC_GRID = np.linspace(0.0, 1.0, _INTERP_POINTS)
# The nuScenes floors: AP integrates recall >= 0.1 and precision above 0.1.
_MIN_RECALL = 0.1
_MIN_PRECISION = 0.1
# Report keys of the five TP error means, in ``TpErrors.as_tuple`` order.
_TP_KEYS = ("mATE", "mASE", "mAOE", "mAVE", "mAAE")


class MetricsError(ValueError):
    """Evaluation inputs are inconsistent."""


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
            **dict(zip(_TP_KEYS, self.tp.as_tuple())),
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


def _greedy_matches(
    preds: Sequence[DetectionResult],
    gts: Sequence[Box3D],
    classes: Sequence[int],
    thresholds: Sequence[float],
):
    """Greedy one-to-one matching of each class at each distance threshold.

    The predictions are sorted once by descending score, original order
    breaking ties.  Per class, one planar center-distance matrix serves every
    threshold.  Returns one (rows, cols, hits) per class: the class's
    prediction indices in score order, its ground-truth indices, and per
    threshold the position in ``cols`` matched by each row, or -1.
    """
    order = sorted(range(len(preds)), key=lambda i: (-preds[i].score, i))
    rows_of: dict[int, list[int]] = {cid: [] for cid in classes}
    for i in order:
        if preds[i].box.class_id in rows_of:
            rows_of[preds[i].box.class_id].append(i)
    cols_of: dict[int, list[int]] = {cid: [] for cid in classes}
    for j, g in enumerate(gts):
        if g.class_id in cols_of:
            cols_of[g.class_id].append(j)
    pred_xy = np.array([p.box.center[:2] for p in preds]).reshape(-1, 2)
    gt_xy = np.array([g.center[:2] for g in gts]).reshape(-1, 2)
    out = []
    for cid in classes:
        rows, cols = rows_of[cid], cols_of[cid]
        dist = np.linalg.norm(gt_xy[cols][None] - pred_xy[rows][:, None], axis=2)
        out.append((rows, cols, {th: _greedy_pass(dist, th) for th in thresholds}))
    return out


def _greedy_pass(dist: np.ndarray, threshold: float) -> list[int]:
    """Each row in turn takes the nearest untaken column, the lowest index
    among equal distances, if strictly closer than ``threshold``; the taken
    column per row, or -1.

    The untaken columns only shrink, so a row whose nearest column of all is
    not closer than the threshold never matches, nor does any row once every
    column is taken: those rows get -1 without a scan.
    """
    hits = [-1] * len(dist)
    if dist.shape[1] == 0:
        return hits
    free = list(range(dist.shape[1]))
    rows = dist.tolist()
    for i in np.flatnonzero(dist.min(axis=1) < threshold).tolist():
        row = rows[i]
        j = min(free, key=row.__getitem__)
        if row[j] < threshold:
            hits[i] = j
            free.remove(j)
            if not free:
                break
    return hits


def _matched_pairs(rows: list[int], cols: list[int], hits: list[int]) -> list[tuple[int, int]]:
    return [(rows[r], cols[j]) for r, j in enumerate(hits) if j >= 0]


def match_detections(
    preds: Sequence[DetectionResult],
    gts: Sequence[Box3D],
    threshold: float,
) -> list[tuple[int, int]]:
    """Greedy per-class matching pooled over the ground-truth classes;
    (pred, gt) index pairs."""
    classes = sorted({g.class_id for g in gts})
    pairs = []
    for rows, cols, hits in _greedy_matches(preds, gts, classes, (threshold,)):
        pairs.extend(_matched_pairs(rows, cols, hits[threshold]))
    return pairs


# ---------------------------------------------------------------------------
# AP and TP errors


def _average_precision(hits: list[int], npos: int) -> float:
    if npos == 0 or not hits:
        return 0.0
    tp_flags = np.array(hits) >= 0
    tp = np.cumsum(tp_flags)
    fp = np.cumsum(~tp_flags)
    recall = tp / npos
    precision = tp / (tp + fp)
    prec_interp = np.interp(_REC_GRID, recall, precision, right=0.0)
    start = round(100 * _MIN_RECALL) + 1
    clipped = np.clip(prec_interp[start:] - _MIN_PRECISION, 0.0, None)
    return min(1.0, float(clipped.mean() / (1.0 - _MIN_PRECISION)))


def ap_at_threshold(
    preds: Sequence[DetectionResult],
    gts: Sequence[Box3D],
    class_id: int,
    threshold: float,
) -> float:
    """Average precision of one class at one center-distance threshold."""
    [(_, cols, hits)] = _greedy_matches(preds, gts, (class_id,), (threshold,))
    return _average_precision(hits[threshold], len(cols))


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
    mate = float(np.mean([np.linalg.norm(p.box.center[:2] - g.center[:2]) for p, g in matched]))
    mase = float(np.mean([_scale_error(p.box, g) for p, g in matched]))
    maoe = float(np.mean([abs(normalize_yaw(p.box.yaw - g.yaw)) for p, g in matched]))
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


def evaluate(preds: Sequence[DetectionResult], gts: Sequence[Box3D]) -> MetricsReport:
    """Score predictions against ground truths: AP at each of
    DIST_THRESHOLDS and TP errors over the matches at TP_THRESHOLD, for
    each class present in the ground truths."""
    preds = list(preds)
    gts = list(gts)
    classes = tuple(sorted({g.class_id for g in gts}))
    ap_table: dict[int, dict[float, float]] = {}
    ap_values = []
    pairs = []
    for cid, (rows, cols, hits) in zip(classes, _greedy_matches(preds, gts, classes, DIST_THRESHOLDS)):
        ap_table[cid] = {th: _average_precision(hits[th], len(cols)) for th in DIST_THRESHOLDS}
        ap_values.extend(ap_table[cid].values())
        pairs.extend(_matched_pairs(rows, cols, hits[TP_THRESHOLD]))
    mean_ap = float(np.mean(ap_values)) if ap_values else 0.0
    tp = tp_errors([(preds[pi], gts[gi]) for pi, gi in pairs])
    score = nds(mean_ap, tp.as_tuple())
    return MetricsReport(
        class_ids=classes,
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
        return evaluate(kept_preds, kept_gts)

    return RegionSplitReport(
        overall=evaluate(preds, gts),
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
            + ["mAP", *_TP_KEYS, "NDS"]
        )
        for name, rep in regions:
            for cid in rep.class_ids:
                row = [name, cid]
                row += [f"{rep.ap[cid][t]:.6f}" if t in rep.ap[cid] else "" for t in thresholds]
                row += [f"{v:.6f}" for v in (rep.mean_ap, *rep.tp.as_tuple(), rep.nds)]
                writer.writerow(row)
            if not rep.class_ids:
                blanks = [""] * len(thresholds) + ["0.000000"] + [""] * len(_TP_KEYS)
                writer.writerow([name, "none", *blanks, f"{rep.nds:.6f}"])
