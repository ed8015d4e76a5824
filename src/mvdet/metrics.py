"""Detection evaluation: center-distance AP, true-positive error means, the
composite detection score, and camera-coverage region splits.

AP follows the nuScenes convention: greedy score-descending one-to-one
matching on 2D center distance, a 101-point interpolated precision/recall
curve, and normalized area for recall >= 0.1 and precision >= 0.1.  The
composite score is (5 * mAP + sum(1 - min(1, mTP))) / 10 over the five TP
error terms.  Unlike the nuScenes devkit, ``evaluate`` scores every
prediction: it applies neither the devkit's cap of 500 boxes per sample nor
its per-class detection ranges (no box is dropped for its distance from the
ego vehicle).
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

    The scores, planar centers and class positions are stacked once.  The
    predictions are ordered by one stable argsort of the negated scores,
    which breaks ties (0.0 and -0.0 among them) by original order.  Class
    ids are mapped to their position in ``classes`` through a dict, so ids
    of any size work; a prediction of a class not in ``classes`` gets -1.
    Per class, one planar center-distance matrix serves every threshold.
    Returns one (rows, cols, hits) per class: the class's prediction
    indices in score order, its ground-truth indices, and per threshold the
    position in ``cols`` matched by each row, or -1.
    """
    position = {cid: k for k, cid in enumerate(classes)}
    scores = np.array([p.score for p in preds], dtype=np.float64)
    order = np.argsort(-scores, kind="stable")
    pred_pos = np.array([position.get(p.box.class_id, -1) for p in preds], dtype=np.intp)[order]
    gt_pos = np.array([position.get(g.class_id, -1) for g in gts], dtype=np.intp)
    pred_xy = np.array([p.box.center[:2] for p in preds]).reshape(-1, 2)
    gt_xy = np.array([g.center[:2] for g in gts]).reshape(-1, 2)
    out = []
    for k in range(len(classes)):
        rows = order[pred_pos == k]
        cols = np.flatnonzero(gt_pos == k)
        dist = np.linalg.norm(gt_xy[cols][None] - pred_xy[rows][:, None], axis=2)
        out.append((rows.tolist(), cols.tolist(), _greedy_pass(dist, thresholds)))
    return out


def _greedy_pass(dist: np.ndarray, thresholds: Sequence[float]) -> dict[float, list[int]]:
    """Per threshold, each row in turn takes the nearest untaken column, the
    lowest index among equal distances, if strictly closer than the
    threshold; the taken column per row, or -1.

    The untaken columns only shrink, so a row whose nearest column of all is
    not closer than the threshold never matches, nor does any row once every
    column is taken: those rows get -1 without a scan.  The distance rows
    and their minimums are read once for all thresholds.
    """
    hits = {th: [-1] * len(dist) for th in thresholds}
    if dist.shape[1] == 0:
        return hits
    rows = dist.tolist()
    nearest = dist.min(axis=1)
    for th, taken in hits.items():
        free = list(range(dist.shape[1]))
        for i in np.flatnonzero(nearest < th).tolist():
            row = rows[i]
            j = min(free, key=row.__getitem__)
            if row[j] < th:
                taken[i] = j
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


def _average_precisions(hits: dict[float, list[int]], npos: int) -> dict[float, float]:
    """Average precision of one class at each threshold of ``hits``, all
    thresholds in one pass over a (thresholds, rows) array of match flags."""
    flags = np.array(list(hits.values())) >= 0
    if npos == 0 or flags.shape[1] == 0:
        return dict.fromkeys(hits, 0.0)
    tp = np.cumsum(flags, axis=1)
    fp = np.cumsum(~flags, axis=1)
    recall = tp / npos
    precision = tp / (tp + fp)
    prec_interp = np.array([np.interp(_REC_GRID, r, p, right=0.0) for r, p in zip(recall, precision)])
    start = round(100 * _MIN_RECALL) + 1
    clipped = np.clip(prec_interp[:, start:] - _MIN_PRECISION, 0.0, None)
    aps = clipped.mean(axis=1) / (1.0 - _MIN_PRECISION)
    return {th: min(1.0, ap) for th, ap in zip(hits, aps.tolist())}


def ap_at_threshold(
    preds: Sequence[DetectionResult],
    gts: Sequence[Box3D],
    class_id: int,
    threshold: float,
) -> float:
    """Average precision of one class at one center-distance threshold."""
    [(_, cols, hits)] = _greedy_matches(preds, gts, (class_id,), (threshold,))
    return _average_precisions(hits, len(cols))[threshold]


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
    # The center and velocity errors stay one norm per pair: the norm of a
    # 1-D 2-vector goes through BLAS ddot, which rounds differently from
    # norm(axis=1) over a stack in about 8% of pairs.
    mate = float(np.mean([np.linalg.norm(p.box.center[:2] - g.center[:2]) for p, g in matched]))
    # The scale error is 1 - IoU of the sizes alone (centers and yaw aligned).
    pred_sizes = np.array([p.box.size for p, _ in matched])
    gt_sizes = np.array([g.size for _, g in matched])
    inter = np.minimum(pred_sizes, gt_sizes).prod(axis=1)
    union = pred_sizes.prod(axis=1) + gt_sizes.prod(axis=1) - inter
    mase = float(np.mean(1.0 - inter / union))
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
        ap_table[cid] = _average_precisions(hits, len(cols))
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
