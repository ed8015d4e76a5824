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
import itertools
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


# The split regions in report order: all boxes, then two ``RegionLabel`` values.
_REGIONS = ("overall", "overlapping", "non_overlapping")


@dataclass(frozen=True)
class RegionSplitReport:
    """One report per name in ``_REGIONS``, held in the field of that name."""

    overall: MetricsReport
    overlapping: MetricsReport
    non_overlapping: MetricsReport

    def to_dict(self) -> dict:
        return {name: getattr(self, name).to_dict() for name in _REGIONS}


# ---------------------------------------------------------------------------
# Matching

# Most distances ``_greedy_matches`` computes at once for one class.
_DIST_BLOCK = 2**16


class _Table:
    """What scoring reads of a prediction list and a ground-truth list,
    stacked once per call: the scores' order, the planar centers and the
    class positions.

    ``class_ids`` are the ground truths' classes in ascending order, and
    ``pred_class``/``gt_class`` each box's position among them, found
    through a dict, so ids of any size work; a prediction of any other class
    gets -1.  ``order`` is one stable argsort of the negated scores, which
    breaks ties (0.0 and -0.0 among them) by original order.  A subsequence
    of a stable order is the stable order of that subsequence, so the score
    order of any subset of the predictions is ``order`` filtered to it.
    """

    def __init__(self, preds: Sequence[DetectionResult], gts: Sequence[Box3D]):
        self.preds, self.gts = list(preds), list(gts)
        self.class_ids = sorted({g.class_id for g in self.gts})
        position = {cid: k for k, cid in enumerate(self.class_ids)}
        self.pred_class = np.array([position.get(p.box.class_id, -1) for p in self.preds], dtype=np.intp)
        self.gt_class = np.array([position[g.class_id] for g in self.gts], dtype=np.intp)
        self.pred_xy = np.array([p.box.center for p in self.preds]).reshape(-1, 3)[:, :2]
        self.gt_xy = np.array([g.center for g in self.gts]).reshape(-1, 3)[:, :2]
        scores = np.array([p.score for p in self.preds], dtype=np.float64)
        self.order = np.argsort(-scores, kind="stable")
        self.all_gts = np.arange(len(self.gts))


def _greedy_matches(
    table: _Table,
    rows: np.ndarray,
    gt_rows: np.ndarray,
    classes: Sequence[int],
    thresholds: Sequence[float],
):
    """Greedy one-to-one matching of the predictions ``rows`` (in score
    order) to the ground truths ``gt_rows`` (ascending), for each class
    position in ``classes`` at each distance threshold.

    Per class, the rows of the planar center-distance matrix are computed in
    score order, ``_DIST_BLOCK`` distances at a time, and each block serves
    every threshold, so memory grows with the box counts, not their product.
    Returns one (rows, cols, hits) per class: the class's prediction
    indices in score order, its ground-truth indices, and per threshold the
    position in ``cols`` matched by each row, or -1.
    """
    pred_class, gt_class = table.pred_class[rows], table.gt_class[gt_rows]
    out = []
    for k in classes:
        class_rows = rows[pred_class == k]
        cols = gt_rows[gt_class == k]
        xy, gt_xy = table.pred_xy[class_rows], table.gt_xy[cols]
        step = max(1, _DIST_BLOCK // max(1, len(cols)))
        blocks = (
            np.linalg.norm(gt_xy[None] - xy[lo : lo + step, None], axis=2) for lo in range(0, len(class_rows), step)
        )
        out.append((class_rows.tolist(), cols.tolist(), _greedy_pass(blocks, len(cols), thresholds)))
    return out


def _greedy_pass(blocks, cols: int, thresholds: Sequence[float]) -> dict[float, list[int]]:
    """Per threshold, each row in turn takes the nearest untaken column of
    ``cols``, the lowest index among equal distances, if strictly closer
    than the threshold; the taken column per row, or -1.  ``blocks`` yields
    the distance rows in order, as (rows, cols) arrays; the untaken columns
    carry over from one block to the next.

    The untaken columns only shrink, so a row whose nearest column of all is
    not closer than the threshold never matches, nor does any row once every
    column is taken: those rows get -1 without a scan.  A block's distance
    rows and their minimums are read once for all thresholds.
    """
    hits = {th: [] for th in thresholds}
    free = {th: list(range(cols)) for th in thresholds}
    start = 0
    for dist in blocks:
        for taken in hits.values():
            taken.extend([-1] * len(dist))
        live = [th for th in hits if free[th]]
        if live:
            rows = dist.tolist()
            nearest = dist.min(axis=1)
            for th in live:
                taken, left = hits[th], free[th]
                for i in np.flatnonzero(nearest < th).tolist():
                    row = rows[i]
                    j = min(left, key=row.__getitem__)
                    if row[j] < th:
                        taken[start + i] = j
                        left.remove(j)
                        if not left:
                            break
        start += len(dist)
    return hits


def _matched_pairs(matches, threshold: float) -> list[tuple[int, int]]:
    """The (pred, gt) index pairs of ``matches`` at ``threshold``, pooled
    in class order, each class's in score order."""
    return [(rows[r], cols[j]) for rows, cols, hits in matches for r, j in enumerate(hits[threshold]) if j >= 0]


def match_detections(
    preds: Sequence[DetectionResult],
    gts: Sequence[Box3D],
    threshold: float,
) -> list[tuple[int, int]]:
    """Greedy per-class matching pooled over the ground-truth classes;
    (pred, gt) index pairs."""
    table = _Table(preds, gts)
    classes = range(len(table.class_ids))
    return _matched_pairs(_greedy_matches(table, table.order, table.all_gts, classes, (threshold,)), threshold)


# ---------------------------------------------------------------------------
# AP and TP errors


def _average_precisions(matches, thresholds: Sequence[float]) -> list[dict[float, float]]:
    """Average precision of each class of ``matches`` at each threshold, in
    one pass over a (thresholds, rows) array of the match flags of every
    class side by side.

    A class's true-positive counts are the running counts less those before
    its first row, exact integers.  ``np.interp`` runs once per (class,
    threshold) row, and the interpolated rows are clipped and averaged as
    one stacked array.  A class without ground truths or predictions scores
    0.0.
    """
    sizes = np.array([len(rows) for rows, _, _ in matches], dtype=np.intp)
    npos = np.array([len(cols) for _, cols, _ in matches], dtype=np.intp)
    ends = np.cumsum(sizes)
    starts = ends - sizes
    hits = [list(itertools.chain.from_iterable(per[th] for _, _, per in matches)) for th in thresholds]
    flags = np.array(hits, dtype=np.intp) >= 0
    counts = np.zeros((len(thresholds), flags.shape[1] + 1), dtype=np.intp)
    np.cumsum(flags, axis=1, out=counts[:, 1:])
    tp = counts[:, 1:] - np.repeat(counts[:, starts], sizes, axis=1)
    recall = tp / np.repeat(np.maximum(npos, 1), sizes)
    precision = tp / (np.arange(1, flags.shape[1] + 1) - np.repeat(starts, sizes))
    scored = [k for k in range(len(matches)) if npos[k] and sizes[k]]
    prec_interp = np.array(
        [
            np.interp(_REC_GRID, recall[t, starts[k] : ends[k]], precision[t, starts[k] : ends[k]], right=0.0)
            for k in scored
            for t in range(len(thresholds))
        ]
    ).reshape(-1, _INTERP_POINTS)
    start = round(100 * _MIN_RECALL) + 1
    clipped = np.clip(prec_interp[:, start:] - _MIN_PRECISION, 0.0, None)
    aps = iter((clipped.mean(axis=1) / (1.0 - _MIN_PRECISION)).tolist())
    per_class = [dict.fromkeys(thresholds, 0.0) for _ in matches]
    for k in scored:
        per_class[k] = {th: min(1.0, next(aps)) for th in thresholds}
    return per_class


def ap_at_threshold(
    preds: Sequence[DetectionResult],
    gts: Sequence[Box3D],
    class_id: int,
    threshold: float,
) -> float:
    """Average precision of one class at one center-distance threshold."""
    table = _Table(preds, gts)
    # A class no ground truth has scores 0.0: position -1 has no columns.
    k = table.class_ids.index(class_id) if class_id in table.class_ids else -1
    matches = _greedy_matches(table, table.order, table.all_gts, (k,), (threshold,))
    return _average_precisions(matches, (threshold,))[0][threshold]


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


def _report(table: _Table, rows: np.ndarray, gt_rows: np.ndarray) -> MetricsReport:
    """The report of the predictions ``rows`` (in score order) against the
    ground truths ``gt_rows`` (ascending) of ``table``, for each class
    present in those ground truths; the one core of ``evaluate`` and
    ``evaluate_region_split``."""
    classes = np.unique(table.gt_class[gt_rows]).tolist()
    matches = _greedy_matches(table, rows, gt_rows, classes, DIST_THRESHOLDS)
    aps = _average_precisions(matches, DIST_THRESHOLDS)
    ap_values = [ap for per in aps for ap in per.values()]
    mean_ap = float(np.mean(ap_values)) if ap_values else 0.0
    tp = tp_errors([(table.preds[pi], table.gts[gi]) for pi, gi in _matched_pairs(matches, TP_THRESHOLD)])
    return MetricsReport(
        class_ids=tuple(table.class_ids[k] for k in classes),
        ap={table.class_ids[k]: per for k, per in zip(classes, aps)},
        mean_ap=mean_ap,
        tp=tp,
        nds=nds(mean_ap, tp.as_tuple()),
        gt_count=len(gt_rows),
        pred_count=len(rows),
        no_gts=len(gt_rows) == 0,
    )


def evaluate(preds: Sequence[DetectionResult], gts: Sequence[Box3D]) -> MetricsReport:
    """Score predictions against ground truths: AP at each of
    DIST_THRESHOLDS and TP errors over the matches at TP_THRESHOLD, for
    each class present in the ground truths."""
    table = _Table(preds, gts)
    return _report(table, table.order, table.all_gts)


def evaluate_region_split(
    preds: Sequence[DetectionResult],
    gts: Sequence[Box3D],
    rig: CameraRig,
) -> RegionSplitReport:
    """Overall, overlapping-region, and non-overlapping-region reports.

    Region reports keep only ground truths classified into that region and
    predictions whose own boxes classify the same way; boxes invisible to
    every camera appear only in the overall report.  Each box set is
    classified once, and both are stacked once for all three reports.
    """
    table = _Table(preds, gts)
    gt_labels = np.array(classify_regions(table.gts, rig), dtype=object)
    pred_labels = np.array(classify_regions([p.box for p in table.preds], rig), dtype=object)
    reports = [_report(table, table.order, table.all_gts)]
    for region in map(RegionLabel, _REGIONS[1:]):
        rows = table.order[pred_labels[table.order] == region]
        reports.append(_report(table, rows, np.flatnonzero(gt_labels == region)))
    return RegionSplitReport(**dict(zip(_REGIONS, reports)))


# ---------------------------------------------------------------------------
# Report files


def save_report(path, report: MetricsReport | RegionSplitReport) -> None:
    _json_write(path, report.to_dict())


def save_report_csv(path, report: MetricsReport | RegionSplitReport) -> None:
    """One row per region x class with per-threshold APs and summary columns."""
    if isinstance(report, RegionSplitReport):
        regions = [(name, getattr(report, name)) for name in _REGIONS]
    else:
        regions = [(_REGIONS[0], report)]
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
