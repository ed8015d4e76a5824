"""Set-based supervision: pairwise matching costs, an optimal assignment
solver, focal classification loss, L1 box regression loss, and the combined
objective.

The assignment solver returns the minimum-cost one-to-one matching between
rows and columns; among cost ties it returns the lexicographically smallest
pair sequence, which keeps golden tests stable.  Box regression uses a
10-vector encoding (center, log-size, sin/cos yaw, velocity) so the yaw
term has no wrap discontinuity.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .camgeo import Box3D, DetectionResult, _box_from_json, _json_fields, _json_records

__all__ = [
    "MatchingError",
    "CostMatrix",
    "Assignment",
    "LossBreakdown",
    "box_regression_vector",
    "match_cost",
    "hungarian",
    "focal_loss",
    "l1_reg_loss",
    "set_loss",
    "save_predictions",
    "load_predictions",
]

_PROB_TOL = 1e-6
_PROB_FLOOR = 1e-12


class MatchingError(ValueError):
    """Matching inputs violate their contracts."""


@dataclass(frozen=True)
class CostMatrix:
    """Finite pairwise costs, rows = predictions, columns = ground truths."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 2:
            raise MatchingError(f"cost matrix must be 2-D, got shape {arr.shape}")
        if arr.size and not np.all(np.isfinite(arr)):
            raise MatchingError("cost matrix entries must be finite")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape


@dataclass(frozen=True)
class Assignment:
    """Matched (row, col) pairs sorted by row, plus their summed cost."""

    pairs: tuple[tuple[int, int], ...]
    total_cost: float


@dataclass(frozen=True)
class LossBreakdown:
    cls: float
    reg: float

    @property
    def total(self) -> float:
        return self.cls + self.reg


# ---------------------------------------------------------------------------
# Costs


def box_regression_vector(box: Box3D) -> np.ndarray:
    """(x, y, z, log w, log l, log h, sin yaw, cos yaw, vx, vy)."""
    return np.concatenate(
        [
            box.center,
            np.log(box.size),
            [math.sin(box.yaw), math.cos(box.yaw)],
            box.velocity,
        ]
    )


def _check_probs(probs: np.ndarray) -> np.ndarray:
    probs = np.asarray(probs, dtype=np.float64).reshape(-1)
    if probs.size == 0:
        raise MatchingError("class probabilities must be nonempty")
    if abs(probs.sum() - 1.0) > _PROB_TOL:
        raise MatchingError(f"class probabilities must sum to 1, got {probs.sum()}")
    if np.any(probs < 0):
        raise MatchingError("class probabilities must be nonnegative")
    return probs


def match_cost(pred, gt, weights: tuple[float, float] = (1.0, 0.25)) -> float:
    """Pairwise matching cost between one prediction and one ground truth.

    ``pred`` is (class_probs, Box3D); ``gt`` is (class_id, Box3D).  The cost
    is cls_weight * (-prob of the gt class) plus reg_weight * the summed
    absolute difference of the regression vectors.
    """
    probs, pred_box = pred
    gt_class, gt_box = gt
    probs = _check_probs(probs)
    if not (0 <= int(gt_class) < probs.size):
        raise MatchingError(f"gt class {gt_class} out of range for {probs.size} classes")
    cls_w, reg_w = weights
    cls_term = -float(probs[int(gt_class)])
    reg_term = float(
        np.abs(box_regression_vector(pred_box) - box_regression_vector(gt_box)).sum()
    )
    return cls_w * cls_term + reg_w * reg_term


# ---------------------------------------------------------------------------
# Optimal assignment


def _solve_rows_le_cols(cost: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Optimal row->col assignment for an (R, C) matrix with R <= C.

    Shortest augmenting path with potentials; ties in the path search break
    toward lower column indices.  Returns (col index per row, row
    potentials, column potentials).
    """
    rows, cols = cost.shape
    u = np.zeros(rows + 1)
    v = np.zeros(cols + 1)
    match_row = np.zeros(cols + 1, dtype=np.int64)  # 1-based row matched to col; 0 = free
    way = np.zeros(cols + 1, dtype=np.int64)
    for i in range(1, rows + 1):
        match_row[0] = i
        j0 = 0
        minv = np.full(cols + 1, np.inf)
        used = np.zeros(cols + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = match_row[j0]
            free = ~used[1:]
            cur = cost[i0 - 1, :] - u[i0] - v[1:]
            better = free & (cur < minv[1:])
            minv[1:][better] = cur[better]
            way[1:][better] = j0
            masked = np.where(free, minv[1:], np.inf)
            j1 = int(np.argmin(masked)) + 1
            delta = masked[j1 - 1]
            u[match_row[used]] += delta
            v[np.flatnonzero(used)] -= delta
            minv[1:][free] -= delta
            j0 = j1
            if match_row[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            match_row[j0] = match_row[j1]
            j0 = j1
    result = np.full(rows, -1, dtype=np.int64)
    for j in range(1, cols + 1):
        if match_row[j]:
            result[match_row[j] - 1] = j - 1
    return result, u[1:], v[1:]


def _pairs_total(cost: np.ndarray, pairs: Sequence[tuple[int, int]]) -> float:
    """Row-ordered sequential sum of matched entries (ties out exactly with
    a brute-force permutation sum)."""
    total = 0.0
    for r, c in sorted(pairs):
        total += float(cost[r, c])
    return total


def _solve_pairs(cost: np.ndarray) -> list[tuple[int, int]]:
    rows, cols = cost.shape
    if rows <= cols:
        assignment, _, _ = _solve_rows_le_cols(cost)
        return [(i, int(assignment[i])) for i in range(rows)]
    assignment, _, _ = _solve_rows_le_cols(cost.T)
    return sorted((int(assignment[j]), j) for j in range(cols))


def _reduced_costs(cost: np.ndarray) -> np.ndarray:
    """Reduced-cost matrix under the optimal dual potentials.

    Entries near zero are the only pairs that can participate in an optimal
    assignment (complementary slackness); used purely as a candidate prune.
    """
    rows, cols = cost.shape
    if rows <= cols:
        _, u, v = _solve_rows_le_cols(cost)
        return cost - u[:, None] - v[None, :]
    _, u, v = _solve_rows_le_cols(cost.T)
    return (cost.T - u[:, None] - v[None, :]).T


def _optimal_with_constraints(
    cost: np.ndarray,
    fixed: list[tuple[int, int]],
    banned_rows: set[int],
) -> list[tuple[int, int]] | None:
    """Best full assignment containing ``fixed`` with ``banned_rows`` left
    unmatched; None when infeasible."""
    rows, cols = cost.shape
    quota = min(rows, cols)
    used_rows = {r for r, _ in fixed}
    used_cols = {c for _, c in fixed}
    free_rows = [r for r in range(rows) if r not in used_rows and r not in banned_rows]
    free_cols = [c for c in range(cols) if c not in used_cols]
    need = quota - len(fixed)
    if need > min(len(free_rows), len(free_cols)):
        return None
    if need == 0:
        return sorted(fixed)
    sub_pairs = _solve_pairs(cost[np.ix_(free_rows, free_cols)])
    completion = [(free_rows[r], free_cols[c]) for r, c in sub_pairs]
    return sorted(fixed + completion)


def _lexicographic_refine(
    cost: np.ndarray, pairs: list[tuple[int, int]], total: float
) -> list[tuple[int, int]]:
    """Smallest pair sequence among assignments with the same exact total.

    Position by position, every lexicographically smaller candidate pair
    that passes the reduced-cost prune is verified by re-solving the
    remaining subproblem and comparing exact row-ordered totals, so the
    prune tolerance can never demote a true optimum.
    """
    rows, cols = cost.shape
    scale = float(np.abs(cost).max()) if cost.size else 0.0
    admissible = _reduced_costs(cost) <= 1e-9 * (1.0 + scale)
    incumbent = sorted(pairs)
    fixed: list[tuple[int, int]] = []
    banned_rows: set[int] = set()
    for position in range(len(incumbent)):
        cur_r, cur_c = incumbent[position]
        start_r = (fixed[-1][0] + 1) if fixed else 0
        used_cols = {c for _, c in fixed}
        done = False
        for r in range(start_r, cur_r + 1):
            col_limit = cur_c if r == cur_r else cols
            for c in range(col_limit):
                if c in used_cols or not admissible[r, c]:
                    continue
                candidate = _optimal_with_constraints(
                    cost, fixed + [(r, c)], banned_rows | set(range(start_r, r))
                )
                if candidate is None:
                    continue
                if _pairs_total(cost, candidate) == total:
                    incumbent = candidate
                    done = True
                    break
            if done:
                break
        cur_r, cur_c = incumbent[position]
        banned_rows.update(range(start_r, cur_r))
        fixed.append((cur_r, cur_c))
    return incumbent


def hungarian(c: CostMatrix | np.ndarray) -> Assignment:
    """Minimum-cost one-to-one assignment of rows to columns.

    Matches min(rows, cols) pairs; among equal-cost optima the
    lexicographically smallest pair sequence is returned.  An empty matrix
    yields an empty assignment.
    """
    matrix = c.values if isinstance(c, CostMatrix) else CostMatrix(values=np.asarray(c)).values
    rows, cols = matrix.shape
    if rows == 0 or cols == 0:
        return Assignment(pairs=(), total_cost=0.0)
    pairs = _solve_pairs(matrix)
    total = _pairs_total(matrix, pairs)
    pairs = _lexicographic_refine(matrix, pairs, total)
    return Assignment(pairs=tuple(pairs), total_cost=_pairs_total(matrix, pairs))


# ---------------------------------------------------------------------------
# Losses


def focal_loss(probs, gt_class: int | None, alpha: float = 0.25, gamma: float = 2.0) -> float:
    """Focal classification loss over one probability vector.

    The target entry contributes -alpha * (1 - p)^gamma * log(p); every
    other entry contributes -(1 - alpha) * p^gamma * log(1 - p).  A
    ``gt_class`` of None scores the whole vector as background.  Vanishing
    probabilities are clamped at 1e-12 with a warning.
    """
    probs = _check_probs(probs)
    loss = 0.0
    for idx, p in enumerate(probs):
        if gt_class is not None and idx == int(gt_class):
            if p < _PROB_FLOOR:
                warnings.warn("target probability clamped to 1e-12 in focal loss")
                p = _PROB_FLOOR
            loss += -alpha * (1.0 - p) ** gamma * math.log(p)
        else:
            q = 1.0 - p
            if q < _PROB_FLOOR:
                warnings.warn("negative-class probability clamped to 1e-12 in focal loss")
                q = _PROB_FLOOR
            loss += -(1.0 - alpha) * p**gamma * math.log(q)
    return float(loss)


def l1_reg_loss(pred_vector, gt_vector) -> float:
    """Mean absolute difference between two regression vectors."""
    a = np.asarray(pred_vector, dtype=np.float64).reshape(-1)
    b = np.asarray(gt_vector, dtype=np.float64).reshape(-1)
    if a.shape != b.shape:
        raise MatchingError(f"regression vectors differ in length: {a.shape} vs {b.shape}")
    return float(np.abs(a - b).mean())


def set_loss(
    preds: Sequence[tuple[np.ndarray, Box3D]],
    gts: Sequence[tuple[int, Box3D]],
    weights: tuple[float, float] = (1.0, 0.25),
    alpha: float = 0.25,
    gamma: float = 2.0,
) -> tuple[LossBreakdown, Assignment]:
    """Bipartite-matched objective over a prediction/ground-truth pair of sets.

    Classification sums the focal loss over all predictions, treating
    unmatched ones as background; regression sums the L1 loss over the
    matched pairs.
    """
    if not preds:
        return LossBreakdown(cls=0.0, reg=0.0), Assignment(pairs=(), total_cost=0.0)
    if gts:
        cost = CostMatrix(
            values=np.array([[match_cost(p, g, weights) for g in gts] for p in preds])
        )
        assignment = hungarian(cost)
    else:
        assignment = Assignment(pairs=(), total_cost=0.0)
    matched = {r: c for r, c in assignment.pairs}
    cls_total = 0.0
    reg_total = 0.0
    for i, (probs, box) in enumerate(preds):
        gt_idx = matched.get(i)
        if gt_idx is None:
            cls_total += focal_loss(probs, None, alpha, gamma)
        else:
            gt_class, gt_box = gts[gt_idx]
            cls_total += focal_loss(probs, gt_class, alpha, gamma)
            reg_total += l1_reg_loss(box_regression_vector(box), box_regression_vector(gt_box))
    return LossBreakdown(cls=cls_total, reg=reg_total), assignment


# ---------------------------------------------------------------------------
# Prediction JSON


def predictions_to_dict(preds: Sequence[DetectionResult]) -> dict:
    return {
        "predictions": [
            {
                "center": [float(x) for x in p.box.center],
                "size": [float(x) for x in p.box.size],
                "yaw": float(p.box.yaw),
                "velocity": [float(x) for x in p.box.velocity],
                "score": float(p.score),
                "class": p.box.class_id,
                "attribute": p.box.attribute_id,
            }
            for p in preds
        ]
    }


def predictions_from_dict(data: dict) -> list[DetectionResult]:
    preds = []
    for entry in _json_records(data, "predictions", MatchingError, "prediction data"):
        box = _box_from_json(entry, MatchingError, "prediction")
        score = _json_fields(entry, {"score": float}, MatchingError, "prediction")["score"]
        preds.append(DetectionResult(box=box, score=score))
    return preds


def save_predictions(path, preds: Sequence[DetectionResult]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(predictions_to_dict(preds), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_predictions(path) -> list[DetectionResult]:
    with open(path, "r", encoding="utf-8") as fh:
        return predictions_from_dict(json.load(fh))
