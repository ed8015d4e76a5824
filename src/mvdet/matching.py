"""Set-based supervision: a set-level matching cost matrix, an optimal
assignment solver, focal classification loss, L1 box regression loss, and
the combined objective.

The assignment solver returns the minimum-cost one-to-one matching between
rows and columns; among cost ties it returns the lexicographically smallest
pair sequence, which keeps golden tests stable.  Box regression uses a
10-vector encoding (center, log-size, sin/cos yaw, velocity) so the yaw
term has no wrap discontinuity.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import repeat
from typing import Sequence

import numpy as np

from .camgeo import (
    Box3D,
    DetectionResult,
    _box_from_json,
    _box_to_json,
    _check_int,
    _json_fields,
    _json_float,
    _json_read,
    _json_records,
    _json_write,
)

__all__ = [
    "MatchingError",
    "Assignment",
    "LossBreakdown",
    "match_cost",
    "hungarian",
    "focal_loss",
    "l1_reg_loss",
    "set_loss",
    "predictions_to_dict",
    "predictions_from_dict",
    "save_predictions",
    "load_predictions",
]

_PROB_TOL = 1e-6
_PROB_FLOOR = 1e-12
# Matching cost weights of the class and regression terms, and the focal
# loss weights.
_COST_CLS_WEIGHT = 1.0
_COST_REG_WEIGHT = 0.25
# Prediction rows per block of the cost's L1 term.
_COST_BLOCK = 64
_ALPHA = 0.25
_GAMMA = 2.0


class MatchingError(ValueError):
    """Matching inputs violate their contracts."""


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


def _regression_rows(boxes: Sequence[Box3D]) -> np.ndarray:
    """(B, 10) regression vectors of B boxes, one column block at a time:
    one ``np.log`` over the (B, 3) sizes and ``math.sin``/``math.cos`` per
    yaw."""
    centers = np.array([b.center for b in boxes]).reshape(-1, 3)
    sizes = np.array([b.size for b in boxes]).reshape(-1, 3)
    trig = np.array([(math.sin(b.yaw), math.cos(b.yaw)) for b in boxes]).reshape(-1, 2)
    velocities = np.array([b.velocity for b in boxes]).reshape(-1, 2)
    return np.hstack([centers, np.log(sizes), trig, velocities])


def _stack_probs(probs) -> np.ndarray:
    """(N, K) float64 stack of N class probability vectors."""
    rows = [np.asarray(p, dtype=np.float64) for p in probs]
    sizes = sorted({r.size for r in rows})
    if len(sizes) > 1:
        raise MatchingError(f"predictions disagree on the class count: {sizes}")
    return np.concatenate(rows, axis=None).reshape(len(rows), sizes[0])


def _check_probs(rows: np.ndarray) -> np.ndarray:
    """Check (N, K) probability rows at once; the first bad row raises."""
    if rows.shape[1] == 0:
        raise MatchingError("class probabilities must be nonempty")
    sums = rows.sum(axis=1)
    off = np.abs(sums - 1.0) > _PROB_TOL
    bad = off | (rows < 0).any(axis=1)
    if bad.any():
        first = int(np.argmax(bad))
        if off[first]:
            raise MatchingError(f"class probabilities must sum to 1, got {sums[first]}")
        raise MatchingError("class probabilities must be nonnegative")
    return rows


def _cost_terms(preds, gts) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(cost, probs, gt_cls, pv, gv): ``match_cost``'s (N, G) matrix and
    what it is built from, the checked (N, K) probability rows, the G
    ground-truth classes and the (N, 10) and (G, 10) regression rows.
    ``set_loss`` takes them all from here, so each is stacked and checked
    once per call."""
    probs = _check_probs(_stack_probs(p for p, _ in preds))
    gt_cls = np.array([_check_int(c, "gt class", MatchingError, lo=0, hi=probs.shape[1] - 1) for c, _ in gts], dtype=np.int64)
    pv = _regression_rows([b for _, b in preds])
    gv = _regression_rows([b for _, b in gts])
    # The L1 term, _COST_BLOCK prediction rows at a time through one reused
    # (block, G, 10) buffer: each entry is still numpy's own 10-term sum, so
    # the bits equal a one-broadcast (N, G, 10) sum without its temporary.
    reg = np.empty((len(pv), len(gv)))
    buf = np.empty((min(_COST_BLOCK, len(pv)), *gv.shape))
    for start in range(0, len(pv), _COST_BLOCK):
        block = pv[start : start + _COST_BLOCK]
        diff = buf[: len(block)]
        np.subtract(block[:, None], gv[None], out=diff)
        np.abs(diff, out=diff)
        diff.sum(axis=2, out=reg[start : start + len(block)])
    cost = _COST_CLS_WEIGHT * -probs[:, gt_cls] + _COST_REG_WEIGHT * reg
    return cost, probs, gt_cls, pv, gv


def match_cost(
    preds: Sequence[tuple[np.ndarray, Box3D]],
    gts: Sequence[tuple[int, Box3D]],
) -> np.ndarray:
    """(N, G) matching cost matrix between N predictions and G ground truths.

    Each prediction is (class_probs, Box3D) and each ground truth is
    (class_id, Box3D); every prediction must score the same classes.  Entry
    (i, j) is 1.0 * (-prob of gt j's class under prediction i) plus 0.25 *
    the summed absolute difference of the regression vectors; the weights
    are fixed, as in DETR's matching cost.
    """
    if not preds:
        return np.zeros((0, len(gts)))
    return _cost_terms(preds, gts)[0]


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


def _solve(cost: np.ndarray) -> tuple[list[tuple[int, int]], np.ndarray]:
    """One optimal assignment of ``cost`` as row-sorted pairs, plus the
    reduced-cost matrix under its dual potentials.

    Entries near zero in the reduced costs are the only pairs that can
    participate in an optimal assignment (complementary slackness); they
    serve purely as a candidate prune.
    """
    rows, cols = cost.shape
    if rows <= cols:
        assignment, u, v = _solve_rows_le_cols(cost)
        return [(i, int(assignment[i])) for i in range(rows)], cost - u[:, None] - v[None, :]
    assignment, u, v = _solve_rows_le_cols(cost.T)
    pairs = sorted((int(assignment[j]), j) for j in range(cols))
    return pairs, (cost.T - u[:, None] - v[None, :]).T


def _optimal_with_constraints(
    cost: np.ndarray,
    fixed: list[tuple[int, int]],
    banned_rows: set[int],
) -> list[tuple[int, int]]:
    """Best full assignment containing ``fixed`` with ``banned_rows`` left
    unmatched."""
    rows, cols = cost.shape
    quota = min(rows, cols)
    used_rows = {r for r, _ in fixed}
    used_cols = {c for _, c in fixed}
    free_rows = [r for r in range(rows) if r not in used_rows and r not in banned_rows]
    free_cols = [c for c in range(cols) if c not in used_cols]
    need = quota - len(fixed)
    if need == 0:
        return sorted(fixed)
    sub_pairs, _ = _solve(cost[np.ix_(free_rows, free_cols)])
    completion = [(free_rows[r], free_cols[c]) for r, c in sub_pairs]
    return sorted(fixed + completion)


def _lexicographic_refine(
    cost: np.ndarray, pairs: list[tuple[int, int]], reduced: np.ndarray, total: float
) -> list[tuple[int, int]]:
    """Smallest pair sequence among assignments with the same exact total.

    Position by position, every lexicographically smaller candidate pair
    that passes the reduced-cost prune is verified, in row-major order, by
    re-solving the remaining subproblem and comparing exact row-ordered
    totals, so the prune tolerance can never demote a true optimum.  A
    position's candidates are read from one mask of the admissible cells in
    free columns, so inadmissible cells cost no Python step.
    """
    rows, cols = cost.shape
    scale = float(np.abs(cost).max()) if cost.size else 0.0
    admissible = reduced <= 1e-9 * (1.0 + scale)
    free_cols = np.ones(cols, dtype=bool)
    incumbent = sorted(pairs)
    fixed: list[tuple[int, int]] = []
    banned_rows: set[int] = set()
    for position in range(len(incumbent)):
        cur_r, cur_c = incumbent[position]
        start_r = (fixed[-1][0] + 1) if fixed else 0
        candidates = admissible[start_r : cur_r + 1] & free_cols
        candidates[-1:, cur_c:] = False
        for flat in np.flatnonzero(candidates).tolist():
            r, c = divmod(flat, cols)
            r += start_r
            # Always feasible: ``fixed`` is incumbent[:position] and
            # r <= cur_r, so the incumbent's later pairs hold
            # quota - position - 1 rows after r, none fixed or banned, and
            # its pairs from ``position`` on hold quota - position columns
            # outside ``fixed``, at most one of them c.
            candidate = _optimal_with_constraints(cost, fixed + [(r, c)], banned_rows | set(range(start_r, r)))
            if _pairs_total(cost, candidate) == total:
                incumbent = candidate
                break
        cur_r, cur_c = incumbent[position]
        banned_rows.update(range(start_r, cur_r))
        fixed.append((cur_r, cur_c))
        free_cols[cur_c] = False
    return incumbent


def hungarian(cost: np.ndarray) -> Assignment:
    """Minimum-cost one-to-one assignment of the rows of a finite 2-D cost
    matrix to its columns.

    Matches min(rows, cols) pairs; among equal-cost optima the
    lexicographically smallest pair sequence is returned.  An empty matrix
    yields an empty assignment.
    """
    matrix = np.asarray(cost, dtype=np.float64)
    if matrix.ndim != 2:
        raise MatchingError(f"cost matrix must be 2-D, got shape {matrix.shape}")
    if matrix.size == 0:
        return Assignment(pairs=(), total_cost=0.0)
    if not np.all(np.isfinite(matrix)):
        raise MatchingError("cost matrix entries must be finite")
    pairs, reduced = _solve(matrix)
    pairs = _lexicographic_refine(matrix, pairs, reduced, _pairs_total(matrix, pairs))
    return Assignment(pairs=tuple(pairs), total_cost=_pairs_total(matrix, pairs))


# ---------------------------------------------------------------------------
# Losses


_CLAMP_WARNINGS = (
    "negative-class probability clamped to 1e-12 in focal loss",
    "target probability clamped to 1e-12 in focal loss",
)


def _focal_sum(probs: np.ndarray, targets: list) -> float:
    """Summed focal loss of (N, K) probability rows; a target of None scores
    its row as background.

    The N x K terms are built as arrays, each the weight times the float
    ``pow`` power times the ``math.log`` log, multiplied in that order: bit
    for bit the float expression of each entry.  Each clamped entry warns,
    in row-major order.  Each row's terms are added in class order by
    ``np.cumsum``, which adds in sequence, then the rows in order from 0.0.
    """
    rows = [i for i, t in enumerate(targets) if t is not None]
    is_target = np.zeros(probs.shape, dtype=bool)
    is_target[rows, [targets[i] for i in rows]] = True
    # A target entry's term is -alpha * (1 - p)^gamma * log(p), with p
    # clamped; any other entry's is -(1 - alpha) * p^gamma * log(1 - p),
    # with 1 - p clamped.
    inner = np.where(is_target, probs, 1.0 - probs)
    clamped = inner < _PROB_FLOOR
    for target in is_target[clamped].tolist():
        warnings.warn(_CLAMP_WARNINGS[target])
    inner[clamped] = _PROB_FLOOR
    base = np.where(is_target, 1.0 - inner, probs)
    weight = np.where(is_target, -_ALPHA, -(1.0 - _ALPHA))
    # Python's own float pow and log over the entries' Python floats:
    # ``np.log`` and array ``**`` round differently on some inputs.
    power = np.fromiter(map(pow, base.ravel().tolist(), repeat(_GAMMA)), np.float64, count=base.size)
    log = np.fromiter(map(math.log, inner.ravel().tolist()), np.float64, count=inner.size)
    terms = weight * power.reshape(base.shape) * log.reshape(inner.shape)
    total = 0.0
    for loss in np.cumsum(terms, axis=1)[:, -1].tolist():
        total += loss
    return total


def focal_loss(probs, gt_class: int | None) -> float:
    """Focal classification loss over one probability vector.

    With alpha = 0.25 and gamma = 2, the target entry contributes
    -alpha * (1 - p)^gamma * log(p); every other entry contributes
    -(1 - alpha) * p^gamma * log(1 - p).  A
    ``gt_class`` of None scores the whole vector as background; any other
    class must be an integer in [0, K).  Vanishing probabilities are clamped
    at 1e-12 with a warning.
    """
    rows = _check_probs(_stack_probs([probs]))
    target = None if gt_class is None else _check_int(gt_class, "gt class", MatchingError, lo=0, hi=rows.shape[1] - 1)
    return _focal_sum(rows, [target])


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
) -> tuple[LossBreakdown, Assignment]:
    """Bipartite-matched objective over a prediction/ground-truth pair of sets.

    Classification sums the focal loss over all predictions, treating
    unmatched ones as background; regression sums the L1 loss over the
    matched pairs.
    """
    if not preds:
        return LossBreakdown(cls=0.0, reg=0.0), Assignment(pairs=(), total_cost=0.0)
    cost, probs, gt_cls, pv, gv = _cost_terms(preds, gts)
    assignment = hungarian(cost)
    targets: list[int | None] = [None] * len(preds)
    for r, c in assignment.pairs:
        targets[r] = int(gt_cls[c])
    cls_total = _focal_sum(probs, targets)
    rows, cols = np.array(assignment.pairs, dtype=np.int64).reshape(-1, 2).T
    reg_total = 0.0
    for value in np.abs(pv[rows] - gv[cols]).mean(axis=1).tolist():
        reg_total += value
    return LossBreakdown(cls=cls_total, reg=reg_total), assignment


# ---------------------------------------------------------------------------
# Prediction JSON


def predictions_to_dict(preds: Sequence[DetectionResult]) -> dict:
    return {"predictions": [{**_box_to_json(p.box), "score": p.score} for p in preds]}


def predictions_from_dict(data: dict) -> list[DetectionResult]:
    preds = []
    for entry in _json_records(data, "predictions", MatchingError, "prediction data"):
        box = _box_from_json(entry, MatchingError, "prediction")
        score = _json_fields(entry, {"score": _json_float}, MatchingError, "prediction")["score"]
        preds.append(DetectionResult(box=box, score=score))
    return preds


def save_predictions(path, preds: Sequence[DetectionResult]) -> None:
    _json_write(path, predictions_to_dict(preds))


def load_predictions(path) -> list[DetectionResult]:
    return predictions_from_dict(_json_read(path, MatchingError))
