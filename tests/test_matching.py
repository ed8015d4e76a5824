import hashlib
import itertools
import json
import math
import warnings

import numpy as np
import pytest

from mvdet import matching
from mvdet.camgeo import Box3D, DetectionResult
from mvdet.matching import (
    MatchingError,
    focal_loss,
    hungarian,
    l1_reg_loss,
    load_predictions,
    match_cost,
    save_predictions,
    set_loss,
)


def brute_force_best(cost: np.ndarray):
    """Minimum total and lexicographically smallest optimal pair sequence."""
    rows, cols = cost.shape
    best = None
    if rows <= cols:
        for perm in itertools.permutations(range(cols), rows):
            seq = tuple((i, perm[i]) for i in range(rows))
            total = 0.0
            for i, j in seq:
                total += float(cost[i, j])
            key = (total, seq)
            if best is None or key < best:
                best = key
    else:
        for rowsel in itertools.permutations(range(rows), cols):
            seq = tuple(sorted((rowsel[j], j) for j in range(cols)))
            total = 0.0
            for i, j in seq:
                total += float(cost[i, j])
            key = (total, seq)
            if best is None or key < best:
                best = key
    return best


def simple_box(center=(0, 0, 0), size=(1, 1, 1), yaw=0.0, velocity=(0, 0)):
    return Box3D(center=center, size=size, yaw=yaw, velocity=velocity)


def reference_vector(box):
    """The regression vector written out for one box."""
    return np.concatenate([box.center, np.log(box.size), [math.sin(box.yaw), math.cos(box.yaw)], box.velocity])


def pair_cost(pred, gt):
    """Reference per-pair cost, written out one pair at a time."""
    probs, pred_box = pred
    gt_class, gt_box = gt
    probs = np.asarray(probs, dtype=np.float64).reshape(-1)
    cls_term = -float(probs[int(gt_class)])
    reg_term = float(np.abs(reference_vector(pred_box) - reference_vector(gt_box)).sum())
    return 1.0 * cls_term + 0.25 * reg_term


def random_box(rng):
    return Box3D(
        center=rng.uniform(-40, 40, 3),
        size=rng.uniform(0.5, 5.0, 3),
        yaw=float(rng.uniform(-math.pi, math.pi)),
        velocity=rng.uniform(-3, 3, 2),
    )


def seeded_set(seed, num_preds, num_gts, num_classes=5):
    """Seeded predictions and ground truths; every fourth prediction is a
    near-duplicate of the one before it, and every third has tied
    probabilities."""
    rng = np.random.default_rng(seed)
    gts = [(int(rng.integers(0, num_classes)), random_box(rng)) for _ in range(num_gts)]
    preds = []
    for i in range(num_preds):
        if i % 3 == 2:
            probs = np.full(num_classes, 1.0 / num_classes)
        else:
            probs = rng.dirichlet(np.ones(num_classes))
        if i % 4 == 3:
            prev = preds[-1][1]
            box = Box3D(center=prev.center + 1e-9, size=prev.size, yaw=prev.yaw, velocity=prev.velocity)
        else:
            box = random_box(rng)
        preds.append((probs, box))
    return preds, gts


class TestMatchCost:
    def test_identical_box_full_confidence(self):
        box = simple_box()
        probs = np.zeros(10)
        probs[3] = 1.0
        assert match_cost([(probs, box)], [(3, box)])[0, 0] == -1.0

    def test_uniform_probs(self):
        box = simple_box()
        probs = np.full(10, 0.1)
        assert match_cost([(probs, box)], [(4, box)])[0, 0] == pytest.approx(-0.1)

    def test_unit_center_offset(self):
        a = simple_box(center=(1, 0, 0))
        b = simple_box(center=(0, 0, 0))
        probs = np.zeros(10)
        probs[0] = 1.0
        assert match_cost([(probs, a)], [(0, b)])[0, 0] == -1.0 + 0.25 * 1.0

    def test_unnormalized_probs_rejected(self):
        with pytest.raises(MatchingError):
            match_cost([(np.array([0.5, 0.4]), simple_box())], [(0, simple_box())])

    def test_weights_scale_terms(self):
        a = simple_box(center=(2, 0, 0))
        b = simple_box()
        probs = np.array([1.0, 0.0])
        cost = match_cost([(probs, a)], [(0, b)])[0, 0]
        assert cost == pytest.approx(1.0 * (-1.0) + 0.25 * 2.0)

    @pytest.mark.parametrize("shape", [(37, 11), (1, 1)])
    def test_matrix_bit_equals_per_pair_reference(self, shape):
        preds, gts = seeded_set(sum(shape), *shape)
        cost = match_cost(preds, gts)
        expected = np.array([[pair_cost(p, g) for g in gts] for p in preds])
        assert cost.shape == shape and cost.dtype == np.float64
        assert cost.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("num_gts", [0, 1, 7])
    @pytest.mark.parametrize("num_preds", [1, 63, 64, 65, 129])
    def test_row_blocks_bit_equal_one_broadcast(self, num_preds, num_gts):
        # The L1 term is summed in blocks of 64 prediction rows; below, at
        # and past the block edges it must equal one (N, G, 10) broadcast.
        preds, gts = seeded_set(num_preds + num_gts, num_preds, num_gts)
        probs = np.array([p for p, _ in preds])
        gt_cls = np.array([c for c, _ in gts], dtype=np.int64)
        pv = np.array([reference_vector(b) for _, b in preds])
        gv = np.array([reference_vector(b) for _, b in gts]).reshape(-1, 10)
        expected = 1.0 * -probs[:, gt_cls] + 0.25 * np.abs(pv[:, None] - gv[None]).sum(axis=2)
        cost = match_cost(preds, gts)
        assert cost.shape == (num_preds, num_gts)
        assert cost.tobytes() == expected.tobytes()

    def test_empty_sides(self):
        preds, gts = seeded_set(3, 4, 3)
        assert match_cost([], gts).shape == (0, 3)
        assert match_cost(preds, []).shape == (4, 0)
        assert match_cost([], []).shape == (0, 0)

    def test_bad_probability_row_rejected(self):
        preds, gts = seeded_set(4, 6, 2)
        preds[4] = (np.array([0.5, 0.5, 0.5, 0.0, 0.0]), preds[4][1])
        with pytest.raises(MatchingError, match="sum to 1"):
            match_cost(preds, gts)
        preds[4] = (np.array([1.5, -0.5, 0.0, 0.0, 0.0]), preds[4][1])
        with pytest.raises(MatchingError, match="nonnegative"):
            match_cost(preds, gts)

    @pytest.mark.parametrize("gt_class", [5, -1])
    def test_out_of_range_gt_class_rejected(self, gt_class):
        preds, gts = seeded_set(5, 3, 4)
        gts[2] = (gt_class, gts[2][1])
        bound = "at most 4" if gt_class > 0 else "at least 0"
        with pytest.raises(MatchingError, match=f"gt class must be {bound}, got {gt_class}"):
            match_cost(preds, gts)

    @pytest.mark.parametrize("gt_class", [2.7, True, "1"])
    def test_non_integral_gt_class_rejected(self, gt_class):
        preds, gts = seeded_set(5, 3, 4)
        gts[1] = (gt_class, gts[1][1])
        with pytest.raises(MatchingError, match="gt class must be an integer"):
            match_cost(preds, gts)

    def test_integral_gt_class_forms_agree(self):
        preds, gts = seeded_set(5, 6, 3)
        forms = [(2.0, gts[0][1]), (np.int64(2), gts[0][1])]
        expected = match_cost(preds, [(2, gts[0][1])])
        for form in forms:
            assert match_cost(preds, [form]).tobytes() == expected.tobytes()

    def test_mixed_class_counts_rejected(self):
        preds, gts = seeded_set(6, 3, 2, num_classes=3)
        preds[1] = (np.array([0.25, 0.25, 0.25, 0.25]), preds[1][1])
        with pytest.raises(MatchingError, match="class count"):
            match_cost(preds, gts)


_NO_CLASSES = (np.zeros(0), Box3D(center=(0, 0, 0), size=(1, 1, 1), yaw=0.0))
# Invalid values the module's own checks refuse.
_INVALID_VALUES = {
    "focal-loss-no-classes": lambda: focal_loss(_NO_CLASSES[0], None),
    "match-cost-no-classes": lambda: match_cost([_NO_CLASSES], []),
    "set-loss-no-classes": lambda: set_loss([_NO_CLASSES], []),
}


@pytest.mark.parametrize("case", sorted(_INVALID_VALUES))
def test_invalid_value_raises_matching_error(case):
    with pytest.raises(MatchingError):
        _INVALID_VALUES[case]()


class TestHungarian:
    def test_two_by_two(self):
        result = hungarian(np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert result.pairs == ((0, 0), (1, 1))
        assert result.total_cost == 2.0

    def test_single_cell(self):
        result = hungarian(np.array([[7.0]]))
        assert result.pairs == ((0, 0),)
        assert result.total_cost == 7.0

    def test_empty(self):
        assert hungarian(np.zeros((0, 3))).pairs == ()
        assert hungarian(np.zeros((3, 0))).total_cost == 0.0

    def test_seeded_6x6_matches_brute_force(self):
        rng = np.random.default_rng(66)
        for _ in range(25):
            cost = rng.uniform(-4, 4, size=(6, 6))
            result = hungarian(cost)
            total, seq = brute_force_best(cost)
            assert result.total_cost == total
            assert result.pairs == seq

    @pytest.mark.parametrize("shape", [(1, 1), (2, 3), (3, 2), (4, 4), (5, 3), (2, 5), (5, 5)])
    def test_rectangular_matches_brute_force(self, shape):
        rng = np.random.default_rng(sum(shape))
        for _ in range(40):
            cost = rng.uniform(-2, 2, size=shape)
            result = hungarian(cost)
            total, seq = brute_force_best(cost)
            assert result.total_cost == total
            assert result.pairs == seq
            assert len(result.pairs) == min(shape)

    def test_tie_breaking_lexicographic(self):
        rng = np.random.default_rng(9)
        for _ in range(150):
            shape = (int(rng.integers(1, 5)), int(rng.integers(1, 5)))
            cost = rng.integers(0, 3, size=shape).astype(float)
            result = hungarian(cost)
            total, seq = brute_force_best(cost)
            assert result.total_cost == total
            assert result.pairs == seq

    def test_refine_visits_the_per_cell_scan_candidates(self, monkeypatch):
        # The reference is the per-cell scan the tie-break used before its
        # candidates came from one mask per position: every cell of the rows
        # start_r..cur_r (the last row cut at cur_c) in row-major order,
        # skipping used columns and inadmissible cells.  Both must re-solve
        # the same candidates in the same order and return the same pairs.
        def per_cell_refine(cost, pairs, reduced, total):
            rows, cols = cost.shape
            scale = float(np.abs(cost).max()) if cost.size else 0.0
            admissible = reduced <= 1e-9 * (1.0 + scale)
            incumbent = sorted(pairs)
            fixed, banned_rows = [], set()
            for position in range(len(incumbent)):
                cur_r, cur_c = incumbent[position]
                start_r = (fixed[-1][0] + 1) if fixed else 0
                used_cols = {c for _, c in fixed}
                done = False
                for r in range(start_r, cur_r + 1):
                    for c in range(cur_c if r == cur_r else cols):
                        if c in used_cols or not admissible[r, c]:
                            continue
                        candidate = matching._optimal_with_constraints(
                            cost, fixed + [(r, c)], banned_rows | set(range(start_r, r))
                        )
                        if candidate is not None and matching._pairs_total(cost, candidate) == total:
                            incumbent, done = candidate, True
                            break
                    if done:
                        break
                cur_r, cur_c = incumbent[position]
                banned_rows.update(range(start_r, cur_r))
                fixed.append((cur_r, cur_c))
            return incumbent

        solve = matching._optimal_with_constraints
        visited = []

        def recording(cost, fixed, banned_rows):
            visited.append((tuple(fixed), frozenset(banned_rows)))
            return solve(cost, fixed, banned_rows)

        monkeypatch.setattr(matching, "_optimal_with_constraints", recording)
        rng = np.random.default_rng(15)
        n_visits = 0
        for _ in range(3000):
            shape = (int(rng.integers(1, 7)), int(rng.integers(1, 7)))
            cost = rng.integers(0, 3, size=shape).astype(float)
            pairs, reduced = matching._solve(cost)
            total = matching._pairs_total(cost, pairs)
            got = matching._lexicographic_refine(cost, pairs, reduced, total)
            got_visits, visited[:] = visited[:], []
            want = per_cell_refine(cost, pairs, reduced, total)
            assert got == want
            assert got_visits == visited
            n_visits += len(visited)
            visited.clear()
        assert n_visits > 1000

    def test_constant_matrix_identity_pairs(self):
        result = hungarian(np.full((4, 6), 2.5))
        assert result.pairs == ((0, 0), (1, 1), (2, 2), (3, 3))

    def test_constant_shift_invariance(self):
        rng = np.random.default_rng(10)
        cost = rng.uniform(0, 1, size=(5, 5))
        base = hungarian(cost)
        shifted = hungarian(cost + 3.25)
        assert shifted.pairs == base.pairs
        assert shifted.total_cost == pytest.approx(base.total_cost + 5 * 3.25, rel=1e-12)

    def test_transpose_symmetry(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            cost = rng.uniform(-1, 1, size=(4, 6))
            fwd = hungarian(cost)
            bwd = hungarian(cost.T)
            assert {(r, c) for r, c in fwd.pairs} == {(c, r) for r, c in bwd.pairs}
            assert fwd.total_cost == pytest.approx(bwd.total_cost, rel=1e-12)

    def test_non_finite_rejected(self):
        with pytest.raises(MatchingError):
            hungarian(np.array([[1.0, np.inf]]))

    @pytest.mark.parametrize("shape", [(3,), (2, 2, 2)])
    def test_non_matrix_rejected(self, shape):
        with pytest.raises(MatchingError, match="2-D"):
            hungarian(np.zeros(shape))

    def test_one_solve_per_call(self, monkeypatch):
        # A unique optimum on the diagonal leaves the tie-break nothing to
        # re-solve, so the pairs and the prune's potentials come from one
        # solve.
        solve = matching._solve_rows_le_cols
        calls = []

        def counting(cost):
            calls.append(cost.shape)
            return solve(cost)

        monkeypatch.setattr(matching, "_solve_rows_le_cols", counting)
        cost = np.random.default_rng(12).uniform(1.0, 2.0, size=(6, 6))
        np.fill_diagonal(cost, 0.0)
        assert hungarian(cost).pairs == tuple((i, i) for i in range(6))
        assert calls == [(6, 6)]


class TestFocalLoss:
    def test_perfect_confidence_near_zero(self):
        probs = np.array([1.0 - 1e-9, 1e-9])
        assert focal_loss(probs, 0) < 1e-7

    def test_binary_half_frozen_value(self):
        # Positive term 0.25 * 0.25 * ln 2; negative term 0.75 * 0.25 * ln 2.
        probs = np.array([0.5, 0.5])
        expected_pos = 0.04332169878499658
        expected_neg = 0.12996509635498973
        assert focal_loss(probs, 0) == pytest.approx(expected_pos + expected_neg, rel=1e-12)

    def test_reduces_to_cross_entropy(self):
        # Each class's binary cross-entropy term, scaled by alpha = 0.25 (the
        # target) or 0.75 (the others) and the focal factor at gamma = 2.
        probs = np.array([0.3, 0.6, 0.1])
        expected = -0.25 * 0.4**2 * math.log(0.6) - 0.75 * (0.3**2 * math.log(0.7) + 0.1**2 * math.log(0.9))
        assert focal_loss(probs, 1) == pytest.approx(expected, rel=1e-12)

    def test_nonnegative_and_decreasing_in_confidence(self):
        last = None
        for p in np.linspace(0.05, 0.95, 10):
            probs = np.array([p, 1.0 - p])
            loss = focal_loss(probs, 0)
            assert loss >= 0.0
            if last is not None:
                assert loss < last
            last = loss

    def test_background_scoring(self):
        probs = np.array([0.2, 0.8])
        expected = -(0.75) * (0.2**2) * math.log(0.8) - 0.75 * (0.8**2) * math.log(0.2)
        assert focal_loss(probs, None) == pytest.approx(expected, rel=1e-12)

    def test_clamp_warns(self):
        probs = np.array([1.0, 0.0])
        with pytest.warns(UserWarning):
            focal_loss(probs, 1)

    @pytest.mark.parametrize("gt_class", [15, 10, -1])
    def test_out_of_range_gt_class_rejected(self, gt_class):
        probs = np.full(10, 0.1)
        bound = "at most 9" if gt_class > 0 else "at least 0"
        with pytest.raises(MatchingError, match=f"gt class must be {bound}, got {gt_class}"):
            focal_loss(probs, gt_class)

    @pytest.mark.parametrize("gt_class", [2.7, float("nan"), True, False, "2"])
    def test_non_integral_or_boolean_gt_class_rejected(self, gt_class):
        probs = np.full(10, 0.1)
        with pytest.raises(MatchingError, match="gt class must be an integer"):
            focal_loss(probs, gt_class)

    def test_integral_gt_class_forms_agree(self):
        probs = np.random.default_rng(3).dirichlet(np.ones(10))
        expected = focal_loss(probs, 2)
        assert focal_loss(probs, 2.0) == expected
        assert focal_loss(probs, np.int64(2)) == expected
        assert focal_loss(probs, None) != expected

    def test_matches_written_out_sum(self):
        # The loss written out term by term on numpy scalars, in class order.
        probs = np.random.default_rng(4).dirichlet(np.ones(7))
        for target in (None, 0, 3, 6):
            loss = 0.0
            for idx, p in enumerate(probs):
                if idx == target:
                    loss += -0.25 * (1.0 - p) ** 2.0 * math.log(p)
                else:
                    loss += -0.75 * p**2.0 * math.log(1.0 - p)
            assert focal_loss(probs, target) == float(loss)

    def test_rows_where_numpy_rounds_apart_equal_a_per_entry_loop(self):
        # Two-class rows with an entry whose array square or ``np.log``
        # (of p or 1 - p) differs from float ``** 2.0`` or ``math.log``, so
        # numpy's own square or log would move their sums.
        probs = np.random.default_rng(55).dirichlet(np.ones(2), size=20000)
        floats = probs.tolist()
        apart = (
            (probs * probs != [[p**2.0 for p in row] for row in floats])
            | (np.log(probs) != [[math.log(p) for p in row] for row in floats])
            | (np.log(1.0 - probs) != [[math.log(1.0 - p) for p in row] for row in floats])
        )
        rows = probs[apart.any(axis=1)]
        assert len(rows)
        for row in rows:
            for target in (None, 0, 1):
                assert focal_loss(row, target) == written_out_focal_sum(row[None], [target])


def written_out_focal_sum(probs, targets):
    """The summed focal loss entry by entry on Python floats, with
    ``math.log`` and float ``**``: each row's terms added in class order
    from 0.0, then the rows in order from 0.0."""
    total = 0.0
    for row, target in zip(probs.tolist(), targets):
        loss = 0.0
        for idx, p in enumerate(row):
            if idx == target:
                if p < 1e-12:
                    warnings.warn("target probability clamped to 1e-12 in focal loss")
                    p = 1e-12
                loss += -0.25 * (1.0 - p) ** 2.0 * math.log(p)
            else:
                q = 1.0 - p
                if q < 1e-12:
                    warnings.warn("negative-class probability clamped to 1e-12 in focal loss")
                    q = 1e-12
                loss += -0.75 * p**2.0 * math.log(q)
        total += loss
    return total


class TestL1RegLoss:
    def test_identical_zero(self):
        vec = reference_vector(simple_box())
        assert l1_reg_loss(vec, vec) == 0.0

    def test_single_coordinate(self):
        a = np.zeros(10)
        b = np.zeros(10)
        b[4] = 2.0
        assert l1_reg_loss(a, b) == pytest.approx(0.2)

    def test_yaw_wrap_free(self):
        a = reference_vector(simple_box(yaw=0.4))
        b = reference_vector(simple_box(yaw=0.4 + 2 * math.pi))
        assert l1_reg_loss(a, b) <= 1e-15

    def test_length_mismatch_rejected(self):
        with pytest.raises(MatchingError):
            l1_reg_loss(np.zeros(3), np.zeros(4))

    def test_regression_vector_layout(self):
        box = simple_box(center=(1, 2, 3), size=(2, 4, 8), yaw=0.5, velocity=(0.1, -0.2))
        [vec] = matching._regression_rows([box])
        assert vec.shape == (10,)
        assert np.allclose(vec[:3], (1, 2, 3))
        assert np.allclose(vec[3:6], np.log((2, 4, 8)))
        assert vec[6] == pytest.approx(math.sin(0.5))
        assert vec[7] == pytest.approx(math.cos(0.5))
        assert np.allclose(vec[8:], (0.1, -0.2))


class TestSetLoss:
    @staticmethod
    def make_pred(box, class_id, confidence=0.9, num_classes=4):
        probs = np.full(num_classes, (1.0 - confidence) / (num_classes - 1))
        probs[class_id] = confidence
        return probs, box

    def test_zero_gts_background_only(self):
        preds = [self.make_pred(simple_box(), 0), self.make_pred(simple_box((5, 0, 0)), 1)]
        breakdown, assignment = set_loss(preds, [])
        assert assignment.pairs == ()
        assert breakdown.reg == 0.0
        expected = sum(focal_loss(p, None) for p, _ in preds)
        assert breakdown.cls == pytest.approx(expected, rel=1e-12)

    def test_perfect_predictions_zero_reg(self):
        gts = [(0, simple_box((0, 0, 0))), (1, simple_box((8, 0, 0)))]
        preds = [self.make_pred(b, c, confidence=0.97) for c, b in gts]
        breakdown, assignment = set_loss(preds, gts)
        assert breakdown.reg == 0.0
        assert len(assignment.pairs) == 2

    def test_three_preds_two_gts_matches_exhaustive_oracle(self):
        # Oracle: enumerate every injective prediction->gt assignment and
        # recompute the loss from scratch.
        rng = np.random.default_rng(12)
        gts = [
            (int(rng.integers(0, 4)), simple_box(center=rng.uniform(-5, 5, 3)))
            for _ in range(2)
        ]
        preds = []
        for _ in range(3):
            probs = rng.dirichlet(np.ones(4))
            preds.append((probs, simple_box(center=rng.uniform(-5, 5, 3))))
        breakdown, assignment = set_loss(preds, gts)

        best_total = None
        for pred_pair in itertools.permutations(range(3), 2):
            total_cost = sum(
                pair_cost(preds[pi], gts[gi]) for pi, gi in zip(pred_pair, range(2))
            )
            if best_total is None or total_cost < best_total[0]:
                best_total = (total_cost, pred_pair)
        _, pred_pair = best_total
        matched = dict(zip(pred_pair, range(2)))
        expected_cls = 0.0
        expected_reg = 0.0
        for i, (probs, box) in enumerate(preds):
            if i in matched:
                cid, gbox = gts[matched[i]]
                expected_cls += focal_loss(probs, cid)
                expected_reg += l1_reg_loss(reference_vector(box), reference_vector(gbox))
            else:
                expected_cls += focal_loss(probs, None)
        assert breakdown.cls == pytest.approx(expected_cls, rel=1e-12)
        assert breakdown.reg == pytest.approx(expected_reg, rel=1e-12)
        assert breakdown.total == breakdown.cls + breakdown.reg

    def test_permutation_invariance(self):
        rng = np.random.default_rng(13)
        gts = [(int(rng.integers(0, 3)), simple_box(center=rng.uniform(-5, 5, 3))) for _ in range(4)]
        preds = []
        for _ in range(6):
            probs = rng.dirichlet(np.ones(3))
            preds.append((probs, simple_box(center=rng.uniform(-5, 5, 3))))
        base, _ = set_loss(preds, gts)
        pred_perm = [preds[i] for i in rng.permutation(6)]
        gt_perm = [gts[i] for i in rng.permutation(4)]
        shuffled, _ = set_loss(pred_perm, gt_perm)
        assert abs(base.total - shuffled.total) <= 1e-12 * max(1.0, abs(base.total))

    def test_no_predictions(self):
        breakdown, assignment = set_loss([], [(0, simple_box())])
        assert breakdown.total == 0.0
        assert assignment.pairs == ()

    def test_set_loss_regression_hash(self):
        # sha256 computed when set_loss built its matrix one pair at a time.
        breakdown, assignment = set_loss(*seeded_set(2024, 200, 20))
        blob = repr((repr(breakdown.cls), repr(breakdown.reg), assignment.pairs, repr(assignment.total_cost)))
        assert hashlib.sha256(blob.encode()).hexdigest() == "32e983a5cd47b2c122e98466297375f8308aaaa1b329d9523c0cd738b1d4d479"

    @pytest.mark.parametrize("seed,shape", [(31, (120, 17)), (32, (40, 40)), (33, (9, 25))])
    def test_sums_bit_equal_public_row_losses(self, seed, shape):
        preds, gts = seeded_set(seed, *shape)
        # Clamped rows: a certain negative class, and a vanishing target.
        preds[0] = (np.array([1.0, 0.0, 0.0, 0.0, 0.0]), preds[0][1])
        preds[5] = (np.array([0.0, 0.0, 0.0, 1.0, 0.0]), preds[5][1])
        with pytest.warns(UserWarning) as caught:
            breakdown, assignment = set_loss(preds, gts)
        matched = dict(assignment.pairs)
        with pytest.warns(UserWarning) as expected_warnings:
            cls_total = 0.0
            reg_total = 0.0
            for i, (probs, box) in enumerate(preds):
                if i in matched:
                    gt_class, gt_box = gts[matched[i]]
                    cls_total += focal_loss(probs, gt_class)
                    reg_total += l1_reg_loss(reference_vector(box), reference_vector(gt_box))
                else:
                    cls_total += focal_loss(probs, None)
        assert breakdown.cls == cls_total
        assert breakdown.reg == reg_total
        assert [str(w.message) for w in caught] == [str(w.message) for w in expected_warnings]
        assert "negative-class probability clamped to 1e-12 in focal loss" in {str(w.message) for w in caught}

    @staticmethod
    def dirichlet_set(seed, concentration):
        """900 predictions of 10 classes against 40 ground truths."""
        rng = np.random.default_rng(seed)
        probs = rng.dirichlet(np.full(10, concentration), size=900)
        preds = [(row, random_box(rng)) for row in probs]
        gts = [(int(rng.integers(0, 10)), random_box(rng)) for _ in range(40)]
        return probs, preds, gts

    @pytest.mark.parametrize("seed, concentration", [(51, 1.0), (52, 0.5), (53, 5.0)])
    def test_classification_equals_a_per_entry_loop(self, seed, concentration):
        probs, preds, gts = self.dirichlet_set(seed, concentration)
        breakdown, assignment = set_loss(preds, gts)
        targets = [None] * len(preds)
        for r, c in assignment.pairs:
            targets[r] = gts[c][0]
        assert len(assignment.pairs) == 40
        assert breakdown.cls == written_out_focal_sum(probs, targets)

    def test_clamped_entries_warn_and_equal_a_per_entry_loop(self):
        probs, preds, gts = self.dirichlet_set(54, 1.0)
        # One-hot rows: a negative class at 1 and targets at 0 both clamp.
        for i in range(0, 900, 150):
            probs[i] = np.eye(10)[i % 10]
            preds[i] = (probs[i], preds[i][1])
        with pytest.warns(UserWarning) as caught:
            breakdown, assignment = set_loss(preds, gts)
        targets = [None] * len(preds)
        for r, c in assignment.pairs:
            targets[r] = gts[c][0]
        with pytest.warns(UserWarning) as expected:
            total = written_out_focal_sum(probs, targets)
        assert breakdown.cls == total
        assert [str(w.message) for w in caught] == [str(w.message) for w in expected]

    def test_no_per_row_loss_or_vector_calls(self, monkeypatch):
        calls = []

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)

            return wrapped

        for name in ("focal_loss", "l1_reg_loss"):
            monkeypatch.setattr(matching, name, counting(name, getattr(matching, name)))
        set_loss(*seeded_set(8, 60, 12))
        assert calls == []

    def test_one_cost_build_per_set_loss(self, monkeypatch):
        # set_loss takes its cost matrix, probability rows and regression rows
        # from one _cost_terms call, which stacks the probabilities once and
        # the regression rows once per box set.
        calls = []

        def counting(name, fn):
            def counted(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)

            return counted

        for name in ("_cost_terms", "_stack_probs", "_regression_rows"):
            monkeypatch.setattr(matching, name, counting(name, getattr(matching, name)))
        preds, gts = seeded_set(7, 30, 6)
        set_loss(preds, gts)
        assert calls == ["_cost_terms", "_stack_probs", "_regression_rows", "_regression_rows"]


class TestPredictionJson:
    def test_round_trip(self, tmp_path):
        preds = [
            DetectionResult(
                box=simple_box(center=(1, 2, 0.5), size=(2, 4, 1.5), yaw=0.3, velocity=(1, -1)),
                score=0.87,
            ),
            DetectionResult(box=simple_box(), score=0.2),
        ]
        path = tmp_path / "preds.json"
        save_predictions(path, preds)
        loaded = load_predictions(path)
        assert len(loaded) == 2
        assert loaded[0].score == 0.87
        assert np.array_equal(loaded[0].box.center, preds[0].box.center)
        assert loaded[0].box.yaw == preds[0].box.yaw

    @pytest.mark.parametrize(
        "field, value",
        [("score", "0.9"), ("score", False), ("yaw", 10**400), ("center", ["1", "2", "3"]), ("velocity", [0, True])],
        ids=["score-string", "score-bool", "yaw-huge", "center-strings", "velocity-bool"],
    )
    def test_numbers_must_be_json_numbers(self, tmp_path, field, value):
        path = tmp_path / "preds.json"
        save_predictions(path, [DetectionResult(box=simple_box(), score=0.5)])
        data = json.loads(path.read_text())
        data["predictions"][0][field] = value
        path.write_text(json.dumps(data))
        with pytest.raises(MatchingError, match="prediction: missing or malformed field"):
            load_predictions(path)
