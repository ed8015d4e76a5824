import csv
import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest

from mvdet import metrics
from mvdet.camgeo import Box3D, DetectionResult, RegionLabel, classify_regions
from mvdet.metrics import (
    MetricsError,
    ap_at_threshold,
    evaluate,
    evaluate_region_split,
    match_detections,
    nds,
    save_report,
    save_report_csv,
    tp_errors,
)
from mvdet.synth import NoiseSpec, gen_objects, gen_rig, perturb_predictions


def det(center, score, class_id=0, size=(1, 1, 1), yaw=0.0, velocity=(0, 0), attribute_id=0):
    return DetectionResult(
        box=Box3D(center=center, size=size, yaw=yaw, velocity=velocity,
                  class_id=class_id, attribute_id=attribute_id),
        score=score,
    )


def gt(center, class_id=0, size=(1, 1, 1), yaw=0.0, velocity=(0, 0), attribute_id=0):
    return Box3D(center=center, size=size, yaw=yaw, velocity=velocity,
                 class_id=class_id, attribute_id=attribute_id)


class TestAp:
    def test_perfect_predictions(self):
        gts = [gt((0, 0, 0)), gt((10, 0, 0)), gt((0, 10, 0))]
        preds = [det(g.center, 1.0) for g in gts]
        assert ap_at_threshold(preds, gts, 0, 2.0) == 1.0

    def test_no_predictions(self):
        assert ap_at_threshold([], [gt((0, 0, 0))], 0, 2.0) == 0.0

    def test_no_gts(self):
        assert ap_at_threshold([det((0, 0, 0), 1.0)], [], 0, 2.0) == 0.0

    def test_hand_enumerated_curve(self):
        # One exact detection (score 0.9) of two gts plus one far false
        # positive (score 0.5).  Oracle: build the interpolated 101-point
        # precision curve by hand and integrate the clipped area.
        gts = [gt((0, 0, 0)), gt((10, 0, 0))]
        preds = [det((0, 0, 0), 0.9), det((50, 50, 0), 0.5)]
        # After the first prediction: recall 0.5 at precision 1.
        # After the second: recall 0.5 at precision 0.5.
        curve = np.empty(101)
        grid = np.linspace(0, 1, 101)
        curve[grid < 0.5] = 1.0
        curve[grid == 0.5] = 0.5  # duplicate-recall interpolation takes the last value
        curve[grid > 0.5] = 0.0
        expected = float(np.clip(curve[11:] - 0.1, 0, None).mean() / 0.9)
        assert ap_at_threshold(preds, gts, 0, 2.0) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(35.5 / 81, rel=1e-12)

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(1)
        gts = [gt(rng.uniform(-20, 20, 3)) for _ in range(30)]
        preds = [det(g.center + rng.normal(0, 1.0, 3), float(rng.uniform(0.1, 1))) for g in gts]
        last = 0.0
        for d in (0.5, 1.0, 2.0, 4.0, 8.0):
            ap = ap_at_threshold(preds, gts, 0, d)
            assert ap >= last - 1e-12
            last = ap

    def test_duplicate_prediction_never_increases_ap(self):
        rng = np.random.default_rng(2)
        gts = [gt(rng.uniform(-20, 20, 3)) for _ in range(10)]
        preds = [det(g.center + rng.normal(0, 0.3, 3), float(rng.uniform(0.5, 1))) for g in gts]
        base = ap_at_threshold(preds, gts, 0, 2.0)
        for i in range(len(preds)):
            dup = preds + [DetectionResult(box=preds[i].box, score=preds[i].score * 0.5)]
            assert ap_at_threshold(dup, gts, 0, 2.0) <= base + 1e-12

    def test_class_isolation(self):
        gts = [gt((0, 0, 0), class_id=1)]
        preds = [det((0, 0, 0), 1.0, class_id=2)]
        assert ap_at_threshold(preds, gts, 1, 2.0) == 0.0


class TestTpErrors:
    def test_perfect_matches(self):
        pairs = [(det((1, 2, 0), 0.9), gt((1, 2, 0)))]
        errors = tp_errors(pairs)
        assert errors.as_tuple() == (0.0, 0.0, 0.0, 0.0, 0.0)
        assert not errors.fallback

    def test_quarter_turn_orientation_error(self):
        pairs = [
            (det((0, 0, 0), 0.9, yaw=math.pi / 2), gt((0, 0, 0), yaw=0.0)),
            (det((5, 0, 0), 0.8, yaw=0.0), gt((5, 0, 0), yaw=math.pi / 2)),
        ]
        assert tp_errors(pairs).maoe == pytest.approx(math.pi / 2, rel=1e-12)

    def test_yaw_wraps_to_smallest_difference(self):
        pairs = [(det((0, 0, 0), 0.9, yaw=math.pi - 0.05), gt((0, 0, 0), yaw=-math.pi + 0.05))]
        assert tp_errors(pairs).maoe == pytest.approx(0.1, abs=1e-12)

    def test_double_size_scale_error(self):
        # Nested aligned boxes: IoU equals the volume ratio 1/8.
        pairs = [(det((0, 0, 0), 0.9, size=(2, 2, 2)), gt((0, 0, 0), size=(1, 1, 1)))]
        assert tp_errors(pairs).mase == pytest.approx(1.0 - 1.0 / 8.0, rel=1e-12)

    def test_velocity_error(self):
        pairs = [(det((0, 0, 0), 0.9, velocity=(3, 4)), gt((0, 0, 0), velocity=(0, 0)))]
        assert tp_errors(pairs).mave == pytest.approx(5.0, rel=1e-12)

    def test_attribute_error(self):
        pairs = [
            (det((0, 0, 0), 0.9, attribute_id=1), gt((0, 0, 0), attribute_id=1)),
            (det((5, 0, 0), 0.9, attribute_id=0), gt((5, 0, 0), attribute_id=2)),
        ]
        assert tp_errors(pairs).maae == pytest.approx(0.5)

    def test_zero_matches_worst_case_flagged(self):
        errors = tp_errors([])
        assert errors.as_tuple() == (1.0, 1.0, 1.0, 1.0, 1.0)
        assert errors.fallback


class TestNds:
    def test_perfect(self):
        assert nds(1.0, (0, 0, 0, 0, 0)) == 1.0

    def test_published_reference_row(self):
        value = nds(0.412, (0.641, 0.255, 0.394, 0.845, 0.133))
        assert abs(value - 0.479) < 0.0005

    def test_all_errors_saturated(self):
        assert nds(0.0, (1.5, 2.0, 1.0, 3.0, 1.0)) == 0.0

    def test_linear_in_map(self):
        mtps = (0.2, 0.3, 0.4, 0.5, 0.6)
        for a, b in [(0.0, 0.5), (0.25, 0.75)]:
            assert nds(b, mtps) - nds(a, mtps) == pytest.approx(0.5 * (b - a), rel=1e-12)

    def test_marginal_tp_effect(self):
        base = nds(0.5, (0.5, 0.5, 0.5, 0.5, 0.5))
        assert nds(0.5, (0.6, 0.5, 0.5, 0.5, 0.5)) == pytest.approx(base - 0.01, rel=1e-9)
        # Above the clamp, extra error has no effect.
        assert nds(0.5, (1.7, 0.5, 0.5, 0.5, 0.5)) == nds(0.5, (1.2, 0.5, 0.5, 0.5, 0.5))

    def test_validation(self):
        with pytest.raises(MetricsError):
            nds(1.5, (0, 0, 0, 0, 0))
        with pytest.raises(MetricsError):
            nds(0.5, (0, 0, 0))
        with pytest.raises(MetricsError):
            nds(0.5, (-0.1, 0, 0, 0, 0))


class TestEvaluate:
    def test_report_nds_recomputation_identity(self):
        rng = np.random.default_rng(3)
        gts = gen_objects(31, 100)
        preds = perturb_predictions(gts, NoiseSpec(center_sigma=0.3, yaw_sigma=0.2, drop_rate=0.2), seed=4)
        report = evaluate(preds, gts)
        recomputed = nds(report.mean_ap, report.tp.as_tuple())
        assert abs(recomputed - report.nds) <= 1e-12

    def test_traced_peak_grows_linearly_with_the_box_counts(self):
        # One class of uniform centres.  A whole (N, G) distance matrix and
        # its list took 6.0 MB at 500 x 250 and 24.1 MB at 1,000 x 500.
        def peak(n, g):
            rng = np.random.default_rng(0)
            gts = [gt((*rng.uniform(-50, 50, 2), 1.0)) for _ in range(g)]
            preds = [det((*rng.uniform(-50, 50, 2), 1.0), score) for score in rng.uniform(size=n).tolist()]
            tracemalloc.start()
            try:
                evaluate(preds, gts)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(1000, 500) <= 2.5 * peak(500, 250)

    def test_empty_gts_flagged(self):
        report = evaluate([det((0, 0, 0), 0.9)], [])
        assert report.no_gts
        assert report.mean_ap == 0.0
        assert report.tp.fallback
        assert report.nds == 0.0


class TestRegionSplit:
    def test_single_camera_rig(self):
        rig = gen_rig("single")
        rng = np.random.default_rng(5)
        # Keep every box inside the single camera's frustum.
        gts = []
        while len(gts) < 40:
            center = rng.uniform((8, -4, 0.8), (35, 4, 2.2))
            box = gt(center, class_id=int(rng.integers(0, 3)))
            if classify_regions([box], rig)[0] is RegionLabel.NON_OVERLAPPING:
                gts.append(box)
        preds = [det(g.center, float(rng.uniform(0.5, 1)), class_id=g.class_id) for g in gts]
        split = evaluate_region_split(preds, gts, rig)
        assert split.overlapping.gt_count == 0
        assert split.overlapping.no_gts
        assert split.non_overlapping.to_dict() == split.overall.to_dict()

    def test_perfect_predictions_all_regions(self):
        rig = gen_rig("nuscenes-like")
        gts = gen_objects(6, 120)
        preds = perturb_predictions(gts, NoiseSpec(), seed=7)
        split = evaluate_region_split(preds, gts, rig)
        for report in (split.overall, split.overlapping, split.non_overlapping):
            assert report.mean_ap == 1.0
            assert report.nds == 1.0

    def test_gt_counts_match_exhaustive_classification(self):
        rig = gen_rig("nuscenes-like")
        gts = gen_objects(8, 300)
        labels = classify_regions(gts, rig)
        split = evaluate_region_split([], gts, rig)
        n_over = sum(1 for l in labels if l is RegionLabel.OVERLAPPING)
        n_non = sum(1 for l in labels if l is RegionLabel.NON_OVERLAPPING)
        assert split.overlapping.gt_count == n_over
        assert split.non_overlapping.gt_count == n_non
        assert split.overall.gt_count == len(gts)

    @staticmethod
    def seeded_split_inputs():
        rig = gen_rig("nuscenes-like")
        gts = gen_objects(8, 120, class_count=3)
        noise = NoiseSpec(center_sigma=0.4, yaw_sigma=0.2, velocity_sigma=0.3, drop_rate=0.2, false_positive_rate=0.3)
        return perturb_predictions(gts, noise, seed=9), gts, rig

    def test_report_regression_hash(self):
        # sha256 of the sorted-JSON report, computed while each region's
        # subsets were still filtered inside evaluate; both regions hold
        # ground truths and predictions.
        preds, gts, rig = self.seeded_split_inputs()
        report = evaluate_region_split(preds, gts, rig).to_dict()
        assert [report[r]["gt_count"] for r in ("overall", "overlapping", "non_overlapping")] == [120, 35, 84]
        assert [report[r]["pred_count"] for r in ("overall", "overlapping", "non_overlapping")] == [127, 36, 91]
        blob = json.dumps(report, sort_keys=True).encode()
        assert hashlib.sha256(blob).hexdigest() == "7a510207bb47a220c61702ae66ac358e2fad8b2c97d1dba9f8b689574219fb33"

    def test_classifies_each_box_set_once(self, monkeypatch):
        calls = []

        def counting(boxes, rig):
            calls.append(len(boxes))
            return classify_regions(boxes, rig)

        monkeypatch.setattr(metrics, "classify_regions", counting)
        preds, gts, rig = self.seeded_split_inputs()
        evaluate_region_split(preds, gts, rig)
        assert calls == [len(preds) + len(gts)]

    def test_invisible_gts_only_in_overall(self):
        rig = gen_rig("single")
        visible = gt((20, 0, 1.5))
        behind = gt((-20, 0, 1.5))
        assert classify_regions([behind], rig)[0] is RegionLabel.INVISIBLE
        split = evaluate_region_split([], [visible, behind], rig)
        assert split.overall.gt_count == 2
        assert split.non_overlapping.gt_count == 1
        assert split.overlapping.gt_count == 0


class TestRegionSplitOracle:
    """Each region report is ``evaluate`` of the boxes ``classify_regions``
    puts in that region, filtered here one box at a time."""

    @staticmethod
    def oracle_scene(seed):
        rng = np.random.default_rng(seed)
        # The single camera sees no overlap, so its overlapping region is empty.
        rig = gen_rig("single" if seed % 5 == 4 else "nuscenes-like")
        gts = gen_objects(seed, int(rng.integers(5, 60)), class_count=4)
        gts += [gt((0, 0, 60), class_id=1), gt((0, 0, -40), class_id=3)]  # invisible to every camera
        noise = NoiseSpec(center_sigma=0.5, yaw_sigma=0.2, velocity_sigma=0.3, drop_rate=0.2, false_positive_rate=0.4)
        preds = perturb_predictions(gts, noise, seed=seed + 100, class_count=4)
        # Many tied scores, 0.0 and -0.0 among them.
        preds = [DetectionResult(box=p.box, score=float(rng.choice([0.0, -0.0, 0.5, p.score]))) for p in preds]
        if seed % 2:
            def beyond_int64(b):
                return Box3D(center=b.center, size=b.size, yaw=b.yaw, velocity=b.velocity,
                             class_id=2**64 + b.class_id, attribute_id=b.attribute_id)

            gts = [beyond_int64(g) for g in gts]
            preds = [DetectionResult(box=beyond_int64(p.box), score=p.score) for p in preds]
        return preds, gts, rig

    def test_region_reports_equal_evaluate_of_the_filtered_lists(self):
        covered = set()
        for seed in range(20):
            preds, gts, rig = self.oracle_scene(seed)
            split = evaluate_region_split(preds, gts, rig)
            gt_labels = classify_regions(gts, rig)
            pred_labels = classify_regions([p.box for p in preds], rig)
            expected = {"overall": evaluate(preds, gts)}
            for region in (RegionLabel.OVERLAPPING, RegionLabel.NON_OVERLAPPING):
                kept_preds = [p for p, label in zip(preds, pred_labels) if label is region]
                kept_gts = [g for g, label in zip(gts, gt_labels) if label is region]
                expected[region.value] = evaluate(kept_preds, kept_gts)
                if not kept_preds and not kept_gts:
                    covered.add("empty region")
            for name, report in expected.items():
                assert json.dumps(getattr(split, name).to_dict(), sort_keys=True) == json.dumps(
                    report.to_dict(), sort_keys=True
                ), (seed, name)
            if RegionLabel.INVISIBLE in gt_labels:
                covered.add("invisible ground truths")
            if {math.copysign(1.0, p.score) for p in preds if p.score == 0.0} == {1.0, -1.0}:
                covered.add("signed zero ties")
            if max(g.class_id for g in gts) >= 2**63:
                covered.add("class ids past int64")
        assert covered == {"empty region", "invisible ground truths", "signed zero ties", "class ids past int64"}


class TestMatchDetections:
    def test_one_to_one(self):
        gts = [gt((0, 0, 0)), gt((1.0, 0, 0))]
        preds = [det((0.1, 0, 0), 0.9), det((0.9, 0, 0), 0.8)]
        pairs = match_detections(preds, gts, 2.0)
        assert sorted(pairs) == [(0, 0), (1, 1)]

    def test_score_priority(self):
        gts = [gt((0, 0, 0))]
        preds = [det((0.4, 0, 0), 0.2), det((0.5, 0, 0), 0.95)]
        pairs = match_detections(preds, gts, 2.0)
        assert pairs == [(1, 0)]

    def test_threshold_respected(self):
        gts = [gt((0, 0, 0))]
        preds = [det((3.0, 0, 0), 0.9)]
        assert match_detections(preds, gts, 2.0) == []
        assert match_detections(preds, gts, 4.0) == [(0, 0)]

    def test_int_scores_equal_as_floats_tie_by_index(self):
        # 2**53 + 1 rounds to 2**53, so the scores tie and the first
        # prediction wins although the second is closer.
        gts = [gt((0, 0, 0))]
        preds = [det((0.5, 0, 0), 2**53), det((0.4, 0, 0), 2**53 + 1)]
        assert match_detections(preds, gts, 2.0) == [(0, 0)]


def reference_greedy_pairs(preds, gts, class_id, threshold):
    """The greedy matcher written out per prediction: score order with
    index tie-break, then a scan of the untaken ground truths in index
    order, where the first of equal distances wins and a match needs a
    distance strictly below the threshold."""
    order = sorted((i for i, p in enumerate(preds) if p.box.class_id == class_id), key=lambda i: (-preds[i].score, i))
    taken = set()
    pairs = []
    for pi in order:
        best, best_d = None, math.inf
        for gi, g in enumerate(gts):
            if g.class_id != class_id or gi in taken:
                continue
            dx, dy = g.center[:2] - preds[pi].box.center[:2]
            d = math.sqrt(dx * dx + dy * dy)
            if d < best_d:
                best, best_d = gi, d
        if best_d < threshold:
            taken.add(best)
            pairs.append((pi, best))
    return pairs


class TestOneMatchingPass:
    @staticmethod
    def tied_inputs(seed):
        """Seeded predictions with near-duplicate rows, scores rounded into
        ties, and a duplicated ground truth."""
        gts = gen_objects(seed, 40, class_count=3)
        gts.append(gts[0])
        noise = NoiseSpec(center_sigma=0.8, drop_rate=0.1, false_positive_rate=0.3)
        base = perturb_predictions(gts, noise, seed=seed + 1, class_count=3)
        rng = np.random.default_rng(seed)
        preds = []
        for p in base:
            preds.append(DetectionResult(box=p.box, score=round(p.score, 1)))
            if rng.uniform() < 0.3:
                box = Box3D(center=p.box.center + rng.normal(0, 1e-9, 3), size=p.box.size, yaw=p.box.yaw,
                            velocity=p.box.velocity, class_id=p.box.class_id, attribute_id=p.box.attribute_id)
                preds.append(DetectionResult(box=box, score=round(p.score, 1)))
        assert len({p.score for p in preds}) < len(preds) // 4
        return preds, gts

    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_evaluate_equals_entry_points(self, seed):
        preds, gts = self.tied_inputs(seed)
        report = evaluate(preds, gts)
        assert report.class_ids == (0, 1, 2)
        for cid in report.class_ids:
            assert list(report.ap[cid]) == list(metrics.DIST_THRESHOLDS)
            for th in metrics.DIST_THRESHOLDS:
                assert report.ap[cid][th] == ap_at_threshold(preds, gts, cid, th)
        pairs = match_detections(preds, gts, metrics.TP_THRESHOLD)
        assert report.tp == tp_errors([(preds[p], gts[g]) for p, g in pairs])

    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_matches_equal_per_prediction_reference(self, seed):
        preds, gts = self.tied_inputs(seed)
        for th in metrics.DIST_THRESHOLDS:
            expected = [pair for cid in (0, 1, 2) for pair in reference_greedy_pairs(preds, gts, cid, th)]
            assert match_detections(preds, gts, th) == expected
        assert any(p != q for p, q in zip(match_detections(preds, gts, 0.5), match_detections(preds, gts, 4.0)))

    def test_score_order_with_signed_zeros_and_repeats(self):
        # 0.0 and -0.0 compare equal, so their order is the original one, as
        # are the orders within each run of repeated scores.
        scores = [0.0, -0.0, 0.5, -0.0, 0.5, 0.0, -0.25, 0.5, -0.25, 0.0]
        gts = [gt((3.0 * j, 0, 0)) for j in range(4)]
        preds = [det((3.0 * (i % 4) + 0.1 * i, 0, 0), s) for i, s in enumerate(scores)]
        table = metrics._Table(preds, gts)
        assert table.order.tolist() == [2, 4, 7, 0, 1, 3, 5, 9, 6, 8]
        [(rows, _, _)] = metrics._greedy_matches(table, table.order, table.all_gts, [0], (2.0,))
        assert rows == [2, 4, 7, 0, 1, 3, 5, 9, 6, 8]
        for th in metrics.DIST_THRESHOLDS:
            assert match_detections(preds, gts, th) == reference_greedy_pairs(preds, gts, 0, th)


class TestClassIdsBeyondInt64:
    CLASSES = (10**30, 10**30 + 1)

    def perfect_inputs(self):
        gts = [
            Box3D(center=g.center, size=g.size, yaw=g.yaw, velocity=g.velocity,
                  class_id=self.CLASSES[g.class_id % 2], attribute_id=g.attribute_id)
            for g in gen_objects(6, 120)
        ]
        return [DetectionResult(box=g, score=0.9) for g in gts], gts

    def test_evaluate_scores_one(self):
        preds, gts = self.perfect_inputs()
        report = evaluate(preds, gts)
        assert report.class_ids == self.CLASSES and report.nds == 1.0
        data = json.loads(json.dumps(report.to_dict()))
        assert data["classes"] == list(self.CLASSES)
        assert sorted(data["ap"]) == ["1000000000000000000000000000000", "1000000000000000000000000000001"]

    def test_region_split_scores_one(self):
        preds, gts = self.perfect_inputs()
        split = evaluate_region_split(preds, gts, gen_rig("nuscenes-like"))
        for report in (split.overall, split.overlapping, split.non_overlapping):
            assert report.class_ids == self.CLASSES
            assert report.mean_ap == 1.0 and report.nds == 1.0


class TestReportFiles:
    def test_json_report(self, tmp_path):
        gts = gen_objects(9, 50)
        preds = perturb_predictions(gts, NoiseSpec(center_sigma=0.1), seed=8)
        rig = gen_rig("nuscenes-like")
        split = evaluate_region_split(preds, gts, rig)
        path = tmp_path / "report.json"
        save_report(path, split)
        data = json.loads(path.read_text())
        assert set(data) == {"overall", "overlapping", "non_overlapping"}
        assert data["overall"]["NDS"] == split.overall.nds

    def test_csv_report(self, tmp_path):
        gts = gen_objects(10, 50)
        preds = perturb_predictions(gts, NoiseSpec(), seed=9)
        rig = gen_rig("nuscenes-like")
        split = evaluate_region_split(preds, gts, rig)
        path = tmp_path / "report.csv"
        save_report_csv(path, split)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        header = rows[0]
        assert header[:2] == ["region", "class"]
        regions = {row[0] for row in rows[1:]}
        assert regions == {"overall", "overlapping", "non_overlapping"}
        expected_rows = sum(
            max(1, len(rep.class_ids))
            for rep in (split.overall, split.overlapping, split.non_overlapping)
        )
        assert len(rows) - 1 == expected_rows


def reference_greedy_hits(dist, threshold):
    """The greedy pass written out with a masked copy: each row takes the
    argmin of its untaken columns (numpy's first index among ties) if
    strictly below the threshold."""
    work = np.array(dist, dtype=np.float64)
    hits = []
    for row in work:
        if work.shape[1] == 0:
            hits.append(-1)
            continue
        j = int(np.argmin(row))
        if row[j] < threshold:
            work[:, j] = np.inf
            hits.append(j)
        else:
            hits.append(-1)
    return hits


class TestGreedyPass:
    @pytest.mark.parametrize("seed", range(6))
    def test_hits_equal_argmin_reference_with_exact_ties(self, seed):
        rng = np.random.default_rng(seed)
        rows, cols = int(rng.integers(1, 40)), int(rng.integers(1, 12))
        # Distances on a coarse grid, so many entries tie exactly, within a
        # row and across rows; some rows equal the threshold exactly.
        dist = rng.integers(0, 9, size=(rows, cols)) * 0.5
        dist[rng.uniform(size=rows) < 0.2] = 2.0
        thresholds = (0.5, 1.0, 2.0, 4.0, 10.0)
        together = metrics._greedy_pass([dist], dist.shape[1], thresholds)
        assert list(together) == list(thresholds)
        # Split into blocks, the free columns carry over from block to block.
        blocks = np.array_split(dist, int(rng.integers(1, rows + 1)))
        assert metrics._greedy_pass(blocks, cols, thresholds) == together
        for threshold in thresholds:
            expected = reference_greedy_hits(dist, threshold)
            assert metrics._greedy_pass([dist], dist.shape[1], (threshold,))[threshold] == expected
            assert together[threshold] == expected

    def test_distance_blocks_equal_the_whole_matrix(self, monkeypatch):
        rng = np.random.default_rng(7)
        pred_xy, gt_xy = rng.uniform(-10, 10, (300, 2)), rng.uniform(-10, 10, (40, 2))
        whole = np.linalg.norm(gt_xy[None] - pred_xy[:, None], axis=2)
        for step in (1, 7, 64):
            rows = [np.linalg.norm(gt_xy[None] - pred_xy[lo : lo + step, None], axis=2) for lo in range(0, 300, step)]
            assert np.concatenate(rows).tobytes() == whole.tobytes()
        gts = [gt((*xy, 1.0)) for xy in gt_xy.tolist()]
        preds = [det((*xy, 1.0), score) for xy, score in zip(pred_xy.tolist(), rng.uniform(size=300).tolist())]
        one_block = evaluate(preds, gts).to_dict()
        monkeypatch.setattr(metrics, "_DIST_BLOCK", 100)  # blocks of two rows
        assert evaluate(preds, gts).to_dict() == one_block

    def test_ties_go_to_the_lowest_untaken_column(self):
        dist = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 1.0], [0.5, 1.0, 1.0], [1.0, 1.0, 1.0]])
        assert metrics._greedy_pass([dist], dist.shape[1], (2.0,))[2.0] == [0, 1, 2, -1]
        assert metrics._greedy_pass([dist], dist.shape[1], (1.0,))[1.0] == [-1, -1, 0, -1]

    def test_empty_sides(self):
        assert metrics._greedy_pass([np.zeros((3, 0))], 0, (1.0,))[1.0] == [-1, -1, -1]
        assert metrics._greedy_pass([np.zeros((0, 4))], 4, (1.0,))[1.0] == []
