import logging

import numpy as np
import pytest

from iodkit.geometry import BoundingBox, iou_matrix
from iodkit.ingestion import Annotation
from iodkit.labels import LabeledSet, Origin
from iodkit.metrics import (
    Detection,
    detections_from_predictions,
    evaluate_detections,
    fpp,
)


def ann(aid, image_id, category, box, image_px=640):
    area = box.w * image_px * box.h * image_px
    return Annotation(
        id=aid,
        image_id=image_id,
        category=category,
        box=box,
        area_px=area,
        bbox_px=(0.0, 0.0, box.w * image_px, box.h * image_px),
    )


def det(image_id, category, score, box):
    return Detection(image_id=image_id, category=category, score=score, box=box)


def pr_oracle(records, n_gt):
    """Step-by-step PR-curve AP oracle: records = [(score, is_tp), ...]."""
    records = sorted(records, key=lambda r: -r[0])
    tp = fp = 0
    curve = []
    for _, is_tp in records:
        tp += is_tp
        fp += 1 - is_tp
        curve.append((tp / n_gt, tp / (tp + fp)))
    best = 0.0
    ap = 0.0
    for r in np.linspace(0, 1, 101):
        p = max((prec for rec, prec in curve if rec >= r - 1e-12), default=0.0)
        ap += p / 101
    return ap


BOX_A = BoundingBox(0.3, 0.3, 0.2, 0.2)
BOX_B = BoundingBox(0.7, 0.7, 0.2, 0.2)


class TestAveragePrecision:
    def test_perfect_detections(self):
        gt = [ann(1, 1, 0, BOX_A), ann(2, 1, 1, BOX_B), ann(3, 2, 0, BOX_B)]
        dets = [det(a.image_id, a.category, 1.0, a.box) for a in gt]
        s = evaluate_detections(dets, gt)
        assert s.ap == 1.0
        assert s.ap50 == 1.0
        assert s.ap75 == 1.0
        assert all(abs(v - 1.0) < 1e-12 for v in s.per_threshold.values())

    def test_no_detections(self):
        gt = [ann(1, 1, 0, BOX_A)]
        s = evaluate_detections([], gt)
        assert s.ap == 0.0

    def test_tp_then_fp_keeps_full_ap_at_50(self):
        # 1 truth; a good match at score .9 then a false positive at .8:
        # recall hits 1.0 at precision 1.0 before the FP arrives
        gt = [ann(1, 1, 0, BoundingBox(0.5, 0.5, 0.4, 0.4))]
        tp_box = BoundingBox(0.5, 0.52, 0.4, 0.4)
        assert iou_matrix(tp_box.to_array()[None], gt[0].box.to_array()[None]).item() > 0.8
        dets = [
            det(1, 0, 0.9, tp_box),
            det(1, 0, 0.8, BoundingBox(0.1, 0.9, 0.1, 0.1)),
        ]
        s = evaluate_detections(dets, gt)
        assert s.per_threshold[0.5] == 1.0
        oracle = pr_oracle([(0.9, 1), (0.8, 0)], n_gt=1)
        assert abs(s.per_threshold[0.5] - oracle) < 1e-12

    def test_fp_before_tp_lowers_ap(self):
        gt = [ann(1, 1, 0, BoundingBox(0.5, 0.5, 0.4, 0.4))]
        dets = [
            det(1, 0, 0.95, BoundingBox(0.1, 0.9, 0.1, 0.1)),  # FP first
            det(1, 0, 0.8, BoundingBox(0.5, 0.5, 0.4, 0.4)),  # exact TP
        ]
        s = evaluate_detections(dets, gt)
        oracle = pr_oracle([(0.95, 0), (0.8, 1)], n_gt=1)
        assert abs(s.per_threshold[0.5] - oracle) < 1e-12
        assert s.per_threshold[0.5] < 1.0

    def test_empty_category_skipped(self):
        gt = [ann(1, 1, 0, BOX_A)]
        dets = [det(1, 0, 1.0, BOX_A), det(1, 5, 0.9, BOX_B)]
        s = evaluate_detections(dets, gt, categories=[0, 5])
        assert s.ap == 1.0  # category 5 has no truth and is skipped

    def test_rank_invariance(self):
        rng = np.random.default_rng(0)
        gt = [ann(i, i % 3, int(rng.integers(0, 2)), BoundingBox(0.5, 0.5, 0.3, 0.3)) for i in range(6)]
        dets = []
        for i, a in enumerate(gt):
            good = rng.random() < 0.7
            box = a.box if good else BoundingBox(0.05, 0.05, 0.1, 0.1)
            dets.append(det(a.image_id, a.category, 0.2 + 0.1 * i, box))
        s1 = evaluate_detections(dets, gt)
        squashed = [det(d.image_id, d.category, d.score**3, d.box) for d in dets]
        s2 = evaluate_detections(squashed, gt)
        assert abs(s1.ap - s2.ap) < 1e-12

    def test_threshold_monotonicity(self):
        rng = np.random.default_rng(1)
        gt = []
        dets = []
        for i in range(12):
            b = BoundingBox(float(rng.uniform(0.3, 0.7)), float(rng.uniform(0.3, 0.7)), 0.3, 0.3)
            gt.append(ann(i, i // 2, 0, b))
            jit = BoundingBox(
                min(max(b.cx + rng.uniform(-0.05, 0.05), 0.2), 0.8),
                min(max(b.cy + rng.uniform(-0.05, 0.05), 0.2), 0.8),
                0.3,
                0.3,
            )
            dets.append(det(i // 2, 0, float(rng.uniform(0.3, 1.0)), jit))
        s = evaluate_detections(dets, gt)
        values = [s.per_threshold[t] for t in sorted(s.per_threshold)]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_adding_correct_detection_never_lowers_ap(self):
        rng = np.random.default_rng(2)
        gt = [ann(i, i, 0, BoundingBox(0.5, 0.5, 0.3, 0.3)) for i in range(4)]
        dets = [det(0, 0, 0.9, gt[0].box), det(1, 0, 0.7, BoundingBox(0.1, 0.1, 0.1, 0.1))]
        base = evaluate_detections(dets, gt).ap
        more = dets + [det(2, 0, 0.5, gt[2].box)]
        assert evaluate_detections(more, gt).ap >= base - 1e-12

    def test_adding_lowest_score_zero_iou_fp_never_raises_ap(self):
        gt = [ann(1, 1, 0, BoundingBox(0.5, 0.5, 0.3, 0.3))]
        dets = [det(1, 0, 0.9, gt[0].box)]
        base = evaluate_detections(dets, gt).ap
        more = dets + [det(1, 0, 0.01, BoundingBox(0.05, 0.95, 0.05, 0.05))]
        assert evaluate_detections(more, gt).ap <= base + 1e-12

    def test_size_bands(self):
        # one small (20px) and one large (320px) object on a 640px image
        small = BoundingBox(0.2, 0.2, 0.03125, 0.03125)  # 20x20 px
        large = BoundingBox(0.6, 0.6, 0.5, 0.5)  # 320x320 px
        gt = [ann(1, 1, 0, small), ann(2, 1, 0, large)]
        sizes = {1: (640, 640)}
        dets = [det(1, 0, 0.9, small), det(1, 0, 0.8, large)]
        s = evaluate_detections(dets, gt, image_sizes=sizes)
        assert s.ap_s == 1.0
        assert s.ap_l == 1.0
        assert s.ap_m == 0.0  # no medium truth anywhere -> reported as 0


class TestBadInput:
    def test_missing_image_size_raises_with_ids(self):
        gt = [ann(1, 1, 0, BOX_A)]
        dets = [det(1, 0, 0.9, BOX_A), det(7, 0, 0.8, BOX_B), det(3, 0, 0.7, BOX_B)]
        with pytest.raises(ValueError, match=r"missing from image_sizes: \[3, 7\]"):
            evaluate_detections(dets, gt, image_sizes={1: (640, 640)})

    def test_no_sizes_warns_once_with_count_and_uses_640(self, caplog):
        gt = [ann(1, 1, 0, BOX_A), ann(2, 2, 0, BOX_B)]
        dets = [det(1, 0, 0.9, BOX_A), det(2, 0, 0.8, BOX_A), det(2, 0, 0.7, BOX_B)]
        with caplog.at_level(logging.WARNING, logger="iodkit.metrics"):
            nominal = evaluate_detections(dets, gt)
        assert [r.getMessage() for r in caplog.records] == [
            "no image_sizes: 3 detections sized on a nominal 640 px image"
        ]
        assert nominal == evaluate_detections(dets, gt, image_sizes={1: (640, 640), 2: (640, 640)})

    @pytest.mark.parametrize("score", [0.0, -0.5, 1.0 + 1e-12, float("nan"), float("inf")])
    def test_score_outside_unit_interval_raises(self, score):
        bad = det(1, 0, score, BOX_B)
        with pytest.raises(ValueError, match=r"1 detections have a score outside \(0, 1\].*indices \[1\]"):
            evaluate_detections([det(1, 0, 1.0, BOX_A), bad], [ann(1, 1, 0, BOX_A)], image_sizes={1: (640, 640)})

    def test_non_finite_box_raises(self):
        box = BoundingBox(0.5, 0.5, 0.2, 0.2)
        object.__setattr__(box, "w", float("nan"))  # BoundingBox itself rejects this
        bad = det(1, 0, 0.5, box)
        with pytest.raises(ValueError, match=r"non-finite box: indices \[0\]"):
            evaluate_detections([bad], [ann(1, 1, 0, BOX_A)], image_sizes={1: (640, 640)})


class TestDetectionsFromPredictions:
    def test_background_dropped_and_scores(self):
        probs = np.array(
            [
                [0.7, 0.1, 0.2],  # foreground cat 0, score 0.7
                [0.2, 0.3, 0.5],  # background argmax: dropped
                [0.1, 0.6, 0.3],  # foreground cat 1, score 0.6
            ]
        )
        boxes = np.tile(np.array([0.5, 0.5, 0.2, 0.2]), (3, 1))
        ls = LabeledSet(probs=probs, boxes=boxes, origins=np.full(3, Origin.PREDICTION, dtype=np.int8))
        dets = detections_from_predictions(ls, image_id=9)
        assert len(dets) == 2
        assert dets[0].category == 0 and abs(dets[0].score - 0.7) < 1e-12
        assert dets[1].category == 1 and abs(dets[1].score - 0.6) < 1e-12

    def test_cap(self):
        n = 30
        probs = np.tile(np.array([0.9, 0.05, 0.05]), (n, 1))
        probs += np.linspace(0, 0.01, n)[:, None] * np.array([1, -0.5, -0.5])
        probs /= probs.sum(axis=1, keepdims=True)
        boxes = np.tile(np.array([0.5, 0.5, 0.2, 0.2]), (n, 1))
        ls = LabeledSet(probs=probs, boxes=boxes, origins=np.full(n, Origin.PREDICTION, dtype=np.int8))
        dets = detections_from_predictions(ls, image_id=1, max_detections=10)
        assert len(dets) == 10


class TestFpp:
    def test_zero_when_equal(self):
        assert fpp(0.5, 0.5) == 0.0

    def test_sign(self):
        assert fpp(0.6, 0.2) > 0  # forgetting
        assert fpp(0.2, 0.6) < 0  # improvement

    def test_fraction_range_enforced(self):
        with pytest.raises(ValueError):
            fpp(42.6, 0.1)
