import dataclasses
import logging
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from eval_oracle import per_slot_detections
from iodkit.geometry import BoundingBox, iou
from iodkit.ingestion import Annotation
from iodkit.labels import LabeledSet, Origin
from iodkit.metrics import (
    IOU_THRESHOLDS,
    MAX_DETECTIONS_PER_IMAGE,
    RECALL_POINTS,
    Detection,
    _ap_rows,
    _band_mean,
    _trusted_instances,
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
SIZES = dict.fromkeys(range(6), (640, 640))  # the 640 px images that ``ann`` sizes its truths on


class TestAveragePrecision:
    def test_perfect_detections(self):
        gt = [ann(1, 1, 0, BOX_A), ann(2, 1, 1, BOX_B), ann(3, 2, 0, BOX_B)]
        dets = [det(a.image_id, a.category, 1.0, a.box) for a in gt]
        s = evaluate_detections(dets, gt, [0, 1], image_sizes=SIZES)
        assert s.ap == 1.0
        assert s.ap50 == 1.0
        assert s.ap75 == 1.0

    def test_no_detections(self):
        gt = [ann(1, 1, 0, BOX_A)]
        s = evaluate_detections([], gt, [0], image_sizes=SIZES)
        assert s.ap == 0.0

    def test_tp_then_fp_keeps_full_ap_at_50(self):
        # 1 truth; a good match at score .9 then a false positive at .8:
        # recall hits 1.0 at precision 1.0 before the FP arrives
        gt = [ann(1, 1, 0, BoundingBox(0.5, 0.5, 0.4, 0.4))]
        tp_box = BoundingBox(0.5, 0.52, 0.4, 0.4)
        assert iou(tp_box.to_array(), gt[0].box.to_array()).item() > 0.8
        dets = [
            det(1, 0, 0.9, tp_box),
            det(1, 0, 0.8, BoundingBox(0.1, 0.9, 0.1, 0.1)),
        ]
        s = evaluate_detections(dets, gt, [0], image_sizes=SIZES)
        assert s.ap50 == 1.0
        oracle = pr_oracle([(0.9, 1), (0.8, 0)], n_gt=1)
        assert abs(s.ap50 - oracle) < 1e-12

    def test_fp_before_tp_lowers_ap(self):
        gt = [ann(1, 1, 0, BoundingBox(0.5, 0.5, 0.4, 0.4))]
        dets = [
            det(1, 0, 0.95, BoundingBox(0.1, 0.9, 0.1, 0.1)),  # FP first
            det(1, 0, 0.8, BoundingBox(0.5, 0.5, 0.4, 0.4)),  # exact TP
        ]
        s = evaluate_detections(dets, gt, [0], image_sizes=SIZES)
        oracle = pr_oracle([(0.95, 0), (0.8, 1)], n_gt=1)
        assert abs(s.ap50 - oracle) < 1e-12
        assert s.ap50 < 1.0

    def test_empty_category_skipped(self):
        gt = [ann(1, 1, 0, BOX_A)]
        dets = [det(1, 0, 1.0, BOX_A), det(1, 5, 0.9, BOX_B)]
        s = evaluate_detections(dets, gt, categories=[0, 5], image_sizes=SIZES)
        assert s.ap == 1.0  # category 5 has no truth and is skipped

    def test_rank_invariance(self):
        rng = np.random.default_rng(0)
        gt = [ann(i, i % 3, int(rng.integers(0, 2)), BoundingBox(0.5, 0.5, 0.3, 0.3)) for i in range(6)]
        dets = []
        for i, a in enumerate(gt):
            good = rng.random() < 0.7
            box = a.box if good else BoundingBox(0.05, 0.05, 0.1, 0.1)
            dets.append(det(a.image_id, a.category, 0.2 + 0.1 * i, box))
        s1 = evaluate_detections(dets, gt, [0, 1], image_sizes=SIZES)
        squashed = [det(d.image_id, d.category, d.score**3, d.box) for d in dets]
        s2 = evaluate_detections(squashed, gt, [0, 1], image_sizes=SIZES)
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
        s = evaluate_detections(dets, gt, [0], image_sizes=SIZES)
        # AP does not rise with the IoU threshold: AP50 bounds AP75 and the mean over 0.50:0.95
        assert s.ap50 >= s.ap75 - 1e-12 and s.ap50 >= s.ap - 1e-12

    def test_adding_correct_detection_never_lowers_ap(self):
        rng = np.random.default_rng(2)
        gt = [ann(i, i, 0, BoundingBox(0.5, 0.5, 0.3, 0.3)) for i in range(4)]
        dets = [det(0, 0, 0.9, gt[0].box), det(1, 0, 0.7, BoundingBox(0.1, 0.1, 0.1, 0.1))]
        base = evaluate_detections(dets, gt, [0], image_sizes=SIZES).ap
        more = dets + [det(2, 0, 0.5, gt[2].box)]
        assert evaluate_detections(more, gt, [0], image_sizes=SIZES).ap >= base - 1e-12

    def test_adding_lowest_score_zero_iou_fp_never_raises_ap(self):
        gt = [ann(1, 1, 0, BoundingBox(0.5, 0.5, 0.3, 0.3))]
        dets = [det(1, 0, 0.9, gt[0].box)]
        base = evaluate_detections(dets, gt, [0], image_sizes=SIZES).ap
        more = dets + [det(1, 0, 0.01, BoundingBox(0.05, 0.95, 0.05, 0.05))]
        assert evaluate_detections(more, gt, [0], image_sizes=SIZES).ap <= base + 1e-12

    def test_size_bands(self):
        # one small (20px) and one large (320px) object on a 640px image
        small = BoundingBox(0.2, 0.2, 0.03125, 0.03125)  # 20x20 px
        large = BoundingBox(0.6, 0.6, 0.5, 0.5)  # 320x320 px
        gt = [ann(1, 1, 0, small), ann(2, 1, 0, large)]
        sizes = {1: (640, 640)}
        dets = [det(1, 0, 0.9, small), det(1, 0, 0.8, large)]
        s = evaluate_detections(dets, gt, [0], image_sizes=sizes)
        assert s.ap_s == 1.0
        assert s.ap_l == 1.0
        assert s.ap_m == 0.0  # no medium truth anywhere -> reported as 0


class TestBadInput:
    def test_missing_image_size_raises_with_ids(self):
        gt = [ann(1, 1, 0, BOX_A)]
        dets = [det(1, 0, 0.9, BOX_A), det(7, 0, 0.8, BOX_B), det(3, 0, 0.7, BOX_B)]
        with pytest.raises(ValueError, match=r"missing from image_sizes: \[3, 7\]"):
            evaluate_detections(dets, gt, [0], image_sizes={1: (640, 640)})

    def test_no_sizes_warns_once_with_count_and_uses_640(self, caplog):
        gt = [ann(1, 1, 0, BOX_A), ann(2, 2, 0, BOX_B)]
        dets = [det(1, 0, 0.9, BOX_A), det(2, 0, 0.8, BOX_A), det(2, 0, 0.7, BOX_B)]
        with caplog.at_level(logging.WARNING, logger="iodkit.metrics"):
            nominal = evaluate_detections(dets, gt, [0])
        assert [r.getMessage() for r in caplog.records] == [
            "no image_sizes: 3 detections sized on a nominal 640 px image"
        ]
        assert nominal == evaluate_detections(dets, gt, [0], image_sizes={1: (640, 640), 2: (640, 640)})

    @pytest.mark.parametrize("score", [0.0, -0.5, 1.0 + 1e-12, float("nan"), float("inf")])
    def test_score_outside_unit_interval_raises(self, score):
        bad = det(1, 0, score, BOX_B)
        with pytest.raises(ValueError, match=r"1 detections have a score outside \(0, 1\].*indices \[1\]"):
            evaluate_detections([det(1, 0, 1.0, BOX_A), bad], [ann(1, 1, 0, BOX_A)], [0], image_sizes={1: (640, 640)})

    def test_non_finite_box_raises(self):
        box = BoundingBox(0.5, 0.5, 0.2, 0.2)
        object.__setattr__(box, "w", float("nan"))  # BoundingBox itself rejects this
        bad = det(1, 0, 0.5, box)
        with pytest.raises(ValueError, match=r"non-finite box: indices \[0\]"):
            evaluate_detections([bad], [ann(1, 1, 0, BOX_A)], [0], image_sizes={1: (640, 640)})


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
        # 130 foreground slots, scores rising with the slot: the 100 highest are kept, highest first
        n = 130
        probs = np.tile(np.array([0.9, 0.05, 0.05]), (n, 1))
        probs += np.linspace(0, 0.01, n)[:, None] * np.array([1, -0.5, -0.5])
        probs /= probs.sum(axis=1, keepdims=True)
        boxes = np.column_stack([np.linspace(0.1, 0.9, n), np.full((n, 3), 0.2)])
        ls = LabeledSet(probs=probs, boxes=boxes, origins=np.full(n, Origin.PREDICTION, dtype=np.int8))
        dets = detections_from_predictions(ls, image_id=1)
        assert len(dets) == MAX_DETECTIONS_PER_IMAGE == 100
        assert [d.box.cx for d in dets] == boxes[: n - 101 : -1, 0].tolist()
        assert dets == per_slot_detections(ls, 1, 100)

    def test_invalid_box_ranked_past_the_cap_does_not_raise(self):
        # 101 foreground slots; the least confident one, ranked 101st, carries a NaN box
        n = 101
        probs = np.column_stack([np.linspace(0.9, 0.5, n), np.linspace(0.05, 0.25, n), np.linspace(0.05, 0.25, n)])
        boxes = np.tile([0.5, 0.5, 0.2, 0.2], (n, 1))
        boxes[-1, 2] = np.nan
        ls = LabeledSet(probs=probs, boxes=boxes, origins=np.full(n, Origin.PREDICTION, dtype=np.int8))
        dets = detections_from_predictions(ls, image_id=1)
        assert len(dets) == 100
        assert dets == per_slot_detections(ls, 1, 100)

    @pytest.mark.parametrize("seed", range(20))
    def test_equals_per_slot_construction(self, seed):
        rng = np.random.default_rng(seed)
        ls = prediction_set(rng, int(rng.integers(1, 40)) if seed % 2 else int(rng.integers(100, 200)))
        new = detections_from_predictions(ls, image_id=seed)
        assert new == per_slot_detections(ls, seed, 100)
        assert all(type(d.category) is int and type(d.score) is float for d in new)
        assert all(type(v) is float for d in new for v in (d.box.cx, d.box.cy, d.box.w, d.box.h))

    def test_score_ties_go_to_the_lower_slot(self):
        # 120 slots that all score 0.5 on category 1: the first 100 slots are kept, in slot order
        probs = np.tile([0.25, 0.5, 0.25], (120, 1))
        boxes = np.column_stack([np.linspace(0.1, 0.6, 120), np.full((120, 3), 0.2)])
        ls = LabeledSet(probs=probs, boxes=boxes, origins=np.full(120, Origin.PREDICTION, dtype=np.int8))
        dets = detections_from_predictions(ls, image_id=0)
        assert [d.box.cx for d in dets] == boxes[:100, 0].tolist()
        assert dets == per_slot_detections(ls, 0, 100)

    def test_no_foreground_slot(self):
        probs = np.tile([0.2, 0.3, 0.5], (4, 1))
        ls = LabeledSet(probs=probs, boxes=np.zeros((4, 4)), origins=np.full(4, Origin.PREDICTION, dtype=np.int8))
        assert detections_from_predictions(ls, image_id=0) == per_slot_detections(ls, 0, 100) == []

    def test_nan_box_in_kept_slot_named(self):
        ls = prediction_set(np.random.default_rng(5), 10)
        kept = np.flatnonzero(ls.foreground_mask())[0]
        ls.boxes[kept, 2] = np.nan
        with pytest.raises(ValueError, match="box field w is not finite"):
            detections_from_predictions(ls, image_id=0)


class TestTrustedConstructors:
    """``_trusted_instances`` gives the objects the public constructors give."""

    FIELDS = [(0.5, 0.25, 0.125, 1.0), (0.0, -0.0, 1.0, 0.3), (0.1, 0.2, 0.3, 0.4)]

    def pairs(self):
        n = len(self.FIELDS)
        ks = list(range(n))
        boxes = _trusted_instances(BoundingBox, n, *zip(*self.FIELDS))
        trusted = _trusted_instances(Detection, n, ks, [k + 1 for k in ks], [0.5 + k / 10 for k in ks], boxes)
        for k, fields in enumerate(self.FIELDS):
            yield Detection(k, k + 1, 0.5 + k / 10, BoundingBox(*fields)), trusted[k]

    def test_one_column_per_field(self):
        assert _trusted_instances(BoundingBox, 0, [], [], [], []) == []
        with pytest.raises(ValueError):
            _trusted_instances(BoundingBox, 1, [0.5], [0.5], [0.5])

    def test_equal_hash_and_repr(self):
        for public, trusted in self.pairs():
            assert trusted == public and trusted.box == public.box
            assert hash(trusted) == hash(public) and hash(trusted.box) == hash(public.box)
            assert repr(trusted) == repr(public)

    def test_frozen(self):
        for _, trusted in self.pairs():
            with pytest.raises(dataclasses.FrozenInstanceError):
                trusted.score = 0.1
            with pytest.raises(dataclasses.FrozenInstanceError):
                trusted.box.cx = 0.1

    def test_replace_builds_through_the_public_constructor(self):
        for public, trusted in self.pairs():
            assert dataclasses.replace(trusted, score=0.9) == dataclasses.replace(public, score=0.9)
            assert dataclasses.replace(trusted.box, w=0.5) == BoundingBox(public.box.cx, public.box.cy, 0.5, public.box.h)
            with pytest.raises(ValueError, match="box field w=2.0 outside"):
                dataclasses.replace(trusted.box, w=2.0)

    def test_no_instance_dict(self):
        for public, trusted in self.pairs():
            for obj in (public, trusted, public.box, trusted.box):
                assert not hasattr(obj, "__dict__")
        assert "__dict__" not in vars(BoundingBox) and "__dict__" not in vars(Detection)

    def test_pickle_round_trip(self):
        for public, trusted in self.pairs():
            back = pickle.loads(pickle.dumps(trusted))
            assert back == trusted == public and repr(back) == repr(public)


def prediction_set(rng, n, n_categories=3):
    """Slots with probabilities on a coarse grid, so that scores tie across slots."""
    weights = rng.integers(1, 5, size=(n, n_categories + 1)).astype(np.float64)
    weights[rng.random(n) < 0.3, -1] = 9.0  # some background slots
    probs = weights / weights.sum(axis=1, keepdims=True)
    wh = rng.uniform(0.05, 0.5, size=(n, 2))
    centres = rng.uniform(wh / 2, 1 - wh / 2)
    return LabeledSet(probs=probs, boxes=np.hstack([centres, wh]), origins=np.full(n, Origin.PREDICTION, dtype=np.int8))


def per_row_search_ap(status, n_pos):
    """The per-row recall search ``_ap_rows`` replaced, on one row of ranked statuses."""
    if status.size == 0:
        return 0.0
    tp_c = np.cumsum(status == TP, dtype=np.float64)
    fp_c = np.cumsum(status == FP, dtype=np.float64)
    precision = tp_c / np.maximum(tp_c + fp_c, 1e-12)
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    idx = np.searchsorted(tp_c / n_pos, np.linspace(0.0, 1.0, RECALL_POINTS), side="left")
    return np.where(idx < status.size, envelope[np.minimum(idx, status.size - 1)], 0.0).mean()


DROPPED, TP, FP = 0, 1, 2


@pytest.mark.parametrize("seed", range(10))
def test_ap_rows_equals_per_row_search(seed):
    # random statuses of each (band, category, threshold) row, with at most n_pos TPs a row,
    # given to _ap_rows as the matches and area masks that yield them, in shuffled order
    rng = np.random.default_rng(seed)
    n_thr = len(IOU_THRESHOLDS)
    for _ in range(10):
        n_bands, n_cat = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        segments = np.r_[0, np.cumsum(rng.integers(0, 60, size=n_cat))]
        n_pos = rng.integers(0, 30, size=(n_bands, n_cat))
        inside = rng.random((n_bands, segments[-1])) < 0.8
        status = rng.choice([DROPPED, TP, FP], size=(n_bands, n_thr, segments[-1]), p=rng.dirichlet([1, 1, 1]))
        status[(status == FP) & ~inside[:, None]] = DROPPED  # unmatched outside the band: dropped
        expected = np.zeros((n_bands, n_cat, n_thr))
        for b, ci, t in np.ndindex(expected.shape):
            row = status[b, t, segments[ci] : segments[ci + 1]]
            row[np.flatnonzero(row == TP)[n_pos[b, ci] :]] = DROPPED
            if n_pos[b, ci]:
                expected[b, ci, t] = per_row_search_ap(row, n_pos[b, ci])
        # a TP is a match to a real truth; a dropped detection inside the band is a match to an
        # ignored truth, and one outside the band may be either that or unmatched
        taken = (status == TP) | ((status == DROPPED) & (inside[:, None] | (rng.random(status.shape) < 0.5)))
        b, t, pos = np.nonzero(taken)
        matches = rng.permutation(np.stack([b, t, pos, status[b, t, pos] == TP]), axis=1)
        assert _ap_rows(matches, inside, segments, n_pos).tobytes() == expected.tobytes()


def scalar_band_mean(aps, scored, categories, thresholds):
    """The per-category ``np.mean`` form ``_band_mean`` replaced."""
    per_cat = {c: float(np.mean(aps[ci, thresholds])) for ci, c in enumerate(categories) if scored[ci]}
    return (float(np.mean(list(per_cat.values()))) if per_cat else 0.0), per_cat


@settings(max_examples=300, deadline=None)
@given(
    hnp.arrays(np.float64, st.tuples(st.integers(1, 40), st.just(10)), elements=st.floats(0.0, 1.0)),
    st.data(),
)
def test_band_mean_equals_scalar_means(aps, data):
    n_cat = aps.shape[0]
    scored = np.array(data.draw(st.lists(st.booleans(), min_size=n_cat, max_size=n_cat)))
    categories = data.draw(st.lists(st.integers(0, 10**6), min_size=n_cat, max_size=n_cat, unique=True))
    for thresholds in [slice(None)] + [slice(t, t + 1) for t in range(10)]:
        ap, per_cat = _band_mean(aps, scored, categories, thresholds)
        old_ap, old_per_cat = scalar_band_mean(aps, scored, categories, thresholds)
        assert ap.hex() == old_ap.hex()
        assert list(per_cat) == list(old_per_cat)
        assert [v.hex() for v in per_cat.values()] == [v.hex() for v in old_per_cat.values()]


class TestFpp:
    def test_zero_when_equal(self):
        assert fpp(0.5, 0.5) == 0.0

    def test_sign(self):
        assert fpp(0.6, 0.2) > 0  # forgetting
        assert fpp(0.2, 0.6) < 0  # improvement

    def test_fraction_range_enforced(self):
        with pytest.raises(ValueError):
            fpp(42.6, 0.1)
