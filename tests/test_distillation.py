import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iodkit.distillation import PseudoConfig, build_distilled
from iodkit.geometry import BoundingBox, iou
from iodkit.labels import LabeledSet, Origin, one_hot, pad_to_n
from iodkit.metrics import detections_from_predictions


def preds_with(probs_rows, boxes):
    probs = np.asarray(probs_rows, dtype=np.float64)
    return LabeledSet(
        probs=probs,
        boxes=np.asarray(boxes, dtype=np.float64),
        origins=np.full(probs.shape[0], Origin.PREDICTION, dtype=np.int8),
    )


def random_preds(rng, n, c):
    probs = rng.dirichlet(np.ones(c + 1), size=n)
    boxes = np.column_stack(
        [
            rng.uniform(0.25, 0.75, size=n),
            rng.uniform(0.25, 0.75, size=n),
            rng.uniform(0.05, 0.5, size=n),
            rng.uniform(0.05, 0.5, size=n),
        ]
    )
    return preds_with(probs, boxes)


def random_gt(rng, n, c):
    n_fg = int(rng.integers(0, min(n, 4) + 1))
    items = []
    for _ in range(n_fg):
        b = BoundingBox(
            float(rng.uniform(0.3, 0.7)),
            float(rng.uniform(0.3, 0.7)),
            float(rng.uniform(0.05, 0.4)),
            float(rng.uniform(0.05, 0.4)),
        )
        items.append(one_hot(int(rng.integers(0, c)), b, c))
    return pad_to_n(items, n, n_categories=c)


BOX = [0.5, 0.5, 0.2, 0.2]


def distil(old, k, gt=None, ceiling=0.7):
    """``build_distilled`` of ``old`` with ``k`` and ``ceiling``, beside no ground truth unless given."""
    gt = pad_to_n([], len(old), old.n_categories) if gt is None else gt
    return build_distilled(gt, old, PseudoConfig(k=k, overlap_ceiling=ceiling))


def kept_as_pseudo(out, old, slots):
    """Whether the pseudo slots of ``out`` are the old slots ``slots``, unchanged and in that order."""
    pseudo = out.origins == Origin.PSEUDO
    return np.array_equal(out.probs[pseudo], old.probs[slots]) and np.array_equal(out.boxes[pseudo], old.boxes[slots])


class TestForegroundIndices:
    """With k >= N and no ground truth, ``build_distilled`` keeps exactly the foreground slots."""

    def test_all_background(self):
        p = preds_with([[0.1, 0.2, 0.7], [0.0, 0.3, 0.7]], [BOX, BOX])
        assert kept_as_pseudo(distil(p, 2), p, [])

    def test_clear_foreground(self):
        p = preds_with([[0.6, 0.1, 0.3]], [BOX])
        assert kept_as_pseudo(distil(p, 1), p, [0])

    def test_background_strict_max_excluded(self):
        p = preds_with([[0.3, 0.3, 0.4]], [BOX])
        assert kept_as_pseudo(distil(p, 1), p, [])


def topk_oracle(old, k):
    """Enumerate the foreground slots in (-confidence, index) order and keep the first k."""
    c = old.n_categories
    fg = [j for j in range(len(old)) if np.argmax(old.probs[j]) != c]
    return sorted(sorted(fg, key=lambda j: (-old.probs[j, :c].max(), j))[:k])


class TestSelectConfident:
    """Without ground truth, the pseudo slots are the k most confident foreground slots."""

    def make(self, confs):
        rows = [[c, 0.0, 1.0 - c] for c in confs]
        return preds_with(rows, [BOX] * len(confs))

    def test_topk_takes_largest(self):
        p = self.make([0.9, 0.8, 0.6])
        out = distil(p, 2)
        assert kept_as_pseudo(out, p, [0, 1])
        assert kept_as_pseudo(out, p, topk_oracle(p, 2))

    def test_topk_tie_prefers_lower_index(self):
        p = self.make([0.8, 0.9, 0.8])
        assert kept_as_pseudo(distil(p, 2), p, [0, 1])  # slots [1, 2] would come out as (0.9, 0.8)

    def test_topk_more_than_available(self):
        p = self.make([0.9, 0.8])
        assert kept_as_pseudo(distil(p, 10), p, [0, 1])

    def test_zero_keeps_nothing(self):
        p = self.make([0.9, 0.8])
        assert kept_as_pseudo(distil(p, 0), p, [])

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError, match="k must be >= 0"):
            PseudoConfig(k=-1)
        with pytest.raises(ValueError, match="k must be >= 0"):
            dataclasses.replace(PseudoConfig(), k=-1)

    @pytest.mark.parametrize("ceiling", [-0.1, 1.5, float("nan")])
    def test_overlap_ceiling_outside_unit_interval_rejected(self, ceiling):
        with pytest.raises(ValueError, match=r"overlap ceiling must be in \[0, 1\]"):
            PseudoConfig(overlap_ceiling=ceiling)

    @pytest.mark.parametrize("k", [2.5, 3.0, True, False, np.True_, "3", None])
    def test_k_that_is_not_an_integer_rejected(self, k):
        # 2.5 would fail later as a slice bound, and True would keep one slot
        with pytest.raises(ValueError, match=f"k must be an integer, got {k!r}"):
            PseudoConfig(k=k)

    def test_numpy_integer_k_accepted(self):
        p = self.make([0.9, 0.8, 0.7])
        assert kept_as_pseudo(distil(p, np.int64(2)), p, [0, 1])


class TestSuppressOverlap:
    """A kept slot is dropped when its IoU with a truth box is above the ceiling."""

    def test_empty_gt_keeps_all(self):
        rng = np.random.default_rng(0)
        p = random_preds(rng, 5, 3)
        assert kept_as_pseudo(distil(p, 5), p, topk_oracle(p, 5))

    def one_truth_one_prediction(self, pred_box, gt_box):
        # a background second slot leaves room for the prediction beside the truth
        p = preds_with([[0.9, 0.0, 0.1], [0.0, 0.0, 1.0]], [pred_box.to_array(), [0.0] * 4])
        gt = pad_to_n([one_hot(0, gt_box, 2)], 2, 2)
        assert kept_as_pseudo(distil(p, 1, gt, ceiling=1.0), p, [0])
        return p, gt

    def test_high_overlap_dropped(self):
        gt_box = BoundingBox(0.5, 0.5, 0.4, 0.4)
        pred_box = BoundingBox(0.52, 0.5, 0.4, 0.4)
        assert iou(pred_box.to_array(), gt_box.to_array()).item() > 0.7
        p, gt = self.one_truth_one_prediction(pred_box, gt_box)
        assert kept_as_pseudo(distil(p, 1, gt, ceiling=0.7), p, [])

    def test_boundary_inclusive(self):
        # ceiling equal to the actual IoU keeps the prediction
        gt_box = BoundingBox(0.5, 0.5, 0.4, 0.4)
        pred_box = BoundingBox(0.6, 0.5, 0.4, 0.4)
        ceiling = iou(pred_box.to_array(), gt_box.to_array()).item()
        p, gt = self.one_truth_one_prediction(pred_box, gt_box)
        assert kept_as_pseudo(distil(p, 1, gt, ceiling), p, [0])
        assert kept_as_pseudo(distil(p, 1, gt, ceiling - 1e-9), p, [])


class TestBuildDistilled:
    def test_all_background_old_preds(self):
        rng = np.random.default_rng(1)
        gt = random_gt(rng, 6, 3)
        old = preds_with(
            np.tile(np.array([0.1, 0.1, 0.1, 0.7]), (6, 1)),
            np.tile(np.array(BOX), (6, 1)),
        )
        out = build_distilled(gt, old, PseudoConfig())
        n_fg = int(gt.foreground_mask().sum())
        assert np.array_equal(out.probs[:n_fg], gt.probs[gt.foreground_mask()])
        assert all(out.origins[n_fg:] == Origin.BACKGROUND)

    def test_hand_traced_fixture(self):
        # 2 ground truth boxes + 3 confident old predictions; the middle
        # prediction overlaps a truth box too much and must be dropped,
        # and top-2 selection removes the weakest one.
        c = 3
        gt1 = one_hot(0, BoundingBox(0.3, 0.3, 0.2, 0.2), c)
        gt2 = one_hot(1, BoundingBox(0.7, 0.7, 0.2, 0.2), c)
        gt = pad_to_n([gt1, gt2], 6, c)

        overlap_box = BoundingBox(0.7, 0.72, 0.2, 0.2)  # IoU with gt2 well above 0.7
        assert iou(overlap_box.to_array(), gt2.boxes).item() > 0.7
        old = preds_with(
            [
                [0.9, 0.05, 0.0, 0.05],   # conf 0.9, clear of truth
                [0.0, 0.8, 0.1, 0.1],     # conf 0.8, overlapping gt2
                [0.6, 0.1, 0.1, 0.2],     # conf 0.6, clear but below top-2
                [0.0, 0.0, 0.1, 0.9],     # background
                [0.1, 0.1, 0.1, 0.7],     # background
                [0.2, 0.2, 0.1, 0.5],     # background... argmax is 0/1 tie -> index 0 foreground conf 0.2
            ],
            [
                BoundingBox(0.15, 0.8, 0.2, 0.2).to_array(),
                overlap_box.to_array(),
                BoundingBox(0.85, 0.2, 0.2, 0.2).to_array(),
                np.array(BOX),
                np.array(BOX),
                np.array(BOX),
            ],
        )
        cfg = PseudoConfig(k=2, overlap_ceiling=0.7)
        out = build_distilled(gt, old, cfg)

        # independent straight-line re-implementation of the pipeline
        probs = old.probs
        fg = [j for j in range(6) if np.argmax(probs[j]) != c]
        conf = {j: probs[j, :c].max() for j in fg}
        topk = sorted(sorted(fg, key=lambda j: (-conf[j], j))[:2])
        gt_boxes = np.concatenate([gt1.boxes, gt2.boxes])
        q = [j for j in topk if (iou(old.boxes[j], gt_boxes) <= 0.7).all()]
        assert q == [0]

        assert out.origins.tolist() == [
            Origin.GROUND_TRUTH,
            Origin.GROUND_TRUTH,
            Origin.PSEUDO,
            Origin.BACKGROUND,
            Origin.BACKGROUND,
            Origin.BACKGROUND,
        ]
        assert np.array_equal(out.probs[0], gt.probs[0])
        assert np.array_equal(out.probs[1], gt.probs[1])
        assert np.array_equal(out.probs[2], old.probs[0])  # soft, not hardened
        assert np.array_equal(out.boxes[2], old.boxes[0])

    def test_defaults(self):
        cfg = PseudoConfig()
        assert [f.name for f in dataclasses.fields(cfg)] == ["k", "overlap_ceiling"]
        assert cfg.k == 10
        assert cfg.overlap_ceiling == 0.7

    def test_truncation_prefers_ground_truth_and_confidence(self):
        c = 5
        n = 4
        items = [
            one_hot(0, BoundingBox(0.2, 0.2, 0.1, 0.1), c),
            one_hot(1, BoundingBox(0.8, 0.8, 0.1, 0.1), c),
        ]
        gt = pad_to_n(items, n, c)
        old_rows = []
        old_boxes = []
        for i, conf in enumerate([0.6, 0.9, 0.7]):
            row = np.zeros(c + 1)
            row[2 + i] = conf
            row[c] = 1 - conf
            old_rows.append(row)
            old_boxes.append([0.3 + 0.2 * i, 0.5, 0.05, 0.05])
        old_rows.append(np.eye(c + 1)[c])
        old_boxes.append([0.5, 0.5, 0.0, 0.0])
        old = preds_with(old_rows, old_boxes)

        out = build_distilled(gt, old, PseudoConfig(k=3, overlap_ceiling=0.7))
        assert len(out) == n
        # 2 gt + room for 2 pseudos: conf 0.9 and 0.7 survive, 0.6 dropped
        assert out.origins.tolist() == [0, 0, 1, 1]
        assert np.array_equal(out.probs[2], old.probs[1])
        assert np.array_equal(out.probs[3], old.probs[2])

    def test_mismatched_shapes_rejected(self):
        gt = pad_to_n([], 4, n_categories=2)
        rng = np.random.default_rng(2)
        old = random_preds(rng, 5, 2)
        with pytest.raises(ValueError):
            build_distilled(gt, old, PseudoConfig())


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_property_distillation_invariants(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 12))
    c = int(rng.integers(1, 5))
    gt = random_gt(rng, n, c)
    old = random_preds(rng, n, c)
    if rng.random() < 0.5:  # a score tie between two slots
        old.probs[int(rng.integers(n))] = old.probs[int(rng.integers(n))]
    cfg = PseudoConfig(k=int(rng.integers(0, n + 2)), overlap_ceiling=float(rng.uniform(0.0, 1.0)))

    out = build_distilled(gt, old, cfg)
    assert len(out) == n

    # the pseudo slots are among the first k of the (-confidence, index) order, in slot order
    kept = [int(np.flatnonzero((old.boxes == b).all(axis=1))[0]) for b in out.boxes[out.origins == Origin.PSEUDO]]
    assert set(kept) <= set(topk_oracle(old, cfg.k))
    assert kept == sorted(kept)

    gt_idx = np.flatnonzero(gt.foreground_mask())
    # ground truth first and unmodified
    assert np.array_equal(out.probs[: gt_idx.size], gt.probs[gt_idx])
    assert np.array_equal(out.boxes[: gt_idx.size], gt.boxes[gt_idx])

    # pseudo slots are foreground and respect the overlap ceiling
    gt_fg_boxes = gt.boxes[gt_idx]
    for i in np.flatnonzero(out.origins == Origin.PSEUDO):
        assert np.argmax(out.probs[i]) != c
        if gt_idx.size:
            assert np.all(iou(out.boxes[i], gt_fg_boxes) <= cfg.overlap_ceiling + 1e-12)

    # origin layout: gt block, pseudo block, background block
    kinds = out.origins.tolist()
    gt_count = kinds.count(Origin.GROUND_TRUTH)
    ps_count = kinds.count(Origin.PSEUDO)
    assert kinds == [Origin.GROUND_TRUTH] * gt_count + [Origin.PSEUDO] * ps_count + [Origin.BACKGROUND] * (
        n - gt_count - ps_count
    )

    # determinism
    out2 = build_distilled(gt, old, cfg)
    assert np.array_equal(out.probs, out2.probs)
    assert np.array_equal(out.boxes, out2.boxes)
    assert np.array_equal(out.origins, out2.origins)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_pseudo_slots_are_the_first_detections(seed):
    """Beside no truth and with ceiling 1, DKD keeps the first k detections of post-processing, in slot order."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 30))
    c = int(rng.integers(1, 5))
    old = random_preds(rng, n, c)
    if rng.random() < 0.5:  # a score tie between two slots
        old.probs[int(rng.integers(n))] = old.probs[int(rng.integers(n))]
    k = int(rng.integers(1, n + 2))

    out = distil(old, k, ceiling=1.0)
    dets = detections_from_predictions(old, image_id=0)[:k]
    slot = {tuple(b): j for j, b in enumerate(old.boxes.tolist())}
    boxes_and_scores = [((d.box.cx, d.box.cy, d.box.w, d.box.h), d.score) for d in dets]
    want = sorted(boxes_and_scores, key=lambda pair: slot[pair[0]])
    pseudo = np.flatnonzero(out.origins == Origin.PSEUDO)
    assert [(tuple(out.boxes[i].tolist()), float(out.probs[i, :c].max())) for i in pseudo] == want
