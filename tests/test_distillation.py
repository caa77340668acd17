import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iodkit.distillation import (
    PseudoConfig,
    build_distilled,
    confidences,
    foreground_indices,
    select_confident,
    suppress_overlap,
)
from iodkit.geometry import BoundingBox, iou_matrix
from iodkit.labels import LabeledSet, Origin, one_hot, pad_to_n


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


class TestForegroundIndices:
    def test_all_background(self):
        p = preds_with([[0.1, 0.2, 0.7], [0.0, 0.3, 0.7]], [BOX, BOX])
        assert foreground_indices(p).size == 0

    def test_clear_foreground(self):
        p = preds_with([[0.6, 0.1, 0.3]], [BOX])
        assert foreground_indices(p).tolist() == [0]

    def test_background_strict_max_excluded(self):
        p = preds_with([[0.3, 0.3, 0.4]], [BOX])
        assert foreground_indices(p).size == 0


class TestSelectConfident:
    def make(self, confs):
        rows = [[c, 0.0, 1.0 - c] for c in confs]
        return preds_with(rows, [BOX] * len(confs))

    def test_topk_takes_largest(self):
        p = self.make([0.9, 0.8, 0.6])
        fg = foreground_indices(p)
        out = select_confident(fg, p, PseudoConfig(strategy="topk", k=2))
        assert out.tolist() == [0, 1]
        # enumeration oracle over the definition
        conf = confidences(p, fg)
        expect = sorted(sorted(fg.tolist(), key=lambda j: (-conf[list(fg).index(j)], j))[:2])
        assert out.tolist() == expect

    def test_topk_tie_prefers_lower_index(self):
        p = self.make([0.8, 0.9, 0.8])
        out = select_confident(foreground_indices(p), p, PseudoConfig(strategy="topk", k=2))
        assert out.tolist() == [0, 1]

    def test_topk_more_than_available(self):
        p = self.make([0.9, 0.8])
        out = select_confident(foreground_indices(p), p, PseudoConfig(strategy="topk", k=10))
        assert out.tolist() == [0, 1]

    def test_threshold(self):
        p = self.make([0.9, 0.4])
        fg = foreground_indices(p)
        out = select_confident(fg, p, PseudoConfig(strategy="threshold", p=0.5))
        assert out.tolist() == [0]

    def test_threshold_inclusive(self):
        p = self.make([0.5, 0.4])
        out = select_confident(foreground_indices(p), p, PseudoConfig(strategy="threshold", p=0.5))
        assert out.tolist() == [0]

    def test_curriculum_endpoints(self):
        # both rows foreground, confidences 0.45 and 0.25
        p = preds_with(
            [[0.45, 0.1, 0.1, 0.1, 0.25], [0.25, 0.2, 0.2, 0.2, 0.15]],
            [BOX, BOX],
        )
        fg = foreground_indices(p)
        assert fg.tolist() == [0, 1]
        cfg = PseudoConfig(strategy="curriculum", p_start=0.5, p_end=0.1)
        at_start = select_confident(fg, p, cfg, epoch_fraction=0.0)
        assert at_start.tolist() == []
        at_end = select_confident(fg, p, cfg, epoch_fraction=1.0)
        assert at_end.tolist() == [0, 1]
        mid = select_confident(fg, p, cfg, epoch_fraction=0.5)
        assert mid.tolist() == [0]  # threshold 0.3

    @pytest.mark.parametrize("fraction", [-1.0, -1e-9, 1.0 + 1e-9, 2.0, float("nan")])
    def test_epoch_fraction_outside_unit_interval_rejected(self, fraction):
        cfg = PseudoConfig(strategy="curriculum", p_start=0.5, p_end=0.1)
        with pytest.raises(ValueError, match="epoch fraction"):
            cfg.threshold_at(fraction)

    @pytest.mark.parametrize("strategy", ["topk", "threshold", "curriculum"])
    @pytest.mark.parametrize("fraction", [-0.5, 1.0 + 1e-9, 5.0])
    def test_every_strategy_rejects_epoch_fraction_outside_unit_interval(self, strategy, fraction):
        p = self.make([0.9, 0.4])
        cfg = PseudoConfig(strategy=strategy, k=1)
        with pytest.raises(ValueError, match="epoch fraction"):
            select_confident(foreground_indices(p), p, cfg, epoch_fraction=fraction)


class TestSuppressOverlap:
    def test_empty_gt_keeps_all(self):
        rng = np.random.default_rng(0)
        p = random_preds(rng, 5, 3)
        gt = pad_to_n([], 5, n_categories=3)
        sel = np.arange(5)
        assert suppress_overlap(sel, p, gt, 0.7).tolist() == sel.tolist()

    def test_high_overlap_dropped(self):
        gt_box = BoundingBox(0.5, 0.5, 0.4, 0.4)
        pred_box = BoundingBox(0.52, 0.5, 0.4, 0.4)
        assert iou_matrix(pred_box.to_array()[None], gt_box.to_array()[None]).item() > 0.7
        p = preds_with([[0.9, 0.0, 0.1]], [pred_box.to_array()])
        gt = pad_to_n([one_hot(0, gt_box, 2)], 1)
        assert suppress_overlap(np.array([0]), p, gt, 0.7).size == 0

    def test_boundary_inclusive(self):
        # ceiling equal to the actual IoU keeps the prediction
        gt_box = BoundingBox(0.5, 0.5, 0.4, 0.4)
        pred_box = BoundingBox(0.6, 0.5, 0.4, 0.4)
        ceiling = iou_matrix(pred_box.to_array()[None], gt_box.to_array()[None]).item()
        p = preds_with([[0.9, 0.0, 0.1]], [pred_box.to_array()])
        gt = pad_to_n([one_hot(0, gt_box, 2)], 1)
        kept = suppress_overlap(np.array([0]), p, gt, ceiling)
        assert kept.tolist() == [0]
        dropped = suppress_overlap(np.array([0]), p, gt, ceiling - 1e-9)
        assert dropped.size == 0


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
        gt = pad_to_n([gt1, gt2], 6)

        overlap_box = BoundingBox(0.7, 0.72, 0.2, 0.2)  # IoU with gt2 well above 0.7
        assert iou_matrix(overlap_box.to_array()[None], gt2.box.to_array()[None]).item() > 0.7
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
        cfg = PseudoConfig(strategy="topk", k=2, overlap_ceiling=0.7)
        out = build_distilled(gt, old, cfg)

        # independent straight-line re-implementation of the pipeline
        probs = old.probs
        fg = [j for j in range(6) if np.argmax(probs[j]) != c]
        conf = {j: probs[j, :c].max() for j in fg}
        topk = sorted(sorted(fg, key=lambda j: (-conf[j], j))[:2])
        gt_boxes = np.stack([gt1.box.to_array(), gt2.box.to_array()])
        q = [j for j in topk if (iou_matrix(old.boxes[j][None], gt_boxes) <= 0.7).all()]
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
        assert cfg.strategy == "topk"
        assert cfg.k == 10
        assert cfg.overlap_ceiling == 0.7

    def test_truncation_prefers_ground_truth_and_confidence(self):
        c = 5
        n = 4
        items = [
            one_hot(0, BoundingBox(0.2, 0.2, 0.1, 0.1), c),
            one_hot(1, BoundingBox(0.8, 0.8, 0.1, 0.1), c),
        ]
        gt = pad_to_n(items, n)
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

        out = build_distilled(gt, old, PseudoConfig(strategy="topk", k=3, overlap_ceiling=0.7))
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
    strategy = ["topk", "threshold", "curriculum"][int(rng.integers(0, 3))]
    cfg = PseudoConfig(
        strategy=strategy,
        k=int(rng.integers(0, n + 2)),
        p=float(rng.uniform(0.05, 0.95)),
        p_start=0.5,
        p_end=0.1,
        overlap_ceiling=float(rng.uniform(0.0, 1.0)),
    )
    frac = float(rng.uniform(0, 1))

    fg = foreground_indices(old)
    picked = select_confident(fg, old, cfg, frac)
    kept = suppress_overlap(picked, old, gt, cfg.overlap_ceiling)

    # nesting: Q subset P subset F subset 0..N-1
    assert set(kept.tolist()) <= set(picked.tolist()) <= set(fg.tolist()) <= set(range(n))
    if cfg.strategy == "topk":
        assert len(kept) <= cfg.k

    out = build_distilled(gt, old, cfg, frac)
    assert len(out) == n

    gt_idx = np.flatnonzero(gt.foreground_mask())
    # ground truth first and unmodified
    assert np.array_equal(out.probs[: gt_idx.size], gt.probs[gt_idx])
    assert np.array_equal(out.boxes[: gt_idx.size], gt.boxes[gt_idx])

    # pseudo slots are foreground and respect the overlap ceiling
    gt_fg_boxes = gt.boxes[gt_idx]
    for i in np.flatnonzero(out.origins == Origin.PSEUDO):
        assert np.argmax(out.probs[i]) != c
        if gt_idx.size:
            assert np.all(iou_matrix(out.boxes[i][None], gt_fg_boxes) <= cfg.overlap_ceiling + 1e-12)

    # origin layout: gt block, pseudo block, background block
    kinds = out.origins.tolist()
    gt_count = kinds.count(Origin.GROUND_TRUTH)
    ps_count = kinds.count(Origin.PSEUDO)
    assert kinds == [Origin.GROUND_TRUTH] * gt_count + [Origin.PSEUDO] * ps_count + [Origin.BACKGROUND] * (
        n - gt_count - ps_count
    )

    # determinism
    out2 = build_distilled(gt, old, cfg, frac)
    assert np.array_equal(out.probs, out2.probs)
    assert np.array_equal(out.boxes, out2.boxes)
    assert np.array_equal(out.origins, out2.origins)
