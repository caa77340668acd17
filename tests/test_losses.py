import math

import numpy as np
import pytest

from iodkit.distillation import PseudoConfig, build_distilled
from iodkit.geometry import BoundingBox, box_loss
from iodkit.labels import LabeledSet, Origin, one_hot, pad_to_n
from iodkit.losses import LOG_CLAMP, classical_kd_loss, detr_loss, dkd_loss
from iodkit.matching import Assignment, build_cost, hungarian
from matching_oracle import brute_force_match, path_cost


def softmax(z):
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def sigmoid(r):
    return 1.0 / (1.0 + np.exp(-r))


def preds_from_raw(logits, raw_boxes):
    return LabeledSet(
        probs=softmax(logits),
        boxes=sigmoid(raw_boxes),
        origins=np.full(logits.shape[0], Origin.PREDICTION, dtype=np.int8),
    )


def pseudo(probs, box):
    """A one-slot soft pseudo-label set."""
    return LabeledSet(np.asarray(probs)[None], box.to_array()[None], np.array([Origin.PSEUDO], dtype=np.int8))


def random_targets(rng, n, c):
    """A random mix of ground-truth, soft pseudo, and background slots."""
    items = []
    n_fg = int(rng.integers(0, n + 1))
    for k in range(n_fg):
        box = BoundingBox(
            float(rng.uniform(0.2, 0.8)),
            float(rng.uniform(0.2, 0.8)),
            float(rng.uniform(0.05, 0.4)),
            float(rng.uniform(0.05, 0.4)),
        )
        if rng.random() < 0.5:
            items.append(one_hot(int(rng.integers(0, c)), box, c))
        else:
            probs = rng.dirichlet(np.ones(c + 1))
            probs[int(rng.integers(0, c))] += 1.0
            probs /= probs.sum()
            items.append(pseudo(probs, box))
    return pad_to_n(items, n, n_categories=c)


class TestDetrLossValues:
    def test_exact_match_is_zero(self):
        b = BoundingBox(0.5, 0.5, 0.2, 0.2)
        targets = pad_to_n([one_hot(0, b, 1)], 2, 1)
        preds = LabeledSet(
            probs=np.array([[1.0, 0.0], [0.0, 1.0]]),
            boxes=np.stack([b.to_array(), b.to_array()]),
            origins=np.full(2, Origin.PREDICTION, dtype=np.int8),
        )
        sigma = hungarian(build_cost(targets, preds, 2.0, 5.0))
        rep = detr_loss(preds, targets, sigma, 2.0, 5.0)
        assert rep.total == 0.0
        assert rep.class_term == 0.0
        assert rep.box_term == 0.0

    def test_uniform_prediction_cross_entropy(self):
        b = BoundingBox(0.5, 0.5, 0.2, 0.2)
        targets = one_hot(0, b, 2)
        preds = LabeledSet(
            probs=np.full((1, 3), 1 / 3),
            boxes=b.to_array()[None],
            origins=np.array([Origin.PREDICTION], dtype=np.int8),
        )
        rep = detr_loss(preds, targets, Assignment(np.array([0])), 2.0, 5.0)
        assert abs(rep.class_term - math.log(3)) < 1e-12
        assert rep.box_term == 0.0

    def test_soft_target_cross_entropy(self):
        # 0.7 on a category, 0.3 on background, uniform 3-way prediction
        b = BoundingBox(0.5, 0.5, 0.2, 0.2)
        targets = pseudo([0.7, 0.0, 0.3], b)
        preds = LabeledSet(
            probs=np.full((1, 3), 1 / 3),
            boxes=b.to_array()[None],
            origins=np.array([Origin.PREDICTION], dtype=np.int8),
        )
        rep = detr_loss(preds, targets, Assignment(np.array([0])), 2.0, 5.0)
        # independent scalar recomputation
        manual = -(0.7 * math.log(1 / 3) + 0.3 * math.log(1 / 3))
        assert abs(rep.class_term - manual) < 1e-12
        assert abs(rep.class_term - math.log(3)) < 1e-12

    def test_terms_nonnegative(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            n, c = 4, 3
            targets = random_targets(rng, n, c)
            preds = preds_from_raw(rng.normal(size=(n, c + 1)), rng.normal(size=(n, 4)))
            sigma = hungarian(build_cost(targets, preds, 2.0, 5.0))
            rep = detr_loss(preds, targets, sigma, 2.0, 5.0)
            assert rep.class_term >= 0.0
            assert rep.box_term >= 0.0

    def test_permutation_consistency(self):
        rng = np.random.default_rng(1)
        n, c = 5, 3
        targets = random_targets(rng, n, c)
        logits = rng.normal(size=(n, c + 1))
        raws = rng.normal(size=(n, 4))
        preds = preds_from_raw(logits, raws)
        sigma = hungarian(build_cost(targets, preds, 2.0, 5.0))
        rep = detr_loss(preds, targets, sigma, 2.0, 5.0)

        perm = rng.permutation(n)
        preds2 = LabeledSet(preds.probs[perm], preds.boxes[perm], preds.origins[perm])
        inv = np.argsort(perm)
        sigma2 = Assignment(inv[sigma.sigma])
        rep2 = detr_loss(preds2, targets, sigma2, 2.0, 5.0)
        assert abs(rep.total - rep2.total) < 1e-9

    def test_clamp_flag(self):
        b = BoundingBox(0.5, 0.5, 0.2, 0.2)
        targets = one_hot(0, b, 1)
        preds = LabeledSet(
            probs=np.array([[0.0, 1.0]]),
            boxes=b.to_array()[None],
            origins=np.array([Origin.PREDICTION], dtype=np.int8),
        )
        rep = detr_loss(preds, targets, Assignment(np.array([0])), 2.0, 5.0)
        assert rep.clamped
        assert np.isfinite(rep.total)


    @pytest.mark.parametrize("n_preds, n_sigma", [(2, 3), (3, 2)])
    def test_length_mismatch_rejected(self, n_preds, n_sigma):
        rng = np.random.default_rng(0)
        preds = preds_from_raw(rng.normal(size=(n_preds, 3)), rng.normal(size=(n_preds, 4)))
        targets = random_targets(rng, 3, 2)
        with pytest.raises(ValueError, match="length mismatch between predictions, targets, and assignment"):
            detr_loss(preds, targets, Assignment(np.arange(n_sigma)), 2.0, 5.0)


class TestReadsOnlyWhatItUses:
    """The set loss reads the given rows of a label set, and logs only the entries it scores."""

    def test_clamp_below_an_unlogged_column_still_reported(self):
        # slot 1 is padding, so detr_loss takes the log of its matched prediction's background
        # column alone; the only value below LOG_CLAMP sits in that prediction's object column
        b = BoundingBox(0.5, 0.5, 0.2, 0.2)
        targets = pad_to_n([one_hot(0, b, 2)], 2, 2)
        probs = np.array([[0.6, 0.3, 0.1], [LOG_CLAMP / 2, 0.5, 0.5 - LOG_CLAMP / 2]])
        preds = LabeledSet(probs, np.stack([b.to_array()] * 2), np.full(2, Origin.PREDICTION, dtype=np.int8))
        rep = detr_loss(preds, targets, Assignment(np.array([0, 1])), 2.0, 5.0)
        assert rep.clamped
        assert rep.class_term == -np.log(0.6) - np.log(0.5 - LOG_CLAMP / 2)

    def test_given_background_row_is_not_truth(self):
        # an unpadded set whose slot 1 is given, one-hot on background, with a box of its own
        c, w_bg = 2, 0.25
        probs = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
        boxes = np.array([[0.3, 0.3, 0.2, 0.2], [0.7, 0.7, 0.2, 0.2], [0.0, 0.0, 0.0, 0.0]])
        origins = np.array([Origin.GROUND_TRUTH, Origin.BACKGROUND, Origin.BACKGROUND], dtype=np.int8)
        targets = LabeledSet(probs, boxes, origins)
        pred_probs = np.array([[0.5, 0.2, 0.3], [0.1, 0.6, 0.3], [0.2, 0.2, 0.6]])
        pred_boxes = np.array([[0.35, 0.3, 0.2, 0.25], [0.6, 0.65, 0.3, 0.2], [0.5, 0.5, 0.1, 0.1]])
        preds = LabeledSet(pred_probs, pred_boxes, np.full(3, Origin.PREDICTION, dtype=np.int8))

        assert build_cost(targets, preds, 2.0, 5.0).rows.tolist() == [0]
        rep = detr_loss(preds, targets, Assignment(np.array([0, 1, 2])), 2.0, 5.0, background_class_weight=w_bg)
        assert rep.class_term == float(np.sum([-np.log(0.5), -w_bg * np.log(0.3), -w_bg * np.log(0.6)]))
        assert rep.box_term == float(box_loss(pred_boxes[:1], boxes[:1], 2.0, 5.0).sum())
        assert rep.grad_box_raw[1:].tolist() == [[0.0] * 4] * 2

        old = LabeledSet(pred_probs[[1, 0, 2]], pred_boxes[[1, 0, 2]], np.full(3, Origin.PREDICTION, dtype=np.int8))
        out = build_distilled(targets, old, PseudoConfig(k=0))
        assert len(out) == 3 and out._probs.tolist() == [[1.0, 0.0, 0.0]]
        assert out._boxes.tolist() == [boxes[0].tolist()]


class TestClassicalKd:
    def test_identical_predictions_floor(self):
        rng = np.random.default_rng(2)
        n, c = 3, 2
        logits = rng.normal(size=(n, c + 1))
        raws = rng.normal(size=(n, 4))
        preds = preds_from_raw(logits, raws)
        rep = classical_kd_loss(preds, preds, 2.0, 5.0)
        assert rep.box_term == 0.0
        # entropy floor restricted to object categories
        q = preds.probs[:, :c]
        floor = float(-(q * np.log(preds.probs[:, :c])).sum())
        assert abs(rep.class_term - floor) < 1e-12

    def test_length_mismatch_rejected(self):
        rng = np.random.default_rng(1)
        preds = preds_from_raw(rng.normal(size=(3, 3)), rng.normal(size=(3, 4)))
        old = preds_from_raw(rng.normal(size=(2, 3)), rng.normal(size=(2, 4)))
        with pytest.raises(ValueError, match="length mismatch between new and old predictions"):
            classical_kd_loss(preds, old, 2.0, 5.0)

    def test_one_hot_agreement_is_zero(self):
        b = BoundingBox(0.4, 0.4, 0.3, 0.3)
        probs = np.array([[1.0, 0.0, 0.0]])
        ls = LabeledSet(probs=probs, boxes=b.to_array()[None], origins=np.array([Origin.PREDICTION], dtype=np.int8))
        rep = classical_kd_loss(ls, ls, 2.0, 5.0)
        assert rep.total == 0.0

    def test_hand_value(self):
        # single token, two classes with zero background mass, same box
        b = BoundingBox(0.5, 0.5, 0.2, 0.2)
        old = LabeledSet(
            probs=np.array([[0.5, 0.5, 0.0]]),
            boxes=b.to_array()[None],
            origins=np.array([Origin.PREDICTION], dtype=np.int8),
        )
        new = LabeledSet(
            probs=np.array([[0.9, 0.1, 0.0]]),
            boxes=b.to_array()[None],
            origins=np.array([Origin.PREDICTION], dtype=np.int8),
        )
        rep = classical_kd_loss(new, old, 2.0, 5.0)
        manual = -(0.5 * math.log(0.9) + 0.5 * math.log(0.1))
        assert abs(rep.class_term - manual) < 1e-12
        assert abs(rep.class_term - 1.2040) < 1e-4


class TestDkd:
    def test_reduces_to_plain_loss_without_pseudo(self):
        rng = np.random.default_rng(3)
        n, c = 5, 3
        items = [one_hot(0, BoundingBox(0.3, 0.3, 0.2, 0.2), c), one_hot(1, BoundingBox(0.7, 0.7, 0.2, 0.2), c)]
        gt = pad_to_n(items, n, c)
        preds = preds_from_raw(rng.normal(size=(n, c + 1)), rng.normal(size=(n, 4)))
        sigma, rep = dkd_loss(preds, gt, 2.0, 5.0)
        sigma2 = hungarian(build_cost(gt, preds, 2.0, 5.0))
        rep2 = detr_loss(preds, gt, sigma2, 2.0, 5.0)
        assert sigma.sigma.tolist() == sigma2.sigma.tolist()
        assert rep.total == rep2.total

    def test_all_background_class_only(self):
        rng = np.random.default_rng(4)
        n, c = 4, 2
        distilled = pad_to_n([], n, n_categories=c)
        preds = preds_from_raw(rng.normal(size=(n, c + 1)), rng.normal(size=(n, 4)))
        _, rep = dkd_loss(preds, distilled, 2.0, 5.0)
        assert rep.box_term == 0.0
        assert rep.class_term > 0.0

    def test_composition_matches_manual(self):
        rng = np.random.default_rng(5)
        n, c = 3, 2
        distilled = pad_to_n(
            [one_hot(0, BoundingBox(0.3, 0.3, 0.2, 0.2), c), pseudo([0.1, 0.6, 0.3], BoundingBox(0.7, 0.6, 0.2, 0.3))],
            n,
            c,
        )
        preds = preds_from_raw(rng.normal(size=(n, c + 1)), rng.normal(size=(n, 4)))
        sigma, rep = dkd_loss(preds, distilled, 2.0, 5.0)
        cost = build_cost(distilled, preds, 2.0, 5.0)
        manual_sigma = brute_force_match(cost)
        manual = detr_loss(preds, distilled, manual_sigma, 2.0, 5.0)
        assert path_cost(cost, sigma.sigma) == path_cost(cost, manual_sigma.sigma)
        assert abs(rep.total - manual.total) < 1e-12

    def test_refine_ties_keyword_ignored(self):
        # predictions 0 and 1 are equal and best for the one foreground target (slot 1):
        # a tie that a lexicographic rule breaks differently from the solver
        c = 2
        b = BoundingBox(0.4, 0.5, 0.2, 0.3)
        distilled = pad_to_n([pad_to_n([], 1, c), one_hot(0, b, c)], 4, c)
        probs = np.array([[0.8, 0.1, 0.1], [0.8, 0.1, 0.1], [0.1, 0.1, 0.8], [0.1, 0.8, 0.1]])
        boxes = np.stack([b.to_array(), b.to_array(), [0.7, 0.7, 0.1, 0.1], [0.2, 0.2, 0.1, 0.1]])
        preds = LabeledSet(probs, boxes, np.full(4, Origin.PREDICTION, dtype=np.int8))
        (a1, r1), (a2, r2) = (dkd_loss(preds, distilled, 2.0, 5.0, refine_ties=f) for f in (True, False))
        assert a1.sigma.tolist() == a2.sigma.tolist()
        assert r1.grad_logits.tobytes() == r2.grad_logits.tobytes()
        assert r1.grad_box_raw.tobytes() == r2.grad_box_raw.tobytes()


def finite_difference_check(loss_of_raw, logits, raws, grad_logits, grad_box_raw, step=1e-5):
    """Central finite differences against analytic gradients."""

    def check(analytic, arr, which):
        it = np.nditer(arr, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            plus = arr.copy()
            minus = arr.copy()
            plus[idx] += step
            minus[idx] -= step
            if which == "logits":
                fp = loss_of_raw(plus, raws)
                fm = loss_of_raw(minus, raws)
            else:
                fp = loss_of_raw(logits, plus)
                fm = loss_of_raw(logits, minus)
            fd = (fp - fm) / (2 * step)
            g = analytic[idx]
            if abs(g) > 1e-8:
                assert abs(fd - g) / abs(g) < 1e-4, f"{which}{idx}: fd={fd} analytic={g}"
            it.iternext()

    check(grad_logits, logits, "logits")
    check(grad_box_raw, raws, "boxes")


class TestGradients:
    @pytest.mark.parametrize("seed", range(10))
    def test_detr_loss_gradients(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        c = int(rng.integers(2, 5))
        targets = random_targets(rng, n, c)
        logits = rng.normal(size=(n, c + 1))
        raws = rng.normal(size=(n, 4))
        preds = preds_from_raw(logits, raws)
        sigma = hungarian(build_cost(targets, preds, 2.0, 5.0))
        rep = detr_loss(preds, targets, sigma, 2.0, 5.0)

        def loss_of_raw(z, r):
            p = preds_from_raw(z, r)
            return detr_loss(p, targets, sigma, 2.0, 5.0).total

        finite_difference_check(loss_of_raw, logits, raws, rep.grad_logits, rep.grad_box_raw)

    @pytest.mark.parametrize("seed", range(5))
    def test_classical_kd_gradients(self, seed):
        rng = np.random.default_rng(100 + seed)
        n, c = 3, 3
        old = preds_from_raw(rng.normal(size=(n, c + 1)), rng.normal(size=(n, 4)))
        logits = rng.normal(size=(n, c + 1))
        raws = rng.normal(size=(n, 4))
        rep = classical_kd_loss(preds_from_raw(logits, raws), old, 2.0, 5.0)

        def loss_of_raw(z, r):
            return classical_kd_loss(preds_from_raw(z, r), old, 2.0, 5.0).total

        finite_difference_check(loss_of_raw, logits, raws, rep.grad_logits, rep.grad_box_raw)

    @pytest.mark.parametrize("seed", range(5))
    def test_dkd_gradients_through_matching(self, seed):
        # matching is locally constant, so fixed-sigma gradients apply
        rng = np.random.default_rng(200 + seed)
        n, c = 4, 3
        targets = random_targets(rng, n, c)
        logits = rng.normal(size=(n, c + 1))
        raws = rng.normal(size=(n, 4))
        _, rep = dkd_loss(preds_from_raw(logits, raws), targets, 2.0, 5.0)

        def loss_of_raw(z, r):
            return dkd_loss(preds_from_raw(z, r), targets, 2.0, 5.0)[1].total

        finite_difference_check(loss_of_raw, logits, raws, rep.grad_logits, rep.grad_box_raw)
