"""``dkd_loss`` and the box measures give the bytes of the loss they replaced.

``loss_oracle`` keeps that loss verbatim. Label sets are ragged: 0-14
foreground rows, ground truth or soft pseudo, at random slots among
background slots, with point, line and coincident boxes on both sides.
Targets built by ``pad_to_n`` or ``build_distilled`` store only their given
slots; ``dkd_loss`` on them gives the bytes the oracle gives on their dense
``copy()``.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import loss_oracle
from iodkit.distillation import PseudoConfig, build_distilled
from iodkit.geometry import BoundingBox, box_loss, box_loss_with_grad
from iodkit.labels import LabeledSet, Origin, one_hot, pad_to_n
from iodkit.losses import dkd_loss

BOX_KINDS = ("box", "point", "vertical line", "horizontal line")
# Mostly boxes with area: a prediction that copies a degenerate target has an
# empty hull with it, and one matched pair like that fails the whole loss.
TARGET_KINDS = ("box",) * 4 + BOX_KINDS[1:]
PRED_KINDS = ("sigmoid",) * 4 + ("copy",) + BOX_KINDS


def make_box(rng, kind):
    cx, cy = rng.uniform(0.1, 0.9, size=2)
    w, h = rng.uniform(0.01, 0.5, size=2)
    if kind in ("point", "vertical line"):
        w = 0.0
    if kind in ("point", "horizontal line"):
        h = 0.0
    return [cx, cy, w, h]


@st.composite
def loss_inputs(draw):
    """(preds, targets, background weight) with ragged foreground rows."""
    n_fg = draw(st.integers(0, 14))
    n = draw(st.integers(max(n_fg, 1), n_fg + 6))
    c = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    probs = np.zeros((n, c + 1))
    probs[:, c] = 1.0
    boxes = np.zeros((n, 4))
    origins = np.full(n, Origin.BACKGROUND, dtype=np.int8)
    for slot in sorted(rng.choice(n, size=n_fg, replace=False).tolist()):
        boxes[slot] = make_box(rng, draw(st.sampled_from(TARGET_KINDS)))
        category = int(rng.integers(0, c))
        if draw(st.booleans()):
            probs[slot] = 0.0
            probs[slot, category] = 1.0
            origins[slot] = Origin.GROUND_TRUTH
        else:
            soft = rng.dirichlet(np.ones(c + 1))
            soft[category] += 1.0
            probs[slot] = soft / soft.sum()
            origins[slot] = Origin.PSEUDO
    targets = LabeledSet(probs, boxes, origins)
    return make_preds(draw, rng, c, boxes), targets, draw(st.floats(0.02, 1.0))


def make_preds(draw, rng, c, target_boxes):
    """Softmax predictions, one per target slot; some boxes copy a target's, some are degenerate."""
    n = len(target_boxes)
    logits = rng.normal(0.0, draw(st.sampled_from([0.5, 3.0, 40.0])), size=(n, c + 1))
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    pred_boxes = 1.0 / (1.0 + np.exp(-rng.normal(0.0, 1.5, size=(n, 4))))
    for j in range(n):
        kind = draw(st.sampled_from(PRED_KINDS))
        if kind == "copy":
            pred_boxes[j] = target_boxes[int(rng.integers(0, n))]
        elif kind != "sigmoid":
            pred_boxes[j] = make_box(rng, kind)
    return LabeledSet(e / e.sum(axis=1, keepdims=True), pred_boxes, np.full(n, Origin.PREDICTION, dtype=np.int8))


def truth_slot(draw, rng, c):
    box = BoundingBox(*make_box(rng, draw(st.sampled_from(TARGET_KINDS))))
    return one_hot(int(rng.integers(0, c)), box, c)


def given_slot(draw, rng, c):
    """One given slot as a one-row set: ground truth, soft pseudo or background."""
    kind = draw(st.sampled_from(["truth", "pseudo", "background"]))
    if kind == "truth":
        return truth_slot(draw, rng, c)
    if kind == "background":
        return pad_to_n([], 1, c)
    soft = rng.dirichlet(np.ones(c + 1))
    soft[int(rng.integers(0, c))] += 1.0
    box = make_box(rng, draw(st.sampled_from(TARGET_KINDS)))
    return LabeledSet((soft / soft.sum())[None], np.array([box]), np.array([Origin.PSEUDO], dtype=np.int8))


@st.composite
def padded_inputs(draw):
    """(preds, targets, background weight), the targets padded by ``pad_to_n`` or ``build_distilled``.

    ``pad_to_n`` gets 0-14 given slots of every kind; ``build_distilled`` gets 0-14 ground-truth
    slots and an old model whose boxes may copy them, so some of its predictions are suppressed.
    """
    k = draw(st.integers(0, 14))
    n = draw(st.integers(max(k, 1), k + 6))
    c = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        targets = pad_to_n([given_slot(draw, rng, c) for _ in range(k)], n, c)
    else:
        gt = pad_to_n([truth_slot(draw, rng, c) for _ in range(k)], n, c)
        cfg = PseudoConfig(k=draw(st.integers(0, n)), overlap_ceiling=draw(st.floats(0.0, 1.0)))
        targets = build_distilled(gt, make_preds(draw, rng, c, gt.boxes), cfg)
    return make_preds(draw, rng, c, targets.boxes), targets, draw(st.floats(0.02, 1.0))


def outcome(loss, preds, targets, weight):
    """Every byte ``loss`` returns, or the error it raises."""
    try:
        assignment, report = loss(preds, targets, 2.0, 5.0, background_class_weight=weight)
    except ValueError as e:
        return ("ValueError", str(e))
    floats = np.array([report.total, report.class_term, report.box_term])
    return (
        assignment.sigma.tobytes(),
        floats.tobytes(),
        report.grad_logits.tobytes(),
        report.grad_box_raw.tobytes(),
        report.clamped,
    )


def outcome_with_grad(fn, pred, target, gamma1, gamma2):
    try:
        values, grad = fn(pred, target, gamma1, gamma2)
    except ValueError as e:
        return ("ValueError", str(e))
    return values.tobytes(), grad.tobytes()


def empty_hull_inputs():
    """One foreground target, a point, that every prediction meets on its vertical line."""
    targets = LabeledSet(
        np.array([[1.0, 0.0], [0.0, 1.0]]),
        np.array([[0.5, 0.5, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]]),
        np.array([Origin.GROUND_TRUTH, Origin.BACKGROUND], dtype=np.int8),
    )
    preds = LabeledSet(
        np.array([[0.6, 0.4], [0.3, 0.7]]),
        np.array([[0.5, 0.3, 0.0, 0.2], [0.5, 0.5, 0.0, 0.0]]),
        np.full(2, Origin.PREDICTION, dtype=np.int8),
    )
    return preds, targets, 0.1


class TestDkdLossDifferential:
    @settings(max_examples=300, deadline=None)
    @given(loss_inputs())
    @example(empty_hull_inputs())
    def test_same_bytes_as_oracle(self, case):
        preds, targets, weight = case
        assert outcome(dkd_loss, preds, targets, weight) == outcome(loss_oracle.dkd_loss, preds, targets, weight)

    @settings(max_examples=300, deadline=None)
    @given(padded_inputs())
    def test_padded_targets_same_bytes_as_oracle_on_their_copy(self, case):
        preds, targets, weight = case
        assert outcome(dkd_loss, preds, targets, weight) == outcome(loss_oracle.dkd_loss, preds, targets.copy(), weight)

    def test_empty_hull_raises_as_oracle(self):
        new = outcome(dkd_loss, *empty_hull_inputs())
        assert new == ("ValueError", "degenerate pair")
        assert new == outcome(loss_oracle.dkd_loss, *empty_hull_inputs())


class TestBoxMeasuresDifferential:
    @pytest.mark.parametrize("seed", range(20))
    def test_block_and_rows_same_bytes_as_oracle(self, seed):
        rng = np.random.default_rng(seed)
        kinds = rng.choice(BOX_KINDS, size=30)
        a = np.array([make_box(rng, k) for k in kinds[:18]])
        b = np.array([make_box(rng, k) for k in kinds[18:]] + [a[0], a[1]])
        for gamma1, gamma2 in ((2.0, 5.0), (0.7, 3.3), (0.0, 1.0)):
            block = box_loss(a[:, None], b[None], gamma1, gamma2)
            assert block.tobytes() == loss_oracle.box_loss(a[:, None], b[None], gamma1, gamma2).tobytes()
            pred, target = a[:14], b[:14]
            has_hull = loss_oracle._pieces(pred, target)[2] > 0
            for rows in (has_hull, slice(None)):  # gradients, then the empty hulls' error
                new = outcome_with_grad(box_loss_with_grad, pred[rows], target[rows], gamma1, gamma2)
                assert new == outcome_with_grad(loss_oracle.box_loss_with_grad, pred[rows], target[rows], gamma1, gamma2)
