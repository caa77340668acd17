"""Set-prediction training losses with analytic gradients.

All losses report gradients with respect to pre-softmax class logits and
pre-sigmoid raw box outputs, so any detector head can consume them. Class
terms are cross-entropies that accept soft target distributions; box
terms apply only to foreground slots (token-wise for the classical
distillation baseline).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import box_loss_with_grad
from .labels import LabeledSet
from .matching import Assignment, CostMatrix, build_cost, hungarian

__all__ = ["LossReport", "detr_loss", "classical_kd_loss", "dkd_loss"]

LOG_CLAMP = 1e-12


@dataclass
class LossReport:
    """Loss value split into class/box terms plus head gradients."""

    total: float
    class_term: float
    box_term: float
    grad_logits: np.ndarray
    grad_box_raw: np.ndarray
    clamped: bool = False


def _report(preds: LabeledSet, class_term: float, box_term: float, grad_logits, grad_box_raw) -> LossReport:
    """A loss on ``preds``: its two terms, their total, and whether ``_log`` clamps any of ``preds.probs``."""
    clamped = bool((preds.probs < LOG_CLAMP).any())
    return LossReport(class_term + box_term, class_term, box_term, grad_logits, grad_box_raw, clamped)


def _log(p: np.ndarray) -> np.ndarray:
    return np.log(np.maximum(p, LOG_CLAMP))


def _box_raw_chain(grad_boxes: np.ndarray, boxes: np.ndarray) -> np.ndarray:
    # boxes came through a sigmoid; d box / d raw = box * (1 - box)
    return grad_boxes * boxes * (1.0 - boxes)


def detr_loss(
    preds: LabeledSet,
    targets: LabeledSet,
    assignment: Assignment,
    gamma1: float,
    gamma2: float,
    background_class_weight: float = 1.0,
) -> LossReport:
    """Matched cross-entropy plus foreground box loss.

    Slot i of ``targets`` is paired with prediction ``sigma[i]``. The cross-entropy
    term covers every slot (background included, scaled by
    ``background_class_weight``); the box term only foreground targets.

    The given slots of ``targets`` are read as stored, and only they can be foreground. A
    padding slot is one-hot on background, so its cross-entropy is ``-log p_hat_bg`` of its
    matched prediction and its logit gradient ``w_bg * (p_hat - e_bg)``; both equal the full
    row sums bit for bit, as each ``0 * log p_hat`` term is a signed zero and ``log p_hat`` is
    clamped finite. Logs are taken of the given rows and the padding rows' background column
    only; ``clamped`` is read from every entry of ``preds.probs``, which, sigma being a
    permutation, are the entries of the matched rows.
    """
    n = len(targets)
    if len(preds) != n or assignment.sigma.shape[0] != n:
        raise ValueError("length mismatch between predictions, targets, and assignment")
    sigma = assignment.sigma
    given = targets._probs  # rows past these are padding
    k = given.shape[0]
    matched = preds.probs[sigma]  # row i = prediction paired with target i

    fg = targets._foreground_given()
    weights = np.full(n, background_class_weight, dtype=np.float64)
    weights[fg] = 1.0
    ce_rows = np.empty(n)
    ce_rows[:k] = -(given * _log(matched[:k])).sum(axis=1)
    ce_rows[k:] = -_log(matched[k:, -1])
    class_term = float((weights * ce_rows).sum())

    grad_logits = np.zeros_like(preds.probs)
    matched[:k] -= given  # matched becomes p_hat - p, row by row
    matched[k:, -1] -= 1.0
    grad_logits[sigma] = weights[:, None] * matched

    grad_box_raw = np.zeros_like(preds.boxes)
    box_term = 0.0
    if fg.size:
        pred_boxes = preds.boxes[sigma[fg]]
        values, grads = box_loss_with_grad(pred_boxes, targets._boxes[fg], gamma1, gamma2)
        box_term = float(values.sum())
        grad_box_raw[sigma[fg]] = _box_raw_chain(grads, pred_boxes)

    return _report(preds, class_term, box_term, grad_logits, grad_box_raw)


def classical_kd_loss(
    preds: LabeledSet,
    old_preds: LabeledSet,
    gamma1: float,
    gamma2: float,
) -> LossReport:
    """Token-wise distillation against a frozen older model's outputs.

    Token j of ``preds`` is compared with token j of ``old_preds`` (the
    slots correspond to the same fixed queries). The class term is the
    cross-entropy of the new probabilities under the old distribution,
    restricted to object categories; the box term compares every token
    pair.
    """
    n = len(preds)
    if len(old_preds) != n:
        raise ValueError("length mismatch between new and old predictions")
    q = old_preds.probs.copy()
    q[:, -1] = 0.0
    class_term = float(-(q * _log(preds.probs)).sum())
    # d/dz of -sum_c q_c log softmax(z)_c with unnormalized q: (sum q) p - q
    grad_logits = q.sum(axis=1, keepdims=True) * preds.probs - q

    values, grads = box_loss_with_grad(preds.boxes, old_preds.boxes, gamma1, gamma2)
    box_term = float(values.sum())
    grad_box_raw = _box_raw_chain(grads, preds.boxes)

    return _report(preds, class_term, box_term, grad_logits, grad_box_raw)


def dkd_loss(
    preds: LabeledSet,
    distilled: LabeledSet,
    gamma1: float,
    gamma2: float,
    background_class_weight: float = 1.0,
    refine_ties: bool = True,
) -> tuple[Assignment, LossReport]:
    """Match the merged label set to the predictions, then score it.

    This is the plain set-prediction loss applied to a label set that may
    carry soft pseudo slots; distillation happens entirely at the label
    level.

    ``refine_ties`` is ignored; it goes when the benchmark stops passing it (ROADMAP item 1).
    """
    cost: CostMatrix = build_cost(distilled, preds, gamma1, gamma2)
    assignment = hungarian(cost)
    report = detr_loss(preds, distilled, assignment, gamma1, gamma2, background_class_weight)
    return assignment, report
