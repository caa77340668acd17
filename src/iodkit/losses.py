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

from .geometry import box_loss_pairs_with_grad
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


def _safe_log(p: np.ndarray):
    clamped = bool(np.any(p < LOG_CLAMP))
    return np.log(np.maximum(p, LOG_CLAMP)), clamped


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
    """
    n = len(targets)
    if len(preds) != n or assignment.sigma.shape[0] != n:
        raise ValueError("length mismatch between predictions, targets, and assignment")
    sigma = assignment.sigma
    matched = preds.probs[sigma]  # row i = prediction paired with target i
    logp, clamped = _safe_log(matched)

    fg = targets.foreground_mask()
    weights = np.where(fg, 1.0, background_class_weight)
    ce_rows = -(targets.probs * logp).sum(axis=1)
    class_term = float((weights * ce_rows).sum())

    grad_logits = np.zeros_like(preds.probs)
    grad_logits[sigma] = weights[:, None] * (matched - targets.probs)

    grad_box_raw = np.zeros_like(preds.boxes)
    box_term = 0.0
    fg_idx = np.flatnonzero(fg)
    if fg_idx.size:
        pred_boxes = preds.boxes[sigma[fg_idx]]
        tgt_boxes = targets.boxes[fg_idx]
        values, grads = box_loss_pairs_with_grad(pred_boxes, tgt_boxes, gamma1, gamma2)
        box_term = float(values.sum())
        grad_box_raw[sigma[fg_idx]] = _box_raw_chain(grads, pred_boxes)

    return LossReport(
        total=class_term + box_term,
        class_term=class_term,
        box_term=box_term,
        grad_logits=grad_logits,
        grad_box_raw=grad_box_raw,
        clamped=clamped,
    )


def classical_kd_loss(
    preds: LabeledSet,
    old_preds: LabeledSet,
    gamma1: float,
    gamma2: float,
    include_background: bool = False,
) -> LossReport:
    """Token-wise distillation against a frozen older model's outputs.

    Token j of ``preds`` is compared with token j of ``old_preds`` (the
    slots correspond to the same fixed queries). The class term is the
    cross-entropy of the new probabilities under the old distribution,
    restricted to object categories unless ``include_background``; the
    box term compares every token pair.
    """
    n = len(preds)
    if len(old_preds) != n:
        raise ValueError("length mismatch between new and old predictions")
    q = old_preds.probs.copy()
    if not include_background:
        q[:, -1] = 0.0
    logp, clamped = _safe_log(preds.probs)
    class_term = float(-(q * logp).sum())
    # d/dz of -sum_c q_c log softmax(z)_c with unnormalized q: (sum q) p - q
    grad_logits = q.sum(axis=1, keepdims=True) * preds.probs - q

    values, grads = box_loss_pairs_with_grad(preds.boxes, old_preds.boxes, gamma1, gamma2)
    box_term = float(values.sum())
    grad_box_raw = _box_raw_chain(grads, preds.boxes)

    return LossReport(
        total=class_term + box_term,
        class_term=class_term,
        box_term=box_term,
        grad_logits=grad_logits,
        grad_box_raw=grad_box_raw,
        clamped=clamped,
    )


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

    ``refine_ties`` is ignored; it goes when the benchmark stops passing it (ROADMAP item 5).
    """
    cost: CostMatrix = build_cost(distilled, preds, gamma1, gamma2)
    assignment = hungarian(cost)
    report = detr_loss(preds, distilled, assignment, gamma1, gamma2, background_class_weight)
    return assignment, report
