"""The set loss that ``iodkit.losses.dkd_loss`` computed before one-pass box geometry.

Kept as the differential oracle of ``dkd_loss``, verbatim but for the cost
check that ``CostMatrix`` now makes when it is built: ``_pieces``
forms one (..., 4) corner array per set of boxes and splits it into
separate x and y sides, and the loss functions convert their boxes at
each call. Every value the loss returns must equal this module's bit for bit.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linear_sum_assignment

from iodkit.labels import LabeledSet
from iodkit.losses import LOG_CLAMP, LossReport
from iodkit.matching import Assignment, CostMatrix


def corners_array(boxes: np.ndarray) -> np.ndarray:
    """(..., 4) center-size -> (..., 4) corner coordinates."""
    boxes = np.asarray(boxes, dtype=np.float64)
    centre, half = boxes[..., :2], boxes[..., 2:] / 2
    return np.concatenate([centre - half, centre + half], axis=-1)


def _pieces(a: np.ndarray, b: np.ndarray):
    """Shared measures of boxes ``a`` and ``b`` broadcast over (..., 4).

    The areas (inter, union, hull), then what they are built from: the corners
    of a and of b, the intersection sides clipped at 0 and the hull sides.
    """
    ca = corners_array(a)
    cb = corners_array(b)
    ax0, ay0, ax1, ay1 = ca[..., 0], ca[..., 1], ca[..., 2], ca[..., 3]
    bx0, by0, bx1, by1 = cb[..., 0], cb[..., 1], cb[..., 2], cb[..., 3]
    iw = np.clip(np.minimum(ax1, bx1) - np.maximum(ax0, bx0), 0.0, None)
    ih = np.clip(np.minimum(ay1, by1) - np.maximum(ay0, by0), 0.0, None)
    inter = iw * ih
    union = (ax1 - ax0) * (ay1 - ay0) + (bx1 - bx0) * (by1 - by0) - inter
    hw = np.maximum(ax1, bx1) - np.minimum(ax0, bx0)
    hh = np.maximum(ay1, by1) - np.minimum(ay0, by0)
    return inter, union, hw * hh, ca, cb, iw, ih, hw, hh


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den, zero where den is not positive."""
    out = np.zeros_like(den)
    np.divide(num, den, out=out, where=den > 0)
    return out


def _giou(inter: np.ndarray, union: np.ndarray, hull: np.ndarray) -> np.ndarray:
    return _ratio(inter, union) - _ratio(hull - union, hull)


def giou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Generalized IoU of boxes ``a`` and ``b`` broadcast over (..., 4); plain IoU (= 0) where the hull is empty."""
    return _giou(*_pieces(a, b)[:3])


def _check_loss_weights(gamma1: float, gamma2: float) -> None:
    if gamma1 < 0 or gamma2 < 0:
        raise ValueError("loss weights must be non-negative")


def box_loss(preds: np.ndarray, targets: np.ndarray, gamma1: float, gamma2: float) -> np.ndarray:
    """Regression loss gamma1*(1 - GIoU) + gamma2*L1 of boxes broadcast over (..., 4)."""
    _check_loss_weights(gamma1, gamma2)
    preds, targets = np.asarray(preds, dtype=np.float64), np.asarray(targets, dtype=np.float64)
    return gamma1 * (1.0 - giou(preds, targets)) + gamma2 * np.abs(preds - targets).sum(axis=-1)


def box_loss_with_grad(pred: np.ndarray, target: np.ndarray, gamma1: float, gamma2: float):
    """``box_loss`` of matched (pred_k, target_k) rows plus its gradient.

    Args:
        pred: (k, 4) center-size boxes, differentiated side.
        target: (k, 4) center-size boxes, held fixed.

    Returns:
        (values (k,), grad (k, 4)) with grad taken w.r.t. the pred
        center-size coordinates. The values equal ``box_loss`` on the same
        rows bit for bit; at clamp kinks a one-sided subgradient is
        returned. Raises ``ValueError`` when a pair's hull is empty, since
        GIoU has no gradient there.
    """
    _check_loss_weights(gamma1, gamma2)
    pred, target = np.asarray(pred, dtype=np.float64), np.asarray(target, dtype=np.float64)
    inter, union, hull, pc, tc, iw, ih, hw, hh = _pieces(pred, target)
    if np.any(hull <= 0):
        raise ValueError("degenerate pair")

    # Gradients of the pred area, inter, union and hull w.r.t. the pred corners
    # (x0, y0, x1, y1): a corner moves the side it bounds (-1 for a lower corner,
    # +1 for an upper one), scaled by the other side. A side of the intersection
    # or hull follows the pred corner only where that corner bounds it.
    sign = np.array([-1.0, -1.0, 1.0, 1.0])
    aw, ah = pc[:, 2] - pc[:, 0], pc[:, 3] - pc[:, 1]
    d_area = sign * np.stack([ah, aw, ah, aw], axis=1)
    bounds_inter = np.concatenate([pc[:, :2] >= tc[:, :2], pc[:, 2:] <= tc[:, 2:]], axis=1)
    d_inter = sign * bounds_inter * np.stack([ih, iw, ih, iw], axis=1)
    d_inter[(iw <= 0) | (ih <= 0)] = 0.0  # no intersection; also keeps -0.0 out
    d_union = d_area - d_inter
    bounds_hull = np.concatenate([pc[:, :2] <= tc[:, :2], pc[:, 2:] >= tc[:, 2:]], axis=1)
    d_hull = sign * bounds_hull * np.stack([hh, hw, hh, hw], axis=1)

    u2 = np.where(union > 0, union * union, 1.0)
    d_iou = (d_inter * union[:, None] - inter[:, None] * d_union) / u2[:, None]
    d_iou[union <= 0] = 0.0
    d_ratio = (d_union * hull[:, None] - union[:, None] * d_hull) / (hull * hull)[:, None]
    d_corner = d_iou + d_ratio  # giou = iou - 1 + union/hull
    # Chain corners back to (cx, cy, w, h): x0 = cx - w/2, x1 = cx + w/2, etc.
    lower, upper = d_corner[:, :2], d_corner[:, 2:]
    d_giou = np.concatenate([lower + upper, (upper - lower) / 2], axis=1)

    diff = pred - target
    values = gamma1 * (1.0 - _giou(inter, union, hull)) + gamma2 * np.abs(diff).sum(axis=-1)
    return values, -gamma1 * d_giou + gamma2 * np.sign(diff)
def build_cost(targets: LabeledSet, preds: LabeledSet, gamma1: float, gamma2: float) -> CostMatrix:
    """Pairing cost between every foreground target and every prediction.

    Entry (r, j) is ``-<p_hat_j, p_i>`` plus ``box_loss(b_hat_j, b_i)``,
    where i is the r-th foreground target and the inner product runs over
    the full distribution including background.
    """
    if len(targets) != len(preds):
        raise ValueError(f"length mismatch: {len(targets)} targets vs {len(preds)} predictions")
    fg = np.flatnonzero(targets.foreground_mask())
    class_cost = -(targets.probs[fg] @ preds.probs.T)
    box_cost = box_loss(preds.boxes[None], targets.boxes[fg][:, None], gamma1, gamma2)
    return CostMatrix(class_cost + box_cost, fg)


def hungarian(cost: CostMatrix) -> Assignment:
    """Exact minimum-cost perfect assignment.

    The foreground block is solved as a rectangular problem and each
    foreground target keeps the solver's column; background targets take
    the free columns in ascending order.
    """
    _, cols = linear_sum_assignment(cost.values)
    sigma = np.full(cost.n, -1, dtype=np.int64)
    sigma[cost.rows] = cols
    free = np.ones(cost.n, dtype=bool)
    free[cols] = False
    sigma[sigma < 0] = np.flatnonzero(free)
    return Assignment(sigma)
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
        values, grads = box_loss_with_grad(pred_boxes, tgt_boxes, gamma1, gamma2)
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
