"""Axis-aligned box geometry in normalized center-size coordinates.

Boxes are (cx, cy, w, h) with every field in [0, 1]; all measures are
fractions of the unit square. ``BoundingBox`` holds one validated box;
every measure works on float arrays of shape (..., 4): the ``*_matrix``
functions score every (a_i, b_j) pair, the ``*_pairs_with_grad`` ones
matched rows with their gradients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BoundingBox",
    "corners_array",
    "iou_matrix",
    "giou_matrix",
    "l1_matrix",
    "box_loss_matrix",
    "giou_pairs_with_grad",
    "box_loss_pairs_with_grad",
]


@dataclass(frozen=True)
class BoundingBox:
    """Normalized center-size box."""

    cx: float
    cy: float
    w: float
    h: float

    def __post_init__(self):
        for name in ("cx", "cy", "w", "h"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"box field {name} is not finite: {v!r}")
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"box field {name}={v!r} outside [0, 1]")

    def to_array(self) -> np.ndarray:
        return np.array([self.cx, self.cy, self.w, self.h], dtype=np.float64)

    @staticmethod
    def from_array(a) -> "BoundingBox":
        cx, cy, w, h = (float(v) for v in a)
        return BoundingBox(cx, cy, w, h)


def corners_array(boxes: np.ndarray) -> np.ndarray:
    """(..., 4) center-size -> (..., 4) corner coordinates."""
    boxes = np.asarray(boxes, dtype=np.float64)
    cx, cy, w, h = boxes[..., 0], boxes[..., 1], boxes[..., 2], boxes[..., 3]
    return np.stack([cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2], axis=-1)


def _pairwise_pieces(a: np.ndarray, b: np.ndarray):
    """Intersection, union, and hull areas for every (a_i, b_j) pair."""
    ca = corners_array(a)[:, None, :]  # (n, 1, 4)
    cb = corners_array(b)[None, :, :]  # (1, m, 4)
    iw = np.minimum(ca[..., 2], cb[..., 2]) - np.maximum(ca[..., 0], cb[..., 0])
    ih = np.minimum(ca[..., 3], cb[..., 3]) - np.maximum(ca[..., 1], cb[..., 1])
    inter = np.clip(iw, 0.0, None) * np.clip(ih, 0.0, None)
    area_a = (ca[..., 2] - ca[..., 0]) * (ca[..., 3] - ca[..., 1])
    area_b = (cb[..., 2] - cb[..., 0]) * (cb[..., 3] - cb[..., 1])
    union = area_a + area_b - inter
    hw = np.maximum(ca[..., 2], cb[..., 2]) - np.minimum(ca[..., 0], cb[..., 0])
    hh = np.maximum(ca[..., 3], cb[..., 3]) - np.minimum(ca[..., 1], cb[..., 1])
    hull = hw * hh
    return inter, union, hull


def iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise intersection-over-union, (n, m). Zero where the union is empty."""
    inter, union, _ = _pairwise_pieces(a, b)
    out = np.zeros_like(union)
    np.divide(inter, union, out=out, where=union > 0)
    return out


def giou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise generalized IoU, (n, m).

    Pairs whose enclosing hull is empty (both boxes degenerate at the same
    point) fall back to plain IoU (= 0).
    """
    inter, union, hull = _pairwise_pieces(a, b)
    iou_v = np.zeros_like(union)
    np.divide(inter, union, out=iou_v, where=union > 0)
    penalty = np.zeros_like(hull)
    np.divide(hull - union, hull, out=penalty, where=hull > 0)
    return iou_v - penalty


def l1_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise L1 distance between center-size vectors, (n, m)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return np.abs(a[:, None, :] - b[None, :, :]).sum(axis=-1)


def _check_loss_weights(gamma1: float, gamma2: float) -> None:
    if gamma1 < 0 or gamma2 < 0:
        raise ValueError("loss weights must be non-negative")


def box_loss_matrix(preds: np.ndarray, targets: np.ndarray, gamma1: float, gamma2: float) -> np.ndarray:
    """Pairwise regression loss gamma1*(1 - GIoU) + gamma2*L1, (n_pred, n_target)."""
    _check_loss_weights(gamma1, gamma2)
    return gamma1 * (1.0 - giou_matrix(preds, targets)) + gamma2 * l1_matrix(preds, targets)


def giou_pairs_with_grad(pred: np.ndarray, target: np.ndarray):
    """Elementwise GIoU for matched (pred_k, target_k) rows plus its gradient.

    Args:
        pred: (k, 4) center-size boxes, differentiated side.
        target: (k, 4) center-size boxes, held fixed.

    Returns:
        (values (k,), grad (k, 4)) with grad taken w.r.t. the pred
        center-size coordinates. At clamp kinks a one-sided subgradient
        is returned.
    """
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    p = corners_array(pred)
    t = corners_array(target)
    px0, py0, px1, py1 = p[:, 0], p[:, 1], p[:, 2], p[:, 3]
    tx0, ty0, tx1, ty1 = t[:, 0], t[:, 1], t[:, 2], t[:, 3]

    aw, ah = px1 - px0, py1 - py0
    area_p = aw * ah
    area_t = (tx1 - tx0) * (ty1 - ty0)

    iw = np.minimum(px1, tx1) - np.maximum(px0, tx0)
    ih = np.minimum(py1, ty1) - np.maximum(py0, ty0)
    has_inter = (iw > 0) & (ih > 0)
    iw_c = np.where(has_inter, iw, 0.0)
    ih_c = np.where(has_inter, ih, 0.0)
    inter = iw_c * ih_c

    union = area_p + area_t - inter
    hw = np.maximum(px1, tx1) - np.minimum(px0, tx0)
    hh = np.maximum(py1, ty1) - np.minimum(py0, ty0)
    hull = hw * hh
    if np.any(hull <= 0):
        raise ValueError("degenerate pair")

    iou_v = np.where(union > 0, inter / np.where(union > 0, union, 1.0), 0.0)
    giou_v = iou_v - (hull - union) / hull

    # Corner gradients. d(area_p), d(inter), d(union), d(hull) w.r.t. the
    # four pred corners, stacked as (k, 4) in (x0, y0, x1, y1) order.
    d_area = np.stack([-ah, -aw, ah, aw], axis=1)
    diw_dx0 = -(px0 >= tx0).astype(np.float64)
    diw_dx1 = (px1 <= tx1).astype(np.float64)
    dih_dy0 = -(py0 >= ty0).astype(np.float64)
    dih_dy1 = (py1 <= ty1).astype(np.float64)
    d_inter = np.stack(
        [ih_c * diw_dx0, iw_c * dih_dy0, ih_c * diw_dx1, iw_c * dih_dy1], axis=1
    )
    d_inter[~has_inter] = 0.0
    d_union = d_area - d_inter
    dhw_dx0 = -(px0 <= tx0).astype(np.float64)
    dhw_dx1 = (px1 >= tx1).astype(np.float64)
    dhh_dy0 = -(py0 <= ty0).astype(np.float64)
    dhh_dy1 = (py1 >= ty1).astype(np.float64)
    d_hull = np.stack([hh * dhw_dx0, hw * dhh_dy0, hh * dhw_dx1, hw * dhh_dy1], axis=1)

    u2 = np.where(union > 0, union * union, 1.0)
    d_iou = (d_inter * union[:, None] - inter[:, None] * d_union) / u2[:, None]
    d_iou[union <= 0] = 0.0
    d_ratio = (d_union * hull[:, None] - union[:, None] * d_hull) / (hull * hull)[:, None]
    d_corner = d_iou + d_ratio  # giou = iou - 1 + union/hull

    # Chain corners back to (cx, cy, w, h): x0 = cx - w/2, x1 = cx + w/2, etc.
    grad = np.empty_like(d_corner)
    grad[:, 0] = d_corner[:, 0] + d_corner[:, 2]
    grad[:, 1] = d_corner[:, 1] + d_corner[:, 3]
    grad[:, 2] = (d_corner[:, 2] - d_corner[:, 0]) / 2
    grad[:, 3] = (d_corner[:, 3] - d_corner[:, 1]) / 2
    return giou_v, grad


def box_loss_pairs_with_grad(pred: np.ndarray, target: np.ndarray, gamma1: float, gamma2: float):
    """Matched-pair box loss and its gradient w.r.t. pred center-size coords."""
    _check_loss_weights(gamma1, gamma2)
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    giou_v, giou_g = giou_pairs_with_grad(pred, target)
    diff = pred - target
    values = gamma1 * (1.0 - giou_v) + gamma2 * np.abs(diff).sum(axis=1)
    grads = -gamma1 * giou_g + gamma2 * np.sign(diff)
    return values, grads
