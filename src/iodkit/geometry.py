"""Axis-aligned box geometry in normalized center-size coordinates.

Boxes are (cx, cy, w, h) with every field in [0, 1]; all measures are
fractions of the unit square. ``BoundingBox`` holds one validated box.
Every measure works on float arrays of shape (..., 4) under broadcasting:
``iou``, ``giou`` and ``box_loss`` score boxes row by row, so passing
``a[:, None]`` and ``b[None]`` scores every (a_i, b_j) pair as a matrix;
``box_loss_with_grad`` scores matched rows and returns their gradient.
All four read one set of pieces (corners, intersection, union and
enclosing hull) from ``_pieces``.

Empty areas: the value functions give IoU 0 where the union is empty, and
GIoU falls back to IoU where the hull is empty (both boxes degenerate at
one point). ``box_loss_with_grad`` raises ``ValueError`` on an empty hull,
where no gradient exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BoundingBox",
    "corners_array",
    "iou",
    "giou",
    "box_loss",
    "box_loss_with_grad",
]


@dataclass(frozen=True)
class BoundingBox:
    """Normalized center-size box."""

    cx: float
    cy: float
    w: float
    h: float

    def __post_init__(self):
        # one chained test; NaN and +-inf fail it too, and only then is the field named
        if 0.0 <= self.cx <= 1.0 and 0.0 <= self.cy <= 1.0 and 0.0 <= self.w <= 1.0 and 0.0 <= self.h <= 1.0:
            return
        for name in ("cx", "cy", "w", "h"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"box field {name} is not finite: {v!r}")
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"box field {name}={v!r} outside [0, 1]")

    def to_array(self) -> np.ndarray:
        return np.array([self.cx, self.cy, self.w, self.h], dtype=np.float64)


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


def iou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Intersection-over-union of boxes ``a`` and ``b`` broadcast over (..., 4); 0 where the union is empty."""
    inter, union, *_ = _pieces(a, b)
    return _ratio(inter, union)


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
