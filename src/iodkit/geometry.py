"""Axis-aligned box geometry in normalized center-size coordinates.

Boxes are (cx, cy, w, h) with every field in [0, 1]; all measures are
fractions of the unit square. ``BoundingBox`` holds one validated box; it
is a frozen, slotted dataclass (no instance ``__dict__``) whose constructor
checks every field.
Every measure works on float arrays of shape (..., 4) under broadcasting:
``iou`` and ``box_loss`` score boxes row by row, so passing ``a[:, None]``
and ``b[None]`` scores every (a_i, b_j) pair as a matrix;
``box_loss_with_grad`` scores matched rows and returns their gradient.
Both losses take GIoU from ``_giou``.
All three work on coordinate planes: ``_planes`` lays each set of boxes out
once as a contiguous (4, ...) array, one row each for the cx, cy, w and h
of every box, the box axes following in order, so the two sets' planes
broadcast as their boxes do. ``_pieces`` is the one place where corners,
intersection, union and enclosing hull are formed: each side (w, h) comes
from one subtraction of (2, ...) corner rows, and every NumPy call runs
its inner loop along a row of boxes, not along an x/y pair. The public
functions make their inputs float64 once.

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
    "iou",
    "box_loss",
    "box_loss_with_grad",
]


@dataclass(frozen=True, slots=True)
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


def _planes(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Contiguous (4, ...) coordinate planes (cx, cy, w, h) of float64 boxes broadcast over (..., 4)."""
    if a.ndim != b.ndim:
        a, b = np.broadcast_arrays(a, b)
    axes = (-1, *range(a.ndim - 1))
    return a.transpose(axes).copy(), b.transpose(axes).copy()


def _pieces(a: np.ndarray, b: np.ndarray):
    """Shared measures of the boxes in the coordinate planes ``a`` and ``b`` of ``_planes``.

    Returns the areas (inter, union, hull); the (2, ...) lower corners
    (x0, y0) and upper corners (x1, y1) of a and of b; and the (2, ...) sides
    (w, h) of a, of the intersection clipped at 0 and of the hull.
    """
    half_a, half_b = a[2:] / 2, b[2:] / 2
    lo_a, hi_a = a[:2] - half_a, a[:2] + half_a
    lo_b, hi_b = b[:2] - half_b, b[:2] + half_b
    side_i = np.minimum(hi_a, hi_b) - np.maximum(lo_a, lo_b)
    np.maximum(side_i, 0.0, out=side_i)
    side_h = np.maximum(hi_a, hi_b) - np.minimum(lo_a, lo_b)
    side_a, side_b = hi_a - lo_a, hi_b - lo_b
    inter = side_i[0] * side_i[1]
    union = side_a[0] * side_a[1] + side_b[0] * side_b[1] - inter
    hull = side_h[0] * side_h[1]
    return inter, union, hull, lo_a, hi_a, lo_b, hi_b, side_a, side_i, side_h


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den, zero where den is not positive."""
    out = np.zeros(den.shape)
    np.divide(num, den, out=out, where=den > 0)
    return out


def _giou(inter: np.ndarray, union: np.ndarray, hull: np.ndarray) -> np.ndarray:
    return _ratio(inter, union) - _ratio(hull - union, hull)


def iou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Intersection-over-union of boxes ``a`` and ``b`` broadcast over (..., 4); 0 where the union is empty."""
    inter, union, *_ = _pieces(*_planes(np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)))
    return _ratio(inter, union)


def _check_loss_weights(gamma1: float, gamma2: float) -> None:
    if gamma1 < 0 or gamma2 < 0:
        raise ValueError("loss weights must be non-negative")


def box_loss(preds: np.ndarray, targets: np.ndarray, gamma1: float, gamma2: float) -> np.ndarray:
    """Regression loss gamma1*(1 - GIoU) + gamma2*L1 of boxes broadcast over (..., 4)."""
    _check_loss_weights(gamma1, gamma2)
    p, t = _planes(np.asarray(preds, dtype=np.float64), np.asarray(targets, dtype=np.float64))
    # a sum over the planes adds ((cx + cy) + w) + h, as one over the last axis of (..., 4) boxes does
    return gamma1 * (1.0 - _giou(*_pieces(p, t)[:3])) + gamma2 * np.abs(p - t).sum(axis=0)


# Sign of each pred corner coordinate (x0, y0, x1, y1) in the side it bounds, one row each.
_SIGN = np.array([[-1.0], [-1.0], [1.0], [1.0]])
# Rows of the stacked sides (w, h) of pred, intersection and hull that the corners scale: (h, w, h, w).
_SWAPPED = np.array([[1, 0, 1, 0], [3, 2, 3, 2], [5, 4, 5, 4]])


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
    p, t = _planes(np.asarray(pred, dtype=np.float64), np.asarray(target, dtype=np.float64))
    inter, union, hull, lo_p, hi_p, lo_t, hi_t, side_p, side_i, side_h = _pieces(p, t)
    if (hull <= 0).any():
        raise ValueError("degenerate pair")

    # Gradients of the pred area, inter and hull w.r.t. the pred corners (x0, y0, x1, y1),
    # one (4, k) plane each: a corner moves the side it bounds (-1 for a lower corner, +1 for
    # an upper one), scaled by the other side. The pred's own sides (bounds row 0) always follow
    # its corners; a side of the intersection or hull only where that corner bounds it.
    bounds = np.ones((3, 4, p.shape[1]), dtype=bool)
    np.greater_equal(lo_p, lo_t, out=bounds[1, :2])
    np.less_equal(hi_p, hi_t, out=bounds[1, 2:])
    np.less_equal(lo_p, lo_t, out=bounds[2, :2])
    np.greater_equal(hi_p, hi_t, out=bounds[2, 2:])
    d_area, d_inter, d_hull = _SIGN * bounds * np.concatenate([side_p, side_i, side_h])[_SWAPPED]
    d_inter[:, (side_i <= 0).any(axis=0)] = 0.0  # no intersection; also keeps -0.0 out
    d_union = d_area - d_inter

    d_iou = (d_inter * union - inter * d_union) / np.where(union > 0, union * union, 1.0)
    d_iou[:, union <= 0] = 0.0
    d_ratio = (d_union * hull - union * d_hull) / (hull * hull)
    d_corner = d_iou + d_ratio  # giou = iou - 1 + union/hull
    # Chain corners back to (cx, cy, w, h): x0 = cx - w/2, x1 = cx + w/2, etc.
    lower, upper = d_corner[:2], d_corner[2:]
    d_giou = np.concatenate([lower + upper, (upper - lower) / 2])

    diff = p - t
    values = gamma1 * (1.0 - _giou(inter, union, hull)) + gamma2 * np.abs(diff).sum(axis=0)
    return values, (-gamma1 * d_giou + gamma2 * np.sign(diff)).T
