"""Pseudo-label construction from an old model and merging with new labels.

The old model's foreground predictions are filtered by confidence and by
overlap with the new ground truth, then concatenated (still soft) after
the ground-truth slots and padded with background to the fixed length N.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .geometry import iou_matrix
from .labels import LabeledSet, Origin

__all__ = [
    "PseudoConfig",
    "foreground_indices",
    "confidences",
    "select_confident",
    "suppress_overlap",
    "build_distilled",
]

log = logging.getLogger(__name__)

STRATEGIES = ("topk", "threshold", "curriculum")


@dataclass(frozen=True)
class PseudoConfig:
    """How many old-model predictions to keep and how much overlap to allow.

    ``strategy`` is one of ``topk`` (keep the k most confident),
    ``threshold`` (keep scores >= p), or ``curriculum`` (a threshold
    interpolated from p_start to p_end over training).
    ``overlap_ceiling`` is the largest IoU a kept prediction may have
    with any foreground ground-truth box.
    """

    strategy: str = "topk"
    k: int = 10
    p: float = 0.5
    p_start: float = 0.5
    p_end: float = 0.1
    overlap_ceiling: float = 0.7

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.strategy == "topk" and self.k < 0:
            raise ValueError("k must be >= 0")
        if self.strategy == "threshold" and not 0.0 < self.p < 1.0:
            raise ValueError("p must be in (0, 1)")
        if self.strategy == "curriculum" and not (0.0 < self.p_start < 1.0 and 0.0 < self.p_end < 1.0):
            raise ValueError("curriculum endpoints must be in (0, 1)")
        if not 0.0 <= self.overlap_ceiling <= 1.0:
            raise ValueError("overlap ceiling must be in [0, 1]")

    def threshold_at(self, epoch_fraction: float) -> float:
        if not 0.0 <= epoch_fraction <= 1.0:
            raise ValueError(f"epoch fraction {epoch_fraction!r} outside [0, 1]")
        if self.strategy == "curriculum":
            return self.p_start + (self.p_end - self.p_start) * epoch_fraction
        return self.p


def foreground_indices(old_preds: LabeledSet) -> np.ndarray:
    """Indices whose best object category beats the background score."""
    return np.flatnonzero(old_preds.foreground_mask())


def confidences(old_preds: LabeledSet, indices: np.ndarray) -> np.ndarray:
    """Best foreground-category probability per selected slot."""
    return old_preds.probs[indices, : old_preds.n_categories].max(axis=1)


def select_confident(
    fg: np.ndarray,
    old_preds: LabeledSet,
    cfg: PseudoConfig,
    epoch_fraction: float = 0.0,
) -> np.ndarray:
    """Confidence filter; returns indices in ascending order.

    Top-k keeps the k highest confidences with ties going to the lower
    index; asking for more than available returns everything. Every
    strategy rejects an ``epoch_fraction`` outside [0, 1].
    """
    p = cfg.threshold_at(epoch_fraction)
    fg = np.asarray(fg, dtype=np.int64)
    if fg.size == 0:
        return fg
    conf = confidences(old_preds, fg)
    if cfg.strategy == "topk":
        k = min(cfg.k, fg.size)
        if k == 0:
            return fg[:0]
        order = np.lexsort((fg, -conf))  # confidence desc, index asc on ties
        return np.sort(fg[order[:k]])
    return fg[conf >= p]


def suppress_overlap(
    selected: np.ndarray,
    old_preds: LabeledSet,
    gt: LabeledSet,
    overlap_ceiling: float,
) -> np.ndarray:
    """Drop predictions whose IoU with any foreground truth exceeds the ceiling."""
    selected = np.asarray(selected, dtype=np.int64)
    if selected.size == 0:
        return selected
    gt_fg = np.flatnonzero(gt.foreground_mask())
    if gt_fg.size == 0:
        return selected
    overlaps = iou_matrix(old_preds.boxes[selected], gt.boxes[gt_fg])
    keep = (overlaps <= overlap_ceiling).all(axis=1)
    return selected[keep]


def build_distilled(
    gt: LabeledSet,
    old_preds: LabeledSet,
    cfg: PseudoConfig,
    epoch_fraction: float = 0.0,
) -> LabeledSet:
    """Merge ground truth with the surviving old-model predictions.

    Ground-truth slots come first (unmodified, original order), then the
    kept predictions as soft pseudo slots in index order, then background
    padding to length N. When truth and pseudo slots together exceed N
    the lowest-confidence pseudo slots are dropped.
    """
    if len(gt) != len(old_preds) or gt.n_categories != old_preds.n_categories:
        raise ValueError("ground truth and old predictions must share N and C")
    n = len(gt)
    c = gt.n_categories

    fg = foreground_indices(old_preds)
    picked = select_confident(fg, old_preds, cfg, epoch_fraction)
    kept = suppress_overlap(picked, old_preds, gt, cfg.overlap_ceiling)

    gt_idx = np.flatnonzero(gt.foreground_mask())
    budget = n - gt_idx.size
    if kept.size > budget:
        n_dropped = int(kept.size - budget)
        conf = confidences(old_preds, kept)
        # drop ascending confidence, preferring to drop the higher index on ties
        drop_order = np.lexsort((-kept, conf))
        kept = np.sort(kept[drop_order[n_dropped:]])
        log.warning("pseudo truncated: dropped %d low-confidence slots", n_dropped)

    n_fg = gt_idx.size + kept.size
    probs = np.zeros((n, c + 1), dtype=np.float64)
    boxes = np.zeros((n, 4), dtype=np.float64)
    origins = np.full(n, Origin.BACKGROUND, dtype=np.int8)

    probs[: gt_idx.size] = gt.probs[gt_idx]
    boxes[: gt_idx.size] = gt.boxes[gt_idx]
    origins[: gt_idx.size] = gt.origins[gt_idx]

    sl = slice(gt_idx.size, n_fg)
    probs[sl] = old_preds.probs[kept]
    boxes[sl] = old_preds.boxes[kept]
    origins[sl] = Origin.PSEUDO

    probs[n_fg:, c] = 1.0

    return LabeledSet(probs, boxes, origins)
