"""The DKD pseudo-label selection that ``iodkit.distillation.build_distilled`` ran before one ranking.

Kept verbatim as the differential oracle of ``build_distilled``:
``select_confident`` ranks the foreground slots with a ``lexsort`` on
(-confidence, index) and returns the top k in index order,
``suppress_overlap`` drops those above the overlap ceiling, and truncation
ranks the survivors a second time, with the mirrored ``lexsort`` on
(confidence, -index). It pads with ``pad_to_n_dense``, the ``pad_to_n`` of
that time, which stores every background slot. Every set ``build_distilled``
returns must read as this module's N-slot arrays byte for byte, with the same
truncation warning.
"""

from __future__ import annotations

import logging

import numpy as np

from iodkit.distillation import PseudoConfig
from iodkit.geometry import iou
from iodkit.labels import LabeledSet, Origin

log = logging.getLogger(__name__)


def pad_to_n_dense(foreground, n_queries: int, n_categories: int) -> LabeledSet:
    """Concatenate the given sets in order and pad with background slots up to length N."""
    if n_queries < 1:
        raise ValueError(f"cannot build an empty set: N={n_queries}")
    k = sum(len(s) for s in foreground)
    if k > n_queries:
        raise ValueError(f"capacity exceeded: {k} foreground slots > N={n_queries}")
    width = n_categories + 1
    probs = np.zeros((n_queries, width), dtype=np.float64)
    boxes = np.zeros((n_queries, 4), dtype=np.float64)
    origins = np.full(n_queries, int(Origin.BACKGROUND), dtype=np.int8)
    if k:
        if any(s.probs.shape[1:] != (width,) for s in foreground):
            raise ValueError("inconsistent distribution widths")
        probs[:k] = np.concatenate([s.probs for s in foreground])
        boxes[:k] = np.concatenate([s.boxes for s in foreground])
        origins[:k] = np.concatenate([s.origins for s in foreground])
    probs[k:, n_categories] = 1.0
    return LabeledSet(probs, boxes, origins)


def _confidences(old_preds: LabeledSet, indices: np.ndarray) -> np.ndarray:
    """Best foreground-category probability per selected slot."""
    return old_preds.probs[indices, : old_preds.n_categories].max(axis=1)


def select_confident(old_preds: LabeledSet, k: int) -> np.ndarray:
    """The k most confident foreground slots, in ascending index order.

    A slot is foreground when its best object category at least ties the
    background score (``foreground_mask``); its confidence is that
    category's probability. Ties go to the lower index; asking for more
    than there are returns every foreground slot.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    fg = np.flatnonzero(old_preds.foreground_mask())
    if k >= fg.size:
        return fg
    order = np.lexsort((fg, -_confidences(old_preds, fg)))  # confidence desc, index asc on ties
    return np.sort(fg[order[:k]])


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
    overlaps = iou(old_preds.boxes[selected][:, None], gt.boxes[gt_fg][None])
    keep = (overlaps <= overlap_ceiling).all(axis=1)
    return selected[keep]


def build_distilled(gt: LabeledSet, old_preds: LabeledSet, cfg: PseudoConfig) -> LabeledSet:
    """Merge ground truth with the surviving old-model predictions.

    Ground-truth slots come first (unmodified, original order), then the
    kept predictions as soft pseudo slots in index order, then background
    padding to length N. When truth and pseudo slots together exceed N
    the lowest-confidence pseudo slots are dropped.
    """
    if len(gt) != len(old_preds) or gt.n_categories != old_preds.n_categories:
        raise ValueError("ground truth and old predictions must share N and C")
    picked = select_confident(old_preds, cfg.k)
    kept = suppress_overlap(picked, old_preds, gt, cfg.overlap_ceiling)

    gt_idx = np.flatnonzero(gt.foreground_mask())
    budget = len(gt) - gt_idx.size
    if kept.size > budget:
        n_dropped = int(kept.size - budget)
        conf = _confidences(old_preds, kept)
        # drop ascending confidence, preferring to drop the higher index on ties
        drop_order = np.lexsort((-kept, conf))
        kept = np.sort(kept[drop_order[n_dropped:]])
        log.warning("pseudo truncated: dropped %d low-confidence slots", n_dropped)

    truth = LabeledSet(gt.probs[gt_idx], gt.boxes[gt_idx], gt.origins[gt_idx])
    pseudo = LabeledSet(old_preds.probs[kept], old_preds.boxes[kept], np.full(kept.size, Origin.PSEUDO, dtype=np.int8))
    return pad_to_n_dense([truth, pseudo], len(gt), gt.n_categories)
