"""Pseudo-label construction from an old model and merging with new labels.

The old model's k most confident foreground predictions are kept, in the
order of ``labels._top_foreground`` (the ranking post-processing also reads:
most confident first, a score tie to the lower slot), less any that overlap
the new ground truth beyond a ceiling. When the survivors do not fit beside
the ground truth, the tail of that order is dropped. They are then
concatenated (still soft), in slot order, after the ground-truth slots as
the given slots of a set of the fixed length N; the rest is background
padding, which ``pad_to_n`` does not allocate.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .geometry import iou
from .labels import LabeledSet, Origin, _top_foreground, pad_to_n

__all__ = ["PseudoConfig", "build_distilled"]

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class PseudoConfig:
    """How many old-model predictions to keep and how much overlap to allow.

    ``k``, an integer (a bool is not), is how many of the most confident
    foreground predictions are kept. ``overlap_ceiling`` is the largest IoU
    a kept prediction may have with any foreground ground-truth box.
    """

    k: int = 10
    overlap_ceiling: float = 0.7

    def __post_init__(self):
        if isinstance(self.k, bool) or not isinstance(self.k, (int, np.integer)):
            raise ValueError(f"k must be an integer, got {self.k!r}")
        if self.k < 0:
            raise ValueError("k must be >= 0")
        if not 0.0 <= self.overlap_ceiling <= 1.0:
            raise ValueError("overlap ceiling must be in [0, 1]")


def build_distilled(gt: LabeledSet, old_preds: LabeledSet, cfg: PseudoConfig) -> LabeledSet:
    """Merge ground truth with the surviving old-model predictions.

    Ground-truth slots come first (unmodified, original order), then the
    kept predictions as soft pseudo slots in index order, then background
    padding to length N, which is not stored. The ground truth is read from
    the given slots of ``gt``. When truth and pseudo slots together exceed N
    the lowest-confidence pseudo slots are dropped.
    """
    if len(gt) != len(old_preds) or gt.n_categories != old_preds.n_categories:
        raise ValueError("ground truth and old predictions must share N and C")
    gt_idx = gt._foreground_given()
    kept = _top_foreground(old_preds.probs, cfg.k)[0]
    if kept.size and gt_idx.size:
        overlaps = iou(old_preds.boxes[kept][:, None], gt._boxes[gt_idx][None])
        kept = kept[(overlaps <= cfg.overlap_ceiling).all(axis=1)]
    budget = len(gt) - gt_idx.size
    if kept.size > budget:
        log.warning("pseudo truncated: dropped %d low-confidence slots", kept.size - budget)
        kept = kept[:budget]
    kept.sort()

    truth = LabeledSet(gt._probs[gt_idx], gt._boxes[gt_idx], gt._origins[gt_idx])
    pseudo = LabeledSet(old_preds.probs[kept], old_preds.boxes[kept], np.full(kept.size, Origin.PSEUDO, dtype=np.int8))
    return pad_to_n([truth, pseudo], len(gt), gt.n_categories)
