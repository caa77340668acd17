"""Shared label/prediction data model.

A ``LabeledSet`` is a fixed-length sequence of N (class distribution, box)
slots stored by columns. The last distribution index is the background
class; a slot whose argmax is the background index is considered "no
object". A single ground-truth slot is a one-row ``LabeledSet`` built by
``one_hot``; ``pad_to_n`` concatenates slots and pads them with background
slots to length N so that targets and predictions always align one-to-one.

``_top_foreground`` is the one ranking of foreground predictions: a slot's
score is its probability at its first argmax, the slots run from the most
confident down, and a score tie goes to the lower slot. Post-processing
(``metrics.detections_from_predictions``) keeps the first
``MAX_DETECTIONS_PER_IMAGE`` of that order, DKD's pseudo-label selection
(``distillation.build_distilled``) the first ``k``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Sequence

import numpy as np

from .geometry import BoundingBox

__all__ = [
    "Origin",
    "LabeledSet",
    "one_hot",
    "pad_to_n",
]

class Origin(IntEnum):
    GROUND_TRUTH = 0
    PSEUDO = 1
    BACKGROUND = 2
    PREDICTION = 3


def _argmax_and_foreground(probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The first argmax of each distribution (the last axis), and where it is not background.

    The one definition of "foreground", shared by matching, distillation and metrics: a category
    that ties the background counts, and a foreground argmax is the first over the object columns.
    """
    probs = np.asarray(probs)
    arg = probs.argmax(axis=-1)
    return arg, arg != probs.shape[-1] - 1


def _top_foreground(probs: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The k most confident foreground slots of (N, C+1) ``probs``: indices, categories, scores.

    Most confident first; a score tie goes to the lower slot. A slot's category is its first
    argmax, the first over the object columns too, and its score the probability there. The
    three results are gathered after the cut at k.
    """
    arg, mask = _argmax_and_foreground(probs)
    fg = mask.nonzero()[0]  # array methods, here and below, skip the Python wrappers of np.flatnonzero/argsort
    cats = arg[fg]
    scores = probs[fg, cats]
    kept = (-scores).argsort(kind="stable")[:k]
    return fg[kept], cats[kept], scores[kept]


@dataclass
class LabeledSet:
    """Length-N set of slots stored column-wise for fast math.

    Its constructors keep the slot rules, and nothing checks them afterwards: ``one_hot`` makes a
    ground-truth slot one-hot on a foreground category, ``pad_to_n`` a background slot one-hot on
    background with the zero box, and ``build_distilled`` a pseudo slot from an old prediction
    with a foreground argmax. Distributions are non-negative and sum to 1; boxes lie in [0, 1].

    Attributes:
        probs: (N, C+1) float64, rows sum to 1.
        boxes: (N, 4) float64 center-size boxes.
        origins: (N,) int8 ``Origin`` values.
    """

    probs: np.ndarray
    boxes: np.ndarray
    origins: np.ndarray

    def __len__(self) -> int:
        return self.probs.shape[0]

    @property
    def n_categories(self) -> int:
        return self.probs.shape[1] - 1

    def foreground_mask(self) -> np.ndarray:
        """True where a slot's argmax is not background."""
        return _argmax_and_foreground(self.probs)[1]

    def copy(self) -> "LabeledSet":
        return LabeledSet(self.probs.copy(), self.boxes.copy(), self.origins.copy())


def one_hot(category: int, box: BoundingBox, n_categories: int) -> LabeledSet:
    """Build a one-slot ground-truth set, one-hot on a foreground category index."""
    if not 0 <= category < n_categories:
        raise ValueError(f"category index {category} out of range for C={n_categories}")
    probs = np.zeros((1, n_categories + 1), dtype=np.float64)
    probs[0, category] = 1.0
    return LabeledSet(probs, box.to_array()[None], np.array([Origin.GROUND_TRUTH], dtype=np.int8))


def pad_to_n(foreground: Sequence[LabeledSet], n_queries: int, n_categories: int) -> LabeledSet:
    """Concatenate the given sets in order and pad with background slots up to length N.

    Raises when there are more slots than queries, when the distribution
    widths differ, or when the result would be empty.
    """
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
