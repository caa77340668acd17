"""Shared label/prediction data model.

A ``LabeledSet`` is a fixed-length sequence of N (class distribution, box)
slots stored by columns. The last distribution index is the background
class; a slot whose argmax is the background index is considered "no
object". A single ground-truth slot is a one-row ``LabeledSet`` built by
``one_hot``; ``pad_to_n`` concatenates slots and pads them with background
slots to length N so that targets and predictions always align one-to-one.
Background slots come only from ``pad_to_n``.

``_top_foreground`` is the one ranking of foreground predictions: a slot's
score is its probability at its first argmax, the slots run from the most
confident down, and a score tie goes to the lower slot. Post-processing
(``metrics.detections_from_predictions``) keeps the first
``max_detections`` of that order, DKD's pseudo-label selection
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

PROB_TOL = 1e-9


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

    def validate(self) -> None:
        """Raise ``ValueError`` naming the first slot that breaks a rule.

        Every slot needs a known origin, a finite box inside [0, 1] and a
        finite, non-negative distribution summing to 1. Ground-truth slots
        are one-hot on a foreground category, background slots one-hot on
        background with the zero box, pseudo slots have a foreground
        argmax, and no two foreground slots share a (category, box).
        """
        p = np.asarray(self.probs, dtype=np.float64)
        if p.ndim != 2 or p.shape[1] < 2:
            raise ValueError("probs must be (N, C+1) over >= 1 category plus background")
        n, bg = p.shape[0], p.shape[1] - 1
        if self.boxes.shape != (n, 4) or self.origins.shape != (n,):
            raise ValueError(f"inconsistent array shapes: {p.shape}, {self.boxes.shape}, {self.origins.shape}")
        b, o = self.boxes, self.origins
        arg = p.argmax(axis=1)
        finite = np.isfinite(p).all(axis=1)
        sums = np.where(finite[:, None], p, 0.0).sum(axis=1)  # no inf - inf; the finiteness rule reports such rows
        rules = [
            (~np.isin(o, list(Origin)), "unknown origin"),
            (~((b >= 0.0) & (b <= 1.0)).all(axis=1), "box is not finite or outside [0, 1]"),
            (~finite | (p < 0).any(axis=1), "distribution entries must be finite and non-negative"),
            (np.abs(sums - 1.0) > PROB_TOL, "distribution does not sum to 1"),
            (
                (o == Origin.GROUND_TRUTH) & ((arg == bg) | (p[np.arange(n), arg] != 1.0)),
                "ground-truth slot must be one-hot on a foreground category",
            ),
            (
                (o == Origin.BACKGROUND) & ((p[:, bg] != 1.0) | (b != 0.0).any(axis=1)),
                "background slot must be one-hot on background with the zero box",
            ),
            ((o == Origin.PSEUDO) & (arg == bg), "pseudo slot argmax must be a foreground category"),
        ]
        bad = np.array([mask for mask, _ in rules])
        if bad.any():
            i = int(np.flatnonzero(bad.any(axis=0))[0])
            why = rules[int(np.argmax(bad[:, i]))][1]
            raise ValueError(f"slot {i}: {why} (probs {p[i].tolist()}, box {b[i].tolist()}, origin {o[i]})")
        # sorted stably by (category, box), a foreground slot equal to its predecessor repeats an earlier slot
        fg = np.flatnonzero(arg != bg)
        keys = np.column_stack([arg[fg], b[fg]])
        order = np.lexsort(keys.T[::-1])
        repeats = fg[order[1:][(keys[order[1:]] == keys[order[:-1]]).all(axis=1)]]
        if repeats.size:
            raise ValueError(f"slot {repeats.min()}: duplicate foreground slot")


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
    k = sum(len(s) for s in foreground)
    if k > n_queries:
        raise ValueError(f"capacity exceeded: {k} foreground slots > N={n_queries}")
    if n_queries == 0:
        raise ValueError("cannot build an empty set")
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
