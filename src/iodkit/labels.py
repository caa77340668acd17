"""Shared label/prediction data model.

A ``LabeledSet`` is a sequence of N (class distribution, box, origin) slots
stored by columns. The last distribution index is the background class; a
slot whose argmax is the background index is considered "no object".

A set stores only its given slots and how many slots follow them up to its
length N. Every slot past the given ones is background padding: one-hot on
background, the zero box, ``Origin.BACKGROUND``, a rule kept in this module
alone. A DETR matcher (Carion et al., 2020) likewise takes an image's
targets as its k labelled objects and treats every unmatched query as "no
object", so a target set costs its k given slots, not N. A single
ground-truth slot is a one-row set built by ``one_hot``; ``pad_to_n``
concatenates sets into the given slots of a set of length N without
allocating its padding, so that targets and predictions always align
one-to-one. A set built directly from N-row arrays, such as every
prediction set, has no padding.

``probs``, ``boxes`` and ``origins`` read as N-slot arrays: a set without
padding returns its stored arrays, and a padded set builds fresh read-only
ones on each read and keeps none. ``copy()`` gives a set without padding
whose arrays are writable. ``len``, ``n_categories``,
``foreground_mask()`` and ``_foreground_given()`` build no N-slot array, and
matching, the set loss and DKD read the given rows directly.

``_top_foreground`` is the one ranking of foreground predictions: a slot's
score is its probability at its first argmax, the slots run from the most
confident down, and a score tie goes to the lower slot. Post-processing
(``metrics.detections_from_predictions``) keeps the first
``MAX_DETECTIONS_PER_IMAGE`` of that order, DKD's pseudo-label selection
(``distillation.build_distilled``) the first ``k``.
"""

from __future__ import annotations

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


def _padded(given: np.ndarray, pad: int, fill) -> np.ndarray:
    """A fresh read-only copy of ``given`` with ``pad`` rows of ``fill`` after it."""
    k = given.shape[0]
    out = np.empty((k + pad, *given.shape[1:]), dtype=given.dtype)
    out[:k] = given
    out[k:] = fill
    out.flags.writeable = False
    return out


class LabeledSet:
    """Length-N set of slots stored column-wise: the given slots, then implicit background padding.

    ``LabeledSet(probs, boxes, origins)`` gives all N slots and pads none. ``pad_to_n`` and
    ``build_distilled`` give the first k slots and leave N - k slots of padding, one-hot on
    background with the zero box and ``Origin.BACKGROUND``, which are never stored. The
    constructors keep the slot rules, and nothing checks them afterwards: ``one_hot`` makes a
    ground-truth slot one-hot on a foreground category and ``build_distilled`` a pseudo slot from
    an old prediction with a foreground argmax. Distributions are non-negative and sum to 1;
    boxes lie in [0, 1].

    Attributes:
        probs: (N, C+1) float64, rows sum to 1.
        boxes: (N, 4) float64 center-size boxes.
        origins: (N,) int8 ``Origin`` values.

    The three read as N-slot arrays. A set without padding returns the arrays it stores, which
    may be written in place or replaced; a padded set builds them on each read, read-only, keeps
    none of them, and refuses a replacement. ``copy()`` returns a set without padding whose
    arrays are writable.
    """

    __slots__ = ("_probs", "_boxes", "_origins", "_pad")

    def __init__(self, probs: np.ndarray, boxes: np.ndarray, origins: np.ndarray):
        self._probs, self._boxes, self._origins = probs, boxes, origins  # the given slots
        self._pad = 0  # how many padding slots follow them

    def _replace(self, name: str, value: np.ndarray) -> None:
        if self._pad:
            raise AttributeError("the slots of a padded set are read-only; replace those of its copy()")
        setattr(self, name, value)

    @property
    def probs(self) -> np.ndarray:
        if not self._pad:
            return self._probs
        width = self._probs.shape[1]
        return _padded(self._probs, self._pad, np.arange(width) == width - 1)  # one-hot on background

    @probs.setter
    def probs(self, value: np.ndarray) -> None:
        self._replace("_probs", value)

    @property
    def boxes(self) -> np.ndarray:
        if not self._pad:
            return self._boxes
        return _padded(self._boxes, self._pad, 0.0)

    @boxes.setter
    def boxes(self, value: np.ndarray) -> None:
        self._replace("_boxes", value)

    @property
    def origins(self) -> np.ndarray:
        if not self._pad:
            return self._origins
        return _padded(self._origins, self._pad, Origin.BACKGROUND)

    @origins.setter
    def origins(self, value: np.ndarray) -> None:
        self._replace("_origins", value)

    def __len__(self) -> int:
        return self._probs.shape[0] + self._pad

    @property
    def n_categories(self) -> int:
        return self._probs.shape[1] - 1

    def foreground_mask(self) -> np.ndarray:
        """True where a slot's argmax is not background; padding never is."""
        mask = np.zeros(len(self), dtype=bool)
        mask[: self._probs.shape[0]] = _argmax_and_foreground(self._probs)[1]
        return mask

    def _foreground_given(self) -> np.ndarray:
        """Indices of the foreground slots, all of them given ones, as padding never is foreground."""
        return _argmax_and_foreground(self._probs)[1].nonzero()[0]

    def copy(self) -> "LabeledSet":
        """A set without padding, its N-slot arrays fresh and writable."""
        return LabeledSet(np.array(self.probs), np.array(self.boxes), np.array(self.origins))


def one_hot(category: int, box: BoundingBox, n_categories: int) -> LabeledSet:
    """Build a one-slot ground-truth set, one-hot on a foreground category index."""
    if not 0 <= category < n_categories:
        raise ValueError(f"category index {category} out of range for C={n_categories}")
    probs = np.zeros((1, n_categories + 1), dtype=np.float64)
    probs[0, category] = 1.0
    return LabeledSet(probs, box.to_array()[None], np.array([Origin.GROUND_TRUTH], dtype=np.int8))


def pad_to_n(foreground: Sequence[LabeledSet], n_queries: int, n_categories: int) -> LabeledSet:
    """Concatenate the given sets in order into the given slots of a set of length N.

    The slots past them are background padding, which is not allocated.
    Raises when there are more slots than queries, when the distribution
    widths differ, or when the result would be empty.
    """
    if n_queries < 1:
        raise ValueError(f"cannot build an empty set: N={n_queries}")
    k = sum(len(s) for s in foreground)
    if k > n_queries:
        raise ValueError(f"capacity exceeded: {k} foreground slots > N={n_queries}")
    if not k:
        probs, boxes, origins = np.zeros((0, n_categories + 1)), np.zeros((0, 4)), np.zeros(0, dtype=np.int8)
    elif any(s.n_categories != n_categories for s in foreground):
        raise ValueError("inconsistent distribution widths")
    else:
        probs = np.concatenate([s.probs for s in foreground], dtype=np.float64)
        boxes = np.concatenate([s.boxes for s in foreground], dtype=np.float64)
        origins = np.concatenate([s.origins for s in foreground], dtype=np.int8)
    out = LabeledSet(probs, boxes, origins)
    out._pad = n_queries - k
    return out
