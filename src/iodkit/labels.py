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

``probs``, ``boxes`` and ``origins`` read as N-slot arrays through one
descriptor, ``_Slots``, declared with the padding row of each: a set without
padding returns its stored arrays and accepts replacements, and a padded set
builds fresh read-only ones on each read, keeps none and refuses a
replacement. ``copy()`` gives a set without padding whose arrays are
writable. ``len``, ``n_categories``, ``foreground_mask()`` and
``_foreground_given()`` build no N-slot array, and matching, the set loss
and DKD read the given rows directly.

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


class _Slots:
    """An N-slot column of ``LabeledSet``: its given rows, stored as ``_<name>``, then a ``fill`` row per padding slot.

    ``fill`` is the padding row, or a function of the given rows that returns it.
    """

    __slots__ = ("fill", "name")

    def __init__(self, fill):
        self.fill = fill

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = "_" + name

    def __get__(self, obj, owner=None):
        if obj is not None and not obj._pad:  # every prediction set: tested first, as reads are many
            return getattr(obj, self.name)
        if obj is None:
            return self
        given = getattr(obj, self.name)
        k = given.shape[0]
        out = np.empty((k + obj._pad, *given.shape[1:]), dtype=given.dtype)
        out[:k] = given
        out[k:] = self.fill(given) if callable(self.fill) else self.fill
        out.flags.writeable = False
        return out

    def __set__(self, obj, value: np.ndarray) -> None:
        if obj._pad:
            raise AttributeError("the slots of a padded set are read-only; replace those of its copy()")
        setattr(obj, self.name, value)


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

    The three are ``_Slots`` columns, each declared with its padding row. A set without padding
    returns the arrays it stores, which may be written in place or replaced; a padded set builds
    them on each read, read-only, keeps none of them, and refuses a replacement with an
    ``AttributeError``. ``copy()`` returns a set without padding whose arrays are writable.
    """

    __slots__ = ("_probs", "_boxes", "_origins", "_pad")

    probs = _Slots(lambda given: np.arange(given.shape[1]) == given.shape[1] - 1)  # one-hot on background
    boxes = _Slots(0.0)
    origins = _Slots(Origin.BACKGROUND)

    def __init__(self, probs: np.ndarray, boxes: np.ndarray, origins: np.ndarray):
        self._probs, self._boxes, self._origins = probs, boxes, origins  # the given slots
        self._pad = 0  # how many padding slots follow them

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
