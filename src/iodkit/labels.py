"""Shared label/prediction data model.

A ``LabeledSet`` is a fixed-length sequence of N (class distribution, box)
slots. The last distribution index is the background class; a slot whose
argmax is the background index is considered "no object". Ground-truth
sets are padded with background slots to length N so that targets and
predictions always align one-to-one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import IntEnum
from typing import Iterable, Sequence

import numpy as np

from .geometry import BoundingBox

__all__ = [
    "Origin",
    "Target",
    "LabeledSet",
    "one_hot",
    "pad_to_n",
    "foreground_mask",
    "to_json_lines",
    "from_json_lines",
]

BACKGROUND_BOX = (0.0, 0.0, 0.0, 0.0)

PROB_TOL = 1e-9


class Origin(IntEnum):
    GROUND_TRUTH = 0
    PSEUDO = 1
    BACKGROUND = 2
    PREDICTION = 3


_ORIGIN_NAMES = {
    Origin.GROUND_TRUTH: "ground_truth",
    Origin.PSEUDO: "pseudo",
    Origin.BACKGROUND: "background",
    Origin.PREDICTION: "prediction",
}
_ORIGIN_BY_NAME = {v: k for k, v in _ORIGIN_NAMES.items()}


def foreground_mask(probs: np.ndarray) -> np.ndarray:
    """True where the argmax of a distribution (the last axis) is not background.

    This predicate is the one definition of "foreground" shared by
    matching, distillation, and metrics. The first maximum wins, so a
    category that ties the background counts as foreground.
    """
    probs = np.asarray(probs)
    return np.argmax(probs, axis=-1) != probs.shape[-1] - 1


@dataclass(frozen=True)
class Target:
    """One slot: a class distribution, a box, and where the slot came from."""

    probs: np.ndarray
    box: BoundingBox
    origin: Origin

    @property
    def n_categories(self) -> int:
        return int(self.probs.shape[0]) - 1

    def validate(self) -> None:
        probs = np.asarray(self.probs, dtype=np.float64)
        if probs.ndim != 1 or probs.shape[0] < 2:
            raise ValueError("distribution must be a vector over >= 1 category plus background")
        if np.any(probs < 0) or not np.isfinite(probs).all():
            raise ValueError("distribution entries must be finite and non-negative")
        if abs(float(probs.sum()) - 1.0) > PROB_TOL:
            raise ValueError(f"distribution sums to {probs.sum()!r}, not 1")
        bg = probs.shape[0] - 1
        arg = int(np.argmax(probs))
        if self.origin == Origin.GROUND_TRUTH:
            if arg == bg or probs[arg] != 1.0:
                raise ValueError("ground-truth slot must be one-hot on a foreground category")
        elif self.origin == Origin.BACKGROUND:
            if probs[bg] != 1.0 or (self.box.cx, self.box.cy, self.box.w, self.box.h) != BACKGROUND_BOX:
                raise ValueError("background slot must be one-hot on background with the zero box")
        elif self.origin == Origin.PSEUDO:
            if arg == bg:
                raise ValueError("pseudo slot argmax must be a foreground category")


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

    def target(self, i: int) -> Target:
        return Target(
            probs=self.probs[i].copy(),
            box=BoundingBox.from_array(self.boxes[i]),
            origin=Origin(int(self.origins[i])),
        )

    def foreground_mask(self) -> np.ndarray:
        return foreground_mask(self.probs)

    def categories(self) -> np.ndarray:
        return np.argmax(self.probs, axis=1)

    def origin_counts(self) -> dict[Origin, int]:
        return {o: int(np.sum(self.origins == o)) for o in Origin}

    def copy(self) -> "LabeledSet":
        return LabeledSet(self.probs.copy(), self.boxes.copy(), self.origins.copy())

    def validate(self) -> None:
        if self.probs.ndim != 2 or self.boxes.shape != (len(self), 4) or self.origins.shape != (len(self),):
            raise ValueError("inconsistent array shapes")
        for i in range(len(self)):
            self.target(i).validate()
        seen: set[tuple] = set()
        for i in np.flatnonzero(self.foreground_mask()):
            key = (int(np.argmax(self.probs[i])), tuple(self.boxes[i].tolist()))
            if key in seen:
                raise ValueError(f"duplicate foreground slot at index {i}")
            seen.add(key)

    @staticmethod
    def from_targets(targets: Sequence[Target]) -> "LabeledSet":
        if not targets:
            raise ValueError("cannot build an empty set")
        width = targets[0].probs.shape[0]
        probs = np.stack([np.asarray(t.probs, dtype=np.float64) for t in targets])
        if probs.shape[1] != width:
            raise ValueError("inconsistent distribution widths")
        boxes = np.stack([t.box.to_array() for t in targets])
        origins = np.array([int(t.origin) for t in targets], dtype=np.int8)
        return LabeledSet(probs, boxes, origins)


def one_hot(category: int | None, box: BoundingBox, n_categories: int) -> Target:
    """Build a one-hot slot for a category index, or background when None.

    ``category == n_categories`` is also accepted as background. The
    background slot always carries the canonical zero box regardless of
    the ``box`` argument.
    """
    if category is not None and not 0 <= category <= n_categories:
        raise ValueError(f"category index {category} out of range for C={n_categories}")
    probs = np.zeros(n_categories + 1, dtype=np.float64)
    if category is None or category == n_categories:
        probs[n_categories] = 1.0
        return Target(probs=probs, box=BoundingBox(*BACKGROUND_BOX), origin=Origin.BACKGROUND)
    probs[category] = 1.0
    return Target(probs=probs, box=box, origin=Origin.GROUND_TRUTH)


def pad_to_n(foreground: Sequence[Target], n_queries: int, n_categories: int | None = None) -> LabeledSet:
    """Pad foreground slots with background slots up to length N.

    Foreground order is preserved; padding goes at the end. Raises when
    there are more foreground slots than queries, when the slot widths
    differ, or when the result would be empty.
    """
    k = len(foreground)
    if k > n_queries:
        raise ValueError(f"capacity exceeded: {k} foreground slots > N={n_queries}")
    if n_categories is None:
        if not foreground:
            raise ValueError("n_categories required when padding an empty sequence")
        n_categories = foreground[0].n_categories
    if n_queries == 0:
        raise ValueError("cannot build an empty set")
    width = n_categories + 1
    probs = np.zeros((n_queries, width), dtype=np.float64)
    boxes = np.empty((n_queries, 4), dtype=np.float64)
    boxes[k:] = BACKGROUND_BOX
    origins = np.full(n_queries, int(Origin.BACKGROUND), dtype=np.int8)
    if k:
        fg_probs = [np.asarray(t.probs, dtype=np.float64) for t in foreground]
        if any(p.shape != (width,) for p in fg_probs):
            raise ValueError("inconsistent distribution widths")
        probs[:k] = fg_probs
        boxes[:k] = [t.box.to_array() for t in foreground]
        origins[:k] = [int(t.origin) for t in foreground]
    probs[k:, n_categories] = 1.0
    return LabeledSet(probs, boxes, origins)


def to_json_lines(labeled: LabeledSet) -> str:
    """Serialize one slot per line as ``{"p": [...], "box": [...], "origin": ...}``."""
    lines = []
    for i in range(len(labeled)):
        rec = {
            "p": [float(v) for v in labeled.probs[i]],
            "box": [float(v) for v in labeled.boxes[i]],
            "origin": _ORIGIN_NAMES[Origin(int(labeled.origins[i]))],
        }
        lines.append(json.dumps(rec, separators=(",", ":")))
    return "\n".join(lines) + "\n"


def from_json_lines(text: str | Iterable[str]) -> LabeledSet:
    if isinstance(text, str):
        rows = [line for line in text.splitlines() if line.strip()]
    else:
        rows = [line for line in text if line.strip()]
    targets = []
    for line in rows:
        rec = json.loads(line)
        targets.append(
            Target(
                probs=np.asarray(rec["p"], dtype=np.float64),
                box=BoundingBox.from_array(rec["box"]),
                origin=_ORIGIN_BY_NAME[rec["origin"]],
            )
        )
    return LabeledSet.from_targets(targets)
