"""Exemplar selection that preserves the training category distribution.

Exemplars are chosen one at a time so that the category marginal of the
selected set tracks the marginal of the full phase data; the greedy
objective is the cross term of the KL divergence between the two
marginals, which is equivalent to minimizing the divergence itself since
the data entropy is constant.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "CategoryMarginal",
    "ExemplarMemory",
    "marginal",
    "phase_budget",
    "greedy_select",
    "random_select",
    "kl_divergence",
]

DEFAULT_EPSILON = 1e-8


@dataclass(frozen=True)
class CategoryMarginal:
    """Smoothed relative frequency of each category."""

    probs: np.ndarray
    counts: np.ndarray
    epsilon: float

    def validate(self) -> None:
        if abs(float(self.probs.sum()) - 1.0) > 1e-9:
            raise ValueError("marginal does not sum to 1")
        smoothed = self.counts + self.epsilon
        if not np.allclose(self.probs, smoothed / smoothed.sum(), atol=1e-12):
            raise ValueError("probs inconsistent with counts")


def _count_vector(annotation_categories: Iterable[int], categories: Sequence[int]) -> np.ndarray:
    index = {c: i for i, c in enumerate(categories)}
    counts = np.zeros(len(categories), dtype=np.float64)
    for c in annotation_categories:
        if c in index:
            counts[index[c]] += 1
    return counts


def marginal(
    annotation_categories: Iterable[int],
    categories: Sequence[int],
    epsilon: float = DEFAULT_EPSILON,
) -> CategoryMarginal:
    """Smoothed annotation-count frequencies over the given categories."""
    if len(categories) == 0:
        raise ValueError("categories must be non-empty")
    counts = _count_vector(annotation_categories, categories)
    smoothed = counts + epsilon
    return CategoryMarginal(probs=smoothed / smoothed.sum(), counts=counts, epsilon=epsilon)


def kl_divergence(p: np.ndarray, q: np.ndarray) -> float:
    """KL(p || q) with 0 log 0 = 0."""
    mask = p > 0
    return float(np.sum(p[mask] * np.log(p[mask] / q[mask])))


def phase_budget(budget_fraction: float, n_images: int) -> int:
    """Per-phase exemplar count: ceil(fraction * images)."""
    if not 0.0 <= budget_fraction <= 1.0:
        raise ValueError("budget fraction must be in [0, 1]")
    return math.ceil(budget_fraction * n_images)


def greedy_select(
    images: Mapping[int, Sequence[int]] | Sequence[tuple[int, Sequence[int]]],
    n_select: int,
    categories: Sequence[int],
    epsilon: float = DEFAULT_EPSILON,
) -> list[int]:
    """Greedily pick images whose running marginal best matches the data.

    Args:
        images: image id -> its annotation category ids (over the phase's
            categories; other ids are ignored).
        n_select: how many exemplars to pick.
        categories: the phase's category ids.
        epsilon: additive smoothing that keeps the log finite for
            not-yet-covered categories.

    Each step picks the candidate maximizing
    ``sum_c p_data(c) * log p_selected+candidate(c)``; ties go to the
    smallest image id, and no image is picked twice.
    """
    items = sorted(images.items()) if isinstance(images, Mapping) else sorted(images)
    if n_select < 0:
        raise ValueError(f"cannot select {n_select} exemplars")
    if n_select > len(items):
        raise ValueError(f"cannot select {n_select} exemplars from {len(items)} images")
    ids = [i for i, _ in items]
    count_rows = np.stack([_count_vector(cats, categories) for _, cats in items]) if items else np.zeros((0, len(categories)))

    target = marginal(
        (c for _, cats in items for c in cats),
        categories,
        epsilon,
    ).probs

    selected: list[int] = []
    chosen_mask = np.zeros(len(ids), dtype=bool)
    running = np.zeros(len(categories), dtype=np.float64)
    for _ in range(n_select):
        cand = running[None, :] + count_rows + epsilon
        scores = (target[None, :] * np.log(cand / cand.sum(axis=1, keepdims=True))).sum(axis=1)
        scores[chosen_mask] = -np.inf
        best = int(np.argmax(scores))  # first max = smallest id (ids sorted)
        chosen_mask[best] = True
        running += count_rows[best]
        selected.append(ids[best])
    return selected


def random_select(image_ids: Sequence[int], n_select: int, seed: int) -> list[int]:
    """Uniform selection without replacement, reproducible by seed."""
    ids = sorted(image_ids)
    if n_select < 0:
        raise ValueError(f"cannot select {n_select} exemplars")
    if n_select > len(ids):
        raise ValueError(f"cannot select {n_select} exemplars from {len(ids)} images")
    rng = np.random.default_rng(seed)
    picked = rng.choice(len(ids), size=n_select, replace=False)
    return [ids[i] for i in sorted(picked.tolist())]


@dataclass
class ExemplarMemory:
    """Per-phase exemplar id sets accumulated over training."""

    per_phase: list[list[int]] = field(default_factory=list)
    budget_fraction: float = 0.1

    def add_phase(self, ids: Sequence[int]) -> None:
        new = list(ids)
        existing = self.all_ids()
        overlap = existing.intersection(new)
        if overlap:
            raise ValueError(f"exemplar ids repeat across phases: {sorted(overlap)[:5]}")
        self.per_phase.append(new)

    def all_ids(self) -> set[int]:
        return {i for phase in self.per_phase for i in phase}

    def ids_before(self, phase_index: int) -> list[int]:
        """Flat ids of phases strictly before ``phase_index`` (1-based)."""
        if phase_index < 1:
            raise ValueError(f"phase index {phase_index} is not 1-based")
        out: list[int] = []
        for ids in self.per_phase[: phase_index - 1]:
            out.extend(ids)
        return out

    def validate(self) -> None:
        seen: set[int] = set()
        for ids in self.per_phase:
            s = set(ids)
            if s & seen:
                raise ValueError("phase exemplar sets are not disjoint")
            seen |= s

    def dumps(self) -> str:
        doc = {"phases": [list(p) for p in self.per_phase], "budget_fraction": self.budget_fraction}
        return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"

    @staticmethod
    def loads(text: str) -> "ExemplarMemory":
        doc = json.loads(text)
        mem = ExemplarMemory(budget_fraction=float(doc["budget_fraction"]))
        for ids in doc["phases"]:
            mem.add_phase([int(i) for i in ids])
        return mem
