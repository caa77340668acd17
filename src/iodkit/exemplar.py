"""Exemplar selection that preserves the training category distribution.

Exemplars are chosen one at a time so that the category marginal of the
selected set tracks the marginal of the full phase data; the greedy
objective is the cross term of the KL divergence between the two
marginals, which is equivalent to minimizing the divergence itself since
the data entropy is constant. Counts are smoothed by ``EPSILON`` so that
the log stays finite for categories the selection does not yet cover.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .ingestion import canonical_json

__all__ = [
    "CategoryMarginal",
    "ExemplarMemory",
    "marginal",
    "phase_budget",
    "greedy_select",
    "random_select",
    "kl_divergence",
]

EPSILON = 1e-8


@dataclass(frozen=True)
class CategoryMarginal:
    """Smoothed relative frequency of each category."""

    probs: np.ndarray


def _count_vector(annotation_categories: Iterable[int], categories: Sequence[int]) -> np.ndarray:
    index = {c: i for i, c in enumerate(categories)}
    counts = np.zeros(len(categories), dtype=np.float64)
    for c in annotation_categories:
        if c in index:
            counts[index[c]] += 1
    return counts


def marginal(annotation_categories: Iterable[int], categories: Sequence[int]) -> CategoryMarginal:
    """Smoothed annotation-count frequencies over the given categories."""
    if len(categories) == 0:
        raise ValueError("categories must be non-empty")
    smoothed = _count_vector(annotation_categories, categories) + EPSILON
    return CategoryMarginal(probs=smoothed / smoothed.sum())


def kl_divergence(p: np.ndarray, q: np.ndarray) -> float:
    """KL(p || q) with 0 log 0 = 0; infinite where q = 0 < p."""
    if p.shape != q.shape:
        raise ValueError(f"p has shape {p.shape}, q has shape {q.shape}")
    mask = p > 0
    if np.any(q[mask] == 0):
        return math.inf
    return float(np.sum(p[mask] * np.log(p[mask] / q[mask])))


def phase_budget(budget_fraction: float, n_images: int) -> int:
    """Per-phase exemplar count: ceil(fraction * images)."""
    if not 0.0 <= budget_fraction <= 1.0:
        raise ValueError("budget fraction must be in [0, 1]")
    return math.ceil(budget_fraction * n_images)


def _check_count(n_select, n_images: int) -> None:
    """Raise ``ValueError`` unless ``n_select`` is an integer (a bool is not) in 0..``n_images``."""
    if isinstance(n_select, bool) or not isinstance(n_select, (int, np.integer)) or not 0 <= n_select <= n_images:
        raise ValueError(f"cannot select {n_select!r} exemplars from {n_images} images")


def greedy_select(
    images: Mapping[int, Sequence[int]],
    n_select: int,
    categories: Sequence[int],
) -> list[int]:
    """Greedily pick images whose running marginal best matches the data.

    Args:
        images: image id -> its annotation category ids (over the phase's
            categories; other ids are ignored).
        n_select: how many exemplars to pick.
        categories: the phase's category ids.

    Each step picks the candidate maximizing
    ``sum_c p_data(c) * log p_selected+candidate(c)``; ties go to the
    smallest image id, and no image is picked twice.
    """
    items = sorted(images.items())
    _check_count(n_select, len(items))
    ids = [i for i, _ in items]
    count_rows = np.stack([_count_vector(cats, categories) for _, cats in items]) if items else np.zeros((0, len(categories)))

    target = marginal((c for _, cats in items for c in cats), categories).probs

    selected: list[int] = []
    chosen_mask = np.zeros(len(ids), dtype=bool)
    running = np.zeros(len(categories), dtype=np.float64)
    for _ in range(n_select):
        cand = running[None, :] + count_rows + EPSILON
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
    _check_count(n_select, len(ids))
    rng = np.random.default_rng(seed)
    picked = rng.choice(len(ids), size=n_select, replace=False)
    return [ids[i] for i in sorted(picked.tolist())]


@dataclass
class ExemplarMemory:
    """Per-phase exemplar ids over training; ``dumps`` waits on ROADMAP item 4, and nothing reads a memory back."""

    per_phase: list[list[int]] = field(default_factory=list, init=False)
    budget_fraction: float = 0.1

    def __post_init__(self):
        phase_budget(self.budget_fraction, 0)  # raises outside [0, 1]

    def add_phase(self, ids: Sequence[int]) -> None:
        """Append one phase's ids; no id may repeat, within the phase or across phases."""
        new = list(ids)
        counts = Counter(i for phase in self.per_phase for i in phase) + Counter(new)
        repeats = sorted(i for i, k in counts.items() if k > 1)
        if repeats:
            raise ValueError(f"exemplar ids repeat: {repeats[:5]}")
        self.per_phase.append(new)

    def ids_before(self, phase_index: int) -> list[int]:
        """Flat ids of phases strictly before ``phase_index`` (1-based)."""
        if phase_index < 1:
            raise ValueError(f"phase index {phase_index} is not 1-based")
        out: list[int] = []
        for ids in self.per_phase[: phase_index - 1]:
            out.extend(ids)
        return out

    def dumps(self) -> str:
        doc = {"phases": [list(p) for p in self.per_phase], "budget_fraction": self.budget_fraction}
        return canonical_json(doc)
