"""Phase construction for incremental training.

Strict splits partition both the images and the categories, so no image
recurs across phases; traditional splits let each phase observe every
image containing at least one of its categories. Both filter each
phase's annotations to the phase categories and keep images that end up
with no annotations at all.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .ingestion import AnnotatedImages, Annotation, Dataset, ImageInfo, canonical_json, write_atomic

__all__ = [
    "PhasePlan",
    "PhaseDataset",
    "multi_phase_plan",
    "strict_split",
    "traditional_split",
    "split",
    "plan_manifest",
    "write_manifest",
]

STRICT = "strict"
TRADITIONAL = "traditional"

_SETUP_RE = re.compile(r"^(\d+)\+(\d+)(?:x(\d+))?$")


@dataclass(frozen=True)
class PhasePlan:
    """Category partition plus per-phase image fractions."""

    category_partition: tuple[tuple[int, ...], ...]
    mode: str
    seed: int
    sample_fractions: tuple[float, ...] | None  # strict only

    @property
    def n_phases(self) -> int:
        return len(self.category_partition)

    def validate(self, n_categories: int | None = None) -> None:
        if self.mode not in (STRICT, TRADITIONAL):
            raise ValueError(f"unknown protocol mode {self.mode!r}")
        flat = [c for block in self.category_partition for c in block]
        if len(set(flat)) != len(flat):
            raise ValueError("category partition blocks overlap")
        if n_categories is not None and sorted(flat) != list(range(n_categories)):
            raise ValueError("category partition does not cover 0..C-1")
        if self.mode == STRICT:
            if self.sample_fractions is None or len(self.sample_fractions) != self.n_phases:
                raise ValueError("strict plans need one sample fraction per phase")
            if any(f <= 0 for f in self.sample_fractions):
                raise ValueError("sample fractions must be positive")
            if abs(sum(self.sample_fractions) - 1.0) > 1e-9:
                raise ValueError("sample fractions must sum to 1")


@dataclass
class PhaseDataset(AnnotatedImages):
    """One phase's view: its categories and its annotation-filtered images."""

    phase_index: int  # 1-based
    categories: tuple[int, ...]
    images: list[ImageInfo]
    annotations: list[Annotation]


def _parse_setup(setup: str) -> list[int]:
    m = _SETUP_RE.match(setup.strip().lower().replace(" ", ""))
    if not m:
        raise ValueError(f"malformed setup string {setup!r}; expected forms like '70+10' or '40+10x4'")
    first, block, repeat = int(m.group(1)), int(m.group(2)), int(m.group(3) or 1)
    if first <= 0 or block <= 0 or repeat <= 0:
        raise ValueError(f"setup counts must be positive: {setup!r}")
    return [first] + [block] * repeat


def multi_phase_plan(setup: str, n_categories: int, seed: int, mode: str = STRICT) -> PhasePlan:
    """Build a plan from a setup string like ``"70+10"`` or ``"40+10x4"``.

    The category order is a seeded shuffle split into consecutive blocks.
    The first phase sees a fraction of the images equal to its share of
    the categories; later phases split the remainder equally.
    """
    counts = _parse_setup(setup)
    if sum(counts) != n_categories:
        raise ValueError(f"setup {setup!r} covers {sum(counts)} categories, dataset has {n_categories}")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xCA7]))
    order = rng.permutation(n_categories)
    partition = []
    cursor = 0
    for k in counts:
        partition.append(tuple(int(c) for c in order[cursor : cursor + k]))
        cursor += k
    first = counts[0] / n_categories
    rest = (1.0 - first) / (len(counts) - 1) if len(counts) > 1 else 0.0
    fractions = (first,) + (rest,) * (len(counts) - 1) if len(counts) > 1 else (1.0,)
    return PhasePlan(
        category_partition=tuple(partition),
        mode=mode,
        seed=seed,
        sample_fractions=fractions if mode == STRICT else None,
    )


def _filter_annotations(dataset: Dataset, image_ids: set[int], categories: set[int]) -> list[Annotation]:
    return [a for a in dataset.annotations if a.image_id in image_ids and a.category in categories]


def strict_split(dataset: Dataset, plan: PhasePlan) -> list[PhaseDataset]:
    """Disjoint image groups sized by the plan fractions, remainder last."""
    plan.validate(dataset.n_categories)
    if plan.mode != STRICT:
        raise ValueError("plan mode is not strict")
    if not dataset.images:
        raise ValueError("empty dataset")
    rng = np.random.default_rng(np.random.SeedSequence([plan.seed, 0xDA7A]))
    order = rng.permutation(len(dataset.images))
    images = [dataset.images[i] for i in order]
    n = len(images)

    sizes = [math.floor(f * n) for f in plan.sample_fractions]
    sizes[-1] = n - sum(sizes[:-1])
    phases = []
    cursor = 0
    for i, (cats, size) in enumerate(zip(plan.category_partition, sizes), start=1):
        group = sorted(images[cursor : cursor + size], key=lambda im: im.id)
        cursor += size
        ids = {im.id for im in group}
        phases.append(
            PhaseDataset(
                phase_index=i,
                categories=tuple(cats),
                images=group,
                annotations=_filter_annotations(dataset, ids, set(cats)),
            )
        )
    return phases


def traditional_split(dataset: Dataset, plan: PhasePlan) -> list[PhaseDataset]:
    """Each phase observes every image holding one of its categories."""
    plan.validate(dataset.n_categories)
    by_image = dataset.by_image()
    phases = []
    for i, cats in enumerate(plan.category_partition, start=1):
        cat_set = set(cats)
        ids = {im.id for im in dataset.images if any(a.category in cat_set for a in by_image[im.id])}
        group = sorted((im for im in dataset.images if im.id in ids), key=lambda im: im.id)
        phases.append(
            PhaseDataset(
                phase_index=i,
                categories=tuple(cats),
                images=group,
                annotations=_filter_annotations(dataset, ids, cat_set),
            )
        )
    return phases


def split(dataset: Dataset, plan: PhasePlan) -> list[PhaseDataset]:
    if plan.mode == STRICT:
        return strict_split(dataset, plan)
    return traditional_split(dataset, plan)


def plan_manifest(plan: PhasePlan, phases: list[PhaseDataset]) -> dict:
    return {
        "mode": plan.mode,
        "seed": plan.seed,
        "phases": [
            {"categories": sorted(p.categories), "images": p.image_ids()} for p in phases
        ],
    }


def write_manifest(path: str | Path, plan: PhasePlan, phases: list[PhaseDataset]) -> None:
    write_atomic(path, canonical_json(plan_manifest(plan, phases)))
