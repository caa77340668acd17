"""Phase construction for the strict incremental protocol.

A strict split partitions both the images and the categories, so no
image recurs across phases. Each phase's annotations are filtered to its
categories, and images left with no annotations stay in their phase.
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
    "split",
    "plan_manifest",
    "write_manifest",
]

_SETUP_RE = re.compile(r"^(\d+)\+(\d+)(?:x(\d+))?$")


@dataclass(frozen=True)
class PhasePlan:
    """Category partition plus the seed of the image shuffle."""

    category_partition: tuple[tuple[int, ...], ...]
    seed: int

    @property
    def n_phases(self) -> int:
        return len(self.category_partition)

    def validate(self, n_categories: int) -> None:
        flat = [c for block in self.category_partition for c in block]
        if len(set(flat)) != len(flat):
            raise ValueError("category partition blocks overlap")
        if sorted(flat) != list(range(n_categories)):
            raise ValueError("category partition does not cover 0..C-1")


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


def multi_phase_plan(setup: str, n_categories: int, seed: int) -> PhasePlan:
    """Build a plan from a setup string like ``"70+10"`` or ``"40+10x4"``.

    The category order is a seeded shuffle split into consecutive blocks.
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
    return PhasePlan(category_partition=tuple(partition), seed=seed)


def split(dataset: Dataset, plan: PhasePlan) -> list[PhaseDataset]:
    """Disjoint groups of the seeded-shuffled images, one per phase.

    The first phase takes a fraction of the images equal to its share of
    the categories; the later phases split the rest equally, and the last
    also takes what flooring leaves over. A phase that gets no image is
    an error.
    """
    plan.validate(dataset.n_categories)
    rng = np.random.default_rng(np.random.SeedSequence([plan.seed, 0xDA7A]))
    order = rng.permutation(len(dataset.images))
    images = [dataset.images[i] for i in order]
    n = len(images)

    first = len(plan.category_partition[0]) / dataset.n_categories
    rest = (1.0 - first) / (plan.n_phases - 1) if plan.n_phases > 1 else 0.0
    sizes = [math.floor(first * n)] + [math.floor(rest * n)] * (plan.n_phases - 1)
    sizes[-1] = n - sum(sizes[:-1])
    if 0 in sizes:
        raise ValueError(f"phase {sizes.index(0) + 1} gets no images from a dataset of {n} images")
    phases = []
    cursor = 0
    for i, (cats, size) in enumerate(zip(plan.category_partition, sizes), start=1):
        group = sorted(images[cursor : cursor + size], key=lambda im: im.id)
        cursor += size
        ids, cat_set = {im.id for im in group}, set(cats)
        phases.append(
            PhaseDataset(
                phase_index=i,
                categories=tuple(cats),
                images=group,
                annotations=[a for a in dataset.annotations if a.image_id in ids and a.category in cat_set],
            )
        )
    return phases


def plan_manifest(plan: PhasePlan, phases: list[PhaseDataset]) -> dict:
    return {
        "seed": plan.seed,
        "phases": [
            {"categories": sorted(p.categories), "images": p.image_ids()} for p in phases
        ],
    }


def write_manifest(path: str | Path, plan: PhasePlan, phases: list[PhaseDataset]) -> None:
    write_atomic(path, canonical_json(plan_manifest(plan, phases)).encode())
