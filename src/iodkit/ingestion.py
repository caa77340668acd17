"""COCO-format annotation parsing, normalization, and canonical export.

Only the detection fields are read (images, annotations with pixel
``bbox``, categories); category ids are remapped to a dense 0..C-1 range.
Export emits canonical JSON (sorted keys, floats at six decimals) so
equal datasets produce byte-equal files.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field
from pathlib import Path

from .geometry import BoundingBox

__all__ = [
    "RawImage",
    "RawAnnotation",
    "RawDataset",
    "ImageInfo",
    "Annotation",
    "AnnotatedImages",
    "Dataset",
    "parse_coco",
    "normalize",
    "denormalize",
    "export_coco",
    "canonical_json",
    "write_atomic",
    "fixture_path",
]

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class RawImage:
    id: int
    width: int
    height: int


@dataclass(frozen=True)
class RawAnnotation:
    id: int
    image_id: int
    category_id: int
    bbox: tuple[float, float, float, float]  # pixels, top-left origin


@dataclass
class RawDataset:
    images: list[RawImage]
    annotations: list[RawAnnotation]
    categories: list[tuple[int, str]]  # (original id, name), sorted by id
    category_map: dict[int, int]  # original id -> dense index


@dataclass(frozen=True)
class ImageInfo:
    id: int
    width: int
    height: int


@dataclass(frozen=True)
class Annotation:
    id: int
    image_id: int
    category: int  # dense index 0..C-1
    box: BoundingBox  # normalized center-size
    area_px: float
    bbox_px: tuple[float, float, float, float]


class AnnotatedImages:
    """Per-image views of a class's ``images`` and ``annotations`` fields."""

    images: list[ImageInfo]
    annotations: list[Annotation]

    def image_ids(self) -> list[int]:
        return [im.id for im in self.images]

    def by_image(self) -> dict[int, list[Annotation]]:
        out: dict[int, list[Annotation]] = {im.id: [] for im in self.images}
        for a in self.annotations:
            out[a.image_id].append(a)
        return out


@dataclass
class Dataset(AnnotatedImages):
    """Normalized in-memory dataset shared by the protocol and trainer."""

    images: list[ImageInfo]
    annotations: list[Annotation]
    category_names: list[str]
    category_map: dict[int, int] = field(default_factory=dict)

    @property
    def n_categories(self) -> int:
        return len(self.category_names)

    def image_sizes(self) -> dict[int, tuple[int, int]]:
        return {im.id: (im.width, im.height) for im in self.images}


def parse_coco(path: str | Path) -> RawDataset:
    """Read and structurally validate a COCO-style detection file."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as e:
        raise ValueError(f"malformed JSON in {path}: {e}") from e
    for key in ("images", "annotations", "categories"):
        if key not in doc or not isinstance(doc[key], list):
            raise ValueError(f"missing or invalid '{key}' array")

    images = []
    for rec in doc["images"]:
        w, h = int(rec["width"]), int(rec["height"])
        if w <= 0 or h <= 0:
            raise ValueError(f"image {rec['id']} has non-positive dimensions")
        images.append(RawImage(id=int(rec["id"]), width=w, height=h))
    image_ids = {im.id for im in images}
    if len(image_ids) != len(images):
        raise ValueError("duplicate image ids")

    categories = sorted(((int(c["id"]), str(c["name"])) for c in doc["categories"]), key=lambda t: t[0])
    cat_ids = {cid for cid, _ in categories}
    if len(cat_ids) != len(categories):
        raise ValueError("duplicate category ids")
    category_map = {cid: i for i, (cid, _) in enumerate(categories)}

    annotations = []
    dangling_images = []
    dangling_cats = []
    no_area = []
    for rec in doc["annotations"]:
        aid = int(rec["id"])
        img = int(rec["image_id"])
        cat = int(rec["category_id"])
        if img not in image_ids:
            dangling_images.append(aid)
            continue
        if cat not in cat_ids:
            dangling_cats.append(aid)
            continue
        x, y, w, h = (float(v) for v in rec["bbox"])
        if w < 0 or h < 0 or w * h == 0.0:
            no_area.append(aid)
            continue
        annotations.append(RawAnnotation(id=aid, image_id=img, category_id=cat, bbox=(x, y, w, h)))
    if dangling_images:
        raise ValueError(f"annotations reference unknown image ids: {dangling_images}")
    if dangling_cats:
        raise ValueError(f"annotations reference unknown category ids: {dangling_cats}")
    if no_area:
        log.warning("%d annotations have a negative side or zero area; dropped: %s", len(no_area), no_area)

    images.sort(key=lambda im: im.id)
    annotations.sort(key=lambda a: a.id)
    return RawDataset(images=images, annotations=annotations, categories=categories, category_map=category_map)


def normalize(raw: RawDataset) -> Dataset:
    """Convert pixel boxes to normalized center-size, keeping pixel areas.

    A box is cropped to its image, and its area and pixel box are those of
    the crop; a box with no area inside its image is dropped with a warning.
    """
    sizes = {im.id: (im.width, im.height) for im in raw.images}
    annotations = []
    outside = []
    for a in raw.annotations:
        w_img, h_img = sizes[a.image_id]
        if w_img == 0 or h_img == 0:
            raise ValueError(f"image {a.image_id} has zero dimensions")
        x, y, w, h = a.bbox
        x0, y0 = max(x, 0.0), max(y, 0.0)
        x1, y1 = min(x + w, w_img), min(y + h, h_img)
        if x1 <= x0 or y1 <= y0:
            outside.append(a.id)
            continue
        # an axis the crop leaves alone keeps its exact (x, w) or (y, h)
        if (x0, x1) != (x, x + w):
            x, w = x0, x1 - x0
        if (y0, y1) != (y, y + h):
            y, h = y0, y1 - y0
        box = BoundingBox((x + w / 2) / w_img, (y + h / 2) / h_img, w / w_img, h / h_img)
        annotations.append(
            Annotation(
                id=a.id,
                image_id=a.image_id,
                category=raw.category_map[a.category_id],
                box=box,
                area_px=w * h,
                bbox_px=(x, y, w, h),
            )
        )
    if outside:
        log.warning("%d annotations lie wholly outside their image; dropped: %s", len(outside), outside)
    return Dataset(
        images=[ImageInfo(im.id, im.width, im.height) for im in raw.images],
        annotations=annotations,
        category_names=[name for _, name in raw.categories],
        category_map=dict(raw.category_map),
    )


def denormalize(box: BoundingBox, width: int, height: int) -> tuple[float, float, float, float]:
    """Normalized center-size -> pixel (x, y, w, h), top-left origin."""
    w = box.w * width
    h = box.h * height
    return (box.cx * width - w / 2, box.cy * height - h / 2, w, h)


def _round6(value):
    if isinstance(value, float):
        r = round(value, 6)
        return 0.0 if r == 0 else r  # avoid "-0.0"
    if isinstance(value, dict):
        return {k: _round6(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_round6(v) for v in value]
    return value


def canonical_json(doc) -> str:
    """Sorted keys, six-decimal floats, newline-terminated."""
    return json.dumps(_round6(doc), sort_keys=True, separators=(",", ":")) + "\n"


def to_coco_doc(dataset: Dataset) -> dict:
    inverse = sorted(dataset.category_map.items(), key=lambda t: t[1])
    return {
        "images": [
            {"id": im.id, "width": im.width, "height": im.height}
            for im in sorted(dataset.images, key=lambda im: im.id)
        ],
        "annotations": [
            {
                "id": a.id,
                "image_id": a.image_id,
                "category_id": inverse[a.category][0],
                "bbox": list(a.bbox_px),
            }
            for a in sorted(dataset.annotations, key=lambda a: a.id)
        ],
        "categories": [
            {"id": orig, "name": dataset.category_names[dense]} for orig, dense in inverse
        ],
    }


def write_atomic(path: str | Path, text: str) -> None:
    """Write ``text`` to a sibling ``.tmp`` file, then rename it over ``path``."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    tmp.replace(path)


def export_coco(dataset: Dataset, path: str | Path) -> None:
    """Write the dataset as canonical COCO JSON (parse/normalize inverse)."""
    write_atomic(path, canonical_json(to_coco_doc(dataset)))


def fixture_path() -> Path:
    """Location of the bundled 12-image sample dataset."""
    return Path(__file__).parent / "data" / "coco12.json"
