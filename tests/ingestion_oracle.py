"""The record-by-record ingestion that the column path of ``iodkit.ingestion`` replaced.

``parse_coco`` and ``normalize`` are kept verbatim, with the helpers they
read, as a differential oracle: they build every ``ImageInfo``,
``RawAnnotation``, ``BoundingBox`` and ``Annotation`` through its public
constructor, one record at a time, and crop each box with Python's
``max``/``min``. They log to the ``ingestion_oracle`` logger.
"""

from __future__ import annotations

import json
import logging
import math
from pathlib import Path

from iodkit.geometry import BoundingBox
from iodkit.ingestion import Annotation, Dataset, ImageInfo, RawAnnotation, RawDataset

log = logging.getLogger("ingestion_oracle")


# the keys every record of each array must have
_REQUIRED_KEYS = {
    "images": ("id", "width", "height"),
    "annotations": ("id", "image_id", "category_id", "bbox"),
    "categories": ("id", "name"),
}
_NUMBER = frozenset((int, float))  # the types json reads a number as
_UNKNOWN_IMAGES = "annotations reference unknown image ids"
_UNKNOWN_CATEGORIES = "annotations reference unknown category ids"


def _integer(v) -> int | None:
    """An int as it is, a float of integral value as an int (640.0 is 640), anything else None (a bool too)."""
    if type(v) is int:
        return v
    if type(v) is float and v.is_integer():  # not on NaN or inf
        return int(v)
    return None


def _raise_listed(*faults: tuple[str, list]) -> None:
    """Raise ``ValueError`` for the first (message, offenders) pair in ``faults`` that has an offender."""
    for message, offenders in faults:
        if offenders:
            raise ValueError(f"{message}: {offenders}")


def _malformed_records(records: list, keys: tuple[str, ...]) -> list[str]:
    """Each record that is not an object or lacks one of ``keys``, named by id or else by index."""
    required = frozenset(keys)
    out = []
    # one set test per record screens them; only the offenders are described
    for k in [k for k, rec in enumerate(records) if not (isinstance(rec, dict) and required <= rec.keys())]:
        rec = records[k]
        if not isinstance(rec, dict):
            out.append(f"index {k} is not an object")
        else:
            name = f"id {rec['id']!r}" if "id" in rec else f"index {k}"
            out.append(f"{name} lacks {', '.join(repr(key) for key in keys if key not in rec)}")
    return out


def parse_coco(path: str | Path) -> RawDataset:
    """Read and structurally validate a COCO-style detection file."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as e:
        raise ValueError(f"malformed JSON in {path}: {e}") from e
    for key, required in _REQUIRED_KEYS.items():
        if not isinstance(doc, dict) or key not in doc or not isinstance(doc[key], list):
            raise ValueError(f"missing or invalid '{key}' array")
        malformed = _malformed_records(doc[key], required)
        if malformed:
            raise ValueError(f"{key} are not objects or lack a key: {'; '.join(malformed)}")

    images = []
    non_integral = []
    for rec in doc["images"]:
        iid, w, h = _integer(rec["id"]), _integer(rec["width"]), _integer(rec["height"])
        if iid is None or w is None or h is None:
            non_integral.append(rec["id"])
        elif w <= 0 or h <= 0:
            raise ValueError(f"image {iid} has non-positive dimensions")
        else:
            images.append(ImageInfo(id=iid, width=w, height=h))
    _raise_listed(("images have a non-integral id, width or height", non_integral))
    image_ids = {im.id for im in images}
    if len(image_ids) != len(images):
        raise ValueError("duplicate image ids")

    ids = [_integer(c["id"]) for c in doc["categories"]]
    _raise_listed(
        ("non-integral category ids", [c["id"] for c, cid in zip(doc["categories"], ids) if cid is None]),
        ("category names that are not strings", [c["id"] for c in doc["categories"] if not isinstance(c["name"], str)]),
    )
    categories = sorted(zip(ids, [c["name"] for c in doc["categories"]]), key=lambda t: t[0])
    cat_ids = set(ids)
    if len(cat_ids) != len(categories):
        raise ValueError("duplicate category ids")

    annotations = []
    seen = set()
    non_integral, duplicates, dangling_images, dangling_cats, not_four, non_finite, no_area = ([] for _ in range(7))
    for rec in doc["annotations"]:
        aid, img, cat = _integer(rec["id"]), _integer(rec["image_id"]), _integer(rec["category_id"])
        if aid is None or img is None or cat is None:
            non_integral.append(rec["id"])
            continue
        if aid in seen:
            duplicates.append(aid)
        seen.add(aid)
        if img not in image_ids:
            dangling_images.append(aid)
            continue
        if cat not in cat_ids:
            dangling_cats.append(aid)
            continue
        bbox = rec["bbox"]
        x, y, w, h = bbox if type(bbox) is list and len(bbox) == 4 else (None,) * 4
        if not (type(x) in _NUMBER and type(y) in _NUMBER and type(w) in _NUMBER and type(h) in _NUMBER):
            not_four.append(aid)  # a str, dict or bool is not a number
            continue
        try:
            x, y, w, h = float(x), float(y), float(w), float(h)
        except OverflowError:  # an int too large for a float
            not_four.append(aid)
            continue
        if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(w) and math.isfinite(h)):
            non_finite.append(aid)
            continue
        if w < 0 or h < 0 or w * h == 0.0:
            no_area.append(aid)
            continue
        annotations.append(RawAnnotation(id=aid, image_id=img, category_id=cat, bbox=(x, y, w, h)))
    _raise_listed(
        ("annotations have a non-integral id, image_id or category_id", non_integral),
        ("duplicate annotation ids", duplicates),
        (_UNKNOWN_IMAGES, dangling_images),
        (_UNKNOWN_CATEGORIES, dangling_cats),
        ("annotations have a bbox that is not four numbers", not_four),
        ("annotations have a non-finite bbox value", non_finite),
    )
    if no_area:
        log.warning("%d annotations have a negative side or zero area; dropped: %s", len(no_area), no_area)

    images.sort(key=lambda im: im.id)
    annotations.sort(key=lambda a: a.id)
    return RawDataset(images=images, annotations=annotations, categories=categories)


def normalize(raw: RawDataset) -> Dataset:
    """Convert pixel boxes to normalized center-size, keeping pixel areas.

    A box is cropped to its image, and its area and pixel box are those of
    the crop; a box with no area inside its image is dropped with a warning.
    A category's dense index is its position in ``raw.categories``, and an
    annotation of an image or category that ``raw`` lacks raises ``ValueError``,
    as does a repeated image or annotation id, before any other fault.
    """
    sizes = {im.id: (im.width, im.height) for im in raw.images}
    if len(sizes) != len(raw.images):
        raise ValueError("duplicate image ids")
    seen = set()
    duplicates = []
    for a in raw.annotations:
        if a.id in seen:
            duplicates.append(a.id)
        seen.add(a.id)
    _raise_listed(("duplicate annotation ids", duplicates))
    dense = {cid: i for i, (cid, _) in enumerate(raw.categories)}
    annotations = []
    outside = []
    dangling_images = []
    dangling_cats = []
    for a in raw.annotations:
        size, category = sizes.get(a.image_id), dense.get(a.category_id)
        if size is None or category is None:
            (dangling_images if size is None else dangling_cats).append(a.id)
            continue
        w_img, h_img = size
        if w_img <= 0 or h_img <= 0:
            raise ValueError(f"image {a.image_id} has non-positive dimensions")
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
            Annotation(id=a.id, image_id=a.image_id, category=category, box=box, area_px=w * h, bbox_px=(x, y, w, h))
        )
    _raise_listed((_UNKNOWN_IMAGES, dangling_images), (_UNKNOWN_CATEGORIES, dangling_cats))
    if outside:
        log.warning("%d annotations lie wholly outside their image; dropped: %s", len(outside), outside)
    return Dataset(
        images=list(raw.images),
        annotations=annotations,
        category_names=[name for _, name in raw.categories],
        category_map=dense,
    )
