"""COCO-format annotation parsing and normalization, built from checked columns.

Only the detection fields are read (images, annotations with pixel
``bbox``, categories); ids and image sizes must be integers (an int, or a
float of integral value such as 640.0; a bool is neither), and category
ids are remapped to a dense 0..C-1 range. ``normalize`` is the one converter
from pixel records to ``Annotation``s, serving both ``parse_coco`` and
``toy_detector.synth_generate``. ``canonical_json`` encodes the small JSON
manifests (the phase plan and the exemplar memory); checkpoints are encoded
by orjson in ``toy_detector.save_checkpoint``. ``write_atomic`` is the
package's one file writer.

Records are built from columns, not by one constructor call each.
``parse_coco`` reads every field of an array into a column and tests each
column as a whole (every id an int, every bbox a list of four numbers, every
image known); only a column that fails a test is read again record by
record, to list the offenders, so the lists, their messages and their order
are those of the record rules. ``normalize`` crops all boxes in one NumPy
pass and range-checks the normalized fields on the whole array; if a box
fails, the first failing one in annotation order is built through the public
``BoundingBox`` constructor, which raises its usual ``ValueError``.

``_trusted_instances`` is the package's one column builder: it sets the slots
of a slotted dataclass's new instances without running ``__init__`` or
``__post_init__``, so each caller checks the values before it builds
(``parse_coco`` and ``normalize`` here, ``metrics.detections_from_predictions``
for detections).
"""

from __future__ import annotations

import json
import logging
from collections import deque
from dataclasses import dataclass, field
from functools import cache
from itertools import chain, compress, repeat
from operator import attrgetter, itemgetter
from pathlib import Path

import numpy as np

from .geometry import BoundingBox

__all__ = [
    "RawAnnotation",
    "RawDataset",
    "ImageInfo",
    "Annotation",
    "AnnotatedImages",
    "Dataset",
    "parse_coco",
    "normalize",
    "canonical_json",
    "write_atomic",
]

log = logging.getLogger(__name__)


@dataclass(frozen=True, slots=True)
class ImageInfo:
    id: int
    width: int
    height: int


@dataclass(frozen=True, slots=True)
class RawAnnotation:
    id: int
    image_id: int
    category_id: int
    bbox: tuple[float, float, float, float]  # pixels, top-left origin


@dataclass
class RawDataset:
    images: list[ImageInfo]
    annotations: list[RawAnnotation]
    categories: list[tuple[int, str]]  # (original id, name), sorted by id; the dense index is the position


@dataclass(frozen=True, slots=True)
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
        """Each image's annotations; ``ValueError`` names the annotations of an image the set lacks."""
        out: dict[int, list[Annotation]] = {im.id: [] for im in self.images}
        try:
            for a in self.annotations:
                out[a.image_id].append(a)
        except KeyError:
            missing = [a.id for a in self.annotations if a.image_id not in out]
            raise ValueError(f"{_UNKNOWN_IMAGES}: {missing}") from None
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


_exhaust = deque(maxlen=0).extend  # runs an iterator to its end in C, keeping nothing


@cache
def _slot_setters(cls: type) -> tuple:
    return tuple(cls.__dict__[name].__set__ for name in cls.__slots__)


def _trusted_instances(cls: type, n: int, *columns) -> list:
    """``n`` instances of the slotted dataclass ``cls``; instance i takes item i of each field's column.

    Allocates all objects, then sets each field on all of them through its slot descriptor, in C
    loops that skip ``__init__`` and ``__post_init__``: for values the caller has checked.
    """
    objs = list(map(object.__new__, repeat(cls, n)))
    for setter, column in zip(_slot_setters(cls), columns, strict=True):
        _exhaust(map(setter, objs, column))
    return objs


# the keys every record of each array must have
_REQUIRED_KEYS = {
    "images": ("id", "width", "height"),
    "annotations": ("id", "image_id", "category_id", "bbox"),
    "categories": ("id", "name"),
}
_NUMBER = frozenset((int, float))  # the types json reads a number as
_INT, _LIST, _FOUR = frozenset((int,)), frozenset((list,)), frozenset((4,))
_UNKNOWN_IMAGES = "annotations reference unknown image ids"
_UNKNOWN_CATEGORIES = "annotations reference unknown category ids"


def _integer(v) -> int | None:
    """An int as it is, a float of integral value as an int (640.0 is 640), anything else None (a bool too)."""
    if type(v) is int:
        return v
    if type(v) is float and v.is_integer():  # not on NaN or inf
        return int(v)
    return None


def _integers(column: list) -> list:
    """``column`` read by ``_integer``: the list itself when every value is an int, else a new list."""
    return column if set(map(type, column)) <= _INT else list(map(_integer, column))


def _raise_listed(*faults: tuple[str, list]) -> None:
    """Raise ``ValueError`` for the first (message, offenders) pair in ``faults`` that has an offender."""
    for message, offenders in faults:
        if offenders:
            raise ValueError(f"{message}: {offenders}")


def _repeats(ids: list) -> list:
    """Each id that repeats an earlier one, in order (a set and a length compare, when none does)."""
    seen: set = set()
    return [] if len(set(ids)) == len(ids) else [i for i in ids if i in seen or seen.add(i)]


def _malformed_records(records: list, keys: tuple[str, ...]) -> list[str]:
    """Each record that is not an object or lacks one of ``keys``, named by id or else by index."""
    out = []
    for k, rec in enumerate(records):
        if not isinstance(rec, dict):
            out.append(f"index {k} is not an object")
        elif missing := [key for key in keys if key not in rec]:
            name = f"id {rec['id']!r}" if "id" in rec else f"index {k}"
            out.append(f"{name} lacks {', '.join(map(repr, missing))}")
    return out


def _columns(records: list, keys: tuple[str, ...], get=itemgetter) -> list[list]:
    """One list per key: each record's value under ``get(key)``, in record order."""
    return [list(map(get(key), records)) for key in keys]


def _sift(keep: list[bool], named: list, columns: list[list]) -> tuple[list, list[list]]:
    """The items of ``named`` where ``keep`` is false, and each column cut to where it is true."""
    return [v for v, k in zip(named, keep) if not k], [list(compress(c, keep)) for c in columns]


def _as_floats(bboxes: list) -> np.ndarray | None:
    """The (n, 4) float values of ``bboxes``, or None unless each is a list of four numbers that fit a float.

    A str, dict or bool is not a number; each value is read as ``float()`` reads it.
    """
    if not (set(map(type, bboxes)) <= _LIST and set(map(len, bboxes)) <= _FOUR):
        return None
    flat = list(chain.from_iterable(bboxes))
    if not set(map(type, flat)) <= _NUMBER:
        return None
    try:
        return np.fromiter(flat, np.float64, len(flat)).reshape(-1, 4)
    except OverflowError:  # an int too large for a float
        return None


def parse_coco(path: str | Path) -> RawDataset:
    """Read and structurally validate a COCO-style detection file.

    Past the checks that each record is an object with the required keys,
    an image with a non-positive side raises before any list of offenders.
    The annotation lists raise in this order, the first that has an offender:
    non-integral ids, duplicate ids, unknown images, unknown categories,
    bboxes that are not four numbers, non-finite bbox values. Past them, an
    annotation with a negative side or zero area is dropped with a warning.
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as e:
        raise ValueError(f"malformed JSON in {path}: {e}") from e
    columns = {}
    for key, required in _REQUIRED_KEYS.items():
        if not isinstance(doc, dict) or key not in doc or not isinstance(doc[key], list):
            raise ValueError(f"missing or invalid '{key}' array")
        try:
            columns[key] = _columns(doc[key], required)
        except (KeyError, TypeError):  # a record that is not an object or lacks a key
            malformed = "; ".join(_malformed_records(doc[key], required))
            raise ValueError(f"{key} are not objects or lack a key: {malformed}") from None

    raw_ids, widths, heights = columns["images"]
    iids, widths, heights = _integers(raw_ids), _integers(widths), _integers(heights)
    non_integral = []
    if None in iids or None in widths or None in heights:
        keep = [None not in sides for sides in zip(iids, widths, heights)]
        non_integral, (iids, widths, heights) = _sift(keep, raw_ids, [iids, widths, heights])
    if iids and (min(widths) <= 0 or min(heights) <= 0):
        first = next(iid for iid, w, h in zip(iids, widths, heights) if w <= 0 or h <= 0)
        raise ValueError(f"image {first} has non-positive dimensions")
    _raise_listed(("images have a non-integral id, width or height", non_integral))
    image_ids = set(iids)
    if len(image_ids) != len(iids):
        raise ValueError("duplicate image ids")

    raw_ids, names = columns["categories"]
    ids = list(map(_integer, raw_ids))
    _raise_listed(
        ("non-integral category ids", [c for c, cid in zip(raw_ids, ids) if cid is None]),
        ("category names that are not strings", [c for c, name in zip(raw_ids, names) if not isinstance(name, str)]),
    )
    categories = sorted(zip(ids, names), key=itemgetter(0))
    cat_ids = set(ids)
    if len(cat_ids) != len(categories):
        raise ValueError("duplicate category ids")

    raw_ids, imgs, cats, bboxes = columns["annotations"]
    aids, imgs, cats = _integers(raw_ids), _integers(imgs), _integers(cats)
    # each list raises as soon as it has an offender, so the lists after it see every record
    if None in aids or None in imgs or None in cats:
        non_integral = [rid for rid, ints in zip(raw_ids, zip(aids, imgs, cats)) if None in ints]
        _raise_listed(("annotations have a non-integral id, image_id or category_id", non_integral))
    _raise_listed(("duplicate annotation ids", _repeats(aids)))
    if not image_ids.issuperset(imgs):
        _raise_listed((_UNKNOWN_IMAGES, [aid for aid, img in zip(aids, imgs) if img not in image_ids]))
    if not cat_ids.issuperset(cats):
        _raise_listed((_UNKNOWN_CATEGORIES, [aid for aid, cat in zip(aids, cats) if cat not in cat_ids]))
    values = _as_floats(bboxes)
    if values is None:
        not_four = [aid for aid, bbox in zip(aids, bboxes) if _as_floats([bbox]) is None]
        _raise_listed(("annotations have a bbox that is not four numbers", not_four))
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        _raise_listed(("annotations have a non-finite bbox value", list(compress(aids, (~finite).tolist()))))
    w, h = values[:, 2], values[:, 3]
    with np.errstate(over="ignore"):  # an overflowing product is inf, not zero, as in Python
        has_area = ~((w < 0) | (h < 0) | (w * h == 0.0))
    if not has_area.all():
        no_area, (aids, imgs, cats) = _sift(has_area.tolist(), aids, [aids, imgs, cats])
        values = values[has_area]
        log.warning("%d annotations have a negative side or zero area; dropped: %s", len(no_area), no_area)

    images = _trusted_instances(ImageInfo, len(iids), iids, widths, heights)
    annotations = _trusted_instances(RawAnnotation, len(aids), aids, imgs, cats, map(tuple, values.tolist()))
    images.sort(key=attrgetter("id"))
    annotations.sort(key=attrgetter("id"))
    return RawDataset(images=images, annotations=annotations, categories=categories)


def normalize(raw: RawDataset) -> Dataset:
    """Convert pixel boxes to normalized center-size, keeping pixel areas.

    A box is cropped to its image, and its area and pixel box are those of
    the crop; a box with no area inside its image is dropped with a warning.
    A category's dense index is its position in ``raw.categories``, and an
    annotation of an image or category that ``raw`` lacks raises ``ValueError``.

    All boxes are cropped at once, on the (n, 4) pixel boxes (floats, as
    ``parse_coco`` gives them) and the (n, 2) image sizes, with the choices
    Python's ``max(v, 0.0)`` and ``min(v + side, size)`` make, so -0.0 and
    NaN come through as they would; an axis the crop leaves alone keeps its
    exact (x, w) or (y, h). Sizes are read as floats, which compare as
    Python's ints do up to 2**53 px. The normalized fields are
    range-checked on the whole array, and only checked values reach
    ``_trusted_instances``. Faults raise in this order: duplicate image ids;
    duplicate annotation ids; the first annotation of a known image and
    category with a non-positive image size or a box ``BoundingBox``
    rejects (built to raise its message); unknown image ids; unknown
    category ids. The warning on boxes wholly outside comes last.
    """
    sizes = {im.id: (im.width, im.height) for im in raw.images}
    if len(sizes) != len(raw.images):
        raise ValueError("duplicate image ids")
    dense = {cid: i for i, (cid, _) in enumerate(raw.categories)}
    aids, image_ids, cat_ids, bboxes = _columns(raw.annotations, ("id", "image_id", "category_id", "bbox"), attrgetter)
    _raise_listed(("duplicate annotation ids", _repeats(aids)))
    columns = [aids, image_ids, list(map(dense.get, cat_ids)), bboxes, list(map(sizes.get, image_ids))]
    dangling_images, dangling_cats = [], []
    if None in columns[4]:
        dangling_images, columns = _sift([size is not None for size in columns[4]], aids, columns)
    if None in columns[2]:
        dangling_cats, columns = _sift([cat is not None for cat in columns[2]], columns[0], columns)
    aids, image_ids, cats, bboxes, image_sizes = columns
    px = np.fromiter(chain.from_iterable(bboxes), np.float64, 4 * len(bboxes)).reshape(-1, 4)
    wh = np.fromiter(chain.from_iterable(image_sizes), np.float64, 2 * len(image_sizes)).reshape(-1, 2)
    lo, side = px[:, :2], px[:, 2:]
    with np.errstate(all="ignore"):  # a NaN or inf box reaches BoundingBox, which names it
        hi = lo + side
        lo_crop = np.where(0.0 > lo, 0.0, lo)  # max(v, 0.0), -0.0 and NaN kept
        hi_crop = np.where(wh < hi, wh, hi)  # min(v + side, size)
        outside = (hi_crop <= lo_crop).any(axis=1)
        cut = (0.0 > lo) | (wh < hi)  # the crop moved an end; where v + side is NaN, the centre is NaN either way
        lo = np.where(cut, lo_crop, lo)
        side = np.where(cut, hi_crop - lo_crop, side)
        fields = np.concatenate(((lo + side / 2) / wh, side / wh), axis=1)  # cx, cy, w, h
        area = side[:, 0] * side[:, 1]
        bad_size = (wh <= 0.0).any(axis=1)
        fails = bad_size | ~(outside | ((fields >= 0.0) & (fields <= 1.0)).all(axis=1))  # NaN fails
    if fails.any():
        k = int(fails.argmax())
        if bad_size[k]:
            raise ValueError(f"image {image_ids[k]} has non-positive dimensions")
        BoundingBox(*fields[k].tolist())
        raise AssertionError("a box outside the unit square passed BoundingBox")
    _raise_listed((_UNKNOWN_IMAGES, dangling_images), (_UNKNOWN_CATEGORIES, dangling_cats))

    bbox_px = list(bboxes)  # a box the crop leaves alone keeps its own tuple
    rows = np.flatnonzero(cut.any(axis=1))
    for k, box in zip(rows.tolist(), np.concatenate((lo, side), axis=1)[rows].tolist()):
        bbox_px[k] = tuple(box)
    if outside.any():
        inside = (~outside).tolist()
        dropped, (aids, image_ids, cats, bbox_px) = _sift(inside, aids, [aids, image_ids, cats, bbox_px])
        fields, area = fields[~outside], area[~outside]
        log.warning("%d annotations lie wholly outside their image; dropped: %s", len(dropped), dropped)
    boxes = _trusted_instances(BoundingBox, len(aids), *fields.T.tolist())
    annotations = _trusted_instances(Annotation, len(aids), aids, image_ids, cats, boxes, area.tolist(), bbox_px)
    return Dataset(
        images=list(raw.images),
        annotations=annotations,
        category_names=[name for _, name in raw.categories],
        category_map=dense,
    )


def canonical_json(doc) -> str:
    """Sorted keys, no spaces, newline-terminated."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def write_atomic(path: str | Path, data: bytes) -> None:
    """Write ``data`` to a sibling ``.tmp`` file, then rename it over ``path``.

    Text callers encode first, e.g. ``canonical_json(doc).encode()``.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(data)
    tmp.replace(path)
