"""Average-precision evaluation and the forgetting measure.

Post-processing (``detections_from_predictions``) keeps the first
``MAX_DETECTIONS_PER_IMAGE`` slots of one prediction set in the order of
``labels._top_foreground``, the one ranking of foreground predictions, which
DKD's pseudo-label selection also reads: the slots whose argmax is not
background, most confident first, a score tie to the lower slot. A slot's
category is its first argmax and its score the probability there. The kept
boxes' range is checked on the whole array (NaN fails). If one fails, the
first failing box in rank order is built through the public
``BoundingBox`` constructor, which raises its usual ``ValueError``;
otherwise ``ingestion._trusted_instances``, the package's one column
builder, builds all kept boxes and then all detections column by column,
setting the slots without re-validating values the array check has
passed. That check is why it may: the builder checks nothing, so each of
its callers (this one, ``parse_coco`` and ``normalize``) checks its
columns first.

Per category and IoU threshold, detections are greedily matched to
ground truth in descending score order. Each takes one of the unmatched
truths of its image with IoU at or above the threshold: a real truth
before one the area band ignores, then the highest IoU, a tie to the
later truth. The precision envelope is interpolated, and AP is the mean over 101
recall points. The headline AP averages thresholds 0.50:0.05:0.95;
size-banded variants ignore truths (and unmatched detections) outside the
pixel-area band.

``evaluate_detections`` does this for every category in one pass, after
pycocotools' ``COCOeval.evaluateImg``/``accumulate`` (Lin et al. 2014).
One ``lexsort`` ranks the detections of all categories, category by
category. Each (category, image) with truth is a block, its truths in
annotation order; one ``iou`` call scores every ranked detection against
the truths of its block. A detection below the lowest threshold against
all of them can match nothing and is left out. The greedy match runs in
rank steps: step s takes the s-th remaining detection of every block and
matches it at all four area bands and ten thresholds at once, so the loop
runs as many times as the largest block has detections, whatever the
number of categories and images. ``_ap_rows`` builds the AP of every
(band, category, threshold) from the matches alone; ``ap50`` and ``ap75``
are read from the same "all"-band APs as ``ap``.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from itertools import chain, compress, repeat

import numpy as np

from .geometry import BoundingBox, iou
from .ingestion import Annotation, _trusted_instances
from .labels import LabeledSet, _top_foreground

log = logging.getLogger(__name__)

__all__ = [
    "Detection",
    "ApSummary",
    "detections_from_predictions",
    "evaluate_detections",
    "fpp",
]

IOU_THRESHOLDS = tuple(np.round(np.linspace(0.5, 0.95, 10), 2).tolist())
RECALL_POINTS = 101
MAX_DETECTIONS_PER_IMAGE = 100
NOMINAL_IMAGE_PX = 640

# AP rows read at once, so that each (rows, RECALL_POINTS) temporary is 26 KB: reading all rows
# at once left about 0.3 MB more heap resident after an evaluation, and so a higher peak RSS
_READ_ROWS = 32

# pixel-area bands: small, medium, large (COCO convention)
AREA_BANDS = {
    "all": (0.0, float("inf")),
    "small": (0.0, 32.0**2),
    "medium": (32.0**2, 96.0**2),
    "large": (96.0**2, float("inf")),
}


@dataclass(frozen=True, slots=True)
class Detection:
    """One scored box prediction for an image."""

    image_id: int
    category: int
    score: float
    box: BoundingBox


def detections_from_predictions(preds: LabeledSet, image_id: int) -> list[Detection]:
    """Post-process one prediction set: drop background-argmax slots.

    The score is the best foreground-category probability; at most
    ``MAX_DETECTIONS_PER_IMAGE`` highest-scoring slots are kept. Raises
    ``ValueError`` for a kept slot's box outside the unit square.
    """
    kept, cats, scores = _top_foreground(preds.probs, MAX_DETECTIONS_PER_IMAGE)
    if kept.size == 0:
        return []
    boxes = preds.boxes[kept]
    if not (boxes.min() >= 0.0 and boxes.max() <= 1.0):  # NaN fails
        # the public constructor names the first failing field of the first failing box in rank
        in_range = (boxes >= 0.0) & (boxes <= 1.0)
        BoundingBox(*boxes[np.argmin(in_range.all(axis=1))].tolist())
        raise AssertionError("a box outside the unit square passed BoundingBox")
    built = _trusted_instances(BoundingBox, kept.size, *boxes.T.tolist())  # all boxes, then all detections
    return _trusted_instances(Detection, kept.size, repeat(image_id), cats.tolist(), scores.tolist(), built)


@dataclass
class ApSummary:
    ap: float
    ap50: float
    ap75: float
    ap_s: float
    ap_m: float
    ap_l: float
    per_category: dict[int, float] = field(default_factory=dict)


def _valid_detections(scores: np.ndarray, boxes: np.ndarray) -> np.ndarray:
    """Mask of detections with a score in (0, 1] and a finite box (NaN fails)."""
    return (scores > 0.0) & (scores <= 1.0) & np.isfinite(boxes).all(axis=1)


def _find(keys: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Position of each value in the ascending, distinct ``keys``; -1 where it is missing."""
    at = np.searchsorted(keys, values)
    found = at < keys.size
    found[found] = keys[at[found]] == values[found]
    return np.where(found, at, -1)


def _ap_rows(matches: np.ndarray, inside: np.ndarray, segments: np.ndarray, n_pos: np.ndarray) -> np.ndarray:
    """101-point interpolated AP of each (band, category, threshold) from the greedy matches.

    ``matches`` has a column per matched detection: band, threshold, rank position, and 1 if
    its truth is real (a true positive, TP), 0 if ignored. ``inside`` (band, rank position)
    masks the detections inside each band's area range; category ci ranks at
    ``segments[ci]:segments[ci + 1]`` and has ``n_pos[band, ci]`` real truths. An unmatched
    detection inside the band is a false positive (FP); any other detection is dropped and
    repeats the counts before it. Precision only rises at a TP, so the precision envelope is
    read at TPs alone: at a recall point it is the highest precision of the TP that first
    reaches it and of every later TP (of the first TP at recall 0, and 0 past the last).
    """
    n_bands, n_cat = n_pos.shape
    n_thr, n_ranked = len(IOU_THRESHOLDS), inside.shape[1]
    b, t, pos, real = matches
    ci = np.searchsorted(segments, pos, side="right") - 1
    row = (b * n_cat + ci) * n_thr + t
    by_row = np.argsort(row * n_ranked + pos)  # rows in order, a row's matches in rank order
    b, pos, real, ci, row = b[by_row], pos[by_row], real[by_row], ci[by_row], row[by_row]
    first = np.searchsorted(row, row)
    # per match, in its row: TPs up to it, and FPs before it (the band's detections ranked
    # before it in its category that no match took)
    tp = np.cumsum(real)
    tp -= (tp - real)[first]
    taken = inside[b, pos]
    before = np.cumsum(taken) - taken
    inside_c = np.zeros((n_bands, n_ranked + 1), dtype=np.int64)  # the band's detections ranked before each
    np.cumsum(inside, axis=1, out=inside_c[:, 1:])
    fp = inside_c[b, pos] - inside_c[b, segments[ci]] - (before - before[first])
    real = real == 1
    precision, row = tp[real] / (tp[real] + fp[real]), row[real]
    # the envelope at each TP, by one running maximum over all TPs in reverse: a TP's key is its
    # precision's rank among all, lifted above the keys of every later row
    values, rank = np.unique(precision, return_inverse=True)
    lifted = (n_bands * n_cat * n_thr - row) * values.size + rank
    envelope = np.append(values[np.maximum.accumulate(lifted[::-1])[::-1] % max(values.size, 1)], 0.0)
    # per recall point, the fewest TPs whose recall k / n_pos reaches it, for each distinct n_pos;
    # the envelope is read at the row's TP of that rank (at its first TP for recall 0)
    counts, count_of = np.unique(n_pos, return_inverse=True)
    points = np.linspace(0.0, 1.0, RECALL_POINTS)
    need = np.array([np.searchsorted(np.arange(n + 1) / max(n, 1), points) for n in counts.tolist()], dtype=np.intp)
    at = np.maximum(need.reshape(-1, RECALL_POINTS), 1)[count_of.ravel()] - 1
    # a row without a TP reads 0 at every recall point; the others are read _READ_ROWS at a time
    n_tp = np.bincount(row, minlength=n_bands * n_cat * n_thr)
    start = np.cumsum(n_tp) - n_tp
    aps = np.zeros(n_tp.size)
    hit = np.flatnonzero(n_tp)
    for h in (hit[lo : lo + _READ_ROWS] for lo in range(0, hit.size, _READ_ROWS)):
        row_at = at[h // n_thr]
        aps[h] = envelope[np.where(row_at < n_tp[h, None], start[h, None] + row_at, precision.size)].mean(axis=-1)
    return aps.reshape(n_bands, n_cat, -1)


def _band_mean(aps: np.ndarray, scored: np.ndarray, categories: list[int], thresholds: slice):
    """A band's mean AP over ``thresholds`` and each ``scored`` category's, from its (category, threshold) APs.

    One reduction along the contiguous threshold axis gives the bits of each row's own mean.
    """
    means = aps[scored, thresholds].mean(axis=-1)
    per_cat = dict(zip(compress(categories, scored.tolist()), means.tolist()))
    return (float(means.mean()) if per_cat else 0.0), per_cat


def evaluate_detections(
    detections: list[Detection],
    ground_truth: list[Annotation],
    categories: list[int],
    image_sizes: dict[int, tuple[int, int]] | None = None,
) -> ApSummary:
    """Full AP family over the given categories, all matched and scored in one pass.

    ``categories`` is required: it names the categories scored (a repeat
    counts once), and a category with no truth (in a band) is left out of
    that band's mean. ``image_sizes`` (id -> (width, height) pixels)
    converts normalized detection boxes to pixel areas for the size bands
    and must cover every detection's image. Without it every detection is
    sized on a nominal 640 px image (so it falls in the "large" band unless
    tiny), with one warning.

    Raises ``ValueError`` for a score outside (0, 1], a non-finite box, or
    a detection on an image missing from ``image_sizes``.
    """
    categories = list(dict.fromkeys(categories))
    n_det = len(detections)
    det = np.fromiter(
        chain.from_iterable((d.score, d.box.cx, d.box.cy, d.box.w, d.box.h) for d in detections),
        np.float64,
        5 * n_det,
    ).reshape(n_det, 5)
    scores, boxes = det[:, 0], det[:, 1:]
    det_img = np.fromiter((d.image_id for d in detections), np.int64, n_det)
    det_cat = np.fromiter((d.category for d in detections), np.int64, n_det)
    bad = np.flatnonzero(~_valid_detections(scores, boxes))
    if bad.size:
        raise ValueError(
            f"{bad.size} detections have a score outside (0, 1] or a non-finite box: "
            f"indices {bad[:10].tolist()}"
        )
    if image_sizes is None:
        width = height = np.full(n_det, NOMINAL_IMAGE_PX, dtype=np.float64)
        if n_det:
            log.warning("no image_sizes: %d detections sized on a nominal %d px image", n_det, NOMINAL_IMAGE_PX)
    else:
        det_images, det_image_of = np.unique(det_img, return_inverse=True)
        missing = [i for i in det_images.tolist() if i not in image_sizes]
        if missing:
            raise ValueError(f"detections on images missing from image_sizes: {missing}")
        wh = np.array([image_sizes[i] for i in det_images.tolist()], dtype=np.float64).reshape(-1, 2)[det_image_of]
        width, height = wh[:, 0], wh[:, 1]
    det_area = boxes[:, 2] * width * boxes[:, 3] * height

    cat_index = {c: ci for ci, c in enumerate(categories)}
    truths = [a for a in ground_truth if a.category in cat_index]
    n_gt = len(truths)
    # truth n_gt is a zero box, whose IoU with any box is 0: it fills the short rows of block_gts
    gt_boxes = np.zeros((n_gt + 1, 4))
    gt_boxes[:n_gt] = np.array([(a.box.cx, a.box.cy, a.box.w, a.box.h) for a in truths]).reshape(n_gt, 4)
    gt_area = np.array([a.area_px for a in truths], dtype=np.float64)
    gt_cat = np.array([cat_index[a.category] for a in truths], dtype=np.int64)
    gt_img = np.array([a.image_id for a in truths], dtype=np.int64)

    def outside(area: np.ndarray) -> np.ndarray:  # (band, item)
        return np.array([(area < lo) | (area > hi) for lo, hi in AREA_BANDS.values()])

    det_outside = outside(det_area)
    gt_ignored = np.pad(outside(gt_area), ((0, 0), (0, 1)))
    n_pos = np.array([np.bincount(gt_cat[~ign[:n_gt]], minlength=len(categories)) for ign in gt_ignored])

    # the detections of every category with truth (in the "all" band, which holds every truth a
    # band counts), ranked once: by category, then as each category's own ranking orders them:
    # by score, then image, then input index
    det_values, det_value_of = np.unique(det_cat, return_inverse=True)
    det_ci = np.array([cat_index.get(c, -1) for c in det_values.tolist()], dtype=np.int64)[det_value_of]
    sel = np.flatnonzero(det_ci >= 0)
    sel = sel[n_pos[0, det_ci[sel]] > 0]
    ranked = sel[np.lexsort((det_img[sel], -scores[sel], det_ci[sel]))]  # a stable sort: full ties by index
    segments = np.searchsorted(det_ci[ranked], np.arange(len(categories) + 1))  # category ci: segments[ci:ci + 2]

    # (category, image) blocks of truth: each block's truths in annotation order, padded with the zero box
    images, gt_image_of = np.unique(gt_img, return_inverse=True)
    blocks, gt_block, n_gts = np.unique(gt_cat * images.size + gt_image_of, return_inverse=True, return_counts=True)
    by_block = np.argsort(gt_block, kind="stable")
    block_gts = np.full((blocks.size, n_gts.max(initial=1)), n_gt)
    block_gts[gt_block[by_block], np.arange(n_gt) - np.repeat(np.cumsum(n_gts) - n_gts, n_gts)] = by_block
    # a row per ranked detection on an image with truth of its category, in rank order,
    # scored against its block by one IoU call
    image_of = _find(images, det_img[ranked])
    block = _find(blocks, np.where(image_of >= 0, det_ci[ranked] * images.size + image_of, -1))
    rows = np.flatnonzero(block >= 0)
    ious = iou(boxes[ranked[rows]][:, None], gt_boxes[block_gts[block[rows]]])
    # below the lowest threshold a detection is unmatched at every threshold; the others are
    # candidate rows, and a block's s-th candidate row is matched in rank step s
    candidate = ious.max(axis=1, initial=0.0) >= IOU_THRESHOLDS[0]
    rows, ious, row_block = rows[candidate], ious[candidate], block[rows[candidate]]
    grouped = np.argsort(row_block, kind="stable")  # each block's rows in rank order
    step = np.arange(rows.size) - np.searchsorted(row_block[grouped], row_block[grouped])
    by_step = grouped[np.argsort(step, kind="stable")]

    n_bands, n_thr, width = len(AREA_BANDS), len(IOU_THRESHOLDS), block_gts.shape[1]
    thresholds = np.array(IOU_THRESHOLDS)[:, None, None]
    matched = np.zeros((n_bands, n_thr, n_gt + 1), dtype=bool)
    found = [np.zeros((4, 0), dtype=np.int64)]  # per match: band, threshold, rank position, real
    for r in np.split(by_step, np.cumsum(np.bincount(step))[:-1]):
        gts, row_ious = block_gts[row_block[r]], ious[r]  # (row, truth) of the step
        # (band, threshold, row, truth): an unmatched real truth with IoU >= t wins over an ignored one
        free = (row_ious >= thresholds) & ~matched[:, :, gts]
        real = free & ~gt_ignored[:, None, gts]
        value = np.where(np.where(real.any(axis=-1, keepdims=True), real, free), row_ious, -1.0)
        best = value.max(axis=-1, keepdims=True)
        b, t, i = np.nonzero(best[..., 0] >= 0.0)
        # the highest IoU wins, a tie to the later truth
        k = gts[i, width - 1 - np.argmax(value[b, t, i, ::-1] == best[b, t, i], axis=-1)]
        matched[b, t, k] = True
        found.append(np.stack([b, t, rows[r[i]], ~gt_ignored[b, k]]))

    # (band, category, threshold) AP; entries of a category with no truth in the band stay unused
    aps = _ap_rows(np.concatenate(found, axis=1), ~det_outside[:, ranked], segments, n_pos)

    band = {name: (aps[b], n_pos[b] > 0, categories) for b, name in enumerate(AREA_BANDS)}
    every = slice(None)
    ap, per_category = _band_mean(*band["all"], every)
    ti50, ti75 = IOU_THRESHOLDS.index(0.5), IOU_THRESHOLDS.index(0.75)
    return ApSummary(
        ap=ap,
        ap50=_band_mean(*band["all"], slice(ti50, ti50 + 1))[0],
        ap75=_band_mean(*band["all"], slice(ti75, ti75 + 1))[0],
        ap_s=_band_mean(*band["small"], every)[0],
        ap_m=_band_mean(*band["medium"], every)[0],
        ap_l=_band_mean(*band["large"], every)[0],
        per_category=per_category,
    )


def fpp(ap_first_phase_model: float, ap_final_model: float) -> float:
    """Forgetting in AP points on the first phase's categories (positive = forgot)."""
    for v in (ap_first_phase_model, ap_final_model):
        if not 0.0 <= v <= 1.0:
            raise ValueError("AP values must be fractions in [0, 1]")
    return ap_first_phase_model - ap_final_model
