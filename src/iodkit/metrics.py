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
otherwise ``_trusted_instances`` builds all kept boxes and then all
detections column by column, setting the slots without re-validating
values the array check has passed; that check is why it may, so the
builder lives beside it and has no other caller.

Per category and IoU threshold, detections are greedily matched to
ground truth in descending score order (highest-IoU unmatched truth above
the threshold wins), the precision envelope is interpolated, and AP is
the mean over 101 recall points. The headline AP averages thresholds
0.50:0.05:0.95; size-banded variants ignore truths (and unmatched
detections) outside the pixel-area band.

``evaluate_detections`` does this in one pass, after pycocotools'
``COCOeval.evaluateImg``/``accumulate`` (Lin et al. 2014): each category's
detections are ranked once, and one ``iou`` call scores every
(detection, truth) pair of the same image across all images. Each image's
block of that result is the IoU matrix its greedy match reads, for every
threshold and area band; a detection below the lowest threshold against
every truth skips the match. The outcome of every ranked detection at
every (band, threshold) goes into one status array, from which AP is built
with array operations; ``ap50`` and ``ap75`` are read from the same
"all"-band APs as ``ap``.
"""

from __future__ import annotations

import logging
from collections import deque
from dataclasses import dataclass, field
from functools import cache
from itertools import chain, compress, repeat

import numpy as np

from .geometry import BoundingBox, iou
from .ingestion import Annotation
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

# status of a ranked detection at one (threshold, band)
_DROPPED, _TP, _FP = 0, 1, 2

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


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The ranges ``starts[i] : starts[i] + lengths[i]`` laid end to end."""
    return np.arange(lengths.sum()) + np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)


def _greedy_match(ious: list[list[float]], ignore: list[bool], threshold: float) -> list[int]:
    """Greedy match of one (category, image) at one threshold and band.

    ``ious`` rows are detections in ranked order, columns truths in
    annotation order. Real truths are scanned before ignored ones; the
    highest IoU >= ``threshold`` among unmatched truths wins and a tie goes
    to the later truth. Returns the truth matched by each row, or -1.
    """
    order = [k for k, ign in enumerate(ignore) if not ign] + [k for k, ign in enumerate(ignore) if ign]
    matched = [False] * len(ignore)
    out = []
    for row in ious:
        best = -1
        best_iou = threshold
        for k in order:
            if matched[k]:
                continue
            if best >= 0 and not ignore[best] and ignore[k]:
                break  # a real match is already at hand; ignored ones can't improve it
            v = row[k]
            if v < best_iou:
                continue
            best_iou = v
            best = k
        if best >= 0:
            matched[best] = True
        out.append(best)
    return out


def _ap_rows(status: np.ndarray, n_pos: int) -> np.ndarray:
    """101-point interpolated AP of each row of ranked statuses.

    Dropped detections stay in the arrays: they repeat the counts of the
    detection before them (or read recall and precision 0 before the
    first counted one), so the envelope and its reading at each recall
    point are those of the counted detections alone.
    """
    n_rows, n = status.shape
    if n == 0:
        return np.zeros(n_rows)
    tp_c = np.cumsum(status == _TP, axis=1, dtype=np.float64)
    fp_c = np.cumsum(status == _FP, axis=1, dtype=np.float64)
    precision = tp_c / np.maximum(tp_c + fp_c, 1e-12)
    # monotone precision envelope, then 101-point interpolation
    envelope = np.maximum.accumulate(precision[:, ::-1], axis=1)[:, ::-1]
    # recall tp_c / n_pos first reaches a recall point where tp_c first reaches `need`, the
    # fewest true positives whose recall does. One search serves every row: the rows' counts
    # are laid end to end, each lifted above the largest count of the row before
    need = np.searchsorted(np.arange(n_pos + 1) / n_pos, np.linspace(0.0, 1.0, RECALL_POINTS), side="left")
    row = np.arange(n_rows)[:, None]
    idx = np.searchsorted((tp_c + row * (n_pos + 1)).ravel(), need + row * (n_pos + 1), side="left") - row * n
    return np.where(idx < n, np.take_along_axis(envelope, np.minimum(idx, n - 1), axis=1), 0.0).mean(axis=1)


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
    """Full AP family over the given categories.

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
    gt_boxes = np.array([(a.box.cx, a.box.cy, a.box.w, a.box.h) for a in truths], dtype=np.float64)
    gt_boxes = gt_boxes.reshape(len(truths), 4)
    gt_area = np.array([a.area_px for a in truths], dtype=np.float64)
    gt_cat = np.array([cat_index[a.category] for a in truths], dtype=np.int64)
    truth_index: list[dict[int, list[int]]] = [{} for _ in categories]  # per category: image -> truths
    for k, a in enumerate(truths):
        truth_index[gt_cat[k]].setdefault(a.image_id, []).append(k)

    def outside(area: np.ndarray) -> np.ndarray:  # (band, item)
        return np.array([(area < lo) | (area > hi) for lo, hi in AREA_BANDS.values()])

    det_outside = outside(det_area)
    gt_ignored = outside(gt_area)
    n_pos = np.array([np.bincount(gt_cat[~ign], minlength=len(categories)) for ign in gt_ignored])
    n_bands, n_thr = len(AREA_BANDS), len(IOU_THRESHOLDS)
    # (band, category, threshold) AP; entries of a category with no truth in the band stay unused
    aps = np.zeros((n_bands, len(categories), n_thr))

    for ci, by_image in enumerate(truth_index):
        if not by_image:
            continue
        sel = np.flatnonzero(det_cat == categories[ci])
        ranked = sel[np.lexsort((sel, det_img[sel], -scores[sel]))]
        # per band and threshold: _TP, _FP or _DROPPED for each ranked detection;
        # unmatched detections are false positives inside the band, dropped outside it
        status = np.where(det_outside[:, ranked], _DROPPED, _FP).astype(np.int8)
        status = np.repeat(status[:, None, :], n_thr, axis=1)
        n_ranked = ranked.size

        # pair every ranked detection with each truth of its image, for one IoU call: a row
        # per detection on an image with truth, image by image and in rank order within one
        ranked_img = det_img[ranked]
        by_img = np.argsort(ranked_img, kind="stable")  # rank positions grouped by image, in rank order
        img_sorted = ranked_img[by_img]
        images, gt_lists = list(by_image), list(by_image.values())
        starts = np.searchsorted(img_sorted, images, side="left")
        n_rows = np.searchsorted(img_sorted, images, side="right") - starts
        n_gts = np.array([len(g) for g in gt_lists])
        row_pos = by_img[_ranges(starts, n_rows)]
        row_image = np.repeat(np.arange(len(images)), n_rows)
        row_width = n_gts[row_image]
        pair_gt = np.concatenate(gt_lists)[_ranges((np.cumsum(n_gts) - n_gts)[row_image], row_width)]
        ious = iou(boxes[ranked[np.repeat(row_pos, row_width)]], gt_boxes[pair_gt])
        row_first = np.cumsum(row_width) - row_width  # each row's first pair
        # below the lowest threshold a detection is unmatched at every threshold
        candidate = np.maximum.reduceat(ious, row_first) >= IOU_THRESHOLDS[0]
        image_first = np.cumsum(n_rows) - n_rows  # each image's first row
        tp, dropped = [], []  # flat indices into status
        for j in np.flatnonzero(np.bincount(row_image[candidate], minlength=len(images))).tolist():
            r0, nr, ng = int(image_first[j]), int(n_rows[j]), int(n_gts[j])
            cand = candidate[r0 : r0 + nr]
            p0 = int(row_first[r0])
            cand_ious = ious[p0 : p0 + nr * ng].reshape(nr, ng)[cand].tolist()
            cand_rows = row_pos[r0 : r0 + nr][cand].tolist()
            # bands that ignore all or none of the truths scan them alike, so they share a matching
            matchings: dict[tuple, list[list[int]]] = {}
            for b, ignore in enumerate(gt_ignored[:, gt_lists[j]].tolist()):
                key = tuple(ignore) if any(ignore) and not all(ignore) else ()
                if key not in matchings:
                    matchings[key] = [_greedy_match(cand_ious, ignore, t) for t in IOU_THRESHOLDS]
                for ti, matched in enumerate(matchings[key]):
                    base = (b * n_thr + ti) * n_ranked
                    for pos, k in zip(cand_rows, matched):
                        if k >= 0:  # a match to an ignored truth drops the detection
                            (dropped if ignore[k] else tp).append(base + pos)
        status.reshape(-1)[tp] = _TP
        status.reshape(-1)[dropped] = _DROPPED

        by_outcome: dict[tuple, np.ndarray] = {}  # bands with the same outcomes share their APs
        for b in range(n_bands):
            if n_pos[b, ci]:
                key = (int(n_pos[b, ci]), status[b].tobytes())
                if key not in by_outcome:
                    by_outcome[key] = _ap_rows(status[b], key[0])
                aps[b, ci] = by_outcome[key]

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
