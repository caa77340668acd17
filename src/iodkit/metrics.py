"""Average-precision evaluation and the forgetting measure.

Per category and IoU threshold, detections are greedily matched to
ground truth in descending score order (highest-IoU unmatched truth above
the threshold wins), the precision envelope is interpolated, and AP is
the mean over 101 recall points. The headline AP averages thresholds
0.50:0.05:0.95; size-banded variants ignore truths (and unmatched
detections) outside the pixel-area band.

``evaluate_detections`` does this in one pass, after pycocotools'
``COCOeval.evaluateImg``/``accumulate`` (Lin et al. 2014): each category's
detections are ranked once, one IoU matrix is computed per (category,
image), and the greedy match for every threshold and area band reads that
matrix; a detection below the lowest threshold against every truth skips
the match. The outcome of every ranked detection at every (band,
threshold) goes into one status array, from which AP is built with array
operations; ``ap50``, ``ap75`` and ``per_threshold`` are read from the
same "all"-band APs as ``ap``.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .geometry import BoundingBox, iou_matrix
from .ingestion import Annotation
from .labels import LabeledSet

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


@dataclass(frozen=True)
class Detection:
    """One scored box prediction for an image."""

    image_id: int
    category: int
    score: float
    box: BoundingBox


def detections_from_predictions(
    preds: LabeledSet,
    image_id: int,
    max_detections: int = MAX_DETECTIONS_PER_IMAGE,
) -> list[Detection]:
    """Post-process one prediction set: drop background-argmax slots.

    The score is the best foreground-category probability; at most
    ``max_detections`` highest-scoring slots are kept.
    """
    c = preds.n_categories
    fg = np.flatnonzero(preds.foreground_mask())
    if fg.size == 0:
        return []
    scores = preds.probs[fg, :c].max(axis=1)
    cats = preds.probs[fg, :c].argmax(axis=1)
    order = np.lexsort((fg, -scores))[:max_detections]
    return [
        Detection(
            image_id=image_id,
            category=int(cats[i]),
            score=float(scores[i]),
            box=BoundingBox.from_array(preds.boxes[fg[i]]),
        )
        for i in order
    ]


@dataclass
class ApSummary:
    ap: float
    ap50: float
    ap75: float
    ap_s: float
    ap_m: float
    ap_l: float
    per_threshold: dict[float, float] = field(default_factory=dict)
    per_category: dict[int, float] = field(default_factory=dict)

    def as_dict(self) -> dict[str, float]:
        return {
            "ap": self.ap,
            "ap50": self.ap50,
            "ap75": self.ap75,
            "ap_s": self.ap_s,
            "ap_m": self.ap_m,
            "ap_l": self.ap_l,
        }


def _valid_detections(scores: np.ndarray, boxes: np.ndarray) -> np.ndarray:
    """Mask of detections with a score in (0, 1] and a finite box (NaN fails)."""
    return (scores > 0.0) & (scores <= 1.0) & np.isfinite(boxes).all(axis=1)


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
    if status.shape[1] == 0:
        return np.zeros(status.shape[0])
    tp_c = np.cumsum(status == _TP, axis=1, dtype=np.float64)
    fp_c = np.cumsum(status == _FP, axis=1, dtype=np.float64)
    recall = tp_c / n_pos
    precision = tp_c / np.maximum(tp_c + fp_c, 1e-12)
    # monotone precision envelope, then 101-point interpolation
    envelope = np.maximum.accumulate(precision[:, ::-1], axis=1)[:, ::-1]
    points = np.linspace(0.0, 1.0, RECALL_POINTS)
    last = status.shape[1] - 1
    out = np.empty(status.shape[0])
    for r in range(status.shape[0]):
        idx = np.searchsorted(recall[r], points, side="left")
        out[r] = np.where(idx <= last, envelope[r, np.minimum(idx, last)], 0.0).mean()
    return out


def evaluate_detections(
    detections: list[Detection],
    ground_truth: list[Annotation],
    categories: list[int] | None = None,
    image_sizes: dict[int, tuple[int, int]] | None = None,
) -> ApSummary:
    """Full AP family over the given categories.

    Categories default to those present in the truth; a category with no
    truth (in a band) is left out of that band's mean. ``image_sizes``
    (id -> (width, height) pixels) converts normalized detection boxes to
    pixel areas for the size bands and must cover every detection's
    image. Without it every detection is sized on a nominal 640 px image
    (so it falls in the "large" band unless tiny), with one warning.

    Raises ``ValueError`` for a score outside (0, 1], a non-finite box, or
    a detection on an image missing from ``image_sizes``.
    """
    if categories is None:
        categories = sorted({a.category for a in ground_truth})
    categories = list(dict.fromkeys(categories))
    n_det = len(detections)
    det = np.array([(d.score, d.box.cx, d.box.cy, d.box.w, d.box.h) for d in detections], dtype=np.float64)
    det = det.reshape(n_det, 5)
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
        missing = sorted(set(det_img.tolist()) - image_sizes.keys())
        if missing:
            raise ValueError(f"detections on images missing from image_sizes: {missing}")
        wh = np.array([image_sizes[i] for i in det_img.tolist()], dtype=np.float64).reshape(n_det, 2)
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

        ranked_img = det_img[ranked]
        by_img = np.argsort(ranked_img, kind="stable")  # rank positions grouped by image, in rank order
        img_sorted = ranked_img[by_img]
        images = list(by_image)
        starts = np.searchsorted(img_sorted, images, side="left").tolist()
        stops = np.searchsorted(img_sorted, images, side="right").tolist()
        for image_id, start, stop in zip(images, starts, stops):
            if start == stop:
                continue
            rows = by_img[start:stop]
            gt = by_image[image_id]
            ious = iou_matrix(boxes[ranked[rows]], gt_boxes[gt])
            # below the lowest threshold a detection is unmatched at every threshold
            candidate = ious.max(axis=1) >= IOU_THRESHOLDS[0]
            if not candidate.any():
                continue
            cand_ious = ious[candidate].tolist()
            cand_rows = rows[candidate].tolist()
            # bands that ignore all or none of the truths scan them alike, so they share a matching
            matchings: dict[tuple, list[list[int]]] = {}
            for b, ignore in enumerate(gt_ignored[:, gt].tolist()):
                key = tuple(ignore) if any(ignore) and not all(ignore) else ()
                if key not in matchings:
                    matchings[key] = [_greedy_match(cand_ious, ignore, t) for t in IOU_THRESHOLDS]
                for ti, matched in enumerate(matchings[key]):
                    for pos, k in zip(cand_rows, matched):
                        if k >= 0:  # a match to an ignored truth drops the detection
                            status[b, ti, pos] = _DROPPED if ignore[k] else _TP

        for b in range(n_bands):
            if n_pos[b, ci]:
                aps[b, ci] = _ap_rows(status[b], int(n_pos[b, ci]))

    def band_mean(b: int, thresholds: slice | int) -> tuple[float, dict[int, float]]:
        per_cat = {
            c: float(np.mean(aps[b, ci, thresholds])) for ci, c in enumerate(categories) if n_pos[b, ci]
        }
        return (float(np.mean(list(per_cat.values()))) if per_cat else 0.0), per_cat

    band = {name: b for b, name in enumerate(AREA_BANDS)}
    every = slice(None)
    ap, per_category = band_mean(band["all"], every)
    per_threshold = {t: band_mean(band["all"], ti)[0] for ti, t in enumerate(IOU_THRESHOLDS)}
    return ApSummary(
        ap=ap,
        ap50=per_threshold[0.5],
        ap75=per_threshold[0.75],
        ap_s=band_mean(band["small"], every)[0],
        ap_m=band_mean(band["medium"], every)[0],
        ap_l=band_mean(band["large"], every)[0],
        per_threshold=per_threshold,
        per_category=per_category,
    )


def fpp(ap_first_phase_model: float, ap_final_model: float) -> float:
    """Forgetting in AP points on the first phase's categories (positive = forgot)."""
    for v in (ap_first_phase_model, ap_final_model):
        if not 0.0 <= v <= 1.0:
            raise ValueError("AP values must be fractions in [0, 1]")
    return ap_first_phase_model - ap_final_model
