"""Slow, simple twins of ``iodkit.metrics``, kept as differential oracles.

``per_slot_detections`` is the slot-by-slot post-processing that
``detections_from_predictions`` replaced: it builds every kept box through
the public ``BoundingBox`` constructor, in ranked order, so the first
invalid kept box raises its ``ValueError``.

``evaluate_detections`` is the pair-by-pair evaluator that the one-pass
``evaluate_detections`` replaced. Per (category, IoU threshold, area band)
it rescans every detection and computes each detection-truth IoU on its
own. It takes no validation and sizes a detection of an image missing from
``image_sizes`` on a nominal 640 px image, so compare it only on valid
input with every image sized.
"""

from __future__ import annotations

import numpy as np

from iodkit.geometry import BoundingBox, iou
from iodkit.ingestion import Annotation
from iodkit.labels import LabeledSet
from iodkit.metrics import AREA_BANDS, IOU_THRESHOLDS, RECALL_POINTS, ApSummary, Detection


def per_slot_detections(preds: LabeledSet, image_id: int, max_detections: int) -> list[Detection]:
    """The slot-by-slot post-processing that ``detections_from_predictions`` replaced."""
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
            box=BoundingBox(*(float(v) for v in preds.boxes[fg[i]])),
        )
        for i in order
    ]


def _category_pr_ap(
    dets: list[tuple[float, int, int, BoundingBox, float]],
    gts_by_image: dict[int, list[tuple[BoundingBox, float]]],
    threshold: float,
    band: tuple[float, float],
) -> float | None:
    """AP for one (category, IoU threshold, area band); None when no truth.

    ``dets`` rows are (score, image_id, order, box, area_px) pre-sorted by
    descending score; ``gts_by_image`` values are (box, area_px).
    """
    lo, hi = band
    n_pos = 0
    gt_state: dict[int, list] = {}
    for img, rows in gts_by_image.items():
        entries = []
        for box, area in rows:
            ignore = area < lo or area > hi
            entries.append([box, ignore, False])  # box, ignore flag, matched flag
            if not ignore:
                n_pos += 1
        # real truths first so the scan may stop at the ignored tail
        entries.sort(key=lambda e: e[1])
        gt_state[img] = entries
    if n_pos == 0:
        return None

    tp, fp = [], []
    for score, img, _, box, det_area in dets:
        entries = gt_state.get(img, [])
        best_iou = threshold
        best = -1
        for k, (gbox, g_ignore, g_matched) in enumerate(entries):
            if g_matched:
                continue
            if best >= 0 and not entries[best][1] and g_ignore:
                break  # a real match is already at hand; ignored ones can't improve it
            v = float(iou(box.to_array(), gbox.to_array()))
            if v < best_iou:
                continue
            best_iou = v
            best = k
        if best >= 0:
            entries[best][2] = True
            if entries[best][1]:
                continue  # matched an ignored truth: drop the detection
            tp.append(1.0)
            fp.append(0.0)
        else:
            if det_area < lo or det_area > hi:
                continue  # unmatched and outside the band: not counted
            tp.append(0.0)
            fp.append(1.0)

    if not tp:
        return 0.0
    tp_c = np.cumsum(tp)
    fp_c = np.cumsum(fp)
    recall = tp_c / n_pos
    precision = tp_c / np.maximum(tp_c + fp_c, 1e-12)
    # monotone precision envelope, then 101-point interpolation
    for i in range(len(precision) - 2, -1, -1):
        precision[i] = max(precision[i], precision[i + 1])
    points = np.linspace(0.0, 1.0, RECALL_POINTS)
    idx = np.searchsorted(recall, points, side="left")
    interp = np.where(idx < len(precision), precision[np.minimum(idx, len(precision) - 1)], 0.0)
    return float(interp.mean())


def evaluate_detections(
    detections: list[Detection],
    ground_truth: list[Annotation],
    categories: list[int] | None = None,
    image_sizes: dict[int, tuple[int, int]] | None = None,
    iou_thresholds: tuple[float, ...] = IOU_THRESHOLDS,
) -> ApSummary:
    """Full AP family over the given categories.

    Categories default to those present in the truth. ``image_sizes``
    (id -> (width, height) pixels) converts normalized detection boxes to
    pixel areas for the size-band variants; without it every detection
    falls in the "large" band of a nominal 640px image.
    """
    if categories is None:
        categories = sorted({a.category for a in ground_truth})
    sizes = image_sizes or {}

    def det_area(d: Detection) -> float:
        w, h = sizes.get(d.image_id, (640, 640))
        return d.box.w * w * d.box.h * h

    dets_by_cat: dict[int, list] = {c: [] for c in categories}
    for order, d in enumerate(detections):
        if d.category in dets_by_cat:
            dets_by_cat[d.category].append((d.score, d.image_id, order, d.box, det_area(d)))
    for c in categories:
        dets_by_cat[c].sort(key=lambda r: (-r[0], r[1], r[2]))

    gts_by_cat: dict[int, dict[int, list]] = {c: {} for c in categories}
    for a in ground_truth:
        if a.category in gts_by_cat:
            gts_by_cat[a.category].setdefault(a.image_id, []).append((a.box, a.area_px))

    def mean_ap(band_name: str, thresholds) -> tuple[float, dict[int, float]]:
        per_cat: dict[int, float] = {}
        for c in categories:
            vals = [
                _category_pr_ap(dets_by_cat[c], gts_by_cat[c], t, AREA_BANDS[band_name])
                for t in thresholds
            ]
            vals = [v for v in vals if v is not None]
            if vals:
                per_cat[c] = float(np.mean(vals))
        if not per_cat:
            return 0.0, per_cat
        return float(np.mean(list(per_cat.values()))), per_cat

    ap, per_category = mean_ap("all", iou_thresholds)
    ap50, _ = mean_ap("all", (0.5,))
    ap75, _ = mean_ap("all", (0.75,))
    ap_s, _ = mean_ap("small", iou_thresholds)
    ap_m, _ = mean_ap("medium", iou_thresholds)
    ap_l, _ = mean_ap("large", iou_thresholds)
    return ApSummary(ap=ap, ap50=ap50, ap75=ap75, ap_s=ap_s, ap_m=ap_m, ap_l=ap_l, per_category=per_category)
