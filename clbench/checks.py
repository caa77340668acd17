"""Checks of the program's outputs, each computed apart from the program.

Every check is one operation. A check returns True when the output is
correct; the caller counts a False as a failed operation. Nothing here is
timed, and nothing here calls the iodkit function whose output it judges
(SciPy's solver and iodkit's data classes and file loaders excepted).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from iodkit import labels
from iodkit import toy_detector as td

from workloads import GAMMA_GIOU, GAMMA_L1

REL_TOL = 1e-9
FD_EPS = 1e-7
FD_TOL = 1e-5
KINK_MARGIN = 1e-6  # well above how far FD_EPS moves a box
AP_TOL = 1e-12
IOU_THRESHOLDS = np.round(np.arange(0.5, 0.951, 0.05), 2)


@dataclass
class Tally:
    """Attempted and failed operations, by layer."""

    attempted: dict[str, int] = field(default_factory=dict)
    failed: dict[str, int] = field(default_factory=dict)

    def add(self, layer: str, ok: bool) -> bool:
        self.attempted[layer] = self.attempted.get(layer, 0) + 1
        if not ok:
            self.failed[layer] = self.failed.get(layer, 0) + 1
        return ok

    @property
    def n_attempted(self) -> int:
        return sum(self.attempted.values())

    @property
    def n_failed(self) -> int:
        return sum(self.failed.values())


# ---- geometry, written out independently of iodkit.geometry ----------------


def _corners(b: np.ndarray) -> np.ndarray:
    b = np.asarray(b, dtype=np.float64)
    return np.stack(
        [b[..., 0] - b[..., 2] / 2, b[..., 1] - b[..., 3] / 2,
         b[..., 0] + b[..., 2] / 2, b[..., 1] + b[..., 3] / 2],
        axis=-1,
    )


def pair_iou_giou(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """IoU and GIoU of every (a_i, b_j) pair of center-size boxes."""
    ca, cb = _corners(a)[:, None, :], _corners(b)[None, :, :]
    lo = np.maximum(ca[..., :2], cb[..., :2])
    hi = np.minimum(ca[..., 2:], cb[..., 2:])
    inter = np.prod(np.clip(hi - lo, 0.0, None), axis=-1)
    area_a = np.prod(ca[..., 2:] - ca[..., :2], axis=-1)
    area_b = np.prod(cb[..., 2:] - cb[..., :2], axis=-1)
    union = area_a + area_b - inter
    hull = np.prod(np.maximum(ca[..., 2:], cb[..., 2:]) - np.minimum(ca[..., :2], cb[..., :2]), axis=-1)
    iou = np.divide(inter, union, out=np.zeros_like(union), where=union > 0)
    penalty = np.divide(hull - union, hull, out=np.zeros_like(hull), where=hull > 0)
    return iou, iou - penalty


# ---- ingestion --------------------------------------------------------------


def _expected_boxes(path) -> dict[int, dict[int, tuple]]:
    """image id -> {annotation id: normalised box} after cropping to the image.

    An annotation whose crop is empty (or whose own box has no area) is
    expected to be dropped.
    """
    doc = json.loads(path.read_text())
    sizes = {im["id"]: (im["width"], im["height"]) for im in doc["images"]}
    out: dict[int, dict[int, tuple]] = {i: {} for i in sizes}
    for a in doc["annotations"]:
        width, height = sizes[a["image_id"]]
        x, y, w, h = a["bbox"]
        x0, y0 = max(x, 0.0), max(y, 0.0)
        x1, y1 = min(x + w, width), min(y + h, height)
        if w * h <= 0 or x1 <= x0 or y1 <= y0:
            continue
        out[a["image_id"]][a["id"]] = (
            (x0 + x1) / 2 / width, (y0 + y1) / 2 / height, (x1 - x0) / width, (y1 - y0) / height
        )
    return out


def check_normalized(path, dataset, tally: Tally) -> list[int]:
    """One operation per image: its normalised annotations equal the crop. Returns failing ids."""
    expected = _expected_boxes(path)
    got: dict[int, dict[int, tuple]] = {i: {} for i in expected}
    for a in dataset.annotations:
        got.setdefault(a.image_id, {})[a.id] = (a.box.cx, a.box.cy, a.box.w, a.box.h)
    failing = []
    for image_id in sorted(set(expected) | set(got)):
        want, have = expected.get(image_id, {}), got.get(image_id, {})
        ok = want.keys() == have.keys() and all(
            np.allclose(want[k], have[k], rtol=0.0, atol=1e-9) for k in want
        )
        if not tally.add("ingestion", ok):
            failing.append(image_id)
    return failing


# ---- matching and losses ----------------------------------------------------


def own_forward(params: td.DetectorParams, feature: np.ndarray):
    xb = np.append(np.asarray(feature, dtype=np.float64), 1.0)
    logits = np.einsum("ncd,d->nc", params.w_cls, xb)
    logits -= logits.max(axis=1, keepdims=True)
    probs = np.exp(logits)
    probs /= probs.sum(axis=1, keepdims=True)
    boxes = 1.0 / (1.0 + np.exp(-np.einsum("nkd,d->nk", params.w_box, xb)))
    return probs, boxes


def own_cost(target: labels.LabeledSet, probs: np.ndarray, boxes: np.ndarray) -> np.ndarray:
    """Class + GIoU + L1 pairing cost, (targets, predictions)."""
    _, giou = pair_iou_giou(target.boxes, boxes)
    l1 = np.abs(target.boxes[:, None, :] - boxes[None, :, :]).sum(axis=-1)
    return -(target.probs @ probs.T) + GAMMA_GIOU * (1.0 - giou) + GAMMA_L1 * l1


def _foreground(target: labels.LabeledSet) -> np.ndarray:
    return np.argmax(target.probs, axis=1) != target.probs.shape[1] - 1


def check_assignment(target, probs, boxes, sigma) -> bool:
    """sigma is a permutation whose foreground cost is the optimum of own_cost."""
    sigma = np.asarray(sigma)
    n = target.probs.shape[0]
    if sigma.shape != (n,) or sorted(sigma.tolist()) != list(range(n)):
        return False
    fg = np.flatnonzero(_foreground(target))
    if fg.size == 0:
        return True
    cost = own_cost(target, probs, boxes)[fg]
    rows, cols = linear_sum_assignment(cost)
    best = math.fsum(cost[rows, cols])
    got = math.fsum(cost[np.arange(fg.size), sigma[fg]])
    return abs(got - best) <= REL_TOL * max(1.0, abs(best))


def own_loss(target, probs, boxes, sigma, background_weight: float) -> float:
    """DETR set loss with the assignment held fixed, written out in full."""
    fg = _foreground(target)
    matched = probs[sigma]
    weights = np.where(fg, 1.0, background_weight)
    class_term = -np.sum(weights[:, None] * target.probs * np.log(matched))
    idx = np.flatnonzero(fg)
    if idx.size == 0:
        return float(class_term)
    pb, tb = boxes[sigma[idx]], target.boxes[idx]
    _, giou = pair_iou_giou(pb, tb)
    box_term = np.sum(GAMMA_GIOU * (1.0 - np.diag(giou)) + GAMMA_L1 * np.abs(pb - tb).sum(axis=1))
    return float(class_term + box_term)


def _kinked_queries(target, boxes, sigma) -> np.ndarray:
    """Queries whose matched box sits on a kink of L1 or GIoU.

    There the loss has one-sided derivatives only (a prediction that equals
    its pseudo label, as on the first step after the old model is copied),
    so a central difference is no oracle for them.
    """
    fg = np.flatnonzero(_foreground(target))
    queries = sigma[fg]
    p, t = _corners(boxes[queries]), _corners(target.boxes[fg])
    overlap = np.concatenate([np.minimum(p[:, 2:], t[:, 2:]) - np.maximum(p[:, :2], t[:, :2])], axis=1)
    near = np.concatenate(
        [np.abs(boxes[queries] - target.boxes[fg]), np.abs(p - t), np.abs(overlap)], axis=1
    )
    return queries[(near < KINK_MARGIN).any(axis=1)]


def check_gradient(params, feature, target, sigma, grads, background_weight: float, seed: int) -> bool:
    """Directional central differences of own_loss agree with the parameter gradient.

    The class-head direction is random over every weight. The box-head
    direction leaves out the queries that _kinked_queries names.
    """
    rng = np.random.default_rng(seed)

    def loss_at(p):
        probs, boxes = own_forward(p, feature)
        return own_loss(target, probs, boxes, sigma, background_weight)

    kinked = _kinked_queries(target, own_forward(params, feature)[1], sigma)
    for name in ("w_cls", "w_box"):
        direction = rng.normal(size=getattr(params, name).shape)
        if name == "w_box":
            direction[kinked] = 0.0
        plus, minus = params.copy(), params.copy()
        getattr(plus, name)[...] += FD_EPS * direction
        getattr(minus, name)[...] -= FD_EPS * direction
        fd = (loss_at(plus) - loss_at(minus)) / (2 * FD_EPS)
        analytic = float(np.sum(getattr(grads, name) * direction))
        if not abs(fd - analytic) <= FD_TOL * (1.0 + abs(analytic)):
            return False
    return True


# ---- distillation -----------------------------------------------------------


def check_distilled(gt: labels.LabeledSet, distilled: labels.LabeledSet, k: int, ceiling: float) -> bool:
    """Ground truth first and unchanged, at most k pseudo slots, none over the ceiling."""
    origins = distilled.origins
    gt_idx = np.flatnonzero(_foreground(gt))
    n_gt = gt_idx.size
    if not (
        np.array_equal(distilled.probs[:n_gt], gt.probs[gt_idx])
        and np.array_equal(distilled.boxes[:n_gt], gt.boxes[gt_idx])
        and np.all(origins[:n_gt] == labels.Origin.GROUND_TRUTH)
    ):
        return False
    rest = origins[n_gt:]
    n_pseudo = int(np.sum(rest == labels.Origin.PSEUDO))
    if n_pseudo > k or not np.all(rest[:n_pseudo] == labels.Origin.PSEUDO):
        return False
    if not np.all(rest[n_pseudo:] == labels.Origin.BACKGROUND):
        return False
    if n_pseudo and n_gt:
        pseudo_boxes = distilled.boxes[n_gt : n_gt + n_pseudo]
        iou, _ = pair_iou_giou(pseudo_boxes, gt.boxes[gt_idx])
        if np.any(iou > ceiling):
            return False
    return True


# ---- exemplars ----------------------------------------------------------------


def check_selection(images, categories, n_images: int, selected: list[int], budget_fraction: float) -> bool:
    """Size is ceil(fraction * images), and each pick follows the greedy rule.

    The rule picks the image that maximises sum_c p_data(c) log p(c) of the
    selection with it added (counts smoothed by 1e-8), ties to the smallest
    id. A pick that differs from the rule's only by a rounding-level score
    tie is accepted.
    """
    n_select = math.ceil(budget_fraction * n_images)
    if len(selected) != n_select or len(set(selected)) != n_select:
        return False
    ids = sorted(images)
    column = {c: j for j, c in enumerate(categories)}
    counts = np.zeros((len(ids), len(categories)))
    for row, i in enumerate(ids):
        for c in images[i]:
            if c in column:
                counts[row, column[c]] += 1
    data = counts.sum(axis=0) + 1e-8
    data /= data.sum()
    running = np.zeros(len(categories))
    free = np.ones(len(ids), dtype=bool)
    position = {i: row for row, i in enumerate(ids)}
    for pick in selected:
        if pick not in position or not free[position[pick]]:
            return False
        with_each = running + counts + 1e-8
        scores = np.log(with_each / with_each.sum(axis=1, keepdims=True)) @ data
        best = scores[free].max()
        rule = ids[int(np.flatnonzero(free & (scores == best))[0])]
        if pick != rule and scores[position[pick]] < best - 1e-12:
            return False
        free[position[pick]] = False
        running += counts[position[pick]]
    return True


# ---- checkpoints --------------------------------------------------------------


def check_checkpoint(path, checksum: str) -> bool:
    params, _ = td.load_checkpoint(path)
    return params.checksum() == checksum


# ---- average precision --------------------------------------------------------


def own_detections(params, features: dict[int, np.ndarray], image_ids, max_per_image=100):
    """(image_id, category, score, box) rows: foreground-argmax slots, best scores first."""
    rows = []
    for image_id in image_ids:
        probs, boxes = own_forward(params, features[image_id])
        fg = np.flatnonzero(np.argmax(probs, axis=1) != probs.shape[1] - 1)
        scores = probs[fg, :-1].max(axis=1)
        cats = probs[fg, :-1].argmax(axis=1)
        keep = sorted(range(fg.size), key=lambda k: (-scores[k], fg[k]))[:max_per_image]
        rows.extend((image_id, int(cats[k]), float(scores[k]), boxes[fg[k]]) for k in keep)
    return rows


def own_ap(detections, truth, categories, thresholds=IOU_THRESHOLDS) -> float:
    """COCO-style AP over all areas: greedy matching, then 101 recall points.

    ``detections`` are (image_id, category, score, box) rows in the order
    the program saw them; ``truth`` rows are (image_id, category, box).
    """
    per_category = []
    for c in categories:
        gts: dict[int, list[np.ndarray]] = {}
        for image_id, cat, box in truth:
            if cat == c:
                gts.setdefault(image_id, []).append(np.asarray(box))
        n_pos = sum(len(v) for v in gts.values())
        if n_pos == 0:
            continue
        dets = [(-d[2], d[0], k, d[3]) for k, d in enumerate(detections) if d[1] == c]
        dets.sort(key=lambda r: r[:3])
        ious = [
            pair_iou_giou(np.asarray([box]), np.asarray(gts[img]))[0][0] if img in gts else np.zeros(0)
            for _, img, _, box in dets
        ]
        aps = []
        for t in thresholds:
            matched = {img: [False] * len(v) for img, v in gts.items()}
            hits = []
            for (_, img, _, _), row in zip(dets, ious):
                best, best_iou = -1, t
                for j, v in enumerate(row):
                    if not matched[img][j] and v >= best_iou:
                        best, best_iou = j, v
                if best >= 0:
                    matched[img][best] = True
                hits.append(best >= 0)
            tp = np.cumsum(hits)
            recall = tp / n_pos
            precision = tp / np.arange(1, len(hits) + 1)
            # Interpolated precision at recall x: the best precision at any recall >= x.
            best_after = np.maximum.accumulate(precision[::-1])[::-1]
            first = np.searchsorted(recall, np.linspace(0.0, 1.0, 101), side="left")
            points = [best_after[k] if k < len(hits) else 0.0 for k in first]
            aps.append(math.fsum(points) / 101)
        per_category.append(math.fsum(aps) / len(aps))
    return math.fsum(per_category) / len(per_category) if per_category else 0.0


def detection_rows(detections) -> list[tuple]:
    return [(d.image_id, d.category, d.score, d.box.to_array()) for d in detections]


def truth_rows(annotations) -> list[tuple]:
    return [(a.image_id, a.category, a.box.to_array()) for a in annotations]
