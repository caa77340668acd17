"""The one-pass ``evaluate_detections`` against the pair-by-pair oracle.

Every ``ApSummary`` field must be equal (``==``), not merely close. Boxes
sit on a 1/16 grid of a 512 px image, so IoUs tie exactly, pixel areas
land exactly on the 32² and 96² band edges, and scores repeat across
images.
"""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import eval_oracle
from iodkit.geometry import BoundingBox, iou
from iodkit.ingestion import Annotation
from iodkit.metrics import Detection, evaluate_detections

IMAGE_PX = 512
GRID = 1 / 16
SIDES = (0.0625, 0.125, 0.1875, 0.25, 0.5)  # 32, 64, 96, 128, 256 px
SCORES = (0.25, 0.5, 0.75, 1.0)


def truth(aid, image_id, category, cx, cy, w, h):
    box = BoundingBox(cx, cy, w, h)
    area = w * IMAGE_PX * h * IMAGE_PX
    return Annotation(id=aid, image_id=image_id, category=category, box=box, area_px=area, bbox_px=(0.0, 0.0, 1.0, 1.0))


def det(image_id, category, score, cx, cy, w, h):
    return Detection(image_id=image_id, category=category, score=score, box=BoundingBox(cx, cy, w, h))


def ious(d, *truths):
    """IoU of a detection with each truth."""
    return iou(d.box.to_array(), np.stack([a.box.to_array() for a in truths])).tolist()


def sizes(n_images):
    return {i: (IMAGE_PX, IMAGE_PX) for i in range(n_images)}


def assert_same(dets, gt, n_images, categories=None):
    """Both evaluations over ``categories``, by default the categories present in the truth."""
    if categories is None:
        categories = sorted({a.category for a in gt})
    new = evaluate_detections(dets, gt, categories=categories, image_sizes=sizes(n_images))
    old = eval_oracle.evaluate_detections(dets, gt, categories=categories, image_sizes=sizes(n_images))
    for f in fields(new):
        assert getattr(new, f.name) == getattr(old, f.name), f.name
    return new


def random_case(rng, n_images=5, n_categories=3):
    """Truths on the grid, detections copied from them with grid offsets, and strays."""
    gt, dets = [], []
    for image_id in range(n_images):
        for _ in range(int(rng.integers(0, 5))):
            w, h = (float(rng.choice(SIDES)) for _ in range(2))
            cx, cy = (float(rng.integers(4, 13)) * GRID for _ in range(2))
            gt.append(truth(len(gt) + 1, image_id, int(rng.integers(0, n_categories)), cx, cy, w, h))
    for a in gt:
        for _ in range(int(rng.integers(0, 4))):
            dx, dy = (float(rng.integers(-1, 2)) * GRID / 2 for _ in range(2))
            b = a.box
            dets.append(det(a.image_id, a.category, float(rng.choice(SCORES)), b.cx + dx, b.cy + dy, b.w, b.h))
    for _ in range(int(rng.integers(0, 12))):
        # strays, also on images and categories with no truth (category n_categories has none)
        dets.append(
            det(
                int(rng.integers(0, n_images)),
                int(rng.integers(0, n_categories + 1)),
                float(rng.choice(SCORES)),
                float(rng.integers(2, 15)) * GRID,
                float(rng.integers(2, 15)) * GRID,
                float(rng.choice(SIDES)),
                float(rng.choice(SIDES)),
            )
        )
    rng.shuffle(dets)
    return dets, gt


class TestTargetedCases:
    def test_tie_goes_to_later_truth(self):
        # the first detection is equally far from both truths (IoU 0.6 each) and takes the later
        # one, which leaves the earlier truth to the second detection: two true positives
        a = truth(1, 0, 0, 0.4375, 0.5, 0.25, 0.25)
        b = truth(2, 0, 0, 0.5625, 0.5, 0.25, 0.25)
        middle = det(0, 0, 0.9, 0.5, 0.5, 0.25, 0.25)
        on_a = det(0, 0, 0.8, 0.4375, 0.5, 0.25, 0.25)
        assert ious(middle, a, b) == [0.6, 0.6]
        assert ious(on_a, b)[0] < 0.5
        s = assert_same([middle, on_a], [a, b], 1)
        assert s.ap50 == 1.0

    def test_real_truth_before_ignored_one(self):
        # small band: the 32x64 px truth is ignored, the 32x32 px one is real. The 32x48 px
        # detection overlaps the ignored truth more (IoU 3/4) than the real one (2/3), yet
        # takes the real one up to threshold 0.65; at 0.7 and 0.75 it matches the ignored one
        # and is dropped, above that it is unmatched and outside the band: ap_s = 4/10
        tall = truth(1, 0, 0, 0.5, 0.46875, 0.0625, 0.125)
        square = truth(2, 0, 0, 0.5, 0.5, 0.0625, 0.0625)
        between = det(0, 0, 0.9, 0.5, 0.484375, 0.0625, 0.09375)
        assert ious(between, square, tall) == [2 / 3, 0.75]
        s = assert_same([between], [tall, square], 1)
        assert s.ap_s == 0.4

    def test_areas_on_band_edges(self):
        # 32² px and 96² px lie in both adjacent bands
        gt = [truth(1, 0, 0, 0.25, 0.25, 0.0625, 0.0625), truth(2, 0, 0, 0.75, 0.75, 0.1875, 0.1875)]
        dets = [det(0, 0, 0.9, *a.box.to_array()) for a in gt]
        dets.append(det(0, 0, 0.95, 0.5, 0.25, 0.0625, 0.0625))  # unmatched, 32² px
        dets.append(det(0, 0, 0.95, 0.25, 0.75, 0.1875, 0.1875))  # unmatched, 96² px
        s = assert_same(dets, gt, 1)
        assert 0.0 < s.ap_s < 1.0 and 0.0 < s.ap_m < 1.0 and 0.0 < s.ap_l < 1.0

    def test_no_detections(self):
        gt = [truth(1, 0, 0, 0.5, 0.5, 0.25, 0.25), truth(2, 1, 1, 0.5, 0.5, 0.0625, 0.0625)]
        s = assert_same([], gt, 2)
        assert s.ap == 0.0 and s.per_category == {0: 0.0, 1: 0.0}

    def test_category_without_truth_and_stray_images(self):
        gt = [truth(1, 0, 0, 0.5, 0.5, 0.25, 0.25)]
        dets = [
            det(0, 0, 0.5, 0.5, 0.5, 0.25, 0.25),
            det(1, 0, 0.5, 0.5, 0.5, 0.25, 0.25),  # same score, image with no truth
            det(0, 1, 0.9, 0.5, 0.5, 0.25, 0.25),  # category with no truth
        ]
        s = assert_same(dets, gt, 2, categories=[0, 1, 2])
        assert set(s.per_category) == {0}

    def test_no_truth_at_all(self):
        s = assert_same([det(0, 0, 0.5, 0.5, 0.5, 0.25, 0.25)], [], 1, categories=[0])
        assert s.ap == 0.0 and s.per_category == {}


@pytest.mark.parametrize("seed", range(40))
def test_random_fixtures_equal_oracle(seed):
    dets, gt = random_case(np.random.default_rng(seed))
    assert_same(dets, gt, 5, categories=[0, 1, 2, 3])


@pytest.mark.parametrize("seed", range(2))
def test_dense_random_fixtures_equal_oracle(seed):
    # many detections per truth and per image, as an undertrained detector gives
    rng = np.random.default_rng(100 + seed)
    dets, gt = [], []
    for _ in range(3):
        d, g = random_case(rng, n_images=8, n_categories=2)
        dets += d
        gt += [truth(len(gt) + k + 1, a.image_id, a.category, *a.box.to_array()) for k, a in enumerate(g)]
    assert_same(dets, gt, 8)


@pytest.mark.parametrize("seed", range(2))
def test_dense_blocks_equal_oracle(seed):
    # 50-60 detections on each (category, image) with truth, spread over its several truths;
    # images 0 and 1 have truth of both categories, image 2 only of category 1 yet detections
    # of both, image 3 only truths; so the per-category IoU blocks differ in height, width and
    # position, and some images have no block
    rng = np.random.default_rng(200 + seed)
    gt, dets = [], []
    for image_id, category in [(0, 0), (0, 1), (1, 0), (1, 1), (2, 1)]:
        boxes = []
        for _ in range(int(rng.integers(2, 5))):
            w, h = (float(rng.choice(SIDES[:4])) for _ in range(2))
            cx, cy = (float(rng.integers(4, 13)) * GRID for _ in range(2))
            gt.append(truth(len(gt) + 1, image_id, category, cx, cy, w, h))
            boxes.append((cx, cy, w, h))
        for _ in range(int(rng.integers(50, 61))):
            cx, cy, w, h = boxes[int(rng.integers(len(boxes)))]
            dx, dy = (float(rng.integers(-2, 3)) * GRID / 2 for _ in range(2))
            dets.append(det(image_id, category, float(rng.choice(SCORES)), cx + dx, cy + dy, w, h))
    for _ in range(50):  # image 2, category 0: detections without truth
        cx, cy = (float(rng.integers(3, 14)) * GRID for _ in range(2))
        dets.append(det(2, 0, float(rng.choice(SCORES)), cx, cy, 0.125, 0.125))
    gt += [truth(len(gt) + 1, 3, c, 0.5, 0.5, 0.25, 0.25) for c in (0, 1)]  # no detection
    rng.shuffle(dets)
    s = assert_same(dets, gt, 4, categories=[0, 1])
    assert 0.0 < s.ap < 1.0 and set(s.per_category) == {0, 1}


# A scene is a truth, maybe with a neighbour listed before or after it that is moved one step
# or resized by one step, and detections on either truth or midway between them, some moved
# by a half-step. So detections often tie between two truths or overlap a real truth and a
# better ignored one listed first.
grid = st.integers(4, 12).map(lambda k: k * GRID)
side = st.sampled_from(SIDES)
neighbour = st.tuples(
    st.sampled_from([(2, 0), (0, 2), (0, 0)]),  # centre offset in half-steps
    st.sampled_from([(0, 0), (0, 0), (0, 0), (1, 0), (0, 1), (-1, 0), (0, -1)]),  # size change in steps
    st.booleans(),  # listed first
)
copy = st.tuples(st.sampled_from(SCORES), st.sampled_from(["first", "second", "midway"]), st.sampled_from([0, 0, 1]))
scenes = st.lists(
    st.tuples(
        st.integers(0, 1),
        st.integers(0, 1),
        st.tuples(grid, grid, side, side),
        st.one_of(st.none(), neighbour, neighbour),
        st.lists(copy, min_size=1, max_size=4),
    ),
    min_size=1,
    max_size=3,
)
strays = st.lists(
    # category 2 never has truth
    st.tuples(st.integers(0, 2), st.integers(0, 2), st.sampled_from(SCORES), grid, grid, side, side),
    max_size=4,
)


@settings(max_examples=200, deadline=None)
@given(scenes, strays)
# the midway detection ties between two 64 px truths (IoU 0.6 each) and must take the later one
@example([(0, 0, (0.5, 0.5, 0.125, 0.125), ((2, 0), (0, 0), False), [(1.0, "midway", 0), (0.5, "first", 0)])], [])
# large band: the 96x64 px truth listed first is ignored; a detection on it must take the
# real 96x96 px truth (IoU 2/3) on the same centre instead
@example([(0, 0, (0.5, 0.5, 0.1875, 0.1875), ((0, 0), (0, -1), True), [(1.0, "first", 0)])], [])
def test_property_equals_oracle(scene_rows, stray_rows):
    gt, dets = [], []
    for image_id, category, (cx, cy, w, h), pair, copies in scene_rows:
        boxes = [(cx, cy, w, h)]
        if pair is not None:
            (dx, dy), (dw, dh), first = pair
            moved = (cx + dx * GRID / 2, cy + dy * GRID / 2, max(w + dw * GRID, GRID), max(h + dh * GRID, GRID))
            boxes.insert(0 if first else 1, moved)
        for box in boxes:
            gt.append(truth(len(gt) + 1, image_id, category, *box))
        for score, where, shift in copies:
            (x0, y0, w0, h0), (x1, y1, _, _) = boxes[0], boxes[-1]
            x, y = {"first": (x0, y0), "second": (x1, y1), "midway": ((x0 + x1) / 2, (y0 + y1) / 2)}[where]
            if where == "second":
                w0, h0 = boxes[-1][2:]
            if where != "midway":
                x += shift * GRID / 2
            dets.append(det(image_id, category, score, x, y, w0, h0))
    dets += [det(*row) for row in stray_rows]
    assert_same(dets, gt, 3, categories=[0, 1, 2])
