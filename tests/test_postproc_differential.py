"""``detections_from_predictions`` against the slot-by-slot oracle.

Every case must give equal lists (``==``, the same ``repr``, so a -0.0
box field keeps its sign, and the same hashes, of frozen objects) or the
same ``ValueError`` message. Probabilities come from small integer
weights, so categories tie with the background and scores tie across
slots. The drawn slots are repeated 1, 2, 20 or 40 times, so some sets hold
more than ``MAX_DETECTIONS_PER_IMAGE`` (100) foreground slots and the cap
binds. Invalid box fields (NaN, ±inf, out of [0, 1]) are put on random
slots: on a dropped slot (background, or ranked past the cap) they must
not raise, and on kept slots the message must name the first such box in
ranked order.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eval_oracle import per_slot_detections
from iodkit.labels import LabeledSet, Origin
from iodkit.metrics import MAX_DETECTIONS_PER_IMAGE, detections_from_predictions

VALID = (0.0, -0.0, 0.125, 0.25, 0.5, 0.75, 1.0, 0.1, 0.3)
INVALID = (math.nan, math.inf, -math.inf, -0.5, 1.5, 1.0000000000000002, -5e-324)


def prediction_set(weights, boxes) -> LabeledSet:
    weights = np.array(weights, dtype=np.float64)
    probs = weights / weights.sum(axis=1, keepdims=True)
    boxes = np.array(boxes, dtype=np.float64).reshape(len(weights), 4)
    return LabeledSet(probs=probs, boxes=boxes, origins=np.full(len(weights), Origin.PREDICTION, dtype=np.int8))


def outcome(fn, *args):
    """The returned list, or the ``ValueError`` message."""
    try:
        return fn(*args)
    except ValueError as e:
        return f"ValueError: {e}"


@st.composite
def cases(draw):
    n = draw(st.integers(1, 12))
    n_categories = draw(st.integers(1, 4))
    weights = draw(st.lists(st.lists(st.integers(1, 4), min_size=n_categories + 1, max_size=n_categories + 1),
                            min_size=n, max_size=n))
    boxes = draw(st.lists(st.tuples(*[st.sampled_from(VALID)] * 4), min_size=n, max_size=n))
    copies = draw(st.sampled_from([1, 2, 20, 40]))
    weights, boxes = weights * copies, [list(b) for b in boxes * copies]
    for slot, field, value in draw(st.lists(st.tuples(st.integers(0, n * copies - 1), st.integers(0, 3),
                                                      st.sampled_from(INVALID)), max_size=3)):
        boxes[slot][field] = value
    return prediction_set(weights, boxes)


@settings(max_examples=400, deadline=None)
@given(cases(), st.integers(0, 10**6))
def test_equals_per_slot_oracle(preds, image_id):
    new = outcome(detections_from_predictions, preds, image_id)
    old = outcome(per_slot_detections, preds, image_id, MAX_DETECTIONS_PER_IMAGE)
    assert new == old
    assert repr(new) == repr(old)
    if isinstance(new, list):
        assert all(type(d.category) is int and type(d.score) is float for d in new)
        assert all(type(v) is float for d in new for v in (d.box.cx, d.box.cy, d.box.w, d.box.h))
        assert [hash(d) for d in new] == [hash(d) for d in old]
        assert [hash(d.box) for d in new] == [hash(d.box) for d in old]
        for d in new:
            with pytest.raises(dataclasses.FrozenInstanceError):
                d.score = 0.5
            with pytest.raises(dataclasses.FrozenInstanceError):
                d.box.w = 0.5


def test_invalid_box_on_a_dropped_slot_does_not_raise():
    # slot 1 is background-argmax, slot 101 falls below the cap; both carry broken boxes
    preds = prediction_set(
        [[4, 1, 1], [1, 1, 4]] + [[3, 1, 1]] * 99 + [[1, 2, 1]],
        [[0.5, 0.5, 0.2, 0.2], [math.nan, 0.5, 0.2, 0.2]] + [[0.5, 0.5, 0.2, 0.2]] * 99 + [[0.5, math.inf, 0.2, 0.2]],
    )
    dets = detections_from_predictions(preds, 0)
    assert dets == per_slot_detections(preds, 0, 100) and len(dets) == 100


def test_first_invalid_box_in_rank_is_named():
    # slot 0 (w is NaN) scores lower than slot 1 (cx = 2.0), so slot 1's field is named
    preds = prediction_set([[2, 1, 1], [4, 1, 1]], [[0.5, 0.5, math.nan, 0.2], [2.0, 0.5, 0.2, 0.2]])
    with pytest.raises(ValueError, match=r"^box field cx=2\.0 outside \[0, 1\]$"):
        detections_from_predictions(preds, 0)
    with pytest.raises(ValueError, match=r"^box field cx=2\.0 outside \[0, 1\]$"):
        per_slot_detections(preds, 0, 100)
