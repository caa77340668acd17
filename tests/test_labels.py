import re
from dataclasses import dataclass

import numpy as np
import pytest

from iodkit.geometry import BoundingBox
from iodkit.labels import LabeledSet, Origin, _argmax_and_foreground, one_hot, pad_to_n


def box(cx=0.5, cy=0.5, w=0.2, h=0.2):
    return BoundingBox(cx, cy, w, h)


def slot(probs, b, origin):
    """A one-slot set from a distribution, a box and an origin."""
    return LabeledSet(np.asarray(probs)[None], np.asarray(b, dtype=np.float64)[None], np.array([origin], dtype=np.int8))


# The per-slot construction that ``one_hot`` and ``pad_to_n`` replaced, written
# out as the oracle: one ``_Slot`` per label, stacked row by row.
@dataclass(frozen=True)
class _Slot:
    probs: np.ndarray
    box: BoundingBox
    origin: Origin


def _slot_one_hot(category, b, n_categories):
    probs = np.zeros(n_categories + 1, dtype=np.float64)
    if category is None:
        probs[n_categories] = 1.0
        return _Slot(probs, BoundingBox(0.0, 0.0, 0.0, 0.0), Origin.BACKGROUND)
    probs[category] = 1.0
    return _Slot(probs, b, Origin.GROUND_TRUTH)


def _slot_pad_to_n(foreground, n_queries, n_categories):
    k, width = len(foreground), n_categories + 1
    probs = np.zeros((n_queries, width), dtype=np.float64)
    boxes = np.empty((n_queries, 4), dtype=np.float64)
    boxes[k:] = (0.0, 0.0, 0.0, 0.0)
    origins = np.full(n_queries, int(Origin.BACKGROUND), dtype=np.int8)
    if k:
        probs[:k] = [np.asarray(t.probs, dtype=np.float64) for t in foreground]
        boxes[:k] = [t.box.to_array() for t in foreground]
        origins[:k] = [int(t.origin) for t in foreground]
    probs[k:, n_categories] = 1.0
    return probs, boxes, origins


def _slot_first_failure(probs, boxes, origins):
    """The first slot that the per-slot rules reject, or None."""
    seen = set()
    for i in range(probs.shape[0]):
        try:
            if origins[i] not in {int(o) for o in Origin}:
                raise ValueError
            b = BoundingBox(*(float(v) for v in boxes[i]))
            p = np.asarray(probs[i], dtype=np.float64)
            if np.any(p < 0) or not np.isfinite(p).all() or abs(float(p.sum()) - 1.0) > 1e-9:
                raise ValueError
            bg, arg = p.shape[0] - 1, int(np.argmax(p))
            if origins[i] == Origin.GROUND_TRUTH and (arg == bg or p[arg] != 1.0):
                raise ValueError
            if origins[i] == Origin.BACKGROUND and (p[bg] != 1.0 or (b.cx, b.cy, b.w, b.h) != (0, 0, 0, 0)):
                raise ValueError
            if origins[i] == Origin.PSEUDO and arg == bg:
                raise ValueError
        except ValueError:
            return i
    for i in np.flatnonzero(_argmax_and_foreground(probs)[1]):
        key = (int(np.argmax(probs[i])), tuple(boxes[i].tolist()))
        if key in seen:
            return int(i)
        seen.add(key)
    return None


class TestOneHot:
    def test_background_index_rejected(self):
        # one_hot builds ground truth only; index C is out of range like C + 1
        with pytest.raises(ValueError, match="out of range"):
            one_hot(10, box(), n_categories=10)

    def test_foreground(self):
        t = one_hot(3, box(), n_categories=10)
        assert t.probs[0, 3] == 1.0
        assert t.probs.sum() == 1.0
        assert t.origins[0] == Origin.GROUND_TRUTH
        assert t.boxes[0].tolist() == [0.5, 0.5, 0.2, 0.2]
        t.validate()

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            one_hot(11, box(), n_categories=10)


class TestPadToN:
    def test_one_background_slot(self):
        t = pad_to_n([], 1, n_categories=10)
        assert len(t) == 1
        assert t.origins[0] == Origin.BACKGROUND
        assert t.probs[0, 10] == 1.0
        assert t.boxes[0].tolist() == [0.0, 0.0, 0.0, 0.0]
        t.validate()

    def test_all_background(self):
        ls = pad_to_n([], 5, n_categories=4)
        assert len(ls) == 5
        assert all(ls.origins == Origin.BACKGROUND)
        ls.validate()

    def test_order_preserved(self):
        t1 = one_hot(1, box(0.2, 0.2), 4)
        t2 = one_hot(2, box(0.7, 0.7), 4)
        ls = pad_to_n([t1, t2], 4, 4)
        assert ls.probs.argmax(axis=1).tolist() == [1, 2, 4, 4]
        assert ls.origins.tolist() == [0, 0, 2, 2]
        ls.validate()

    def test_capacity_exceeded(self):
        ts = [one_hot(i % 4, box(0.1 + 0.1 * i, 0.5), 4) for i in range(6)]
        with pytest.raises(ValueError, match="capacity exceeded"):
            pad_to_n(ts, 5, 4)

    def test_origins_sum_to_n(self):
        t1 = one_hot(1, box(0.2, 0.2), 4)
        ls = pad_to_n([t1], 7, 4)
        counts = np.bincount(ls.origins, minlength=len(Origin))
        assert counts.sum() == 7
        assert counts[Origin.GROUND_TRUTH] == 1
        assert counts[Origin.BACKGROUND] == 6

    @pytest.mark.parametrize("k", range(7))
    def test_bitwise_equal_to_stacked_targets(self, k):
        # k slots (ground truth, float32 soft pseudo, one-slot background sets,
        # in a random order) padded to N give the bytes of the per-slot construction
        n, c = 6, 4
        for seed in range(25):
            rng = np.random.default_rng(100 * k + seed)
            given, oracle = [], []
            for _ in range(k):
                b = box(*rng.uniform(0.2, 0.8, 2), *rng.uniform(0.05, 0.3, 2))
                kind = int(rng.integers(0, 4))
                if kind == 3:
                    soft = rng.dirichlet(np.ones(c + 1)).astype(np.float32)
                    soft[int(rng.integers(0, c))] += 1.0
                    soft /= soft.sum()
                    given.append(slot(soft, b.to_array(), Origin.PSEUDO))
                    oracle.append(_Slot(soft, b, Origin.PSEUDO))
                elif kind == 0:
                    given.append(pad_to_n([], 1, c))
                    oracle.append(_slot_one_hot(None, b, c))
                else:
                    cat = int(rng.integers(0, c))
                    given.append(one_hot(cat, b, c))
                    oracle.append(_slot_one_hot(cat, b, c))
            ls = pad_to_n(given, n, n_categories=c)
            for got, want in zip((ls.probs, ls.boxes, ls.origins), _slot_pad_to_n(oracle, n, c)):
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError, match="widths"):
            pad_to_n([one_hot(1, box(), 4), one_hot(1, box(), 3)], 5, 4)
        with pytest.raises(ValueError, match="widths"):
            pad_to_n([one_hot(1, box(), 4)], 5, n_categories=3)

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            pad_to_n([], 0, n_categories=2)


class TestForegroundPredicate:
    def test_background_dominant(self):
        assert not _argmax_and_foreground(np.array([0.3, 0.3, 0.4]))[1]

    def test_foreground_dominant(self):
        assert _argmax_and_foreground(np.array([0.6, 0.1, 0.3]))[1]

    def test_rows_and_background_tie(self):
        m = np.array(
            [
                [0.6, 0.1, 0.3],  # foreground
                [0.3, 0.3, 0.4],  # background
                [0.4, 0.2, 0.4],  # category 0 ties background: the first maximum wins
                [0.2, 0.4, 0.4],  # category 1 ties background
                [0.0, 0.0, 1.0],  # one-hot background
            ]
        )
        assert _argmax_and_foreground(m)[1].tolist() == [True, False, True, True, False]
        assert _argmax_and_foreground(np.array([0.5, 0.5]))[1].item()  # 1-D: one category ties background


def valid_set():
    """Ground truth, soft pseudo, soft prediction and background slots, C = 2."""
    return pad_to_n(
        [
            one_hot(0, box(0.3, 0.3), 2),
            slot([0.1, 0.6, 0.3], [0.7, 0.6, 0.2, 0.3], Origin.PSEUDO),
            slot([0.2, 0.2, 0.6], [0.4, 0.4, 0.1, 0.1], Origin.PREDICTION),
        ],
        4,
        2,
    )


def broken(row, probs=None, b=None, origin=None):
    ls = valid_set()
    if probs is not None:
        ls.probs[row] = probs
    if b is not None:
        ls.boxes[row] = b
    if origin is not None:
        ls.origins[row] = origin
    return ls


# one case per rule: the broken set, the failing slot, and the rule's words
RULES = {
    "negative probability": (broken(1, probs=[-0.1, 0.8, 0.3]), 1, "non-negative"),
    "nan probability": (broken(2, probs=[np.nan, 0.5, 0.5]), 2, "finite"),
    "infinite probability": (broken(1, probs=[np.inf, 0.0, 0.0]), 1, "finite"),
    "sum not one": (broken(2, probs=[0.5, 0.6, 0.0]), 2, "sum to 1"),
    "box not finite": (broken(1, b=[0.5, np.nan, 0.2, 0.2]), 1, "box"),
    "box outside unit square": (broken(2, b=[0.5, 0.5, 1.5, 0.2]), 2, "box"),
    "negative box": (broken(0, b=[-0.1, 0.5, 0.2, 0.2]), 0, "box"),
    "ground truth soft": (broken(0, probs=[0.9, 0.1, 0.0]), 0, "ground-truth"),
    "ground truth on background": (broken(0, probs=[0.0, 0.0, 1.0]), 0, "ground-truth"),
    "background on a category": (broken(3, probs=[1.0, 0.0, 0.0]), 3, "background slot"),
    "background with a box": (broken(3, b=[0.5, 0.5, 0.2, 0.2]), 3, "background slot"),
    "pseudo on background": (broken(1, probs=[0.2, 0.2, 0.6]), 1, "pseudo"),
    "unknown origin": (broken(2, origin=7), 2, "origin"),
    "duplicate foreground": (
        broken(2, probs=[1.0, 0.0, 0.0], b=[0.3, 0.3, 0.2, 0.2], origin=Origin.GROUND_TRUTH),
        2,
        "duplicate",
    ),
}


class TestValidation:
    def test_probability_sum_enforced(self):
        ls = slot([0.5, 0.6], [0.5, 0.5, 0.2, 0.2], Origin.PREDICTION)
        with pytest.raises(ValueError):
            ls.validate()

    def test_ground_truth_must_be_one_hot(self):
        ls = slot([0.9, 0.1, 0.0], [0.5, 0.5, 0.2, 0.2], Origin.GROUND_TRUTH)
        with pytest.raises(ValueError):
            ls.validate()

    def test_pseudo_argmax_foreground(self):
        ls = slot([0.2, 0.2, 0.6], [0.5, 0.5, 0.2, 0.2], Origin.PSEUDO)
        with pytest.raises(ValueError):
            ls.validate()
        slot([0.6, 0.1, 0.3], [0.5, 0.5, 0.2, 0.2], Origin.PSEUDO).validate()

    def test_duplicate_foreground_rejected(self):
        t = one_hot(1, box(), 3)
        ls = pad_to_n([t, t], 3, 3)
        with pytest.raises(ValueError, match="duplicate"):
            ls.validate()

    @pytest.mark.parametrize("rule", RULES)
    def test_rule_names_failing_slot(self, rule):
        ls, row, words = RULES[rule]
        with pytest.raises(ValueError, match=rf"^slot {row}: .*{words}"):
            ls.validate()

    @pytest.mark.parametrize("field", ["probs", "boxes", "origins"])
    def test_shapes(self, field):
        ls = valid_set()
        setattr(ls, field, getattr(ls, field)[:3])
        with pytest.raises(ValueError, match="shapes"):
            ls.validate()

    def test_distribution_needs_a_category(self):
        with pytest.raises(ValueError, match="category plus background"):
            LabeledSet(np.ones((2, 1)), np.zeros((2, 4)), np.zeros(2, dtype=np.int8)).validate()

    def test_first_failing_slot_named(self):
        ls = broken(3, probs=[1.0, 0.0, 0.0])
        ls.probs[1] = [0.2, 0.2, 0.6]  # pseudo on background, before the background slot
        with pytest.raises(ValueError, match=r"^slot 1: pseudo"):
            ls.validate()

    def test_soft_prediction_rows_pass(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(50, 4))
        probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        boxes = rng.uniform(0.0, 1.0, size=(50, 4))
        origins = np.full(50, Origin.PREDICTION, dtype=np.int8)
        assert 0 < _argmax_and_foreground(probs)[1].sum() < 50
        LabeledSet(probs, boxes, origins).validate()
        valid_set().validate()

    def test_agrees_with_per_slot_rules(self):
        # random one-cell corruptions of valid sets: the column rules reject exactly
        # when the per-slot rules do, and name the same slot
        rng = np.random.default_rng(7)
        cells = [np.nan, np.inf, -0.1, 0.0, 0.5, 1.0, 1.5]
        rejected = 0
        for _ in range(400):
            ls = valid_set()
            ls.probs[2] = rng.dirichlet(np.ones(3))
            for _ in range(int(rng.integers(0, 3))):
                row = int(rng.integers(0, 4))
                what = int(rng.integers(0, 4))
                if what == 0:
                    ls.probs[row, int(rng.integers(0, 3))] = cells[int(rng.integers(0, len(cells)))]
                elif what == 1:
                    ls.boxes[row, int(rng.integers(0, 4))] = cells[int(rng.integers(0, len(cells)))]
                elif what == 2:
                    ls.origins[row] = int(rng.integers(0, 5))
                else:
                    ls.probs[row], ls.boxes[row] = ls.probs[0], ls.boxes[0]
            want = _slot_first_failure(ls.probs, ls.boxes, ls.origins)
            if want is None:
                ls.validate()
                continue
            rejected += 1
            with pytest.raises(ValueError) as err:
                ls.validate()
            assert int(re.match(r"slot (\d+):", str(err.value)).group(1)) == want
        assert 100 < rejected < 400
