import tracemalloc
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

    def test_all_background(self):
        ls = pad_to_n([], 5, n_categories=4)
        assert len(ls) == 5
        assert all(ls.origins == Origin.BACKGROUND)

    def test_order_preserved(self):
        t1 = one_hot(1, box(0.2, 0.2), 4)
        t2 = one_hot(2, box(0.7, 0.7), 4)
        ls = pad_to_n([t1, t2], 4, 4)
        assert ls.probs.argmax(axis=1).tolist() == [1, 2, 4, 4]
        assert ls.origins.tolist() == [0, 0, 2, 2]

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

    @pytest.mark.parametrize("n", [-1, -5])
    def test_negative_n_named(self, n):
        # a negative N is an empty set, not a capacity overflow
        with pytest.raises(ValueError, match=rf"^cannot build an empty set: N={n}$"):
            pad_to_n([], n, n_categories=3)
        with pytest.raises(ValueError, match="empty set"):
            pad_to_n([one_hot(1, box(), 3)], n, n_categories=3)


def traced_bytes(build):
    """``build()`` and the bytes its result holds and the most it held at once, by ``tracemalloc``."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = build()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, held - before, peak - before


def padded_set():
    """Two given slots, ground truth then soft pseudo, and four of padding."""
    soft = slot([0.1, 0.6, 0.2, 0.1], [0.4, 0.4, 0.3, 0.1], Origin.PSEUDO)
    return pad_to_n([one_hot(2, box(0.2, 0.3), 3), soft], 6, 3)


class TestImplicitPadding:
    def test_thousand_padded_sets_hold_under_a_megabyte(self):
        # 1,000 sets of 2 given slots at N = 100, C = 20; about 20 MB with every slot stored
        given = [[one_hot(1, box(0.3, 0.3), 20), one_hot(3, box(0.6, 0.6), 20)] for _ in range(1000)]
        sets, held, peak = traced_bytes(lambda: [pad_to_n(g, 100, 20) for g in given])
        assert len(sets) == 1000 and held < 1_000_000 and peak < 1_000_000

    def test_length_categories_and_mask_build_no_slot_arrays(self):
        ls = pad_to_n([one_hot(1, box(), 20)], 100_000, 20)  # its probs would take 16.8 MB
        (n, c, mask), _, peak = traced_bytes(lambda: (len(ls), ls.n_categories, ls.foreground_mask()))
        assert (n, c) == (100_000, 20) and mask.nonzero()[0].tolist() == [0]
        assert peak < 200_000  # the 100 kB mask

    def test_reads_are_equal_fresh_and_read_only(self):
        ls = padded_set()
        for name in ("probs", "boxes", "origins"):
            first, second = getattr(ls, name), getattr(ls, name)
            assert first is not second and first.tobytes() == second.tobytes()
            with pytest.raises(ValueError, match="read-only"):
                first[-1] = 1
            assert getattr(ls, name).tobytes() == second.tobytes()

    def test_padding_slots(self):
        ls = padded_set()
        assert ls.probs[2:].tolist() == [[0.0, 0.0, 0.0, 1.0]] * 4
        assert ls.boxes[2:].tolist() == [[0.0] * 4] * 4
        assert ls.origins.tolist() == [Origin.GROUND_TRUTH, Origin.PSEUDO] + [Origin.BACKGROUND] * 4

    def test_copy_is_writable_and_byte_equal(self):
        ls = padded_set()
        dense = ls.copy()
        assert len(dense) == len(ls) == 6
        for name in ("probs", "boxes", "origins"):
            got, want = getattr(dense, name), getattr(ls, name)
            assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()
            assert got is getattr(dense, name)  # a set without padding hands out what it stores
        dense.probs[-1] = 0.25
        dense.boxes[-1] = 0.5
        dense.origins[-1] = Origin.PSEUDO
        assert ls.probs[-1].tolist() == [0.0, 0.0, 0.0, 1.0] and ls.origins[-1] == Origin.BACKGROUND

    def test_foreground_mask_equals_that_of_its_copy(self):
        # a given background slot, then the padding: the mask reads both as background
        ls = pad_to_n([one_hot(0, box(), 2), pad_to_n([], 1, 2), one_hot(1, box(), 2)], 5, 2)
        assert ls.foreground_mask().tolist() == ls.copy().foreground_mask().tolist() == [True, False, True, False, False]

    def test_padded_slots_cannot_be_replaced(self):
        ls = padded_set()
        with pytest.raises(AttributeError, match="read-only"):
            ls.probs = ls.copy().probs
        dense = ls.copy()
        dense.boxes = np.ones((6, 4))
        assert dense.boxes.tolist() == [[1.0] * 4] * 6

    def test_origins_replaced_only_without_padding(self):
        ls = padded_set()
        with pytest.raises(AttributeError, match=r"^the slots of a padded set are read-only; replace those of its copy\(\)$"):
            ls.origins = np.zeros(6, dtype=np.int8)
        assert ls.origins.tolist() == [Origin.GROUND_TRUTH, Origin.PSEUDO] + [Origin.BACKGROUND] * 4
        dense = ls.copy()
        new = np.full(6, Origin.PSEUDO, dtype=np.int8)
        dense.origins = new
        assert dense.origins is new

    def test_class_access_gives_the_column_itself(self):
        for name in ("probs", "boxes", "origins"):
            assert getattr(LabeledSet, name) is LabeledSet.__dict__[name]

    def test_full_set_is_not_padded(self):
        # k = N given slots: pad_to_n stores them all and returns them as they are
        ls = pad_to_n([one_hot(0, box(), 2), one_hot(1, box(), 2)], 2, 2)
        assert ls.probs is ls.probs and ls.probs.flags.writeable


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
