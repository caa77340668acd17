import numpy as np
import pytest

from iodkit.geometry import BoundingBox
from iodkit.labels import (
    LabeledSet,
    Origin,
    Target,
    from_json_lines,
    foreground_mask,
    one_hot,
    pad_to_n,
    to_json_lines,
)


def box(cx=0.5, cy=0.5, w=0.2, h=0.2):
    return BoundingBox(cx, cy, w, h)


class TestOneHot:
    def test_background(self):
        t = one_hot(None, box(), n_categories=10)
        assert t.origin == Origin.BACKGROUND
        assert t.probs[10] == 1.0
        assert t.box == BoundingBox(0, 0, 0, 0)
        t.validate()

    def test_background_by_index(self):
        t = one_hot(10, box(), n_categories=10)
        assert t.origin == Origin.BACKGROUND

    def test_foreground(self):
        t = one_hot(3, box(), n_categories=10)
        assert t.probs[3] == 1.0
        assert t.probs.sum() == 1.0
        assert t.origin == Origin.GROUND_TRUTH
        t.validate()

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            one_hot(11, box(), n_categories=10)


class TestPadToN:
    def test_all_background(self):
        ls = pad_to_n([], 5, n_categories=4)
        assert len(ls) == 5
        assert all(ls.origins == Origin.BACKGROUND)
        ls.validate()

    def test_order_preserved(self):
        t1 = one_hot(1, box(0.2, 0.2), 4)
        t2 = one_hot(2, box(0.7, 0.7), 4)
        ls = pad_to_n([t1, t2], 4)
        assert ls.categories().tolist() == [1, 2, 4, 4]
        assert ls.origins.tolist() == [0, 0, 2, 2]
        ls.validate()

    def test_capacity_exceeded(self):
        ts = [one_hot(i % 4, box(0.1 + 0.1 * i, 0.5), 4) for i in range(6)]
        with pytest.raises(ValueError, match="capacity exceeded"):
            pad_to_n(ts, 5)

    def test_origin_counts_sum_to_n(self):
        t1 = one_hot(1, box(0.2, 0.2), 4)
        ls = pad_to_n([t1], 7)
        counts = ls.origin_counts()
        assert sum(counts.values()) == 7
        assert counts[Origin.GROUND_TRUTH] == 1
        assert counts[Origin.BACKGROUND] == 6

    @pytest.mark.parametrize("k", [0, 1, 3, 6])
    def test_bitwise_equal_to_stacked_targets(self, k):
        # the padded set equals the one stacked slot by slot from N targets
        rng = np.random.default_rng(k)
        n, c = 6, 4
        fg = [one_hot(int(rng.integers(0, c)), box(*rng.uniform(0.2, 0.8, 2), 0.1, 0.1), c) for _ in range(k)]
        if k:
            soft = rng.dirichlet(np.ones(c + 1)).astype(np.float32)  # a non-float64 pseudo slot
            soft[0] = soft.max() + 1.0
            fg[-1] = Target(probs=soft / soft.sum(), box=box(0.3, 0.7), origin=Origin.PSEUDO)
        ls = pad_to_n(fg, n, n_categories=c if k == 0 else None)
        ref = LabeledSet.from_targets(fg + [one_hot(None, box(), c)] * (n - k))
        for name in ("probs", "boxes", "origins"):
            got, want = getattr(ls, name), getattr(ref, name)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError, match="widths"):
            pad_to_n([one_hot(1, box(), 4), one_hot(1, box(), 3)], 5)
        with pytest.raises(ValueError, match="widths"):
            pad_to_n([one_hot(1, box(), 4)], 5, n_categories=3)

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            pad_to_n([], 0, n_categories=2)


class TestForegroundPredicate:
    def test_background_dominant(self):
        assert not foreground_mask(np.array([0.3, 0.3, 0.4]))

    def test_foreground_dominant(self):
        assert foreground_mask(np.array([0.6, 0.1, 0.3]))

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
        assert foreground_mask(m).tolist() == [True, False, True, True, False]
        assert foreground_mask(np.array([0.5, 0.5])).item()  # 1-D: one category ties background


class TestValidation:
    def test_probability_sum_enforced(self):
        t = Target(np.array([0.5, 0.6]), box(), Origin.PREDICTION)
        with pytest.raises(ValueError):
            t.validate()

    def test_ground_truth_must_be_one_hot(self):
        t = Target(np.array([0.9, 0.1, 0.0]), box(), Origin.GROUND_TRUTH)
        with pytest.raises(ValueError):
            t.validate()

    def test_pseudo_argmax_foreground(self):
        t = Target(np.array([0.2, 0.2, 0.6]), box(), Origin.PSEUDO)
        with pytest.raises(ValueError):
            t.validate()
        Target(np.array([0.6, 0.1, 0.3]), box(), Origin.PSEUDO).validate()

    def test_duplicate_foreground_rejected(self):
        t = one_hot(1, box(), 3)
        ls = LabeledSet.from_targets([t, t, one_hot(None, box(), 3)])
        with pytest.raises(ValueError, match="duplicate"):
            ls.validate()


class TestSerialization:
    def make_set(self):
        rng = np.random.default_rng(1)
        soft = rng.dirichlet(np.ones(4))
        soft[0] += 1 - soft.sum()  # exact sum for validation
        items = [
            one_hot(2, box(0.25, 0.25, 0.1, 0.3), 3),
            Target(soft, box(0.7, 0.6, 0.2, 0.2), Origin.PSEUDO if soft.argmax() != 3 else Origin.PREDICTION),
            one_hot(None, box(), 3),
        ]
        return LabeledSet.from_targets(items)

    def test_roundtrip(self):
        ls = self.make_set()
        text = to_json_lines(ls)
        back = from_json_lines(text)
        assert np.array_equal(back.probs, ls.probs)
        assert np.array_equal(back.boxes, ls.boxes)
        assert np.array_equal(back.origins, ls.origins)

    def test_format_one_record_per_line(self):
        ls = self.make_set()
        lines = to_json_lines(ls).strip().split("\n")
        assert len(lines) == 3
        assert all(line.startswith('{"p":') for line in lines)

    def test_golden_background_record(self):
        ls = pad_to_n([], 1, n_categories=2)
        assert to_json_lines(ls) == '{"p":[0.0,0.0,1.0],"box":[0.0,0.0,0.0,0.0],"origin":"background"}\n'
