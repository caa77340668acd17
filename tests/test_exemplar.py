import math

import numpy as np
import pytest

from iodkit.exemplar import (
    EPSILON,
    ExemplarMemory,
    greedy_select,
    kl_divergence,
    marginal,
    phase_budget,
    random_select,
)


def skewed_phase(rng, n_images=20, categories=(0, 1), weights=(0.9, 0.1), lo=1, hi=6):
    """Images with annotation categories drawn from a skewed marginal."""
    images = {}
    for i in range(n_images):
        m = int(rng.integers(lo, hi))
        cats = rng.choice(categories, size=m, p=np.asarray(weights) / np.sum(weights))
        images[i] = cats.tolist()
    return images


class TestMarginal:
    def test_single_category(self):
        m = marginal([0, 0, 0], [0])
        assert m.probs.tolist() == [1.0]

    def test_ninety_ten(self):
        cats = [0] * 90 + [1] * 10
        m = marginal(cats, [0, 1])
        assert abs(m.probs[0] - 0.9) < 1e-9
        assert abs(m.probs[1] - 0.1) < 1e-9

    def test_smoothing_avoids_exact_zero(self):
        m = marginal([1] * 5, [0, 1])
        assert m.probs[0] > 0
        assert m.probs[0] < 1e-8
        assert abs(m.probs[0] - 1e-8 / (5 + 2e-8)) < 1e-18

    def test_empty_categories_rejected(self):
        with pytest.raises(ValueError):
            marginal([0], [])


class TestKlDivergence:
    def test_missing_category_is_infinite_without_warning(self):
        # pytest turns a divide-by-zero RuntimeWarning into a failure
        assert kl_divergence(np.array([0.5, 0.5]), np.array([1.0, 0.0])) == math.inf

    def test_zero_in_p_contributes_nothing(self):
        # q = 0 where p = 0 too is no missing category
        p, q = np.array([0.5, 0.5, 0.0]), np.array([0.25, 0.75, 0.0])
        assert kl_divergence(p, q) == pytest.approx(0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match=r"p has shape \(2,\), q has shape \(3,\)"):
            kl_divergence(np.array([0.5, 0.5]), np.array([0.2, 0.3, 0.5]))


class TestPhaseBudget:
    def test_ten_percent(self):
        assert phase_budget(0.1, 200) == 20

    def test_zero_fraction(self):
        assert phase_budget(0.0, 500) == 0

    def test_ceiling(self):
        assert phase_budget(0.1, 5) == 1

    def test_range_check(self):
        with pytest.raises(ValueError):
            phase_budget(1.5, 10)


class TestGreedySelect:
    def test_identical_profiles_tie_break_by_id(self):
        images = {i: [0, 1] for i in range(10)}
        out = greedy_select(images, 4, [0, 1])
        assert out == [0, 1, 2, 3]

    def test_per_step_optimality_against_rescan(self):
        rng = np.random.default_rng(0)
        images = skewed_phase(rng, n_images=25, categories=(0, 1, 2), weights=(0.7, 0.2, 0.1))
        categories = [0, 1, 2]
        out = greedy_select(images, 8, categories)

        # independent rescan of the objective at every step
        target = marginal([c for cats in images.values() for c in cats], categories).probs
        running = np.zeros(3)
        remaining = dict(images)
        for step, picked in enumerate(out):
            best_score = -np.inf
            best_id = None
            for img_id in sorted(remaining):
                counts = running.copy()
                for c in remaining[img_id]:
                    counts[categories.index(c)] += 1
                q = (counts + EPSILON) / (counts + EPSILON).sum()
                score = float(np.sum(target * np.log(q)))
                if score > best_score + 1e-12:
                    best_score = score
                    best_id = img_id
            assert picked == best_id, f"step {step}: greedy chose {picked}, rescan says {best_id}"
            for c in remaining[picked]:
                running[categories.index(c)] += 1
            del remaining[picked]

    def test_beats_random_subsets_on_ninety_ten_phase(self):
        # 20 images totalling 90 annotations of category 0 and 10 of
        # category 1: ten images with counts (6, 1), ten with (3, 0)
        images = {}
        for i in range(10):
            images[i] = [0] * 6 + [1]
        for i in range(10, 20):
            images[i] = [0] * 3
        categories = [0, 1]
        target = marginal([c for cats in images.values() for c in cats], categories).probs
        assert abs(target[0] - 0.9) < 1e-8

        def subset_kl(ids):
            m = marginal([c for i in ids for c in images[i]], categories)
            return kl_divergence(target, m.probs)

        greedy_ids = greedy_select(images, 4, categories)
        greedy_kl = subset_kl(greedy_ids)
        random_kls = []
        for s in range(200):
            ids = random_select(list(images), 4, seed=s)
            random_kls.append(subset_kl(ids))
        assert greedy_kl <= min(random_kls) + 1e-12
        # the greedy pick lands on an exact 0.9/0.1 subset here
        assert greedy_kl < 1e-12

    def test_no_image_selected_twice(self):
        rng = np.random.default_rng(2)
        images = skewed_phase(rng, n_images=15, categories=(0, 1, 2), weights=(0.5, 0.3, 0.2))
        out = greedy_select(images, 15, [0, 1, 2])
        assert sorted(out) == sorted(images)

    def test_pairs_sequence_not_accepted(self):
        # a sequence of (id, categories) pairs could list an id twice; only a mapping is taken
        with pytest.raises(AttributeError):
            greedy_select([(1, [0]), (1, [0]), (2, [1])], 3, [0, 1])

    def test_overdraw_rejected(self):
        with pytest.raises(ValueError):
            greedy_select({0: [0]}, 2, [0])

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="cannot select -1"):
            greedy_select({0: [0], 1: [0]}, -1, [0])
        with pytest.raises(ValueError, match="cannot select -1"):
            random_select([0, 1], -1, seed=0)

    @pytest.mark.parametrize("count", [True, False, 1.0, 1.5, "1", None, np.True_])
    def test_count_that_is_not_an_integer_rejected(self, count):
        # greedy_select once took True for 1 and returned one image
        with pytest.raises(ValueError, match=f"cannot select {count!r} exemplars"):
            greedy_select({1: [0], 2: [0]}, count, [0])
        with pytest.raises(ValueError, match=f"cannot select {count!r} exemplars"):
            random_select([1, 2], count, seed=0)

    def test_numpy_integer_count_accepted(self):
        assert greedy_select({1: [0], 2: [1]}, np.int64(2), [0, 1]) == [1, 2]
        assert random_select([1, 2], np.int64(2), seed=0) == [1, 2]

    def test_kl_beats_random_median_over_seeds(self):
        rng = np.random.default_rng(3)
        images = skewed_phase(rng, n_images=30, categories=(0, 1, 2), weights=(0.75, 0.2, 0.05))
        categories = [0, 1, 2]
        target = marginal([c for cats in images.values() for c in cats], categories).probs

        def subset_kl(ids):
            m = marginal([c for i in ids for c in images[i]], categories)
            return kl_divergence(target, m.probs)

        greedy_kl = subset_kl(greedy_select(images, 6, categories))
        random_kls = sorted(subset_kl(random_select(list(images), 6, seed=s)) for s in range(21))
        median = random_kls[10]
        assert greedy_kl <= median

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 2")
    def test_memory_holds_objects_when_empty_images_outnumber_the_budget(self):
        # every fifth of 100 images is empty: 20 empty images against a budget of 10. The smoothed
        # score rates an empty image as a uniform marginal, which beats any image with objects
        # while the running counts are zero, so greedy picks ids 0, 5, ..., 45 and 0 objects.
        images = {i: [] if i % 5 == 0 else [i % 3] for i in range(100)}
        picked = greedy_select(images, 10, [0, 1, 2])
        assert sum(len(images[i]) for i in picked) > 0


class TestRandomSelect:
    def test_seed_determinism(self):
        ids = list(range(50))
        assert random_select(ids, 10, seed=7) == random_select(ids, 10, seed=7)
        assert random_select(ids, 10, seed=7) != random_select(ids, 10, seed=8)

    def test_full_draw(self):
        ids = [3, 1, 4, 1 + 4, 9]
        assert sorted(random_select(ids, 5, seed=0)) == sorted(ids)

    def test_selection_frequency_binomial(self):
        ids = list(range(20))
        n_select, n_seeds = 5, 1000
        hits = np.zeros(20)
        for s in range(n_seeds):
            for i in random_select(ids, n_select, seed=s):
                hits[i] += 1
        p = n_select / len(ids)
        se = np.sqrt(p * (1 - p) / n_seeds)
        freq = hits / n_seeds
        assert np.all(np.abs(freq - p) < 3 * se + 1e-9), freq


class TestExemplarMemory:
    def test_union_accumulation_disjoint(self):
        mem = ExemplarMemory(budget_fraction=0.1)
        mem.add_phase([1, 2, 3])
        mem.add_phase([4, 5])
        assert mem.per_phase == [[1, 2, 3], [4, 5]]
        assert mem.ids_before(2) == [1, 2, 3]
        assert mem.ids_before(1) == []
        assert set(mem.per_phase[0]).isdisjoint(mem.per_phase[1])

    @pytest.mark.parametrize("phase_index", [0, -1])
    def test_ids_before_rejects_index_below_one(self, phase_index):
        mem = ExemplarMemory()
        for ids in ([1], [2], [3]):
            mem.add_phase(ids)
        with pytest.raises(ValueError, match="1-based"):
            mem.ids_before(phase_index)

    def test_overlap_rejected(self):
        mem = ExemplarMemory()
        mem.add_phase([1, 2])
        with pytest.raises(ValueError):
            mem.add_phase([2, 3])

    def test_repeat_within_phase_rejected(self):
        # a repeated id would replay its image twice
        mem = ExemplarMemory()
        mem.add_phase([1, 2])
        with pytest.raises(ValueError, match=r"repeat: \[5\]"):
            mem.add_phase([5, 5, 6])
        assert mem.per_phase == [[1, 2]]

    def test_manifest_text(self):
        mem = ExemplarMemory(budget_fraction=0.25)
        mem.add_phase([10, 20])
        mem.add_phase([30])
        assert mem.dumps() == '{"budget_fraction":0.25,"phases":[[10,20],[30]]}\n'

    @pytest.mark.parametrize("fraction", [7.0, -0.1, float("nan")])
    def test_budget_fraction_outside_unit_interval_rejected(self, fraction):
        with pytest.raises(ValueError, match=r"budget fraction must be in \[0, 1\]"):
            ExemplarMemory(budget_fraction=fraction)
