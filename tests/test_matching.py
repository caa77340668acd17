import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iodkit.geometry import BoundingBox, box_loss_pairs_with_grad
from iodkit.labels import LabeledSet, Origin, one_hot, pad_to_n
from iodkit.matching import Assignment, CostMatrix, brute_force_match, build_cost, hungarian


def rand_matrix(rng, n, lo=-10.0, hi=10.0):
    return CostMatrix(rng.uniform(lo, hi, size=(n, n)))


def draw_costs(rng, kind, shape):
    """Small integers and dyadic rationals tie often and exactly; continuous costs almost never."""
    if kind == "integer":
        return rng.integers(-2, 3, size=shape).astype(np.float64)
    if kind == "dyadic":
        return rng.integers(-8, 9, size=shape) / 4.0
    return rng.uniform(-10, 10, size=shape)


def optimal_foregrounds(cost):
    """The foreground columns of every minimum-cost permutation, by enumeration."""
    n = cost.n
    full = np.zeros((n, n))
    full[cost.rows] = cost.values
    totals = {perm: math.fsum(full[i, perm[i]] for i in range(n)) for perm in itertools.permutations(range(n))}
    best = min(totals.values())
    return {tuple(perm[r] for r in cost.rows) for perm, total in totals.items() if total == best}


class TestBuildCost:
    def test_all_background_rows_zero(self):
        # background targets have no rows: the block is 0 x N and matching is the identity
        targets = pad_to_n([], 4, n_categories=2)
        preds = LabeledSet(
            probs=np.full((4, 3), 1 / 3),
            boxes=np.full((4, 4), 0.5),
            origins=np.full(4, Origin.PREDICTION, dtype=np.int8),
        )
        cost = build_cost(targets, preds, 2.0, 5.0)
        assert cost.values.shape == (0, 4)
        assert cost.rows.tolist() == []
        a = hungarian(cost)
        assert a.sigma.tolist() == [0, 1, 2, 3]
        assert a.total_cost == 0.0

    def test_foreground_block_rows(self):
        # foreground slots 1 and 3 among four: one row each, entries as the full formula gives them
        rng = np.random.default_rng(6)
        b1, b3 = BoundingBox(0.3, 0.4, 0.2, 0.3), BoundingBox(0.6, 0.5, 0.3, 0.2)
        bg = one_hot(None, BoundingBox(0, 0, 0, 0), 2)
        targets = pad_to_n([bg, one_hot(0, b1, 2), bg, one_hot(1, b3, 2)], 4)
        probs = rng.dirichlet(np.ones(3), size=4)
        boxes = np.column_stack([rng.uniform(0.3, 0.7, size=(4, 2)), rng.uniform(0.1, 0.3, size=(4, 2))])
        preds = LabeledSet(probs=probs, boxes=boxes, origins=np.full(4, Origin.PREDICTION, dtype=np.int8))
        cost = build_cost(targets, preds, 2.0, 5.0)
        assert cost.values.shape == (2, 4)
        assert cost.rows.tolist() == [1, 3]
        for r, (i, b) in enumerate([(1, b1), (3, b3)]):
            for j in range(4):
                box_cost, _ = box_loss_pairs_with_grad(boxes[j][None], b.to_array()[None], 2.0, 5.0)
                expected = -float(targets.probs[i] @ probs[j]) + box_cost[0]
                assert abs(cost.values[r, j] - expected) < 1e-12

    def test_perfect_match_entry(self):
        b = BoundingBox(0.5, 0.5, 0.2, 0.2)
        targets = pad_to_n([one_hot(0, b, 2)], 2)
        probs = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        preds = LabeledSet(
            probs=probs,
            boxes=np.stack([b.to_array(), b.to_array()]),
            origins=np.full(2, Origin.PREDICTION, dtype=np.int8),
        )
        cost = build_cost(targets, preds, 2.0, 5.0)
        assert cost.values[0, 0] == -1.0

    def test_soft_target_inner_product(self):
        # soft pseudo target 0.7 on class index 2 (of 0..2) and 0.3 background
        b = BoundingBox(0.5, 0.5, 0.2, 0.2)
        targets = LabeledSet(
            probs=np.array([[0.0, 0.0, 0.7, 0.3]]),
            boxes=b.to_array()[None],
            origins=np.array([Origin.PSEUDO], dtype=np.int8),
        )
        preds = LabeledSet(
            probs=np.array([[0.0, 0.0, 0.5, 0.5]]),
            boxes=b.to_array()[None],
            origins=np.array([Origin.PREDICTION], dtype=np.int8),
        )
        cost = build_cost(targets, preds, 2.0, 5.0)
        expected = -(0.7 * 0.5 + 0.3 * 0.5)
        assert abs(cost.values[0, 0] - expected) < 1e-12
        # independent recomputation over the full support
        manual = -float(np.dot(targets.probs[0], preds.probs[0]))
        assert abs(cost.values[0, 0] - manual) < 1e-12

    @pytest.mark.parametrize("gamma1, gamma2", [(-2.0, -5.0), (-2.0, 5.0), (2.0, -5.0)])
    def test_negative_weights_rejected(self, gamma1, gamma2):
        # a negative weight would reward bad boxes in matching as in the loss
        b = BoundingBox(0.5, 0.5, 0.2, 0.2)
        t = pad_to_n([one_hot(0, b, 2)], 1)
        p = LabeledSet(
            probs=np.array([[0.6, 0.1, 0.3]]),
            boxes=b.to_array()[None],
            origins=np.array([Origin.PREDICTION], dtype=np.int8),
        )
        with pytest.raises(ValueError, match="loss weights must be non-negative"):
            build_cost(t, p, gamma1, gamma2)

    def test_length_mismatch(self):
        targets = pad_to_n([], 3, n_categories=2)
        preds = pad_to_n([], 4, n_categories=2)
        with pytest.raises(ValueError, match="length mismatch"):
            build_cost(targets, preds, 2.0, 5.0)


class TestHungarian:
    def test_identity_favoring(self):
        values = np.ones((4, 4))
        np.fill_diagonal(values, 0.0)
        a = hungarian(CostMatrix(values))
        assert a.sigma.tolist() == [0, 1, 2, 3]
        assert a.total_cost == 0.0

    def test_two_by_two(self):
        a = hungarian(CostMatrix(np.array([[1.0, 2.0], [3.0, 0.0]])))
        assert a.sigma.tolist() == [0, 1]
        assert a.total_cost == 1.0

    def test_row_constant_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            m = rand_matrix(rng, 5)
            base = hungarian(m).sigma
            shifted = m.values.copy()
            shifted[2] += 3.7
            assert hungarian(CostMatrix(shifted)).sigma.tolist() == base.tolist()

    def test_whole_matrix_constant_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            m = rand_matrix(rng, 6)
            base = hungarian(m).sigma
            assert hungarian(CostMatrix(m.values + 2.5)).sigma.tolist() == base.tolist()

    def test_zero_matrix_identity(self):
        a = hungarian(CostMatrix(np.zeros((5, 5))))
        assert a.sigma.tolist() == [0, 1, 2, 3, 4]

    def test_background_row_permutation_invariance(self):
        rng = np.random.default_rng(2)
        values = rng.uniform(-5, 5, size=(6, 6))
        values[3] = 0.0
        values[4] = 0.0
        a = hungarian(CostMatrix(values))
        swapped = values.copy()
        swapped[[3, 4]] = swapped[[4, 3]]
        b = hungarian(CostMatrix(swapped))
        assert a.sigma.tolist() == b.sigma.tolist()

    def test_non_finite_rejected(self):
        values = np.zeros((3, 3))
        values[1, 1] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            hungarian(CostMatrix(values))

    def test_background_row_above_foreground_row(self):
        # target 2 is the only foreground target and wants column 0
        cost = CostMatrix(np.array([[0.0, 5.0, 5.0]]), rows=[2])
        a = hungarian(cost)
        assert a.sigma.tolist() == [1, 2, 0]
        assert a.total_cost == 0.0

    def test_background_takes_free_columns_ascending(self):
        values = np.array([[9.0, 9.0, 0.0, 9.0, 9.0], [9.0, 9.0, 9.0, 9.0, 0.0]])
        a = hungarian(CostMatrix(values, rows=[0, 1]))
        assert a.sigma.tolist() == [2, 4, 0, 1, 3]

    @pytest.mark.parametrize(
        "values, rows",
        [
            (np.zeros((2, 3)), [1, 0]),  # not ascending
            (np.zeros((2, 3)), [1, 1]),  # repeated
            (np.zeros((2, 3)), [1, 3]),  # past the last prediction
            (np.zeros((2, 3)), [-1, 1]),
            (np.zeros((2, 3)), [0]),  # one index for two rows
            (np.zeros(3), [0]),  # not a matrix
        ],
    )
    def test_bad_rows_rejected(self, values, rows):
        with pytest.raises(ValueError, match="one row per target"):
            hungarian(CostMatrix(values, rows))

    def test_assignment_validation(self):
        m = CostMatrix(np.array([[1.0, 2.0], [3.0, 0.0]]))
        a = hungarian(m)
        a.validate(m)
        bad = Assignment(np.array([0, 0]), 1.0)
        with pytest.raises(ValueError):
            bad.validate()


class TestBruteForceOracle:
    def test_one_by_one(self):
        a = brute_force_match(CostMatrix(np.array([[3.5]])))
        assert a.sigma.tolist() == [0]
        assert a.total_cost == 3.5

    def test_size_limit(self):
        with pytest.raises(ValueError):
            brute_force_match(CostMatrix(np.zeros((9, 9))))
        with pytest.raises(ValueError):
            brute_force_match(CostMatrix(np.zeros((1, 9)), rows=[4]))

    def test_block_expanded_with_zero_background_rows(self):
        # background target 0 costs nothing; target 1 prefers column 0
        a = brute_force_match(CostMatrix(np.array([[1.0, 3.0]]), rows=[1]))
        assert a.sigma.tolist() == [1, 0]
        assert a.total_cost == 1.0

    def test_agreement_on_random_matrices(self):
        rng = np.random.default_rng(4)
        for _ in range(1000):
            n = int(rng.integers(1, 6))
            m = rand_matrix(rng, n)
            h = hungarian(m)
            b = brute_force_match(m)
            assert h.total_cost == b.total_cost
            if len(optimal_foregrounds(m)) == 1:
                assert h.sigma.tolist() == b.sigma.tolist()

    def test_unique_optimum_sigma_equality(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            m = rand_matrix(rng, 5)
            # continuous entries: optimum unique almost surely
            assert hungarian(m).sigma.tolist() == brute_force_match(m).sigma.tolist()


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=1, max_value=7),
    st.sampled_from(["integer", "dyadic", "continuous"]),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_property_hungarian_matches_brute_force(n, kind, seed):
    # k <= n foreground rows at random positions, background rows above, between and below them
    rng = np.random.default_rng(seed)
    k = int(rng.integers(0, n + 1))
    rows = np.sort(rng.choice(n, size=k, replace=False))
    m = CostMatrix(draw_costs(rng, kind, (k, n)), rows)
    b = brute_force_match(m)
    h = hungarian(m)
    h.validate(m)
    assert h.total_cost == b.total_cost
    # among tied optima no rule is claimed; a unique one must be found
    if len(optimal_foregrounds(m)) == 1:
        assert h.sigma.tolist() == b.sigma.tolist()
