import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iodkit.geometry import BoundingBox, box_loss
from iodkit.labels import LabeledSet, Origin, one_hot, pad_to_n
from iodkit.matching import Assignment, CostMatrix, build_cost, hungarian
from matching_oracle import brute_force_match, check_assignment, path_cost, square


def rand_matrix(rng, n, lo=-10.0, hi=10.0):
    return square(rng.uniform(lo, hi, size=(n, n)))


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
        assert path_cost(cost, a.sigma) == 0.0

    def test_foreground_block_rows(self):
        # foreground slots 1 and 3 among four: one row each, entries as the full formula gives them
        rng = np.random.default_rng(6)
        b1, b3 = BoundingBox(0.3, 0.4, 0.2, 0.3), BoundingBox(0.6, 0.5, 0.3, 0.2)
        bg = pad_to_n([], 1, 2)
        targets = pad_to_n([bg, one_hot(0, b1, 2), bg, one_hot(1, b3, 2)], 4, 2)
        probs = rng.dirichlet(np.ones(3), size=4)
        boxes = np.column_stack([rng.uniform(0.3, 0.7, size=(4, 2)), rng.uniform(0.1, 0.3, size=(4, 2))])
        preds = LabeledSet(probs=probs, boxes=boxes, origins=np.full(4, Origin.PREDICTION, dtype=np.int8))
        cost = build_cost(targets, preds, 2.0, 5.0)
        assert cost.values.shape == (2, 4)
        assert cost.rows.tolist() == [1, 3]
        for r, (i, b) in enumerate([(1, b1), (3, b3)]):
            for j in range(4):
                expected = -float(targets.probs[i] @ probs[j]) + box_loss(boxes[j], b.to_array(), 2.0, 5.0)
                assert abs(cost.values[r, j] - expected) < 1e-12

    def test_perfect_match_entry(self):
        b = BoundingBox(0.5, 0.5, 0.2, 0.2)
        targets = pad_to_n([one_hot(0, b, 2)], 2, 2)
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
        t = pad_to_n([one_hot(0, b, 2)], 1, 2)
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
        a = hungarian(square(values))
        assert a.sigma.tolist() == [0, 1, 2, 3]
        assert path_cost(square(values), a.sigma) == 0.0

    def test_two_by_two(self):
        m = square([[1.0, 2.0], [3.0, 0.0]])
        a = hungarian(m)
        assert a.sigma.tolist() == [0, 1]
        assert path_cost(m, a.sigma) == 1.0

    def test_row_constant_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            m = rand_matrix(rng, 5)
            base = hungarian(m).sigma
            shifted = m.values.copy()
            shifted[2] += 3.7
            assert hungarian(square(shifted)).sigma.tolist() == base.tolist()

    def test_whole_matrix_constant_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            m = rand_matrix(rng, 6)
            base = hungarian(m).sigma
            assert hungarian(square(m.values + 2.5)).sigma.tolist() == base.tolist()

    def test_zero_matrix_identity(self):
        a = hungarian(square(np.zeros((5, 5))))
        assert a.sigma.tolist() == [0, 1, 2, 3, 4]

    def test_background_row_permutation_invariance(self):
        rng = np.random.default_rng(2)
        values = rng.uniform(-5, 5, size=(6, 6))
        values[3] = 0.0
        values[4] = 0.0
        a = hungarian(square(values))
        swapped = values.copy()
        swapped[[3, 4]] = swapped[[4, 3]]
        b = hungarian(square(swapped))
        assert a.sigma.tolist() == b.sigma.tolist()

    def test_non_finite_rejected(self):
        values = np.zeros((3, 3))
        values[1, 1] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            hungarian(square(values))

    def test_background_row_above_foreground_row(self):
        # target 2 is the only foreground target and wants column 0
        cost = CostMatrix(np.array([[0.0, 5.0, 5.0]]), rows=[2])
        a = hungarian(cost)
        assert a.sigma.tolist() == [1, 2, 0]
        assert path_cost(cost, a.sigma) == 0.0

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

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_boundary_rows_accepted(self, n):
        for rows in ([], [n - 1], list(range(n))):
            cost = CostMatrix(np.zeros((len(rows), n)), rows)
            check_assignment(hungarian(cost), cost)

    @pytest.mark.parametrize(
        "rows", [[1.7], [0.0, 1.0], np.array([1.5, 2.0]), [True]], ids=["fraction", "whole-floats", "array", "bool"]
    )
    def test_non_integer_rows_rejected(self, rows):
        # a fractional row is not truncated to a target index
        with pytest.raises(ValueError, match="rows must be integers"):
            CostMatrix(np.zeros((len(rows), 3)), rows)

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 6), rows=st.lists(st.integers(-2, 7), max_size=6))
    def test_row_rule_equals_diff_oracle(self, n, rows):
        """Accepted exactly when the strict-increase rule over [-1, *rows, n] holds."""
        ok = bool(np.all(np.diff(np.array(rows, dtype=np.int64), prepend=-1, append=n) > 0))
        if ok:
            CostMatrix(np.zeros((len(rows), n)), rows)
        else:
            with pytest.raises(ValueError, match="one row per target"):
                CostMatrix(np.zeros((len(rows), n)), rows)

    def test_assignment_validation(self):
        m = square([[1.0, 2.0], [3.0, 0.0]])
        check_assignment(hungarian(m), m)
        with pytest.raises(ValueError, match="not a permutation"):
            check_assignment(Assignment(np.array([0, 0])), m)


class TestBruteForceOracle:
    def test_one_by_one(self):
        m = square([[3.5]])
        a = brute_force_match(m)
        assert a.sigma.tolist() == [0]
        assert path_cost(m, a.sigma) == 3.5

    def test_size_limit(self):
        with pytest.raises(ValueError):
            brute_force_match(square(np.zeros((9, 9))))
        with pytest.raises(ValueError):
            brute_force_match(CostMatrix(np.zeros((1, 9)), rows=[4]))

    def test_block_expanded_with_zero_background_rows(self):
        # background target 0 costs nothing; target 1 prefers column 0
        m = CostMatrix(np.array([[1.0, 3.0]]), rows=[1])
        a = brute_force_match(m)
        assert a.sigma.tolist() == [1, 0]
        assert path_cost(m, a.sigma) == 1.0

    def test_agreement_on_random_matrices(self):
        rng = np.random.default_rng(4)
        for _ in range(1000):
            n = int(rng.integers(1, 6))
            m = rand_matrix(rng, n)
            h = hungarian(m)
            b = brute_force_match(m)
            assert path_cost(m, h.sigma) == path_cost(m, b.sigma)
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
    check_assignment(h, m)
    assert path_cost(m, h.sigma) == path_cost(m, b.sigma)
    # among tied optima no rule is claimed; a unique one must be found
    if len(optimal_foregrounds(m)) == 1:
        assert h.sigma.tolist() == b.sigma.tolist()
