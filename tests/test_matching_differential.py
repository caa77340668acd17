"""Dual-filtered tie refinement against the re-solve-every-column oracle.

``hungarian`` re-solves a sub-problem only for a column the optimum's dual
potentials leave open to a tie. The oracle (``tests/matching_oracle.py``)
re-solves for every column left of the working choice, so the two must
return the same permutation and the same total (``==``) on every input,
refined and unrefined. Small integers, dyadic rationals and multiples of
0.1 tie often; continuous costs almost never.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import matching_oracle
from iodkit import matching
from iodkit.matching import CostMatrix, hungarian

KINDS = ("integer", "dyadic", "decimal", "continuous")


def draw_costs(rng, kind, shape):
    if kind == "integer":
        return rng.integers(-2, 3, size=shape).astype(np.float64)
    if kind == "dyadic":
        return rng.integers(-8, 9, size=shape) / 4.0
    if kind == "decimal":
        return rng.integers(0, 10, size=shape) / 10.0
    return rng.uniform(-10, 10, size=shape)


def draw_block(rng, kind, k, n):
    rows = np.sort(rng.choice(n, size=k, replace=False))
    return CostMatrix(draw_costs(rng, kind, (k, n)), rows)


def assert_equals_oracle(cost):
    for refine in (True, False):
        got = hungarian(cost, refine_ties=refine)
        want = matching_oracle.hungarian(CostMatrix(cost.values, cost.rows), refine_ties=refine)
        assert got.sigma.tolist() == want.sigma.tolist()
        assert got.total_cost == want.total_cost


# Totals tie in decimals, not in binary floats: the fsum test splits the tie
# that brute_force_match keeps ([1, 0, 3, 4, 2]), and the filter must not mend it.
DECIMAL_TIE = 0.1 * np.array([[9, 0, 5, 4, 8], [2, 6, 4, 9, 9], [1, 3, 4, 7, 9], [7, 4, 8, 5, 1], [2, 3, 2, 6, 5]])


@settings(max_examples=400, deadline=None)
@given(
    st.integers(min_value=1, max_value=8),
    st.sampled_from(KINDS),
    st.integers(min_value=0, max_value=2**31 - 1),
)
@example(5, "decimal", 0)
def test_property_small_blocks_equal_oracle(n, kind, seed):
    # k <= n foreground rows at random positions
    rng = np.random.default_rng(seed)
    assert_equals_oracle(draw_block(rng, kind, int(rng.integers(0, n + 1)), n))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", range(1, 9))
def test_square_blocks_equal_oracle(kind, n):
    rng = np.random.default_rng(n)
    for _ in range(40):
        assert_equals_oracle(CostMatrix(draw_costs(rng, kind, (n, n))))


def test_decimal_tie_kept():
    a = hungarian(CostMatrix(DECIMAL_TIE))
    assert a.sigma.tolist() == [1, 2, 0, 4, 3]
    assert_equals_oracle(CostMatrix(DECIMAL_TIE))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("k", [3, 20])
def test_n100_blocks_equal_oracle(kind, k):
    rng = np.random.default_rng(k)
    for _ in range(2):
        assert_equals_oracle(draw_block(rng, kind, k, 100))
    # foreground targets first, as padded label sets lay them out
    assert_equals_oracle(CostMatrix(draw_costs(rng, kind, (k, 100)), np.arange(k)))


class TestDualCertificate:
    def blocks(self):
        rng = np.random.default_rng(11)
        for kind in KINDS:
            for k, n in [(1, 1), (3, 3), (6, 6), (2, 7), (5, 8), (3, 100), (20, 100), (100, 100)]:
                for _ in range(3):
                    yield draw_costs(rng, kind, (k, n))

    def test_reduced_costs_certify_the_optimum(self):
        for values in self.blocks():
            cols = matching.linear_sum_assignment(values)[1].tolist()
            u, v = matching._duals(values, cols, 1e-13)
            reduced = values - u[:, None] - v
            assert reduced.min() >= -1e-9
            assert np.abs(reduced[np.arange(len(cols)), cols]).max() <= 1e-9
            assert v.max() <= 0.0
            free = np.setdiff1d(np.arange(values.shape[1]), cols)
            assert np.all(v[free] == 0.0)
            optimum = math.fsum(values[np.arange(len(cols)), cols])
            assert abs(math.fsum(u) + math.fsum(v) - optimum) <= 1e-9

    def test_non_optimal_columns_have_no_certificate(self):
        # row 0 would rather take row 1's column and row 1 row 0's: a negative cycle
        assert matching._duals(np.array([[1.0, 0.0], [0.0, 1.0]]), [0, 1], 1e-13) is None

    def test_no_certificate_leaves_every_pair_tight(self):
        # a free column cheaper than a row's own, or a negative cycle: every candidate gets the exact test
        for values, cols in [(np.array([[1.0, 0.0]]), [0]), (np.array([[1.0, 0.0], [0.0, 1.0]]), [0, 1])]:
            tight, zero = matching._tight(values, cols)
            assert tight == [set(range(values.shape[1]))] * len(cols)
            assert all(zero)


class TestSolveCount:
    def count_solves(self, monkeypatch):
        calls = []
        solve = matching.linear_sum_assignment

        def counted(values):
            calls.append(values.shape)
            return solve(values)

        monkeypatch.setattr(matching, "linear_sum_assignment", counted)
        return calls

    def test_no_tie_one_solve(self, monkeypatch):
        calls = self.count_solves(monkeypatch)
        rng = np.random.default_rng(12)
        for _ in range(5):
            cost = draw_block(rng, "continuous", 20, 100)
            calls.clear()
            hungarian(cost)
            assert len(calls) == 1

    def test_planted_tie_re_solved(self, monkeypatch):
        # target 0 is background; target 1 costs 0 on columns 0 and 50 and at least 10 elsewhere
        rng = np.random.default_rng(16)
        values = rng.integers(10, 1000, size=(20, 100)).astype(np.float64)
        values[0, [0, 50]] = 0.0
        cost = CostMatrix(values, np.arange(1, 21))
        unrefined = hungarian(cost, refine_ties=False)
        assert unrefined.sigma[1] == 0  # the solver gives column 0 to target 1
        calls = self.count_solves(monkeypatch)
        refined = hungarian(cost)
        assert refined.sigma[:2].tolist() == [0, 50]
        assert refined.total_cost == unrefined.total_cost
        assert len(calls) > 1
