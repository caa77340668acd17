"""``hungarian`` against the solver's own answer.

The reference ("oracle") is one ``linear_sum_assignment`` call on the
foreground block: each foreground target keeps the solver's column, and the
background targets hold the columns it leaves free, in ascending order.
Small integers, dyadic rationals and multiples of 0.1 tie often, continuous
costs almost never; on ties as elsewhere the solver's optimum is the answer.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from iodkit import matching
from iodkit.matching import CostMatrix, brute_force_match, hungarian

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
    a = hungarian(cost)
    cols = linear_sum_assignment(cost.values)[1]
    assert a.sigma[cost.rows].tolist() == cols.tolist()
    background = np.setdiff1d(np.arange(cost.n), cost.rows)
    assert a.sigma[background].tolist() == np.setdiff1d(np.arange(cost.n), cols).tolist()
    assert a.total_cost == math.fsum(cost.values[np.arange(len(cols)), cols])
    a.validate(cost)


# Totals tie in decimals, not in binary floats: 1.2000000000000002 on both
# [1, 2, 0, 4, 3] (the solver's) and [1, 0, 3, 4, 2].
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
    assert a.total_cost == brute_force_match(CostMatrix(DECIMAL_TIE)).total_cost
    assert_equals_oracle(CostMatrix(DECIMAL_TIE))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("k", [3, 20])
def test_n100_blocks_equal_oracle(kind, k):
    rng = np.random.default_rng(k)
    for _ in range(2):
        assert_equals_oracle(draw_block(rng, kind, k, 100))
    # foreground targets first, as padded label sets lay them out
    assert_equals_oracle(CostMatrix(draw_costs(rng, kind, (k, 100)), np.arange(k)))


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

    def test_planted_tie_one_solve(self, monkeypatch):
        # target 0 is background; target 1 costs 0 on columns 0 and 50 and at least 10 elsewhere
        rng = np.random.default_rng(16)
        values = rng.integers(10, 1000, size=(20, 100)).astype(np.float64)
        values[0, [0, 50]] = 0.0
        cost = CostMatrix(values, np.arange(1, 21))
        calls = self.count_solves(monkeypatch)
        a = hungarian(cost)
        assert len(calls) == 1
        assert a.sigma[:2].tolist() == [1, 0]  # the solver gives column 0 to target 1
