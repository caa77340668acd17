"""The exhaustive-search oracle of ``iodkit.matching.hungarian`` and its checks.

``brute_force_match`` tries every one of the N! permutations, with the
foreground block expanded to N rows by zero-cost background rows, and
keeps the first one of least ``math.fsum`` cost. It is exact but
factorial, so it is limited to N <= ``BRUTE_FORCE_LIMIT``.
``path_cost`` is the exactly rounded cost of an assignment's pairs, which
the optimality checks compare; ``check_assignment`` checks that an answer
is a permutation of the matrix's columns, and ``square`` builds a cost
matrix in which every target has a row.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from iodkit.matching import Assignment, CostMatrix

BRUTE_FORCE_LIMIT = 8


def square(values) -> CostMatrix:
    """An N x N cost matrix: one row per target, all N of them foreground."""
    values = np.asarray(values)
    return CostMatrix(values, np.arange(values.shape[0]))


def path_cost(cost: CostMatrix, sigma: np.ndarray) -> float:
    """The cost of sigma's foreground pairs; fsum is exactly rounded, so summation order does not matter."""
    return math.fsum(cost.values[np.arange(cost.rows.size), sigma[cost.rows]].tolist())


def check_assignment(assignment: Assignment, cost: CostMatrix) -> None:
    """Raise ``ValueError`` unless sigma is a permutation of the N columns of ``cost``."""
    if sorted(assignment.sigma.tolist()) != list(range(cost.n)):
        raise ValueError("sigma is not a permutation")


def brute_force_match(cost: CostMatrix) -> Assignment:
    """An exhaustive minimum over all N! permutations (N <= ``BRUTE_FORCE_LIMIT``)."""
    n = cost.n
    if n > BRUTE_FORCE_LIMIT:
        raise ValueError(f"brute force limited to N <= {BRUTE_FORCE_LIMIT}, got {n}")
    values = np.zeros((n, n))
    values[cost.rows] = cost.values
    best_sigma = None
    best_cost = math.inf
    for perm in itertools.permutations(range(n)):
        c = math.fsum(values[i, perm[i]] for i in range(n))
        if c < best_cost:
            best_cost = c
            best_sigma = perm
    return Assignment(np.array(best_sigma, dtype=np.int64))
