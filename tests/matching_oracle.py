"""The exhaustive-search oracle of ``iodkit.matching.hungarian``.

``brute_force_match`` tries every one of the N! permutations, with the
foreground block expanded to N rows by zero-cost background rows, and
keeps the first one of least ``math.fsum`` cost. It is exact but
factorial, so it is limited to N <= ``BRUTE_FORCE_LIMIT``.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from iodkit.matching import Assignment, CostMatrix

BRUTE_FORCE_LIMIT = 8


def brute_force_match(cost: CostMatrix) -> Assignment:
    """An exhaustive minimum over all N! permutations (N <= ``BRUTE_FORCE_LIMIT``)."""
    cost.validate()
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
    return Assignment(np.array(best_sigma, dtype=np.int64), best_cost)
