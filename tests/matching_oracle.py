"""The tie refinement that ``iodkit.matching.hungarian`` replaced.

Kept verbatim as the differential oracle of the dual-filtered pass: for
every target it re-solves the remaining sub-problem once per available
column left of the working choice, tie or not, so it is slow but simple.
The dual filter only skips re-solves that cannot succeed, so ``hungarian``
must return the same permutation and total as this on every input.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import linear_sum_assignment

from iodkit.matching import Assignment, CostMatrix


def _path_cost(cost: CostMatrix, sigma: np.ndarray) -> float:
    # fsum keeps tie comparisons independent of summation order.
    return math.fsum(cost.values[r, sigma[i]] for r, i in enumerate(cost.rows))


def hungarian(cost: CostMatrix, *, refine_ties: bool = True) -> Assignment:
    """Exact minimum-cost perfect assignment.

    The foreground block is solved as a rectangular problem; background
    targets take the free columns in ascending order. With ``refine_ties``
    (default) the lexicographically smallest optimal permutation is
    returned; without, the solver output is used directly (still optimal
    and deterministic, and equal to the refined answer whenever the
    foreground optimum is unique). Training loops disable refinement for
    speed.
    """
    cost.validate()
    _, cols = linear_sum_assignment(cost.values)
    sigma = _fix_top_down(cost, cols.tolist(), refine_ties)
    return Assignment(sigma, _path_cost(cost, sigma))


def _fix_top_down(cost: CostMatrix, working: list[int], refine: bool) -> np.ndarray:
    """Full permutation from a working column for each foreground row.

    Fixes targets top-down. A background target costs nothing, so its
    working choice is the smallest column the working solution leaves free;
    once no foreground target remains, the rest take the free columns in
    ascending order. With ``refine`` a smaller column is accepted exactly
    when the foreground targets still to be fixed can reach the same
    optimal total without it, which yields the lexicographically smallest
    optimal permutation. Tie tests compare exact fsum totals, so only
    genuine value ties (not rounding noise) divert the assignment.
    """
    values, rows, n = cost.values, cost.rows.tolist(), cost.n
    avail = list(range(n))
    out = np.empty(n, dtype=np.int64)
    r = 0  # first foreground row not yet fixed
    for i in range(n):
        if r == len(rows):
            out[i:] = avail
            break
        own = rows[r] == i
        remaining = list(range(r + own, len(rows)))
        chosen = working[r] if own else min(set(avail).difference(working[s] for s in remaining))
        smaller = avail[: avail.index(chosen)] if refine else []  # avail is ascending
        v_rem = math.fsum(values[s, working[s]] for s in range(r, len(rows))) if smaller else 0.0
        for j in smaller:
            sub_cols = [c for c in avail if c != j]
            sub = values[np.ix_(remaining, sub_cols)]
            ri, ci = linear_sum_assignment(sub)
            if (values[r, j] if own else 0.0) + math.fsum(sub[ri, ci]) == v_rem:
                chosen = j
                for a, b in zip(ri, ci):
                    working[remaining[a]] = sub_cols[b]
                break
        out[i] = chosen
        avail.remove(chosen)
        r += own
    return out
