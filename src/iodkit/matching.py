"""One-to-one assignment of targets to predictions.

The cost of pairing target i with prediction j is the negated class
agreement plus the box regression loss. Only foreground targets have rows;
background targets cost nothing against any prediction and take the
columns the foreground leaves free. The minimum-cost perfect assignment is
solved exactly, with ties broken toward the lexicographically smallest
permutation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .geometry import box_loss_matrix
from .labels import LabeledSet

__all__ = ["CostMatrix", "Assignment", "build_cost", "hungarian", "brute_force_match"]

BRUTE_FORCE_LIMIT = 8


@dataclass
class CostMatrix:
    """Costs of the foreground targets (rows) against all N predictions (columns).

    ``rows[r]`` is the target index of row r, ascending; a target with no row
    is background. ``rows`` defaults to every row, so a square matrix lists
    all N targets.
    """

    values: np.ndarray
    rows: np.ndarray | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.rows is None:
            self.rows = np.arange(self.values.shape[0])
        self.rows = np.asarray(self.rows, dtype=np.int64)

    @property
    def n(self) -> int:
        return self.values.shape[1]

    def validate(self) -> None:
        rows, shape = self.rows, self.values.shape
        if len(shape) != 2 or rows.shape != shape[:1] or np.any(np.diff(rows, prepend=-1, append=shape[1]) <= 0):
            raise ValueError("cost matrix needs one row per target, ascending in 0..N-1")
        if not np.isfinite(self.values).all():
            raise ValueError("non-finite entry")


@dataclass(frozen=True)
class Assignment:
    """A permutation sigma: target i -> prediction sigma[i], and its cost."""

    sigma: np.ndarray
    total_cost: float

    def validate(self, cost: CostMatrix | None = None) -> None:
        n = self.sigma.shape[0]
        if sorted(self.sigma.tolist()) != list(range(n)):
            raise ValueError("sigma is not a permutation")
        if cost is not None:
            expect = _path_cost(cost, self.sigma)
            if abs(expect - self.total_cost) > 1e-9:
                raise ValueError("total_cost does not match the matrix")


def _path_cost(cost: CostMatrix, sigma: np.ndarray) -> float:
    # fsum keeps tie comparisons independent of summation order.
    return math.fsum(cost.values[r, sigma[i]] for r, i in enumerate(cost.rows))


def build_cost(targets: LabeledSet, preds: LabeledSet, gamma1: float, gamma2: float) -> CostMatrix:
    """Pairing cost between every foreground target and every prediction.

    Entry (r, j) is ``-<p_hat_j, p_i>`` plus the ``box_loss_matrix`` entry
    for (b_hat_j, b_i), where i is the r-th foreground target and the inner
    product runs over the full distribution including background.
    """
    if len(targets) != len(preds):
        raise ValueError(f"length mismatch: {len(targets)} targets vs {len(preds)} predictions")
    fg = np.flatnonzero(targets.foreground_mask())
    class_cost = -(targets.probs[fg] @ preds.probs.T)
    box_cost = box_loss_matrix(preds.boxes, targets.boxes[fg], gamma1, gamma2).T
    return CostMatrix(class_cost + box_cost, fg)


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


def brute_force_match(cost: CostMatrix) -> Assignment:
    """Exhaustive-minimum oracle; first (lexicographically) among exact ties."""
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
