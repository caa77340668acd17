"""One-to-one assignment of targets to predictions.

The cost of pairing target i with prediction j is the negated class
agreement plus the box regression loss. Only foreground targets have rows;
background targets cost nothing against any prediction and take the
columns the foreground leaves free, in ascending order. The foreground
block is solved exactly by ``scipy.optimize.linear_sum_assignment``, and
its answer is used as it is, as in DETR's matcher (Carion et al., 2020):
among equal-cost optima no further rule is applied.
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
    # fsum is exactly rounded: total_cost does not depend on summation order.
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


def hungarian(cost: CostMatrix) -> Assignment:
    """Exact minimum-cost perfect assignment.

    The foreground block is solved as a rectangular problem and each
    foreground target keeps the solver's column; background targets take
    the free columns in ascending order.
    """
    cost.validate()
    _, cols = linear_sum_assignment(cost.values)
    sigma = np.full(cost.n, -1, dtype=np.int64)
    sigma[cost.rows] = cols
    free = np.ones(cost.n, dtype=bool)
    free[cols] = False
    sigma[sigma < 0] = np.flatnonzero(free)
    return Assignment(sigma, _path_cost(cost, sigma))


def brute_force_match(cost: CostMatrix) -> Assignment:
    """Oracle: an exhaustive minimum over all N! permutations (N <= ``BRUTE_FORCE_LIMIT``)."""
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
