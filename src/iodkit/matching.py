"""One-to-one assignment of targets to predictions.

The cost of pairing target i with prediction j is the negated class agreement
plus the box regression loss. Only foreground targets have rows, and a
``CostMatrix`` names them (``build_cost`` passes their indices) and checks
itself when built; background targets cost nothing against any prediction and
take the columns the foreground leaves free, in ascending order. The foreground
block is solved exactly by ``scipy.optimize.linear_sum_assignment``, and its
answer is used as it is, as in DETR's matcher (Carion et al., 2020): among
equal-cost optima no further rule is applied. Its exhaustive-search oracle,
``brute_force_match``, and the answer check ``check_assignment`` live with the
tests in ``tests/matching_oracle.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .geometry import box_loss
from .labels import LabeledSet

__all__ = ["CostMatrix", "Assignment", "build_cost", "hungarian"]


@dataclass
class CostMatrix:
    """Costs of the foreground targets (rows) against all N predictions (columns).

    ``rows`` is required: ``rows[r]`` is the target index of row r, ascending,
    and a target with no row is background. Construction raises ``ValueError``
    unless the rows are integers, one per row of 2-D ``values``, ascending in
    0..N-1, and every value is finite.
    """

    values: np.ndarray
    rows: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        rows = np.asarray(self.rows)
        if rows.size and rows.dtype.kind not in "iu":
            raise ValueError(f"cost matrix rows must be integers, got {rows.dtype} {rows.tolist()}")
        self.rows = rows.astype(np.int64, copy=False)
        rows, shape = self.rows, self.values.shape
        if len(shape) != 2 or rows.shape != shape[:1] or (
            rows.size and (rows[0] < 0 or rows[-1] >= shape[1] or not (rows[1:] > rows[:-1]).all())
        ):
            raise ValueError("cost matrix needs one row per target, ascending in 0..N-1")
        if not np.isfinite(self.values).all():
            raise ValueError("non-finite entry")

    @property
    def n(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class Assignment:
    """A permutation sigma: target i -> prediction sigma[i]. It holds sigma only; no cost is kept."""

    sigma: np.ndarray


def build_cost(targets: LabeledSet, preds: LabeledSet, gamma1: float, gamma2: float) -> CostMatrix:
    """Pairing cost between every foreground target and every prediction.

    Entry (r, j) is ``-<p_hat_j, p_i>`` plus ``box_loss(b_hat_j, b_i)``,
    where i is the r-th foreground target and the inner product runs over
    the full distribution including background. The rows are read from the
    given slots of ``targets``: a padding slot is background, so it has no
    row and no N-slot array or mask is built.
    """
    if len(targets) != len(preds):
        raise ValueError(f"length mismatch: {len(targets)} targets vs {len(preds)} predictions")
    fg = targets._foreground_given()
    class_cost = -(targets._probs[fg] @ preds.probs.T)
    box_cost = box_loss(preds.boxes[None], targets._boxes[fg][:, None], gamma1, gamma2)
    return CostMatrix(class_cost + box_cost, fg)


def hungarian(cost: CostMatrix) -> Assignment:
    """Exact minimum-cost perfect assignment.

    The foreground block is solved as a rectangular problem and each
    foreground target keeps the solver's column; background targets take
    the free columns in ascending order.
    """
    cols = linear_sum_assignment(cost.values)[1]
    sigma = np.full(cost.n, -1, dtype=np.int64)
    sigma[cost.rows] = cols
    free = np.ones(cost.n, dtype=bool)
    free[cols] = False
    sigma[sigma < 0] = np.flatnonzero(free)
    return Assignment(sigma)
