"""One-to-one assignment of targets to predictions.

The cost of pairing target i with prediction j is the negated class
agreement plus the box regression loss. Only foreground targets have rows;
background targets cost nothing against any prediction and take the
columns the foreground leaves free. The minimum-cost perfect assignment is
solved exactly, with ties broken toward the lexicographically smallest
permutation.

Tie refinement reads the dual potentials of the solver's optimum. Every
optimal assignment uses only pairs of zero reduced cost and leaves free
only columns of zero potential (Kuhn-Munkres duality; Burkard,
Dell'Amico & Martello, *Assignment Problems*, 2009), so a column outside
them cannot tie and its sub-problem is never re-solved. Without a tie,
refinement costs the one solve and a shortest-path pass over the
foreground rows.
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
TIGHT_SLACK = 1e-9  # of the largest |cost|: how near zero a reduced cost counts as a possible tie


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
    foreground optimum is unique). Refinement re-solves a sub-problem only
    for a column the optimum's dual potentials leave open to a tie, so
    without ties it costs one solve plus a shortest-path pass over the
    foreground rows.
    """
    cost.validate()
    _, cols = linear_sum_assignment(cost.values)
    sigma = _fix_top_down(cost, cols.tolist(), refine_ties)
    return Assignment(sigma, _path_cost(cost, sigma))


def _duals(values: np.ndarray, cols: list[int], settle: float) -> tuple[np.ndarray, np.ndarray] | None:
    """Dual potentials (u, v) certifying that ``cols`` is an optimum of the block.

    For an optimal ``cols``, ``u[r] + v[j] <= values[r, j] + settle``
    everywhere, with equality on the pairs ``(r, cols[r])``; v is 0 on the
    columns ``cols`` leaves free and ``<= 0`` on the others, so
    ``sum(u) + sum(v)`` is the optimal total. On the matched columns v is
    the shortest distance found by Bellman-Ford over the k matched columns,
    where moving row a from its column to row b's costs
    ``values[a, cols[b]] - values[a, cols[a]]``; improvements below
    ``settle`` are rounding noise (a cycle of decimal costs can sum to
    -1e-17) and are ignored. Returns None when the distances do not settle,
    which means ``cols`` is not optimal; a pair into a free column that
    breaks the bound means the same, and ``_tight`` checks for it.
    """
    k = len(cols)
    own = values[np.arange(k), cols]
    step = values[:, cols] - own[:, None]
    dist = np.zeros(k)
    for _ in range(k + 1):
        reach = (dist[:, None] + step).min(axis=0)
        better = reach < dist - settle
        if not better.any():
            v = np.zeros(values.shape[1])
            v[cols] = dist
            return own - dist, v
        dist = np.where(better, reach, dist)
    return None


def _tight(values: np.ndarray, cols: list[int]) -> tuple[list[set[int]], list[bool]]:
    """Per row, the columns an optimum may give it; per column, whether one may leave it free.

    Every optimal assignment uses only pairs of zero reduced cost
    ``values[r, j] - u[r] - v[j]`` and leaves free only columns of zero
    potential. "Zero" allows ``TIGHT_SLACK`` of the largest entry, far
    above the rounding of the potentials and of fsum totals, so the slack
    only decides whether a tie test runs, never what it returns. When the
    potentials are no certificate, every pair and column counts as tight.
    """
    slack = TIGHT_SLACK * (1.0 + np.abs(values).max())
    duals = _duals(values, cols, 1e-4 * slack)
    pairs, zero = np.ones(values.shape, dtype=bool), np.ones(values.shape[1], dtype=bool)
    if duals is not None:
        u, v = duals
        reduced = values - u[:, None] - v
        if reduced.min() >= -slack:
            pairs, zero = reduced <= slack, v >= -slack
    tight: list[set[int]] = [set() for _ in cols]
    at, js = np.nonzero(pairs)
    for r, j in zip(at.tolist(), js.tolist()):
        tight[r].add(j)
    return tight, zero.tolist()


def _tie_possible(tight: list[set[int]], working: list[int], r: int, avail: list[int]) -> bool:
    """Whether rows r.. may have an optimum over ``avail`` other than ``working``.

    Another optimum differs from ``working`` by chains of tight pairs, each
    moving a row to the next row's column: a chain ends in a column
    ``working`` leaves free, or closes into a cycle. With neither among the
    tight pairs, no tie test from row r on can succeed.
    """
    held = set(working[r:])
    free = set(avail) - held
    moves: dict[int, set[int]] = {}
    for s in range(r, len(working)):
        if not free.isdisjoint(tight[s]):
            return True
        moves[working[s]] = (tight[s] & held) - {working[s]}
    # Kahn's peel: a cycle survives removing every column no move enters.
    enter = dict.fromkeys(moves, 0)
    for nxt in moves.values():
        for j in nxt:
            enter[j] += 1
    stack = [j for j, e in enter.items() if e == 0]
    peeled = 0
    while stack:
        peeled += 1
        for j in moves[stack.pop()]:
            enter[j] -= 1
            if enter[j] == 0:
                stack.append(j)
    return peeled < len(moves)


def _fix_top_down(cost: CostMatrix, working: list[int], refine: bool) -> np.ndarray:
    """Full permutation from a working column for each foreground row.

    Fixes targets top-down while ``refine`` and the dual potentials of the
    optimum leave a tie possible (``_tie_possible``). A background target
    costs nothing, so its working choice is the smallest column the working
    solution leaves free. A smaller column is tried only if it is tight: a
    pair of zero reduced cost for a foreground target, a column of zero
    potential for a background one. It is accepted exactly when the
    foreground targets still to be fixed can reach the same optimal total
    without it, which yields the lexicographically smallest optimal
    permutation. Tie tests compare exact fsum totals, so only genuine value
    ties (not rounding noise) divert the assignment. Once no tie is
    possible, the foreground targets left keep their working columns and
    the background targets left take the free columns in ascending order,
    in one step; without ``refine`` that is the whole pass.
    """
    values, rows, n = cost.values, cost.rows.tolist(), cost.n
    tight, zero = _tight(values, working) if refine and rows else (None, None)
    avail = list(range(n))
    out = np.empty(n, dtype=np.int64)
    i = r = 0  # next target; first foreground row not yet fixed
    while tight is not None and _tie_possible(tight, working, r, avail):
        own = rows[r] == i
        remaining = list(range(r + own, len(rows)))
        chosen = working[r] if own else min(set(avail).difference(working[s] for s in remaining))
        left = avail[: avail.index(chosen)]  # avail is ascending
        smaller = [j for j in left if (j in tight[r] if own else zero[j])]
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
        i += 1
        r += own
    # No tie left: rows r.. keep their working columns, in place among the
    # free columns that the background targets take in ascending order.
    for c in working[r:]:
        avail.remove(c)
    for p, c in zip(rows[r:], working[r:]):
        avail.insert(p - i, c)
    out[i:] = avail
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
