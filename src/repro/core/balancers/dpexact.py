"""Exact dynamic-programming balancer (oracle / third balancer option).

Solves min-max contiguous partitioning exactly in O(S · n²) with the
classic DP over prefix sums.  The Partition balancer reaches the same
optimal bottleneck by binary search over the O(n²) window sums, each
probe a greedy pass of O(S log n); this DP exists (a) as a cross-check
oracle for tests, (b) to expose the full Pareto row — the optimal
bottleneck for *every* stage count 1..S in one pass, which the
re-packing gate uses to pick how far a shrunken model can fold.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.balancers.base import BalanceResult, LoadBalancer
from repro.pipeline.plan import PipelinePlan


def dp_partition(
    weights: np.ndarray,
    num_stages: int,
    memory: np.ndarray | None = None,
    capacity: float | None = None,
) -> tuple[PipelinePlan, np.ndarray]:
    """Exact min-max contiguous partition.

    Returns (plan for ``num_stages``, optimal bottleneck value for every
    stage count 1..num_stages).  Memory capacity, when given, renders
    cuts that would overfill a stage infeasible.
    """
    w = np.asarray(weights, dtype=float)
    n = w.shape[0]
    if not 1 <= num_stages <= n:
        raise ValueError(f"num_stages must be in [1, {n}], got {num_stages}")
    pre = np.concatenate([[0.0], np.cumsum(w)])
    if capacity is None:
        memory = None  # no capacity -> memory vector is irrelevant
    if memory is not None:
        mem_pre = np.concatenate([[0.0], np.cumsum(np.asarray(memory, dtype=float))])
    INF = float("inf")
    # dp[s][i]: optimal bottleneck for first i layers in s stages
    dp = np.full((num_stages + 1, n + 1), INF)
    parent = np.zeros((num_stages + 1, n + 1), dtype=int)
    dp[0, 0] = 0.0
    for s in range(1, num_stages + 1):
        for i in range(s, n + 1):
            best = INF
            arg = s - 1
            for j in range(s - 1, i):
                seg = pre[i] - pre[j]
                if memory is not None and mem_pre[i] - mem_pre[j] > capacity:
                    continue
                v = max(dp[s - 1, j], seg)
                if v < best:
                    best = v
                    arg = j
                # segments only grow as j decreases; once seg alone
                # exceeds best we cannot improve further for smaller j
            dp[s, i] = best
            parent[s, i] = arg
    if not np.isfinite(dp[num_stages, n]):
        raise ValueError("no feasible partition under the memory capacity")
    # reconstruct boundaries
    bounds = [n]
    i = n
    for s in range(num_stages, 0, -1):
        i = int(parent[s, i])
        bounds.append(i)
    bounds.reverse()
    pareto = dp[1:, n].copy()
    return PipelinePlan(tuple(bounds), n), pareto


def min_stages_within(
    weights: np.ndarray, bottleneck_budget: float
) -> int:
    """Smallest stage count whose optimal bottleneck fits the budget.

    Greedy packing is exact for this direction: fill stages left to
    right up to the budget.
    """
    w = np.asarray(weights, dtype=float)
    if bottleneck_budget <= 0:
        raise ValueError("budget must be positive")
    if (w > bottleneck_budget).any():
        raise ValueError("a single layer exceeds the budget")
    stages = 1
    load = 0.0
    for x in w:
        if load + x > bottleneck_budget:
            stages += 1
            load = 0.0
        load += x
    return stages


class DPExactBalancer(LoadBalancer):
    """Exact balancer; same interface as Partition/Diffusion."""

    name = "dp"

    def rebalance(
        self,
        plan: PipelinePlan,
        weights: np.ndarray,
        memory_per_layer: np.ndarray | None = None,
        memory_capacity: "float | Sequence[float] | None" = None,
    ) -> BalanceResult:
        w = self._validate(plan, weights)
        before = plan.stage_loads(w)
        # the DP recurrence carries one scalar bound; per-stage capacity
        # vectors conservatively collapse to their minimum
        new_plan = self.search_scalar_capacity(
            lambda cap: dp_partition(w, plan.num_stages, memory_per_layer, cap)[0],
            plan, memory_per_layer, memory_capacity,
        )
        after = new_plan.stage_loads(w)
        if after.max() > before.max():
            new_plan, after = plan, before
        return BalanceResult(new_plan, before, after)
