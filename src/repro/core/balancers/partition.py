"""Centralized partition balancer (DeepSpeed-style).

Reproduces DeepSpeed's ``partition_balanced`` utility: the contiguous
S-way partition of the layer weight vector minimising the bottleneck
(max stage load).  Weights are parameter counts ("Partition: by
Param") or measured layer times ("Partition: by Time").  This is the
centralized balancer L_c of Lemma 1 — it returns the optimal
contiguous partition, hence the minimum achievable bubble ratio for a
layer-contiguous pipeline.

Search.  A greedy probe packs layers left to right into stages of load
<= B; B is feasible when at most S stages suffice (fewer are padded by
splitting the largest stage).  Memory capacity, when provided, also
closes a stage before its summed layer memory would exceed capacity.
A stage's load is a *window sum* ``W[i, k] = w[i] + ... + w[i+k]``
accumulated left to right, so the probe jumps a whole stage at a time
by bisecting row ``W[i]``, cut short where the same row of the memory
window table first exceeds capacity.
Feasibility is a monotone step function of B whose steps sit on window
sums, so a binary search over the sorted window sums finds the exact
smallest feasible bottleneck B*.

Many plans tie within an ulp of B*.  The returned plan is the probe's
at the bottleneck that a 64-step float bisection over [max w, ~sum w]
settles on; that bisection is replayed as plain arithmetic, since its
verdict at ``mid`` is exactly ``mid >= B*``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Sequence

import numpy as np

from repro.core.balancers.base import BalanceResult, LoadBalancer
from repro.pipeline.plan import PipelinePlan


def _window_table(values: np.ndarray) -> np.ndarray:
    """``table[i, k] = values[i] + ... + values[i+k]``, summed left to
    right; entries past the last layer repeat the row's full sum."""
    n = values.shape[0]
    padded = np.concatenate([values, np.zeros(n)])
    return np.cumsum(padded[np.add.outer(np.arange(n), np.arange(n))], axis=1)


def _greedy(
    rows: list[list[float]], num_stages: int, bottleneck: float
) -> list[int] | None:
    """Boundaries of the greedy packing at ``bottleneck``, or None if it
    needs more than ``num_stages`` stages or a layer does not fit.
    ``rows[i]`` lists the window sums a stage starting at layer ``i``
    may reach."""
    n = len(rows)
    bounds = [0]
    i = 0
    for _ in range(num_stages):
        reach = bisect_right(rows[i], bottleneck)
        if reach == 0:
            return None
        i += reach
        bounds.append(i)
        if i == n:
            return bounds
    return None


def _pad(bounds: list[int], num_stages: int) -> list[int]:
    """Split the largest stage (first on ties) until there are
    ``num_stages``; there are at least as many layers as stages."""
    while len(bounds) - 1 < num_stages:
        sizes = [bounds[j + 1] - bounds[j] for j in range(len(bounds) - 1)]
        big = max(sizes)
        j = sizes.index(big)
        bounds.insert(j + 1, bounds[j] + big // 2)
    return bounds


def partition_balanced(
    weights: np.ndarray,
    num_stages: int,
    memory: np.ndarray | None = None,
    capacity: float | None = None,
) -> PipelinePlan:
    """Optimal contiguous partition by exact bottleneck search."""
    w = np.asarray(weights, dtype=float)
    n = w.shape[0]
    if not 1 <= num_stages <= n:
        raise ValueError(f"num_stages must be in [1, {n}]")
    table = _window_table(w)
    # a stage starting at layer i reaches at most to layer n-1, and
    # with a capacity only until its summed memory exceeds it (memory
    # windows grow along a row, so the ones not over are a prefix)
    reach = np.arange(n, 0, -1)
    if capacity is not None:
        m = np.zeros(n) if memory is None else np.asarray(memory, dtype=float)
        fits = ~(_window_table(m) > capacity)
        reach = np.minimum(reach, fits.sum(axis=1))
    rows = [row[:r] for row, r in zip(table.tolist(), reach.tolist())]

    # exact optimum: the smallest feasible window sum (none below max w)
    lo = float(w.max())
    cands = np.sort(table, axis=None).tolist()
    a, b = bisect_left(cands, lo), len(cands)
    while a < b:
        mid_i = (a + b) // 2
        if _greedy(rows, num_stages, cands[mid_i]) is None:
            a = mid_i + 1
        else:
            b = mid_i
    b_star = cands[a] if a < len(cands) else float("inf")

    # replay the float bisection; its probe verdicts are mid >= b_star.
    # The headroom keeps sequential window sums from overshooting the
    # pairwise-summed total by a rounding ulp.
    hi = float(w.sum()) * (1.0 + 1e-12) + 1e-12
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        if mid >= b_star:
            hi = mid
        else:
            lo = mid
        if hi - lo <= max(1e-12, 1e-9 * hi):
            break
    best = _greedy(rows, num_stages, hi)
    if best is None:
        raise ValueError(
            "no feasible partition (memory capacity too small for some layer run)"
        )
    return PipelinePlan(tuple(_pad(best, num_stages)), n)


class PartitionBalancer(LoadBalancer):
    name = "partition"

    def rebalance(
        self,
        plan: PipelinePlan,
        weights: np.ndarray,
        memory_per_layer: np.ndarray | None = None,
        memory_capacity: "float | Sequence[float] | None" = None,
    ) -> BalanceResult:
        w = self._validate(plan, weights)
        before = plan.stage_loads(w)
        # the probe reasons about one scalar bound, so a per-stage
        # capacity vector conservatively collapses to its min
        new_plan = self.search_scalar_capacity(
            lambda cap: partition_balanced(w, plan.num_stages, memory_per_layer, cap),
            plan, memory_per_layer, memory_capacity,
        )
        after = new_plan.stage_loads(w)
        # never return a worse plan than the current one
        if after.max() > before.max():
            new_plan, after = plan, before
        return BalanceResult(new_plan, before, after)
