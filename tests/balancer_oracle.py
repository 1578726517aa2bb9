"""Reference balancers: the original scalar-loop implementations.

``partition_balanced`` (64-step float bisection over a per-layer greedy
probe) and ``DiffusionBalancer.rebalance`` / ``_flow_boundary`` (one
``PipelinePlan`` and several numpy calls per single-layer move) are
kept here verbatim as a differential oracle.  The production versions
in ``repro.core.balancers`` search prefix-sum tables and boundary
lists instead and must return bit-identical results;
``tests/test_balancer_oracle.py`` and ``benchmarks/bench_balancers.py``
check that against this module.  Nothing in ``src/`` imports it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.balancers.base import BalanceResult, LoadBalancer
from repro.core.balancers.diffusion import (
    DiffusionBalancer,
    prefix_excess,
    transport_potential,
)
from repro.core.convergence import diffusion_rounds_bound
from repro.core.metrics import potential
from repro.pipeline.plan import PipelinePlan


def _probe(
    weights: np.ndarray,
    num_stages: int,
    bottleneck: float,
    memory: np.ndarray | None,
    capacity: float | None,
) -> list[int] | None:
    """Greedy: pack layers left-to-right into stages of load <= bottleneck.

    Returns boundaries if it fits in <= num_stages stages with every
    stage non-empty (completed by splitting), else None.
    """
    n = weights.shape[0]
    if num_stages > n:
        return None
    bounds = [0]
    load = 0.0
    mem = 0.0
    for i in range(n):
        w = weights[i]
        m = memory[i] if memory is not None else 0.0
        if w > bottleneck:
            return None
        over_mem = capacity is not None and mem + m > capacity
        if load + w > bottleneck or over_mem:
            bounds.append(i)
            load = 0.0
            mem = 0.0
            if over_mem and m > (capacity or 0.0):
                return None  # single layer exceeds memory capacity
        load += w
        mem += m
        if len(bounds) > num_stages:
            return None
    bounds.append(n)
    # pad: if we used fewer stages, split the largest stages until S
    while len(bounds) - 1 < num_stages:
        sizes = [bounds[j + 1] - bounds[j] for j in range(len(bounds) - 1)]
        j = int(np.argmax(sizes))
        if sizes[j] < 2:
            return None
        mid = bounds[j] + sizes[j] // 2
        bounds.insert(j + 1, mid)
    return bounds


def partition_balanced(
    weights: np.ndarray,
    num_stages: int,
    memory: np.ndarray | None = None,
    capacity: float | None = None,
) -> PipelinePlan:
    """Optimal contiguous partition by bottleneck binary search."""
    w = np.asarray(weights, dtype=float)
    n = w.shape[0]
    if not 1 <= num_stages <= n:
        raise ValueError(f"num_stages must be in [1, {n}]")
    lo = float(w.max())
    # tiny headroom so sequential accumulation in the probe cannot
    # overshoot the pairwise-summed total by a rounding ulp
    hi = float(w.sum()) * (1.0 + 1e-12) + 1e-12
    best = None
    for _ in range(64):  # float binary search; 64 halvings ≍ exact
        mid = 0.5 * (lo + hi)
        bounds = _probe(w, num_stages, mid, memory, capacity)
        if bounds is not None:
            best = bounds
            hi = mid
        else:
            lo = mid
        if hi - lo <= max(1e-12, 1e-9 * hi):
            break
    if best is None:
        best = _probe(w, num_stages, hi, memory, capacity)
    if best is None:
        raise ValueError(
            "no feasible partition (memory capacity too small for some layer run)"
        )
    return PipelinePlan(tuple(best), n)


class OracleDiffusionBalancer(DiffusionBalancer):
    """``DiffusionBalancer`` with the original per-move plan objects."""

    name = "diffusion-oracle"

    @staticmethod
    def _flow_boundary(
        plan: PipelinePlan,
        w: np.ndarray,
        b: int,
        memory: np.ndarray | None,
        capacity: "float | Sequence[float] | None",
    ) -> PipelinePlan | None:
        """Move layers across internal boundary ``b`` down the excess
        gradient while each move strictly reduces |e(b)|."""
        cur = plan
        moved = False
        while True:
            loads = cur.stage_loads(w)
            e = prefix_excess(loads)[b - 1]
            sizes = cur.stage_sizes()
            if e < 0 and sizes[b] > 1:
                # left side underloaded: first layer of stage b moves left
                layer_w = w[cur.boundaries[b]]
                delta = +1
            elif e > 0 and sizes[b - 1] > 1:
                # left side overloaded: last layer of stage b-1 moves right
                layer_w = w[cur.boundaries[b] - 1]
                delta = -1
            else:
                break
            if abs(e + delta * layer_w) >= abs(e) - 1e-15:
                break  # the move would overshoot: no strict improvement
            cand = cur.move_boundary(b, delta)
            if not LoadBalancer.plan_feasible(cand, memory, capacity):
                break
            cur = cand
            moved = True
        return cur if moved else None

    def rebalance(
        self,
        plan: PipelinePlan,
        weights: np.ndarray,
        memory_per_layer: np.ndarray | None = None,
        memory_capacity: "float | Sequence[float] | None" = None,
    ) -> BalanceResult:
        w = self._validate(plan, weights)
        before = plan.stage_loads(w)
        n = plan.num_stages
        total = float(w.sum())
        bound = self.max_rounds or diffusion_rounds_bound(
            n, max(total, 1e-12), self.gamma
        )
        bound = min(bound, 10_000)  # practical cap; stagnation exits earlier

        cur = plan
        trace = [transport_potential(before)]
        rounds = 0
        while rounds < bound and n > 1:
            loads = cur.stage_loads(w)
            if potential(loads) <= self.gamma:
                break
            # max-neighbor: visit boundaries by decreasing |excess|
            order = np.argsort(-np.abs(prefix_excess(loads))) + 1
            moved = False
            used = np.zeros(n, dtype=bool)  # each stage in one pair/round
            for b in order:
                b = int(b)
                if used[b - 1] or used[b]:
                    continue
                nxt = self._flow_boundary(cur, w, b, memory_per_layer, memory_capacity)
                if nxt is not None:
                    cur = nxt
                    used[b - 1] = used[b] = True
                    moved = True
            rounds += 1
            trace.append(transport_potential(cur.stage_loads(w)))
            if not moved:
                break  # local optimum: no excess-reducing move exists
        after = cur.stage_loads(w)
        if after.max() > before.max():
            cur, after = plan, before
        return BalanceResult(cur, before, after, rounds=rounds, potential_trace=trace)
