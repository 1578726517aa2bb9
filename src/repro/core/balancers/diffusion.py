"""Decentralized iterative diffusion balancer (paper section 3.3, Lemma 2).

A pipeline is a 1-D chain of stages, so diffusion load balancing takes
the classic 1-D transport form: across every internal cut b the chain
has a *prefix excess*

    e(b) = sum_{s < b} L_s  -  (b / S) * total

(e(b) < 0: the left side of the cut is underloaded and layers should
flow right-to-left; e(b) > 0: the reverse).  Each round, boundaries
are visited in decreasing |e(b)| (the "max neighbor" strategy of the
proof) and boundary layers move across the cut while the move strictly
reduces |e(b)| and respects per-worker memory.

The transport potential Φ_T(r) = Σ_b |e(b)| decreases strictly with
every accepted move (a layer of weight w moved in the right direction
changes exactly one prefix excess toward zero), which yields the same
Lyapunov-descent convergence argument as the paper's φ: rounds are
capped by the Lemma-2 bound and iteration stops once the pairwise-gap
potential φ ≤ γ or no boundary admits an improving move.

Unlike pairwise-gap rules, prefix-excess flow *cascades*: a hot tail
stage drains through a chain of equally-loaded neighbours toward an
idle front, which is exactly the pattern layer freezing and early exit
produce.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.balancers.base import BalanceResult, LoadBalancer
from repro.core.convergence import diffusion_rounds_bound
from repro.core.metrics import potential
from repro.pipeline.plan import PipelinePlan


def prefix_excess(loads: np.ndarray) -> np.ndarray:
    """e(b) for internal boundaries b = 1..S-1 (length S-1)."""
    total = loads.sum()
    S = loads.shape[0]
    cum = np.cumsum(loads)[:-1]
    fair = total * np.arange(1, S) / S
    return cum - fair


def transport_potential(loads: np.ndarray) -> float:
    """Φ_T = Σ_b |e(b)| — strictly decreased by every accepted move."""
    if loads.shape[0] < 2:
        return 0.0
    return float(np.abs(prefix_excess(loads)).sum())


class _Chain:
    """A plan as a boundary list, with its stage loads kept move by move.

    Loads are differences of the weight prefix sums, the subtraction
    ``PipelinePlan.stage_loads`` does, and ``total`` is their pairwise
    ``np.add.reduce`` sum, so the prefix excess computed here matches
    ``prefix_excess`` bit for bit.  With a memory constraint, ``over``
    marks the stages whose summed layer memory exceeds capacity, as
    ``LoadBalancer.plan_feasible`` compares it.
    """

    def __init__(
        self,
        plan: PipelinePlan,
        w: np.ndarray,
        memory: np.ndarray | None,
        capacity: "float | Sequence[float] | None",
    ) -> None:
        S = plan.num_stages
        self.bounds = list(plan.boundaries)
        self.w = w.tolist()
        self.cs = [0.0] + np.cumsum(w).tolist()
        self.loads = [self.cs[self.bounds[s + 1]] - self.cs[self.bounds[s]] for s in range(S)]
        self.total = float(np.add.reduce(self.loads))
        self.caps: list[float] | None = None
        if memory is None or capacity is None:
            return
        mem = np.asarray(memory, dtype=float)
        if mem.shape[0] != plan.num_layers:
            raise ValueError(f"got {mem.shape[0]} weights for {plan.num_layers} layers")
        if np.isscalar(capacity):
            self.caps = [float(capacity)] * S
        else:
            caps = np.asarray(capacity, dtype=float)
            if caps.shape != (S,):
                raise ValueError(f"got {caps.shape[0]} stage capacities for {S} stages")
            self.caps = caps.tolist()
        self.mcs = [0.0] + np.cumsum(mem).tolist()
        self.over = [not self._fits(s, self.bounds[s], self.bounds[s + 1]) for s in range(S)]

    def _fits(self, s: int, lo: int, hi: int) -> bool:
        """Whether layers ``lo..hi-1`` fit stage ``s``'s capacity."""
        return self.mcs[hi] - self.mcs[lo] <= self.caps[s]

    def stage_loads(self) -> np.ndarray:
        return np.array(self.loads)

    def flow_boundary(self, b: int) -> bool:
        """Move layers across internal boundary ``b`` down the excess
        gradient while each move strictly reduces |e(b)|; returns
        whether any layer moved."""
        bounds, loads, cs = self.bounds, self.loads, self.cs
        S = len(loads)
        caps = self.caps
        if caps is not None and sum(self.over) > self.over[b - 1] + self.over[b]:
            return False  # another stage overflows: no move makes the plan fit
        # e(b) adds loads left to right as np.cumsum does; stages
        # before b-1 never change here
        head = loads[0]
        for s in range(1, b - 1):
            head += loads[s]
        first, last = bounds[b - 1], bounds[b + 1]
        direction = 0  # of the moves made so far
        while True:
            cut = bounds[b]
            left = loads[0] if b == 1 else head + loads[b - 1]
            e = left - self.total * b / S
            if e < 0 and last - cut > 1:
                # left side underloaded: first layer of stage b moves left
                layer_w = self.w[cut]
                delta = +1
            elif e > 0 and cut - first > 1:
                # left side overloaded: last layer of stage b-1 moves right
                layer_w = self.w[cut - 1]
                delta = -1
            else:
                break
            if delta == -direction:
                # turning back would undo the last move; only a rounding
                # tie accepts that, and then the two plans alternate forever
                break
            if abs(e + delta * layer_w) >= abs(e) - 1e-15:
                break  # the move would overshoot: no strict improvement
            cut += delta
            if caps is not None and not (
                self._fits(b - 1, first, cut) and self._fits(b, cut, last)
            ):
                break
            bounds[b] = cut
            loads[b - 1] = cs[cut] - cs[first]
            loads[b] = cs[last] - cs[cut]
            self.total = float(np.add.reduce(loads))
            direction = delta
        if direction and caps is not None:
            self.over[b - 1] = self.over[b] = False
        return direction != 0


class DiffusionBalancer(LoadBalancer):
    name = "diffusion"

    def __init__(self, gamma: float = 1e-3, max_rounds: int | None = None) -> None:
        if gamma <= 0:
            raise ValueError("gamma must be > 0")
        self.gamma = gamma
        self.max_rounds = max_rounds

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

        chain = _Chain(plan, w, memory_per_layer, memory_capacity)
        loads = before
        trace = [transport_potential(before)]
        rounds = 0
        while rounds < bound and n > 1:
            if potential(loads) <= self.gamma:
                break
            # max-neighbor: visit boundaries by decreasing |excess|
            order = np.argsort(-np.abs(prefix_excess(loads))) + 1
            moved = False
            used = [False] * n  # each stage in one pair/round
            for b in order.tolist():
                if used[b - 1] or used[b]:
                    continue
                if chain.flow_boundary(b):
                    used[b - 1] = used[b] = True
                    moved = True
            rounds += 1
            loads = chain.stage_loads()
            trace.append(transport_potential(loads))
            if not moved:
                break  # local optimum: no excess-reducing move exists
        cur = PipelinePlan(tuple(chain.bounds), plan.num_layers)
        after = chain.stage_loads()
        if after.max() > before.max():
            cur, after = plan, before
        return BalanceResult(cur, before, after, rounds=rounds, potential_trace=trace)
