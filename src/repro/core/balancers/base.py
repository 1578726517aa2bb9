"""Balancer interface and result record."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.core.metrics import imbalance
from repro.pipeline.plan import PipelinePlan


@dataclass
class BalanceResult:
    plan: PipelinePlan
    loads_before: np.ndarray
    loads_after: np.ndarray
    rounds: int = 0  # diffusion only
    potential_trace: list[float] = field(default_factory=list)

    @property
    def imbalance_before(self) -> float:
        return imbalance(self.loads_before)

    @property
    def imbalance_after(self) -> float:
        return imbalance(self.loads_after)

    @property
    def improved(self) -> bool:
        return self.imbalance_after <= self.imbalance_before + 1e-12


class LoadBalancer(ABC):
    """Produces a new contiguous PipelinePlan from per-layer weights.

    ``memory_per_layer`` and ``memory_capacity`` (optional) enforce the
    paper's per-worker memory constraint: a plan is feasible only if
    every stage's summed layer memory fits.  ``memory_capacity`` is
    either one scalar for all stages or one capacity per stage
    (heterogeneous clusters place different devices per stage).
    """

    name: str = "balancer"

    @abstractmethod
    def rebalance(
        self,
        plan: PipelinePlan,
        weights: np.ndarray,
        memory_per_layer: np.ndarray | None = None,
        memory_capacity: "float | Sequence[float] | None" = None,
    ) -> BalanceResult:
        ...

    @staticmethod
    def _validate(plan: PipelinePlan, weights: np.ndarray) -> np.ndarray:
        w = np.asarray(weights, dtype=float)
        if w.shape[0] != plan.num_layers:
            raise ValueError(
                f"got {w.shape[0]} weights for {plan.num_layers} layers"
            )
        if (w < 0).any():
            raise ValueError("weights must be non-negative")
        return w

    @staticmethod
    def plan_feasible(
        plan: PipelinePlan,
        memory_per_layer: np.ndarray | None,
        memory_capacity: "float | Sequence[float] | None",
    ) -> bool:
        if memory_per_layer is None or memory_capacity is None:
            return True
        mem = plan.stage_loads(memory_per_layer)
        if not np.isscalar(memory_capacity):
            caps = np.asarray(memory_capacity, dtype=float)
            if caps.shape != mem.shape:
                raise ValueError(
                    f"got {caps.shape[0]} stage capacities for "
                    f"{mem.shape[0]} stages"
                )
            return bool((mem <= caps).all())
        return bool((mem <= memory_capacity).all())

    @staticmethod
    def scalar_capacity(
        memory_capacity: "float | Sequence[float] | None",
    ) -> float | None:
        """Conservative scalar view of a (possibly per-stage) capacity.

        ``PartitionBalancer`` and ``DPExactBalancer`` carry one scalar
        bound through their search, so they reduce a per-stage vector
        to its minimum.  Any partition feasible under the minimum fits
        every stage's true capacity, but the minimum can also reject
        every partition while the input plan fits; both balancers then
        keep the input plan (``search_scalar_capacity``).
        ``DiffusionBalancer`` checks the per-stage vector itself.
        """
        if memory_capacity is None or np.isscalar(memory_capacity):
            return memory_capacity  # type: ignore[return-value]
        caps = np.asarray(memory_capacity, dtype=float)
        if caps.size == 0:
            return None
        return float(caps.min())

    @classmethod
    def search_scalar_capacity(
        cls,
        search: Callable[[float | None], PipelinePlan],
        plan: PipelinePlan,
        memory_per_layer: np.ndarray | None,
        memory_capacity: "float | Sequence[float] | None",
    ) -> PipelinePlan:
        """``search(scalar_capacity(memory_capacity))``, or ``plan``
        unchanged when that search finds no plan (``ValueError``) but
        ``plan`` fits the true per-stage capacities."""
        try:
            return search(cls.scalar_capacity(memory_capacity))
        except ValueError:
            if not cls.plan_feasible(plan, memory_per_layer, memory_capacity):
                raise
            return plan
