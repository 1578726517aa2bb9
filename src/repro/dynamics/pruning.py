"""Gradual global magnitude pruning (paper sections 2.2, 3.2.1, Algorithm 1).

Three pieces:

- :class:`GradualPruningSchedule` — the Zhu–Gupta cubic schedule
  (Eq. 3): rapid pruning early, slowing as the network shrinks.
- :class:`GlobalMagnitudePruner` — Algorithm 1 verbatim over
  :class:`repro.cluster.SimComm` ranks: each rank takes local top-k of
  |w|, rank 0 gathers and computes the *global* top-k, then scatters
  per-rank keep-indices.  Works on real numpy weight shards.
- :class:`PruningDynamism` — drives the schedule during training and
  maps the resulting *non-uniform per-layer retention* onto LayerStates.
  Per-layer weight-magnitude scales differ (depth-dependent), so a
  global threshold prunes layers unevenly — exactly the imbalance
  source in the paper (Fig. 1 shows ~5x idleness at 90% sparsity).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.simcomm import SimComm, SimWorld
from repro.dynamics.base import DynamismScheme
from repro.model.cost import LayerSpec, LayerState
from repro.utils.rng import new_rng
from repro.utils.validation import check_prob


@dataclass(frozen=True)
class GradualPruningSchedule:
    """Zhu–Gupta: S_t = S_f + (S_i - S_f)(1 - (t - t0)/(n*dt))^3."""

    initial_sparsity: float = 0.0
    final_sparsity: float = 0.9
    start_iter: int = 3000
    end_iter: int = 7000
    prune_every: int = 1000

    def __post_init__(self) -> None:
        check_prob("initial_sparsity", self.initial_sparsity)
        check_prob("final_sparsity", self.final_sparsity)
        if self.end_iter <= self.start_iter:
            raise ValueError("end_iter must be > start_iter")
        if self.prune_every <= 0:
            raise ValueError("prune_every must be positive")

    def sparsity_at(self, k: int) -> float:
        if k < self.start_iter:
            return self.initial_sparsity
        if k >= self.end_iter:
            return self.final_sparsity
        frac = (k - self.start_iter) / (self.end_iter - self.start_iter)
        si, sf = self.initial_sparsity, self.final_sparsity
        return sf + (si - sf) * (1.0 - frac) ** 3

    def is_pruning_step(self, k: int) -> bool:
        return (
            self.start_iter <= k <= self.end_iter
            and (k - self.start_iter) % self.prune_every == 0
        )


class GlobalMagnitudePruner:
    """Algorithm 1: distributed global magnitude pruning over ranks."""

    def __init__(self, num_ranks: int) -> None:
        if num_ranks <= 0:
            raise ValueError("num_ranks must be positive")
        self.num_ranks = num_ranks
        self.world = SimWorld(num_ranks)

    # the world holds locks and queues; a fresh world of the same size
    # is indistinguishable (see SimWorld.__deepcopy__), so only the rank
    # count is pickled
    def __getstate__(self) -> dict:
        return {"num_ranks": self.num_ranks}

    def __setstate__(self, state: dict) -> None:
        self.num_ranks = state["num_ranks"]
        self.world = SimWorld(self.num_ranks)

    @staticmethod
    def _rank_fn(comm: SimComm, shard: np.ndarray, sparsity: float, total: int):
        """One rank of Algorithm 1. ``shard`` is this rank's parameters."""
        k_global = int(round(total * (1.0 - sparsity)))
        k_local = min(shard.size, k_global)
        mags = np.abs(shard)
        # line 3: local top-k values (magnitudes) of this rank
        if k_local > 0 and shard.size > k_local:
            part = np.argpartition(-mags, k_local - 1)[:k_local]
        else:
            part = np.arange(shard.size)
        local_top_vals = mags[part]
        # line 4: gather candidates at rank 0
        gathered = comm.gather((comm.rank, local_top_vals), root=0)
        if comm.rank == 0:
            # line 6: global top-k threshold over gathered candidates
            all_vals = np.concatenate([v for _, v in gathered])
            if k_global >= all_vals.size:
                thresh = -np.inf
            else:
                thresh = np.partition(all_vals, all_vals.size - k_global)[
                    all_vals.size - k_global
                ]
            payload = [thresh] * comm.size
        else:
            payload = None
        # line 8: scatter the keep-threshold (indices derivable locally)
        thresh = comm.scatter(payload, root=0)
        keep = mags >= thresh
        return keep

    def prune(self, shards: list[np.ndarray], sparsity: float) -> list[np.ndarray]:
        """Run Algorithm 1; returns per-rank boolean keep-masks."""
        check_prob("sparsity", sparsity)
        if len(shards) != self.num_ranks:
            raise ValueError("one shard per rank required")
        total = sum(s.size for s in shards)
        results = self.world.run(
            lambda comm: self._rank_fn(
                comm, shards[comm.rank], sparsity, total
            )
        )
        return results


class PruningDynamism(DynamismScheme):
    """Maps the pruning schedule onto per-layer sparsity states.

    Each block layer gets a weight-magnitude scale sigma_i (log-normal
    across depth). At each pruning step, Algorithm 1 runs on proxy
    weight samples (``proxy_per_layer`` values per layer, distributed
    round-robin over ``num_ranks``), yielding a global threshold and
    hence non-uniform per-layer retention.
    """

    name = "pruning"

    def __init__(
        self,
        specs: list[LayerSpec],
        schedule: GradualPruningSchedule | None = None,
        num_ranks: int = 4,
        proxy_per_layer: int = 2000,
        depth_scale_spread: float = 0.6,
        seed: int | np.random.Generator = 0,
    ) -> None:
        super().__init__(specs)
        self.schedule = schedule or GradualPruningSchedule()
        self.rebalance_every = self.schedule.prune_every
        self.rng = new_rng(seed)
        self.pruner = GlobalMagnitudePruner(num_ranks)
        d = len(self.block_indices)
        # deeper layers tend to have larger-magnitude weights -> retain more
        depth = np.linspace(-1.0, 1.0, d)
        self._sigma = np.exp(depth_scale_spread * depth + self.rng.normal(0, 0.1, d))
        self._proxy = [
            self.rng.normal(0.0, self._sigma[j], size=proxy_per_layer)
            for j in range(d)
        ]
        self.current_sparsity = self.schedule.initial_sparsity
        self.per_layer_retention = np.ones(d)

    def _apply_global_prune(self, sparsity: float) -> np.ndarray:
        """Run Algorithm 1 on proxy weights; return per-layer retention."""
        flat = np.concatenate(self._proxy)
        shards = np.array_split(flat, self.pruner.num_ranks)
        keeps = self.pruner.prune(list(shards), sparsity)
        keep_flat = np.concatenate(keeps)
        # unsplit back into layers
        sizes = [p.size for p in self._proxy]
        offsets = np.cumsum([0] + sizes)
        retention = np.array(
            [
                keep_flat[offsets[j] : offsets[j + 1]].mean()
                for j in range(len(sizes))
            ]
        )
        return retention

    def step(self, k: int, states: list[LayerState]) -> bool:
        self._check(states)
        if not self.schedule.is_pruning_step(k):
            return False
        target = self.schedule.sparsity_at(k)
        if target <= self.current_sparsity and k != self.schedule.start_iter:
            return False
        self.current_sparsity = target
        retention = self._apply_global_prune(target)
        self.per_layer_retention = retention
        for j, i in enumerate(self.block_indices):
            states[i].sparsity = float(np.clip(1.0 - retention[j], 0.0, 1.0))
        return True
