"""The end-to-end training loop (simulated time).

Per iteration:

1. the dynamism scheme advances (maybe mutating layer states);
2. if due, DynMo profiles, rebalances, re-packs and migrates
   (overhead added to the iteration's wall time);
3. the pipeline engine computes the iteration's makespan, busy/idle
   times and bubble ratio under the current plan;
4. throughput and elasticity accounting update.

Iteration results are memoised on (plan, state-fingerprint): schemes
that only change every few hundred iterations (pruning, freezing,
early exit) re-simulate only when something changed, which keeps a
10,000-iteration run fast.

When nothing reads a makespan before the next iteration (no
controller, no trace recorder) and the engine can batch, the loop
*walks ahead*: it runs steps 1-2 for many iterations, collects up to
:data:`WINDOW_MISSES` distinct cache misses, simulates them in one
batched call and only then replays step 4 in iteration order.
Otherwise each window is one iteration.
"""

from __future__ import annotations

import copy
import hashlib
import time
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from repro.cluster.collectives import CommCostModel
from repro.cluster.events import ClusterEventTrace
from repro.cluster.job_manager import ElasticJobManager
from repro.cluster.memory import PlacementOOMError
from repro.cluster.placement import Placement, make_placement, validate_memory
from repro.core.balancers.partition import fit_capacities, partition_balanced
from repro.core.controller import DynMoController
from repro.dynamics.base import DynamismScheme
from repro.model.cost import LayerState, ModelCost
from repro.model.memory import StageMemoryModel
from repro.pipeline.batched import simulate_many
from repro.pipeline.engine import IterationResult, PipelineEngine
from repro.pipeline.migration import diff_plans
from repro.pipeline.plan import PipelinePlan
from repro.training.config import TrainingConfig

#: most distinct cache misses one walk-ahead window collects before it
#: simulates them; bounds the state snapshots a window holds in memory
WINDOW_MISSES = 64

#: one distinct cache miss awaiting simulation: (cache key, engine
#: frozen at its segment, plan, states)
_Miss = tuple[tuple, PipelineEngine, PipelinePlan, list[LayerState]]


class RunDeadlineExceeded(RuntimeError):
    """A training run blew its wall-clock budget (monotonic check).

    Raised by :meth:`Trainer.run` between iterations when
    ``deadline_s`` is set; the sweep runner maps it to a
    ``status="timeout"`` record exactly like the ``SIGALRM`` path.
    """


def states_fingerprint(states: list[LayerState], out: np.ndarray | None = None) -> bytes:
    """Stable hash of the dynamism state vector (for memoisation).

    ``out`` is an optional preallocated ``(len(states), 6)`` float64
    scratch buffer, refilled in place; callers hashing every iteration
    (the Trainer) reuse one buffer instead of re-allocating.  Columns
    are filled struct-of-arrays style (one comprehension + vector
    assign per field) instead of a per-layer Python loop; the buffer
    layout and float64 values — bools coerce to exactly 0.0/1.0 — are
    unchanged, so digests are byte-identical to the row-fill loop.
    """
    n = len(states)
    if out is None or out.shape != (n, 6):
        out = np.empty((n, 6))
    out[:, 0] = [s.sparsity for s in states]
    out[:, 1] = [s.frozen for s in states]
    out[:, 2] = [s.droppable_bwd for s in states]
    out[:, 3] = [s.attn_density for s in states]
    out[:, 4] = [s.token_fraction for s in states]
    out[:, 5] = [s.moe_multiplier for s in states]
    return hashlib.blake2b(out.tobytes(), digest_size=16).digest()


@dataclass
class _RunState:
    """Mutable accounting for one in-flight training run.

    The walk (:meth:`Trainer._pre_iteration`) may run ahead of the
    accounting (:meth:`Trainer._post_iteration`), so simulated-time
    charges made during the walk queue in ``charges`` and are added to
    ``total_time`` at accounting, interleaved with the makespans in
    iteration order (float addition is not associative).
    """

    iters: int
    advance: "callable | None" = None
    scheme_overhead: float = 0.0
    total_time: float = 0.0
    #: this iteration's simulated-time charges (migration, scheme and
    #: controller overheads), not yet added to ``total_time``
    charges: list[float] = field(default_factory=list)
    overhead: float = 0.0
    moved: int = 0
    last_iter_time: float = 0.0
    bubbles: list[tuple[int, float]] = field(default_factory=list)
    makespans: list[tuple[int, float]] = field(default_factory=list)
    stages: list[tuple[int, int]] = field(default_factory=list)
    released_history: list[tuple[int, list[int]]] = field(default_factory=list)
    # -- cluster-event state (trace-driven dynamism) ----------------------
    #: open straggler windows: [expires_at_iteration, ranks, slowdown]
    stragglers: list[list] = field(default_factory=list)
    #: ranks currently departed (failed or preempted, not yet recovered)
    failed_ranks: set = field(default_factory=set)
    #: every stage rank group in original pipeline order (seeded from the
    #: run-start placement); positions for regrow are resolved against
    #: this stable frame, so staggered failures cannot skew insert order
    stage_order: list[tuple[int, ...]] = field(default_factory=list)
    #: stage groups removed by events; a recovery re-admits a group —
    #: at its original pipeline position — once none of its ranks is failed
    lost_stages: list[tuple[int, ...]] = field(default_factory=list)
    #: a straggler window opened/closed this iteration: invoke the
    #: controller off-cadence so the partition adapts to the new speeds
    force_rebalance: bool = False
    #: (iteration, kind, ranks) log of applied events
    applied_events: list[tuple[int, str, list[int]]] = field(default_factory=list)
    # -- memory-model accounting ------------------------------------------
    #: largest per-stage resident-byte total seen across validations
    peak_stage_bytes: float = 0.0
    #: times memory constraints bound behaviour: controller-rejected
    #: balancer moves plus Trainer-level OOM validations (raised or
    #: recovered by re-splitting, per policy)
    oom_events: int = 0


@dataclass
class TrainingResult:
    total_time_s: float
    total_tokens: float
    iterations: int
    bubble_history: list[tuple[int, float]] = field(default_factory=list)
    makespan_history: list[tuple[int, float]] = field(default_factory=list)
    stage_count_history: list[tuple[int, int]] = field(default_factory=list)
    overhead_s: float = 0.0
    layers_moved: int = 0
    final_plan: PipelinePlan | None = None
    average_gpus: float = 0.0
    placement_strategy: str = "identity"
    #: replica-0 pipeline chain at run end (the surviving GPU ranks)
    final_stage_ranks: list[int] = field(default_factory=list)
    #: (iteration, global ranks freed) per re-pack event
    released_ranks_history: list[tuple[int, list[int]]] = field(default_factory=list)
    #: (iteration, kind, ranks) per applied cluster event (trace runs)
    cluster_events_applied: list[tuple[int, str, list[int]]] = field(
        default_factory=list
    )
    #: largest per-stage resident-byte total (0.0 without a memory model)
    peak_stage_bytes: float = 0.0
    #: times memory constraints bound behaviour during the run
    oom_events: int = 0

    @property
    def tokens_per_s(self) -> float:
        return self.total_tokens / self.total_time_s if self.total_time_s > 0 else 0.0

    @property
    def mean_bubble_ratio(self) -> float:
        if not self.bubble_history:
            return 0.0
        return float(np.mean([b for _, b in self.bubble_history]))

    @property
    def overhead_fraction(self) -> float:
        return self.overhead_s / self.total_time_s if self.total_time_s > 0 else 0.0


class Trainer:
    def __init__(
        self,
        cfg: TrainingConfig,
        cost: ModelCost,
        scheme: DynamismScheme,
        comm: CommCostModel | None = None,
        controller: DynMoController | None = None,
        initial_plan: PipelinePlan | None = None,
        job_manager: ElasticJobManager | None = None,
        job_name: str = "train",
        trace_recorder=None,
        placement: Placement | None = None,
        cluster_events: ClusterEventTrace | None = None,
        memory_model: StageMemoryModel | None = None,
        oom_policy: str = "raise",
    ) -> None:
        if oom_policy not in ("raise", "resplit"):
            raise ValueError(
                f"unknown oom_policy {oom_policy!r}; choose 'raise' or 'resplit'"
            )
        self.cfg = cfg
        self.cost = cost
        self.scheme = scheme
        self.comm = comm
        self.controller = controller
        # when set, every placement decision (initial, post-repack,
        # post-regrow) is priced against its ranks' memory; "raise"
        # surfaces a PlacementOOMError, "resplit" first tries a
        # memory-balanced re-partition over the same stages
        self.memory_model = memory_model
        self.oom_policy = oom_policy
        self._last_mem_key: tuple | None = None
        n_layers = len(cost.specs)
        self.plan = initial_plan or PipelinePlan.uniform(n_layers, cfg.pp_stages)
        if placement is None and comm is not None and cfg.placement_strategy:
            placement = make_placement(
                comm.topology,
                self.plan.num_stages,
                cfg.dp_ways,
                cfg.placement_strategy,
            )
        self.placement = placement
        if controller is not None and controller.placement is None:
            controller.placement = placement
        if (
            controller is not None
            and controller.memory_model is None
            and memory_model is not None
        ):
            controller.memory_model = memory_model
        self.engine = PipelineEngine(
            cost,
            comm,
            schedule=cfg.schedule,
            num_micro=cfg.micro_batches,
            dp_ways=cfg.dp_ways,
            placement=placement,
        )
        self.states = scheme.initial_states()
        self.job_manager = job_manager
        self.job_name = job_name
        self.trace_recorder = trace_recorder
        self.cluster_events = cluster_events
        if cluster_events:
            limit = (
                placement.topology.num_gpus
                if placement is not None
                else self.plan.num_stages
            )
            if cluster_events.max_rank() >= limit:
                raise ValueError(
                    f"cluster event trace names rank {cluster_events.max_rank()}, "
                    f"but only ranks [0, {limit}) exist here"
                )
        # migration pricing for event-driven shrink/regrow transitions
        # follows the controller's overlap model when one is attached
        self._event_overlap = (
            controller.config.migration_overlap if controller is not None else 0.7
        )
        # canonical straggler state folded into the iteration-cache key
        self._slowdown_key: tuple = ()
        if job_manager is not None:
            job_manager.request(job_name, cfg.total_gpus, iteration=0)
        # Bounded LRU of iteration results: long elastic runs that
        # alternate between a handful of plans never thrash (the old
        # clear-everything-at-512 wiped the hot entries too).
        self._cache: OrderedDict[tuple, IterationResult] = OrderedDict()
        self._cache_capacity = 512
        # states_fingerprint memo, invalidated by the scheme's version
        # counter: schemes that change every few hundred iterations
        # (pruning, freezing, early exit) skip the per-iteration hash.
        self._fp: bytes | None = None
        self._fp_version: int | None = None
        self._fp_buf = np.empty((len(self.states), 6))

    # -- internals ---------------------------------------------------------
    def _states_key(self) -> bytes:
        version = getattr(self.scheme, "version", None)
        if version is None or version != self._fp_version or self._fp is None:
            self._fp = states_fingerprint(self.states, out=self._fp_buf)
            self._fp_version = version
        return self._fp

    def _cache_key(self) -> tuple:
        grid = self.placement.grid if self.placement is not None else None
        return (self.plan.boundaries, grid, self._slowdown_key, self._states_key())

    def _cache_lookup(self, key: tuple) -> IterationResult | None:
        res = self._cache.get(key)
        if res is not None:
            self._cache.move_to_end(key)
        return res

    def _cache_store(self, key: tuple, res: IterationResult) -> None:
        if len(self._cache) >= self._cache_capacity:
            self._cache.popitem(last=False)
        self._cache[key] = res

    # -- memory validation ---------------------------------------------------
    def _validate_memory(self, st: _RunState, context: str) -> None:
        """Price the current plan against its placed ranks' memory.

        Throttled on (plan, placement, states) identity so steady-state
        iterations pay one tuple comparison, not a re-pricing; OOM either
        raises :class:`PlacementOOMError` or (policy ``"resplit"``)
        re-partitions by memory over the same stage count.
        """
        if self.memory_model is None:
            return
        key = (
            self.plan.boundaries,
            self.placement.grid if self.placement is not None else None,
            self._states_key(),
        )
        if key == self._last_mem_key:
            return
        # fast path: memoised per-stage totals against cached capacities;
        # full StageMemoryReports are only built when a stage overflows
        # (for the error message / resplit decision)
        aligned = (
            self.placement is None
            or self.placement.num_stages == self.plan.num_stages
        )
        if aligned:
            totals = self.memory_model.plan_stage_bytes(
                self.plan, self.states
            )
            caps = self._stage_capacity_floats(len(totals))
            if all(t <= c for t, c in zip(totals, caps)):
                # record the peak only for plans that are accepted:
                # a rejected split never becomes resident memory
                peak = float(max(totals, default=0))
                if peak > st.peak_stage_bytes:
                    st.peak_stage_bytes = peak
                self._last_mem_key = key
                return
        reports = self._memory_reports(self.plan)
        if not all(r.fits for r in reports):
            st.oom_events += 1
            resplit = (
                self._memory_resplit(st) if self.oom_policy == "resplit" else None
            )
            if resplit is None:
                raise PlacementOOMError(context, reports)
            peak = max((float(r.total_bytes) for r in resplit), default=0.0)
            if peak > st.peak_stage_bytes:
                st.peak_stage_bytes = peak
            key = (
                self.plan.boundaries,
                self.placement.grid if self.placement is not None else None,
                self._states_key(),
            )
        self._last_mem_key = key

    def _stage_capacity_floats(self, num_stages: int) -> "list[float]":
        """Per-stage capacities exactly as ``validate_memory`` derives
        them (placed ranks, else cluster minimum, else unbounded;
        clipped by the model's ``limit_bytes``)."""
        if self.placement is not None:
            caps = [float(c) for c in self.placement.stage_capacities()]
        elif self.comm is not None:
            caps = [float(self.comm.topology.min_memory_bytes)] * num_stages
        else:
            caps = [float("inf")] * num_stages
        limit = self.memory_model.limit_bytes
        if limit is not None:
            caps = [min(c, float(limit)) for c in caps]
        return caps

    def _memory_reports(self, plan: PipelinePlan) -> list:
        return validate_memory(
            self.memory_model,
            plan,
            self.states,
            placement=self.placement,
            topology=(
                self.comm.topology
                if self.placement is None and self.comm is not None
                else None
            ),
        )

    def _memory_resplit(self, st: _RunState) -> "list | None":
        """Memory-balanced re-partition over the current stage count.

        Balances *memory* (not compute) because the goal is feasibility;
        the controller's next forced invocation re-optimises compute
        within the recovered headroom.  The balanced search prices every
        layer at the deepest stage's in-flight count against the
        smallest stage capacity; when its plan does not fit, any plan
        that fits each stage's own capacity at its own in-flight count
        is taken (:func:`fit_capacities`, exact for feasibility).
        Returns the new plan's reports, or None when no contiguous
        partition fits.
        """
        model = self.memory_model
        n_stages = self.plan.num_stages
        infl = model.worst_in_flight(n_stages)
        mem = np.asarray(model.layer_bytes(self.states, infl), dtype=float)
        caps = self._stage_capacity_floats(n_stages)
        candidates = [lambda: partition_balanced(mem, n_stages, mem, min(caps))]
        if len(caps) == n_stages:
            candidates.append(
                lambda: fit_capacities(
                    [
                        model.layer_bytes(self.states, model.in_flight(s, n_stages))
                        for s in range(n_stages)
                    ],
                    caps,
                )
            )
        for candidate in candidates:
            try:
                new_plan = candidate()
            except ValueError:
                continue
            if new_plan is None:
                continue
            reports = self._memory_reports(new_plan)
            if all(r.fits for r in reports):
                self.plan = new_plan
                st.force_rebalance = True
                return reports
        return None

    def tokens_per_iteration(self) -> float:
        return float(
            self.cfg.micro_batch
            * self.cfg.seq_len
            * self.cfg.micro_batches
            * self.cfg.dp_ways
        )

    # -- stepwise run protocol ----------------------------------------------
    # run() composes begin / pre-iteration / post-iteration / finish
    # hooks.  _pre_iteration is the walk (events, dynamism, controller)
    # and _post_iteration the accounting; between them, run() resolves
    # each window's cache misses through prewarm().

    def _begin_run(self, iterations: int | None) -> _RunState:
        st = _RunState(
            iters=iterations if iterations is not None else self.cfg.iterations
        )
        # baselines like Egeria carry their own per-iteration cost
        # (CPU reference-model maintenance that grows with depth)
        if hasattr(self.scheme, "per_iteration_overhead_s"):
            st.scheme_overhead = float(self.scheme.per_iteration_overhead_s())
        # duck-typed baselines (Egeria/Tutel wrappers) only provide
        # step(); without a version counter the fingerprint memo just
        # recomputes every iteration, as before
        st.advance = getattr(self.scheme, "advance", None) or self.scheme.step
        self._validate_memory(st, "initial placement")
        return st

    def _pre_iteration(self, st: _RunState, k: int) -> None:
        """Apply cluster events, advance dynamism and (when due) the
        DynMo controller."""
        if self.cluster_events:
            self._apply_cluster_events(st, k)
        st.advance(k, self.states)
        st.charges.append(st.scheme_overhead)

        force = st.force_rebalance
        st.force_rebalance = False
        if self.controller is not None and (
            force
            or self.controller.should_invoke(k, self.scheme.rebalance_every)
        ):
            decision = self.controller.rebalance(
                k, self.plan, self.states, iter_time_hint=st.last_iter_time
            )
            if decision.repacked:
                if self.job_manager is not None:
                    released = self.plan.num_stages - decision.plan.num_stages
                    if released > 0:
                        self.job_manager.release(
                            self.job_name, released * self.cfg.dp_ways, iteration=k
                        )
                if decision.placement is not None:
                    self.placement = decision.placement
                    self.engine.placement = decision.placement
                    st.released_history.append((k, list(decision.released_ranks)))
            self.plan = decision.plan
            st.overhead += decision.overhead_s
            st.charges.append(decision.overhead_s)
            st.moved += decision.layers_moved
            if decision.oom_rejected:
                st.oom_events += 1
        # covers controller decisions, event-driven shrink (after_repack)
        # and regrow (after_regrow), and dynamism state changes alike
        self._validate_memory(st, f"iteration {k}")

    # -- cluster-event handling ----------------------------------------------
    # A trace-driven run reacts to a changing cluster mid-flight:
    # failures/preemptions shrink the placement onto the surviving rank
    # groups (repack), recoveries re-admit released groups (regrow), and
    # straggler windows install per-rank slowdown factors on the engine.
    # Every transition prices its layer migration like a controller
    # repack would, so elasticity overhead stays honest.

    def _apply_cluster_events(self, st: _RunState, k: int) -> None:
        if not st.stage_order and self.placement is not None:
            # seed the stable pipeline frame before anything (events or
            # controller re-packs) can mutate the placement
            st.stage_order = [tuple(row) for row in self.placement.grid]
        changed = False
        for window in list(st.stragglers):
            if k >= window[0]:
                st.stragglers.remove(window)
                changed = True
                st.force_rebalance = True
        for ev in self.cluster_events.events_at(k):
            st.applied_events.append((k, ev.kind, list(ev.ranks)))
            if ev.kind == "straggler":
                # a window naming only departed ranks is a no-op (it
                # must not pollute the slowdown key and thrash the cache)
                live = tuple(r for r in ev.ranks if r not in st.failed_ranks)
                if live:
                    st.stragglers.append([k + ev.duration, live, ev.slowdown])
                    changed = True
                    st.force_rebalance = True
            elif ev.kind in ("failure", "preemption"):
                self._apply_departure(st, k, ev.ranks)
            else:  # recovery
                self._apply_recovery(st, k, ev.ranks)
        # a failed rank's open straggler windows die with it: the rank
        # left the placement, so its slowdown prices nothing and a stale
        # key would fragment the iteration cache (and its later expiry
        # would force a rebalance for a no-op change)
        for window in list(st.stragglers):
            live = tuple(r for r in window[1] if r not in st.failed_ranks)
            if live != window[1]:
                changed = True
                if live:
                    window[1] = live
                else:
                    st.stragglers.remove(window)
        if changed:
            slow: dict[int, float] = {}
            for _, ranks, factor in st.stragglers:
                for r in ranks:
                    slow[r] = max(slow.get(r, 1.0), factor)
            self.engine.set_rank_slowdowns(slow)
            self._slowdown_key = tuple(sorted(self.engine.rank_slowdowns.items()))

    def _require_event_placement(self, kind: str) -> Placement:
        if self.placement is None:
            raise ValueError(
                f"{kind} events need an explicit stage→rank placement; "
                "construct the Trainer with a comm model and a "
                "placement_strategy (stragglers alone work without one)"
            )
        return self.placement

    def _apply_departure(self, st: _RunState, k: int, ranks: tuple[int, ...]) -> None:
        placement = self._require_event_placement("failure/preemption")
        dead = {r for r in ranks if r not in st.failed_ranks}
        st.failed_ranks.update(ranks)
        if not dead:
            return
        hit = [
            s
            for s in range(placement.num_stages)
            if dead.intersection(placement.dp_group(s))
        ]
        if not hit:
            return  # spare ranks died; nothing placed on them
        surviving = [s for s in range(placement.num_stages) if s not in hit]
        if not surviving:
            raise RuntimeError(
                f"cluster event at iteration {k} killed every pipeline stage"
            )
        for s in hit:
            st.lost_stages.append(placement.dp_group(s))
        released = [r for s in hit for r in placement.dp_group(s)]
        self._transition(st, k, placement.after_repack(surviving), released)
        if self.job_manager is not None:
            self.job_manager.release(self.job_name, len(released), iteration=k)

    def _apply_recovery(self, st: _RunState, k: int, ranks: tuple[int, ...]) -> None:
        placement = self._require_event_placement("recovery")
        st.failed_ranks.difference_update(ranks)
        # a lost stage group regrows once every rank in it is healthy
        # again (a failure may have killed one replica of a DP group;
        # the group's survivors were released with it and return here)
        order = {group: i for i, group in enumerate(st.stage_order)}
        ready = sorted(
            (
                group
                for group in st.lost_stages
                if not st.failed_ranks.intersection(group)
            ),
            key=lambda g: order.get(g, len(order)),
        )
        if not ready:
            return
        regrown = placement
        readmitted: list[int] = []
        for group in ready:
            if regrown.num_stages >= self.plan.num_layers:
                break  # a pipeline cannot outgrow its layer count
            # original position = how many currently-placed groups come
            # before this one in the run-start pipeline order (stable
            # across staggered failures and interleaved re-packs)
            rank_of = order.get(group, len(order))
            pos = sum(
                1 for row in regrown.grid if order.get(tuple(row), -1) < rank_of
            )
            regrown = regrown.after_regrow([(pos, group)])
            st.lost_stages.remove(group)
            readmitted.extend(group)
        if not readmitted:
            return
        self._transition(st, k, regrown, released=[])
        if self.job_manager is not None:
            self.job_manager.request(self.job_name, len(readmitted), iteration=k)

    def _transition(
        self, st: _RunState, k: int, new_placement: Placement, released: list[int]
    ) -> None:
        """Re-split the plan over the new stage count and price the move."""
        old_plan, old_placement = self.plan, self.placement
        new_plan = PipelinePlan.uniform(
            old_plan.num_layers, new_placement.num_stages
        )
        migration = diff_plans(old_plan, new_plan, self.cost, self.states)
        cost = migration.cost_seconds(
            self.comm,
            overlap=self._event_overlap,
            src_placement=old_placement,
            dst_placement=new_placement,
        )
        self.plan = new_plan
        self.placement = new_placement
        self.engine.placement = new_placement
        if self.controller is not None:
            self.controller.placement = new_placement
        st.overhead += cost
        st.charges.append(cost)
        st.moved += migration.num_layers_moved
        if released:
            st.released_history.append((k, released))
        # the re-split partition is contiguous-uniform; let the
        # controller re-optimise it on its next (forced) invocation
        st.force_rebalance = True

    def _post_iteration(
        self,
        st: _RunState,
        k: int,
        res: IterationResult,
        charges: list[float],
        num_stages: int,
    ) -> None:
        """Account iteration ``k``: its walk-time ``charges``, then its
        makespan.  ``num_stages`` is the plan's stage count at ``k``."""
        for charge in charges:
            st.total_time += charge
        st.last_iter_time = res.makespan
        st.total_time += res.makespan
        if self.trace_recorder is not None:
            # recorder runs never walk ahead, so the plan is still k's
            self.trace_recorder.record(
                k, self.plan, self.states, res.makespan, res.bubble_ratio()
            )
        if k % self.cfg.record_every == 0 or k == st.iters - 1:
            st.bubbles.append((k, res.bubble_ratio()))
            st.makespans.append((k, res.makespan))
            st.stages.append((k, num_stages))

    def _finish_run(self, st: _RunState) -> TrainingResult:
        tokens = self.tokens_per_iteration() * st.iters
        avg_gpus = (
            self.job_manager.average_gpus(self.job_name, st.iters)
            if self.job_manager is not None
            else float(self.cfg.total_gpus)
        )
        return TrainingResult(
            total_time_s=st.total_time,
            total_tokens=tokens,
            iterations=st.iters,
            bubble_history=st.bubbles,
            makespan_history=st.makespans,
            stage_count_history=st.stages,
            overhead_s=st.overhead,
            layers_moved=st.moved,
            final_plan=self.plan,
            average_gpus=avg_gpus,
            placement_strategy=(
                self.placement.strategy if self.placement is not None else "identity"
            ),
            final_stage_ranks=(
                list(self.placement.stage_ranks())
                if self.placement is not None
                else list(range(self.plan.num_stages))
            ),
            released_ranks_history=st.released_history,
            cluster_events_applied=st.applied_events,
            peak_stage_bytes=st.peak_stage_bytes,
            oom_events=st.oom_events,
        )

    # -- resolve step ------------------------------------------------------
    def prewarm(
        self,
        misses: list[_Miss],
        found: dict[tuple, IterationResult | None],
    ) -> int:
        """Simulate a window's distinct cache misses in one call.

        ``misses`` holds one ``(cache key, engine, plan, states)`` per
        distinct miss, each engine frozen at its segment's placement and
        slowdowns.  A single miss runs the engine's scalar path; more go
        through one :func:`~repro.pipeline.batched.simulate_many` call,
        which is bit-identical.  Each result lands in ``found`` under its
        key and in the iteration cache.  Returns the number simulated.
        """
        if len(misses) == 1:
            _, engine, plan, states = misses[0]
            results = [engine.run_iteration(plan, states)]
        else:
            results = simulate_many(
                [(engine, plan, states) for _, engine, plan, states in misses]
            )
        for (key, _, _, _), res in zip(misses, results):
            found[key] = res
            self._cache_store(key, res)
        return len(misses)

    # -- main loop ----------------------------------------------------------
    def run(
        self,
        iterations: int | None = None,
        deadline_s: float | None = None,
    ) -> TrainingResult:
        """Run the training loop, one window of iterations at a time.

        Each window walks :meth:`_pre_iteration` forward and notes every
        iteration's cache key, resolves the window's distinct misses
        with :meth:`prewarm`, then accounts the iterations in order.  A
        run whose next iteration reads the last makespan (controller,
        trace recorder) or whose engine cannot batch uses windows of one
        iteration; other runs walk ahead until :data:`WINDOW_MISSES`
        misses are pending.  Results are bit-identical either way.

        ``deadline_s`` bounds the run's *wall-clock* time with a
        monotonic-clock check before each walked iteration, raising
        :class:`RunDeadlineExceeded` when the budget is spent.  It works
        off the main thread and without ``SIGALRM``.  Simulated time is
        unaffected.
        """
        start = time.monotonic() if deadline_s is not None else 0.0
        st = self._begin_run(iterations)
        ahead = (
            self.controller is None
            and self.trace_recorder is None
            and self.engine.can_batch
        )
        k = 0
        while k < st.iters:
            # walk: (k, charges, stage count, cache key) per iteration
            steps: list[tuple[int, list[float], int, tuple]] = []
            found: dict[tuple, IterationResult | None] = {}
            misses: list[_Miss] = []
            snapshots: dict[tuple, PipelineEngine] = {}
            while k < st.iters:
                if (
                    deadline_s is not None
                    and time.monotonic() - start > deadline_s
                ):
                    raise RunDeadlineExceeded(
                        f"exceeded {deadline_s:.0f}s budget (monotonic "
                        f"deadline check at iteration {k}/{st.iters})"
                    )
                self._pre_iteration(st, k)
                key = self._cache_key()
                steps.append((k, st.charges, self.plan.num_stages, key))
                st.charges = []
                k += 1
                if key not in found:
                    res = found[key] = self._cache_lookup(key)
                    if res is None:
                        misses.append(self._miss(key, snapshots, ahead))
                if not ahead or len(misses) >= WINDOW_MISSES:
                    break
            # resolve
            if misses:
                self.prewarm(misses, found)
            # account
            for step_k, charges, num_stages, key in steps:
                self._post_iteration(st, step_k, found[key], charges, num_stages)
        return self._finish_run(st)

    def _miss(
        self, key: tuple, snapshots: dict[tuple, PipelineEngine], frozen: bool
    ) -> _Miss:
        """The miss for the current state under cache key ``key``.

        With ``frozen`` the walk moves on before the miss is simulated,
        so the states are copied and the engine is a shallow copy per
        ``(grid, slowdowns)`` segment (the live engine's placement and
        slowdown map are replaced, never mutated, at segment changes).
        """
        if not frozen:
            return key, self.engine, self.plan, self.states
        segment = key[1:3]
        engine = snapshots.get(segment)
        if engine is None:
            engine = snapshots[segment] = copy.copy(self.engine)
        return key, engine, self.plan, [s.copy() for s in self.states]
