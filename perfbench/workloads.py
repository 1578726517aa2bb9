"""The benchmark's workloads: spec grids and the facade calls that run them.

Every workload is generated from one seed ``S`` and runs through the
public ``repro`` facade (``repro.sweep`` / ``repro.ensemble``) exactly
as a user's command would.  See ``WORKLOADS.md`` for why each exists
and which layers it loads or leaves idle.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence

import repro
from repro import ExecutionPolicy, RunSpec
from repro.experiments.common import SCENARIOS
from repro.orchestrator.runner import SweepRunner

NAMES = ("static-batched", "dynmo-serial", "ensemble-default", "sweep-pool")

#: the seed whose output digests are committed in ``digests.json``
DEFAULT_SEED = 0

#: record statuses that count as a failed run
FAILED_STATUSES = ("error", "timeout", "crashed")

#: layers a workload must leave idle; the traced run warns otherwise
IDLE_LAYERS: dict[str, tuple[str, ...]] = {
    "static-batched": (
        "controller.rebalance_calls",
        "profiler.profile_calls",
        "balancer.partition_calls",
        "balancer.diffusion_calls",
        # no memory limit, so the trainer has no memory model to price
        "memory.plan_stage_bytes_calls",
        "memory.validate_calls",
    ),
    "dynmo-serial": ("batched.simulate_many_calls",),
}

# Reduced sizes for the benchmark's own smoke tests only.
_TINY_SCENARIOS = ("pruning", "freezing")


def pool_workers() -> int:
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        cpus = os.cpu_count() or 1
    return max(1, min(2, cpus))


@dataclass(frozen=True)
class Workload:
    name: str
    #: the runs of a sweep, or the base specs of an ensemble
    specs: tuple[RunSpec, ...]
    backend: str
    workers: int | None = None
    #: run against a fresh result-cache directory
    cached: bool = False
    #: > 0: ``repro.ensemble`` with this many sampled traces per base,
    #: then the same call again against the now-warm cache
    ensemble_n: int = 0
    seed0: int = 0

    def call(self, cache_dir: Path) -> Callable[[], list[Any]]:
        """The user's facade call; returns its run records."""
        policy = ExecutionPolicy(self.backend, workers=self.workers)
        cache = str(cache_dir) if self.cached else None
        if self.ensemble_n:
            return lambda: repro.ensemble(
                list(self.specs), self.ensemble_n, policy, seed0=self.seed0, cache=cache
            ).records
        return lambda: repro.sweep(list(self.specs), policy, cache=cache)


def make(name: str, seed: int, tiny: bool = False) -> Workload:
    """Workload ``name`` for workload seed ``seed``.

    The grids are the user commands' own; iteration and draw counts are
    cut so that one repetition takes about 2.5-3.5 s on a 2-CPU host
    (sweep-pool, at full size, 4.5 s).  A 30 s run then fits five to ten
    repetitions, and their median rejects the short slowdowns a shared
    host has.
    """
    scenarios = _TINY_SCENARIOS if tiny else SCENARIOS
    if name == "static-batched":
        specs = [
            RunSpec(
                scenario=s,
                mode=m,
                num_layers=24 if tiny else 48,
                iterations=20 if tiny else 200,
                seed=seed,
            )
            for s in scenarios
            for m in ("megatron", "deepspeed")
        ]
        return Workload(name, tuple(specs), "batched")
    if name == "dynmo-serial":
        base = RunSpec(
            scenario="pruning",
            num_layers=24,
            iterations=20 if tiny else 120,
            seed=seed,
            memory_limit="auto",
        )
        specs = [
            base.with_(scenario=s, mode=m)
            for s in scenarios
            for m in ("dynmo-partition", "dynmo-diffusion")
        ]
        repacked = scenarios[:1] if tiny else ("pruning", "freezing", "early_exit")
        specs += [base.with_(scenario=s, mode="dynmo-partition", repack=True) for s in repacked]
        return Workload(name, tuple(specs), "inline")
    if name == "ensemble-default":
        bases = [
            RunSpec(scenario="pruning", mode=m, iterations=20 if tiny else 150, seed=seed)
            for m in ("megatron", "dynmo-partition")
        ]
        return Workload(
            name,
            tuple(bases),
            "batched",
            cached=True,
            ensemble_n=4 if tiny else 16,
            seed0=seed,
        )
    if name == "sweep-pool":
        specs = [
            RunSpec(scenario=s, mode=m, iterations=20 if tiny else 150, seed=sd)
            for sd in range(seed, seed + (1 if tiny else 3))
            for s in scenarios
            for m in ("megatron", "dynmo-partition")
        ]
        return Workload(name, tuple(specs), "pool", workers=pool_workers(), cached=True)
    raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")


@dataclass
class Outcome:
    records: list[Any]
    wall_s: float
    #: ``time.monotonic()`` at entry into and return from the runner call
    window: tuple[float, float]
    #: the ensemble's re-run against its warm cache (None elsewhere)
    warm_records: list[Any] | None = None
    warm_wall_s: float = 0.0


@contextmanager
def runner_clock() -> Iterator[list[tuple[float, float]]]:
    """Times every ``SweepRunner.run`` call made while active.

    Yields a list that receives each call's ``time.monotonic()`` at
    entry and at return.  This one wrapper is all an untraced
    repetition adds to the library; it starts ``wall_s`` at the runner
    call, so the facade's own work before it (the ensemble's trace
    sampling) is set-up.
    """
    windows: list[tuple[float, float]] = []
    run = SweepRunner.run  # a tracer's wrapper, when tracing

    def timed(self: SweepRunner, specs: Sequence[RunSpec]) -> list[Any]:
        t0 = time.monotonic()
        try:
            return run(self, specs)
        finally:
            windows.append((t0, time.monotonic()))

    SweepRunner.run = timed  # type: ignore[method-assign]
    try:
        yield windows
    finally:
        SweepRunner.run = run  # type: ignore[method-assign]


def execute(w: Workload, cache_dir: Path) -> Outcome:
    """Run ``w`` once; ``wall_s`` is the runner call, until its last record lands."""
    call = w.call(cache_dir)
    with runner_clock() as windows:
        records = call()
        warm = call() if w.ensemble_n else None
    if len(windows) != (2 if w.ensemble_n else 1):
        raise RuntimeError(f"expected one SweepRunner.run per call, timed {len(windows)}")
    (t0, t1), *rest = windows
    warm_wall_s = rest[0][1] - rest[0][0] if rest else 0.0
    return Outcome(records, t1 - t0, (t0, t1), warm, warm_wall_s)


def sim_iterations(records: Sequence[Any], *, executed_only: bool = False) -> int:
    """Sum of ``spec.iterations`` over records that ran to a verdict."""
    return sum(
        r.spec.iterations
        for r in records
        if r.status in ("ok", "oom") and not (executed_only and r.cached)
    )


# -- output check ------------------------------------------------------------


def record_payload(record: Any) -> str:
    """Canonical JSON of what a run computed.

    Leaves out the wall-time fields (``duration_s``, ``cached``) as
    ``scripts/compare_sweep_json.py`` does, and ``spec_hash``, which
    folds in ``repro.__version__``: a version bump is not a wrong answer.
    """
    return json.dumps(
        {"spec": record.spec.to_dict(), "status": record.status, "metrics": record.metrics},
        sort_keys=True,
        separators=(",", ":"),
    )


def digest(records: Sequence[Any]) -> str:
    h = hashlib.blake2b(digest_size=16)
    for r in records:
        h.update(record_payload(r).encode())
        h.update(b"\n")
    return h.hexdigest()
