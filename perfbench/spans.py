"""Span recorder for the benchmark's traced runs.

Spans are recorded from outside the library: :class:`Tracer` replaces
the public entry point of each ``src/repro`` layer with a timing
wrapper, keeps every span in memory, and puts the original functions
back on :meth:`Tracer.uninstall`.  Nothing here is imported by the
library, so an untraced run executes exactly the library's own code.

A layer's *self time* is its span's duration minus the part of that
interval covered by its direct child spans, so the self times of all
spans in a run add up to the time spent inside traced calls.

Pool workers forked while a tracer is installed inherit its wrappers.
Given a ``fork_dir``, each worker starts from empty counts and, after
every spec it executes, writes its per-layer self times and counts to
``fork_dir/worker-<pid>.json``; :meth:`Tracer.merge_forks` adds them to
the parent's.  Their individual spans stay in the workers.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Sequence


@dataclass(frozen=True)
class Span:
    layer: str
    start: float
    end: float
    #: index of the enclosing span in the recorder's list, or -1
    parent: int


def self_times(spans: Sequence[Span]) -> list[float]:
    """Per span: duration minus the union of its direct children."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((s.end - s.start) - covered)
    return out


# What gets wrapped: (layer, module, attribute path).  A method is
# wrapped on its class and on every loaded subclass that overrides it;
# a module-level function is also replaced wherever another loaded
# module bound it by name (``from x import f``).  Lazy in-function
# imports read the module attribute at call time, so they see the
# wrapper too.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("experiments.build_scenario", "repro.experiments.common", "build_scenario"),
    ("experiments.make_trainer", "repro.experiments.common", "make_trainer"),
    ("dynamics.advance", "repro.dynamics.base", "DynamismScheme.advance"),
    ("trainer.prewarm", "repro.training.trainer", "Trainer.prewarm"),
    ("controller.rebalance", "repro.core.controller", "DynMoController.rebalance"),
    ("profiler.profile", "repro.core.profiler", "PipelineProfiler.profile"),
    ("balancer", "repro.core.balancers.base", "LoadBalancer.rebalance"),
    ("memory.plan_stage_bytes", "repro.model.memory", "StageMemoryModel.plan_stage_bytes"),
    ("memory.validate", "repro.cluster.placement", "validate_memory"),
    # the trainer prices plans itself and calls validate_memory only on
    # overflow, so its own check is the layer's entry; see PRICING_ONLY
    ("memory.validate", "repro.training.trainer", "Trainer._validate_memory"),
    ("engine.run_iteration", "repro.pipeline.engine", "PipelineEngine.run_iteration"),
    ("batched.simulate_many", "repro.pipeline.batched", "simulate_many"),
    ("result_cache.get", "repro.orchestrator.cache", "ResultCache.get"),
    ("result_cache.put", "repro.orchestrator.cache", "ResultCache.put"),
    ("runner.run", "repro.orchestrator.runner", "SweepRunner.run"),
)


#: targets whose calls count only when they price a plan, i.e. when a
#: traced child ran (``plan_stage_bytes`` or ``validate_memory``).  The
#: trainer calls its check every iteration and returns at once when no
#: memory model is set or the plan is unchanged since the last check.
PRICING_ONLY = frozenset({("repro.training.trainer", "Trainer._validate_memory")})


def _balancer_layer(cls: type) -> str:
    """``PartitionBalancer`` -> ``balancer.partition``."""
    name = cls.__name__
    if name.endswith("Balancer"):
        name = name[: -len("Balancer")]
    return f"balancer.{name.lower()}"


def _subclasses(cls: type) -> list[type]:
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        out.append(c)
        todo.extend(c.__subclasses__())
    return out


def target_bindings() -> tuple[list[tuple[str, Any, str, Any, bool]], list[str]]:
    """Every ``(layer, owner, attribute, function, pricing_only)`` a
    tracer replaces, and the targets the library no longer has.

    Imports the target modules (and the experiment module that imports
    every dynamism scheme), so all subclasses are loaded first.  A
    missing target's layer reads zero, so a refactor of the library
    does not break the traced run.
    """
    importlib.import_module("repro.experiments.common")
    found: list[tuple[str, Any, str, Any, bool]] = []
    missing: list[str] = []
    for layer, modname, path in TARGETS:
        gated = (modname, path) in PRICING_ONLY
        try:
            module = importlib.import_module(modname)
            owner = getattr(module, path.split(".")[0])
        except (ImportError, AttributeError):
            missing.append(f"{modname}.{path}")
            continue
        if "." in path:
            attr = path.split(".")[1]
            if not any(attr in c.__dict__ for c in _subclasses(owner)):
                missing.append(f"{modname}.{path}")
                continue
            for cls in _subclasses(owner):
                fn = cls.__dict__.get(attr)
                if fn is None or getattr(fn, "__isabstractmethod__", False):
                    continue
                name = _balancer_layer(cls) if layer == "balancer" else layer
                found.append((name, cls, attr, fn, gated))
        else:
            fn = owner
            for mod in list(sys.modules.values()):
                if (
                    getattr(mod, "__name__", "").startswith("repro")
                    and getattr(mod, path, None) is fn
                ):
                    found.append((layer, mod, path, fn, gated))
    return found, missing


class Tracer:
    """Installs timing wrappers, records spans and per-layer counts."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        #: self seconds of spans already folded away (pool workers)
        self._folded: dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: list[tuple[Any, str, Any]] = []
        self._fork_dir: Path | None = None
        self._at_fork = False
        #: in a forked pool worker: where it writes its layer totals
        self._worker_file: Path | None = None
        #: targets the library no longer has (their layers read zero)
        self.missing: list[str] = []

    # -- installation --------------------------------------------------------
    def install(self, fork_dir: str | os.PathLike[str] | None = None) -> "Tracer":
        """Wrap every target; with ``fork_dir``, also collect the layer
        totals of pool workers forked while installed."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        wrappers: dict[int, Any] = {}
        bindings, self.missing = target_bindings()
        for layer, owner, attr, fn, gated in bindings:
            wrapped = wrappers.get(id(fn))
            if wrapped is None:
                wrapped = wrappers[id(fn)] = self._wrap(layer, fn, gated)
            self._restore.append((owner, attr, fn))
            setattr(owner, attr, wrapped)
        if fork_dir is not None:
            self._fork_dir = Path(fork_dir)
            if not self._at_fork:  # at-fork hooks cannot be removed
                os.register_at_fork(after_in_child=self._forked)
                self._at_fork = True
            # pool workers run every spec through this module function,
            # looked up by name, so its return marks a finished spec
            runner = importlib.import_module("repro.orchestrator.runner")
            execute_spec = runner.execute_spec
            self._restore.append((runner, "execute_spec", execute_spec))
            runner.execute_spec = self._flushing(execute_spec)
        return self

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, fn = self._restore.pop()
            setattr(owner, attr, fn)

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, layer: str, fn: Callable[..., Any], pricing_only: bool = False) -> Callable[..., Any]:
        observe = _OBSERVERS.get("balancer" if layer.startswith("balancer.") else layer)
        spans, counts = self.spans, self.counts

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = self._stack()
            parent = stack[-1] if stack else -1
            outer = parent < 0 or spans[parent].layer != layer
            with self._lock:
                idx = len(spans)
                spans.append(Span(layer, 0.0, 0.0, parent))  # placeholder
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = Span(layer, start, end, parent)
            if pricing_only and len(spans) == idx + 1:
                # priced nothing (no traced child ran): not a validation
                with self._lock:
                    if len(spans) == idx + 1:
                        spans.pop()
                        return result
            if outer:
                counts[f"{layer}.calls"] += 1
                if observe is not None:
                    observe(counts, layer, args, result, spans, parent)
            return result

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        wrapper.__name__ = getattr(fn, "__name__", layer)
        wrapper.__qualname__ = getattr(fn, "__qualname__", layer)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    # -- pool workers ----------------------------------------------------------
    def _forked(self) -> None:
        """In a child forked while installed: start from empty totals."""
        if not self._restore or self._fork_dir is None:
            return
        self.spans.clear()
        self.counts.clear()
        self._folded.clear()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._worker_file = self._fork_dir / f"worker-{os.getpid()}.json"

    def _flushing(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            result = fn(*args, **kwargs)
            if self._worker_file is not None and not self._stack():
                self._flush_worker()
            return result

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    def _flush_worker(self) -> None:
        """Fold the finished spans away and write this worker's totals."""
        for span, t in zip(self.spans, self_times(self.spans)):
            self._folded[span.layer] += t
        self.spans.clear()
        assert self._worker_file is not None
        tmp = self._worker_file.with_suffix(".tmp")
        tmp.write_text(json.dumps({"self_s": self._folded, "counts": self.counts}))
        os.replace(tmp, self._worker_file)

    def merge_forks(self) -> int:
        """Add the pool workers' totals; returns how many were merged."""
        if self._fork_dir is None:
            return 0
        files = sorted(self._fork_dir.glob("worker-*.json"))
        for path in files:
            data = json.loads(path.read_text())
            for layer, t in data["self_s"].items():
                self._folded[layer] += t
            for name, n in data["counts"].items():
                self.counts[name] += n
        return len(files)

    # -- results -------------------------------------------------------------
    def self_seconds(self) -> dict[str, float]:
        """Summed self time per layer, pool workers' included once merged."""
        out: dict[str, float] = defaultdict(float, self._folded)
        for span, t in zip(self.spans, self_times(self.spans)):
            out[span.layer] += t
        return dict(out)

    def write_chrome_trace(self, path: str) -> None:
        """Chrome trace-event JSON (chrome://tracing, Perfetto)."""
        t0 = self.spans[0].start if self.spans else 0.0
        events = [
            {
                "name": s.layer,
                "cat": s.layer.split(".")[0],
                "ph": "X",
                "ts": (s.start - t0) * 1e6,
                "dur": (s.end - s.start) * 1e6,
                "pid": 0,
                "tid": 0,
                "args": {"id": i, "parent": s.parent},
            }
            for i, s in enumerate(self.spans)
        ]
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


# -- per-layer counters read off arguments and results -------------------------


def _obs_prewarm(counts, layer, args, result, spans, parent) -> None:
    counts["trainer.prewarm_keys"] += int(result)
    counts["trainer.prewarm_skips"] += int(result) == 0


def _obs_controller(counts, layer, args, result, spans, parent) -> None:
    counts["controller.repacks"] += bool(result.repacked)
    counts["controller.oom_rejections"] += bool(result.oom_rejected)


def _obs_balancer(counts, layer, args, result, spans, parent) -> None:
    counts["balancer.improved"] += bool(result.improved)


def _obs_simulate_many(counts, layer, args, result, spans, parent) -> None:
    counts["batched.lanes"] += len(args[0])


def _obs_run_iteration(counts, layer, args, result, spans, parent) -> None:
    # scalar fallbacks inside simulate_many are already counted as lanes
    if parent < 0 or spans[parent].layer != "batched.simulate_many":
        counts["engine.top_level_calls"] += 1


def _obs_cache_get(counts, layer, args, result, spans, parent) -> None:
    counts["result_cache.hits"] += result is not None


_OBSERVERS: dict[str, Callable[..., None]] = {
    "trainer.prewarm": _obs_prewarm,
    "controller.rebalance": _obs_controller,
    "balancer": _obs_balancer,
    "batched.simulate_many": _obs_simulate_many,
    "engine.run_iteration": _obs_run_iteration,
    "result_cache.get": _obs_cache_get,
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    tracer: Tracer,
    *,
    sim_iterations: int,
    busy_s: float,
    workers: int,
    wall_s: float,
    warm_wall_s: float,
) -> dict[str, float]:
    """The per-layer metrics of one traced repetition.

    ``sim_iterations`` is the sum of ``spec.iterations`` over records
    executed (not served from cache) in this process; it is the base of
    ``trainer.iter_cache_hit_ratio``.
    """
    c = tracer.counts
    t = tracer.self_seconds()
    lanes = c["batched.lanes"] + c["engine.top_level_calls"]
    balancer_calls = sum(v for k, v in c.items() if k.startswith("balancer.") and k.endswith(".calls"))
    return {
        "experiments.build_s": t.get("experiments.build_scenario", 0.0)
        + t.get("experiments.make_trainer", 0.0),
        "experiments.builds": c["experiments.build_scenario.calls"],
        "dynamics.advance_s": t.get("dynamics.advance", 0.0),
        "dynamics.advance_calls": c["dynamics.advance.calls"],
        "trainer.prewarm_s": t.get("trainer.prewarm", 0.0),
        "trainer.prewarm_calls": c["trainer.prewarm.calls"],
        "trainer.prewarm_keys": c["trainer.prewarm_keys"],
        "trainer.prewarm_skips": c["trainer.prewarm_skips"],
        "trainer.sim_iterations": float(sim_iterations),
        "trainer.engine_lanes": lanes,
        "trainer.iter_cache_hit_ratio": 1.0 - _ratio(lanes, sim_iterations) if sim_iterations else 0.0,
        "controller.rebalance_s": t.get("controller.rebalance", 0.0),
        "controller.rebalance_calls": c["controller.rebalance.calls"],
        "controller.repacks": c["controller.repacks"],
        "controller.oom_rejections": c["controller.oom_rejections"],
        "profiler.profile_s": t.get("profiler.profile", 0.0),
        "profiler.profile_calls": c["profiler.profile.calls"],
        "balancer.partition_s": t.get("balancer.partition", 0.0),
        "balancer.partition_calls": c["balancer.partition.calls"],
        "balancer.diffusion_s": t.get("balancer.diffusion", 0.0),
        "balancer.diffusion_calls": c["balancer.diffusion.calls"],
        "balancer.improved_ratio": _ratio(c["balancer.improved"], balancer_calls),
        "memory.plan_stage_bytes_s": t.get("memory.plan_stage_bytes", 0.0),
        "memory.plan_stage_bytes_calls": c["memory.plan_stage_bytes.calls"],
        "memory.validate_s": t.get("memory.validate", 0.0),
        "memory.validate_calls": c["memory.validate.calls"],
        "engine.run_iteration_s": t.get("engine.run_iteration", 0.0),
        "engine.run_iteration_calls": c["engine.run_iteration.calls"],
        "batched.simulate_many_s": t.get("batched.simulate_many", 0.0),
        "batched.simulate_many_calls": c["batched.simulate_many.calls"],
        "batched.lanes": c["batched.lanes"],
        "batched.lane_width_mean": _ratio(c["batched.lanes"], c["batched.simulate_many.calls"]),
        "result_cache.get_s": t.get("result_cache.get", 0.0),
        "result_cache.gets": c["result_cache.get.calls"],
        "result_cache.put_s": t.get("result_cache.put", 0.0),
        "result_cache.puts": c["result_cache.put.calls"],
        "result_cache.hit_ratio": _ratio(c["result_cache.hits"], c["result_cache.get.calls"]),
        "result_cache.warm_rerun_s": warm_wall_s,
        "runner.self_s": t.get("runner.run", 0.0),
        "pool.worker_busy_s": busy_s,
        "pool.utilisation": _ratio(busy_s, workers * wall_s),
    }

