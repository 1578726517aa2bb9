"""Balancer microbenchmark: prefix-sum balancers vs the scalar-loop oracle.

Replays seeded controller-like inputs — 26 profiled layer times (the
gpt-24 shape: embedding, 24 blocks, head) drifting the way pruning,
freezing and early exit move them, starting from the plan balanced
for the previous weights — through ``partition_balanced`` and
``DiffusionBalancer.rebalance`` and through the original scalar-loop
implementations kept in ``tests/balancer_oracle.py``.  Every plan must
be identical (the run aborts otherwise); the artifact records per-call
times and the oracle/new ``speedup`` for S in {4, 8, 16}, with and
without a per-stage memory constraint.

End-to-end share: the two balancers are the only code this moves.
On the ``perfbench`` ``dynmo-serial`` workload they were about 29% of
traced host time before the prefix-sum rewrite (``balancer.partition_s``
0.70 s + ``balancer.diffusion_s`` 0.39 s of 3.75 s), so a collapse of
these speedups shows up there first; static workloads never call them.

Runs standalone from the repository root::

    python benchmarks/bench_balancers.py --json BENCH_balancers.json

or under pytest (one smoke case asserting identical plans and a >= 1.5x
speedup on every case).
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

import balancer_oracle as oracle  # noqa: E402
from repro.core.balancers.diffusion import DiffusionBalancer  # noqa: E402
from repro.core.balancers.partition import partition_balanced  # noqa: E402

NUM_LAYERS = 26
STAGES = (4, 8, 16)
INPUTS = 24  # seeded inputs per case


def _inputs(S: int, with_memory: bool, seed: int) -> list[tuple]:
    """``(start plan, weights, memory, capacities)`` per drift step."""
    rng = np.random.default_rng(seed)
    base = np.r_[0.6, np.ones(NUM_LAYERS - 2), 0.9]
    mem = np.r_[1.4, np.ones(NUM_LAYERS - 2), 1.2]
    caps = np.full(S, mem.sum() / S * 1.35)
    out = []
    w = base * rng.uniform(0.9, 1.1, NUM_LAYERS)
    plan = oracle.partition_balanced(w, S)
    for _ in range(INPUTS):
        # drift: scattered sparsification plus a frozen / exited block run
        w = w * rng.uniform(0.7, 1.0, NUM_LAYERS)
        k = int(rng.integers(0, NUM_LAYERS - 4))
        w[k : k + int(rng.integers(1, 4))] *= 0.05
        out.append((plan, w.copy(), mem if with_memory else None,
                    caps if with_memory else None))
        plan = oracle.partition_balanced(w, S)
    return out


def _partition(fn, case: tuple):
    plan, w, mem, caps = case
    cap = None if caps is None else float(caps.min())
    return fn(w, plan.num_stages, mem, cap).boundaries


def _diffusion(cls, case: tuple):
    plan, w, mem, caps = case
    r = cls(gamma=1e-3 * float(w.sum())).rebalance(plan, w, mem, caps)
    return r.plan.boundaries, r.rounds, r.potential_trace, r.loads_after.tolist()


def _time(fn, impl, cases: list[tuple], repeats: int) -> tuple[float, list]:
    """Best-of-``repeats`` mean ms per call, and the outputs."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        outs = [fn(impl, c) for c in cases]
        best = min(best, time.perf_counter() - t0)
    return best / len(cases) * 1e3, outs


def run_grid(repeats: int = 5) -> list[dict]:
    kinds = (
        ("partition", _partition, partition_balanced, oracle.partition_balanced),
        ("diffusion", _diffusion, DiffusionBalancer, oracle.OracleDiffusionBalancer),
    )
    rows = []
    for name, fn, new, ref in kinds:
        for S in STAGES:
            for with_memory in (False, True):
                cases = _inputs(S, with_memory, seed=S)
                fast_ms, got = _time(fn, new, cases, repeats)
                ref_ms, want = _time(fn, ref, cases, repeats)
                if got != want:
                    raise AssertionError(f"{name} S={S}: plans differ from the oracle")
                rows.append(
                    {
                        "case": f"{name}-S{S}-{'mem' if with_memory else 'nomem'}",
                        "stages": S,
                        "memory": with_memory,
                        "fast_ms": fast_ms,
                        "reference_ms": ref_ms,
                        "speedup": ref_ms / fast_ms if fast_ms > 0 else float("inf"),
                    }
                )
    return rows


def test_balancer_speedup(once):
    """Smoke: identical plans, and the rewrite at least 1.5x the oracle
    on every case (shared runners are noisy; the committed baseline
    pins the real figures via the regression gate)."""
    rows = once(run_grid, repeats=2)
    print()
    for r in rows:
        print(
            f"{r['case']:<24} new {r['fast_ms']:.3f} ms "
            f"oracle {r['reference_ms']:.3f} ms ({r['speedup']:.1f}x)"
        )
    assert all(r["speedup"] >= 1.5 for r in rows)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--json", default="BENCH_balancers.json", help="output artifact path")
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args(argv)
    rows = run_grid(repeats=args.repeats)
    artifact = {
        "benchmark": "balancers",
        "python": platform.python_version(),
        "cases": rows,
    }
    with open(args.json, "w") as fh:
        json.dump(artifact, fh, indent=2)
        fh.write("\n")
    width = max(len(r["case"]) for r in rows)
    for r in rows:
        print(
            f"{r['case']:<{width}}  new {r['fast_ms']:7.3f} ms"
            f"  oracle {r['reference_ms']:7.3f} ms  speedup {r['speedup']:5.1f}x"
        )
    print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
