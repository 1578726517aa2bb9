"""One repetition of a workload, in a fresh interpreter.

``run.py`` starts this script once per repetition, so every repetition
pays what a user's ``repro`` command pays: interpreter start, imports,
a cold worker pool and a cold result cache.  It writes one JSON object
to ``--out``:

- with ``--setup-only``: ``setup_s``, the seconds from ``--t0`` (the
  parent's ``time.monotonic()`` just before it started this process) to
  the first call into ``SweepRunner.run``; the workload is not run;
- otherwise: the repetition's wall time, record digests, the sampled
  records for the output check, peak memory and, with ``--trace``,
  the per-layer metrics from :mod:`spans`, whose spans it also writes
  to the ``--trace`` file.

Both also give ``scale``, the :mod:`calib` factor that turns the host
seconds they measured into reference-host seconds: from reference
chunks timed right after set-up, or from the chunks that the sampler
interleaved with the workload (in this process and its pool workers)
during the runner call.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(1, str(ROOT / "src"))

import calib  # noqa: E402
import workloads as wl  # noqa: E402  (needs src/ on the path)


class _SetupDone(Exception):
    pass


def sample_indices(n: int, seed: int) -> list[int]:
    """The records re-simulated by the output check."""
    return sorted(random.Random(seed).sample(range(n), min(2, n)))


def _children_peak_mb() -> float:
    """Summed peak RSS of this process's live children (pool workers)."""
    total_kb = 0
    for task in Path("/proc/self/task").glob("*/children"):
        for pid in task.read_text().split():
            try:
                status = Path(f"/proc/{pid}/status").read_text()
            except OSError:
                continue  # exited meanwhile
            for line in status.splitlines():
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
    return total_kb / 1024


def _setup_only(w: wl.Workload, cache_dir: Path, t0: float) -> dict:
    from repro.orchestrator.runner import SweepRunner

    reached: list[float] = []

    def first_call(self, specs):
        reached.append(time.monotonic())
        raise _SetupDone

    SweepRunner.run = first_call  # this process exits right after
    try:
        wl.execute(w, cache_dir)
    except _SetupDone:
        pass
    if not reached:
        raise RuntimeError("workload never reached SweepRunner.run")
    # set-up is not sampled: it is too short, and mostly imports
    return {"setup_s": reached[0] - t0, "scale": calib.scale_now()}


def _repetition(
    w: wl.Workload, cache_dir: Path, args: argparse.Namespace, sampler: calib.Sampler | None = None
) -> dict:
    tracer = None
    if args.trace:
        from spans import Tracer

        fork_dir = Path(tempfile.mkdtemp(prefix="workers-", dir=args.work))
        tracer = Tracer().install(fork_dir=fork_dir)
    try:
        out = wl.execute(w, cache_dir)
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024 + _children_peak_mb()
    records = out.records
    busy_s = sum(r.duration_s for r in records if not r.cached)
    workers = w.workers or 1
    result = {
        "wall_s": out.wall_s,
        "scale": calib.scale(sampler.samples(), *out.window) if sampler is not None else None,
        "warm_wall_s": out.warm_wall_s,
        "records": len(records),
        "failed": sum(r.status in wl.FAILED_STATUSES for r in records),
        "sim_iters": wl.sim_iterations(records),
        "digest": wl.digest(records),
        "warm_digest": wl.digest(out.warm_records) if out.warm_records is not None else None,
        "sampled": [wl.record_payload(records[i]) for i in sample_indices(len(records), args.seed)],
        "peak_rss_mb": peak_mb,
    }
    if tracer is not None:
        from spans import layer_metrics

        result["workers_merged"] = tracer.merge_forks()
        result["layers"] = layer_metrics(
            tracer,
            sim_iterations=wl.sim_iterations(records, executed_only=True),
            busy_s=busy_s,
            workers=workers,
            wall_s=out.wall_s,
            warm_wall_s=out.warm_wall_s,
        )
        result["missing_targets"] = tracer.missing
        tracer.write_chrome_trace(args.trace)
    return result


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=wl.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--work", required=True, help="scratch directory for result caches")
    ap.add_argument("--out", required=True, help="write the JSON result here")
    ap.add_argument("--t0", type=float, default=0.0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", metavar="FILE", help="trace, and write Chrome trace events here")
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)

    w = wl.make(args.workload, args.seed, tiny=args.tiny)
    cache_dir = Path(tempfile.mkdtemp(prefix="cache-", dir=args.work))
    if args.setup_only:
        result = _setup_only(w, cache_dir, args.t0)
    else:
        fork_dir = Path(tempfile.mkdtemp(prefix="samples-", dir=args.work))
        sampler = calib.Sampler(fork_dir).start()
        try:
            result = _repetition(w, cache_dir, args, sampler)
        finally:
            sampler.stop()
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
