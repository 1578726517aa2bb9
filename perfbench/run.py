"""End-to-end benchmark of the simulator's user workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload static-batched --seed 0 --seconds 30 --trace 0

Runs one workload (see ``WORKLOADS.md``) for about ``--seconds``
seconds of repetitions, each in a fresh interpreter, checks the
outputs, and prints as its last line one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones of
``BENCHMARK.json``: medians over the repetitions, and for ``setup_s``
over the set-up probe run before each repetition.  Each repetition's
and probe's time is first scaled to reference-host seconds by the
:mod:`calib` reference chunks timed in it (see there why).  With
``--trace 1`` every other repetition is traced and the metrics are the
per-layer ones, plus the tracing overhead against the untraced
repetitions of the same run.

The output check digests every record's spec, status and metrics; the
digest must agree across repetitions (and with the warm-cache re-run),
must equal the committed one in ``digests.json`` for the default seed,
and two sampled records must come out identical from ``repro.simulate``.
Any mismatch is counted as a failed run and fails the command.

Exit codes: 0 on a correct run, 1 when the output check or a run
fails, 2 when the repository's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: fewest set-up probes in an untraced run; setup_s is their median
MIN_SETUP_PROBES = 5
#: every child process must be done this long after start
HARD_LIMIT_S = 170.0


class BenchError(Exception):
    """The benchmark could not produce a result."""


class _Child:
    """Runs ``rep.py`` in a fresh interpreter within the run's deadline."""

    def __init__(self, args: argparse.Namespace, work: Path, started: float) -> None:
        self.args = args
        self.work = work
        self.started = started
        self.count = 0

    def __call__(self, *extra: str) -> dict:
        self.count += 1
        out = self.work / f"rep-{self.count}.json"
        cmd = [
            sys.executable,
            str(HERE / "rep.py"),
            "--workload", self.args.workload,
            "--seed", str(self.args.seed),
            "--work", str(self.work),
            "--out", str(out),
            *(["--tiny"] if self.args.tiny else []),
            *extra,
        ]
        remaining = HARD_LIMIT_S - (time.monotonic() - self.started)
        if remaining <= 0:
            raise BenchError("out of time before the next repetition")
        t0 = time.monotonic()
        # own session, so a timeout kills the pool workers too
        proc = subprocess.Popen(
            cmd + ["--t0", repr(t0)],
            cwd=ROOT,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            env={**os.environ, "TMPDIR": str(self.work)},
            start_new_session=True,
        )
        try:
            _, err = proc.communicate(timeout=remaining)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"repetition exceeded the {HARD_LIMIT_S:.0f}s run limit")
        if proc.returncode != 0:
            tail = err.decode(errors="replace").strip().splitlines()[-15:]
            raise BenchError(
                f"repetition exited with {proc.returncode}:\n" + "\n".join(tail)
            )
        return json.loads(out.read_text())


def _check_outputs(args: argparse.Namespace, reps: list[dict], notes: list[str]) -> int:
    """The output check; returns how many checks failed."""
    import workloads as wl
    import repro

    failed = 0
    ref = reps[0]["digest"]
    for i, rep in enumerate(reps):
        if rep["digest"] != ref:
            failed += 1
            notes.append(f"repetition {i + 1}: digest {rep['digest']} != {ref}")
        if rep["warm_digest"] not in (None, rep["digest"]):
            failed += 1
            notes.append(f"repetition {i + 1}: warm-cache re-run returned different records")

    committed_path = HERE / "digests.json"
    committed = json.loads(committed_path.read_text()) if committed_path.exists() else {}
    if args.seed == wl.DEFAULT_SEED and not args.tiny and committed.get(args.workload) != ref:
        failed += 1
        notes.append(
            f"digest {ref} != committed {committed.get(args.workload)} "
            f"for {args.workload} seed {args.seed}; if the results changed on "
            f"purpose, copy the new digest into {committed_path.name}"
        )

    for payload in reps[0]["sampled"]:
        spec = repro.RunSpec.from_dict(json.loads(payload)["spec"])
        again = wl.record_payload(repro.simulate(spec))
        if again != payload:
            failed += 1
            notes.append(f"repro.simulate disagrees with the sweep on {spec.label}")
    return failed


def _units() -> dict[str, tuple[str, str]]:
    """Metric name -> (unit, section) from ``BENCHMARK.json``."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        m["name"]: (m["unit"], section)
        for section in ("end_to_end", "per_layer")
        for m in bench[section]
    }


def _measure(args: argparse.Namespace, work: Path) -> tuple[dict, int, int, list[str]]:
    import workloads as wl

    child = _Child(args, work, time.monotonic())
    trace_file = ROOT / ".perfbench-work" / "traces" / f"{args.workload}-seed{args.seed}.json"

    setup: list[dict] = []
    untraced: list[dict] = []
    traced: list[dict] = []
    durations: list[float] = []
    t_measure = time.monotonic()
    while True:
        t0 = time.monotonic()
        if not args.trace:
            # one probe per repetition, so that setup_s samples the same
            # stretch of the host's time as wall_s does
            setup.append(child("--setup-only"))
        if args.trace and len(untraced) > len(traced):
            trace_file.parent.mkdir(parents=True, exist_ok=True)
            traced.append(child("--trace", str(trace_file)))
        else:
            untraced.append(child())
        durations.append(time.monotonic() - t0)
        if args.trace and not traced:
            continue
        # start another repetition only if a typical one still fits
        if time.monotonic() - t_measure + statistics.median(durations) > args.seconds:
            break
    while not args.trace and len(setup) < MIN_SETUP_PROBES:
        setup.append(child("--setup-only"))

    reps = untraced + traced
    notes = [
        f"{args.workload} seed {args.seed}: {len(untraced)} untraced + {len(traced)} traced "
        f"repetitions and {len(setup)} set-up probes in {time.monotonic() - t_measure:.1f}s",
        "wall_s per repetition, host seconds: " + " ".join(f"{r['wall_s']:.3f}" for r in reps),
        "scaled to reference-host seconds by: " + " ".join(f"{r['scale']:.3f}" for r in reps),
    ]
    check_failures = _check_outputs(args, reps, notes)
    attempted = sum(r["records"] for r in reps) + sum(len(r["sampled"]) for r in reps[:1])
    failed = sum(r["failed"] for r in reps) + check_failures

    wall = statistics.median([r["wall_s"] * r["scale"] for r in untraced])
    if not args.trace:
        metrics = {
            "setup_s": statistics.median([p["setup_s"] * p["scale"] for p in setup]),
            "wall_s": wall,
            "sim_iters_per_s": statistics.median(
                [r["sim_iters"] / (r["wall_s"] * r["scale"]) for r in untraced]
            ),
            "peak_rss_mb": statistics.median([r["peak_rss_mb"] for r in untraced]),
            "ok_frac": 1.0 - failed / attempted,
        }
    else:
        names = traced[0]["layers"].keys()
        metrics = {n: statistics.median([r["layers"][n] for r in traced]) for n in names}
        metrics["trace.overhead_frac"] = (
            statistics.median([r["wall_s"] * r["scale"] for r in traced]) / wall - 1.0
        )
        idle = [n for n in wl.IDLE_LAYERS.get(args.workload, ()) if metrics[n] != 0]
        for n in idle:
            msg = f"WARNING: {args.workload} should leave {n} at 0, got {metrics[n]:g}"
            print(f"perfbench: {msg}", file=sys.stderr)
            notes.append(msg)
        for target in traced[0]["missing_targets"]:
            notes.append(f"trace target {target} is gone from the library; its layer reads 0")
        workers = traced[0]["workers_merged"]
        if workers:
            notes.append(
                f"per-layer metrics include {workers} pool workers' totals; "
                "the chrome trace shows the parent's spans only"
            )
        notes.append(f"chrome trace: {trace_file}")
    return metrics, attempted, failed, notes


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="reduced sizes, for the self-tests")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro under {ROOT}; run from a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(1, str(ROOT / "src"))
    import workloads as wl

    if args.workload not in wl.NAMES:
        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(wl.NAMES)}")

    (ROOT / ".perfbench-work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".perfbench-work"))
    try:
        metrics, attempted, failed, notes = _measure(args, work)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = _units()
    section = "per_layer" if args.trace else "end_to_end"
    declared = {n for n, (_, s) in units.items() if s == section}
    if declared != set(metrics):
        print(
            f"perfbench: metrics {sorted(set(metrics) ^ declared)} do not match "
            f"BENCHMARK.json's {section}",
            file=sys.stderr,
        )
        return 1
    for line in notes:
        print(f"perfbench: {line}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    n: {"value": v, "unit": units[n][0]} for n, v in sorted(metrics.items())
                },
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
