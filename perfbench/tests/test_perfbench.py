"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import calib  # noqa: E402
import rep  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402
from repro import RunRecord, RunSpec  # noqa: E402


def _declared(section: str) -> dict[str, str]:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench[section]}


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def test_benchmark_json_lists_the_workloads() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(wl.NAMES)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", wl.NAMES)
def test_tiny_run_prints_every_metric_with_its_unit(workload: str, trace: str) -> None:
    proc = _run(
        "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", trace, "--tiny"
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = _declared("per_layer" if trace == "1" else "end_to_end")
    assert {n: m["unit"] for n, m in result["metrics"].items()} == declared
    assert "WARNING" not in proc.stderr  # idle layers stayed idle


def test_bare_directory_fails_without_a_result(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "static-batched", "--seed", "0", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_self_time_subtracts_the_union_of_direct_children() -> None:
    S = spans.Span
    tree = [
        S("root", 0.0, 10.0, -1),
        S("a", 1.0, 4.0, 0),
        S("a.inner", 2.0, 3.0, 1),  # only covers a, not root
        S("b", 5.0, 6.0, 0),
        S("c", 5.5, 7.0, 0),  # overlaps b: the union [5, 7] counts once
    ]
    assert spans.self_times(tree) == pytest.approx([5.0, 2.0, 1.0, 1.0, 1.5])


def _record(**changes: object) -> RunRecord:
    fields = dict(
        spec=RunSpec(scenario="pruning"),
        spec_hash="0123456789abcdef",
        status="ok",
        duration_s=1.25,
        cached=False,
        metrics={"tokens_per_s": 1000.0, "history": [[0, 0.5]]},
    )
    fields.update(changes)
    return RunRecord(**fields)  # type: ignore[arg-type]


def test_digest_ignores_wall_time_fields_but_catches_a_changed_metric() -> None:
    base = wl.digest([_record()])
    assert wl.digest([_record(duration_s=9.0, cached=True, spec_hash="f" * 16)]) == base
    assert wl.digest([_record(metrics={"tokens_per_s": 1000.5, "history": [[0, 0.5]]})]) != base
    assert wl.digest([_record(status="oom")]) != base
    assert wl.digest([_record(spec=RunSpec(scenario="pruning", seed=1))]) != base


def _bound_attributes() -> list[tuple[object, str, object]]:
    bindings, missing = spans.target_bindings()
    assert not missing
    return [(owner, attr, fn) for _, owner, attr, fn, _ in bindings]


def test_untraced_run_leaves_the_library_unwrapped(tmp_path: Path) -> None:
    originals = _bound_attributes()
    w = wl.make("static-batched", 1, tiny=True)
    args = argparse.Namespace(trace=None, seed=1)
    result = rep._repetition(w, tmp_path, args)
    assert "layers" not in result
    for owner, attr, fn in originals:
        assert owner.__dict__[attr] is fn

    tracer = spans.Tracer().install()
    try:
        for owner, attr, fn in originals:
            assert owner.__dict__[attr] is not fn
            assert owner.__dict__[attr].__wrapped__ is fn
        wl.execute(w, tmp_path)
    finally:
        tracer.uninstall()
    assert tracer.counts["batched.simulate_many.calls"] > 0
    for owner, attr, fn in originals:
        assert owner.__dict__[attr] is fn


def test_traced_pool_run_merges_the_workers_totals(tmp_path: Path) -> None:
    # the pool workers run every spec, including each Trainer.prewarm
    w = wl.make("sweep-pool", 1, tiny=True)
    args = argparse.Namespace(trace=str(tmp_path / "trace.json"), seed=1, work=str(tmp_path))
    result = rep._repetition(w, tmp_path, args)
    layers = result["layers"]
    assert result["workers_merged"] >= 1
    assert layers["trainer.prewarm_calls"] > 0
    assert layers["experiments.builds"] == len(w.specs)
    assert 0.0 < layers["trainer.iter_cache_hit_ratio"] < 1.0


def test_memory_checks_that_price_nothing_are_not_counted(tmp_path: Path) -> None:
    args = argparse.Namespace(trace=str(tmp_path / "trace.json"), seed=1, work=str(tmp_path))
    off = rep._repetition(wl.make("static-batched", 1, tiny=True), tmp_path, args)["layers"]
    assert off["memory.validate_calls"] == 0 and off["memory.validate_s"] == 0
    on = rep._repetition(wl.make("dynmo-serial", 1, tiny=True), tmp_path, args)["layers"]
    # each validation prices the plan once; unchanged plans are skipped
    assert 0 < on["memory.validate_calls"] <= on["memory.plan_stage_bytes_calls"]
    assert on["memory.validate_calls"] < on["trainer.sim_iterations"]


def test_scale_uses_the_chunks_timed_inside_the_window() -> None:
    nominal = calib.REF_NOMINAL_S
    samples = [(1.0, nominal), (2.0, 2 * nominal), (3.0, 4 * nominal), (9.0, 100.0)]
    assert calib.scale(samples, 1.5, 3.0) == pytest.approx(1 / 3)
    assert calib.scale(samples, 0.0, 1.0) == pytest.approx(1.0)
    # a window too short to be sampled times fresh chunks instead
    assert 0.0 < calib.scale(samples, 5.0, 6.0) < 100.0


def test_reference_does_not_use_the_program() -> None:
    # a change to repro must not move the reference it is scaled by
    code = "import sys, calib; calib.chunk(); print(sorted(m for m in sys.modules if m.startswith('repro')))"
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=BENCH, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


_SAMPLE_POOL_RUN = """
import json, signal, sys
from pathlib import Path
import calib, workloads as wl

work = Path(sys.argv[1])
before = signal.getsignal(signal.SIGPROF)
calib.PERIOD_S = 0.002  # the tiny workload is too short for the usual period
sampler = calib.Sampler(work).start()
try:
    out = wl.execute(wl.make("sweep-pool", 1, tiny=True), work)
finally:
    sampler.stop()
start, end = out.window
print(json.dumps({
    "disarmed": signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0),
    "restored": signal.getsignal(signal.SIGPROF) is before,
    "worker_files": len(list(work.glob("samples-*.txt"))),
    "inside": sum(start <= t <= end for t, _ in sampler.samples()),
}))
"""


def test_sampler_times_chunks_here_and_in_pool_workers_then_disarms(tmp_path: Path) -> None:
    # a fresh interpreter, so that the pool is forked while the sampler runs
    proc = subprocess.run(
        [sys.executable, "-c", _SAMPLE_POOL_RUN, str(tmp_path)],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": os.pathsep.join([str(BENCH), str(ROOT / "src")])},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.strip().splitlines()[-1])
    assert got["disarmed"] and got["restored"]
    assert got["worker_files"] >= 1, "no pool worker sampled"
    assert got["inside"] > 1
