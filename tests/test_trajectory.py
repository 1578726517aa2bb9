"""Tests for the cross-run dynamism trajectory memo.

Covers scheme pickling (the memo's key), the differential oracle of
memoised runs against unmemoised ones, the memo's LRU and byte bounds,
and the runs it must refuse: a recording run that raises and a scheme
that cannot be pickled.
"""

from __future__ import annotations

import dataclasses
import json
import operator
import pickle
import threading
from itertools import chain

import pytest

import repro
from repro import ExecutionPolicy
from repro.cluster.events import ClusterEvent, ClusterEventTrace
from repro.dynamics import trajectory
from repro.dynamics.base import DynamismScheme
from repro.dynamics.pruning import GlobalMagnitudePruner, PruningDynamism
from repro.experiments.common import SCENARIOS, build_scenario, make_trainer
from repro.model.cost import LayerState
from repro.orchestrator import RunSpec
from repro.orchestrator import runner
from repro.orchestrator.runner import execute_spec

ITERS = 40

_fields_of = operator.attrgetter(*trajectory.FIELDS)


def _snapshot(states):
    """Every state field with its exact type, for exact comparison."""
    return [tuple((type(v), v) for v in _fields_of(s)) for s in states]


def _payload(record) -> str:
    return json.dumps(
        {"spec": record.spec.to_dict(), "status": record.status, "metrics": record.metrics},
        sort_keys=True,
    )


@pytest.fixture
def fresh_memo(monkeypatch):
    """An empty process memo and zeroed counters for one test."""
    monkeypatch.setattr(
        trajectory, "memo", trajectory.TrajectoryMemo(
            trajectory.MAX_TRAJECTORIES, trajectory.MAX_BYTES
        )
    )
    trajectory.stats.reset()
    yield trajectory
    trajectory.stats.reset()


def _unmemoised(spec, monkeypatch):
    """``spec``'s record with the memo bypassed (the real scheme steps)."""
    with monkeypatch.context() as m:
        m.setattr(
            trajectory, "memoise", lambda scheme, states, iters, **kw: (scheme, lambda: None)
        )
        return execute_spec(spec)


def _sweep(specs):
    """``specs`` run in order in this process, as a sweep runs them."""
    return repro.sweep(list(specs), ExecutionPolicy("inline"))


def _twins(spec):
    """``spec`` and a differently tagged twin: equal kin, two runs."""
    return [spec, spec.with_(tag="twin")]


# -- the key: every scheme pickles and steps identically after ----------------


def _schemes():
    for name in SCENARIOS:
        yield name, "plain"
    yield "moe", "tutel"
    yield "freezing", "egeria"
    yield "sparse_attention", "dense-baseline"
    yield "early_exit", "dense-baseline"


@pytest.mark.parametrize("scenario,mode", list(_schemes()))
def test_scheme_pickles_and_steps_identically(scenario, mode):
    setup = build_scenario(scenario, iterations=ITERS)
    scheme = make_trainer(setup, "megatron" if mode == "plain" else mode).scheme
    clone = pickle.loads(pickle.dumps(scheme))
    a, b = scheme.initial_states(), clone.initial_states()
    step_a = getattr(scheme, "advance", scheme.step)
    step_b = getattr(clone, "advance", clone.step)
    for k in range(setup.iterations):
        assert step_a(k, a) == step_b(k, b)
        assert _snapshot(a) == _snapshot(b), (scenario, mode, k)
    assert getattr(scheme, "version", None) == getattr(clone, "version", None)


# -- differential oracle: memoised runs equal unmemoised runs ------------------


def _oracle_specs(scenario):
    base = RunSpec(scenario=scenario, iterations=ITERS)
    specs = [
        base.with_(mode=m)
        for m in ("megatron", "deepspeed", "dynmo-partition", "dynmo-diffusion")
    ]
    if scenario == "moe":
        specs.append(base.with_(mode="tutel"))
    if scenario == "freezing":
        specs.append(base.with_(mode="egeria"))
    if scenario in ("sparse_attention", "early_exit"):
        specs.append(base.with_(mode="dense-baseline"))
    specs.append(base.with_(mode="megatron", static_scheme=True))
    return specs


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_memoised_runs_match_unmemoised(scenario, fresh_memo, monkeypatch):
    """From a cleared memo, the first run of each trajectory records and
    the rest replay (also across modes); every record equals the run
    without the memo, and a warm re-run replays.  Every spec has a
    twin, so none runs alone."""
    specs = [twin for spec in _oracle_specs(scenario) for twin in _twins(spec)]
    expected = [_payload(_unmemoised(spec, monkeypatch)) for spec in specs]
    assert [_payload(r) for r in _sweep(specs)] == expected
    recorded, replayed = fresh_memo.stats.recorded, fresh_memo.stats.replayed
    assert recorded >= 1 and recorded + replayed == len(specs)
    assert fresh_memo.stats.skipped == {}
    # megatron, deepspeed and both dynmo modes share one trajectory
    assert replayed >= 7
    assert [_payload(r) for r in _sweep(specs)] == expected
    assert fresh_memo.stats.replayed == replayed + len(specs)
    assert fresh_memo.stats.recorded == recorded


def _event_trace() -> str:
    return ClusterEventTrace(
        (
            ClusterEvent(5, "failure", (2,)),
            ClusterEvent(12, "straggler", (4,), duration=6, slowdown=1.5),
            ClusterEvent(20, "recovery", (2,)),
        )
    ).to_json()


@pytest.mark.parametrize(
    "spec",
    [
        RunSpec(
            scenario="pruning", mode="dynmo-partition", num_layers=24,
            iterations=ITERS, memory_limit="auto", repack=True,
        ),
        RunSpec(
            scenario="freezing", mode="dynmo-partition", num_layers=24,
            iterations=ITERS, memory_limit="auto", repack=True,
        ),
        RunSpec(scenario="pruning", mode="megatron", iterations=ITERS, cluster_events=_event_trace()),
        RunSpec(scenario="mod", mode="dynmo-diffusion", iterations=ITERS, cluster_events=_event_trace()),
    ],
    ids=["pruning-repack-auto", "freezing-repack-auto", "pruning-events", "mod-events-dynmo"],
)
def test_memoised_repack_and_event_runs_match(spec, fresh_memo, monkeypatch):
    want = _payload(_unmemoised(spec, monkeypatch))
    plain = spec.with_(mode="megatron", repack=False, memory_limit="", cluster_events="")
    got = [_payload(r) for r in _sweep([plain, spec])]
    assert got == [_payload(_unmemoised(plain, monkeypatch)), want]
    assert fresh_memo.stats.recorded == 1 and fresh_memo.stats.replayed == 1
    # a one-off run records nothing, but replays a stored match
    assert _payload(execute_spec(spec)) == want
    assert fresh_memo.stats.replayed == 2


# -- the key covers the initial states -----------------------------------------


class RampScheme(DynamismScheme):
    """Reads its input: each step adds to every layer's sparsity."""

    name = "ramp"

    def step(self, k, states):
        for s in states:
            s.sparsity = min(1.0, s.sparsity + 0.01)
        return True


def test_key_covers_initial_states(fresh_memo):
    specs = build_scenario("pruning", iterations=ITERS).specs

    def run(states):
        scheme, commit = trajectory.memoise(RampScheme(specs), states, 10)
        for k in range(10):
            scheme.advance(k, states)
        commit()
        return scheme, _snapshot(states)

    first, _ = run(RampScheme(specs).initial_states())
    assert isinstance(first, trajectory.RecordingScheme)
    offset = RampScheme(specs).initial_states()
    for s in offset:
        s.sparsity = 0.5
    reference = RampScheme(specs)
    want = [s.copy() for s in offset]
    for k in range(10):
        reference.advance(k, want)
    second, got = run(offset)
    assert not isinstance(second, trajectory.ReplayingScheme)
    assert got == _snapshot(want)


class SilentRamp:
    """Duck-typed and unversioned, like the baseline wrappers: bound by
    no change contract, it mutates states yet reports no change."""

    rebalance_every = 1

    def step(self, k, states):
        states[k % len(states)].sparsity = 0.01 * (k + 1)
        return False


def test_unversioned_scheme_is_compared_every_step(fresh_memo):
    specs = build_scenario("pruning", iterations=ITERS).specs

    def run():
        states = [LayerState() for _ in specs]
        scheme, commit = trajectory.memoise(SilentRamp(), states, ITERS)
        for k in range(ITERS):
            assert scheme.advance(k, states) is False
        commit()
        return scheme, _snapshot(states)

    recorder, want = run()
    replayer, got = run()
    assert isinstance(recorder, trajectory.RecordingScheme)
    assert isinstance(replayer, trajectory.ReplayingScheme)
    assert got == want and replayer.version is None


def test_replay_bumps_version_exactly_when_the_original_did(fresh_memo):
    setup = build_scenario("pruning", iterations=ITERS)
    original = setup.scheme_factory()
    states = original.initial_states()
    versions = []
    for k in range(ITERS):
        original.advance(k, states)
        versions.append(original.version)
    assert 1 < versions[-1] < ITERS  # changes on pruning steps only

    def run():
        fresh = setup.scheme_factory()
        states = fresh.initial_states()
        scheme, commit = trajectory.memoise(fresh, states, ITERS)
        seen = []
        for k in range(ITERS):
            scheme.advance(k, states)
            seen.append(scheme.version)
        commit()
        return scheme, seen, _snapshot(states)

    recorder, seen, _ = run()
    assert isinstance(recorder, trajectory.RecordingScheme) and seen == versions
    replayer, seen, final = run()
    assert isinstance(replayer, trajectory.ReplayingScheme) and seen == versions
    assert final == _snapshot(states)


# -- bounds ----------------------------------------------------------------------


def _traj(nbytes: int) -> trajectory.Trajectory:
    return trajectory.Trajectory(frames=((),), changed=b"\x00", nbytes=nbytes)


def test_lru_evicts_least_recently_used(fresh_memo):
    memo = trajectory.TrajectoryMemo(max_entries=2, max_bytes=10**6)
    memo.put(b"a", _traj(10))
    memo.put(b"b", _traj(10))
    assert memo.get(b"a") is not None  # a is now the most recent
    memo.put(b"c", _traj(10))
    assert memo.get(b"b") is None
    assert memo.get(b"a") is not None and memo.get(b"c") is not None
    assert len(memo) == 2 and memo.nbytes == 20
    assert fresh_memo.stats.evicted == 1


def test_byte_budget_evicts_and_refuses(fresh_memo):
    memo = trajectory.TrajectoryMemo(max_entries=10, max_bytes=100)
    memo.put(b"a", _traj(60))
    memo.put(b"b", _traj(60))
    assert memo.get(b"a") is None and memo.get(b"b") is not None
    assert memo.nbytes == 60 and fresh_memo.stats.evicted == 1
    memo.put(b"c", _traj(101))
    assert memo.get(b"c") is None and len(memo) == 1
    assert fresh_memo.stats.skipped == {"over_budget": 1}


def test_recording_over_budget_is_dropped(fresh_memo, monkeypatch):
    monkeypatch.setattr(trajectory, "memo", trajectory.TrajectoryMemo(16, 2_000))
    spec = RunSpec(scenario="moe", mode="megatron", iterations=ITERS)
    want = _unmemoised(spec, monkeypatch).metrics
    runs = [spec.with_(tag=str(i)) for i in range(3)]
    assert [r.metrics for r in _sweep(runs)] == [want] * 3
    assert len(trajectory.memo) == 0
    # the two runs that a later one shares both record, over budget
    assert fresh_memo.stats.skipped == {"over_budget": 2, "unshared": 1}
    assert fresh_memo.stats.recorded == fresh_memo.stats.replayed == 0


# -- runs the memo must refuse ---------------------------------------------------


def test_recording_run_that_raises_stores_nothing(fresh_memo, monkeypatch):
    spec = RunSpec(scenario="pruning", mode="megatron", iterations=ITERS)
    step = PruningDynamism.step

    def failing(self, k, states):
        if k == ITERS // 2:
            raise RuntimeError("injected mid-run failure")
        return step(self, k, states)

    with monkeypatch.context() as m:
        m.setattr(PruningDynamism, "step", failing)
        record = _sweep(_twins(spec))[0]
    assert record.status == "error" and "injected" in record.error
    assert len(trajectory.memo) == 0 and fresh_memo.stats.recorded == 0
    # the same key records afresh instead of replaying a partial run
    want = _payload(_unmemoised(spec, monkeypatch))
    assert _payload(_sweep(_twins(spec))[0]) == want
    assert fresh_memo.stats.recorded == 1 and fresh_memo.stats.replayed == 1


def test_unpicklable_scheme_runs_unmemoised(fresh_memo, monkeypatch):
    spec = RunSpec(scenario="pruning", mode="megatron", iterations=ITERS)
    want = _unmemoised(spec, monkeypatch).metrics
    with monkeypatch.context() as m:
        # the pruner's world (locks, queues) without its pickle hooks
        m.delattr(GlobalMagnitudePruner, "__getstate__")
        m.delattr(GlobalMagnitudePruner, "__setstate__")
        assert [r.metrics for r in _sweep(_twins(spec))] == [want, want]
    assert fresh_memo.stats.skipped == {"unpicklable": 1, "unshared": 1}
    assert len(trajectory.memo) == 0 and fresh_memo.stats.replayed == 0

    scheme = build_scenario("pruning", iterations=ITERS).scheme_factory()
    scheme.lock = threading.Lock()
    states = scheme.initial_states()
    assert trajectory.memoise(scheme, states, ITERS)[0] is scheme
    assert fresh_memo.stats.skipped == {"unpicklable": 2, "unshared": 1}


# -- LayerState.copy ---------------------------------------------------------------


def test_layer_state_copy_is_equal_and_independent():
    state = LayerState(0.25, True, True, 0.5, 0.75, 1.5)
    # every field off its default, so a field that copy() (or the
    # recorder's FIELDS) misses shows up as a difference
    assert all(
        getattr(state, f.name) != f.default for f in dataclasses.fields(LayerState)
    )
    assert trajectory.FIELDS == tuple(f.name for f in dataclasses.fields(LayerState))
    clone = state.copy()
    assert clone == state and clone is not state
    assert _snapshot([clone]) == _snapshot([state])
    clone.sparsity = 0.9
    clone.frozen = False
    assert state.sparsity == 0.25 and state.frozen is True


# -- only runs that a later run shares record ------------------------------------


def test_runs_nothing_later_shares_record_nothing(fresh_memo, monkeypatch):
    """A grid whose trajectories never repeat records nothing and, with
    an empty memo, does not even compute a key."""

    def no_key(*args):
        raise AssertionError("key computed for a run that cannot replay or record")

    monkeypatch.setattr(trajectory, "trajectory_key", no_key)
    specs = [RunSpec(scenario=s, iterations=ITERS) for s in ("pruning", "freezing")]
    specs.append(specs[0].with_(seed=1))
    assert all(r.status == "ok" for r in _sweep(specs))
    assert fresh_memo.stats.skipped == {"unshared": 3}
    assert fresh_memo.stats.recorded == fresh_memo.stats.replayed == 0
    assert len(trajectory.memo) == 0


def test_pool_chunk_records_for_its_own_later_runs(fresh_memo):
    pruning = RunSpec(scenario="pruning", iterations=ITERS)
    chunk = [pruning, RunSpec(scenario="freezing", iterations=ITERS), pruning.with_(mode="deepspeed")]
    records = runner._execute_chunk(chunk, None)
    assert [r.status for r in records] == ["ok"] * 3
    assert fresh_memo.stats.recorded == fresh_memo.stats.replayed == 1
    assert fresh_memo.stats.skipped == {"unshared": 1}
    assert not runner._RECORDING  # the marks end with the chunk


def test_equal_keys_have_equal_kin(fresh_memo, monkeypatch):
    """The kin that decides recording is never finer than the memo key
    on the oracle grids, so no run that could replay misses its
    recording."""
    keys = []
    memoise = trajectory.memoise

    def spy(scheme, states, iterations, **kw):
        keys.append(trajectory.trajectory_key(scheme, states, iterations))
        return memoise(scheme, states, iterations, record=False)

    monkeypatch.setattr(trajectory, "memoise", spy)
    specs = [spec for s in SCENARIOS for spec in _oracle_specs(s)]
    specs.append(
        specs[0].with_(placement="scattered", memory_limit="auto", cluster_events=_event_trace())
    )
    for spec in specs:
        execute_spec(spec)
    keys = dict(zip(specs, keys))
    for a in specs:
        for b in specs:
            # static schemes of scenarios with equal layers share a key
            # across kin; they step nothing, so a replay saves nothing
            if keys[a] == keys[b] and not (a.static_scheme or b.static_scheme):
                assert runner._trajectory_kin(a) == runner._trajectory_kin(b), (a.label, b.label)


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_unchanged_steps_leave_states_alone(scenario):
    """The recorder skips comparing a versioned scheme's steps that
    report no change; every scheme here keeps that contract."""
    setup = build_scenario(scenario, iterations=ITERS)
    scheme = setup.scheme_factory()
    states = scheme.initial_states()
    for k in range(ITERS):
        before = [_fields_of(s) for s in states]  # holds the objects
        if not scheme.advance(k, states):
            after = [_fields_of(s) for s in states]
            assert all(map(operator.is_, chain(*after), chain(*before))), k
