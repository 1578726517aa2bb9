"""Tests for TrainingConfig, Trainer, throughput, checkpointing."""

import numpy as np
import pytest

from repro.cluster.job_manager import ElasticJobManager
from repro.core import DynMoConfig, DynMoController
from repro.dynamics import FreezingDynamism, StaticScheme
from repro.model.cost import LayerState, fresh_states
from repro.pipeline import PipelinePlan
from repro.training import (
    Trainer,
    TrainingConfig,
    ThroughputMeter,
    load_checkpoint,
    save_checkpoint,
)
from repro.training.throughput import speedup
from repro.training.trainer import states_fingerprint


class TestTrainingConfig:
    def test_defaults(self):
        cfg = TrainingConfig()
        assert cfg.micro_batches == 4 * cfg.pp_stages
        assert cfg.total_gpus == cfg.pp_stages * cfg.dp_ways

    def test_explicit_micro(self):
        assert TrainingConfig(num_micro=7).micro_batches == 7

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainingConfig(iterations=0)
        with pytest.raises(ValueError):
            TrainingConfig(pp_stages=0)
        with pytest.raises(ValueError):
            TrainingConfig(dp_ways=-1)


class TestFingerprint:
    def test_stable(self):
        a = fresh_states(4)
        b = fresh_states(4)
        assert states_fingerprint(a) == states_fingerprint(b)

    def test_sensitive_to_changes(self):
        a = fresh_states(4)
        b = fresh_states(4)
        b[2].sparsity = 0.5
        assert states_fingerprint(a) != states_fingerprint(b)

    def test_sensitive_to_flags(self):
        a, b = fresh_states(2), fresh_states(2)
        b[0].frozen = True
        assert states_fingerprint(a) != states_fingerprint(b)


class TestTrainer:
    def _trainer(self, cost, specs, comm=None, controller=None, iters=20, **kw):
        cfg = TrainingConfig(
            iterations=iters, pp_stages=4, dp_ways=1, record_every=5, **kw
        )
        scheme = StaticScheme(specs)
        return Trainer(cfg, cost, scheme, comm=comm, controller=controller)

    def test_static_run_completes(self, gpt24_cost, gpt24_specs):
        res = self._trainer(gpt24_cost, gpt24_specs).run()
        assert res.iterations == 20
        assert res.total_time_s > 0
        assert res.tokens_per_s > 0
        assert res.total_tokens == 20 * 2 * 2048 * 16  # iters*mb*seq*micros

    def test_static_iterations_memoised(self, gpt24_cost, gpt24_specs):
        """Static model: every iteration identical -> history flat."""
        res = self._trainer(gpt24_cost, gpt24_specs).run()
        spans = [m for _, m in res.makespan_history]
        assert all(s == pytest.approx(spans[0]) for s in spans)

    def test_run_iterations_override(self, gpt24_cost, gpt24_specs):
        res = self._trainer(gpt24_cost, gpt24_specs, iters=50).run(iterations=5)
        assert res.iterations == 5

    def test_dynmo_beats_static_on_freezing(self, gpt24_cost, gpt24_specs, comm):
        cfg = TrainingConfig(iterations=60, pp_stages=4, dp_ways=1, record_every=10)
        mk = lambda: FreezingDynamism(gpt24_specs, freeze_every=10, tau0=10, seed=0)
        static = Trainer(cfg, gpt24_cost, mk(), comm=comm).run()
        ctl = DynMoController(gpt24_cost, comm, DynMoConfig(balancer="partition"))
        dyn = Trainer(cfg, gpt24_cost, mk(), comm=comm, controller=ctl).run()
        assert dyn.tokens_per_s > static.tokens_per_s
        assert dyn.mean_bubble_ratio < static.mean_bubble_ratio

    def test_overhead_reported(self, gpt24_cost, gpt24_specs, comm):
        cfg = TrainingConfig(iterations=30, pp_stages=4, dp_ways=1)
        scheme = FreezingDynamism(gpt24_specs, freeze_every=10, tau0=10, seed=0)
        ctl = DynMoController(gpt24_cost, comm, DynMoConfig())
        res = Trainer(cfg, gpt24_cost, scheme, comm=comm, controller=ctl).run()
        assert res.overhead_s > 0
        assert res.overhead_fraction < 0.2

    def test_job_manager_integration(self, gpt24_cost, gpt24_specs, comm):
        jm = ElasticJobManager(total_gpus=8)
        cfg = TrainingConfig(iterations=10, pp_stages=4, dp_ways=2)
        t = Trainer(
            cfg, gpt24_cost, StaticScheme(gpt24_specs), comm=comm, job_manager=jm
        )
        assert jm.claims["train"] == 8
        res = t.run()
        assert res.average_gpus == pytest.approx(8.0)

    def test_stage_count_history(self, gpt24_cost, gpt24_specs):
        res = self._trainer(gpt24_cost, gpt24_specs).run()
        assert all(s == 4 for _, s in res.stage_count_history)


class TestThroughput:
    def test_meter(self):
        m = ThroughputMeter()
        m.record(1000, 2.0)
        m.record(1000, 2.0)
        assert m.tokens_per_s == pytest.approx(500.0)
        assert m.percentile(50) == pytest.approx(500.0)
        assert m.per_gpu(4) == pytest.approx(125.0)

    def test_meter_validation(self):
        m = ThroughputMeter()
        with pytest.raises(ValueError):
            m.record(-1, 1)
        with pytest.raises(ValueError):
            m.per_gpu(0)
        assert m.percentile(50) == 0.0

    def test_speedup(self):
        assert speedup(1200, 1000) == pytest.approx(1.2)
        with pytest.raises(ValueError):
            speedup(1, 0)


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        plan = PipelinePlan.uniform(10, 4)
        states = fresh_states(10)
        states[3].sparsity = 0.7
        states[5].frozen = True
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, 123, plan, states)
        it, plan2, states2 = load_checkpoint(path)
        assert it == 123
        assert plan2 == plan
        assert states2[3].sparsity == 0.7
        assert states2[5].frozen

    def test_reshard_on_restore(self, tmp_path):
        """Re-pack-with-restart: restore onto fewer workers."""
        plan = PipelinePlan.uniform(12, 6)
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, 5, plan, fresh_states(12))
        _, plan2, _ = load_checkpoint(path, num_stages=3)
        assert plan2.num_stages == 3
        assert plan2.num_layers == 12


def _touch(t):
    """Look the current state up in the iteration cache, storing it on
    a miss, as the run loop does."""
    key = t._cache_key()
    if t._cache_lookup(key) is None:
        t._cache_store(key, t.engine.run_iteration(t.plan, t.states))


class TestIterationCache:
    """The per-trainer iteration memoiser: bounded LRU + version-gated
    state fingerprinting."""

    def _trainer(self, cost, specs, iters=10):
        cfg = TrainingConfig(iterations=iters, pp_stages=4, dp_ways=1)
        return Trainer(cfg, cost, StaticScheme(specs))

    def test_lru_evicts_oldest_not_everything(self, gpt24_cost, gpt24_specs):
        t = self._trainer(gpt24_cost, gpt24_specs)
        t._cache_capacity = 4
        plans = [PipelinePlan.uniform(26, s) for s in (2, 3, 4, 5)]
        for p in plans:
            t.plan = p
            _touch(t)
        assert len(t._cache) == 4
        # touch the oldest so it becomes most-recent ...
        t.plan = plans[0]
        _touch(t)
        # ... then overflow: plans[1] (now the LRU entry) is evicted
        t.plan = PipelinePlan.uniform(26, 6)
        _touch(t)
        assert len(t._cache) == 4
        keys = list(t._cache)
        assert all(k[0] != plans[1].boundaries for k in keys)
        assert any(k[0] == plans[0].boundaries for k in keys)

    def test_cache_capacity_bounds_size(self, gpt24_cost, gpt24_specs):
        t = self._trainer(gpt24_cost, gpt24_specs)
        t._cache_capacity = 3
        for s in range(2, 9):
            t.plan = PipelinePlan.uniform(26, s)
            _touch(t)
        assert len(t._cache) == 3

    def test_fingerprint_skipped_while_version_unchanged(
        self, gpt24_cost, gpt24_specs, monkeypatch
    ):
        t = self._trainer(gpt24_cost, gpt24_specs)
        calls = []
        import repro.training.trainer as trainer_mod

        real = trainer_mod.states_fingerprint
        monkeypatch.setattr(
            trainer_mod,
            "states_fingerprint",
            lambda states, out=None: calls.append(1) or real(states, out),
        )
        # the walk-ahead loop hashes through the same version-gated memo
        t.run()  # StaticScheme: version never changes
        assert len(calls) == 1

    def test_fingerprint_recomputed_on_version_bump(self, gpt24_cost, gpt24_specs):
        t = self._trainer(gpt24_cost, gpt24_specs)
        k1 = t._states_key()
        assert t._states_key() == k1  # memoised
        t.states[2].sparsity = 0.5
        t.scheme.version += 1  # what advance() does on a change
        k2 = t._states_key()
        assert k2 != k1

    def test_scheme_advance_bumps_version_only_on_change(self, gpt24_specs):
        scheme = FreezingDynamism(gpt24_specs, freeze_every=10, tau0=10, seed=0)
        states = scheme.initial_states()
        v0 = scheme.version
        scheme.advance(1, states)  # not a freeze step
        assert scheme.version == v0
        scheme.advance(30, states)  # freeze step well past tau0 (noisy)
        assert scheme.version > v0

    def test_states_fingerprint_buffer_reuse_matches(self):
        states = fresh_states(5)
        states[1].attn_density = 0.25
        buf = np.empty((5, 6))
        assert states_fingerprint(states, out=buf) == states_fingerprint(states)

    def test_states_fingerprint_matches_row_loop(self):
        """Regression: the struct-of-arrays column fills must produce
        byte-identical digests to the original per-layer row loop."""
        import hashlib

        def loop_fingerprint(states):
            out = np.empty((len(states), 6))
            for i, s in enumerate(states):
                row = out[i]
                row[0] = s.sparsity
                row[1] = 1.0 if s.frozen else 0.0
                row[2] = 1.0 if s.droppable_bwd else 0.0
                row[3] = s.attn_density
                row[4] = s.token_fraction
                row[5] = s.moe_multiplier
            return hashlib.blake2b(out.tobytes(), digest_size=16).digest()

        rng = np.random.default_rng(0)
        for _ in range(20):
            states = fresh_states(int(rng.integers(1, 40)))
            for s in states:
                s.sparsity = float(rng.uniform(0, 1))
                s.frozen = bool(rng.random() < 0.5)
                s.droppable_bwd = bool(rng.random() < 0.5)
                s.attn_density = float(rng.uniform(0, 1))
                s.token_fraction = float(rng.uniform(0, 1))
                s.moe_multiplier = float(rng.uniform(0, 3))
            assert states_fingerprint(states) == loop_fingerprint(states)


class TestPrewarmAndLockstep:
    """``Trainer.prewarm``, the run loop's resolve step, and the windows
    that feed it (the class name predates the one-loop design)."""

    def _trainer(self, cost, specs, scheme=None, iters=30, **kw):
        cfg = TrainingConfig(
            iterations=iters, pp_stages=4, dp_ways=1, record_every=5, **kw
        )
        return Trainer(cfg, cost, scheme or StaticScheme(specs))

    @staticmethod
    def _spy(monkeypatch, t):
        """Record how many misses each prewarm call resolves."""
        sizes = []
        real = t.prewarm

        def spy(misses, found):
            sizes.append(len(misses))
            return real(misses, found)

        monkeypatch.setattr(t, "prewarm", spy)
        return sizes

    def test_prewarm_seeds_cache_and_matches(self, gpt24_cost, gpt24_specs):
        t = self._trainer(gpt24_cost, gpt24_specs)
        plans = [PipelinePlan.uniform(26, s) for s in (2, 3, 4)]
        misses = [((p.boundaries,), t.engine, p, t.states) for p in plans]
        found = {}
        assert t.prewarm(misses, found) == 3
        assert len(t._cache) == 3
        for key, _, plan, states in misses:
            ref = t.engine.run_iteration(plan, states)
            assert found[key].makespan == ref.makespan
            assert np.array_equal(found[key].busy, ref.busy)
            assert t._cache_lookup(key) is found[key]

    def test_prewarm_noop_for_static_scheme(
        self, gpt24_cost, gpt24_specs, monkeypatch
    ):
        import repro.pipeline.batched as batched_mod

        t = self._trainer(gpt24_cost, gpt24_specs)
        sizes = self._spy(monkeypatch, t)
        batched_mod.stats.reset()
        t.run()
        # one distinct state: one scalar simulation, nothing to batch
        assert sizes == [1]
        assert batched_mod.stats.calls == 0

    def test_prewarm_refused_with_controller(
        self, gpt24_cost, gpt24_specs, comm, monkeypatch
    ):
        import repro.pipeline.batched as batched_mod

        controller = DynMoController(gpt24_cost, comm, DynMoConfig(balancer="partition"))
        cfg = TrainingConfig(iterations=10, pp_stages=4, dp_ways=1)
        scheme = FreezingDynamism(gpt24_specs, freeze_every=2, tau0=2, seed=0)
        t = Trainer(cfg, gpt24_cost, scheme, comm=comm, controller=controller)
        sizes = self._spy(monkeypatch, t)
        batched_mod.stats.reset()
        t.run()
        # the controller reads each makespan: windows of one iteration
        assert sizes and set(sizes) == {1}
        assert batched_mod.stats.calls == 0

    def test_run_prewarm_auto_is_bit_identical(self, gpt24_cost, gpt24_specs):
        """Walk-ahead windows against the reference engine, which cannot
        batch and so resolves one iteration at a time."""
        mk = lambda: FreezingDynamism(gpt24_specs, freeze_every=4, tau0=4, seed=3)  # noqa: E731
        auto = self._trainer(gpt24_cost, gpt24_specs, scheme=mk()).run()
        ref = self._trainer(gpt24_cost, gpt24_specs, scheme=mk())
        ref.engine.use_compiled = False
        off = ref.run()
        assert auto.total_time_s == off.total_time_s
        assert auto.overhead_s == off.overhead_s
        assert auto.makespan_history == off.makespan_history
        assert auto.bubble_history == off.bubble_history
