"""Tests for the per-stage memory model and memory-aware placement.

Covers the accounting authority (`StageMemoryModel`), schedule-aware
in-flight counts, placement validation over heterogeneous capacities,
per-destination re-packing (Algorithm 2 with per-rank ``max_mem``),
Trainer OOM policies, orchestrated ``status="oom"`` records and their
cache-soundness, and differential goldens proving the memory knobs
never change timing.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro
from repro.cluster.memory import PlacementOOMError
from repro.cluster.placement import make_placement, validate_memory
from repro.cluster.collectives import CommCostModel
from repro.cluster.topology import GPU_MODELS, GPUSpec, hetero_cluster, parse_cluster
from repro.core.balancers.base import LoadBalancer
from repro.core.balancers.partition import fit_capacities, partition_balanced
from repro.core.repack import first_fit_repack, repack_plan
from repro.experiments.common import build_scenario, make_trainer, parse_memory_limit
from repro.model.config import gpt_24
from repro.model.cost import ModelCost, PRECISIONS, build_layer_specs, fresh_states
from repro.model.memory import SCHEDULES, StageMemoryModel
from repro.orchestrator import ExecutionPolicy, ResultCache, RunSpec, execute_spec
from repro.orchestrator.runner import SweepRunner
from repro.pipeline import PipelinePlan
from repro.training.config import TrainingConfig
from repro.training.trainer import Trainer

GIB = 1024**3


@pytest.fixture
def specs():
    return build_layer_specs(gpt_24())


@pytest.fixture
def cost(specs):
    return ModelCost(specs)


def _varied_states(n):
    states = fresh_states(n)
    states[2].sparsity = 0.5
    states[3].frozen = True
    states[4].token_fraction = 0.7
    return states


class TestAccounting:
    def test_mixed_matches_legacy_integer_for_integer(self, specs, cost):
        """precision="mixed" must reproduce ModelCost.layer_memory
        exactly — this is what keeps default-knob runs bit-identical."""
        states = _varied_states(len(specs))
        model = StageMemoryModel(cost, schedule="zb", num_micro=32)
        for infl in (1, 3, 8):
            for sp, stt in zip(specs, states):
                assert sum(model.layer_components(sp, stt, infl)) == (
                    cost.layer_memory(sp, stt, infl)
                )

    def test_full_precision_regime(self, specs, cost):
        states = _varied_states(len(specs))
        model = StageMemoryModel(cost, precision="full")
        for sp, stt in zip(specs, states):
            w, m, g, o, a = model.layer_components(sp, stt, 1)
            assert m == 0  # no fp32 master copy
            active = sp.param_count * (1.0 - stt.sparsity)
            if stt.sparsity > 0:
                assert w == int(active * 8)  # fp32 CSR values + index
            else:
                assert w == sp.param_count * 4
            if stt.frozen:
                assert g == 0 and o == 0
            else:
                assert g == int(active * 4)
                assert o == int(active * 4 * cost.opt_states)
            # fp32 activations: 2x the dtype_bytes=2 mixed figure
            mixed = StageMemoryModel(cost, precision="mixed")
            assert a == pytest.approx(
                2 * mixed.layer_components(sp, stt, 1)[4], abs=4
            )

    def test_in_flight_counts(self, cost):
        m_gpipe = StageMemoryModel(cost, schedule="gpipe", num_micro=16)
        m_zb = StageMemoryModel(cost, schedule="zb", num_micro=16)
        m_1f1b = StageMemoryModel(cost, schedule="1f1b", num_micro=16)
        for s in range(8):
            assert m_gpipe.in_flight(s, 8) == 16
            assert m_zb.in_flight(s, 8) == max(1, min(16, 8 - s))
            assert m_1f1b.in_flight(s, 8) == m_zb.in_flight(s, 8)
        assert m_zb.worst_in_flight(8) == 8
        assert m_gpipe.worst_in_flight(8) == 16

    def test_recompute_holds_one_micro_batch(self, cost):
        model = StageMemoryModel(
            cost, schedule="gpipe", num_micro=32, activation_recompute=True
        )
        assert all(model.in_flight(s, 8) == 1 for s in range(8))

    def test_knob_validation(self, cost):
        with pytest.raises(ValueError):
            StageMemoryModel(cost, schedule="interleaved")
        with pytest.raises(ValueError):
            StageMemoryModel(cost, num_micro=0)
        with pytest.raises(ValueError):
            StageMemoryModel(cost, precision="fp8")
        with pytest.raises(ValueError):
            StageMemoryModel(cost, limit_bytes=0)
        with pytest.raises(ValueError):
            StageMemoryModel(cost).in_flight(9, 8)
        assert set(SCHEDULES) == {"gpipe", "1f1b", "zb"}
        assert set(PRECISIONS) == {"mixed", "full"}

    def test_memoisation_is_transparent(self, specs, cost):
        model = StageMemoryModel(cost)
        states = _varied_states(len(specs))
        first = model.layer_bytes(states, 4)
        assert model.layer_bytes(states, 4) == first
        states[2].sparsity = 0.9  # same objects, new value: fresh key
        assert model.layer_bytes(states, 4) != first


class TestGPURegistry:
    def test_models_present(self):
        assert GPU_MODELS["a100"].memory_bytes == 40 * GIB
        assert GPU_MODELS["a100-80g"].memory_bytes == 80 * GIB
        assert GPU_MODELS["h100"].memory_bytes == 80 * GIB

    def test_unknown_model_lists_known_names(self):
        with pytest.raises(ValueError, match="a100-80g"):
            parse_cluster("1x4:tpu")


class TestValidateMemory:
    def test_heterogeneous_per_stage_capacity(self, specs, cost):
        """Per-node capacity, never the cluster-wide minimum: the stage
        on the H100 node gets 80 GiB even though an A100 node exists."""
        topo = parse_cluster("1x2+1x2:a100")
        placement = make_placement(topo, num_stages=4, dp_ways=1)
        plan = PipelinePlan.uniform(len(specs), 4)
        model = StageMemoryModel(cost, schedule="zb", num_micro=8)
        reports = validate_memory(
            model, plan, fresh_states(len(specs)), placement=placement
        )
        caps = [r.capacity_bytes for r in reports]
        assert caps[0] == caps[1] == 80 * GIB  # H100 node
        assert caps[2] == caps[3] == 40 * GIB  # A100 node
        assert all(r.ranks for r in reports)
        assert all(r.fits for r in reports)

    def test_limit_clips_capacity(self, specs, cost):
        topo = parse_cluster("1x4")
        placement = make_placement(topo, num_stages=4, dp_ways=1)
        plan = PipelinePlan.uniform(len(specs), 4)
        model = StageMemoryModel(cost, limit_bytes=1 * GIB)
        reports = validate_memory(
            model, plan, fresh_states(len(specs)), placement=placement
        )
        assert all(r.capacity_bytes == 1 * GIB for r in reports)

    def test_stage_count_mismatch_raises(self, specs, cost):
        topo = parse_cluster("1x4")
        placement = make_placement(topo, num_stages=4, dp_ways=1)
        plan = PipelinePlan.uniform(len(specs), 2)
        with pytest.raises(ValueError, match="stages"):
            validate_memory(
                StageMemoryModel(cost), plan, fresh_states(len(specs)),
                placement=placement,
            )

    def test_report_serialisation(self, specs, cost):
        plan = PipelinePlan.uniform(len(specs), 2)
        model = StageMemoryModel(cost)
        (rep, _) = validate_memory(model, plan, fresh_states(len(specs)))
        d = rep.as_dict()
        assert d["total_bytes"] == rep.total_bytes
        assert d["fits"] is True
        assert rep.headroom_bytes == rep.capacity_bytes - rep.total_bytes


class TestPerDestinationRepack:
    def test_scalar_broadcasts(self):
        a = first_fit_repack([10.0, 10.0], [1, 1], max_mem=25.0)
        b = first_fit_repack([10.0, 10.0], [1, 1], max_mem=[25.0, 25.0])
        assert a.active_workers == b.active_workers

    def test_destination_capacity_binds(self):
        """The merge guard prices the *destination* rank's capacity —
        a big source can merge into a big destination even when a small
        rank exists (the pre-fix scalar min would have refused)."""
        # dst 1 small: 30+30 !< 50 -> no merge
        res = first_fit_repack([30.0, 30.0], [1, 1], max_mem=[100.0, 50.0])
        assert res.num_active == 2
        # dst 1 big: 30+30 < 100 -> merge
        res = first_fit_repack([30.0, 30.0], [1, 1], max_mem=[50.0, 100.0])
        assert res.num_active == 1
        assert res.active_workers == [0, 1]

    def test_hetero_2x8_2x4_a100_regression(self, specs, cost):
        """Regression for the scalar-capacity bug on '2x8+2x4:a100':
        stages placed on 80 GiB H100 ranks may absorb merges that the
        40 GiB A100 ranks cannot — a single scalar (min) capacity
        would forbid the H100 merges, a single scalar (max) would OOM
        the A100s."""
        topo = parse_cluster("2x8+2x4:a100")
        placement = make_placement(
            topo, num_stages=8, dp_ways=1, strategy="scattered"
        )
        caps = [float(c) for c in placement.stage_capacities()]
        assert 40.0 * GIB in caps and 80.0 * GIB in caps
        plan = PipelinePlan.uniform(len(specs), 8)
        # 30 GiB per stage: fits everywhere, pairwise-merges only on H100
        mem = np.full(8, 30.0 * GIB)
        new_plan, result = repack_plan(plan, mem, caps, target_num_workers=1)
        assert 1 <= result.num_active < 8
        for worker, (m, active) in enumerate(
            zip(result.mem_usage, result.active_workers)
        ):
            if active:
                assert m <= caps[worker]
        # the scalar min-capacity would have refused every merge
        scalar = repack_plan(plan, mem, min(caps), target_num_workers=1)[1]
        assert scalar.num_active == 8

    def test_vector_validation(self):
        with pytest.raises(ValueError, match="capacities"):
            first_fit_repack([1.0, 1.0], [1, 1], max_mem=[10.0])
        with pytest.raises(ValueError):
            first_fit_repack([1.0, 1.0], [1, 1], max_mem=[10.0, 0.0])

    def test_plan_feasible_vector(self):
        plan = PipelinePlan.uniform(8, 4)
        mem = np.ones(8)
        assert LoadBalancer.plan_feasible(plan, mem, np.full(4, 2.0))
        caps = np.array([2.0, 2.0, 2.0, 1.0])
        assert not LoadBalancer.plan_feasible(plan, mem, caps)
        with pytest.raises(ValueError):
            LoadBalancer.plan_feasible(plan, mem, np.ones(3))
        assert LoadBalancer.scalar_capacity(caps) == 1.0
        assert LoadBalancer.scalar_capacity(None) is None
        assert LoadBalancer.scalar_capacity(7.0) == 7.0


class TestHypothesisProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        mem=st.lists(st.floats(1.0, 40.0), min_size=2, max_size=10),
        data=st.data(),
    )
    def test_repack_never_overflows_destination(self, mem, data):
        """Whenever every worker starts within its own capacity, no
        greedy merge may push an active worker past it."""
        caps = data.draw(
            st.lists(
                st.floats(1.0, 120.0),
                min_size=len(mem),
                max_size=len(mem),
            )
        )
        caps = [max(c, m + 0.5) for c, m in zip(caps, mem)]
        res = first_fit_repack(mem, [1] * len(mem), caps)
        for worker, (m, active) in enumerate(
            zip(res.mem_usage, res.active_workers)
        ):
            if active:
                assert m <= caps[worker] + 1e-9

    @settings(
        max_examples=30,
        deadline=None,
        # specs/cost are read-only model descriptions; sharing them
        # across generated examples is sound
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_surviving_placements_still_validate(self, specs, cost, data):
        """A placement that shrinks (after_repack) and regrows
        (after_regrow) under the memory model keeps producing plans
        that validate against the survivors' own capacities."""
        topo = parse_cluster("1x4+1x4:a100")
        placement = make_placement(topo, num_stages=8, dp_ways=1)
        model = StageMemoryModel(cost, schedule="zb", num_micro=8)
        states = fresh_states(len(specs))
        surviving = sorted(
            data.draw(
                st.sets(st.integers(0, 7), min_size=1, max_size=7)
            )
        )
        shrunk = placement.after_repack(list(surviving))
        n = shrunk.num_stages
        mem = np.asarray(
            model.layer_bytes(states, model.worst_in_flight(n)), dtype=float
        )
        cap = float(min(shrunk.stage_capacities()))
        try:
            plan = partition_balanced(mem, min(n, len(mem)), mem, cap)
        except ValueError:
            return  # genuinely infeasible shrink: nothing to validate
        if plan.num_stages != n:
            return
        reports = validate_memory(model, plan, states, placement=shrunk)
        assert all(r.fits for r in reports)
        # regrow back to the full placement round-trips exactly
        dropped = [s for s in range(8) if s not in surviving]
        if dropped:
            regrown = shrunk.after_regrow(
                [(s, placement.dp_group(s)) for s in dropped]
            )
            assert regrown == placement


class TestParseMemoryLimit:
    def test_values(self):
        assert parse_memory_limit(None) == (False, None)
        assert parse_memory_limit("") == (False, None)
        assert parse_memory_limit("auto") == (True, None)
        assert parse_memory_limit("40e9") == (True, 40e9)
        assert parse_memory_limit(1.5e9) == (True, 1.5e9)
        with pytest.raises(ValueError):
            parse_memory_limit("-1")
        with pytest.raises(ValueError):
            parse_memory_limit("lots")


class TestTrainerOOM:
    def test_initial_placement_raises(self):
        setup = build_scenario(
            "pruning", num_layers=24, pp_stages=4, dp_ways=1, iterations=10
        )
        trainer = make_trainer(
            setup, "megatron", iterations=10, memory_limit=1e6
        )
        with pytest.raises(PlacementOOMError) as exc_info:
            trainer.run()
        err = exc_info.value
        assert err.context == "initial placement"
        assert err.reports and not all(r.fits for r in err.reports)
        assert "GiB" in str(err)

    def test_oom_error_pickles(self):
        import pickle

        setup = build_scenario(
            "pruning", num_layers=24, pp_stages=4, dp_ways=1, iterations=10
        )
        trainer = make_trainer(
            setup, "megatron", iterations=10, memory_limit=1e6
        )
        try:
            trainer.run()
        except PlacementOOMError as exc:
            clone = pickle.loads(pickle.dumps(exc))
            assert clone.context == exc.context
            assert len(clone.reports) == len(exc.reports)
        else:  # pragma: no cover - guarded by the test above
            pytest.fail("expected PlacementOOMError")

    def test_resplit_policy_recovers_when_feasible(self):
        """Pick a limit between the uniform split's peak and the
        memory-balanced split's peak: "raise" dies, "resplit" trains.

        gpipe holds all micro-batches in flight on every stage, so the
        uniform-by-count split (heavy embedding stage) has real
        headroom over the memory-balanced contiguous split."""
        setup = build_scenario(
            "pruning", num_layers=24, pp_stages=4, dp_ways=1, iterations=10
        )
        probe = make_trainer(setup, "megatron", iterations=10, schedule="gpipe")
        model = StageMemoryModel(
            setup.cost, schedule="gpipe", num_micro=probe.cfg.micro_batches
        )
        states = probe.states
        uniform_peak = max(model.plan_stage_bytes(probe.plan, states))
        mem = np.asarray(
            model.layer_bytes(states, model.worst_in_flight(4)), dtype=float
        )
        balanced = partition_balanced(mem, 4, mem, None)
        balanced_peak = max(model.plan_stage_bytes(balanced, states))
        assert balanced_peak < uniform_peak  # gpipe guarantees slack
        limit = (uniform_peak + balanced_peak) / 2
        with pytest.raises(PlacementOOMError):
            make_trainer(
                setup, "megatron", iterations=10,
                schedule="gpipe", memory_limit=limit,
            ).run()
        res = make_trainer(
            setup,
            "megatron",
            iterations=10,
            schedule="gpipe",
            memory_limit=limit,
            oom_policy="resplit",
        ).run()
        assert res.oom_events >= 1
        assert 0 < res.peak_stage_bytes <= limit

    @pytest.mark.parametrize(
        "schedule,nodes,gib",
        [
            # no plan fits under the smallest capacity (the head alone
            # exceeds it), but each stage's own device takes one
            ("gpipe", [2, 2], [3.29, 20.45]),
            # 1F1B's last stage holds one micro-batch, not four: pricing
            # every layer at the deepest stage's count rejects the fit
            ("1f1b", [3, 1], [0.25, 6.0]),
        ],
    )
    def test_resplit_fits_a_feasible_heterogeneous_input(self, schedule, nodes, gib):
        """The uniform plan's first stage overflows; ``(0, 1, 2, 3, 26)``
        fits every stage, so "resplit" must train."""
        setup = build_scenario(
            "pruning", num_layers=24, pp_stages=4, dp_ways=1, iterations=10
        )
        topo = hetero_cluster(
            nodes, gpus=[GPUSpec(memory_bytes=int(g * GIB)) for g in gib]
        )
        model = StageMemoryModel(setup.cost, schedule=schedule, num_micro=16)
        cfg = TrainingConfig(
            iterations=10, pp_stages=4, dp_ways=1, schedule=schedule,
            num_micro=16, seq_len=setup.cfg.seq_len,
        )

        def trainer(policy):
            return Trainer(
                cfg, setup.cost, setup.scheme_factory(),
                comm=CommCostModel(topo),
                initial_plan=PipelinePlan((0, 23, 24, 25, 26), 26),
                memory_model=model, oom_policy=policy,
            )

        fits = trainer("raise")._memory_reports(PipelinePlan((0, 1, 2, 3, 26), 26))
        assert all(r.fits for r in fits)
        with pytest.raises(PlacementOOMError, match="stage 0 needs"):
            trainer("raise").run()
        tr = trainer("resplit")
        res = tr.run()
        assert res.oom_events >= 1
        assert all(r.fits for r in tr._memory_reports(tr.plan))

    def test_healthy_run_records_peak(self):
        setup = build_scenario(
            "pruning", num_layers=24, pp_stages=4, dp_ways=1, iterations=10
        )
        res = make_trainer(
            setup, "dynmo-partition", iterations=10, memory_limit="auto"
        ).run()
        assert res.peak_stage_bytes > 0
        assert res.oom_events == 0

    def test_default_knobs_record_nothing(self):
        setup = build_scenario(
            "pruning", num_layers=24, pp_stages=4, dp_ways=1, iterations=10
        )
        res = make_trainer(setup, "dynmo-partition", iterations=10).run()
        assert res.peak_stage_bytes == 0.0
        assert res.oom_events == 0

    def test_bad_policy_rejected(self):
        setup = build_scenario(
            "pruning", num_layers=24, pp_stages=4, dp_ways=1, iterations=10
        )
        with pytest.raises(ValueError):
            make_trainer(
                setup, "megatron", iterations=10,
                memory_limit="auto", oom_policy="panic",
            )


def _spec(**kw):
    base = dict(
        scenario="pruning",
        mode="dynmo-partition",
        num_layers=24,
        pp_stages=4,
        dp_ways=1,
        iterations=15,
    )
    base.update(kw)
    return RunSpec(**base)


class TestOrchestratedOOM:
    def test_execute_spec_oom_record(self):
        rec = execute_spec(_spec(memory_limit="1e6"))
        assert rec.status == "oom"
        assert rec.error_type == "PlacementOOMError"
        assert rec.metrics["oom_context"] == "initial placement"
        assert rec.metrics["stage_reports"]
        assert any(
            not r["fits"] for r in rec.metrics["stage_reports"]
        )

    def test_oom_is_deterministic_and_cacheable(self, tmp_path):
        spec = _spec(memory_limit="1e6")
        a = execute_spec(spec)
        b = execute_spec(spec)
        assert a.to_dict()["metrics"] == b.to_dict()["metrics"]
        cache = ResultCache(tmp_path)
        cache.put(a)
        served = cache.get(spec)
        assert served is not None and served.cached
        assert served.status == "oom"

    def test_failed_runs_stay_uncacheable(self, tmp_path):
        rec = execute_spec(_spec(num_layers=24))
        rec.status = "error"
        cache = ResultCache(tmp_path)
        cache.put(rec)
        assert cache.get(rec.spec) is None

    def test_batched_mixed_ok_and_oom(self):
        specs = [_spec(), _spec(memory_limit="1e6")]
        with SweepRunner(policy=ExecutionPolicy("batched")) as runner:
            records = runner.run(specs)
        assert [r.status for r in records] == ["ok", "oom"]
        assert records[1].metrics["stage_reports"]

    def test_memory_knobs_hash_and_label(self):
        base = _spec()
        assert base.precision == "mixed" and base.memory_limit == ""
        for variant in (
            _spec(precision="full"),
            _spec(recompute=True),
            _spec(memory_limit="auto"),
        ):
            assert variant.spec_hash != base.spec_hash
        assert "full" in _spec(precision="full").label
        assert "recompute" in _spec(recompute=True).label
        assert "mem-auto" in _spec(memory_limit="auto").label
        assert "full" not in base.label

    def test_ok_run_reports_memory_metrics(self):
        rec = execute_spec(_spec(memory_limit="auto"))
        assert rec.status == "ok"
        assert rec.metrics["peak_stage_bytes"] > 0
        assert rec.metrics["oom_events"] == 0


class TestDifferentialGoldens:
    @pytest.mark.parametrize("knobs", [
        {},
        {"recompute": True},
        {"precision": "full"},
        {"schedule": "1f1b", "cluster": "2x8+2x4:a100", "pp_stages": 8},
        {"memory_limit": "auto", "placement": "scattered"},
    ])
    def test_serial_and_batched_agree(self, knobs):
        """The knobs must be priced identically by the scalar and the
        batched engine — including recompute's backward inflation."""
        spec = _spec(**knobs)
        serial = execute_spec(spec)
        with SweepRunner(policy=ExecutionPolicy("batched")) as runner:
            (batched,) = runner.run([spec])
        assert serial.status == batched.status == "ok"
        assert serial.metrics == batched.metrics

    def test_memory_knobs_do_not_change_timing(self):
        """precision/enforcement affect byte accounting only: a run
        that fits produces the exact timing of the unenforced run."""
        plain = execute_spec(_spec())
        limited = execute_spec(_spec(memory_limit="auto"))
        full = execute_spec(_spec(precision="full", memory_limit="auto"))
        for key in ("tokens_per_s", "mean_bubble_ratio", "total_time_s"):
            assert plain.metrics[key] == limited.metrics[key]
            assert plain.metrics[key] == full.metrics[key]

    def test_determinism_across_processes(self):
        spec = _spec(memory_limit="auto")
        a, b = execute_spec(spec), execute_spec(spec)
        assert a.metrics == b.metrics


class TestFacade:
    def test_api_exports(self):
        assert repro.StageMemoryModel is StageMemoryModel
        assert repro.PlacementOOMError is PlacementOOMError
        assert repro.StageMemoryReport.__name__ == "StageMemoryReport"
        for name in (
            "StageMemoryModel", "StageMemoryReport", "PlacementOOMError"
        ):
            assert name in repro.api.__all__
            assert name in repro.__all__


class TestFitCapacities:
    """``fit_capacities`` finds a plan exactly when one exists."""

    @staticmethod
    def _feasible(rows, caps):
        n, s = len(rows[0]), len(caps)
        from itertools import combinations

        for cuts in combinations(range(1, n), s - 1):
            bounds = (0, *cuts, n)
            if all(
                sum(rows[j][bounds[j]:bounds[j + 1]]) <= caps[j] for j in range(s)
            ):
                return True
        return False

    def test_single_left_to_right_fill_is_not_enough(self):
        memory = np.array([1.0, 1.0, 5.0, 1.0])
        plan = fit_capacities([memory] * 3, [10.0, 1.0, 10.0])
        assert plan is not None and plan.boundaries == (0, 1, 2, 4)

    @settings(max_examples=300, deadline=None)
    @given(
        memory=st.lists(st.integers(0, 9), min_size=1, max_size=8),
        caps=st.lists(st.integers(0, 20), min_size=1, max_size=5),
        extra=st.integers(0, 2),
    )
    def test_matches_exhaustive_search(self, memory, caps, extra):
        caps = caps[: len(memory)]
        # later stages hold fewer micro-batches: each layer costs less
        rows = [[m + extra * (len(caps) - s) for m in memory] for s in range(len(caps))]
        plan = fit_capacities(
            [np.array(r, dtype=float) for r in rows], [float(c) for c in caps]
        )
        assert (plan is not None) == self._feasible(rows, caps)
        if plan is not None:
            assert plan.num_stages == len(caps)
            b = plan.boundaries
            assert all(
                sum(rows[j][b[j]:b[j + 1]]) <= caps[j] for j in range(len(caps))
            )
