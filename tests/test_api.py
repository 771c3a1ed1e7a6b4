"""Tests for the ``repro.api`` Session façade and the Summary protocol."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import (
    BatchWorkload,
    PlannerConfig,
    Session,
    Summary,
    Tracer,
    get_model,
)
from repro.hardware import make_cluster, table_iii_cluster
from repro.obs import current_tracer, parse_trace
from repro.pipeline import DegradedSimResult, PipelineSimResult
from repro.plan import ExecutionPlan, InfeasibleError, StagePlan, uniform_plan
from repro.runtime import FaultPlan


FAST = PlannerConfig(
    group_size=8,
    max_orderings=2,
    microbatch_candidates=(8,),
    verify_top_k=1,
    use_heuristic=True,
)
WL = BatchWorkload(batch=8, prompt_len=64, output_len=16)


@pytest.fixture(scope="module")
def planned_session():
    sess = Session("opt-13b", cluster=1, config=FAST)
    result = sess.plan(WL)
    assert result is not None
    return sess, result


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------


class TestConstruction:
    def test_model_by_name_or_spec(self):
        by_name = Session("opt-13b", cluster=1)
        by_spec = Session(get_model("opt-13b"), cluster=1)
        assert by_name.spec.name == by_spec.spec.name == "opt-13b"

    def test_cluster_by_index_or_spec(self):
        by_idx = Session("opt-13b", cluster=1)
        by_spec = Session("opt-13b", cluster=table_iii_cluster(1))
        assert by_idx.cluster.describe() == by_spec.cluster.describe()

    def test_trace_path_creates_tracer(self, tmp_path):
        sess = Session(
            "opt-13b", cluster=1, trace_path=str(tmp_path / "t.jsonl")
        )
        assert isinstance(sess.tracer, Tracer)
        assert sess.tracer.enabled

    def test_no_tracer_by_default(self):
        assert Session("opt-13b", cluster=1).tracer is None


# ---------------------------------------------------------------------------
# plan / simulate / serve
# ---------------------------------------------------------------------------


class TestPhases:
    def test_plan_returns_summary(self, planned_session):
        _, result = planned_session
        assert isinstance(result, Summary)
        assert result.throughput_tokens_s > 0
        assert result.duration_s >= 0
        json.dumps(result.to_dict())

    def test_simulate_remembers_last_plan(self, planned_session):
        sess, result = planned_session
        sim = sess.simulate()
        assert isinstance(sim, PipelineSimResult)
        assert isinstance(sim, Summary)
        assert sim.throughput_tokens_s > 0

    def test_simulate_accepts_planner_result_or_plan(self, planned_session):
        sess, result = planned_session
        a = sess.simulate(plan=result)
        b = sess.simulate(plan=result.plan)
        assert a.makespan_s == b.makespan_s

    def test_score_plans_matches_per_plan_simulation(self, planned_session):
        """Uniform lanes equal per-plan ``simulate_plan``; a ragged lane
        equals its event-oracle run."""
        from repro.pipeline import simulate_plan, simulate_plan_variable
        from repro.workloads.spec import VariableBatchWorkload

        sess, result = planned_session
        spec, cluster = sess.spec, sess.cluster
        other = uniform_plan(
            spec.name, spec.num_layers,
            [((d.device_id,), d.gpu.name) for d in cluster.devices], 4, 2, 2,
        )
        scored = sess.score_plans([result, other])
        for plan, res in zip((result.plan, other), scored):
            per_plan = simulate_plan(plan, cluster, spec, WL,
                                     check_memory=False)
            assert res == per_plan
            assert res.energy_j == per_plan.energy_j
        ragged = VariableBatchWorkload(
            prompt_len=WL.prompt_len, output_lens=(1, 16, 3, 9, 16, 2, 7, 12)
        )
        (res,) = sess.score_plans([result], workload=ragged)
        oracle = simulate_plan_variable(
            result.plan, cluster, spec, ragged, check_memory=False,
            sim_backend="event",
        )
        assert res.sim_backend == "fast"
        assert res.energy_j == oracle.energy_j
        assert res == oracle

    def test_simulate_routes_variable_workload(self, planned_session):
        """A ragged batch runs on ``simulate_plan_variable`` with the
        caller's ``check_memory`` and ``sim_backend``; a fault plan,
        which only the uniform degraded mirror runs, is refused."""
        from repro.pipeline import simulate_plan_variable
        from repro.workloads.spec import VariableBatchWorkload

        sess, result = planned_session
        ragged = VariableBatchWorkload(
            prompt_len=WL.prompt_len, output_lens=(1, 16, 3, 9, 16, 2, 7, 12)
        )
        for backend in ("event", "fast"):
            for check_memory in (False, True):
                got = sess.simulate(
                    plan=result, workload=ragged, check_memory=check_memory,
                    sim_backend=backend,
                )
                want = simulate_plan_variable(
                    result.plan, sess.cluster, sess.spec, ragged,
                    check_memory=check_memory, sim_backend=backend,
                )
                assert got == want
                assert got.energy_j == want.energy_j
        assert sess.simulate(plan=result, workload=ragged) != sess.simulate(
            plan=result, workload=ragged.planning_view("max")
        )
        with pytest.raises(ValueError, match="BatchWorkload"):
            sess.simulate(
                plan=result, workload=ragged,
                fault_plan=FaultPlan.single_kill(stage=0, step=2),
            )

    def test_fleet_stats_is_the_seeded_sample(self):
        from repro.hardware.fleet import sample_fleet

        sess = Session("opt-13b", cluster=1,
                       config=PlannerConfig(seed=3))
        stats = sess.fleet_stats(n_gpus=500)
        assert stats == sample_fleet(n_gpus=500, seed=3)
        assert stats != sample_fleet(n_gpus=500, seed=4)
        assert stats.total == 500

    def test_simulate_with_fault_plan_degrades(self):
        spec = get_model("opt-13b")
        cluster = make_cluster(
            "api-2dev", [("A100-40G", 1), ("V100-32G", 1)]
        )
        plan = uniform_plan(
            model_name=spec.name,
            num_layers=spec.num_layers,
            device_groups=[((0,), "A100-40G"), ((1,), "V100-32G")],
            bits=4,
            prefill_microbatch=8,
            decode_microbatch=8,
        )
        sess = Session(spec, cluster)
        wl = BatchWorkload(batch=16, prompt_len=128, output_len=16)
        deg = sess.simulate(
            plan=plan,
            workload=wl,
            fault_plan=FaultPlan.single_kill(stage=1, step=4),
            check_memory=False,
        )
        assert isinstance(deg, DegradedSimResult)
        assert isinstance(deg, Summary)
        assert deg.replans == 1

    def test_simulate_without_plan_raises(self):
        sess = Session("opt-13b", cluster=1)
        with pytest.raises(InfeasibleError):
            sess.simulate(workload=WL)

    def test_simulate_without_workload_raises(self, planned_session):
        sess, result = planned_session
        fresh = Session("opt-13b", cluster=1)
        with pytest.raises(ValueError, match="no workload"):
            fresh.simulate(plan=result.plan)

    def test_bad_plan_type_raises(self):
        sess = Session("opt-13b", cluster=1)
        with pytest.raises(TypeError, match="ExecutionPlan"):
            sess.simulate(plan=42, workload=WL)

    def test_serve_runs_proxy(self, planned_session):
        sess, result = planned_session
        gen = sess.serve()
        assert isinstance(gen, Summary)
        assert gen.tokens.shape[0] == min(WL.batch, 8)
        assert gen.generated_tokens == min(WL.output_len, 8)
        assert gen.throughput_tokens_s > 0

    def test_serve_through_fault(self):
        plan = ExecutionPlan(
            model_name="tiny",
            stages=(
                StagePlan((0, 1, 2), "V100-32G", 0, (8, 8, 8)),
                StagePlan((3, 4, 5), "T4-16G", 3, (4, 4, 8)),
            ),
            prefill_microbatch=2,
            decode_microbatch=2,
        )
        sess = Session("opt-13b", cluster=1)
        gen = sess.serve(
            workload=BatchWorkload(batch=4, prompt_len=8, output_len=6),
            plan=plan,
            fault_plan=FaultPlan.single_kill(stage=1, step=3),
        )
        assert gen.replans == 1
        assert len(gen.fault_events) == 1

    def test_serve_rejects_overlong_prompts(self, planned_session):
        sess, _ = planned_session
        with pytest.raises(ValueError, match="max_seq"):
            sess.serve(
                prompts=np.zeros((2, 100), dtype=np.int64), n_tokens=8
            )


# ---------------------------------------------------------------------------
# Tracer threading
# ---------------------------------------------------------------------------


class TestTracing:
    def test_one_tracer_covers_all_phases(self, tmp_path):
        path = tmp_path / "session.jsonl"
        with Session(
            "opt-13b", cluster=1, config=FAST, trace_path=str(path)
        ) as sess:
            sess.plan(WL)
            sess.simulate()
            sess.serve()
        records = parse_trace(path)
        names = {r["name"] for r in records}
        assert "planner.plan" in names
        assert "sim.run" in names
        assert "runtime.generate" in names
        # The trace is the whole record: no sidecar is written next to it.
        assert [p.name for p in tmp_path.iterdir()] == ["session.jsonl"]
        (plan_span,) = [r for r in records if r["name"] == "planner.plan"]
        assert plan_span["attrs"]["feasible"] is True

    def test_tracer_not_leaked_globally(self):
        sess = Session(
            "opt-13b", cluster=1, config=FAST, tracer=Tracer(enabled=True)
        )
        sess.plan(WL)
        assert current_tracer() is None
        assert len(sess.tracer) > 0

    def test_trace_jsonl_and_flame(self):
        sess = Session(
            "opt-13b", cluster=1, config=FAST, tracer=Tracer(enabled=True)
        )
        sess.plan(WL)
        assert "planner.plan" in sess.trace_jsonl()
        assert "planner.plan" in sess.flame()

    def test_flame_without_tracer(self):
        assert "no tracer" in Session("opt-13b", cluster=1).flame()

    def test_close_is_idempotent(self, tmp_path):
        path = tmp_path / "t.jsonl"
        sess = Session(
            "opt-13b", cluster=1, config=FAST, trace_path=str(path)
        )
        sess.plan(WL)
        sess.close()
        first = path.read_text()
        sess.close()
        assert path.read_text() == first


# ---------------------------------------------------------------------------
# Summary protocol coverage
# ---------------------------------------------------------------------------


class TestSummaryProtocol:
    def test_all_results_share_protocol(self, planned_session):
        sess, result = planned_session
        summaries = [result, sess.simulate(), sess.serve()]
        for s in summaries:
            assert isinstance(s, Summary)
            d = s.to_dict()
            assert "kind" in d
            json.dumps(d)
        kinds = {s.to_dict()["kind"] for s in summaries}
        assert kinds == {"planner", "pipeline_sim", "generation"}
