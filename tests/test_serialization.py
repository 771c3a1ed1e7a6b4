"""Tests for the generic dataclass JSON codec (plans, fault plans, results)."""

import dataclasses
import json

import numpy as np
import pytest

from repro.plan import ExecutionPlan, StagePlan
from repro.serialization import (
    SCHEMA_VERSION,
    dumps_plan,
    from_dict,
    load_plan,
    loads_plan,
    save_plan,
    to_dict,
)


def assert_same(got, want, path="obj"):
    """Field-by-field equality, including ``compare=False`` fields."""
    if dataclasses.is_dataclass(want):
        assert type(got) is type(want), path
        for f in dataclasses.fields(want):
            assert_same(
                getattr(got, f.name), getattr(want, f.name),
                f"{path}.{f.name}",
            )
    elif isinstance(want, np.ndarray):
        assert got.dtype == want.dtype, path
        assert np.array_equal(got, want), path
    elif isinstance(want, (tuple, list)):
        assert type(got) is type(want) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            assert_same(g, w, f"{path}[{i}]")
    elif isinstance(want, dict):
        assert got.keys() == want.keys(), path
        for k in want:
            assert_same(got[k], want[k], f"{path}[{k!r}]")
    else:
        assert got == want, f"{path}: {got!r} != {want!r}"


@pytest.fixture
def plan():
    return ExecutionPlan(
        model_name="opt-30b",
        stages=(
            StagePlan((0, 1), "T4-16G", 0, (4, 4, 8)),
            StagePlan((2,), "V100-32G", 3, (16,)),
        ),
        prefill_microbatch=8,
        decode_microbatch=16,
        bit_kv=8,
    )


def test_roundtrip_exact(plan):
    assert loads_plan(dumps_plan(plan)) == plan


def test_dict_roundtrip(plan):
    assert from_dict(ExecutionPlan, to_dict(plan)) == plan


def test_json_is_valid_and_versioned(plan):
    data = json.loads(dumps_plan(plan))
    assert data["schema_version"] == SCHEMA_VERSION
    assert data["model_name"] == "opt-30b"
    assert len(data["stages"]) == 2


def test_file_roundtrip(plan, tmp_path):
    path = tmp_path / "plan.json"
    save_plan(plan, path)
    assert load_plan(path) == plan


def test_unknown_schema_rejected(plan):
    data = to_dict(plan)
    data["schema_version"] = 999
    with pytest.raises(ValueError, match="schema version"):
        from_dict(ExecutionPlan, data)


def test_bit_kv_default(plan):
    data = to_dict(plan)
    del data["bit_kv"]
    restored = from_dict(ExecutionPlan, data)
    assert restored.bit_kv == 16


def test_corrupt_plan_rejected(plan):
    data = to_dict(plan)
    data["stages"][1]["layer_start"] = 7  # breaks contiguity
    with pytest.raises(ValueError):
        from_dict(ExecutionPlan, data)


def test_planner_output_serializes(opt13b, small_cluster, cost_model_13b,
                                   small_workload, tmp_path):
    from repro.core import PlannerConfig, SplitQuantPlanner

    cfg = PlannerConfig(group_size=5, max_orderings=2,
                        microbatch_candidates=(4,), time_limit_s=10.0,
                        verify_top_k=1)
    res = SplitQuantPlanner(
        opt13b, small_cluster, cfg, cost_model=cost_model_13b
    ).plan(small_workload)
    path = tmp_path / "p.json"
    save_plan(res.plan, path)
    assert load_plan(path) == res.plan


# ---------------------------------------------------------------------------
# Summary-object round-trips (the ``repro.api.Summary`` dict forms)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def planner_result(opt13b, small_cluster, cost_model_13b, small_workload):
    from repro.core import PlannerConfig, SplitQuantPlanner

    cfg = PlannerConfig(group_size=5, max_orderings=2,
                        microbatch_candidates=(4,), time_limit_s=10.0,
                        verify_top_k=1)
    res = SplitQuantPlanner(
        opt13b, small_cluster, cfg, cost_model=cost_model_13b
    ).plan(small_workload)
    assert res is not None
    return res


def _stable(obj):
    """to_dict is a fixed point of from_dict(to_dict(.)) and JSON-safe."""
    d = to_dict(obj)
    json.loads(json.dumps(d))
    assert to_dict(from_dict(type(obj), d)) == d
    return d


def test_planner_result_roundtrip(planner_result):
    d = _stable(planner_result)
    assert d["kind"] == "planner"
    assert_same(from_dict(type(planner_result), d), planner_result)


def test_sim_result_roundtrip(planner_result, opt13b, small_cluster,
                              small_workload):
    from repro.pipeline import simulate_plan

    sim = simulate_plan(
        planner_result.plan, small_cluster, opt13b, small_workload
    )
    d = _stable(sim)
    assert d["kind"] == "pipeline_sim"
    assert_same(from_dict(type(sim), d), sim)


def test_degraded_result_roundtrip():
    from repro.hardware import make_cluster
    from repro.models import get_model
    from repro.pipeline import simulate_degraded
    from repro.plan import uniform_plan
    from repro.pipeline.simulator import DegradedSimResult
    from repro.runtime import FaultPlan
    from repro.serialization import dumps_degraded_result
    from repro.workloads import BatchWorkload

    spec = get_model("opt-13b")
    cluster = make_cluster("ser-2dev", [("A100-40G", 1), ("V100-32G", 1)])
    plan = uniform_plan(
        model_name=spec.name,
        num_layers=spec.num_layers,
        device_groups=[((0,), "A100-40G"), ((1,), "V100-32G")],
        bits=4,
        prefill_microbatch=8,
        decode_microbatch=8,
    )
    deg = simulate_degraded(
        plan, cluster, spec, BatchWorkload(batch=16, prompt_len=128,
                                           output_len=16),
        FaultPlan.single_kill(stage=1, step=4), check_memory=False,
    )
    d = _stable(deg)
    assert d["kind"] == "degraded_sim"
    restored = from_dict(DegradedSimResult, d)
    assert restored.replans == deg.replans == 1
    assert_same(restored, deg)
    # The golden writer alone rounds floats, to 12 significant digits;
    # its text still parses back to the same plans and events.
    golden = from_dict(
        DegradedSimResult, json.loads(dumps_degraded_result(deg))
    )
    assert golden.plans == deg.plans
    (a,), (b,) = golden.fault_events, deg.fault_events
    assert (a.kind, a.stage, a.phase, a.step, a.action, a.detail) == (
        b.kind, b.stage, b.phase, b.step, b.action, b.detail
    )
    assert a.time_s == pytest.approx(b.time_s, rel=1e-11)


def test_generation_result_roundtrip():
    from repro.plan import ExecutionPlan, StagePlan
    from repro.quality import TinyLM, TinyLMConfig
    from repro.runtime import PipelineEngine
    from repro.runtime.engine import GenerationResult

    model = TinyLM(TinyLMConfig(vocab=96, layers=4, hidden=48, ffn=128,
                                heads=4, max_seq=64, seed=3))
    plan = ExecutionPlan(
        model_name="tinylm",
        stages=(
            StagePlan((0, 1), "V100-32G", 0, (8, 8)),
            StagePlan((2, 3), "T4-16G", 2, (4, 8)),
        ),
        prefill_microbatch=2,
        decode_microbatch=2,
    )
    rng = np.random.default_rng(11)
    prompts = rng.integers(0, 96, size=(4, 8))
    with PipelineEngine(model, plan) as engine:
        gen = engine.generate(prompts, n_tokens=5)
    d = to_dict(gen)
    json.loads(json.dumps(d))
    assert d["kind"] == "generation"
    restored = from_dict(GenerationResult, d)
    assert np.array_equal(restored.tokens, gen.tokens)
    assert restored.prompt_tokens == gen.prompt_tokens
    assert restored.replans == gen.replans
    assert to_dict(restored) == d


def test_fault_record_roundtrip():
    from repro.runtime.faults import FaultRecord

    rec = FaultRecord(kind="kill", dead_stages=(1,), dead_devices=(3,),
                      committed_tokens=7, action="degrade",
                      detail="device lost")
    assert from_dict(FaultRecord, to_dict(rec)) == rec


def test_summary_dispatch(planner_result):
    # Every Summary.to_dict is the generic codec; non-dataclasses are
    # rejected with TypeError.
    assert planner_result.to_dict() == to_dict(planner_result)
    assert to_dict(planner_result)["kind"] == "planner"
    with pytest.raises(TypeError):
        to_dict(object())
    with pytest.raises(TypeError):
        from_dict(dict, {})


# ---------------------------------------------------------------------------
# Exact round-trip of every serialized type
# ---------------------------------------------------------------------------


def _examples():
    """One instance per serialized type, with awkward floats and every
    ``Optional`` / ``compare=False`` field set."""
    from repro.core import PlannerResult
    from repro.core.search import CandidateStat, SearchStats
    from repro.fleet import FleetSimResult
    from repro.fleet.online import OnlineFleetResult, OnlineJobRecord
    from repro.fleet.simulator import JobSimRecord
    from repro.pipeline import OnlineSimResult, PipelineSimResult
    from repro.pipeline.events import FaultEvent
    from repro.pipeline.simulator import DegradedSimResult
    from repro.runtime import FaultPlan, FaultSpec
    from repro.runtime.engine import GenerationResult
    from repro.runtime.faults import FaultRecord
    from repro.workloads import BatchWorkload

    third, tiny = 1.0 / 3.0, 5e-324
    plan = ExecutionPlan(
        model_name="opt-30b",
        stages=(
            StagePlan((0, 1), "T4-16G", 0, (4, 4, 8)),
            StagePlan((2,), "V100-32G", 3, (16,)),
        ),
        prefill_microbatch=8,
        decode_microbatch=16,
        bit_kv=8,
    )
    sim = PipelineSimResult(
        makespan_s=0.1 + 0.2, prefill_span_s=third, decode_span_s=tiny,
        total_tokens=123, stage_busy_s=(third, 2.0 / 3.0),
        stage_memory_bytes=(2**40 + 1, 7), events_processed=99,
        sim_backend="fast", backend_reason="variable workload",
        energy_j=1234.567890123456789, cost_usd=1e-9 / 7,
    )
    stat = CandidateStat(
        ordering_key=(("T4-16G", 2), ("V100-32G", 1)), eta=4, xi=8,
        status="optimal", latency_s=third, quality=0.1 + 0.7,
        solve_time_s=tiny, bound_s=2.0 / 7.0,
    )
    search = SearchStats(
        enumerated=10, solved=7, pruned=3, infeasible=1, cache_hits=5,
        cache_misses=2, lp_bounds=4, warm_starts=1,
        mean_bound_tightness=third, wall_time_s=0.1 + 0.2,
        cum_solve_time_s=1.0 / 7.0, bound_time_s=tiny, seeded_incumbents=1,
        batches=2, batched_plans_scored=6,
    )
    workload = BatchWorkload(
        batch=8, prompt_len=256, output_len=16, chunk_tokens=128,
        reserve_output_len=32,
    )
    record = FaultRecord(
        kind="stage-failure", dead_stages=(1,), dead_devices=(2, 3),
        committed_tokens=7, action="replan", detail="device lost",
    )
    faults = FaultPlan(
        specs=(
            FaultSpec("kill", 1, "decode", 3),
            FaultSpec("slow", 0, "decode", 2, mb_id=1, delay_s=third),
            FaultSpec("drop", 0, "prefill", 1),
        ),
        seed=42,
    )
    return {
        "ExecutionPlan": plan,
        "FaultPlan": faults,
        "FaultRecord": record,
        "BatchWorkload": workload,
        "PipelineSimResult": sim,
        "PipelineSimResult-legacy": PipelineSimResult(
            makespan_s=1.5, prefill_span_s=0.5, decode_span_s=1.0,
            total_tokens=4, stage_busy_s=(1.25,), stage_memory_bytes=(0,),
            events_processed=3,
        ),
        "DegradedSimResult": DegradedSimResult(
            makespan_s=third, total_tokens=123, replans=1,
            plans=(plan, plan), segments=(sim, sim),
            fault_events=(
                FaultEvent(time_s=third, kind="kill", stage=1,
                           phase="decode", step=3, action="replan",
                           detail="devices (2,) removed"),
            ),
        ),
        "PlannerResult": PlannerResult(
            plan=plan, predicted_latency_s=third,
            predicted_quality=0.1 + 0.2, throughput_tokens_s=1e6 / 7.0,
            solve_time_s=tiny, candidates_tried=2, stats=(stat, stat),
            search=search, tier="dp", tier_reason="too many orderings",
            gap_bound=1.0 + 1e-15, workload=workload, objective="energy",
            budget=2.0 / 3.0, predicted_energy_j=third * 1e4,
            predicted_cost_usd=1e-7 / 3.0,
        ),
        "GenerationResult": GenerationResult(
            tokens=np.array([[1, 2, 3], [4, 5, 2**40]], dtype=np.int64),
            prefill_time_s=third, decode_time_s=0.1 + 0.2,
            stage_busy_s=(third, tiny), microbatch=2, replans=1,
            fault_events=(record,), plan=plan, prompt_tokens=1,
        ),
        "FleetSimResult": FleetSimResult(
            inventory={"V100-32G": 2, "T4-16G": 3},
            jobs=(
                JobSimRecord(
                    job_id="j0", model="opt-13b",
                    group_counts=(("T4-16G", 2), ("V100-32G", 1)),
                    num_batches=3, start_s=third, end_s=0.1 + 0.2,
                    total_tokens=123, batch_sim=sim,
                ),
            ),
            makespan_s=0.1 + 0.2, total_tokens=123, allocator="greedy",
            energy_j=third, cost_usd=tiny,
        ),
        "OnlineFleetResult": OnlineFleetResult(
            inventory={"V100-32G": 2, "T4-16G": 3},
            jobs=(
                OnlineJobRecord(
                    job_id="j0", model="opt-13b",
                    group_counts=(("T4-16G", 2), ("V100-32G", 1)),
                    arrival_s=tiny, start_s=third, end_s=0.1 + 0.2,
                    total_tokens=123,
                ),
            ),
            dropped=("j1",), makespan_s=0.1 + 0.2, total_tokens=123,
            pool_stats={"evaluations": 4, "cache_hits": 2},
            events_processed=5,
        ),
        "OnlineSimResult": OnlineSimResult(
            makespan_s=0.1 + 0.2, prefill_span_s=third, decode_span_s=tiny,
            total_tokens=50, stage_busy_s=(third,),
            stage_memory_bytes=(2**33,), events_processed=12, arrived=9,
            admitted=7, completed=6, rejected_queue=1, rejected_slo=1,
            rejected_oom=0, unserved=1, groups_formed=3,
            ttft_s=(third, 0.5), tpot_s=(tiny, 0.25),
            latency_s=(0.1 + 0.2, 1.0), area_request_s=2.0 / 3.0,
            ttft_slo_s=8.0, sim_backend="fast",
            energy_j=third, cost_usd=tiny,
        ),
    }


@pytest.mark.parametrize("name", list(_examples()))
def test_every_type_round_trips_exactly(name):
    obj = _examples()[name]
    text = json.dumps(to_dict(obj))
    assert_same(from_dict(type(obj), json.loads(text)), obj)


def test_null_optionals_omitted_and_restored():
    from repro.core import PlannerResult

    res = dataclasses.replace(
        _examples()["PlannerResult"], search=None, gap_bound=None,
        workload=None, budget=None, predicted_energy_j=None,
        predicted_cost_usd=None,
    )
    d = to_dict(res)
    assert None not in d.values()
    assert {"search", "gap_bound", "workload", "budget"}.isdisjoint(d)
    assert_same(from_dict(PlannerResult, d), res)


def test_kind_mismatch_rejected():
    from repro.core import PlannerResult

    d = to_dict(_examples()["PlannerResult"])
    with pytest.raises(ValueError, match="PlannerResult.kind"):
        from_dict(PlannerResult, {**d, "kind": "fleet_sim"})


# ---------------------------------------------------------------------------
# Malformed input raises ValueError naming the class and field
# ---------------------------------------------------------------------------


def _plan_dict():
    return to_dict(_examples()["ExecutionPlan"])


def _drop(d, key):
    del d[key]
    return d


def _set_stage(d, key, value):
    d["stages"][0][key] = value
    return d


def _drop_stage_key(d, key):
    del d["stages"][0][key]
    return d


_MALFORMED_PLANS = {
    "missing-key": (
        lambda d: _drop(d, "model_name"), "ExecutionPlan.model_name"
    ),
    "missing-nested-key": (
        lambda d: _drop_stage_key(d, "gpu_name"), "StagePlan.gpu_name"
    ),
    "null-stages": (
        lambda d: {**d, "stages": None}, "ExecutionPlan.stages"
    ),
    "scalar-device-ids": (
        lambda d: _set_stage(d, "device_ids", 3), "StagePlan.device_ids"
    ),
    "non-integral-int": (
        lambda d: {**d, "decode_microbatch": 2.7},
        "ExecutionPlan.decode_microbatch",
    ),
    "bool-in-int": (
        lambda d: {**d, "prefill_microbatch": True},
        "ExecutionPlan.prefill_microbatch",
    ),
    "string-in-int": (
        lambda d: _set_stage(d, "layer_start", "0"), "StagePlan.layer_start"
    ),
    "number-in-string": (
        lambda d: {**d, "model_name": 30}, "ExecutionPlan.model_name"
    ),
    "non-object-stage": (
        lambda d: {**d, "stages": [7]}, "ExecutionPlan.stages"
    ),
    "non-object-top-level": (lambda d: [d], "ExecutionPlan"),
}


@pytest.mark.parametrize("case", list(_MALFORMED_PLANS))
def test_malformed_plan_dict_raises_value_error(case):
    mutate, where = _MALFORMED_PLANS[case]
    with pytest.raises(ValueError, match=where.replace(".", r"\.")):
        from_dict(ExecutionPlan, mutate(_plan_dict()))


@pytest.mark.parametrize(
    "name, key, bad, where",
    [
        ("PlannerResult", "stats", 5, "PlannerResult.stats"),
        ("FaultPlan", "specs", [1], "FaultPlan.specs"),
        ("GenerationResult", "tokens", [[1.5, 2]], "GenerationResult.tokens"),
        ("GenerationResult", "tokens", [[1], [2, 3]], "GenerationResult.tokens"),
        ("FleetSimResult", "inventory", {"T4-16G": "2"},
         "FleetSimResult.inventory"),
    ],
)
def test_malformed_result_dict_raises_value_error(name, key, bad, where):
    obj = _examples()[name]
    with pytest.raises(ValueError, match=where):
        from_dict(type(obj), {**to_dict(obj), key: bad})
