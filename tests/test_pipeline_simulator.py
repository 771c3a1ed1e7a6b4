"""Tests for the end-to-end pipeline serving simulator."""

import pytest

from repro.pipeline import (
    CostModelTiming,
    RooflineTiming,
    StageExecutionModel,
    check_plan_memory,
    simulate_plan,
)
from repro.plan import StagePlan, uniform_plan
from repro.simgpu import OutOfMemoryError
from repro.workloads import BatchWorkload
from tests import stage_oracle


def groups_of(cluster):
    return [((d.device_id,), d.gpu.name) for d in cluster.devices]


def test_basic_simulation(small_cluster, opt13b, small_workload):
    plan = uniform_plan(
        opt13b.name, opt13b.num_layers, groups_of(small_cluster), 8, 4, 4
    )
    res = simulate_plan(plan, small_cluster, opt13b, small_workload)
    assert res.makespan_s > 0
    assert res.throughput_tokens_s > 0
    assert res.total_tokens == small_workload.batch * small_workload.output_len
    assert res.makespan_s == pytest.approx(
        res.prefill_span_s + res.decode_span_s
    )
    assert len(res.stage_busy_s) == 2


def test_busy_time_bounded_by_makespan(small_cluster, opt13b, small_workload):
    plan = uniform_plan(
        opt13b.name, opt13b.num_layers, groups_of(small_cluster), 8, 4, 4
    )
    res = simulate_plan(plan, small_cluster, opt13b, small_workload)
    for busy in res.stage_busy_s:
        assert busy <= res.makespan_s * (1 + 1e-9)
    assert 0 <= res.bubble_fraction < 1


def test_layer_count_mismatch_rejected(small_cluster, opt13b, small_workload):
    plan = uniform_plan("x", 10, groups_of(small_cluster), 8, 4, 4)
    with pytest.raises(ValueError, match="layers"):
        simulate_plan(plan, small_cluster, opt13b, small_workload)


def test_plan_for_another_model_rejected():
    """A plan made for another model of the same depth is a ValueError
    on every simulator entry point, not a run on the wrong bitwidths."""
    from repro.baselines import plan_uniform_baseline
    from repro.hardware import table_iii_cluster
    from repro.models import get_model
    from repro.pipeline import (
        OnlineConfig,
        PlanCase,
        evaluate_plans,
        simulate_online,
    )
    from repro.workloads import closed_batch_trace

    opt30b, qwen = get_model("opt-30b"), get_model("qwen2.5-14b")
    assert opt30b.num_layers == qwen.num_layers
    cluster = table_iii_cluster(2)
    wl = BatchWorkload(batch=8, prompt_len=256, output_len=32)
    plan = plan_uniform_baseline(opt30b, cluster, wl).plan
    match = "plan is for model 'opt-30b', not 'qwen2.5-14b'"
    with pytest.raises(ValueError, match=match):
        simulate_plan(plan, cluster, qwen, wl)
    with pytest.raises(ValueError, match=match):
        evaluate_plans([PlanCase(plan, cluster, qwen, wl)])
    with pytest.raises(ValueError, match=match):
        simulate_online(plan, cluster, qwen, closed_batch_trace(wl),
                        OnlineConfig())


def test_plan_for_another_cluster_rejected(opt13b, small_workload):
    """A stage naming a device the cluster lacks, or a device of another
    GPU model, is a ValueError on every simulator entry point."""
    from repro import Session
    from repro.baselines import plan_uniform_baseline
    from repro.hardware import table_iii_cluster
    from repro.pipeline import OnlineConfig, simulate_online
    from repro.workloads import poisson_trace

    c1, c5 = table_iii_cluster(1), table_iii_cluster(5)
    plan5 = plan_uniform_baseline(opt13b, c5, small_workload).plan
    plan1 = plan_uniform_baseline(opt13b, c1, small_workload).plan
    trace = poisson_trace(2.0, 5.0, seed=0, max_prompt_len=128,
                          max_output_len=16)
    ghost = uniform_plan(opt13b.name, opt13b.num_layers,
                         [((7,), "V100-32G")], 8, 4, 4)
    for plan, cluster, match in ((plan5, c1, "'cluster-1' has V100-32G"),
                                 (plan1, c5, "'cluster-5' has T4-16G"),
                                 (ghost, c1, "has no such device")):
        with pytest.raises(ValueError, match=match):
            check_plan_memory(plan, cluster, opt13b, small_workload)
        with pytest.raises(ValueError, match=match):
            simulate_plan(plan, cluster, opt13b, small_workload,
                          check_memory=False)
        with pytest.raises(ValueError, match=match):
            simulate_online(plan, cluster, opt13b, trace, OnlineConfig())
    with pytest.raises(ValueError, match="'cluster-5' has T4-16G"):
        Session("opt-13b", cluster=5).simulate(plan=plan1,
                                               workload=small_workload)


def test_oom_detected(small_cluster, opt30b, small_workload):
    """OPT-30B FP16 cannot fit a 16 GB T4 stage."""
    plan = uniform_plan(
        opt30b.name, opt30b.num_layers, groups_of(small_cluster), 16, 4, 4
    )
    with pytest.raises(OutOfMemoryError):
        simulate_plan(plan, small_cluster, opt30b, small_workload)


def test_check_memory_skippable(small_cluster, opt30b, small_workload):
    plan = uniform_plan(
        opt30b.name, opt30b.num_layers, groups_of(small_cluster), 16, 4, 4
    )
    res = simulate_plan(
        plan, small_cluster, opt30b, small_workload, check_memory=False
    )
    assert res.makespan_s > 0


def test_more_microbatches_fill_pipeline(small_cluster, opt13b):
    wl = BatchWorkload(batch=16, prompt_len=256, output_len=32)
    one = uniform_plan(
        opt13b.name, opt13b.num_layers, groups_of(small_cluster), 8, 16, 16
    )
    four = uniform_plan(
        opt13b.name, opt13b.num_layers, groups_of(small_cluster), 8, 4, 4
    )
    r_one = simulate_plan(one, small_cluster, opt13b, wl)
    r_four = simulate_plan(four, small_cluster, opt13b, wl)
    # Pipelining with multiple micro-batches beats a single giant batch
    # across 2 stages (bubble elimination beats kernel efficiency here).
    assert r_four.prefill_span_s < r_one.prefill_span_s


def test_quantization_improves_decode(small_cluster, opt13b, small_workload):
    p16 = uniform_plan(
        opt13b.name, opt13b.num_layers, groups_of(small_cluster), 16, 4, 4
    )
    p4 = uniform_plan(
        opt13b.name, opt13b.num_layers, groups_of(small_cluster), 4, 4, 4
    )
    r16 = simulate_plan(p16, small_cluster, opt13b, small_workload,
                        check_memory=False)
    r4 = simulate_plan(p4, small_cluster, opt13b, small_workload,
                       check_memory=False)
    assert r4.decode_span_s < r16.decode_span_s


def test_single_stage_no_comm(opt13b, small_workload):
    from repro.hardware import make_cluster

    cluster = make_cluster("one", [("V100-32G", 1)])
    plan = uniform_plan(
        opt13b.name, opt13b.num_layers, groups_of(cluster), 8, 4, 4
    )
    res = simulate_plan(plan, cluster, opt13b, small_workload)
    assert res.throughput_tokens_s > 0


def test_output_len_one_skips_decode(small_cluster, opt13b):
    wl = BatchWorkload(batch=4, prompt_len=128, output_len=1)
    plan = uniform_plan(
        opt13b.name, opt13b.num_layers, groups_of(small_cluster), 8, 4, 4
    )
    res = simulate_plan(plan, small_cluster, opt13b, wl)
    assert res.decode_span_s == 0.0
    assert res.total_tokens == 4


def test_cost_model_timing_close_to_roofline(
    small_cluster, opt13b, small_workload, cost_model_13b
):
    plan = uniform_plan(
        opt13b.name, opt13b.num_layers, groups_of(small_cluster), 8, 4, 4
    )
    truth = simulate_plan(plan, small_cluster, opt13b, small_workload)
    pred = simulate_plan(
        plan, small_cluster, opt13b, small_workload,
        timing=CostModelTiming(cost_model=cost_model_13b, spec=opt13b),
        check_memory=False,
    )
    assert abs(pred.makespan_s - truth.makespan_s) / truth.makespan_s < 0.1


def test_check_plan_memory_returns_usage(small_cluster, opt13b, small_workload):
    plan = uniform_plan(
        opt13b.name, opt13b.num_layers, groups_of(small_cluster), 4, 4, 4
    )
    usage = check_plan_memory(plan, small_cluster, opt13b, small_workload)
    assert len(usage) == 2
    assert all(u > 0 for u in usage)


def test_decode_time_series_interpolation(opt13b, v100):
    sm = StageExecutionModel(
        stage=StagePlan((0,), v100.name, 0, (8,) * 4),
        gpu=v100,
        spec=opt13b,
        timing=RooflineTiming(spec=opt13b),
    )
    series = sm.decode_time_series(4, 256, 50)
    assert len(series) == 49
    # Monotone non-decreasing in context.
    assert all(b >= a - 1e-12 for a, b in zip(series, series[1:]))
    exact = stage_oracle.decode_step_time(sm, 4, 256 + 25)
    assert abs(series[24] - exact) / exact < 0.02


def test_stage_chunk_time_scales_with_layers(opt13b, v100):
    one = StageExecutionModel(
        stage=StagePlan((0,), v100.name, 0, (8,)),
        gpu=v100, spec=opt13b, timing=RooflineTiming(spec=opt13b),
    )
    four = StageExecutionModel(
        stage=StagePlan((0,), v100.name, 0, (8,) * 4),
        gpu=v100, spec=opt13b, timing=RooflineTiming(spec=opt13b),
    )
    assert four.prefill_chunk_time(4, 256) == pytest.approx(
        4 * one.prefill_chunk_time(4, 256)
    )


def test_first_last_stage_extras(opt13b, v100):
    base = StageExecutionModel(
        stage=StagePlan((0,), v100.name, 0, (8,)),
        gpu=v100, spec=opt13b, timing=RooflineTiming(spec=opt13b),
    )
    first = StageExecutionModel(
        stage=StagePlan((0,), v100.name, 0, (8,)),
        gpu=v100, spec=opt13b, timing=RooflineTiming(spec=opt13b),
        is_first=True,
    )
    last = StageExecutionModel(
        stage=StagePlan((0,), v100.name, 0, (8,)),
        gpu=v100, spec=opt13b, timing=RooflineTiming(spec=opt13b),
        is_last=True,
    )
    t = base.decode_time_series(4, 255, 2)[0]
    assert first.decode_time_series(4, 255, 2)[0] > t
    assert last.decode_time_series(4, 255, 2)[0] > t
