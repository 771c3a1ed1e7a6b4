"""Differential tests: batched frontier evaluation vs per-plan fastsim.

``evaluate_plans`` claims each lane of the batched sweep is *bit-equal*
to running the per-plan fast backend on that case alone (and therefore
to the discrete-event oracle), even when the frontier is ragged — mixed
stage counts, micro-batch counts, decode horizons and workloads in one
call.  Every assertion here is ``==`` on whole results.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.hardware import make_cluster, table_iii_cluster
from repro.models import get_model
from repro.obs import Tracer, use_tracer
from repro.pipeline import (
    PlanCase,
    clear_table_caches,
    evaluate_plans,
    simulate_plan,
    simulate_plan_variable,
)
from repro.plan import uniform_plan
from repro.simgpu import OutOfMemoryError
from repro.workloads import BatchWorkload
from repro.workloads.spec import VariableBatchWorkload


def groups_of(cluster):
    return [((d.device_id,), d.gpu.name) for d in cluster.devices]


# The same seeded grid the per-plan differential suite uses: mixed
# cluster sizes (1..5 stages), models, bitwidths and micro-batching.
GRID = [
    # (cluster index, model, bits, batch, prompt, out, chunk, mb_pre, mb_dec)
    (5, "opt-13b", 8, 8, 256, 32, 2048, 4, 4),
    (5, "opt-13b", 4, 32, 512, 64, 256, 8, 16),
    (2, "opt-13b", 8, 16, 1024, 16, 512, 2, 8),
    (7, "opt-30b", 4, 64, 512, 128, 1024, 16, 32),
    (9, "opt-13b", 16, 24, 384, 48, 384, 6, 12),
    (10, "opt-30b", 16, 8, 2048, 8, 512, 8, 8),
    (1, "opt-13b", 4, 8, 256, 32, 2048, 4, 4),  # single stage
]


def _grid_case(idx, model, bits, batch, prompt, out, chunk, mb_pre, mb_dec):
    cluster = table_iii_cluster(idx)
    spec = get_model(model)
    plan = uniform_plan(
        spec.name, spec.num_layers, groups_of(cluster), bits, mb_pre, mb_dec
    )
    wl = BatchWorkload(
        batch=batch, prompt_len=prompt, output_len=out, chunk_tokens=chunk
    )
    return PlanCase(plan=plan, cluster=cluster, spec=spec, workload=wl)


def test_mixed_frontier_bit_identical():
    """One ragged batched call == per-plan fastsim == event engine."""
    cases = [_grid_case(*row) for row in GRID]
    # A no-decode member (output_len == 1) rides along in the same batch.
    short = GRID[0][:5] + (1,) + GRID[0][6:]
    cases.append(_grid_case(*short))
    batched = evaluate_plans(cases, check_memory=True)
    assert len(batched) == len(cases)
    for case, res in zip(cases, batched):
        fast = simulate_plan(
            case.plan, case.cluster, case.spec, case.workload,
            sim_backend="fast",
        )
        assert res.sim_backend == "fast"
        assert res.backend_reason is None
        assert res.makespan_s == fast.makespan_s
        assert res.prefill_span_s == fast.prefill_span_s
        assert res.decode_span_s == fast.decode_span_s
        assert res.stage_busy_s == fast.stage_busy_s
        assert res == fast
    # Event-engine oracle parity on a couple of members (the per-plan
    # fast backend is itself differentially tested against the oracle).
    for i in (0, 3):
        ev = simulate_plan(
            cases[i].plan, cases[i].cluster, cases[i].spec,
            cases[i].workload, sim_backend="event",
        )
        assert batched[i] == ev


def test_mixed_uniform_and_ragged_frontier_matches_event_oracle():
    """Uniform lanes and lanes whose requests retire mid-decode in one
    call: every lane equals its own event-oracle run, energy included."""
    import random

    rng = random.Random(7)
    cases = []
    for row in GRID:
        uniform = _grid_case(*row)
        cases.append(uniform)
        wl = uniform.workload
        lens = tuple(rng.randint(1, wl.output_len) for _ in range(wl.batch))
        cases.append(replace(uniform, workload=VariableBatchWorkload(
            prompt_len=wl.prompt_len, output_lens=lens,
            chunk_tokens=wl.chunk_tokens,
        )))
    batched = evaluate_plans(cases, check_memory=True)
    for case, res in zip(cases, batched):
        sim = (
            simulate_plan_variable
            if isinstance(case.workload, VariableBatchWorkload)
            else simulate_plan
        )
        oracle = sim(case.plan, case.cluster, case.spec, case.workload,
                     sim_backend="event")
        assert res.sim_backend == "fast"
        assert res.energy_j == oracle.energy_j
        assert res == oracle


def test_empty_frontier():
    assert evaluate_plans([]) == []


def test_singleton_frontier(small_cluster, opt13b, small_workload):
    plan = uniform_plan(
        opt13b.name, opt13b.num_layers, groups_of(small_cluster), 8, 4, 4
    )
    case = PlanCase(
        plan=plan, cluster=small_cluster, spec=opt13b, workload=small_workload
    )
    (res,) = evaluate_plans([case], check_memory=True)
    fast = simulate_plan(
        plan, small_cluster, opt13b, small_workload, sim_backend="fast"
    )
    assert res == fast


def test_replaced_gpu_spec_is_not_served_stale_timings():
    """A ``GPUSpec.replace`` copy keeps the GPU's name, not its timing.

    Cluster 5 next to a copy whose decode bandwidth is quartered: each
    lane must equal its own per-plan run (2.845 s vs 6.653 s), not
    reuse the first cluster's name-keyed stage times or unit costs.
    """
    spec = get_model("opt-13b")
    fast = table_iii_cluster(5)
    slow = replace(fast, devices=tuple(
        replace(d, gpu=d.gpu.replace(
            mem_bw_decode_gbps=d.gpu.mem_bw_decode_gbps / 4
        ))
        for d in fast.devices
    ))
    wl = BatchWorkload(batch=16, prompt_len=256, output_len=32)
    cases = [
        PlanCase(
            plan=uniform_plan(
                spec.name, spec.num_layers, groups_of(c), 4, 8, 8
            ),
            cluster=c, spec=spec, workload=wl,
        )
        for c in (fast, slow)
    ]
    clear_table_caches()
    alone = [
        simulate_plan(
            c.plan, c.cluster, c.spec, c.workload, check_memory=False
        )
        for c in cases
    ]
    assert alone[1].makespan_s > 2 * alone[0].makespan_s
    clear_table_caches()
    assert evaluate_plans(cases) == alone


def test_check_memory_raises_like_per_plan(small_cluster, opt30b,
                                           small_workload):
    plan = uniform_plan(
        opt30b.name, opt30b.num_layers, groups_of(small_cluster), 16, 4, 4
    )
    case = PlanCase(
        plan=plan, cluster=small_cluster, spec=opt30b, workload=small_workload
    )
    # Default: frontier scoring skips the memory check.
    (res,) = evaluate_plans([case])
    assert res.stage_memory_bytes == tuple(0 for _ in plan.stages)
    with pytest.raises(OutOfMemoryError):
        evaluate_plans([case], check_memory=True)


def test_variable_uniform_member(small_cluster, opt13b):
    """A fixed-size variable workload rides the batched fast path."""
    plan = uniform_plan(
        opt13b.name, opt13b.num_layers, groups_of(small_cluster), 8, 4, 4
    )
    wl = VariableBatchWorkload(prompt_len=256, output_lens=(24,) * 8)
    case = PlanCase(
        plan=plan, cluster=small_cluster, spec=opt13b, workload=wl
    )
    (res,) = evaluate_plans([case])
    fast = simulate_plan_variable(
        plan, small_cluster, opt13b, wl, check_memory=False,
        sim_backend="fast",
    )
    assert res.sim_backend == "fast"
    assert res.total_tokens == wl.total_output_tokens
    assert res == fast


def test_retiring_member_runs_online_fast(small_cluster, opt13b):
    """A retiring member runs on the online fast driver, no fallback."""
    plan = uniform_plan(
        opt13b.name, opt13b.num_layers, groups_of(small_cluster), 8, 4, 4
    )
    retiring = VariableBatchWorkload(
        prompt_len=256, output_lens=(8, 16, 24, 32, 8, 16, 24, 32)
    )
    uniform = BatchWorkload(batch=8, prompt_len=256, output_len=32)
    cases = [
        PlanCase(plan=plan, cluster=small_cluster, spec=opt13b,
                 workload=uniform),
        PlanCase(plan=plan, cluster=small_cluster, spec=opt13b,
                 workload=retiring),
    ]
    tracer = Tracer(enabled=True)
    with use_tracer(tracer):
        uniform_res, retiring_res = evaluate_plans(cases, check_memory=True)
    names = [r["name"] for r in tracer.records]
    # One batched sweep; the retiring lane is the one per-plan run.
    assert names.count("sim.run_variable") == 1
    (span,) = [r for r in tracer.records if r["name"] == "batchsim.evaluate"]
    assert span["attrs"] == {"plans": 2, "batched": 1}
    for res in (uniform_res, retiring_res):
        assert res.sim_backend == "fast"
        assert res.backend_reason is None
    oracle = simulate_plan_variable(
        plan, small_cluster, opt13b, retiring, sim_backend="event"
    )
    assert retiring_res == oracle


def test_counters_and_span(small_cluster, opt13b, small_workload):
    plan = uniform_plan(
        opt13b.name, opt13b.num_layers, groups_of(small_cluster), 8, 4, 4
    )
    cases = [
        PlanCase(plan=plan, cluster=small_cluster, spec=opt13b,
                 workload=small_workload)
    ] * 3
    tracer = Tracer(enabled=True)
    with use_tracer(tracer):
        evaluate_plans(cases)
    (span,) = [r for r in tracer.records if r["name"] == "batchsim.evaluate"]
    assert span["attrs"] == {"plans": 3, "batched": 3}


def test_layer_mismatch_rejected(small_cluster, opt13b, opt30b,
                                 small_workload):
    plan = uniform_plan(
        opt13b.name, opt13b.num_layers, groups_of(small_cluster), 8, 4, 4
    )
    case = PlanCase(
        plan=plan, cluster=small_cluster, spec=opt30b, workload=small_workload
    )
    with pytest.raises(ValueError, match="layers"):
        evaluate_plans([case])


# -- property: random ragged frontiers stay exact ------------------------

_MEMBER = st.tuples(
    st.integers(min_value=1, max_value=32),      # batch
    st.integers(min_value=32, max_value=512),    # prompt
    st.integers(min_value=1, max_value=24),      # out
    st.sampled_from([128, 256, 2048]),           # chunk
    st.sampled_from([1, 2, 3, 4]),               # mb_pre
    st.sampled_from([1, 2, 4, 5, 8]),            # mb_dec
    st.sampled_from([3, 4, 8, 16]),              # bits
    st.sampled_from([1, 2, 3]),                  # n_devices -> n_stages
)


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(members=st.lists(_MEMBER, min_size=1, max_size=4))
def test_batched_equals_per_plan_property(members):
    spec = get_model("opt-13b")
    cases = []
    for batch, prompt, out, chunk, mb_pre, mb_dec, bits, n_dev in members:
        cluster = make_cluster(
            f"prop-{n_dev}",
            [("T4-16G", 1), ("V100-32G", 1), ("T4-16G", 1)][:n_dev],
        )
        plan = uniform_plan(
            spec.name, spec.num_layers, groups_of(cluster), bits,
            mb_pre, mb_dec,
        )
        wl = BatchWorkload(
            batch=batch, prompt_len=prompt, output_len=out,
            chunk_tokens=chunk,
        )
        cases.append(
            PlanCase(plan=plan, cluster=cluster, spec=spec, workload=wl)
        )
    batched = evaluate_plans(cases)
    for case, res in zip(cases, batched):
        fast = simulate_plan(
            case.plan, case.cluster, case.spec, case.workload,
            check_memory=False, sim_backend="fast",
        )
        assert res == fast
