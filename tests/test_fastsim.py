"""Differential tests: the closed-form fast simulator vs the event loop.

The fast path claims *bit-exact* equality with the discrete-event oracle
(not approximate agreement), so every assertion here is ``==`` on raw
floats.  ``PipelineSimResult.sim_backend`` is excluded from dataclass
equality precisely so whole results can be compared directly.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.hardware import make_cluster, table_iii_cluster
from repro.models import get_model
from repro.obs import Tracer, use_tracer
from repro.pipeline import (
    SIM_BACKENDS,
    simulate_plan,
    simulate_plan_variable,
    trace_plan,
)
from repro.plan import uniform_plan
from repro.simgpu import OutOfMemoryError
from repro.workloads import BatchWorkload
from repro.workloads.spec import VariableBatchWorkload


def groups_of(cluster):
    return [((d.device_id,), d.gpu.name) for d in cluster.devices]


def _assert_identical(ev, fa):
    """Field-by-field exact equality (plus the dataclass comparison)."""
    assert fa.sim_backend == "fast" and ev.sim_backend == "event"
    assert ev.makespan_s == fa.makespan_s
    assert ev.prefill_span_s == fa.prefill_span_s
    assert ev.decode_span_s == fa.decode_span_s
    assert ev.total_tokens == fa.total_tokens
    assert ev.stage_busy_s == fa.stage_busy_s
    assert ev.stage_memory_bytes == fa.stage_memory_bytes
    assert ev.events_processed == fa.events_processed
    # Derived metrics follow, but assert them anyway: these are what the
    # experiments actually report.
    assert ev.throughput_tokens_s == fa.throughput_tokens_s
    assert ev.stage_utilization == fa.stage_utilization
    assert ev.bubble_fraction == fa.bubble_fraction
    assert ev == fa


# -- seeded grid ---------------------------------------------------------

GRID = [
    # (cluster index, model, bits, batch, prompt, out, chunk, mb_pre, mb_dec)
    (5, "opt-13b", 8, 8, 256, 32, 2048, 4, 4),
    (5, "opt-13b", 4, 32, 512, 64, 256, 8, 16),
    (2, "opt-13b", 8, 16, 1024, 16, 512, 2, 8),
    (7, "opt-30b", 4, 64, 512, 128, 1024, 16, 32),
    (9, "opt-13b", 16, 24, 384, 48, 384, 6, 12),  # remainder microbatches
    (10, "opt-30b", 16, 8, 2048, 8, 512, 8, 8),  # kappa = 4
]


@pytest.mark.parametrize(
    "idx,model,bits,batch,prompt,out,chunk,mb_pre,mb_dec", GRID
)
def test_fast_equals_event_grid(
    idx, model, bits, batch, prompt, out, chunk, mb_pre, mb_dec
):
    cluster = table_iii_cluster(idx)
    spec = get_model(model)
    plan = uniform_plan(
        spec.name, spec.num_layers, groups_of(cluster), bits, mb_pre, mb_dec
    )
    wl = BatchWorkload(
        batch=batch, prompt_len=prompt, output_len=out, chunk_tokens=chunk
    )
    ev = simulate_plan(plan, cluster, spec, wl, sim_backend="event")
    fa = simulate_plan(plan, cluster, spec, wl, sim_backend="fast")
    _assert_identical(ev, fa)


def test_single_stage_cluster(opt13b):
    cluster = table_iii_cluster(1)  # one V100: no links, no feedback
    plan = uniform_plan(
        opt13b.name, opt13b.num_layers, groups_of(cluster), 4, 4, 4
    )
    wl = BatchWorkload(batch=8, prompt_len=256, output_len=32)
    ev = simulate_plan(plan, cluster, opt13b, wl, sim_backend="event")
    fa = simulate_plan(plan, cluster, opt13b, wl, sim_backend="fast")
    _assert_identical(ev, fa)


def test_single_token_output(small_cluster, opt13b):
    """No decode phase at all (output_len == 1)."""
    plan = uniform_plan(
        opt13b.name, opt13b.num_layers, groups_of(small_cluster), 8, 4, 4
    )
    wl = BatchWorkload(batch=8, prompt_len=256, output_len=1)
    ev = simulate_plan(plan, cluster := small_cluster, opt13b, wl,
                       sim_backend="event")
    fa = simulate_plan(plan, cluster, opt13b, wl, sim_backend="fast")
    assert fa.decode_span_s == 0.0
    _assert_identical(ev, fa)


def test_oom_parity(small_cluster, opt30b, small_workload):
    """Both backends reject a memory-infeasible plan identically."""
    plan = uniform_plan(
        opt30b.name, opt30b.num_layers, groups_of(small_cluster), 16, 4, 4
    )
    for backend in ("event", "fast"):
        with pytest.raises(OutOfMemoryError):
            simulate_plan(
                plan, small_cluster, opt30b, small_workload,
                sim_backend=backend,
            )


def test_auto_dispatch(small_cluster, opt13b, small_workload):
    plan = uniform_plan(
        opt13b.name, opt13b.num_layers, groups_of(small_cluster), 8, 4, 4
    )
    auto = simulate_plan(plan, small_cluster, opt13b, small_workload)
    assert auto.sim_backend == "fast"
    ev = simulate_plan(
        plan, small_cluster, opt13b, small_workload, sim_backend="event"
    )
    assert auto == ev


def test_unknown_backend_rejected(small_cluster, opt13b, small_workload):
    plan = uniform_plan(
        opt13b.name, opt13b.num_layers, groups_of(small_cluster), 8, 4, 4
    )
    assert SIM_BACKENDS == ("event", "fast", "auto")
    with pytest.raises(ValueError, match="sim_backend"):
        simulate_plan(
            plan, small_cluster, opt13b, small_workload, sim_backend="vroom"
        )


def test_trace_plan_still_records_jobs(small_cluster, opt13b, small_workload):
    """Per-job timelines need real servers: trace_plan pins the event
    engine even though auto-dispatch would pick the fast path."""
    plan = uniform_plan(
        opt13b.name, opt13b.num_layers, groups_of(small_cluster), 8, 4, 4
    )
    tl = trace_plan(plan, small_cluster, opt13b, small_workload)
    assert tl.result.sim_backend == "event"
    assert all(len(jobs) > 0 for _, jobs in tl.stages)


# -- variable-output workloads ------------------------------------------

def test_variable_fixed_size_exact(small_cluster, opt13b):
    plan = uniform_plan(
        opt13b.name, opt13b.num_layers, groups_of(small_cluster), 8, 4, 4
    )
    wl = VariableBatchWorkload(prompt_len=256, output_lens=(24,) * 8)
    auto = simulate_plan_variable(plan, small_cluster, opt13b, wl)
    assert auto.sim_backend == "fast" and auto.backend_reason is None
    ev = simulate_plan_variable(
        plan, small_cluster, opt13b, wl, sim_backend="event"
    )
    fa = simulate_plan_variable(
        plan, small_cluster, opt13b, wl, sim_backend="fast"
    )
    _assert_identical(ev, fa)
    assert fa.total_tokens == wl.total_output_tokens


def test_variable_retiring_uses_online_fast(small_cluster, opt13b):
    """A retiring batch runs on the online fast driver under both fast
    dispatches, bit-identical to the event oracle."""
    plan = uniform_plan(
        opt13b.name, opt13b.num_layers, groups_of(small_cluster), 8, 4, 4
    )
    wl = VariableBatchWorkload(
        prompt_len=256, output_lens=(8, 16, 24, 32, 8, 16, 24, 32)
    )
    ev = simulate_plan_variable(
        plan, small_cluster, opt13b, wl, sim_backend="event"
    )
    for backend in ("auto", "fast"):
        fa = simulate_plan_variable(
            plan, small_cluster, opt13b, wl, sim_backend=backend
        )
        assert fa.backend_reason is None
        _assert_identical(ev, fa)
        assert fa.energy_j == ev.energy_j
    assert ev.total_tokens == wl.total_output_tokens


# -- span parity: the phase spans are backend-independent ---------------

def _phase_spans(run):
    """(name, attrs) of every ``sim.prefill`` / ``sim.decode`` span."""
    tracer = Tracer(enabled=True)
    with use_tracer(tracer):
        run()
    return [
        (r["name"], r["attrs"])
        for r in tracer.records
        if r["name"] in ("sim.prefill", "sim.decode")
    ]


@pytest.mark.parametrize("variable", [False, True])
def test_backends_emit_identical_phase_spans(small_cluster, opt13b, variable):
    plan = uniform_plan(
        opt13b.name, opt13b.num_layers, groups_of(small_cluster), 8, 3, 2
    )
    if variable:
        wl = VariableBatchWorkload(
            prompt_len=300, output_lens=(12,) * 7, chunk_tokens=128
        )
        sim = simulate_plan_variable
    else:
        wl = BatchWorkload(
            batch=7, prompt_len=300, output_len=12, chunk_tokens=128
        )
        sim = simulate_plan
    spans = {
        be: _phase_spans(
            lambda be=be: sim(plan, small_cluster, opt13b, wl, sim_backend=be)
        )
        for be in ("event", "fast")
    }
    assert [name for name, _ in spans["event"]] == ["sim.prefill", "sim.decode"]
    assert spans["event"] == spans["fast"]
    prefill, decode = (attrs for _, attrs in spans["event"])
    assert prefill == {"microbatches": 3, "chunks": 3, "events": 18}
    assert decode == {"microbatches": 4, "steps": 11, "events": 88}


def test_retiring_batch_emits_phase_spans(small_cluster, opt13b):
    plan = uniform_plan(
        opt13b.name, opt13b.num_layers, groups_of(small_cluster), 8, 4, 4
    )
    wl = VariableBatchWorkload(
        prompt_len=256, output_lens=(8, 16, 24, 32, 8, 16, 24, 32)
    )
    spans = _phase_spans(
        lambda: simulate_plan_variable(plan, small_cluster, opt13b, wl)
    )
    assert [name for name, _ in spans] == ["sim.prefill", "sim.decode"]
    res = simulate_plan_variable(plan, small_cluster, opt13b, wl)
    assert res.sim_backend == "fast"
    prefill, decode = (attrs for _, attrs in spans)
    assert decode["steps"] == 31
    assert prefill["events"] + decode["events"] == res.events_processed


# -- property: random shapes stay exact ---------------------------------

@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    batch=st.integers(min_value=1, max_value=48),
    prompt=st.integers(min_value=32, max_value=768),
    out=st.integers(min_value=1, max_value=40),
    chunk=st.sampled_from([128, 256, 512, 2048]),
    mb_pre=st.sampled_from([1, 2, 3, 4, 8]),
    mb_dec=st.sampled_from([1, 2, 4, 5, 8, 16]),
    bits=st.sampled_from([3, 4, 8, 16]),
    reserve=st.integers(min_value=0, max_value=256),
)
# KV reserved past the last token (a variable batch's worst-case view):
# memory and energy follow the reservation identically on both backends.
@example(batch=8, prompt=256, out=16, chunk=256, mb_pre=4, mb_dec=4,
         bits=8, reserve=48)
# Fits without the reservation, misfits with it: the same OOM on both.
@example(batch=32, prompt=512, out=32, chunk=512, mb_pre=8, mb_dec=16,
         bits=8, reserve=1000)
def test_fast_equals_event_property(
    batch, prompt, out, chunk, mb_pre, mb_dec, bits, reserve
):
    cluster = make_cluster("prop", [("T4-16G", 1), ("V100-32G", 1)])
    spec = get_model("opt-13b")
    plan = uniform_plan(
        spec.name, spec.num_layers, groups_of(cluster), bits, mb_pre, mb_dec
    )
    wl = BatchWorkload(
        batch=batch, prompt_len=prompt, output_len=out, chunk_tokens=chunk,
        reserve_output_len=out + reserve if reserve else None,
    )
    try:
        ev = simulate_plan(plan, cluster, spec, wl, sim_backend="event")
    except OutOfMemoryError as err:
        with pytest.raises(OutOfMemoryError) as fast_err:
            simulate_plan(plan, cluster, spec, wl, sim_backend="fast")
        assert fast_err.value.args == err.args
        assert (fast_err.value.device, fast_err.value.requested) == (
            err.device, err.requested
        )
        return
    fa = simulate_plan(plan, cluster, spec, wl, sim_backend="fast")
    assert ev.makespan_s == fa.makespan_s
    assert ev.stage_memory_bytes == fa.stage_memory_bytes
    assert ev.energy_j == fa.energy_j
    assert ev.throughput_tokens_s == fa.throughput_tokens_s
    assert ev.bubble_fraction == fa.bubble_fraction
    assert ev.stage_utilization == fa.stage_utilization
    assert ev == fa
