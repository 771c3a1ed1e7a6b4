"""Differential tests: the epoch-vectorized online fast path vs the
event-driven oracle.

The contract (DESIGN.md, "Online fast path"): ``sim_backend="fast"``
must be *bit-identical* to ``sim_backend="event"`` on every field of
``OnlineSimResult`` — makespan, spans, per-stage busy times, memory
tuple, per-request TTFT/TPOT/latency tuples, the Little's-law area
integral, the admission counters, the processed-event count, and the
energy/cost post-pass.  Every assertion here is ``==`` on raw floats,
mirroring ``test_fastsim`` and ``test_online_sim``.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.hardware import make_cluster, table_iii_cluster
from repro.models import get_model
from repro.pipeline import OnlineConfig, simulate_online
from repro.plan import uniform_plan
from repro.simgpu import OutOfMemoryError
from repro.workloads import (
    ArrivalTrace,
    BatchWorkload,
    Request,
    bursty_trace,
    closed_batch_trace,
    diurnal_trace,
    poisson_trace,
)


def groups_of(cluster):
    return [((d.device_id,), d.gpu.name) for d in cluster.devices]


def assert_bit_identical(event, fast):
    """Every compared and provenance-relevant field, exactly equal."""
    assert event.sim_backend == "event"
    assert fast.sim_backend == "fast"
    assert event.makespan_s == fast.makespan_s
    assert event.prefill_span_s == fast.prefill_span_s
    assert event.decode_span_s == fast.decode_span_s
    assert event.total_tokens == fast.total_tokens
    assert event.stage_busy_s == fast.stage_busy_s
    assert event.stage_memory_bytes == fast.stage_memory_bytes
    assert event.events_processed == fast.events_processed
    assert event.arrived == fast.arrived
    assert event.admitted == fast.admitted
    assert event.completed == fast.completed
    assert event.rejected_queue == fast.rejected_queue
    assert event.rejected_slo == fast.rejected_slo
    assert event.rejected_oom == fast.rejected_oom
    assert event.unserved == fast.unserved
    assert event.groups_formed == fast.groups_formed
    assert event.ttft_s == fast.ttft_s
    assert event.tpot_s == fast.tpot_s
    assert event.latency_s == fast.latency_s
    assert event.area_request_s == fast.area_request_s
    assert event.ttft_slo_s == fast.ttft_slo_s
    assert event.energy_j == fast.energy_j
    assert event.cost_usd == fast.cost_usd
    assert event == fast  # dataclass equality over the compared fields
    assert event.to_dict()["makespan_s"] == fast.to_dict()["makespan_s"]


def both(plan, cluster, spec, arrivals, config):
    event = simulate_online(plan, cluster, spec, arrivals, config=config,
                            sim_backend="event")
    fast = simulate_online(plan, cluster, spec, arrivals, config=config,
                           sim_backend="fast")
    assert_bit_identical(event, fast)
    return event, fast


# -- degenerate grid: the same seeded grid as test_online_sim ------------

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
def test_fast_equals_event_degenerate_grid(
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
    both(plan, cluster, spec, closed_batch_trace(wl),
         OnlineConfig(chunk_tokens=chunk, admission="none"))


# -- streaming traffic: overlapping groups, every admission knob ---------

_STREAM_CASES = [
    # (trace kind, config kwargs)
    ("poisson", dict(admission="kv")),
    ("poisson", dict(admission="kv", ttft_slo_s=2.0)),
    ("poisson", dict(admission="kv", max_queue=4)),
    ("poisson", dict(admission="kv", max_group_size=3)),
    ("poisson", dict(admission="kv", horizon_s=3.0)),
    ("bursty", dict(admission="kv", ttft_slo_s=1.0, max_queue=8)),
    ("diurnal", dict(admission="kv", max_group_size=2, ttft_slo_s=4.0)),
]


def _stream(kind: str) -> ArrivalTrace:
    if kind == "poisson":
        return poisson_trace(rate_per_s=4.0, duration_s=6.0, seed=11,
                             max_prompt_len=512, max_output_len=24)
    if kind == "bursty":
        return bursty_trace(base_rate_per_s=1.0, burst_rate_per_s=20.0,
                            duration_s=6.0, seed=3, mean_quiet_s=2.0,
                            mean_burst_s=1.0, max_prompt_len=384,
                            max_output_len=16)
    return diurnal_trace(mean_rate_per_s=3.0, duration_s=6.0, seed=7,
                         amplitude=0.8, period_s=6.0,
                         max_prompt_len=512, max_output_len=24)


@pytest.mark.parametrize("kind,cfg_kwargs", _STREAM_CASES)
def test_fast_equals_event_streaming(kind, cfg_kwargs):
    cluster = make_cluster("fast-2dev", [("T4-16G", 1), ("V100-32G", 1)])
    spec = get_model("opt-13b")
    plan = uniform_plan(
        spec.name, spec.num_layers, groups_of(cluster), 4, 4, 4
    )
    trace = _stream(kind)
    event, fast = both(
        plan, cluster, spec, trace,
        OnlineConfig(chunk_tokens=512, **cfg_kwargs),
    )
    # The streaming cases must actually exercise continuous batching.
    assert event.groups_formed > 1


def test_fast_equals_event_overload_shedding():
    """Heavy overload: KV head-of-line blocking, SLO shedding, and
    queue-cap rejections all firing mid-stream."""
    cluster = make_cluster("fast-2dev", [("T4-16G", 1), ("V100-32G", 1)])
    spec = get_model("opt-13b")
    plan = uniform_plan(
        spec.name, spec.num_layers, groups_of(cluster), 4, 4, 4
    )
    trace = poisson_trace(rate_per_s=40.0, duration_s=4.0, seed=5,
                          max_prompt_len=1024, max_output_len=32)
    event, fast = both(
        plan, cluster, spec, trace,
        OnlineConfig(chunk_tokens=1024, admission="kv",
                     ttft_slo_s=1.5, max_queue=16),
    )
    assert event.rejected > 0  # shedding genuinely happened
    assert event.completed > 0


def test_fast_equals_event_kv_pressure_and_oom_rejection():
    """Per-request OOM rejection and head-of-line KV blocking."""
    cluster = make_cluster("fast-small", [("T4-16G", 1), ("V100-32G", 1)])
    spec = get_model("opt-13b")
    plan = uniform_plan(
        spec.name, spec.num_layers, groups_of(cluster), 4, 4, 4
    )
    reqs = tuple(
        Request(req_id=i, arrival_s=0.0, prompt_len=8192, output_len=64)
        for i in range(10)
    ) + (
        Request(req_id=10, arrival_s=0.5, prompt_len=2_000_000,
                output_len=8),
    )
    event, fast = both(
        plan, cluster, spec, ArrivalTrace(requests=reqs, source="test"),
        OnlineConfig(chunk_tokens=2048, admission="kv"),
    )
    assert event.rejected_oom == 1
    assert event.groups_formed > 1  # KV blocking split the burst


def test_fast_equals_event_ragged_retirement_tail():
    """Every request a different output length: retirement every round,
    plus single-token requests completing at the prefill barrier."""
    cluster = table_iii_cluster(5)
    spec = get_model("opt-13b")
    plan = uniform_plan(
        spec.name, spec.num_layers, groups_of(cluster), 8, 4, 4
    )
    reqs = tuple(
        Request(req_id=i, arrival_s=0.0, prompt_len=128 + 64 * i,
                output_len=1 + i)
        for i in range(12)
    )
    event, fast = both(
        plan, cluster, spec, ArrivalTrace(requests=reqs, source="test"),
        OnlineConfig(chunk_tokens=512, admission="none"),
    )
    assert event.completed == 12


def test_fast_equals_event_single_stage_pipeline():
    """J=1 degenerates the cascade to one server; still exact."""
    cluster = make_cluster("fast-1dev", [("A100-40G", 1)])
    spec = get_model("opt-13b")
    plan = uniform_plan(
        spec.name, spec.num_layers, groups_of(cluster), 4, 2, 2
    )
    trace = poisson_trace(rate_per_s=2.0, duration_s=4.0, seed=2,
                          max_prompt_len=256, max_output_len=12)
    both(plan, cluster, spec, trace,
         OnlineConfig(chunk_tokens=256, admission="kv"))


def test_fast_oom_parity(small_cluster, opt30b, small_workload):
    """Both backends pre-check memory identically (shared context)."""
    plan = uniform_plan(
        opt30b.name, opt30b.num_layers, groups_of(small_cluster), 16, 4, 4
    )
    for backend in ("event", "fast"):
        with pytest.raises(OutOfMemoryError):
            simulate_online(
                plan, small_cluster, opt30b,
                closed_batch_trace(small_workload),
                config=OnlineConfig(admission="none"),
                sim_backend=backend,
            )


def test_dispatch_validation_and_eligibility():
    cluster = make_cluster("fast-2dev", [("T4-16G", 1), ("V100-32G", 1)])
    spec = get_model("opt-13b")
    plan = uniform_plan(
        spec.name, spec.num_layers, groups_of(cluster), 4, 4, 4
    )
    wl = BatchWorkload(batch=2, prompt_len=128, output_len=4,
                       chunk_tokens=512)
    trace = closed_batch_trace(wl)
    cfg = OnlineConfig(chunk_tokens=512, admission="kv")
    with pytest.raises(ValueError):
        simulate_online(plan, cluster, spec, trace, config=cfg,
                        sim_backend="bogus")
    # Every online run is eligible; auto therefore runs fast.
    auto = simulate_online(plan, cluster, spec, trace, config=cfg)
    assert auto.sim_backend == "fast"


def test_fast_backend_determinism():
    cluster = make_cluster("fast-2dev", [("T4-16G", 1), ("V100-32G", 1)])
    spec = get_model("opt-13b")
    plan = uniform_plan(
        spec.name, spec.num_layers, groups_of(cluster), 4, 4, 4
    )
    trace = poisson_trace(rate_per_s=6.0, duration_s=5.0, seed=9,
                          max_prompt_len=512, max_output_len=16)
    cfg = OnlineConfig(chunk_tokens=512, admission="kv", ttft_slo_s=10.0)
    a = simulate_online(plan, cluster, spec, trace, config=cfg,
                        sim_backend="fast")
    b = simulate_online(plan, cluster, spec, trace, config=cfg,
                        sim_backend="fast")
    assert a == b
    assert a.to_dict() == b.to_dict()


# -- Hypothesis: fast == event over randomized traces and configs --------

_CLUSTER = make_cluster("fast-prop", [("T4-16G", 1), ("V100-32G", 1)])
_SPEC = get_model("opt-13b")
_PLAN = uniform_plan(
    _SPEC.name,
    _SPEC.num_layers,
    [((d.device_id,), d.gpu.name) for d in _CLUSTER.devices],
    4, 4, 4,
)


@st.composite
def traces(draw, max_requests=10):
    n = draw(st.integers(min_value=1, max_value=max_requests))
    reqs = []
    for i in range(n):
        t = draw(st.floats(min_value=0.0, max_value=5.0,
                           allow_nan=False, allow_infinity=False))
        reqs.append(
            Request(
                req_id=i,
                arrival_s=t,
                prompt_len=draw(st.integers(min_value=16, max_value=512)),
                output_len=draw(st.integers(min_value=1, max_value=24)),
            )
        )
    reqs.sort(key=lambda r: r.arrival_s)
    reqs = tuple(
        Request(req_id=i, arrival_s=r.arrival_s,
                prompt_len=r.prompt_len, output_len=r.output_len)
        for i, r in enumerate(reqs)
    )
    return ArrivalTrace(requests=reqs, source="hypothesis")


_configs = st.builds(
    OnlineConfig,
    chunk_tokens=st.sampled_from([256, 512, 2048]),
    admission=st.just("kv"),
    max_group_size=st.one_of(st.none(), st.integers(1, 4)),
    max_queue=st.one_of(st.none(), st.integers(1, 6)),
    ttft_slo_s=st.one_of(st.none(), st.floats(0.01, 10.0)),
    horizon_s=st.one_of(st.none(), st.floats(0.0, 4.0)),
)


@given(trace=traces(), config=_configs)
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_property_fast_equals_event(trace, config):
    both(_PLAN, _CLUSTER, _SPEC, trace, config)


@given(trace=traces())
@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_property_fast_work_conservation_and_littles_law(trace):
    """The shared invariants hold on the fast backend standalone."""
    res = simulate_online(
        _PLAN, _CLUSTER, _SPEC, trace,
        config=OnlineConfig(chunk_tokens=512, admission="kv"),
        sim_backend="fast",
    )
    assert res.arrived == trace.n_requests
    assert res.arrived == res.completed + res.rejected + res.unserved
    assert res.completed == trace.n_requests
    assert math.isclose(res.area_request_s, sum(res.latency_s),
                        rel_tol=1e-9, abs_tol=1e-12)
