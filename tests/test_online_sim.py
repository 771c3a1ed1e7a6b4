"""Differential tests: the online serving driver vs the offline oracle.

The contract (DESIGN.md, "Online serving"): with every request arriving
at t=0, admission disabled and a single closed batch, ``simulate_online``
must be *bit-identical* to the offline ``simulate_plan`` event backend —
same makespan, same spans, same per-stage busy time, same memory
accounting, and the same number of processed events.  Every assertion
here is therefore ``==`` on raw floats, mirroring ``test_fastsim``.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.hardware import table_iii_cluster
from repro.models import get_model
from repro.pipeline import (
    ADMISSION_POLICIES,
    OnlineConfig,
    OnlineSimResult,
    simulate_online,
    simulate_plan,
)
from repro.plan import uniform_plan
from repro.serialization import from_dict, to_dict
from repro.simgpu import OutOfMemoryError
from repro.workloads import (
    ArrivalTrace,
    BatchWorkload,
    Request,
    closed_batch_trace,
    poisson_trace,
)


def groups_of(cluster):
    return [((d.device_id,), d.gpu.name) for d in cluster.devices]


def _assert_identical(offline, online):
    """Field-by-field exact equality of the shared result surface."""
    assert offline.sim_backend == "event"
    assert online.sim_backend == "event"
    assert offline.makespan_s == online.makespan_s
    assert offline.prefill_span_s == online.prefill_span_s
    assert offline.decode_span_s == online.decode_span_s
    assert offline.total_tokens == online.total_tokens
    assert offline.stage_busy_s == online.stage_busy_s
    assert offline.stage_memory_bytes == online.stage_memory_bytes
    assert offline.events_processed == online.events_processed
    assert offline.throughput_tokens_s == online.throughput_tokens_s
    assert offline.stage_utilization == online.stage_utilization
    assert offline.bubble_fraction == online.bubble_fraction


# -- seeded grid: identical to the fastsim differential grid -------------

GRID = [
    # (cluster index, model, bits, batch, prompt, out, chunk, mb_pre, mb_dec)
    (5, "opt-13b", 8, 8, 256, 32, 2048, 4, 4),
    (5, "opt-13b", 4, 32, 512, 64, 256, 8, 16),
    (2, "opt-13b", 8, 16, 1024, 16, 512, 2, 8),
    (7, "opt-30b", 4, 64, 512, 128, 1024, 16, 32),
    (9, "opt-13b", 16, 24, 384, 48, 384, 6, 12),  # remainder microbatches
    (10, "opt-30b", 16, 8, 2048, 8, 512, 8, 8),  # kappa = 4
]


def _setup(idx, model, bits, batch, prompt, out, chunk, mb_pre, mb_dec):
    cluster = table_iii_cluster(idx)
    spec = get_model(model)
    plan = uniform_plan(
        spec.name, spec.num_layers, groups_of(cluster), bits, mb_pre, mb_dec
    )
    wl = BatchWorkload(
        batch=batch, prompt_len=prompt, output_len=out, chunk_tokens=chunk
    )
    return cluster, spec, plan, wl


@pytest.mark.parametrize(
    "idx,model,bits,batch,prompt,out,chunk,mb_pre,mb_dec", GRID
)
def test_online_equals_offline_grid(
    idx, model, bits, batch, prompt, out, chunk, mb_pre, mb_dec
):
    cluster, spec, plan, wl = _setup(
        idx, model, bits, batch, prompt, out, chunk, mb_pre, mb_dec
    )
    offline = simulate_plan(plan, cluster, spec, wl, sim_backend="event")
    online = simulate_online(
        plan, cluster, spec, closed_batch_trace(wl),
        config=OnlineConfig(chunk_tokens=chunk, admission="none"),
        sim_backend="event",
    )
    _assert_identical(offline, online)
    # The degenerate trace is exactly one closed batch, fully served.
    assert online.arrived == online.admitted == online.completed == batch
    assert online.rejected == 0
    assert online.unserved == 0
    assert online.groups_formed == 1
    assert len(online.ttft_s) == batch


def test_degenerate_event_count_matches_offline(cluster5, opt13b):
    """t=0 arrivals are injected synchronously: zero extra events."""
    plan = uniform_plan(
        opt13b.name, opt13b.num_layers, groups_of(cluster5), 8, 4, 4
    )
    wl = BatchWorkload(batch=8, prompt_len=256, output_len=16,
                       chunk_tokens=512)
    offline = simulate_plan(plan, cluster5, opt13b, wl, sim_backend="event")
    online = simulate_online(
        plan, cluster5, opt13b, closed_batch_trace(wl),
        config=OnlineConfig(chunk_tokens=512, admission="none"),
        sim_backend="event",
    )
    assert online.events_processed == offline.events_processed


def test_late_arrivals_add_one_event_per_distinct_time(cluster5, opt13b):
    """Each *distinct* future arrival time costs exactly one loop event."""
    plan = uniform_plan(
        opt13b.name, opt13b.num_layers, groups_of(cluster5), 8, 4, 4
    )

    def trace_with_offsets(offsets):
        reqs = tuple(
            Request(req_id=i, arrival_s=t, prompt_len=256, output_len=16)
            for i, t in enumerate(offsets)
        )
        return ArrivalTrace(requests=reqs, source="test")

    cfg = OnlineConfig(chunk_tokens=512, admission="none")
    base = simulate_online(
        plan, cluster5, opt13b, trace_with_offsets([0.0] * 4), config=cfg
    )
    # Two extra requests at the same far-future instant: one timer event,
    # plus the second group's own prefill/decode events.  Compare against
    # the same workload with the late pair at two *distinct* instants.
    one_timer = simulate_online(
        plan, cluster5, opt13b,
        trace_with_offsets([0.0] * 4 + [1e6, 1e6]), config=cfg,
    )
    two_timers = simulate_online(
        plan, cluster5, opt13b,
        trace_with_offsets([0.0] * 4 + [1e6, 1e6 + 1.0]), config=cfg,
    )
    assert base.groups_formed == 1
    assert one_timer.groups_formed == 2
    # Splitting the pair across two instants forms one more group and
    # costs exactly one more timer event than the group-size delta alone.
    assert two_timers.groups_formed == 3
    assert two_timers.arrived == one_timer.arrived == 6


def test_provenance_excluded_from_equality(cluster5, opt13b):
    plan = uniform_plan(
        opt13b.name, opt13b.num_layers, groups_of(cluster5), 8, 4, 4
    )
    wl = BatchWorkload(batch=4, prompt_len=256, output_len=8,
                       chunk_tokens=512)
    res = simulate_online(
        plan, cluster5, opt13b, closed_batch_trace(wl),
        config=OnlineConfig(chunk_tokens=512, admission="none"),
        sim_backend="event",
    )
    assert res.sim_backend == "event"
    relabeled = dataclasses.replace(res, sim_backend="other")
    assert relabeled == res  # provenance carries compare=False
    # The default dispatch routes every eligible run to the fast path.
    auto = simulate_online(
        plan, cluster5, opt13b, closed_batch_trace(wl),
        config=OnlineConfig(chunk_tokens=512, admission="none"),
    )
    assert auto.sim_backend == "fast"
    assert auto == res


def test_oom_parity_with_offline(small_cluster, opt30b, small_workload):
    """Admission 'none' pre-checks worst-case memory like offline."""
    plan = uniform_plan(
        opt30b.name, opt30b.num_layers, groups_of(small_cluster), 16, 4, 4
    )
    with pytest.raises(OutOfMemoryError):
        simulate_plan(plan, small_cluster, opt30b, small_workload,
                      sim_backend="event")
    with pytest.raises(OutOfMemoryError):
        simulate_online(
            plan, small_cluster, opt30b, closed_batch_trace(small_workload),
            config=OnlineConfig(admission="none"),
        )


def test_kv_admission_rejects_instead_of_raising(small_cluster, opt30b):
    """Under 'kv', an infeasible *request* is rejected, not fatal —
    only infeasible static weights raise."""
    spec = get_model("opt-13b")
    plan = uniform_plan(
        spec.name, spec.num_layers, groups_of(small_cluster), 4, 4, 4
    )
    # A request whose KV alone exceeds every stage budget can never fit.
    reqs = (
        Request(req_id=0, arrival_s=0.0, prompt_len=256, output_len=8),
        Request(req_id=1, arrival_s=0.0, prompt_len=2_000_000,
                output_len=8),
    )
    res = simulate_online(
        plan, small_cluster, spec,
        ArrivalTrace(requests=reqs, source="test"),
        config=OnlineConfig(chunk_tokens=512, admission="kv"),
    )
    assert res.completed == 1
    assert res.rejected_oom == 1
    # Infeasible static weights still raise, matching offline semantics.
    fat = uniform_plan(
        opt30b.name, opt30b.num_layers, groups_of(small_cluster), 16, 4, 4
    )
    with pytest.raises(OutOfMemoryError):
        simulate_online(
            fat, small_cluster, opt30b,
            ArrivalTrace(requests=reqs[:1], source="test"),
            config=OnlineConfig(chunk_tokens=512, admission="kv"),
        )


def _kv_pressure_trace(n=12, prompt_len=8192, output_len=64):
    """A burst whose aggregate KV exceeds the 2-device budget: each
    request fits alone, but head-of-line KV blocking forces queueing."""
    reqs = tuple(
        Request(req_id=i, arrival_s=0.0, prompt_len=prompt_len,
                output_len=output_len)
        for i in range(n)
    )
    return ArrivalTrace(requests=reqs, source="test")


def test_max_queue_admission_under_kv_pressure(small_cluster, opt13b):
    plan = uniform_plan(
        opt13b.name, opt13b.num_layers, groups_of(small_cluster), 4, 4, 4
    )
    trace = _kv_pressure_trace()
    cfg = OnlineConfig(chunk_tokens=2048, admission="kv")
    unbounded = simulate_online(plan, small_cluster, opt13b, trace,
                                config=cfg)
    # Without a queue cap the burst drains across several groups.
    assert unbounded.completed == trace.n_requests
    assert unbounded.groups_formed > 1
    capped = simulate_online(
        plan, small_cluster, opt13b, trace,
        config=OnlineConfig(chunk_tokens=2048, admission="kv", max_queue=2),
    )
    assert capped.rejected_queue == trace.n_requests - 2
    assert capped.completed == 2
    for res in (unbounded, capped):
        assert res.arrived == trace.n_requests
        assert res.arrived == (res.completed + res.rejected + res.unserved)


def test_ttft_slo_admission_under_kv_pressure(small_cluster, opt13b):
    plan = uniform_plan(
        opt13b.name, opt13b.num_layers, groups_of(small_cluster), 4, 4, 4
    )
    trace = _kv_pressure_trace()
    tight = simulate_online(
        plan, small_cluster, opt13b, trace,
        config=OnlineConfig(chunk_tokens=2048, admission="kv",
                            ttft_slo_s=5.0),
    )
    loose = simulate_online(
        plan, small_cluster, opt13b, trace,
        config=OnlineConfig(chunk_tokens=2048, admission="kv",
                            ttft_slo_s=60.0),
    )
    # Queued requests whose wait blows the SLO are shed at the next
    # scheduling point; with a generous SLO everything is served.
    assert tight.rejected_slo > 0
    assert loose.rejected_slo == 0
    assert loose.completed == trace.n_requests
    assert loose.ttft_slo_attainment == 1.0
    assert 0.0 <= tight.ttft_slo_attainment <= 1.0
    for res in (tight, loose):
        assert res.arrived == (res.completed + res.rejected + res.unserved)


def test_admission_policy_validation():
    assert set(ADMISSION_POLICIES) == {"kv", "none"}
    with pytest.raises(ValueError):
        OnlineConfig(admission="bogus")
    with pytest.raises(ValueError):
        OnlineConfig(chunk_tokens=0)
    with pytest.raises(ValueError):
        OnlineConfig(max_queue=0)
    with pytest.raises(ValueError):
        OnlineConfig(ttft_slo_s=0.0)
    with pytest.raises(ValueError):
        OnlineConfig(horizon_s=-1.0)


@pytest.mark.parametrize("field", ["ttft_slo_s", "horizon_s"])
def test_online_config_rejects_nan(field):
    # A NaN SLO used to shed nothing yet report zero attainment, and a
    # NaN horizon admitted everything.
    with pytest.raises(ValueError, match=field):
        OnlineConfig(**{field: float("nan")})


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_request_rejects_non_finite_arrival(bad):
    # A NaN arrival used to pass the sort check and be dropped silently
    # by the simulator (fewer requests arrived than went in).
    with pytest.raises(ValueError, match="arrival_s"):
        Request(req_id=0, arrival_s=bad, prompt_len=8, output_len=4)


def test_online_result_serialization_round_trip(cluster5, opt13b):
    plan = uniform_plan(
        opt13b.name, opt13b.num_layers, groups_of(cluster5), 8, 4, 4
    )
    trace = poisson_trace(rate_per_s=3.0, duration_s=10.0, seed=5,
                          max_prompt_len=256, max_output_len=8)
    res = simulate_online(
        plan, cluster5, opt13b, trace,
        config=OnlineConfig(chunk_tokens=512, ttft_slo_s=1.0),
    )
    d = res.to_dict()
    assert d == to_dict(res)
    assert d["kind"] == "online_sim"
    assert "backend_reason" not in d  # online runs never fall back
    text = json.dumps(d, sort_keys=True)
    back = from_dict(OnlineSimResult, json.loads(text))
    assert isinstance(back, OnlineSimResult)
    assert to_dict(back) == d
    with pytest.raises(ValueError):
        from_dict(OnlineSimResult, {**d, "schema_version": 999})


def test_session_serve_online_facade(small_cluster):
    from repro.api import Session, Summary

    sess = Session("opt-13b", small_cluster)
    wl = BatchWorkload(batch=4, prompt_len=256, output_len=8,
                       chunk_tokens=512)
    sess.plan(wl)
    res = sess.serve_online(
        closed_batch_trace(wl),
        config=OnlineConfig(chunk_tokens=512, admission="none"),
        sim_backend="event",
    )
    assert isinstance(res, Summary)
    sim = sess.simulate(sim_backend="event")
    _assert_identical(sim, res)
    # The default (auto) backend dispatches to the fast driver and must
    # agree with the event run on every compared field.
    fast = sess.serve_online(
        closed_batch_trace(wl),
        config=OnlineConfig(chunk_tokens=512, admission="none"),
    )
    assert fast.sim_backend == "fast"
    assert fast == res
