"""Tests for the fleet-level multi-job scheduler (``repro.fleet``).

Covers the ISSUE-4 invariants: inventory is never exceeded at any
instant of the timeline, scheduling is deterministic under a seed, the
beam allocator never loses to greedy on aggregate throughput, every
scheduled job's group is planner-feasible (Hypothesis), and the
kill-one-GPU reschedule differential.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.fleet import (
    FleetJob,
    FleetScheduler,
    FleetSimResult,
    GreedyAllocator,
    GroupSpec,
    PlannerPool,
    enumerate_groups,
    list_schedule,
    make_job_queue,
    simulate_schedule,
)
from repro.fleet.scheduler import compare_allocators, default_fleet_config
from repro.hardware.fleet import (
    HOURS_PER_MONTH,
    sample_fleet,
    schedulable_inventory,
)
from repro.pipeline.simulator import check_plan_memory
from repro.serialization import from_dict, to_dict
from repro.workloads import BatchWorkload

INVENTORY = {"V100-32G": 3, "T4-16G": 4, "P100-12G": 2}


def small_queue(n=4, seed=0):
    return make_job_queue(
        n_jobs=n, seed=seed, models=("opt-1.3b", "bloom-3b")
    )


@pytest.fixture(scope="module")
def schedules():
    """Greedy and beam schedules of the same queue (shared, expensive)."""
    return compare_allocators(small_queue(), INVENTORY)


# ---------------------------------------------------------------------------
# Job model
# ---------------------------------------------------------------------------


def test_job_queue_deterministic():
    assert make_job_queue(n_jobs=6, seed=3) == make_job_queue(
        n_jobs=6, seed=3
    )
    assert make_job_queue(n_jobs=6, seed=3) != make_job_queue(
        n_jobs=6, seed=4
    )


def test_job_validation():
    wl = BatchWorkload(batch=8, prompt_len=64, output_len=16)
    with pytest.raises(ValueError):
        FleetJob(job_id="", model="opt-1.3b", workload=wl)
    with pytest.raises(ValueError):
        FleetJob(job_id="j", model="opt-1.3b", workload=wl, num_batches=0)
    with pytest.raises(ValueError):
        FleetJob(
            job_id="j", model="opt-1.3b", workload=wl,
            deadline_class="nonsense",
        )


def test_job_sort_key_orders_by_deadline():
    wl = BatchWorkload(batch=8, prompt_len=64, output_len=16)
    urgent = FleetJob("a", "opt-1.3b", wl, deadline_class="urgent")
    batch = FleetJob("b", "opt-1.3b", wl, deadline_class="batch")
    assert urgent.sort_key() < batch.sort_key()


# ---------------------------------------------------------------------------
# Group enumeration + the list scheduler
# ---------------------------------------------------------------------------


def test_enumerate_groups_respects_inventory():
    groups = enumerate_groups(INVENTORY, max_gpus=4, max_types=2)
    assert groups
    for g in groups:
        assert g.total <= 4
        assert len(g.counts) <= 2
        assert g.fits(INVENTORY)
    # Deterministic and duplicate-free.
    assert list(groups) == list(
        enumerate_groups(INVENTORY, max_gpus=4, max_types=2)
    )
    assert len({g.counts for g in groups}) == len(groups)


def test_group_spec_validation():
    with pytest.raises(ValueError):
        GroupSpec(counts=())
    with pytest.raises(ValueError):
        GroupSpec(counts=(("T4-16G", 0),))
    with pytest.raises(ValueError):
        GroupSpec(counts=(("V100-32G", 1), ("A100-40G", 1)))  # unsorted


def _instant_usage(assignments, starts, ends, t):
    use: dict = {}
    for a, s, e in zip(assignments, starts, ends):
        if s <= t < e:
            for g, n in a.group.counts:
                use[g] = use.get(g, 0) + n
    return use


def test_list_schedule_never_exceeds_inventory(schedules):
    for sched in schedules.values():
        assignments = [sj.assignment for sj in sched.jobs]
        starts, ends, makespan = list_schedule(
            assignments, sched.inventory
        )
        probes = sorted(set(starts) | set(ends))
        for t in probes:
            use = _instant_usage(assignments, starts, ends, t)
            for g, n in use.items():
                assert n <= sched.inventory.get(g, 0), (t, g, use)
        assert makespan == max(ends)


def test_list_schedule_rejects_oversized_group():
    jobs = small_queue(1)
    pool = PlannerPool({"V100-32G": 2}, config=default_fleet_config())
    a = pool.evaluate(jobs[0], GroupSpec(counts=(("V100-32G", 2),)))
    assert a is not None
    with pytest.raises(ValueError):
        list_schedule([a], {"V100-32G": 1})


# ---------------------------------------------------------------------------
# Allocators
# ---------------------------------------------------------------------------


def test_schedule_deterministic_under_seed():
    a = FleetScheduler(INVENTORY, allocator="beam").schedule(small_queue())
    b = FleetScheduler(INVENTORY, allocator="beam").schedule(small_queue())
    assert [
        (sj.job.job_id, sj.group.counts, sj.start_s, sj.end_s)
        for sj in a.jobs
    ] == [
        (sj.job.job_id, sj.group.counts, sj.start_s, sj.end_s)
        for sj in b.jobs
    ]
    assert a.makespan_s == b.makespan_s


def test_beam_at_least_greedy_on_aggregate_throughput(schedules):
    greedy, beam = schedules["greedy"], schedules["beam"]
    assert len(beam.jobs) >= len(greedy.jobs)
    assert beam.aggregate_tokens_s >= greedy.aggregate_tokens_s


def test_all_jobs_scheduled_and_plans_attached(schedules):
    for sched in schedules.values():
        assert not sched.unscheduled
        for sj in sched.jobs:
            assert sj.assignment.result.plan.num_stages >= 1
            assert sj.end_s > sj.start_s


def test_quality_slo_enforced():
    """Each plan's indicator sum respects the job's uniform-bits budget."""
    sched = FleetScheduler(INVENTORY, allocator="greedy").schedule(
        small_queue()
    )
    pool = PlannerPool(INVENTORY, config=default_fleet_config())
    for sj in sched.jobs:
        job = sj.job
        assert job.min_uniform_bits is not None
        omega = pool._omega(job.model)
        k = list(default_fleet_config().bit_choices).index(
            job.min_uniform_bits
        )
        budget = float(omega[:, k].sum())
        assert sj.assignment.result.predicted_quality <= budget + 1e-9


def test_unknown_allocator_rejected():
    with pytest.raises(ValueError):
        FleetScheduler(INVENTORY, allocator="quantum")


def test_empty_queue_rejected():
    with pytest.raises(ValueError):
        FleetScheduler(INVENTORY).schedule([])


def test_duplicate_job_ids_rejected():
    jobs = small_queue(2)
    dup = (jobs[0], jobs[0])
    with pytest.raises(ValueError):
        FleetScheduler(INVENTORY).schedule(dup)


def test_pool_memoizes_repeated_probes():
    pool = PlannerPool(INVENTORY, config=default_fleet_config())
    job = small_queue(1)[0]
    group = GroupSpec(counts=(("V100-32G", 2),))
    a = pool.evaluate(job, group)
    before = pool.evaluations
    b = pool.evaluate(job, group)
    assert pool.evaluations == before
    assert pool.cache_hits >= 1
    assert a is not None and b is not None
    assert a.result is b.result


# ---------------------------------------------------------------------------
# Hypothesis invariant: every scheduled group is planner-feasible
# ---------------------------------------------------------------------------


@settings(
    max_examples=5,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(0, 10_000),
    n_jobs=st.integers(1, 3),
    v100=st.integers(1, 3),
    t4=st.integers(0, 3),
)
def test_scheduled_groups_planner_feasible(seed, n_jobs, v100, t4):
    """Any seed / queue / inventory: scheduled groups hold a real plan
    that passes the memory model on the materialized group cluster."""
    inventory = {"V100-32G": v100}
    if t4:
        inventory["T4-16G"] = t4
    jobs = make_job_queue(
        n_jobs=n_jobs, seed=seed, models=("opt-1.3b", "bloom-3b")
    )
    sched = FleetScheduler(inventory, allocator="greedy").schedule(jobs)
    from repro.models import get_model

    for sj in sched.jobs:
        assert sj.group.fits(inventory)
        cluster = sj.assignment.materialize_cluster()
        check_plan_memory(
            sj.assignment.result.plan,
            cluster,
            get_model(sj.job.model),
            sj.job.workload,
        )


# ---------------------------------------------------------------------------
# Kill-one-GPU reschedule differential
# ---------------------------------------------------------------------------


def test_reschedule_after_failure_differential(schedules):
    scheduler = FleetScheduler(INVENTORY, allocator="beam")
    before = schedules["beam"]
    victim = max(before.jobs, key=lambda sj: sj.group.total)
    dead_gpu = victim.group.counts[0][0]
    after = scheduler.reschedule_after_failure(
        before, victim.job.job_id, dead_gpu=dead_gpu
    )
    # The reclaimed GPU left the schedulable inventory.
    assert (
        after.inventory.get(dead_gpu, 0)
        == before.inventory[dead_gpu] - 1
    )
    # Every surviving group fits the reduced pool; the victim is either
    # degraded / reallocated (still scheduled) or explicitly dropped.
    for sj in after.jobs:
        assert sj.group.fits(after.inventory)
    victim_after = [
        sj for sj in after.jobs if sj.job.job_id == victim.job.job_id
    ]
    if victim_after:
        assert victim_after[0].group.total <= victim.group.total
    else:
        assert victim.job in after.unscheduled
    # Jobs unaffected by the failure keep their (group, plan) verbatim.
    unaffected_before = {
        sj.job.job_id: sj.assignment
        for sj in before.jobs
        if sj.job.job_id != victim.job.job_id
        and sj.group.fits(after.inventory)
    }
    for sj in after.jobs:
        prev = unaffected_before.get(sj.job.job_id)
        if prev is not None:
            assert sj.group.counts == prev.group.counts
            assert sj.assignment.result.plan == prev.result.plan
    # The repaired schedule still simulates end to end.
    sim = simulate_schedule(after)
    assert sim.makespan_s > 0


def test_reschedule_unknown_job_raises(schedules):
    scheduler = FleetScheduler(INVENTORY, allocator="beam")
    with pytest.raises(KeyError):
        scheduler.reschedule_after_failure(schedules["beam"], "no-such-job")


def _fresh_greedy(job, inventory, objective="throughput", price_book=None):
    """One job allocated by a fresh greedy pool over ``inventory``."""
    pool = PlannerPool(inventory, config=default_fleet_config())
    greedy = GreedyAllocator(objective=objective, price_book=price_book)
    (a,) = greedy.allocate([job], pool)
    return a


def _reallocated(scheduler, jobs):
    """Kill the single GPU of the first job's group; the job cannot
    degrade, so it is re-allocated.  Returns (job, its new assignment,
    the reduced inventory)."""
    schedule = scheduler.schedule(jobs)
    victim = schedule.jobs[0]
    assert victim.group.total == 1
    after = scheduler.reschedule_after_failure(schedule, victim.job.job_id)
    (sj,) = [sj for sj in after.jobs if sj.job.job_id == victim.job.job_id]
    return victim.job, sj.assignment, after.inventory


def test_reallocate_follows_the_cost_objective():
    """A job re-allocated after a failure is packed by the scheduler's
    objective: under ``"cost"`` it takes the cheapest-per-token group."""
    scheduler = FleetScheduler(
        INVENTORY, allocator="greedy", objective="cost",
        spot_types=("T4-16G",),
    )
    job, got, inventory = _reallocated(scheduler, small_queue(1))
    want = _fresh_greedy(job, inventory, "cost", scheduler.price_book)
    assert got.group == want.group
    assert got.group != _fresh_greedy(job, inventory).group
    assert got.result.plan == want.result.plan


def test_reallocate_refits_the_cost_model_on_the_reduced_types(monkeypatch):
    """When a reclaimed GPU removes a type, the re-allocated job is
    planned with a cost model fitted over the remaining types only."""
    monkeypatch.setenv("SPLITQUANT_CACHE", "0")  # plan, never read back
    scheduler = FleetScheduler({"A100-40G": 1, "T4-16G": 2}, allocator="greedy")
    jobs = make_job_queue(n_jobs=1, seed=0, models=("opt-1.3b",))
    job, got, inventory = _reallocated(scheduler, jobs)
    assert inventory == {"T4-16G": 2}
    want = _fresh_greedy(job, inventory)
    assert got.group == want.group
    assert got.result.predicted_latency_s == want.result.predicted_latency_s


# ---------------------------------------------------------------------------
# Fleet simulation + Summary protocol + serialization
# ---------------------------------------------------------------------------


def test_simulate_schedule_composes_pipeline_sims(schedules):
    sim = simulate_schedule(schedules["beam"])
    assert len(sim.jobs) == len(schedules["beam"].jobs)
    assert sim.total_tokens == sum(r.total_tokens for r in sim.jobs)
    assert sim.makespan_s >= max(r.end_s for r in sim.jobs) - 1e-9
    for rec in sim.jobs:
        assert rec.batch_sim.makespan_s > 0
        assert rec.duration_s == pytest.approx(
            rec.num_batches * rec.batch_sim.makespan_s
        )


def test_fleet_result_is_summary(schedules):
    from repro.api import Summary

    sim = simulate_schedule(schedules["greedy"])
    assert isinstance(sim, Summary)
    assert sim.duration_s == sim.makespan_s
    assert sim.throughput_tokens_s > 0


def test_fleet_result_round_trip(schedules):
    sim = simulate_schedule(schedules["greedy"])
    d = sim.to_dict()
    blob = json.dumps(d, sort_keys=True)
    restored = from_dict(FleetSimResult, json.loads(blob))
    assert to_dict(restored) == d
    assert restored.total_tokens == sim.total_tokens
    assert restored.inventory == sim.inventory


def test_idle_recovery_accounting(schedules):
    stats = sample_fleet(n_gpus=2000, seed=0)
    sim = simulate_schedule(schedules["beam"])
    rec = sim.idle_recovery(stats)
    idle = stats.idle_gpu_hours(hours_per_month=HOURS_PER_MONTH)
    assert rec["total_idle_gpu_hours"] == pytest.approx(sum(idle.values()))
    assert 0.0 <= rec["reclaimed_fraction"] <= 1.0
    for g, row in rec["per_type"].items():
        assert row["reclaimed_gpu_hours"] <= row["idle_gpu_hours"] + 1e-9
        assert 0.0 <= row["pool_utilization"] <= 1.0


def test_schedulable_inventory_shape():
    stats = sample_fleet(n_gpus=2000, seed=0)
    inv = schedulable_inventory(stats, pool_gpus=24)
    assert sum(inv.values()) >= 24
    assert set(inv) <= set(stats.counts)
    with pytest.raises(ValueError):
        schedulable_inventory(stats, pool_gpus=0)


# ---------------------------------------------------------------------------
# Session façade
# ---------------------------------------------------------------------------


def test_session_schedule_fleet_facade():
    from repro import Session

    sess = Session("opt-1.3b", cluster=1)
    jobs = small_queue(2)
    sim = sess.schedule_fleet(
        jobs=jobs, inventory=INVENTORY, allocator="greedy"
    )
    assert sim.throughput_tokens_s > 0
    sched = sess.schedule_fleet(
        jobs=jobs, inventory=INVENTORY, allocator="greedy", simulate=False
    )
    assert {sj.job.job_id for sj in sched.jobs} == {
        j.job_id for j in jobs
    }


def test_session_schedule_fleet_traced(tmp_path, monkeypatch):
    from repro import Session
    from repro.obs import parse_trace

    # A warm persistent plan cache would skip the actual group planning
    # (and with it the fleet.plan_group span this test asserts on), so
    # point the cache at a private cold directory.
    monkeypatch.setenv("SPLITQUANT_CACHE_DIR", str(tmp_path / "cache"))

    path = tmp_path / "fleet.jsonl"
    sess = Session("opt-1.3b", cluster=1, trace_path=str(path))
    sess.schedule_fleet(
        jobs=small_queue(2), inventory=INVENTORY, allocator="greedy"
    )
    sess.close()
    names = {r["name"] for r in parse_trace(path)}
    assert "fleet.schedule" in names
    assert "fleet.plan_group" in names
    assert "fleet.simulate" in names
