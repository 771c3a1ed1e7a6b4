"""The span trace and the returned results are the one record of a run.

Each count a traced run reports lives on a span attribute or a result
field, never in a second registry.  These tests pin the span attributes
that carry counts to the result fields they describe, so a span that
loses one fails here.
"""

from __future__ import annotations

import pytest

from repro import BatchWorkload, Session, Tracer
from repro.fleet import FleetScheduler, make_job_queue, simulate_schedule
from repro.hardware import make_cluster
from repro.obs import use_tracer
from repro.pipeline import OnlineConfig
from repro.workloads import poisson_trace

#: Two T4s: the opt-13b / opt-30b queue below packs 2xT4 and 1xT4 groups,
#: so losing one T4 strands every 2xT4 job (the reschedule cascades).
INVENTORY = {"T4-16G": 2}


def _spans(tracer, name):
    return [r["attrs"] for r in tracer.records if r["name"] == name]


@pytest.mark.parametrize("backend", ["fast", "event"])
def test_online_span_carries_the_result_counts(backend):
    cluster = make_cluster("test-2dev", [("T4-16G", 1), ("V100-32G", 1)])
    tracer = Tracer(enabled=True)
    sess = Session("opt-13b", cluster, tracer=tracer)
    sess.plan(BatchWorkload(batch=8, prompt_len=256, output_len=32))
    arrivals = poisson_trace(
        2.0, 20.0, seed=0, max_prompt_len=512, max_output_len=64
    )
    res = sess.serve_online(
        arrivals, config=OnlineConfig(ttft_slo_s=5.0), sim_backend=backend
    )
    assert res.completed > 0 and res.rejected > 0
    (attrs,) = _spans(tracer, "sim.online")
    assert attrs["requests"] == res.arrived
    assert attrs["backend"] == res.sim_backend == backend
    assert attrs["completed"] == res.completed
    assert attrs["rejected"] == res.rejected
    assert attrs["groups"] == res.groups_formed
    assert attrs["events"] == res.events_processed


@pytest.fixture(scope="module")
def scheduled():
    """A traced greedy schedule of three jobs on two T4s, simulated."""
    scheduler = FleetScheduler(INVENTORY, allocator="greedy")
    jobs = make_job_queue(n_jobs=3, seed=0, models=("opt-13b", "opt-30b"))
    tracer = Tracer(enabled=True)
    with use_tracer(tracer):
        schedule = scheduler.schedule(jobs)
        sim = simulate_schedule(schedule)
    return scheduler, schedule, sim, tracer


def test_schedule_spans_carry_the_result_counts(scheduled):
    _, schedule, sim, tracer = scheduled
    (attrs,) = _spans(tracer, "fleet.schedule")
    assert attrs["jobs"] == len(schedule.jobs) + len(schedule.unscheduled)
    assert attrs["scheduled"] == len(schedule.jobs) == 3
    assert attrs["makespan_s"] == round(schedule.makespan_s, 3)
    (sim_attrs,) = _spans(tracer, "fleet.simulate")
    assert sim_attrs["jobs"] == len(sim.jobs)
    assert sim_attrs["makespan_s"] == round(sim.makespan_s, 3)


def _reduced(counts, dead_gpu):
    return tuple(
        (g, n - 1 if g == dead_gpu else n)
        for g, n in counts
        if not (g == dead_gpu and n == 1)
    )


def test_reschedule_span_carries_action_and_cascade(scheduled):
    scheduler, before, _, _ = scheduled
    (victim,) = [sj for sj in before.jobs if sj.group.total == 1]
    dead_gpu = victim.group.counts[0][0]
    tracer = Tracer(enabled=True)
    with use_tracer(tracer):
        after = scheduler.reschedule_after_failure(
            before, victim.job.job_id, dead_gpu=dead_gpu
        )
    (attrs,) = _spans(tracer, "fleet.reschedule")
    groups = {sj.job.job_id: sj.group for sj in after.jobs}
    # The action, as the repaired schedule shows it.
    victim_group = groups.get(victim.job.job_id)
    if victim_group is None:
        action = "drop"
    elif victim_group.counts == _reduced(victim.group.counts, dead_gpu):
        action = "degrade"
    else:
        action = "reallocate"
    # The cascade: every other job whose group left or changed.
    moved = [
        sj
        for sj in before.jobs
        if sj is not victim and groups.get(sj.job.job_id) != sj.group
    ]
    assert (attrs["action"], attrs["cascaded"]) == (action, len(moved))
    assert (action, len(moved)) == ("reallocate", 2)
    assert attrs["dead_gpu"] == dead_gpu


def test_spot_preemption_is_a_reschedule_of_a_spot_gpu(scheduled):
    _, before, _, _ = scheduled
    spot = FleetScheduler(INVENTORY, allocator="greedy", spot_types=("T4-16G",))
    victim = before.jobs[0]
    tracer = Tracer(enabled=True)
    with use_tracer(tracer):
        spot.preempt_spot(before, victim.job.job_id)
    (attrs,) = _spans(tracer, "fleet.reschedule")
    assert attrs["job"] == victim.job.job_id
    assert attrs["dead_gpu"] in spot.price_book.spot_types
