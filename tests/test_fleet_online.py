"""Online fleet mode: jobs arrive over time, the allocator reacts
incrementally.

Contrast with ``test_fleet.py``: the offline scheduler packs a known
queue globally; here placement happens one arrival at a time on the
*free* inventory only, running jobs are never re-packed, and blocked
jobs wait FIFO (with backfill) until a release frees their GPUs.
"""

from __future__ import annotations

import math
from collections import Counter
from types import SimpleNamespace

import pytest

from repro.fleet import (
    JobArrival,
    OnlineFleetResult,
    OnlineFleetScheduler,
    make_job_arrivals,
    simulate_online_fleet,
)
from repro.fleet import online
from repro.fleet.jobs import FleetJob, make_job_queue
from repro.workloads import BatchWorkload
from tests.golden_utils import online_grid_runs

INVENTORY = {"T4-16G": 2, "V100-32G": 1}


def small_job(job_id: str, model: str = "opt-1.3b",
              num_batches: int = 2) -> FleetJob:
    return FleetJob(
        job_id=job_id,
        model=model,
        workload=BatchWorkload(batch=8, prompt_len=128, output_len=32),
        num_batches=num_batches,
        min_uniform_bits=4,
    )


def test_make_job_arrivals_seeded():
    a = make_job_arrivals(n_jobs=5, seed=3)
    b = make_job_arrivals(n_jobs=5, seed=3)
    assert a == b
    assert len(a) == 5
    assert a[0].arrival_s == 0.0  # fleet is never trivially idle
    times = [ja.arrival_s for ja in a]
    assert times == sorted(times)
    assert [ja.job for ja in a] == list(make_job_queue(n_jobs=5, seed=3))
    assert make_job_arrivals(n_jobs=5, seed=4) != a


@pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf, -math.inf])
def test_arrival_time_must_be_finite_and_non_negative(bad):
    with pytest.raises(ValueError):
        JobArrival(job=small_job("j0"), arrival_s=bad)
    with pytest.raises(ValueError):
        simulate_online_fleet(INVENTORY, [(bad, small_job("j0"))])


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
def test_mean_interarrival_must_be_finite_and_positive(bad):
    with pytest.raises(ValueError):
        make_job_arrivals(n_jobs=2, mean_interarrival_s=bad)


def test_job_arrival_validation():
    with pytest.raises(ValueError):
        simulate_online_fleet(INVENTORY, [])
    dup = [(0.0, small_job("same")), (1.0, small_job("same"))]
    with pytest.raises(ValueError):
        simulate_online_fleet(INVENTORY, dup)


def test_online_fleet_accounting_and_determinism():
    arrivals = make_job_arrivals(n_jobs=4, seed=0,
                                 mean_interarrival_s=60.0)
    res = simulate_online_fleet(INVENTORY, arrivals)
    assert isinstance(res, OnlineFleetResult)
    assert len(res.jobs) + len(res.dropped) == len(arrivals)
    by_id = {r.job_id: r for r in res.jobs}
    for ja in arrivals:
        rec = by_id.get(ja.job.job_id)
        if rec is None:
            assert ja.job.job_id in res.dropped
            continue
        assert rec.arrival_s == ja.arrival_s
        assert rec.start_s >= rec.arrival_s
        assert rec.end_s > rec.start_s
        assert rec.wait_s == rec.start_s - rec.arrival_s
        assert rec.turnaround_s == rec.end_s - rec.arrival_s
    assert res.makespan_s == max(r.end_s for r in res.jobs)
    assert res.total_tokens == sum(r.total_tokens for r in res.jobs)
    assert res.throughput_tokens_s > 0
    # Bit-identical replay; pool_stats (cache warmth) is provenance-only
    # and excluded from equality.
    again = simulate_online_fleet(INVENTORY, arrivals)
    assert again == res
    d = res.to_dict()
    assert d["kind"] == "online_fleet"
    assert len(d["jobs"]) == len(res.jobs)
    assert "online fleet:" in res.describe()


def test_blocked_job_waits_for_release():
    """On a single-GPU inventory a second arrival must queue until the
    first job departs — the incremental-reaction contract."""
    inv = {"V100-32G": 1}
    arrivals = [
        (0.0, small_job("first", num_batches=20)),
        (1.0, small_job("second")),
    ]
    res = simulate_online_fleet(inv, arrivals)
    assert len(res.jobs) == 2
    first = next(r for r in res.jobs if r.job_id == "first")
    second = next(r for r in res.jobs if r.job_id == "second")
    assert first.wait_s == 0.0
    assert second.start_s == first.end_s  # backfilled at the release
    assert second.wait_s > 0.0


def test_infeasible_job_dropped_immediately():
    """A model no group of the inventory can hold is dropped, and later
    feasible arrivals are unaffected."""
    inv = {"T4-16G": 1}
    arrivals = [
        (0.0, small_job("tiny")),
        (1.0, small_job("huge", model="opt-66b")),
    ]
    res = simulate_online_fleet(inv, arrivals)
    assert res.dropped == ("huge",)
    assert [r.job_id for r in res.jobs] == ["tiny"]


def test_scheduler_free_ledger_roundtrip():
    sched = OnlineFleetScheduler(INVENTORY)
    status, assignment = sched.submit(small_job("j0"), now=0.0)
    assert status == "started" and assignment is not None
    used = dict(assignment.group.counts)
    for g, n in used.items():
        assert sched.free[g] == sched.inventory[g] - n
    sched._release(assignment.group)
    assert sched.free == sched.inventory


def test_equal_times_arrivals_first_then_releases_in_start_order(monkeypatch):
    """Tie order of the timeline, with every batch lasting 5 s.

    ``c`` arrives the instant ``a`` ends: arriving first, it sees only
    the T4 free.  ``a`` and ``b`` end together; releasing in start order
    frees the V100 first, which the first waiting job, ``d``, takes.
    """
    monkeypatch.setattr(
        online, "job_batch_sim", lambda assignment: SimpleNamespace(makespan_s=5.0)
    )
    inv = {"V100-32G": 1, "T4-16G": 1}
    alone = simulate_online_fleet(inv, [(0.0, small_job("a"))])
    assert alone.jobs[0].group_counts == (("V100-32G", 1),)
    assert alone.jobs[0].end_s == 10.0

    res = simulate_online_fleet(inv, [(0.0, small_job("a")), (10.0, small_job("c"))])
    groups = {r.job_id: r.group_counts for r in res.jobs}
    assert groups["c"] == (("T4-16G", 1),)
    assert res.events_processed == 4

    arrivals = [
        (0.0, small_job("a")),
        (0.0, small_job("b")),
        (1.0, small_job("d")),
        (2.0, small_job("e")),
    ]
    res = simulate_online_fleet(inv, arrivals)
    groups = {r.job_id: r.group_counts for r in res.jobs}
    assert groups["a"] == groups["d"] == (("V100-32G", 1),)
    assert groups["b"] == groups["e"] == (("T4-16G", 1),)
    assert [r.job_id for r in res.jobs] == ["a", "b", "d", "e"]
    assert all(r.start_s == 10.0 for r in res.jobs if r.job_id in ("d", "e"))
    assert res.events_processed == 8


@pytest.mark.parametrize(
    "inventory, arrivals",
    [pytest.param(inv, arr, id=key) for key, inv, arr in online_grid_runs()],
)
def test_running_jobs_fit_the_inventory(inventory, arrivals):
    """At every job's start, the groups of the jobs running then fit
    the inventory; every arrival is served or dropped, once."""
    res = simulate_online_fleet(inventory, arrivals)
    for rec in res.jobs:
        in_use = Counter()
        for r in res.jobs:
            if r.start_s <= rec.start_s < r.end_s:
                in_use.update(dict(r.group_counts))
        assert all(n <= inventory[g] for g, n in in_use.items()), rec.job_id
    served = [r.job_id for r in res.jobs]
    assert sorted(served + list(res.dropped)) == sorted(
        ja.job.job_id for ja in arrivals
    )
    assert res.events_processed == len(arrivals) + len(res.jobs)
