"""Online fleet mode: jobs arrive over time, the allocator reacts
incrementally.

Contrast with ``test_fleet.py``: the offline scheduler packs a known
queue globally; here placement happens one arrival at a time on the
*free* inventory only, running jobs are never re-packed, and blocked
jobs wait FIFO (with backfill) until a release frees their GPUs.
"""

from __future__ import annotations

import pytest

from repro.fleet import (
    JobArrival,
    OnlineFleetResult,
    OnlineFleetScheduler,
    make_job_arrivals,
    simulate_online_fleet,
)
from repro.fleet.jobs import FleetJob, make_job_queue
from repro.workloads import BatchWorkload

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


def test_job_arrival_validation():
    with pytest.raises(ValueError):
        JobArrival(job=small_job("j0"), arrival_s=-1.0)
    with pytest.raises(ValueError):
        make_job_arrivals(n_jobs=2, mean_interarrival_s=0.0)
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


def _rescan_drain(self, now):
    """Oracle for ``OnlineFleetScheduler.drain_queue``: re-run the
    planner scan for every waiting job instead of filtering its cached
    admissibility index."""
    started = []
    remaining = []
    for job, arrival in self.queue:
        assignment = self._best_on(job, self.free)
        if assignment is None:
            remaining.append((job, arrival))
            continue
        self._reserve(assignment.group)
        self._feasible_cache.pop(job.job_id, None)
        started.append((job, arrival, assignment))
    self.queue = remaining
    return started


def _simulate_with_rescan(monkeypatch, inventory, arrivals):
    with monkeypatch.context() as m:
        m.setattr(OnlineFleetScheduler, "drain_queue", _rescan_drain)
        return simulate_online_fleet(inventory, arrivals)


def test_indexed_drain_matches_legacy_rescan(monkeypatch):
    """The admissibility index is a speed knob, not a policy change:
    every placement, wait, and drop — and the replay's event count —
    must match the legacy per-job planner rescan exactly."""
    arrivals = make_job_arrivals(n_jobs=6, seed=1,
                                 mean_interarrival_s=30.0)
    indexed = simulate_online_fleet(INVENTORY, arrivals)
    legacy = _simulate_with_rescan(monkeypatch, INVENTORY, arrivals)
    assert indexed == legacy
    assert indexed.jobs == legacy.jobs
    assert indexed.dropped == legacy.dropped
    assert indexed.events_processed == legacy.events_processed
    assert indexed.events_processed > 0


def test_queue_contention_indexed_vs_legacy(monkeypatch):
    """Single-GPU contention forces real queue drains through the
    indexed path; outcomes stay identical to the rescan."""
    inv = {"V100-32G": 1}
    arrivals = [
        (0.0, small_job("a", num_batches=20)),
        (1.0, small_job("b")),
        (2.0, small_job("c")),
        (3.0, small_job("huge", model="opt-66b")),
    ]
    indexed = simulate_online_fleet(inv, arrivals)
    legacy = _simulate_with_rescan(monkeypatch, inv, arrivals)
    assert indexed == legacy
    assert indexed.events_processed == legacy.events_processed
    assert indexed.dropped == ("huge",)
    # b and c both waited in the queue, so drains actually exercised
    # the index (not just the submit fast path).
    waits = {r.job_id: r.wait_s for r in indexed.jobs}
    assert waits["b"] > 0.0 and waits["c"] > 0.0
