"""Bound-pruned group picks: the pool plans only groups that can win.

:meth:`PlannerPool.best_on` visits groups in descending order of their
ceiling (the packing metric at the group's latency floor) and stops once
no remaining ceiling reaches the best metric found.  These tests hold it
to the exhaustive pick (plan every group, then :func:`best_assignment`)
on seeded fleets, under both objectives and in the online scheduler,
check the floor it relies on against the planner, and cover the
persisted floor tables.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cache import default_cache
from repro.costmodel.energy import default_price_book
from repro.fleet import FleetScheduler, make_job_queue
from repro.fleet.allocator import (
    GreedyAllocator,
    GroupSpec,
    PlannerPool,
    _job_key,
    _memo_key,
    best_assignment,
)
from repro.fleet.jobs import FleetJob
from repro.fleet.online import OnlineFleetScheduler
from repro.fleet.scheduler import default_fleet_config
from repro.workloads import BatchWorkload

GPU_TYPES = ("A100-40G", "P100-12G", "T4-16G", "V100-32G")
MODELS = ("opt-1.3b", "bloom-3b", "opt-13b")


@pytest.fixture(autouse=True)
def _no_persistent_cache(monkeypatch):
    """Each pool plans for itself: no plan or floor crosses pools."""
    monkeypatch.setenv("SPLITQUANT_CACHE", "0")


def seeded_inventory(seed: int) -> dict:
    """Two to four GPU types, one to three of each."""
    rng = np.random.default_rng(seed)
    types = rng.choice(GPU_TYPES, size=int(rng.integers(2, 5)), replace=False)
    return {str(g): int(rng.integers(1, 4)) for g in types}


def exhaustive_pick(pool, job, groups, price_book=None):
    """The oracle: plan every group, then pick."""
    planned = [pool.evaluate(job, g) for g in groups]
    feasible = [a for a in planned if a is not None]
    return best_assignment(feasible, price_book) if feasible else None


def exhaustive_allocate(jobs, pool, price_book=None):
    """Greedy allocation with every group of each budget planned."""
    inventory = dict(pool.inventory)
    free = dict(inventory)
    out = []
    for job in sorted(jobs, key=FleetJob.sort_key):
        for budget in (free, inventory):
            groups = [g for g in pool.groups if g.fits(budget)]
            best = exhaustive_pick(pool, job, groups, price_book)
            if best is not None:
                break
        if best is None:
            continue
        out.append(best)
        if best.group.fits(free):
            for g, n in best.group.counts:
                free[g] -= n
    return out


def assert_same(got, want):
    if want is None:
        assert got is None
        return
    assert got is not None
    assert got.job == want.job
    assert got.group == want.group
    assert got.result.plan == want.result.plan
    assert got.result.predicted_latency_s == want.result.predicted_latency_s


def assert_same_allocation(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert_same(a, b)


# -- the pruned pick equals the exhaustive one ---------------------------


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("objective", ["throughput", "cost"])
def test_pruned_pick_equals_exhaustive(seed, objective):
    inventory = seeded_inventory(seed)
    jobs = make_job_queue(n_jobs=3, seed=seed, models=MODELS)
    book = None
    if objective == "cost":
        book = default_price_book(spot_types=(sorted(inventory)[0],))
    pruned, oracle = (
        PlannerPool(inventory, default_fleet_config()) for _ in range(2)
    )
    budgets = [pruned.inventory, {g: 1 for g in inventory}]
    for job in jobs:
        for budget in budgets:
            groups = [g for g in pruned.groups if g.fits(budget)]
            assert_same(
                pruned.best_on(job, groups, book),
                exhaustive_pick(oracle, job, groups, book),
            )
    # It got there planning fewer groups than the oracle.
    assert pruned.evaluations < oracle.evaluations


@pytest.mark.parametrize("seed", [0, 1, 4])
@pytest.mark.parametrize("objective", ["throughput", "cost"])
def test_greedy_allocation_equals_exhaustive(seed, objective):
    inventory = seeded_inventory(seed)
    jobs = make_job_queue(n_jobs=4, seed=seed, models=MODELS)
    book = default_price_book(spot_types=(sorted(inventory)[-1],))
    greedy = GreedyAllocator(objective, book)
    got = greedy.allocate(jobs, PlannerPool(inventory, default_fleet_config()))
    want = exhaustive_allocate(
        jobs,
        PlannerPool(inventory, default_fleet_config()),
        book if objective == "cost" else None,
    )
    assert_same_allocation(got, want)


def test_fallback_when_nothing_fits_the_free_budget():
    """The second job's only free group cannot hold it: the pick falls
    back to the whole inventory, as the exhaustive allocation does."""
    inventory = {"V100-32G": 1, "T4-16G": 1}
    jobs = make_job_queue(
        n_jobs=2, seed=1, models=("opt-13b",), min_uniform_bits=16
    )
    pool = PlannerPool(inventory, default_fleet_config())
    got = GreedyAllocator().allocate(jobs, pool)
    first = got[0].group
    free = {g: n - first.as_dict().get(g, 0) for g, n in inventory.items()}
    free_groups = [g for g in pool.groups if g.fits(free)]
    assert free_groups
    assert pool.best_on(jobs[1], free_groups) is None
    assert len(got) == 2
    want = exhaustive_allocate(
        jobs, PlannerPool(inventory, default_fleet_config())
    )
    assert_same_allocation(got, want)


def test_unschedulable_job_skipped_like_exhaustive():
    inventory = {"T4-16G": 2}
    jobs = make_job_queue(
        n_jobs=2, seed=0, models=("opt-13b",), min_uniform_bits=16
    )
    got = GreedyAllocator().allocate(
        jobs, PlannerPool(inventory, default_fleet_config())
    )
    want = exhaustive_allocate(
        jobs, PlannerPool(inventory, default_fleet_config())
    )
    assert len(got) < len(jobs)
    assert_same_allocation(got, want)


@pytest.mark.parametrize("seed", [0, 2])
def test_online_submit_equals_exhaustive(seed):
    inventory = seeded_inventory(seed)
    sched = OnlineFleetScheduler(inventory)
    oracle = PlannerPool(sched.inventory, default_fleet_config())
    for job in make_job_queue(n_jobs=5, seed=seed, models=MODELS):
        groups = [g for g in oracle.groups if g.fits(sched.free)]
        want = exhaustive_pick(oracle, job, groups)
        status, got = sched.submit(job, now=0.0)
        if want is None:
            assert status in ("queued", "dropped")
        else:
            assert status == "started"
        assert_same(got, want)


@pytest.mark.parametrize("seed", [0, 2])
def test_online_queue_and_drain_equal_exhaustive(seed):
    """Queue-or-drop is the exhaustive pick on the inventory groups, and
    after each release every drained job gets the exhaustive pick on the
    groups free at its turn."""
    inventory = seeded_inventory(seed)
    sched = OnlineFleetScheduler(inventory)
    oracle = PlannerPool(sched.inventory, default_fleet_config())

    def oracle_pick(job, budget):
        return exhaustive_pick(
            oracle, job, [g for g in oracle.groups if g.fits(budget)]
        )

    running = []
    for job in make_job_queue(n_jobs=10, seed=seed, models=MODELS):
        status, got = sched.submit(job, now=0.0)
        if status == "started":
            running.append(got)
            continue
        want = oracle_pick(job, sched.inventory)
        assert status == ("dropped" if want is None else "queued")
    assert sched.queue
    drained = 0
    while running and sched.queue:
        sched._release(running.pop(0).group)
        free = dict(sched.free)
        want = []
        for job, _ in sched.queue:
            pick = oracle_pick(job, free)
            if pick is not None:
                want.append(pick)
                for g, n in pick.group.counts:
                    free[g] -= n
        got = [a for _, _, a in sched.drain_queue(now=1.0)]
        assert_same_allocation(got, want)
        assert sched.free == free
        running.extend(got)
        drained += len(got)
    assert drained > 0


#: Nine GPUs of three types, filled by nine one-GPU OPT-1.3B jobs.
CONTENTION_INVENTORY = {"V100-32G": 3, "T4-16G": 4, "P100-12G": 2}


def contention_job(job_id, model="opt-1.3b", bits=4):
    return FleetJob(
        job_id=job_id,
        model=model,
        workload=BatchWorkload(batch=8, prompt_len=128, output_len=32),
        num_batches=20,
        min_uniform_bits=bits,
    )


def test_queue_and_drop_plan_only_groups_that_can_win():
    """On a full fleet, a job that queues plans fewer groups than the
    pool has, and a job that nothing can serve plans none."""
    sched = OnlineFleetScheduler(CONTENTION_INVENTORY)
    for i in range(9):
        status, _ = sched.submit(contention_job(f"j{i}"), now=float(i))
        assert status == "started"
    assert not any(sched.free.values())
    pool = sched.pool
    before = pool.evaluations
    assert sched.submit(contention_job("big", "opt-66b"), now=9.0)[0] == "queued"
    assert 0 < pool.evaluations - before < len(pool.groups)
    before = pool.evaluations
    status, _ = sched.submit(contention_job("huge", "opt-66b", bits=16), now=10.0)
    assert status == "dropped"
    assert pool.evaluations == before


def test_all_memoized_groups_pick_without_floors(monkeypatch):
    """Once every group is planned in the pool, the pick reads the memo
    and computes no floor."""
    pool = PlannerPool({"V100-32G": 2, "T4-16G": 2}, default_fleet_config())
    job = make_job_queue(n_jobs=1, seed=0, models=("opt-1.3b",))[0]
    want = exhaustive_pick(pool, job, pool.groups)

    def no_floors(*args, **kwargs):
        raise AssertionError("floors computed for a fully planned job")

    monkeypatch.setattr(pool, "latency_floors", no_floors)
    assert_same(pool.best_on(job, pool.groups), want)


# -- the floor the pick relies on ----------------------------------------


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    types=st.lists(st.sampled_from(GPU_TYPES), min_size=1, max_size=2, unique=True),
    counts=st.lists(st.integers(1, 2), min_size=2, max_size=2),
    model=st.sampled_from(MODELS),
    batch=st.sampled_from([8, 16, 32]),
    prompt_len=st.sampled_from([64, 256, 512]),
    output_len=st.sampled_from([8, 64]),
    min_bits=st.sampled_from([None, 3, 4, 8, 16]),
    use_heuristic=st.booleans(),
)
def test_latency_floor_admissible(
    types, counts, model, batch, prompt_len, output_len, min_bits, use_heuristic
):
    """No plan comes in below its floor, and an ``inf`` floor means no
    plan at all."""
    config = dataclasses.replace(
        default_fleet_config(), use_heuristic=use_heuristic, theta=10.0
    )
    group = GroupSpec(counts=tuple(sorted(zip(types, counts))))
    pool = PlannerPool(group.as_dict(), config)
    job = FleetJob(
        job_id="j",
        model=model,
        workload=BatchWorkload(
            batch=batch, prompt_len=prompt_len, output_len=output_len
        ),
        min_uniform_bits=min_bits,
    )
    planner = pool.planner(job, group.to_cluster("probe"))
    floor = planner.latency_floor(job.workload)
    result = planner.plan(job.workload)
    if floor == float("inf"):
        assert result is None
    if result is not None:
        assert 0.0 <= floor <= result.predicted_latency_s


# -- persisted floor tables ----------------------------------------------


def _cold_pool(monkeypatch, tmp_path, inventory=None, config=None):
    monkeypatch.setenv("SPLITQUANT_CACHE", "1")
    monkeypatch.setenv("SPLITQUANT_CACHE_DIR", str(tmp_path))
    return PlannerPool(
        inventory or {"V100-32G": 2, "T4-16G": 2},
        config or default_fleet_config(),
    )


JOB = make_job_queue(n_jobs=1, seed=0, models=("opt-1.3b",))[0]


def test_floor_key_covers_what_floors_depend_on(monkeypatch, tmp_path):
    pool = _cold_pool(monkeypatch, tmp_path)
    key = pool._floors_key(_job_key(JOB))
    other_config = PlannerPool(
        pool.inventory, dataclasses.replace(pool.config, max_orderings=2)
    )
    other_types = PlannerPool({**pool.inventory, "P100-12G": 1}, pool.config)
    other_groups = PlannerPool({"V100-32G": 1, "T4-16G": 2}, pool.config)
    other_job = dataclasses.replace(JOB, min_uniform_bits=8)
    keys = {
        key,
        other_config._floors_key(_job_key(JOB)),
        other_types._floors_key(_job_key(JOB)),
        other_groups._floors_key(_job_key(JOB)),
        pool._floors_key(_job_key(other_job)),
    }
    monkeypatch.setenv("SPLITQUANT_CACHE_SALT", "another-code-version")
    keys.add(pool._floors_key(_job_key(JOB)))
    assert len(keys) == 6
    # Same types and counts: the same table.
    monkeypatch.delenv("SPLITQUANT_CACHE_SALT")
    twin = PlannerPool(dict(pool.inventory), pool.config)
    assert twin._floors_key(_job_key(JOB)) == key
    # Jobs that differ only in id, batches or deadline share a table.
    renamed = dataclasses.replace(JOB, job_id="other", num_batches=7)
    assert pool._floors_key(_job_key(renamed)) == key


FLOOR_DAMAGE = {
    "short": lambda stored: {"floors": stored[:-1]},
    "negative": lambda stored: {"floors": [-1.0] * len(stored)},
    "not_object": lambda stored: stored,
    "floors_not_list": lambda stored: {"floors": 3.0},
}


@pytest.mark.parametrize("damage", ["unparseable", *FLOOR_DAMAGE])
def test_corrupt_floor_entry_evicted_and_recomputed(monkeypatch, tmp_path, damage):
    pool = _cold_pool(monkeypatch, tmp_path)
    floors = pool.latency_floors(JOB)
    cache = default_cache()
    pkey = pool._floors_key(_job_key(JOB))
    path = cache._path("fleet_plan", pkey)
    stored = json.loads(path.read_text())["value"]["floors"]
    assert len(stored) == len(pool.groups)
    if damage == "unparseable":
        path.write_text("{not json")
    else:
        cache.put("fleet_plan", pkey, FLOOR_DAMAGE[damage](stored))
    evictions = cache.evictions
    fresh = PlannerPool(dict(pool.inventory), pool.config)
    assert fresh.latency_floors(JOB) == floors
    assert cache.evictions == evictions + 1
    assert cache.get("fleet_plan", pkey) == {"floors": stored}


#: Stored plan values that are valid JSON but no plan entry.  A bare
#: ``null`` is among them: an infeasible group is stored as
#: ``{"result": null}``, so reading ``null`` as "infeasible" would let a
#: damaged entry strike a group from every later schedule.
PLAN_DAMAGE = {
    "list": lambda entry: [1, 2],
    "string": lambda entry: "result",
    "null": lambda entry: None,
    "no_result": lambda entry: {},
    "result_not_object": lambda entry: {"result": [entry["result"]]},
    "result_missing_fields": lambda entry: {"result": {"schema_version": 1}},
}


@pytest.mark.parametrize("damage", ["unparseable", *PLAN_DAMAGE])
def test_corrupt_plan_entry_evicted_and_recomputed(monkeypatch, tmp_path, damage):
    pool = _cold_pool(monkeypatch, tmp_path)
    group = pool.groups[-1]
    planned = pool.evaluate(JOB, group)
    assert planned is not None
    cache = default_cache()
    pkey = pool._persistent_key(_memo_key(JOB, group))
    path = cache._path("fleet_plan", pkey)
    entry = json.loads(path.read_text())["value"]
    assert entry["result"] is not None
    if damage == "unparseable":
        path.write_text("{not json")
    else:
        cache.put("fleet_plan", pkey, PLAN_DAMAGE[damage](entry))
    evictions = cache.evictions
    fresh = PlannerPool(dict(pool.inventory), pool.config)
    replanned = fresh.evaluate(JOB, group)
    assert fresh.evaluations == 1
    assert cache.evictions == evictions + 1
    # Recomputed, not read: the same plan (wall times differ).
    assert replanned.result.plan == planned.result.plan
    assert replanned.result.predicted_latency_s == planned.result.predicted_latency_s
    restored = cache.get("fleet_plan", pkey)
    assert restored["result"]["plan"] == entry["result"]["plan"]


def test_floors_round_trip_inf(monkeypatch, tmp_path):
    """A group nothing fits on stores an ``inf`` floor and reads it back."""
    pool = _cold_pool(monkeypatch, tmp_path, inventory={"P100-12G": 1, "T4-16G": 1})
    job = dataclasses.replace(
        JOB, model="opt-13b", min_uniform_bits=16
    )
    floors = pool.latency_floors(job)
    assert float("inf") in floors.values()
    fresh = PlannerPool(dict(pool.inventory), pool.config)
    assert fresh.latency_floors(job) == floors


def test_infeasible_plan_entry_round_trips(monkeypatch, tmp_path):
    """A group nothing fits on is stored as ``{"result": null}`` and read
    back as infeasible, without planning again."""
    pool = _cold_pool(monkeypatch, tmp_path, inventory={"P100-12G": 1, "T4-16G": 1})
    job = dataclasses.replace(JOB, model="opt-13b", min_uniform_bits=16)
    group = pool.groups[-1]
    assert pool.evaluate(job, group) is None
    pkey = pool._persistent_key(_memo_key(job, group))
    assert default_cache().get("fleet_plan", pkey) == {"result": None}
    fresh = PlannerPool(dict(pool.inventory), pool.config)
    assert fresh.evaluate(job, group) is None
    assert (fresh.evaluations, fresh.cache_hits) == (0, 1)


def test_cache_disabled_writes_nothing(monkeypatch, tmp_path):
    pool = _cold_pool(monkeypatch, tmp_path)
    monkeypatch.setenv("SPLITQUANT_CACHE", "0")
    GreedyAllocator().allocate([JOB], pool)
    assert pool.evaluations > 0
    assert not any(p.is_file() for p in tmp_path.rglob("*"))


def test_warm_replay_reads_only_hits(monkeypatch, tmp_path):
    _cold_pool(monkeypatch, tmp_path)
    inventory = {"V100-32G": 2, "T4-16G": 3}
    jobs = make_job_queue(n_jobs=3, seed=2, models=MODELS)
    cold = FleetScheduler(inventory, allocator="greedy").schedule(jobs)
    cache = default_cache()
    hits, misses = cache.hits, cache.misses
    warm_sched = FleetScheduler(inventory, allocator="greedy")
    warm = warm_sched.schedule(jobs)
    assert warm == dataclasses.replace(cold, pool_stats=warm.pool_stats)
    assert cache.misses == misses
    assert cache.hits > hits
    assert warm_sched.pool.evaluations == 0
