"""Tests for the persistent content-addressed result cache."""

from __future__ import annotations

import json

import pytest

from repro.cache import (
    MISS,
    ResultCache,
    cache_key,
    canonical_json,
    code_version_salt,
    default_cache,
)


@pytest.fixture()
def cache(tmp_path):
    return ResultCache(tmp_path / "store")


def test_round_trip(cache):
    key = cache_key({"x": 1})
    assert cache.get("ns", key) is MISS
    cache.put("ns", key, {"answer": [1, 2.5, "three", None]})
    assert cache.get("ns", key) == {"answer": [1, 2.5, "three", None]}
    assert cache.hits == 1 and cache.misses == 1
    assert cache.entries("ns") == 1


def test_cached_none_distinct_from_miss(cache):
    key = cache_key("infeasible-case")
    cache.put("ns", key, None)
    assert cache.get("ns", key) is None  # a hit, not MISS


def test_canonical_json_deterministic():
    a = canonical_json({"b": 2, "a": [1.5, True]})
    b = canonical_json({"a": [1.5, True], "b": 2})
    assert a == b
    assert cache_key({"b": 2, "a": [1.5, True]}) == cache_key(
        {"a": [1.5, True], "b": 2}
    )


def test_float_keys_exact():
    """Distinct floats never collide; equal floats always agree."""
    assert cache_key(0.1 + 0.2) != cache_key(0.3)
    assert cache_key(1e300) == cache_key(1e300)


def test_corrupt_entry_evicted(cache):
    key = cache_key("will-corrupt")
    cache.put("ns", key, {"v": 1})
    path = cache._path("ns", key)
    path.write_text('{"key": "abc", "value": {"v"')  # torn write
    assert cache.get("ns", key) is MISS
    assert cache.evictions == 1
    assert not path.exists()
    # recompute-and-overwrite works after eviction
    cache.put("ns", key, {"v": 2})
    assert cache.get("ns", key) == {"v": 2}


def test_entry_is_self_describing(cache):
    key = cache_key({"probe": 1})
    cache.put("ns", key, 42)
    entry = json.loads(cache._path("ns", key).read_text())
    assert entry["key"] == key
    assert entry["value"] == 42


def test_non_hex_key_rejected(cache):
    with pytest.raises(ValueError, match="hex digest"):
        cache.get("ns", "../../etc/passwd")


def test_clear(cache):
    for i in range(3):
        cache.put("a", cache_key(i), i)
    cache.put("b", cache_key("x"), "x")
    assert cache.clear("a") == 3
    assert cache.entries("a") == 0 and cache.entries("b") == 1
    assert cache.clear() == 1


def test_salt_invalidation(cache, monkeypatch):
    """Changing the code-version salt changes every embedding key."""
    monkeypatch.setenv("SPLITQUANT_CACHE_SALT", "v1")
    k1 = cache_key({"salt": code_version_salt(), "payload": "p"})
    cache.put("ns", k1, "old")
    monkeypatch.setenv("SPLITQUANT_CACHE_SALT", "v2")
    k2 = cache_key({"salt": code_version_salt(), "payload": "p"})
    assert k1 != k2
    assert cache.get("ns", k2) is MISS  # stale entry silently skipped


def test_default_cache_env(tmp_path, monkeypatch):
    monkeypatch.setenv("SPLITQUANT_CACHE_DIR", str(tmp_path / "c"))
    c = default_cache()
    assert c is not None and str(c.root) == str(tmp_path / "c")
    monkeypatch.setenv("SPLITQUANT_CACHE", "0")
    assert default_cache() is None
    monkeypatch.delenv("SPLITQUANT_CACHE")
    assert default_cache() is not None


# -- consumers -----------------------------------------------------------

def test_planner_pool_persistent_across_pools(tmp_path, monkeypatch):
    monkeypatch.setenv("SPLITQUANT_CACHE_DIR", str(tmp_path))
    from repro.core import PlannerConfig
    from repro.fleet.allocator import GroupSpec, PlannerPool
    from repro.fleet.jobs import FleetJob
    from repro.workloads import BatchWorkload

    inv = {"T4-16G": 2, "V100-32G": 1}
    cfg = PlannerConfig(time_limit_s=10.0, max_orderings=2, verify_top_k=1)
    wl = BatchWorkload(batch=8, prompt_len=256, output_len=16)
    job = FleetJob(job_id="j", model="opt-13b", workload=wl)
    grp = GroupSpec(counts=(("T4-16G", 1), ("V100-32G", 1)))

    cold_pool = PlannerPool(inv, cfg)
    cold = cold_pool.evaluate(job, grp)
    assert cold_pool.evaluations == 1 and cold_pool.cache_hits == 0

    warm_pool = PlannerPool(inv, cfg)  # fresh memo, warm disk
    warm = warm_pool.evaluate(job, grp)
    assert warm_pool.evaluations == 0 and warm_pool.cache_hits == 1
    assert warm.result.plan == cold.result.plan
    # Allocator decisions key off these exact floats.
    assert warm.result.predicted_latency_s == cold.result.predicted_latency_s
    assert warm.result.throughput_tokens_s == cold.result.throughput_tokens_s
    assert warm.result.predicted_quality == cold.result.predicted_quality


def test_fleet_scheduler_warm_results_equal_cold(tmp_path, monkeypatch):
    """A planner result read back from the cache is the cold result, field
    for field: ``==`` and the ``compare=False`` provenance alike."""
    import dataclasses

    from repro.fleet import FleetScheduler, make_job_queue

    monkeypatch.setenv("SPLITQUANT_CACHE_DIR", str(tmp_path))
    inventory = {"V100-32G": 2, "T4-16G": 2}
    jobs = make_job_queue(n_jobs=2, seed=1, models=("opt-1.3b",))
    cold = FleetScheduler(inventory, allocator="greedy").schedule(jobs)
    hits = default_cache().hits
    warm = FleetScheduler(inventory, allocator="greedy").schedule(jobs)
    assert default_cache().hits > hits
    assert len(warm.jobs) == len(cold.jobs) > 0
    for w, c in zip(warm.jobs, cold.jobs):
        assert w.assignment.result == c.assignment.result
        for f in dataclasses.fields(c.assignment.result):
            assert getattr(w.assignment.result, f.name) == getattr(
                c.assignment.result, f.name
            ), f.name


def test_salt_covers_every_module_a_cached_value_can_reach(
    tmp_path, monkeypatch
):
    """Plans and fleet schedules are cached under the code salt, so every
    ``repro`` module they load must be one the salt hashes."""
    import sys
    from pathlib import Path

    from repro import Session
    from repro.cache import _salt_sources
    from repro.fleet import make_job_queue
    from repro.workloads import BatchWorkload

    monkeypatch.setenv("SPLITQUANT_CACHE_DIR", str(tmp_path))
    sess = Session("opt-1.3b", cluster=1)
    assert sess.plan(BatchWorkload(batch=8, prompt_len=128, output_len=8))
    jobs = make_job_queue(n_jobs=2, seed=0, models=("opt-1.3b",))
    sess.schedule_fleet(
        jobs=jobs, inventory={"V100-32G": 2, "T4-16G": 2}, allocator="greedy"
    )

    hashed = {p.resolve() for p in _salt_sources()}
    loaded = {
        Path(mod.__file__).resolve()
        for name, mod in list(sys.modules.items())
        if (name == "repro" or name.startswith("repro."))
        and getattr(mod, "__file__", None)
    }
    assert loaded and loaded <= hashed, sorted(map(str, loaded - hashed))
