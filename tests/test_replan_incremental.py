"""Incremental re-solve: equivalence with cold re-plan."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ClusterDelta,
    JobDelta,
    PlannerConfig,
    SplitQuantPlanner,
)
from repro.hardware import make_cluster
from repro.models import get_model
from repro.plan import InfeasibleError
from repro.workloads import BatchWorkload

WL = BatchWorkload(batch=8, prompt_len=256, output_len=32)
FAST = PlannerConfig(
    use_heuristic=True, microbatch_candidates=(4,), verify_top_k=1,
    enable_tp=False,
)


def _planner(counts=(("A100-40G", 1), ("V100-32G", 1), ("T4-16G", 1))):
    spec = get_model("opt-13b")
    cluster = make_cluster("inc", [list(c) for c in counts])
    return SplitQuantPlanner(spec, cluster, FAST)


# ---------------------------------------------------------------------------
# ClusterDelta: differential equivalence with the cold re-plan
# ---------------------------------------------------------------------------


@settings(max_examples=8, deadline=None)
@given(kill=st.integers(min_value=0, max_value=2))
def test_kill_one_gpu_matches_cold_replan(kill):
    """After a kill-one-GPU delta, incremental re-solve is feasibility-
    equivalent to a cold re-plan and loses at most half its throughput."""
    planner = _planner()
    prev = planner.plan(WL)
    assert prev is not None
    survivors = [
        d.device_id
        for d in planner.cluster.devices
        if d.device_id != kill
    ]
    cold_fails = False
    try:
        cold = planner.replan_cold(WL, survivors)
    except InfeasibleError:
        cold_fails = True
    inc_fails = False
    try:
        inc = planner.replan(prev, ClusterDelta(removed_device_ids=(kill,)))
    except InfeasibleError:
        inc_fails = True
    assert cold_fails == inc_fails
    if cold_fails:
        return
    assert inc.tier in ("incremental-repair", "incremental-resolve")
    assert inc.throughput_tokens_s >= 0.5 * cold.throughput_tokens_s
    assert inc.plan.num_layers == planner.spec.num_layers
    for st_ in inc.plan.stages:
        assert all(d in survivors for d in st_.device_ids)


def test_incremental_repair_is_much_faster_than_cold():
    import time

    planner = _planner(
        (("A100-40G", 2), ("V100-32G", 2), ("T4-16G", 2))
    )
    prev = planner.plan(WL)
    survivors = [
        d.device_id for d in planner.cluster.devices if d.device_id != 5
    ]
    t0 = time.perf_counter()
    planner.replan_cold(WL, survivors)
    cold_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    inc = planner.replan(prev, ClusterDelta(removed_device_ids=(5,)))
    inc_s = time.perf_counter() - t0
    assert inc.tier == "incremental-repair"
    # About 35x on a 2-vCPU host; 3x is a conservative floor for noisy CI.
    assert cold_s / inc_s >= 3.0


def test_cluster_delta_needs_workload_provenance():
    planner = _planner()
    prev = planner.plan(WL)
    import dataclasses

    stripped = dataclasses.replace(prev, workload=None)
    with pytest.raises(ValueError, match="workload"):
        planner.replan(stripped, ClusterDelta(removed_device_ids=(0,)))
    # Passing workload= explicitly repairs the provenance gap.
    res = planner.replan(
        stripped, ClusterDelta(removed_device_ids=(0,)), workload=WL
    )
    assert res.tier in ("incremental-repair", "incremental-resolve")


def test_cluster_delta_validation():
    with pytest.raises(ValueError):
        ClusterDelta(removed_device_ids=())
    planner = _planner()
    prev = planner.plan(WL)
    with pytest.raises(TypeError, match="delta must be"):
        planner.replan(prev, object())


# ---------------------------------------------------------------------------
# JobDelta: warm re-solve on the previous ordering
# ---------------------------------------------------------------------------


def test_job_delta_warm_resolves_on_previous_ordering():
    planner = _planner()
    prev = planner.plan(WL)
    new_wl = BatchWorkload(batch=8, prompt_len=512, output_len=16)
    res = planner.replan(prev, JobDelta(workload=new_wl))
    assert res.tier == "incremental-resolve"
    assert res.workload == new_wl
    assert res.plan.num_layers == planner.spec.num_layers
    assert res.throughput_tokens_s > 0
    # The stage topology is inherited from the previous plan.
    assert [st.device_ids for st in res.plan.stages] == [
        st.device_ids for st in prev.plan.stages
    ]


def test_job_delta_quality_close_to_cold():
    planner = _planner()
    prev = planner.plan(WL)
    new_wl = BatchWorkload(batch=16, prompt_len=256, output_len=32)
    warm = planner.replan(prev, JobDelta(workload=new_wl))
    cold = planner.plan(new_wl)
    assert warm.throughput_tokens_s >= 0.5 * cold.throughput_tokens_s


def test_legacy_replan_signature_rejected():
    # The workload-first replan(workload, surviving_device_ids) form is
    # gone: a device list is not a delta.  replan_cold covers that path.
    planner = _planner()
    with pytest.raises(TypeError, match="delta must be"):
        planner.replan(WL, [1, 2])


# ---------------------------------------------------------------------------
# Session facade & fleet memo keys
# ---------------------------------------------------------------------------


def test_session_replan_passthrough():
    from repro.api import Session

    spec = get_model("opt-13b")
    cluster = make_cluster(
        "sess", [["A100-40G", 1], ["V100-32G", 1], ["T4-16G", 1]]
    )
    with Session(spec, cluster, FAST) as s:
        with pytest.raises(ValueError, match="no previous result"):
            s.replan(ClusterDelta(removed_device_ids=(0,)))
        assert s.plan(WL, tier="auto") is not None
        res = s.replan(ClusterDelta(removed_device_ids=(0,)))
        assert res.tier in ("incremental-repair", "incremental-resolve")
        # The session remembers the re-planned result.
        assert s._last_result is res


def test_planner_pool_memo_keys_include_config(tmp_path, monkeypatch):
    """MILP and heuristic plans for the same (job, group) never collide:
    pools whose configs differ only in ``use_heuristic`` share one cache
    directory, never serve each other's entries, and each serves its own
    to a fresh pool."""
    from dataclasses import replace as dc_replace

    from repro.fleet import PlannerPool, make_job_queue
    from repro.fleet.allocator import GroupSpec

    monkeypatch.delenv("SPLITQUANT_CACHE", raising=False)
    monkeypatch.setenv("SPLITQUANT_CACHE_DIR", str(tmp_path))
    inv = {"V100-32G": 2, "T4-16G": 2}
    job = make_job_queue(n_jobs=1, seed=0)[0]
    group = GroupSpec(counts=(("V100-32G", 2),))
    plans = {}
    for i, heuristic in enumerate((False, True, False, True)):
        config = dc_replace(FAST, use_heuristic=heuristic)
        pool = PlannerPool(inv, config=config)
        a = pool.evaluate(job, group)
        assert a is not None
        assert plans.setdefault(heuristic, a.result.stats) == a.result.stats
        # The first pool of each config plans; the second reads its entry.
        hit = i >= 2
        assert (pool.evaluations, pool.cache_hits) == (int(not hit), int(hit))
