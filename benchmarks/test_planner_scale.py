"""Bench: the scalable planning tier at fleet scale.

Three headlines, written to ``benchmarks/BENCH_planner_scale.json`` (a
CI artifact, not tracked):

* ``dp_large_cluster`` — the DP tier plans a single 1000-GPU
  heterogeneous cluster in well under a minute, with a certified
  optimality gap bound of at most 2.26875 (1.25x the 1.815 certified
  when the ceiling was set).  The exact tier cannot touch this instance:
  its ordering enumeration would have to permute 1000 stage groups
  (~10^2568 permutations), so the section also records that
  impossibility evidence.
* ``fleet_schedule`` — end-to-end plan+schedule of a job queue onto a
  1000-GPU schedulable inventory drawn from a 10k-GPU fleet sample.
  The smoke variant (default, CI) schedules 10 jobs; the full variant
  (``PLANNER_SCALE_FULL=1``, nightly) schedules 100.  Every job must be
  placed.
* ``incremental_vs_cold`` — ``replan(prev, ClusterDelta(...))`` vs a
  cold re-plan on the reduced cluster after losing one GPU.  The
  incremental path repairs the previous plan and re-scores it with one
  fastsim sweep; about 35x faster on a 2-vCPU host.  The hard floor is a
  conservative 3x so noisy CI boxes never flake, and the repaired
  plan must keep at least half the cold plan's throughput.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

from repro.core import ClusterDelta, PlannerConfig, SplitQuantPlanner
from repro.core.enumeration import scalable_orderings
from repro.fleet import FleetScheduler, make_job_queue
from repro.hardware import make_cluster
from repro.hardware.fleet import sample_fleet, schedulable_inventory
from repro.models import get_model
from repro.workloads import BatchWorkload

OUT = Path(__file__).resolve().parent / "BENCH_planner_scale.json"

#: Hard floors — structural contracts, not machine-relative baselines.
MIN_INCREMENTAL_SPEEDUP = 3.0
MIN_INCREMENTAL_TPUT_RATIO = 0.5
MAX_GAP_BOUND = 25.0
#: Ceiling on the 1000-GPU instance's certified bound: 1.25 x 1.815.
MAX_DP_GAP_BOUND = 2.26875
MAX_DP_PLAN_WALL_S = 60.0
ROUNDS = 3

FULL = os.environ.get("PLANNER_SCALE_FULL", "") == "1"

#: 1000 heterogeneous GPUs in one cluster — the DP-tier headline.
BIG_COUNTS = [["A100-40G", 400], ["V100-32G", 300], ["T4-16G", 300]]

#: Fleet-style planner config: heuristic adabits, coarse groups.
BIG_CFG = PlannerConfig(
    use_heuristic=True,
    group_size=8,
    max_orderings=3,
    microbatch_candidates=(8,),
    verify_top_k=1,
)


def _dp_large_cluster() -> dict:
    spec = get_model("opt-30b")
    cluster = make_cluster("bench-1000", BIG_COUNTS)
    t0 = time.perf_counter()
    planner = SplitQuantPlanner(spec, cluster, BIG_CFG)
    fit_wall_s = time.perf_counter() - t0
    wl = BatchWorkload(batch=64, prompt_len=512, output_len=64)
    t0 = time.perf_counter()
    result = planner.plan(wl)  # tier="auto" -> dp at 1000 devices
    plan_wall_s = time.perf_counter() - t0
    assert result is not None, "DP tier failed on the 1000-GPU cluster"
    assert result.tier == "dp", f"auto routed to {result.tier!r}"
    assert plan_wall_s < MAX_DP_PLAN_WALL_S, (
        f"DP plan took {plan_wall_s:.1f}s on 1000 GPUs "
        f"(budget {MAX_DP_PLAN_WALL_S:.0f}s)"
    )
    gap = result.gap_bound
    assert gap is not None and 1.0 <= gap < MAX_GAP_BOUND, (
        f"gap bound {gap} outside [1, {MAX_GAP_BOUND})"
    )
    assert gap <= MAX_DP_GAP_BOUND, (
        f"gap bound {gap:.3f} looser than {MAX_DP_GAP_BOUND}"
    )
    # Exact-tier impossibility evidence: its ordering enumeration is
    # factorial in the number of stage groups.
    groups = max(
        len(o) for o in scalable_orderings(cluster, max_orderings=3)
    )
    perm_log10 = math.lgamma(groups + 1) / math.log(10.0)
    return {
        "gpus": len(cluster.devices),
        "model": spec.name,
        "fit_wall_s": round(fit_wall_s, 3),
        "plan_wall_s": round(plan_wall_s, 3),
        "tier": result.tier,
        "gap_bound": round(gap, 3),
        "stages": len(result.plan.stages),
        "throughput_tokens_s": round(result.throughput_tokens_s, 1),
        "exact_stage_groups": groups,
        "exact_orderings_log10": round(perm_log10, 0),
    }


@contextmanager
def _cold_persistent_cache():
    """Point the persistent plan cache at an empty temp dir.

    The fleet headline measures planning throughput, not how warm this
    machine's ``~/.cache/splitquant`` happens to be.
    """
    prev = os.environ.get("SPLITQUANT_CACHE_DIR")
    with tempfile.TemporaryDirectory(prefix="bench-cache-") as tmp:
        os.environ["SPLITQUANT_CACHE_DIR"] = tmp
        try:
            yield
        finally:
            if prev is None:
                os.environ.pop("SPLITQUANT_CACHE_DIR", None)
            else:
                os.environ["SPLITQUANT_CACHE_DIR"] = prev


def _fleet_schedule() -> dict:
    n_jobs = 100 if FULL else 10
    stats = sample_fleet(n_gpus=10_000, seed=0)
    inventory = schedulable_inventory(stats, pool_gpus=1000)
    jobs = make_job_queue(n_jobs=n_jobs, seed=0)
    scheduler = FleetScheduler(inventory, allocator="greedy")
    with _cold_persistent_cache():
        t0 = time.perf_counter()
        schedule = scheduler.schedule(jobs)
        wall_s = time.perf_counter() - t0
    assert not schedule.unscheduled, (
        f"{len(schedule.unscheduled)} of {n_jobs} fleet jobs unscheduled"
    )
    pool = schedule.pool_stats
    return {
        "variant": "full" if FULL else "smoke",
        "inventory": dict(inventory),
        "pool_gpus": sum(inventory.values()),
        "jobs": n_jobs,
        "scheduled": len(schedule.jobs),
        "unscheduled": len(schedule.unscheduled),
        "wall_s": round(wall_s, 2),
        "jobs_per_s": round(len(schedule.jobs) / wall_s, 3),
        "makespan_s": round(schedule.makespan_s, 1),
        "planner_evaluations": pool.get("evaluations", 0),
        "planner_cache_hits": pool.get("cache_hits", 0),
    }


def _incremental_vs_cold() -> dict:
    spec = get_model("opt-13b")
    cluster = make_cluster(
        "bench-inc",
        [["A100-40G", 2], ["V100-32G", 2], ["T4-16G", 2]],
    )
    cfg = PlannerConfig(
        use_heuristic=True,
        microbatch_candidates=(4,),
        verify_top_k=1,
        enable_tp=False,
    )
    planner = SplitQuantPlanner(spec, cluster, cfg)
    wl = BatchWorkload(batch=8, prompt_len=256, output_len=32)
    prev = planner.plan(wl)
    assert prev is not None
    dead = cluster.devices[-1].device_id
    survivors = [
        d.device_id for d in cluster.devices if d.device_id != dead
    ]
    cold_s, cold = float("inf"), None
    for _ in range(ROUNDS):
        t0 = time.perf_counter()
        cold = planner.replan_cold(wl, survivors)
        cold_s = min(cold_s, time.perf_counter() - t0)
    inc_s, inc = float("inf"), None
    for _ in range(ROUNDS):
        t0 = time.perf_counter()
        inc = planner.replan(prev, ClusterDelta(removed_device_ids=(dead,)))
        inc_s = min(inc_s, time.perf_counter() - t0)
    speedup = cold_s / inc_s
    tput_ratio = inc.throughput_tokens_s / cold.throughput_tokens_s
    assert speedup >= MIN_INCREMENTAL_SPEEDUP, (
        f"incremental re-solve only {speedup:.1f}x faster than cold "
        f"(need >= {MIN_INCREMENTAL_SPEEDUP}x): cold "
        f"{cold_s * 1e3:.1f}ms vs incremental {inc_s * 1e3:.1f}ms"
    )
    assert tput_ratio >= MIN_INCREMENTAL_TPUT_RATIO, (
        f"incremental plan keeps only {tput_ratio:.2f} of cold "
        f"throughput (need >= {MIN_INCREMENTAL_TPUT_RATIO})"
    )
    return {
        "gpus": len(cluster.devices),
        "cold_wall_s": round(cold_s, 4),
        "incremental_wall_s": round(inc_s, 5),
        "speedup": round(speedup, 1),
        "incremental_tier": inc.tier,
        "throughput_ratio_vs_cold": round(tput_ratio, 3),
    }


def test_planner_scale():
    record = {
        "bench": "planner_scale",
        "min_incremental_speedup": MIN_INCREMENTAL_SPEEDUP,
        "max_gap_bound": MAX_GAP_BOUND,
        "dp_large_cluster": _dp_large_cluster(),
        "fleet_schedule": _fleet_schedule(),
        "incremental_vs_cold": _incremental_vs_cold(),
    }
    OUT.write_text(json.dumps(record, indent=2) + "\n")
    print()
    print(json.dumps(record, indent=2))
