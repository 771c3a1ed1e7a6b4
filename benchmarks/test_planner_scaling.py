"""Bench: search-engine scaling vs the naive serial planner (Table VI).

Runs the Table-VI-style planning configuration (OPT-30B on Table III
cluster 5, 6 orderings x 3x3 micro-batch grid, hard quality budget) through
the search engine and the exhaustive serial oracle
(``tests/planner_oracle.py``), asserts the engine returns a bit-identical
plan, and emits ``benchmarks/BENCH_planner.json`` with the measured
record.  The engine-vs-oracle speedup is recorded, not gated: the
absolute wall time of ``Session.plan`` on this configuration is the
ledger's ``plan-table6`` workload, which CI compares against the base
commit.
"""

from __future__ import annotations

import dataclasses
import json
import time
from pathlib import Path

from repro.core import PlannerConfig, SplitQuantPlanner
from repro.hardware import table_iii_cluster
from repro.models import get_model
from repro.workloads import BatchWorkload
from tests.planner_oracle import plan_reference

OUT = Path(__file__).resolve().parent / "BENCH_planner.json"


def test_planner_scaling():
    spec = get_model("opt-30b")
    cluster = table_iii_cluster(5)
    workload = BatchWorkload(batch=64, prompt_len=512, output_len=128)
    base = PlannerConfig(
        group_size=3,
        max_orderings=6,
        microbatch_candidates=(8, 16, 32),
        verify_top_k=1,
        time_limit_s=30.0,
    )
    seed_planner = SplitQuantPlanner(spec, cluster, base)
    cfg = dataclasses.replace(
        base, quality_budget=seed_planner.uniform_quality(4)
    )
    planner = SplitQuantPlanner(
        spec, cluster, cfg, cost_model=seed_planner.cost_model,
        omega_layers=seed_planner.omega_layers,
    )

    t0 = time.perf_counter()
    fast = planner.plan(workload)
    t_fast = time.perf_counter() - t0
    t0 = time.perf_counter()
    naive = plan_reference(planner, workload)
    t_naive = time.perf_counter() - t0

    assert fast is not None and naive is not None
    # Hard parity requirement: the engine may only *skip* provably
    # dominated candidates, never change the chosen plan.
    assert fast.plan == naive.plan
    speedup = t_naive / t_fast
    s = fast.search
    record = {
        "bench": "planner_scaling",
        "model": spec.name,
        "cluster": cluster.name,
        "workload": {
            "batch": workload.batch,
            "prompt_len": workload.prompt_len,
            "output_len": workload.output_len,
        },
        "config": {
            "group_size": cfg.group_size,
            "max_orderings": cfg.max_orderings,
            "microbatch_candidates": list(cfg.microbatch_candidates),
            "quality_budget": cfg.quality_budget,
            "verify_top_k": cfg.verify_top_k,
        },
        "naive_wall_s": round(t_naive, 4),
        "engine_wall_s": round(t_fast, 4),
        "speedup": round(speedup, 3),
        "plan_identical": fast.plan == naive.plan,
        "search": {
            "enumerated": s.enumerated,
            "solved": s.solved,
            "pruned": s.pruned,
            "infeasible": s.infeasible,
            "lp_bounds": s.lp_bounds,
            "cache_hits": s.cache_hits,
            "cache_misses": s.cache_misses,
            "mean_bound_tightness": round(s.mean_bound_tightness, 4),
            "bound_time_s": round(s.bound_time_s, 4),
            "cum_solve_time_s": round(s.cum_solve_time_s, 4),
            "wall_time_s": round(s.wall_time_s, 4),
        },
    }
    OUT.write_text(json.dumps(record, indent=2) + "\n")
    print()
    print(json.dumps(record, indent=2))
    assert s.pruned > 0
    assert s.cache_hits > 0
