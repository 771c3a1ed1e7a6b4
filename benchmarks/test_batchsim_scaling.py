"""Bench: batched plan-frontier evaluation vs the per-plan fast path.

Measures ``repro.pipeline.evaluate_plans`` against a per-plan
``simulate_plan(sim_backend="fast")`` loop on two realistic frontiers:

* the Table-VI planner configuration (OPT-30B on cluster 5) with a
  frontier of bitwidth x micro-batching x chunking variants — the shape
  the candidate-search scoring stage sees, and
* a fleet-shaped frontier on a 25-GPU inventory: one plan per (job,
  group) pair, each group materializing a different cluster.

Both timings start from cold evaluation caches (``clear_table_caches``
runs inside the timed region), so the measured gap is the vectorized
sweep, not warm-cache luck.  Results must be *bit-identical* to the
per-plan loop.  The speedup is recorded, not gated: both paths share
one stage-duration implementation and one duration memo, so a ratio
would punish the per-plan path for getting faster and miss a slowdown
that hits both.  The absolute wall time of the batched sweep on the
planner frontier is the ledger's ``frontier-500`` workload, which CI
compares against the base commit.  Emits
``benchmarks/BENCH_batchsim.json``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.fleet.allocator import enumerate_groups
from repro.hardware import table_iii_cluster
from repro.models import get_model
from repro.pipeline import (
    PlanCase,
    clear_table_caches,
    evaluate_plans,
    simulate_plan,
)
from repro.plan import uniform_plan
from repro.workloads import BatchWorkload

OUT = Path(__file__).resolve().parent / "BENCH_batchsim.json"

ROUNDS = 3

#: The fleet demo's idle pool: 25 GPUs across three types.
FLEET_INVENTORY = {"T4-16G": 10, "V100-32G": 8, "A100-40G": 7}


def _groups_of(cluster):
    return [((d.device_id,), d.gpu.name) for d in cluster.devices]


def _planner_frontier():
    """The Table-VI scoring frontier: one cluster, many plan variants."""
    spec = get_model("opt-30b")
    cluster = table_iii_cluster(5)
    cases = []
    for bits in (3, 4, 8, 16):
        for mb_pre in (2, 4, 8, 16, 32):
            for mb_dec in (4, 8, 16, 32, 64):
                plan = uniform_plan(
                    spec.name, spec.num_layers, _groups_of(cluster),
                    bits, mb_pre, mb_dec,
                )
                for chunk in (128, 256, 384, 512, 1024):
                    wl = BatchWorkload(
                        batch=64, prompt_len=512, output_len=128,
                        chunk_tokens=chunk,
                    )
                    cases.append(
                        PlanCase(
                            plan=plan, cluster=cluster, spec=spec,
                            workload=wl,
                        )
                    )
    return cases


def _fleet_frontier():
    """A fleet-shaped frontier: one plan per (job, group) pair."""
    spec = get_model("opt-13b")
    groups = enumerate_groups(FLEET_INVENTORY, max_gpus=4, max_types=2)
    jobs = [
        BatchWorkload(batch=b, prompt_len=p, output_len=o)
        for b, p, o in (
            (8, 256, 32), (16, 256, 64), (32, 512, 32), (8, 512, 64),
            (16, 384, 48), (64, 256, 16), (24, 512, 24), (48, 384, 32),
            (40, 256, 32), (48, 256, 64), (56, 512, 32), (16, 512, 64),
            (32, 384, 48), (32, 256, 16), (64, 512, 24), (24, 384, 32),
        )
    ]
    cases = []
    for wl in jobs:
        for g in groups:
            cluster = g.to_cluster(f"fleet-{g.describe()}")
            plan = uniform_plan(
                spec.name, spec.num_layers, _groups_of(cluster), 4, 8, 8
            )
            cases.append(
                PlanCase(plan=plan, cluster=cluster, spec=spec, workload=wl)
            )
    return cases


def _measure(cases, rounds: int = ROUNDS):
    """(per_plan_wall_s, batched_wall_s, per_plan_results, batched_results).

    Both sides are timed best-of-``rounds`` from cold caches; cache
    clearing is inside the timed region so neither path inherits the
    other's warm tables.
    """

    def per_plan():
        clear_table_caches()
        return [
            simulate_plan(
                c.plan, c.cluster, c.spec, c.workload,
                check_memory=False, sim_backend="fast",
            )
            for c in cases
        ]

    def batched():
        clear_table_caches()
        return evaluate_plans(cases)

    loop_wall, loop_res = float("inf"), None
    for _ in range(rounds):
        t0 = time.perf_counter()
        loop_res = per_plan()
        loop_wall = min(loop_wall, time.perf_counter() - t0)
    batch_wall, batch_res = float("inf"), None
    for _ in range(rounds):
        t0 = time.perf_counter()
        batch_res = batched()
        batch_wall = min(batch_wall, time.perf_counter() - t0)
    return loop_wall, batch_wall, loop_res, batch_res


def _section(name, cases):
    loop_wall, batch_wall, loop_res, batch_res = _measure(cases)
    assert batch_res == loop_res, f"{name}: batched results diverged"
    speedup = loop_wall / batch_wall
    return {
        "plans": len(cases),
        "per_plan_wall_s": round(loop_wall, 5),
        "batched_wall_s": round(batch_wall, 5),
        "per_plan_plans_per_s": round(len(cases) / loop_wall, 1),
        "batched_plans_per_s": round(len(cases) / batch_wall, 1),
        "speedup": round(speedup, 2),
        "results_identical": True,
    }


def test_batchsim_scaling():
    planner_cases = _planner_frontier()
    fleet_cases = _fleet_frontier()

    record = {
        "bench": "batchsim_scaling",
        "planner_frontier": _section("planner frontier", planner_cases),
        "fleet_frontier": _section("fleet frontier", fleet_cases),
    }
    OUT.write_text(json.dumps(record, indent=2) + "\n")
    print()
    print(json.dumps(record, indent=2))
