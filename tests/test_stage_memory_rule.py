"""Cross-layer pin of the stage-memory rule (constraints (12)-(13)).

A stage holds its layers' weights and KV reservation plus non-layer
bytes: the activation workspace on every stage, ``M_emb`` on the first
stage, and the LM head again on the last stage when it is not the first.
Four sites apply the rule: the simulator's memory pre-check, the
planner's capacity rows, the degrade repair and the online admission
residency.  These tests pin all four to one oracle written out below,
and pin the planner's feasibility test to the simulator's pre-check.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import repro.core.planner as planner_mod
from repro.core import PlannerConfig, SplitQuantPlanner, StageGroup, build_problem
from repro.core.ilp import ILPSolution
from repro.core.planner import degrade_execution_plan_internal, solution_to_plan
from repro.costmodel.memory import (
    activation_workspace_bytes,
    embedding_memory_bytes,
    layer_memory_bytes,
)
from repro.hardware import table_iii_cluster
from repro.models import get_model, weight_storage_bytes
from repro.models.layers import FP16_BYTES
from repro.pipeline.online import OnlineConfig, _OnlineContext
from repro.pipeline.simulator import check_plan_memory
from repro.pipeline.stage import RooflineTiming
from repro.plan import ExecutionPlan, InfeasibleError, StagePlan
from repro.simgpu import OutOfMemoryError
from repro.workloads import ArrivalTrace, BatchWorkload, Request

BITS = (3, 4, 8, 16)
MODELS = ("opt-13b", "qwen2.5-7b")  # tied LM head, separate LM head


def oracle_overhead(spec, j, n_stages, microbatch, chunk_tokens):
    """Non-layer bytes of stage ``j``, as each site wrote them inline."""
    b = activation_workspace_bytes(spec, microbatch, chunk_tokens)
    if j == 0:
        b += embedding_memory_bytes(spec, microbatch)
    if j == n_stages - 1 and j != 0:
        b += spec.lm_head_elements * FP16_BYTES
    return b


def _orderings(index):
    """Stage device groups per cluster: one stage per device, one single
    stage, and (where a node has two GPUs) a tensor-parallel stage."""
    cluster = table_iii_cluster(index)
    ids = [d.device_id for d in cluster.devices]
    out = [tuple((d,) for d in ids), ((ids[-1],),)]
    if index in (7, 9):
        out.append(tuple((d,) for d in ids[:-2]) + (tuple(ids[-2:]),))
    return cluster, out


def _stage_groups(cluster, ordering):
    by_id = {d.device_id: d for d in cluster.devices}
    return tuple(
        StageGroup(device_ids=ids, gpu=by_id[ids[0]].gpu) for ids in ordering
    )


def _plan(cluster, spec, ordering, bits, eta, bit_kv=16):
    """A plan spreading ``spec``'s layers evenly over ``ordering``."""
    by_id = {d.device_id: d for d in cluster.devices}
    n = len(ordering)
    bounds = [spec.num_layers * j // n for j in range(n + 1)]
    stages = tuple(
        StagePlan(
            device_ids=ids,
            gpu_name=by_id[ids[0]].gpu.name,
            layer_start=bounds[j],
            layer_bits=(bits,) * (bounds[j + 1] - bounds[j]),
        )
        for j, ids in enumerate(ordering)
    )
    return ExecutionPlan(spec.name, stages, eta, eta, bit_kv)


@pytest.mark.parametrize("index", [2, 5, 7, 9])
def test_memory_ok_matches_check_plan_memory(index):
    """The planner's constraint rows accept exactly what the simulator's
    pre-check accepts, on seeded assignments of every ordering."""
    cluster, orderings = _orderings(index)
    rng = np.random.default_rng(index)
    outcomes = set()
    for model in MODELS:
        spec = get_model(model)
        omega = np.zeros((spec.num_layers, len(BITS)))
        timing = RooflineTiming(spec=spec)
        for ordering in orderings:
            sgs = _stage_groups(cluster, ordering)
            n = len(sgs)
            for _ in range(6):
                wl = BatchWorkload(
                    batch=int(rng.choice([4, 16, 64])),
                    prompt_len=int(rng.integers(64, 1500)),
                    output_len=int(rng.integers(8, 600)),
                    chunk_tokens=int(rng.choice([128, 512, 2048])),
                )
                eta = int(rng.choice([1, 2, 4, 8]))
                bit_kv = int(rng.choice([8, 16]))
                problem = build_problem(
                    spec, cluster, sgs, wl, None, omega, eta, eta, BITS,
                    group_size=4, bit_kv=bit_kv, timing=timing,
                )
                G = problem.n_groups
                cuts = np.sort(rng.choice(np.arange(1, G), n - 1, replace=False))
                stage = tuple(int(np.searchsorted(cuts, g, side="right"))
                              for g in range(G))
                bits = tuple(int(b) for b in rng.choice(BITS, size=G))
                ok = problem.memory_ok(stage, bits)
                sol = ILPSolution(stage, bits, 0.0, 0.0, 0.0, 0.0, "seeded")
                plan = solution_to_plan(
                    spec, sgs, problem.group_sizes, sol, eta, eta, bit_kv
                )
                try:
                    check_plan_memory(plan, cluster, spec, wl)
                    fits = True
                except OutOfMemoryError:
                    fits = False
                assert ok == fits, (model, ordering, wl, eta, bits)
                outcomes.add(fits)
    assert outcomes == {True, False}


@pytest.fixture(scope="module")
def tier_plans():
    spec = get_model("opt-13b")
    cluster = table_iii_cluster(5)
    wl = BatchWorkload(batch=16, prompt_len=512, output_len=64)
    cfg = PlannerConfig(
        group_size=5, max_orderings=2, microbatch_candidates=(4, 8),
        time_limit_s=10.0, verify_top_k=1,
    )
    planner = SplitQuantPlanner(spec, cluster, cfg)
    heuristic = SplitQuantPlanner(
        spec, cluster, dataclasses.replace(cfg, use_heuristic=True),
        cost_model=planner.cost_model,
    )
    results = {
        "exact": planner.plan(wl, tier="exact"),
        "dp": planner.plan(wl, tier="dp"),
        "heuristic": heuristic.plan(wl, tier="exact"),
    }
    return spec, cluster, wl, results


def test_every_tier_plan_passes_check_plan_memory(tier_plans):
    spec, cluster, wl, results = tier_plans
    for tier, res in results.items():
        assert res is not None, tier
        check_plan_memory(res.plan, cluster, spec, wl)


def test_degraded_plans_pass_check_plan_memory(tier_plans):
    spec, cluster, wl, results = tier_plans
    all_ids = [d.device_id for d in cluster.devices]
    degraded = 0
    for res in results.values():
        for st in res.plan.stages:
            survivors = [d for d in all_ids if d not in st.device_ids]
            try:
                plan = degrade_execution_plan_internal(
                    res.plan, survivors, cluster, spec, wl
                )
            except InfeasibleError:
                continue
            check_plan_memory(plan, cluster, spec, wl)
            degraded += 1
    assert degraded > 0


GRID_ORDERINGS = (
    ((0,), (1,), (2,)),  # three stages
    ((0, 1), (2,)),  # a TP stage first
    ((2,),),  # one stage: first and last
)


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("ordering", GRID_ORDERINGS)
def test_four_sites_match_the_oracle(model, ordering, monkeypatch):
    """bits x eta x chunk x batch: every site's per-stage bytes equal the
    inline formulas each site used before they shared one function."""
    spec = get_model(model)
    cluster = table_iii_cluster(2)
    by_id = {d.device_id: d for d in cluster.devices}
    sgs = _stage_groups(cluster, ordering)
    n = len(ordering)
    caps = [sum(by_id[d].gpu.usable_mem_bytes for d in ids) for ids in ordering]
    omega = np.zeros((spec.num_layers, len(BITS)))
    timing = RooflineTiming(spec=spec)

    captured = {}
    real_degrade_plan = planner_mod.degrade_plan

    def spy(plan, surviving, capacity_bytes=None, layer_cost=None):
        captured["capacity"] = dict(capacity_bytes)
        captured["layer_cost"] = layer_cost
        return real_degrade_plan(plan, surviving, capacity_bytes, layer_cost)

    monkeypatch.setattr(planner_mod, "degrade_plan", spy)

    for bits in (3, 8, 16):
        for eta in (1, 8):
            for chunk_tokens in (256, 1024, 4096):
                for batch in (1, 16):
                    wl = BatchWorkload(
                        batch=batch, prompt_len=700, output_len=64,
                        chunk_tokens=chunk_tokens,
                    )
                    chunk = min(wl.chunk_len, wl.context_len)
                    over = [oracle_overhead(spec, j, n, eta, chunk)
                            for j in range(n)]
                    plan = _plan(cluster, spec, ordering, bits, eta)

                    # Simulator pre-check.
                    need = [
                        sum(layer_memory_bytes(spec, b, batch, wl.context_len)
                            for b in st.layer_bits) + over[j]
                        for j, st in enumerate(plan.stages)
                    ]
                    if all(x <= c for x, c in zip(need, caps)):
                        assert check_plan_memory(plan, cluster, spec, wl) == (
                            tuple(need)
                        )
                    else:
                        with pytest.raises(OutOfMemoryError):
                            check_plan_memory(plan, cluster, spec, wl)

                    # Planner capacity rows.
                    problem = build_problem(
                        spec, cluster, sgs, wl, None, omega, eta, eta, BITS,
                        timing=timing,
                    )
                    assert problem.capacity.tolist() == [
                        float(c - o) for c, o in zip(caps, over)
                    ]

                    # Degrade repair with every device surviving.
                    captured.clear()
                    try:
                        degrade_execution_plan_internal(
                            plan, list(by_id), cluster, spec, wl
                        )
                    except InfeasibleError:
                        pass
                    expect = {}
                    for ids, c, o in zip(ordering, caps, over):
                        per_dev, rem = divmod(max(c - o, 0), len(ids))
                        for k, d in enumerate(ids):
                            expect[d] = per_dev + (rem if k == 0 else 0)
                    assert captured["capacity"] == expect
                    assert captured["layer_cost"](0, bits) == (
                        layer_memory_bytes(spec, bits, batch, wl.context_len)
                    )

                    # Online admission residency (weights only; KV is
                    # metered dynamically), sized by the longest chunk.
                    reqs = tuple(
                        Request(i, 0.1 * i, p, 32)
                        for i, p in enumerate((300, 700, 1900))
                    )
                    ref_chunk = max(
                        -(-r.prompt_len // -(-r.prompt_len // chunk_tokens))
                        for r in reqs
                    )
                    ctx = _OnlineContext(
                        plan, cluster, spec, ArrivalTrace(reqs),
                        OnlineConfig(chunk_tokens=chunk_tokens), None, False,
                    )
                    assert ctx.static == [
                        sum(weight_storage_bytes(spec, b) for b in st.layer_bits)
                        + oracle_overhead(spec, j, n, eta, ref_chunk)
                        for j, st in enumerate(plan.stages)
                    ]
