"""Incremental re-solve: repair a previous plan instead of re-enumerating.

Fleet churn — a GPU dies, a job's workload changes — previously triggered
a full cold re-plan (ordering enumeration plus one solve per candidate).
This module warm-starts from the previous :class:`PlannerResult` instead:

- :class:`ClusterDelta` (GPUs removed): the first candidate is the
  plan-level degrade repair (bitwidths kept, layers re-partitioned over
  the surviving stage groups), scored through one batched fastsim sweep
  (:func:`~repro.pipeline.batchsim.evaluate_plans`).  Only when the
  repair is infeasible does a re-solve on the reduced cluster run — so
  the result is feasibility-equivalent to planning from scratch while the
  common case costs one DP repartition plus one simulation.
- :class:`JobDelta` (the workload changed): the previous plan's stage
  ordering is kept and only the (eta, xi) micro-batch grid is re-solved,
  each subproblem warm-started from the previous assignment via
  :func:`~repro.core.heuristic.bitwidth_transfer` — skipping ordering
  enumeration entirely.

Both paths stamp :attr:`PlannerResult.tier` with their provenance
(``"incremental-repair"`` / ``"incremental-resolve"``) and fall back to a
cold :meth:`SplitQuantPlanner.plan` when every warm candidate fails.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, List, Optional, Tuple

from ..obs import trace
from ..plan import ExecutionPlan, InfeasibleError
from ..workloads.spec import BatchWorkload
from .costs import StageGroup
from .heuristic import bitwidth_transfer
from .ilp import ILPSolution
from .search import CandidateStat, enumerate_candidates, rank_candidates

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .planner import PlannerResult, SplitQuantPlanner

__all__ = ["ClusterDelta", "JobDelta", "replan_incremental"]


@dataclass(frozen=True)
class ClusterDelta:
    """The cluster lost these devices (GPU failure / reclamation)."""

    removed_device_ids: Tuple[int, ...]

    def __post_init__(self):
        if not self.removed_device_ids:
            raise ValueError("ClusterDelta needs at least one removed device")


@dataclass(frozen=True)
class JobDelta:
    """The job's workload changed; the cluster did not."""

    workload: BatchWorkload


def _plan_layer_arrays(plan: ExecutionPlan) -> Tuple[List[int], List[int]]:
    """Per-layer (stage index, bitwidth) in layer order."""
    n_layers = sum(len(st.layer_bits) for st in plan.stages)
    stage = [0] * n_layers
    bits = [0] * n_layers
    for j, st in enumerate(plan.stages):
        for i, b in enumerate(st.layer_bits):
            stage[st.layer_start + i] = j
            bits[st.layer_start + i] = b
    return stage, bits


def _plan_quality(planner: "SplitQuantPlanner", plan: ExecutionPlan) -> float:
    """Summed variance indicator of a concrete plan's bit assignment."""
    choices = planner.config.bit_choices
    bit_to_k = {b: k for k, b in enumerate(choices)}
    _, bits = _plan_layer_arrays(plan)
    total = 0.0
    for i, b in enumerate(bits):
        k = bit_to_k.get(b)
        if k is None:  # plan from another config: nearest not-above choice
            k = max(
                (kk for kk, bb in enumerate(choices) if bb <= b), default=0
            )
        total += float(planner.omega_layers[i, k])
    return total


def _result_from_repair(
    planner: "SplitQuantPlanner",
    plan: ExecutionPlan,
    makespan_s: float,
    workload: BatchWorkload,
    t0: float,
    reason: str,
) -> "PlannerResult":
    from .planner import PlannerResult

    quality = _plan_quality(planner, plan)
    key = tuple((st.gpu_name, len(st.device_ids)) for st in plan.stages)
    stat = CandidateStat(
        key,
        plan.prefill_microbatch,
        plan.decode_microbatch,
        "repair",
        makespan_s,
        quality,
        0.0,
    )
    n_tokens = workload.batch * workload.output_len
    return PlannerResult(
        plan=plan,
        predicted_latency_s=makespan_s,
        predicted_quality=quality,
        throughput_tokens_s=(
            n_tokens / makespan_s if makespan_s > 0 else 0.0
        ),
        solve_time_s=time.perf_counter() - t0,
        candidates_tried=1,
        stats=(stat,),
        search=None,
        tier="incremental-repair",
        tier_reason=reason,
        workload=workload,
    )


def _ordering_from_plan(
    planner: "SplitQuantPlanner", plan: ExecutionPlan
) -> Optional[Tuple[StageGroup, ...]]:
    """Rebuild the stage-group ordering a plan was expanded from."""
    gpu_by_name = {d.gpu.name: d.gpu for d in planner.cluster.devices}
    known = {d.device_id for d in planner.cluster.devices}
    groups: List[StageGroup] = []
    for st in plan.stages:
        gpu = gpu_by_name.get(st.gpu_name)
        if gpu is None or not set(st.device_ids) <= known:
            return None
        groups.append(StageGroup(device_ids=st.device_ids, gpu=gpu))
    return tuple(groups)


def _warm_solution(problem, plan: ExecutionPlan) -> Optional[ILPSolution]:
    """Map a previous plan onto a (possibly regrouped) problem.

    Each layer group inherits the stage of its first layer and the
    narrowest bitwidth inside the group (memory-safe direction).  ``None``
    when the mapping leaves a stage empty — the hill climb then builds a
    fresh adabits start instead.
    """
    layer_stage, layer_bits = _plan_layer_arrays(plan)
    if len(layer_stage) != sum(problem.group_sizes):
        return None
    choices = problem.bit_choices
    stage: List[int] = []
    bits: List[int] = []
    cursor = 0
    for size in problem.group_sizes:
        j = layer_stage[cursor]
        if j >= problem.n_stages:
            return None
        group_bits = min(layer_bits[cursor : cursor + size])
        snapped = max(
            (b for b in choices if b <= group_bits), default=choices[0]
        )
        stage.append(j)
        bits.append(snapped)
        cursor += size
    if set(stage) != set(range(problem.n_stages)):
        return None  # regrouping emptied a stage; start fresh
    return ILPSolution(
        assign_stage=tuple(stage),
        assign_bits=tuple(bits),
        objective=0.0,
        latency_s=0.0,
        quality=problem.quality_sum(tuple(bits)),
        solve_time_s=0.0,
        status="warm",
    )


def replan_incremental(
    planner: "SplitQuantPlanner",
    prev: "PlannerResult",
    delta,
    *,
    workload: Optional[BatchWorkload] = None,
) -> "PlannerResult":
    """Warm-started re-solve after a cluster or job delta.

    See the module docstring for the candidate ladder.  Raises
    :class:`InfeasibleError` when neither a repair nor a cold re-plan
    fits, so feasibility is equivalent to planning from scratch.
    """
    if isinstance(delta, JobDelta):
        return _replan_job(planner, prev, delta.workload)
    if isinstance(delta, ClusterDelta):
        wl = workload if workload is not None else prev.workload
        if wl is None:
            raise ValueError(
                "previous result carries no workload; pass workload="
            )
        return _replan_cluster(planner, prev, delta, wl)
    raise TypeError(
        f"delta must be ClusterDelta or JobDelta, got {type(delta).__name__}"
    )


def _replan_cluster(
    planner: "SplitQuantPlanner",
    prev: "PlannerResult",
    delta: ClusterDelta,
    workload: BatchWorkload,
) -> "PlannerResult":
    from .planner import _reduced_cluster, degrade_execution_plan_internal

    t0 = time.perf_counter()
    removed = set(delta.removed_device_ids)
    survivors = tuple(
        d.device_id
        for d in planner.cluster.devices
        if d.device_id not in removed
    )
    with trace.span(
        "planner.replan_incremental",
        kind="cluster",
        removed=len(removed),
        survivors=len(survivors),
    ) as sp:
        reduced = _reduced_cluster(planner.cluster, survivors)
        repaired: Optional[ExecutionPlan] = None
        try:
            repaired = degrade_execution_plan_internal(
                prev.plan, survivors, planner.cluster, planner.spec, workload
            )
        except InfeasibleError:
            repaired = None
        if repaired is not None:
            makespan = _score_plan(planner, repaired, reduced, workload)
            if makespan is not None:
                sp.set(path="repair")
                return _result_from_repair(
                    planner,
                    repaired,
                    makespan,
                    workload,
                    t0,
                    reason=(
                        f"degrade repair after losing {sorted(removed)}"
                    ),
                )
        # Repair infeasible: re-solve on the survivors (tier routed by the
        # reduced instance size), cold-equivalent feasibility.
        sp.set(path="resolve")
        return replace(
            planner.replan_cold(workload, survivors),
            tier="incremental-resolve",
            tier_reason="degrade repair infeasible; re-solved on survivors",
        )


def _score_plan(
    planner: "SplitQuantPlanner",
    plan: ExecutionPlan,
    cluster,
    workload: BatchWorkload,
) -> Optional[float]:
    """Batched-fastsim makespan of one repaired plan; ``None`` on failure."""
    from ..pipeline.batchsim import PlanCase, evaluate_plans
    from ..pipeline.stage import CostModelTiming

    timing = CostModelTiming(
        cost_model=planner.cost_model_for_kv(plan.bit_kv), spec=planner.spec
    )
    try:
        res = evaluate_plans(
            [PlanCase(plan, cluster, planner.spec, workload, timing)]
        )[0]
    except (ValueError, RuntimeError):
        return None
    return float(res.makespan_s)


def _replan_job(
    planner: "SplitQuantPlanner",
    prev: "PlannerResult",
    workload: BatchWorkload,
) -> "PlannerResult":
    cfg = planner.config
    t0 = time.perf_counter()
    with trace.span(
        "planner.replan_incremental",
        kind="job",
        batch=workload.batch,
        output_len=workload.output_len,
    ) as sp:
        ordering = _ordering_from_plan(planner, prev.plan)
        if ordering is None:
            # Plan predates this cluster (device renumbering): cold path.
            sp.set(path="cold")
            result = planner.plan(workload)
            if result is None:
                raise InfeasibleError("no feasible plan for new workload")
            return result
        theta = 0.0 if cfg.quality_budget is not None else cfg.theta
        candidates, _ = enumerate_candidates(
            planner.spec,
            planner.cluster,
            cfg,
            planner.omega_layers,
            planner.cost_model_for_kv,
            workload,
            [ordering],
            kv_choices=(prev.plan.bit_kv,),
        )
        for cand in candidates:
            sol = bitwidth_transfer(
                cand.problem,
                theta=theta,
                quality_budget=cfg.quality_budget,
                time_limit_s=cfg.time_limit_s,
                start=_warm_solution(cand.problem, prev.plan),
            )
            cand.record(sol, cfg)
        result = planner._finish(
            [c.entry() for c in rank_candidates(candidates)],
            [c.stat() for c in candidates],
            workload,
            t0,
            search=None,
        )
        if result is not None:
            sp.set(path="warm")
            return replace(
                result,
                tier="incremental-resolve",
                tier_reason="warm-started on previous stage ordering",
            )
        # Previous ordering cannot serve the new workload: cold re-plan.
        sp.set(path="cold")
        result = planner.plan(workload)
        if result is None:
            raise InfeasibleError(
                "no feasible plan for the new workload on this cluster"
            )
        return result
