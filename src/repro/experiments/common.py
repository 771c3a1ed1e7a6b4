"""Shared helpers for the end-to-end serving experiments."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Tuple

from ..api import Session
from ..baselines import (
    BaselineResult,
    plan_het_baseline,
    plan_uniform_baseline,
)
from ..costmodel.latency import LatencyCostModel
from ..core import PlannerConfig
from ..hardware.cluster import ClusterSpec
from ..models.architectures import ModelSpec, get_model
from ..models import layers as L
from ..plan import ExecutionPlan
from ..quant.sensitivity import normalized_indicator_table
from ..simgpu.memory import OutOfMemoryError
from ..workloads.spec import BatchWorkload

BITS = (3, 4, 8, 16)


@lru_cache(maxsize=64)
def _cost_model_cached(model_name: str, gpu_names: Tuple[str, ...]) -> LatencyCostModel:
    """Fit one cost model, memoized within the process."""
    from ..hardware.gpus import get_gpu

    cm = LatencyCostModel(get_model(model_name))
    return cm.fit([get_gpu(n) for n in gpu_names], BITS)


def cost_model_for(spec: ModelSpec, cluster: ClusterSpec) -> LatencyCostModel:
    """Fitted latency cost model for (model, cluster), cached per session."""
    gpus = tuple(sorted({d.gpu.name for d in cluster.devices}))
    return _cost_model_cached(spec.name, gpus)


def throughput_of(
    plan: Optional[ExecutionPlan],
    cluster: ClusterSpec,
    spec: ModelSpec,
    workload: BatchWorkload,
) -> float:
    """Simulated tokens/s of a plan; 0.0 encodes OOM/infeasible (Fig. 10)."""
    if plan is None:
        return 0.0
    try:
        sim = Session(spec, cluster).simulate(plan=plan, workload=workload)
        return sim.throughput_tokens_s
    except OutOfMemoryError:
        return 0.0


def feasible_batch(
    spec: ModelSpec,
    cluster: ClusterSpec,
    prompt_len: int,
    output_len: int,
    max_batch: int = 256,
    kv_fraction: float = 0.4,
) -> int:
    """Largest power-of-two batch whose FP16 KV fits in a memory fraction.

    Long-context workloads (LooGLE) cannot keep 256 requests resident;
    engines admit what the KV budget allows.  Mirrors vLLM's admission
    behavior so experiments stay comparable across policies.
    """
    budget = cluster.usable_memory_bytes() * kv_fraction
    per_req = spec.num_layers * L.kv_cache_bytes(spec, 1, prompt_len + output_len)
    b = 1
    while b * 2 <= max_batch and (b * 2) * per_req <= budget:
        b *= 2
    return b


def microbatch_grid(batch: int) -> Tuple[int, ...]:
    """SplitQuant's pruned micro-batch candidate set: {B/4, B/2, B}."""
    return tuple(sorted({max(batch // 4, 1), max(batch // 2, 1), batch}))


def best_uniform(
    spec: ModelSpec,
    cluster: ClusterSpec,
    workload: BatchWorkload,
    stage_groups=None,
) -> Tuple[Optional[BaselineResult], float]:
    """Uniform baseline at framework-default micro-batching."""
    res = plan_uniform_baseline(
        spec, cluster, workload, BITS, stage_groups=stage_groups
    )
    if res is None:
        return None, 0.0
    return res, throughput_of(res.plan, cluster, spec, workload)


def best_het(
    spec: ModelSpec,
    cluster: ClusterSpec,
    workload: BatchWorkload,
    cost_model: LatencyCostModel,
) -> Tuple[Optional[BaselineResult], float]:
    """Het baseline (best ordering) at framework-default micro-batching."""
    res = plan_het_baseline(spec, cluster, workload, cost_model, BITS)
    if res is None:
        return None, 0.0
    return res, throughput_of(res.plan, cluster, spec, workload)


@dataclass(frozen=True)
class ServingComparison:
    """Throughputs of the three policies on one configuration."""

    uniform_tput: float
    het_tput: float
    splitquant_tput: float
    uniform_bits: Optional[int]
    het_bits: Optional[int]
    plan: Optional[ExecutionPlan]

    @property
    def speedup_vs_uniform(self) -> float:
        if self.uniform_tput <= 0:
            return float("inf") if self.splitquant_tput > 0 else 0.0
        return self.splitquant_tput / self.uniform_tput

    @property
    def speedup_vs_het(self) -> float:
        if self.het_tput <= 0:
            return float("inf") if self.splitquant_tput > 0 else 0.0
        return self.splitquant_tput / self.het_tput


def compare_policies(
    spec: ModelSpec,
    cluster: ClusterSpec,
    workload: BatchWorkload,
    planner_config: Optional[PlannerConfig] = None,
    quality_match_uniform: bool = True,
) -> ServingComparison:
    """Run Uniform / Het / SplitQuant on one configuration (Fig. 9/10).

    With ``quality_match_uniform`` the SplitQuant plan is constrained to at
    least the Uniform baseline's quality (Sec. VI-C); when Uniform OOMs the
    budget falls back to uniform-minimum-bits quality.
    """
    cm = cost_model_for(spec, cluster)
    uni, uni_tput = best_uniform(spec, cluster, workload)
    het, het_tput = best_het(spec, cluster, workload, cm)

    cfg = planner_config or PlannerConfig(
        group_size=max(spec.num_layers // 16, 1),
        max_orderings=6,
        microbatch_candidates=microbatch_grid(workload.batch),
        time_limit_s=20.0,
    )
    # Derive the quality budget *before* building the planner: constructing
    # twice re-derives the indicator table (and would refit any lazily
    # built cost models) for nothing.
    omega = normalized_indicator_table(spec, cfg.bit_choices)
    if quality_match_uniform:
        ref_bits = uni.bits if uni is not None else min(BITS)
        k = list(cfg.bit_choices).index(ref_bits)
        budget = float(omega[:, k].sum())
        cfg = dataclasses.replace(cfg, quality_budget=budget)
    session = Session(
        spec, cluster, cfg, cost_model=cm, omega_layers=omega
    )
    result = session.plan(workload)

    return ServingComparison(
        uniform_tput=uni_tput,
        het_tput=het_tput,
        splitquant_tput=throughput_of(
            result.plan if result else None, cluster, spec, workload
        ),
        uniform_bits=uni.bits if uni else None,
        het_bits=het.bits if het else None,
        plan=result.plan if result else None,
    )
