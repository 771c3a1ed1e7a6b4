"""The scalable DP planning tier (ROADMAP item 2, ``tier="dp"``).

The exact tier enumerates GPU-group *permutations* and solves a MILP (or
hill climb) per candidate — fine for the paper's <= 10-GPU clusters,
hopeless for fleet-scale instances.  This module plans the same joint
partition / quantization / micro-batch problem in polynomial time:

1. **Orderings without permutations** —
   :func:`~repro.core.enumeration.scalable_orderings` builds a handful of
   heuristically sorted stage-group sequences in ``O(D log D)``.  Small
   instances keep the exact tier's :func:`candidate_orderings` so the two
   tiers search the same space (and agree bit-for-bit where the
   assignment is forced).
2. **Flow-style depth relaxation** — for each ordering the pipeline
   depth (how many leading groups become stages) is ranked by a
   fractional water-filling relaxation of the analytic latency formula
   (:func:`flow_relaxed_span`): layer mass splits across stages in
   proportion to their rates, memory and integrality dropped.  Only the
   best few depths are solved, Helix-style.
3. **Segment DP** — stages are contiguous layer ranges, so the min-bits
   partition is a classic min-max contiguous-partition DP over layer
   groups (``O(stages * groups^2)``), memory-checked per stage.
4. **Bit upgrades + polish** — per-stage greedy bit upgrades by quality
   gain (:func:`~repro.core.heuristic.upgrade_bits`, the loop
   :func:`greedy_adabits` runs) meet the quality budget, then a capped
   :func:`bitwidth_transfer` hill climb polishes partition boundaries
   and bitwidths against the true objective.

No MILP solve happens anywhere on this path.  Every solved candidate also
gets the admissible :func:`~repro.core.search.analytic_lower_bound`
(MCKP + structural bounds), and the reported
:attr:`DPOutcome.gap_bound` — best DP score over the best lower bound —
certifies the optimality gap over the enumerated candidate set.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Tuple

import numpy as np

from ..costmodel.latency import LatencyCostModel
from ..hardware.cluster import ClusterSpec
from ..models import layers as _L
from ..models.architectures import ModelSpec
from ..pipeline.stage import TimingSource
from ..workloads.spec import BatchWorkload
from .config import PlannerConfig
from .costs import PlanningProblem, StageGroup, group_layers
from .enumeration import (
    candidate_orderings,
    microbatch_candidates,
    scalable_orderings,
)
from .heuristic import bitwidth_transfer, upgrade_bits
from .ilp import ILPSolution
from .search import (
    CandidateStat,
    SearchStats,
    analytic_lower_bound,
    enumerate_candidates,
    rank_candidates,
)

__all__ = [
    "AUTO_EXACT_MAX_DEVICES",
    "DPOutcome",
    "dp_search",
    "flow_relaxed_span",
    "segment_partition",
]

#: Largest cluster (device count) the ``"auto"`` tier still plans exactly;
#: it also picks the exact tier's ordering enumeration for the DP tier.
AUTO_EXACT_MAX_DEVICES = 8
#: Stage-count prefixes the DP tier tries per ordering (ranked by the
#: flow relaxation).
DP_PREFIX_CANDIDATES = 3
#: Hill-climb polish iterations after the segment DP.
DP_POLISH_ITERS = 40


@dataclass(frozen=True)
class DPOutcome:
    """What the DP tier hands back to the planner's shared tail."""

    #: Candidates ranked by score, same tuple shape as the exact search.
    ranked: List[tuple]
    stats: Tuple[CandidateStat, ...]
    search: SearchStats
    #: ``best_score / best_lower_bound`` over the enumerated candidates
    #: (>= 1); ``None`` when nothing was solved or the bound degenerates.
    gap_bound: Optional[float]


def flow_relaxed_span(
    u_pre: np.ndarray,
    u_dec: np.ndarray,
    comm_pre: np.ndarray,
    comm_dec: np.ndarray,
    num_layers: int,
    prefill_jobs: int,
    mu_dec: int,
    output_len: int,
) -> float:
    """Fractional (flow-style) relaxation of the analytic pipeline span.

    Layer mass splits continuously across stages so every stage's compute
    time equalizes at ``L / sum(1/u_j)`` (water-filling on rates) —
    memory, integrality and per-stage constants dropped.  Mirrors
    :meth:`PlanningProblem.latency_estimate` on that relaxed assignment,
    so it ranks pipeline depths (more stages cut the bottleneck, more
    boundaries add communication) in real seconds.
    """
    inv_pre = float(np.sum(1.0 / np.maximum(u_pre, 1e-12)))
    inv_dec = float(np.sum(1.0 / np.maximum(u_dec, 1e-12)))
    b_pre = num_layers / inv_pre
    b_dec = num_layers / inv_dec
    n_stages = len(u_pre)
    comm_pre_max = float(comm_pre.max()) if comm_pre.size else 0.0
    comm_dec_max = float(comm_dec.max()) if comm_dec.size else 0.0
    prefill_span = n_stages * b_pre + float(comm_pre.sum()) + (
        prefill_jobs - 1
    ) * max(b_pre, comm_pre_max)
    round_trip = n_stages * b_dec + float(comm_dec.sum())
    decode_span = (output_len - 1) * max(
        mu_dec * max(b_dec, comm_dec_max), round_trip
    )
    return prefill_span + decode_span


def _prefix_depths(
    ordering: Tuple[StageGroup, ...],
    timing: TimingSource,
    cluster: ClusterSpec,
    spec: ModelSpec,
    workload: BatchWorkload,
    config: PlannerConfig,
) -> List[int]:
    """Pipeline depths worth solving, ranked by the flow relaxation.

    Depths shallower than the min-bits capacity floor are skipped; the
    survivors are scored with :func:`flow_relaxed_span` and the best
    :data:`DP_PREFIX_CANDIDATES` (always including the deepest: every
    stage group, at most one per layer group) are solved exactly by the
    segment DP.
    """
    max_depth = min(
        len(ordering), len(group_layers(spec.num_layers, config.group_size))
    )
    min_bits = min(config.bit_choices)
    per_layer = _L.weight_storage_bytes(spec, min_bits)
    need = spec.num_layers * per_layer
    chunk = workload.chunk_len
    avg_ctx = workload.prompt_len + workload.output_len // 2
    mbs = microbatch_candidates(workload.batch, config.microbatch_candidates)
    eta = xi = mbs[-1]
    mu_dec = -(-workload.batch // xi)
    prefill_jobs = -(-workload.batch // eta) * workload.kappa

    by_id = {d.device_id: d for d in cluster.devices}
    u_pre = np.array(
        [
            timing.prefill(sg.gpu, min_bits, eta, chunk, sg.tp_degree)
            for sg in ordering[:max_depth]
        ]
    )
    u_dec = np.array(
        [
            timing.decode(sg.gpu, min_bits, xi, avg_ctx, sg.tp_degree)
            for sg in ordering[:max_depth]
        ]
    )
    pre_bytes = _L.hidden_state_bytes(spec, eta, chunk)
    dec_bytes = _L.hidden_state_bytes(spec, xi, 1)
    comm_pre = np.zeros(max(max_depth - 1, 0))
    comm_dec = np.zeros(max(max_depth - 1, 0))
    for j in range(max_depth - 1):
        link = cluster.link_between(
            by_id[ordering[j].device_ids[0]],
            by_id[ordering[j + 1].device_ids[0]],
        )
        comm_pre[j] = link.transfer_time(pre_bytes)
        comm_dec[j] = link.transfer_time(dec_bytes)

    capacity = 0.0
    scored: List[Tuple[float, int]] = []
    for n in range(1, max_depth + 1):
        capacity += ordering[n - 1].capacity_bytes
        if capacity < need:
            continue
        span = flow_relaxed_span(
            u_pre[:n],
            u_dec[:n],
            comm_pre[: n - 1],
            comm_dec[: n - 1],
            spec.num_layers,
            prefill_jobs,
            mu_dec,
            workload.output_len,
        )
        scored.append((span, n))
    scored.sort()
    depths = {n for _, n in scored[:DP_PREFIX_CANDIDATES]}
    depths.add(max_depth)  # the full prefix is always a candidate
    return sorted(depths)


def segment_partition(
    problem: PlanningProblem,
) -> Optional[List[int]]:
    """Min-max contiguous partition of the layer groups at min bits.

    ``dp[j][g]`` is the best achievable bottleneck stage load placing the
    first ``g`` layer groups on the first ``j + 1`` stages (every stage
    non-empty, per-stage min-bits memory respected).  The load proxy
    weighs prefill and decode stage times by how often the pipeline
    replays them — the hill-climb polish then optimizes the true
    objective.  Returns the per-group stage assignment or ``None`` when
    no memory-feasible partition exists.
    """
    G, N = problem.n_groups, problem.n_stages
    if G < N:
        return None
    w_pre = float(problem.prefill_jobs)
    w_dec = float(max(problem.workload.output_len - 1, 1) * problem.mu_dec)
    # Prefix sums over layer groups of min-bits stage time / memory.
    pre_cs = np.zeros((N, G + 1))
    dec_cs = np.zeros((N, G + 1))
    for j in range(N):
        pre_cs[j, 1:] = np.cumsum(problem.l_pre[:, j, 0])
        dec_cs[j, 1:] = np.cumsum(problem.l_dec[:, j, 0])
    mem_cs = np.concatenate([[0.0], np.cumsum(problem.mem[:, 0])])

    def load(a: int, b: int, j: int) -> float:
        t_pre = problem.const_pre[j] + pre_cs[j, b] - pre_cs[j, a]
        t_dec = problem.const_dec[j] + dec_cs[j, b] - dec_cs[j, a]
        return w_pre * t_pre + w_dec * t_dec

    def fits(a: int, b: int, j: int) -> bool:
        return mem_cs[b] - mem_cs[a] <= problem.capacity[j] + 1e-6

    INF = float("inf")
    dp = np.full((N, G + 1), INF)
    parent = np.zeros((N, G + 1), dtype=int)
    for g in range(1, G - N + 2):
        if fits(0, g, 0):
            dp[0, g] = load(0, g, 0)
    for j in range(1, N):
        # First g leaves room for one group per remaining stage.
        for g in range(j + 1, G - (N - 1 - j) + 1):
            best, arg = INF, -1
            for a in range(j, g):
                if dp[j - 1, a] >= INF or not fits(a, g, j):
                    continue
                val = max(dp[j - 1, a], load(a, g, j))
                if val < best:
                    best, arg = val, a
            dp[j, g] = best
            parent[j, g] = arg
    if not np.isfinite(dp[N - 1, G]):
        return None
    stage = [0] * G
    g = G
    for j in range(N - 1, 0, -1):
        a = int(parent[j, g])
        for i in range(a, g):
            stage[i] = j
        g = a
    return stage


def solve_segment_dp(
    problem: PlanningProblem,
    theta: float,
    quality_budget: Optional[float],
    config: PlannerConfig,
) -> Optional[ILPSolution]:
    """One DP-tier solve: partition DP + bit upgrades + hill-climb polish."""
    stage = segment_partition(problem)
    if stage is None:
        return None
    kidx = upgrade_bits(problem, stage, problem.capacity)
    if quality_budget is not None and float(
        sum(problem.omega[g, k] for g, k in enumerate(kidx))
    ) > quality_budget + 1e-12:
        return None
    bits = tuple(problem.bit_choices[k] for k in kidx)
    latency = problem.latency_estimate(stage, bits)
    quality = problem.quality_sum(bits)
    sol = ILPSolution(
        assign_stage=tuple(stage),
        assign_bits=bits,
        objective=latency + theta * quality,
        latency_s=latency,
        quality=quality,
        solve_time_s=0.0,
        status="dp",
    )
    polished = bitwidth_transfer(
        problem,
        theta=theta,
        quality_budget=quality_budget,
        time_limit_s=config.time_limit_s,
        max_iters=DP_POLISH_ITERS,
        start=sol,
    )
    if polished is not None:
        sol = replace(polished, status="dp")
    return sol


def dp_search(
    spec: ModelSpec,
    cluster: ClusterSpec,
    config: PlannerConfig,
    omega_layers: np.ndarray,
    cost_model_for_kv: Callable[[int], LatencyCostModel],
    workload: BatchWorkload,
) -> DPOutcome:
    """Run the DP tier over the pruned candidate grid.

    Enumerates (KV bits, ordering, pipeline depth, eta, xi) exactly like
    the exact tier's outer loops — same loop order, so equal-score ties
    resolve identically — but solves each candidate with the polynomial
    segment DP instead of a MILP.  Small clusters reuse the exact tier's
    ordering enumeration (full depth only), so where the assignment is
    forced the two tiers return bit-identical plans.
    """
    t0 = time.perf_counter()
    cfg = config
    theta = 0.0 if cfg.quality_budget is not None else cfg.theta
    small = len(cluster.devices) <= AUTO_EXACT_MAX_DEVICES
    orderings = (candidate_orderings if small else scalable_orderings)(
        cluster, enable_tp=cfg.enable_tp, max_orderings=cfg.max_orderings
    )
    # Small clusters mirror the exact tier's search space: every ordering
    # uses all of its stage groups.
    candidates, _ = enumerate_candidates(
        spec,
        cluster,
        cfg,
        omega_layers,
        cost_model_for_kv,
        workload,
        orderings,
        depths=None if small else (
            lambda ordering, timing: _prefix_depths(
                ordering, timing, cluster, spec, workload, cfg
            )
        ),
    )
    infeasible = 0
    bound_time = 0.0
    cum_solve = 0.0
    best_lb = float("inf")
    tightness: List[float] = []
    for cand in candidates:
        ts = time.perf_counter()
        sol = solve_segment_dp(cand.problem, theta, cfg.quality_budget, cfg)
        cum_solve += time.perf_counter() - ts
        cand.record(sol, cfg)
        if sol is None:
            infeasible += 1
            continue
        tb = time.perf_counter()
        lb = analytic_lower_bound(cand.problem, theta, cfg.quality_budget)
        bound_time += time.perf_counter() - tb
        best_lb = min(best_lb, lb)
        if cand.score > 0:
            tightness.append(min(lb / cand.score, 1.0))

    ranked = [c.entry() for c in rank_candidates(candidates)]
    gap_bound: Optional[float] = None
    if ranked and np.isfinite(best_lb) and best_lb > 0:
        gap_bound = float(ranked[0][0] / best_lb)
    search = SearchStats(
        enumerated=len(candidates),
        solved=len(candidates),
        pruned=0,
        infeasible=infeasible,
        cache_hits=0,
        cache_misses=0,
        lp_bounds=0,
        warm_starts=0,
        mean_bound_tightness=(
            float(np.mean(tightness)) if tightness else 0.0
        ),
        wall_time_s=time.perf_counter() - t0,
        cum_solve_time_s=cum_solve,
        bound_time_s=bound_time,
    )
    return DPOutcome(
        ranked=ranked,
        stats=tuple(c.stat() for c in candidates),
        search=search,
        gap_bound=gap_bound,
    )
