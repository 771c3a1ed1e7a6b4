"""SplitQuantPlanner: the offline assigner (Fig. 6, step 2).

Ties the whole pipeline together: fit cost models from calibration
payloads, build the variance-indicator table, enumerate pruned device
topologies and (prefill, decode) micro-batch pairs, solve the joint
partition/bitwidth problem for each candidate (exact ILP or the
bitwidth-transfer heuristic), and emit the best
:class:`~repro.plan.ExecutionPlan`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..costmodel.latency import LatencyCostModel
from ..costmodel.memory import layer_memory_bytes, stage_overhead_bytes
from ..hardware.cluster import ClusterSpec
from ..models.architectures import ModelSpec
from ..obs import trace
from ..plan import ExecutionPlan, InfeasibleError, StagePlan, degrade_plan
from ..quant.sensitivity import normalized_indicator_table
from ..workloads.spec import BatchWorkload
from .config import PlannerConfig
from .costs import PlanningProblem, StageGroup
from .dp import AUTO_EXACT_MAX_DEVICES, dp_search
from .heuristic import bitwidth_transfer
from .ilp import ILPSolution, solve_partition_ilp
from .search import (
    _PRUNE_REL_SLACK,
    CandidateSearchEngine,
    CandidateStat,
    SearchStats,
    analytic_lower_bound,
    candidate_score,
)

#: How deep into the ranked candidate frontier the objective re-rank
#: looks (at least ``config.verify_top_k``): every scored candidate gets
#: a full energy/cost-stamped simulation, so this bounds the sweep.
OBJECTIVE_FRONTIER_K = 16

__all__ = [
    "CandidateStat",
    "OBJECTIVE_FRONTIER_K",
    "PlannerResult",
    "SplitQuantPlanner",
    "solution_to_plan",
]


def _check_objective(objective: str, budget: Optional[float]) -> None:
    """Reject an unknown objective, or a budget that is not a positive
    number or that comes without an energy or cost objective."""
    if objective not in ("throughput", "energy", "cost"):
        raise ValueError(
            f"unknown objective {objective!r} "
            "(expected 'throughput', 'energy' or 'cost')"
        )
    if budget is None:
        return
    if not budget > 0:  # also NaN
        raise ValueError(f"budget must be positive, got {budget!r}")
    if objective == "throughput":
        raise ValueError(
            "budget requires objective='energy' or objective='cost'"
        )


def _reduced_cluster(
    cluster: ClusterSpec, surviving_device_ids: Sequence[int]
) -> ClusterSpec:
    """The cluster restricted to the surviving devices.

    The degrade-and-replan path plans against this after GPU failures.
    Raises :class:`InfeasibleError` when nothing survives.
    """
    surviving = set(surviving_device_ids)
    devices = tuple(d for d in cluster.devices if d.device_id in surviving)
    if not devices:
        raise InfeasibleError(
            f"cluster {cluster.name!r}: no surviving devices"
        )
    return ClusterSpec(
        name=f"{cluster.name}-degraded",
        devices=devices,
        cross_node_link=cluster.cross_node_link,
    )


def degrade_execution_plan_internal(
    plan: ExecutionPlan,
    surviving_device_ids: Sequence[int],
    cluster: ClusterSpec,
    spec: ModelSpec,
    workload: BatchWorkload,
) -> ExecutionPlan:
    """Re-partition a plan over the surviving devices, memory-checked.

    Keeps the per-layer bitwidths fixed (the quantized weights already
    exist; re-quantization is offline work) and re-partitions under the
    paper's memory cost model: per-layer cost is weights + KV reservation
    at the plan's ``bit_kv``, and each group's capacity is its usable
    HBM minus the activation workspace and (for the first/last group) the
    embedding / LM-head residency — matching
    :func:`repro.pipeline.simulator.check_plan_memory`, which the result
    is validated against.  Raises :class:`InfeasibleError` when no
    memory-respecting contiguous partition exists.
    """
    with trace.span(
        "planner.degrade",
        survivors=len(tuple(surviving_device_ids)),
        stages=len(plan.stages),
    ):
        return _degrade_execution_plan(
            plan, surviving_device_ids, cluster, spec, workload
        )


def _degrade_execution_plan(
    plan: ExecutionPlan,
    surviving_device_ids: Sequence[int],
    cluster: ClusterSpec,
    spec: ModelSpec,
    workload: BatchWorkload,
) -> ExecutionPlan:
    from ..pipeline.simulator import check_plan_memory
    from ..simgpu.memory import OutOfMemoryError

    by_id = {d.device_id: d for d in cluster.devices}
    surviving = [d for d in surviving_device_ids if d in by_id]
    groups = [
        st
        for st in plan.stages
        if all(d in surviving for d in st.device_ids)
    ]
    if not groups:
        raise InfeasibleError(
            f"no surviving stage groups (survivors={sorted(surviving)})"
        )
    chunk = min(workload.chunk_len, workload.context_len)
    capacity: Dict[int, int] = {}
    for g_idx, g in enumerate(groups):
        group_cap = sum(
            by_id[d].gpu.usable_mem_bytes for d in g.device_ids
        ) - stage_overhead_bytes(
            spec, g_idx, len(groups), plan.prefill_microbatch, chunk
        )
        # Spread the group's effective capacity over its devices so
        # degrade_plan's per-group sums reproduce it.
        per_dev, rem = divmod(max(group_cap, 0), len(g.device_ids))
        for k, d in enumerate(g.device_ids):
            capacity[d] = per_dev + (rem if k == 0 else 0)
    new_plan = degrade_plan(
        plan,
        surviving,
        capacity_bytes=capacity,
        layer_cost=lambda i, b: layer_memory_bytes(
            spec, b, workload.batch, workload.context_len, plan.bit_kv
        ),
    )
    try:
        check_plan_memory(new_plan, cluster, spec, workload)
    except OutOfMemoryError as exc:
        raise InfeasibleError(
            f"degraded plan fails the memory model: {exc}"
        ) from exc
    return new_plan


@dataclass(frozen=True)
class PlannerResult:
    """The assigner's output.

    Implements the :class:`repro.api.Summary` protocol —
    :meth:`to_dict` and :attr:`throughput_tokens_s` are uniform across
    planner, simulator and runtime results.
    """

    plan: ExecutionPlan
    predicted_latency_s: float
    predicted_quality: float
    #: Predicted output-token throughput (the paper's headline metric).
    throughput_tokens_s: float
    solve_time_s: float
    candidates_tried: int
    stats: Tuple[CandidateStat, ...]
    #: Search-engine counters (``None`` on results the incremental
    #: re-plan builds without a search).
    search: Optional[SearchStats] = None
    #: Provenance: which planning tier produced this result ("exact",
    #: "dp", "incremental-repair", "incremental-resolve", ...) and why,
    #: like the simulator's ``sim_backend`` provenance.
    tier: str = field(default="exact", compare=False)
    tier_reason: str = field(default="", compare=False)
    #: DP tier only: certified score / lower-bound ratio (>= 1) over the
    #: enumerated candidate set; ``None`` on the exact tier.
    gap_bound: Optional[float] = field(default=None, compare=False)
    #: The workload this result planned (incremental re-solve warm-starts
    #: from it); ``None`` on results restored from older caches.
    workload: Optional[BatchWorkload] = field(default=None, compare=False)
    #: Provenance: the objective this plan optimized (``"throughput"``,
    #: ``"energy"`` or ``"cost"``) and its optional budget ceiling
    #: (J/token under ``"energy"``, $/Mtoken under ``"cost"``).
    objective: str = field(default="throughput", compare=False)
    budget: Optional[float] = field(default=None, compare=False)
    #: Joules / dollars the chosen plan is predicted to draw on the
    #: planning workload (from the objective re-rank's simulation sweep);
    #: ``None`` on the default throughput path, which skips that sweep.
    predicted_energy_j: Optional[float] = field(default=None, compare=False)
    predicted_cost_usd: Optional[float] = field(default=None, compare=False)

    @property
    def duration_s(self) -> float:
        """Planning wall-clock (the Summary-protocol duration)."""
        return self.solve_time_s

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe dict via :func:`repro.serialization.to_dict`."""
        from ..serialization import to_dict

        return to_dict(self)


def solution_to_plan(
    spec: ModelSpec,
    ordering: Sequence[StageGroup],
    group_sizes: Sequence[int],
    solution: ILPSolution,
    eta: int,
    xi: int,
    bit_kv: int,
) -> ExecutionPlan:
    """Expand a grouped ILP solution into a concrete execution plan."""
    layer_bits: List[int] = []
    layer_stage: List[int] = []
    for g, size in enumerate(group_sizes):
        layer_bits.extend([solution.assign_bits[g]] * size)
        layer_stage.extend([solution.assign_stage[g]] * size)
    stages: List[StagePlan] = []
    start = 0
    for j, sg in enumerate(ordering):
        bits = tuple(
            b for b, s in zip(layer_bits, layer_stage) if s == j
        )
        if not bits:
            raise ValueError(f"stage {j} received no layers")
        stages.append(
            StagePlan(
                device_ids=sg.device_ids,
                gpu_name=sg.gpu.name,
                layer_start=start,
                layer_bits=bits,
            )
        )
        start += len(bits)
    return ExecutionPlan(
        model_name=spec.name,
        stages=tuple(stages),
        prefill_microbatch=eta,
        decode_microbatch=xi,
        bit_kv=bit_kv,
    )


class SplitQuantPlanner:
    """Joint optimizer of quantization, partition and micro-batching."""

    def __init__(
        self,
        spec: ModelSpec,
        cluster: ClusterSpec,
        config: PlannerConfig = PlannerConfig(),
        cost_model: Optional[LatencyCostModel] = None,
        omega_layers: Optional[np.ndarray] = None,
    ) -> None:
        self.spec = spec
        self.cluster = cluster
        self.config = config
        if cost_model is None:
            cost_model = LatencyCostModel(spec, bit_kv=config.bit_kv)
            gpus = {d.gpu.name: d.gpu for d in cluster.devices}
            cost_model.fit(gpus.values(), config.bit_choices)
        self.cost_model = cost_model
        if omega_layers is None:
            omega_layers = normalized_indicator_table(spec, config.bit_choices)
        if omega_layers.shape != (spec.num_layers, len(config.bit_choices)):
            raise ValueError(
                "omega_layers must be (num_layers x len(bit_choices))"
            )
        self.omega_layers = omega_layers
        self._kv_cost_models = {config.bit_kv: self.cost_model}

    def cost_model_for_kv(self, bit_kv: int) -> LatencyCostModel:
        """Cost model fitted at the given KV-cache bitwidth (lazy)."""
        if bit_kv not in self._kv_cost_models:
            cm = LatencyCostModel(self.spec, bit_kv=bit_kv)
            gpus = {d.gpu.name: d.gpu for d in self.cluster.devices}
            cm.fit(gpus.values(), self.config.bit_choices)
            self._kv_cost_models[bit_kv] = cm
        return self._kv_cost_models[bit_kv]

    def uniform_quality(self, bits: int) -> float:
        """Summed indicator of uniform quantization at ``bits``.

        The Sec. VI-C quality budget: SplitQuant plans are constrained to
        at most the Uniform baseline's indicator sum.
        """
        k = list(self.config.bit_choices).index(bits)
        return float(self.omega_layers[:, k].sum())

    def _solve_one(
        self,
        problem: PlanningProblem,
        warm_start: Optional[ILPSolution] = None,
    ) -> Optional[ILPSolution]:
        cfg = self.config
        # In hard-budget mode (Sec. VI-C) quality is a constraint, not an
        # objective term — theta would otherwise bias the solve away from
        # the latency optimum the budget already safeguards.
        theta = 0.0 if cfg.quality_budget is not None else cfg.theta
        if cfg.use_heuristic:
            return bitwidth_transfer(
                problem,
                theta=theta,
                quality_budget=cfg.quality_budget,
                time_limit_s=cfg.time_limit_s,
                start=warm_start,
            )
        return solve_partition_ilp(
            problem,
            theta=theta,
            quality_budget=cfg.quality_budget,
            time_limit_s=cfg.time_limit_s,
        )

    def _simulate_frontier(
        self, top, workload: BatchWorkload
    ) -> List[Tuple[Any, Any]]:
        """Expand ranked candidates to plans and simulate them, batched.

        Timing comes from the fitted cost model (never the testbed
        truth).  Candidates that do not expand are skipped; the rest are
        scored in one :func:`~repro.pipeline.batchsim.evaluate_plans`
        sweep (bit-identical to per-plan simulation), which also stamps
        joules and dollars on each result.  Returns
        ``[(candidate, result)]``, empty when no candidate expands.
        """
        from ..pipeline.batchsim import PlanCase, evaluate_plans
        from ..pipeline.stage import CostModelTiming

        cases = []
        for cand in top:
            _, sol, ordering, group_sizes, eta, xi, bit_kv = cand
            try:
                plan = solution_to_plan(
                    self.spec, ordering, group_sizes, sol, eta, xi, bit_kv
                )
            except (ValueError, RuntimeError):
                continue
            timing = CostModelTiming(
                cost_model=self.cost_model_for_kv(bit_kv), spec=self.spec
            )
            cases.append(
                (cand, PlanCase(plan, self.cluster, self.spec, workload, timing))
            )
        results = evaluate_plans([pc for _, pc in cases])
        return [(c, r) for (c, _), r in zip(cases, results)]

    def _verify_candidates(
        self, top, workload: BatchWorkload
    ) -> Tuple[Any, int, int]:
        """Dry-run the leading candidates through the simulator.

        A pure refinement of the analytic pipeline formula: it captures
        bubble/feedback effects the closed form approximates.  The
        frontier is scored by :meth:`_simulate_frontier` and the best
        objective-(4) score wins, ties keeping the ranking's order.
        Returns ``(winner, plans_scored, batches)``; ``batches`` is 1
        when the batched sweep ran and 0 when no candidate expanded.
        """
        with trace.span("planner.verify", k=len(top)):
            scored = self._simulate_frontier(top, workload)
            winner, best_score = top[0], float("inf")
            for cand, res in scored:
                score = candidate_score(
                    res.makespan_s, cand[1].quality, self.config
                )
                if score < best_score:
                    winner, best_score = cand, score
            return winner, len(scored), int(bool(scored))

    def resolve_tier(self, tier: str) -> Tuple[str, str]:
        """Resolve a requested tier to a concrete one, with a reason.

        ``"auto"`` routes by instance size: the exact tier up to
        :data:`~repro.core.dp.AUTO_EXACT_MAX_DEVICES` devices, the
        scalable DP tier beyond.
        """
        if tier not in ("auto", "exact", "dp"):
            raise ValueError(
                f"unknown planner tier {tier!r} "
                "(expected 'auto', 'exact' or 'dp')"
            )
        if tier != "auto":
            return tier, "requested"
        n = len(self.cluster.devices)
        limit = AUTO_EXACT_MAX_DEVICES
        if n <= limit:
            return "exact", f"auto: {n} devices <= {limit}"
        return "dp", f"auto: {n} devices > {limit}"

    def _engine(self) -> CandidateSearchEngine:
        return CandidateSearchEngine(
            self.spec,
            self.cluster,
            self.config,
            self.omega_layers,
            self.cost_model_for_kv,
            self._solve_one,
        )

    def latency_floor(self, workload: BatchWorkload) -> float:
        """An admissible floor on ``plan(workload).predicted_latency_s``.

        The least :func:`~repro.core.search.analytic_lower_bound` (at
        ``theta=0``, under the config's quality budget) over the grid the
        exact tier searches, less the search's relative pruning slack: a
        bound can meet a plan's latency exactly and land an ulp above it.
        Every result's predicted latency is the analytic latency of one
        feasible candidate assignment, so no plan comes in below it.
        ``inf`` when every candidate's bound is ``inf``: the search then
        prunes them all and :meth:`plan` returns ``None``.  ``0.0`` (no
        information) when ``"auto"`` routes to the DP tier.  The fleet
        allocator plans groups best-first under it.
        """
        if self.resolve_tier("auto")[0] == "dp":
            return 0.0
        candidates, _ = self._engine().candidates(workload)
        budget = self.config.quality_budget
        bound = min(
            (analytic_lower_bound(c.problem, 0.0, budget) for c in candidates),
            default=float("inf"),
        )
        return bound * (1.0 - _PRUNE_REL_SLACK)

    def plan(
        self,
        workload: BatchWorkload,
        *,
        tier: str = "auto",
        objective: str = "throughput",
        budget: Optional[float] = None,
    ) -> Optional[PlannerResult]:
        """Plan serving of ``workload``; ``None`` when nothing fits.

        ``tier="exact"`` routes through the
        :class:`~repro.core.search.CandidateSearchEngine` (memoized
        costs, admissible bound pruning; bit-identical to the exhaustive
        oracle in ``tests/planner_oracle.py``), ``"dp"`` through the scalable segment-DP planner
        (:mod:`repro.core.dp`), ``"auto"`` picks by instance size.
        :attr:`PlannerResult.tier` records the resolved tier.

        ``objective`` is ``"throughput"``, ``"energy"`` or ``"cost"``;
        ``budget`` is an optional positive ceiling for the latter two
        (J/token, resp. $/Mtoken).  Both are checked before any search
        runs (``ValueError``).  ``"energy"`` and ``"cost"``
        re-rank the ranked candidate frontier through the energy model
        (:mod:`repro.costmodel.energy`): with no budget they minimize
        J/token (resp. $/Mtoken); with a budget they maximize throughput
        subject to that ceiling, raising :class:`InfeasibleError` when
        no candidate fits under it.  The default ``"throughput"``
        objective with no budget leaves the search untouched — the
        chosen plan is bit-identical to pre-energy planning.
        """
        _check_objective(objective, budget)
        resolved, reason = self.resolve_tier(tier)
        dp = resolved == "dp"
        t0 = time.perf_counter()
        with trace.span(
            "planner.plan_dp" if dp else "planner.plan",
            model=self.spec.name,
            cluster=self.cluster.name,
            batch=workload.batch,
            output_len=workload.output_len,
        ) as sp:
            gap_bound = None
            if dp:
                # The scalable tier: segment DP + flow relaxation, no MILP.
                outcome = dp_search(
                    self.spec,
                    self.cluster,
                    self.config,
                    self.omega_layers,
                    self.cost_model_for_kv,
                    workload,
                )
                gap_bound = outcome.gap_bound
            else:
                # An energy/cost re-rank reads the whole leading frontier.
                top_k = self.config.verify_top_k
                if objective != "throughput":
                    top_k = max(top_k, OBJECTIVE_FRONTIER_K)
                outcome = self._engine().search(workload, top_k=top_k)
            result = self._finish(
                outcome.ranked,
                outcome.stats,
                workload,
                t0,
                search=outcome.search,
                objective=objective,
                budget=budget,
            )
            if result is not None:
                result = replace(
                    result,
                    tier=resolved,
                    tier_reason=reason,
                    gap_bound=gap_bound,
                )
            sp.set(feasible=result is not None)
            return result

    def replan(
        self,
        prev: PlannerResult,
        delta: Any,
        *,
        workload: Optional[BatchWorkload] = None,
    ) -> PlannerResult:
        """Re-solve after a cluster or job change, warm-starting from
        ``prev``.

        The unified re-planning surface: ``prev`` is the previous
        :class:`PlannerResult` and ``delta`` a
        :class:`~repro.core.replan.ClusterDelta` (GPUs died) or
        :class:`~repro.core.replan.JobDelta` (the workload changed).
        Incremental repair candidates (plan-level degrade, warm-started
        segment re-solve) are scored through one batched fastsim sweep;
        a cold re-plan runs only when every repair fails, so the result
        is feasibility-equivalent to planning from scratch.  ``workload``
        overrides ``prev.workload`` when the previous result predates
        workload provenance.  Raises :class:`InfeasibleError` when
        nothing fits.
        """
        from .replan import replan_incremental

        return replan_incremental(self, prev, delta, workload=workload)

    def replan_cold(
        self,
        workload: BatchWorkload,
        surviving_device_ids: Sequence[int],
    ) -> PlannerResult:
        """Full re-plan from scratch on the reduced cluster of survivors.

        Unlike the plan-level degrade (which keeps per-layer bitwidths
        fixed so an in-flight generation stays bit-exact), this runs the
        complete joint optimization over the survivors — bitwidths,
        partition and micro-batching may all change.  The incremental
        path (:meth:`replan`) falls back to this when no repair fits.
        Raises :class:`InfeasibleError` when no plan fits.
        """
        with trace.span(
            "planner.replan",
            survivors=len(tuple(surviving_device_ids)),
        ):
            reduced = _reduced_cluster(self.cluster, surviving_device_ids)
            planner = SplitQuantPlanner(
                self.spec,
                reduced,
                self.config,
                cost_model=self.cost_model,
                omega_layers=self.omega_layers,
            )
            result = planner.plan(workload)
            if result is None:
                raise InfeasibleError(
                    "no feasible plan on surviving devices "
                    f"{sorted(surviving_device_ids)}"
                )
            return result

    def _finish(
        self,
        ranked,
        stats: Sequence[CandidateStat],
        workload: BatchWorkload,
        t0: float,
        search: Optional[SearchStats] = None,
        objective: str = "throughput",
        budget: Optional[float] = None,
    ) -> Optional[PlannerResult]:
        """Shared tail of both search paths: verify, expand, report."""
        cfg = self.config
        if not ranked:
            return None
        predicted_energy: Optional[float] = None
        predicted_cost: Optional[float] = None
        if objective != "throughput":
            best, predicted_energy, predicted_cost = (
                self._select_by_objective(ranked, workload, objective, budget)
            )
        else:
            best = ranked[0]
            if cfg.verify_top_k > 1 and len(ranked) > 1:
                best, verify_plans, verify_batches = self._verify_candidates(
                    ranked[: cfg.verify_top_k], workload
                )
                if search is not None and verify_batches:
                    search = replace(
                        search,
                        batches=search.batches + verify_batches,
                        batched_plans_scored=(
                            search.batched_plans_scored + verify_plans
                        ),
                    )
        _, sol, ordering, group_sizes, eta, xi, bit_kv = best
        plan = solution_to_plan(
            self.spec, ordering, group_sizes, sol, eta, xi, bit_kv
        )
        n_tokens = workload.batch * workload.output_len
        return PlannerResult(
            plan=plan,
            predicted_latency_s=sol.latency_s,
            predicted_quality=sol.quality,
            throughput_tokens_s=(
                n_tokens / sol.latency_s if sol.latency_s > 0 else 0.0
            ),
            solve_time_s=time.perf_counter() - t0,
            candidates_tried=len(stats),
            stats=tuple(stats),
            search=search,
            workload=workload,
            objective=objective,
            budget=budget,
            predicted_energy_j=predicted_energy,
            predicted_cost_usd=predicted_cost,
        )

    def _select_by_objective(
        self,
        ranked,
        workload: BatchWorkload,
        objective: str,
        budget: Optional[float],
    ) -> Tuple[Any, float, float]:
        """Re-rank the candidate frontier through the energy model.

        Every leading candidate is expanded and scored by
        :meth:`_simulate_frontier`, whose results carry joules and
        dollars (:func:`repro.pipeline.simulator.attach_energy`).  With no
        budget the minimum-metric candidate wins (J/token under
        ``"energy"``, $/Mtoken under ``"cost"``); with a budget the
        fastest candidate under the ceiling wins.  Ties keep the search
        ranking's order.  Returns ``(candidate, energy_j, cost_usd)``.
        """
        top = ranked[: max(self.config.verify_top_k, OBJECTIVE_FRONTIER_K)]
        with trace.span(
            "planner.objective_rerank", objective=objective, k=len(top)
        ):
            frontier = self._simulate_frontier(top, workload)
            if not frontier:
                raise InfeasibleError(
                    f"objective={objective!r}: no expandable candidates"
                )
            metric = (
                "joules_per_token" if objective == "energy" else "usd_per_mtoken"
            )
            scored = [(c, res, getattr(res, metric)) for c, res in frontier]
            pool = scored
            if budget is not None:
                pool = [s for s in scored if s[2] <= budget]
                if not pool:
                    unit = "J/token" if objective == "energy" else "$/Mtoken"
                    raise InfeasibleError(
                        f"no candidate within the {objective} budget "
                        f"{budget:g} {unit} "
                        f"(best achievable: {min(s[2] for s in scored):g})"
                    )
                chosen = min(pool, key=lambda s: s[1].makespan_s)
            else:
                chosen = min(pool, key=lambda s: s[2])
            cand, res, _ = chosen
            assert res.energy_j is not None and res.cost_usd is not None
            return cand, res.energy_j, res.cost_usd
