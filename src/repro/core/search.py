"""The candidate search engine: memoized, bound-pruned, best-first solving.

``SplitQuantPlanner.plan()`` must enumerate device orderings x (eta, xi)
micro-batch pairs x KV bitwidths and run an exact MILP (or the
bitwidth-transfer heuristic) per candidate inside the paper's 60 s solver
budget (Table VI).  Done naively that is a serial quadruple loop that
rebuilds every cost tensor from scratch and solves every candidate even
when it provably cannot win — and planner wall-clock is the dominant cost
of the whole Fig. 9-12 benchmark sweep.  This module is the fast path.
Three layers:

1. **Memoized cost kernels** — unit layer costs depend only on
   ``(gpu, tp, bits, micro-batch, chunk/context, bit_kv)``, so identical
   ``(gpu, tp)`` stage groups across orderings and repeated ``(eta, xi)``
   pairs hit a :class:`~repro.pipeline.stage.MemoizedTiming` cache, and
   the (eta, xi)-independent tensors of each subproblem (memory table,
   grouped indicator, capacities, links) are materialized once per
   (ordering, bit_kv) via :func:`~repro.core.costs.problem_invariants`.
   :func:`enumerate_candidates` is this grid; the DP tier and the
   incremental re-solve enumerate through it too, and
   :func:`candidate_score` is the one objective-(4) score they share.

2. **Admissible lower-bound pruning** — before paying a solve, each
   candidate climbs a ladder of ever tighter, ever dearer bounds:
   analytic (multiple-choice-knapsack LP relaxations of the bit
   assignment + pipeline structural terms, among them a per-stage
   water-filled bottleneck under the stages' memory caps, and ``inf``
   when the budget and the total memory cannot hold together; no solver
   call) → Lagrangian (the closed
   form of :func:`~repro.core.ilp.lagrangian_bound` on the LP
   multipliers of already-LP'd siblings with the same ordering and
   bit_kv) → the LP relaxation of the full MILP; the last two only with
   the exact ILP backend.  No bound exceeds the score of any feasible
   solution, so skipping candidates whose bound exceeds the incumbent
   provably cannot change the chosen plan.  Candidates are solved
   best-first from a heap keyed by their best known bound; one that
   reaches the head before its LP takes the next rung and is pushed
   back at the tighter key, so the LP runs only for candidates that
   head the heap on their Lagrangian bound, and the most promising
   candidate sets the incumbent first.  On the Table-VI config the
   ladder leaves 12 LPs and 2 MILPs for 54 candidates; the analytic
   bound alone prunes 12 of them (2 without its water-filled term).

3. **Observability** — every candidate's fate (solved / pruned /
   infeasible), its bound, cache hit rates and wall-vs-cumulative solve
   time are reported through :class:`SearchStats` /
   :class:`CandidateStat` and surfaced on ``PlannerResult``.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..costmodel.latency import LatencyCostModel
from ..hardware.cluster import ClusterSpec
from ..models.architectures import ModelSpec
from ..models.layers import weight_storage_bytes
from ..obs import trace
from ..pipeline.stage import CostModelTiming, MemoizedTiming, TimingSource
from ..workloads.spec import BatchWorkload
from .config import PlannerConfig
from .costs import (
    PlanningProblem,
    StageGroup,
    build_problem,
    problem_invariants,
)
from .enumeration import candidate_orderings, microbatch_candidates
from .heuristic import adabits_start
from .ilp import (
    ILPSolution,
    lagrangian_bound,
    solve_partition_lp_relaxation,
)


@dataclass(frozen=True)
class CandidateStat:
    """Solve record for one (ordering, eta, xi, bit_kv) candidate."""

    ordering_key: Tuple[Tuple[str, int], ...]
    eta: int
    xi: int
    status: str
    latency_s: float
    quality: float
    solve_time_s: float
    #: Admissible lower bound on the candidate's score (0 when unused).
    bound_s: float = 0.0


@dataclass(frozen=True)
class SearchStats:
    """Aggregate observability counters for one search."""

    #: Candidates enumerated (after the total-capacity ordering skip).
    enumerated: int
    #: Candidates actually handed to the ILP / heuristic backend.
    solved: int
    #: Candidates skipped because their lower bound beat the incumbent.
    pruned: int
    #: Solved candidates the backend declared infeasible.
    infeasible: int
    #: Unit-cost timing cache hits / misses across all KV cost models.
    cache_hits: int
    cache_misses: int
    #: Exact-MILP LP relaxations evaluated for pruning.
    lp_bounds: int
    #: Heuristic starts computed for incumbent seeding (heuristic mode).
    warm_starts: int
    #: Mean (bound / score) over solved candidates — 1.0 is a perfect
    #: bound, small values mean the bound is loose and prunes little.
    mean_bound_tightness: float
    #: Wall-clock of the whole search vs. cumulative backend solve time.
    wall_time_s: float
    cum_solve_time_s: float
    #: Time spent computing bounds (analytic, Lagrangian and LP).
    bound_time_s: float
    #: Incumbent scores seeded by the bulk frontier-scoring stage before
    #: any solve (heuristic mode only).
    seeded_incumbents: int = 0
    #: Batched scoring sweeps run (search seeding + planner verify).
    batches: int = 0
    #: Plans scored by batched sweeps (frontier members + verified top-k).
    batched_plans_scored: int = 0


#: Relative slack applied before pruning on a bound, so solver-side float
#: tolerance in the LP relaxation can never evict a candidate that ties
#: the incumbent (pruning stays conservative, parity stays exact).
_PRUNE_REL_SLACK = 1e-7
_PRUNE_ABS_SLACK = 1e-9


def mckp_lp_min_cost(
    cost: np.ndarray, weight: np.ndarray, budget: float
) -> float:
    """LP bound of the multiple-choice knapsack: minimize total cost with
    every group picking one choice, subject to total weight <= budget.

    Classic Sinha-Zoltners/Zemel construction: per group keep the Pareto
    frontier of (weight, cost) choices, take its convex hull, then greedily
    buy weight reduction from the globally cheapest hull segments until the
    budget is met (fractionally on the last segment).  Returns ``inf`` when
    even the maximal reduction cannot meet the budget — the integer problem
    is then infeasible too.  A shortfall within 1e-9 of the min-cost
    picks' total weight counts as met, as the MILP's feasibility
    tolerance does: a budget at the minimum-weight sum (Sec. VI-C quality
    matching a 16-bit baseline) leaves float residue.
    """
    base = 0.0
    top = 0.0  # total weight of the min-cost picks
    need = -float(budget)
    segments: List[Tuple[float, float]] = []  # (cost per unit weight, dw)
    for g in range(cost.shape[0]):
        pts = sorted(zip(weight[g].tolist(), cost[g].tolist()))
        # Pareto filter: scanning weight ascending, keep strictly
        # improving (decreasing) costs.
        frontier: List[Tuple[float, float]] = []
        best_c = float("inf")
        for w, c in pts:
            if c < best_c:
                frontier.append((w, c))
                best_c = c
        frontier.reverse()  # weight desc, cost asc; [0] = min-cost choice
        w0, c0 = frontier[0]
        base += c0
        top += w0
        need += w0
        # Lower convex hull: slopes (dc / d(-w)) must increase.
        hull = [(w0, c0)]
        for w, c in frontier[1:]:
            while len(hull) >= 2:
                w1, c1 = hull[-1]
                w2, c2 = hull[-2]
                if (c - c1) * (w2 - w1) <= (c1 - c2) * (w1 - w):
                    hull.pop()
                else:
                    break
            hull.append((w, c))
        for (wa, ca), (wb, cb) in zip(hull, hull[1:]):
            segments.append(((cb - ca) / (wa - wb), wa - wb))
    if need <= 0:
        return base
    segments.sort()
    lb = base
    for slope, dw in segments:
        take = dw if dw < need else need
        lb += slope * take
        need -= take
        if need <= 0:
            return lb
    return lb if need <= 1e-9 * top else float("inf")


def _water_level(
    rate: np.ndarray, const: np.ndarray, cap: np.ndarray, layers: float
) -> float:
    """Least ``tau`` with ``sum_j min(cap_j, max(0, (tau - const_j) /
    rate_j)) >= layers``: the least bottleneck time when ``layers``
    layers are poured into stages where ``x`` layers take ``const_j +
    rate_j * x`` and at most ``cap_j`` layers fit.

    The fill is piecewise linear and nondecreasing in ``tau``, with
    breakpoints at each stage's start ``const_j`` and full mark
    ``const_j + rate_j * cap_j``; ``tau`` is interpolated on the segment
    that crosses ``layers``.  A stage with ``rate_j == 0`` fills in one
    step, which the interpolation can only undershoot.  Returns 0.0 when
    all stages together hold fewer than ``layers`` layers.
    """
    cap = np.maximum(cap, 0.0)
    width = rate * cap
    points = np.sort(np.concatenate((const, const + width)))
    rise = points[:, None] - const
    frac = np.divide(rise, width, out=(rise >= 0).astype(float),
                     where=width > 0)
    fill = np.clip(frac, 0.0, 1.0) @ cap
    if not fill[-1] >= layers:
        return 0.0
    i = int(np.argmax(fill >= layers))
    if i == 0:
        return float(points[0])
    lo, hi = points[i - 1], points[i]
    step = (layers - fill[i - 1]) / (fill[i] - fill[i - 1])
    return float(min(lo + step * (hi - lo), hi))


def _water_filled_bottlenecks(problem: PlanningProblem) -> Tuple[float, float]:
    """Floors on the slowest stage's prefill and decode times.

    Per layer, stage j costs at least its fastest bitwidth's time
    ``r_j`` and holds at most ``cap_j`` layers at the smallest per-layer
    memory.  At ``tau = max_j t[j]`` of any feasible assignment each
    stage's layer count is at most both ``(tau - const_j) / r_j`` and
    ``cap_j``, and the counts sum to the model's layers, so the
    :func:`_water_level` of those layers is at most ``tau``.
    """
    sizes = np.asarray(problem.group_sizes, dtype=float)
    layers = float(sizes.sum())
    cap = problem.capacity / float((problem.mem.min(axis=1) / sizes).min())

    def level(lat: np.ndarray, const: np.ndarray) -> float:
        rate = (lat.min(axis=2) / sizes[:, None]).min(axis=0)
        return _water_level(rate, const, cap, layers)

    return (
        level(problem.l_pre, problem.const_pre),
        level(problem.l_dec, problem.const_dec),
    )


def analytic_lower_bound(
    problem: PlanningProblem,
    theta: float,
    quality_budget: Optional[float],
) -> float:
    """Cheap admissible lower bound on a candidate's score.

    Relaxes stage memory to a single total-capacity knapsack, drops
    contiguity, and lets every group take its best device — then rebuilds
    the analytic latency formula from per-term minima:

    * infeasibility when even the least memory a within-budget
      assignment needs (an MCKP LP) exceeds the total capacity;
    * sum terms via the MCKP LP bound (quality budget and total memory
      each constrain how many groups can take their fastest bitwidth);
    * bottleneck terms via the max of the mean bound (max >= sum / stages),
      the per-stage "at least one group" bound, the pigeonhole bound
      (some stage holds >= ceil(G/N) groups), the water-filled bound
      (:func:`_water_filled_bottlenecks`: each stage at its fastest
      per-layer time, holding no more layers than its memory can at the
      smallest per-layer footprint), and inter-stage communication
      floors.

    Every term lower-bounds the corresponding component of
    :meth:`PlanningProblem.latency_estimate` for *any* feasible
    assignment, so the total never exceeds the score any solve returns.
    """
    n = problem.workload.output_len
    n_stages = problem.n_stages
    cap_total = float(problem.capacity.sum())
    if quality_budget is not None:
        # Joint screen: rows (12)-(13) summed over stages plus the budget
        # row -- the least memory any within-budget assignment needs.
        need = mckp_lp_min_cost(problem.mem, problem.omega, quality_budget)
        if need > cap_total + _PRUNE_ABS_SLACK + _PRUNE_REL_SLACK * cap_total:
            return float("inf")
    cmin_pre = problem.l_pre.min(axis=1)  # (G, K): best device per bit
    cmin_dec = problem.l_dec.min(axis=1)

    def group_sum_bound(cmin: np.ndarray) -> float:
        best = float(cmin.min(axis=1).sum())
        if quality_budget is not None:
            best = max(
                best, mckp_lp_min_cost(cmin, problem.omega, quality_budget)
            )
        best = max(best, mckp_lp_min_cost(cmin, problem.mem, cap_total))
        return best

    s_pre = float(problem.const_pre.sum()) + group_sum_bound(cmin_pre)
    s_dec = float(problem.const_dec.sum()) + group_sum_bound(cmin_dec)
    if s_pre == float("inf") or s_dec == float("inf"):
        # No assignment fits the total capacity; returning early also
        # keeps a zero job multiplier from turning inf into NaN.
        return float("inf")
    comm_pre_max = (
        float(problem.comm_pre.max()) if problem.comm_pre.size else 0.0
    )
    comm_dec_max = (
        float(problem.comm_dec.max()) if problem.comm_dec.size else 0.0
    )
    per_stage_pre = problem.const_pre + problem.l_pre.min(axis=(0, 2))
    per_stage_dec = problem.const_dec + problem.l_dec.min(axis=(0, 2))
    m_heavy = -(-problem.n_groups // n_stages)
    heavy_pre = float(np.sort(problem.l_pre.min(axis=(1, 2)))[:m_heavy].sum())
    heavy_dec = float(np.sort(problem.l_dec.min(axis=(1, 2)))[:m_heavy].sum())
    fill_pre, fill_dec = _water_filled_bottlenecks(problem)
    pre_b = max(
        comm_pre_max, s_pre / n_stages, float(per_stage_pre.max()), heavy_pre,
        fill_pre,
    )
    dec_b = max(
        comm_dec_max, s_dec / n_stages, float(per_stage_dec.max()), heavy_dec,
        fill_dec,
    )
    prefill = (
        s_pre
        + float(problem.comm_pre.sum())
        + (problem.prefill_jobs - 1) * pre_b
    )
    round_trip = s_dec + float(problem.comm_dec.sum())
    decode = (n - 1) * max(problem.mu_dec * dec_b, round_trip)
    bound = prefill + decode
    if quality_budget is None and theta > 0.0:
        quality_lb = max(
            float(problem.omega.min(axis=1).sum()),
            mckp_lp_min_cost(problem.omega, problem.mem, cap_total),
        )
        bound += theta * quality_lb
    return bound


def candidate_score(
    latency: float, quality: float, config: PlannerConfig
) -> float:
    """Objective (4): latency plus theta x quality, or latency alone
    under a hard quality budget (Sec. VI-C), where quality is a
    constraint rather than an objective term."""
    if config.quality_budget is not None:
        return latency
    return latency + config.theta * quality


#: Ranked candidate tuple, shaped like the planner's verify list:
#: (score, solution, ordering, group_sizes, eta, xi, bit_kv).
RankedCandidate = Tuple[
    float,
    ILPSolution,
    Tuple[StageGroup, ...],
    Tuple[int, ...],
    int,
    int,
    int,
]


@dataclass
class _Candidate:
    """One enumerated (ordering prefix, eta, xi, bit_kv) configuration."""

    index: int  # global enumeration index (the serial tie-break key)
    #: Enumeration index of the (bit_kv, ordering prefix) it belongs to;
    #: candidates sharing it share the MILP row space.
    prefix_index: int
    ordering: Tuple[StageGroup, ...]
    bit_kv: int
    eta: int
    xi: int
    problem: PlanningProblem
    bound: float = float("-inf")  # best admissible bound known so far
    lagrangian_done: bool = False  # sibling-multiplier bound tried
    lp_done: bool = False  # exact-MILP LP relaxation tried
    warm: Optional[ILPSolution] = None  # heuristic start, once seeded
    sol: Optional[ILPSolution] = None
    status: str = "pending"
    score: float = float("inf")

    def record(self, sol: Optional[ILPSolution], config: PlannerConfig) -> None:
        """Store a backend solve (``None``: infeasible) and its score."""
        self.sol = sol
        if sol is None:
            self.status = "infeasible"
            return
        self.status = "solved"
        self.score = candidate_score(sol.latency_s, sol.quality, config)

    def stat(self) -> CandidateStat:
        sol = self.sol
        figures = (0.0, 0.0, 0.0) if sol is None else (
            sol.latency_s, sol.quality, sol.solve_time_s
        )
        return CandidateStat(
            tuple(sg.key() for sg in self.ordering),
            self.eta,
            self.xi,
            self.status if sol is None else sol.status,
            *figures,
            bound_s=max(self.bound, 0.0),
        )

    def entry(self) -> RankedCandidate:
        assert self.sol is not None
        return (self.score, self.sol, self.ordering, self.problem.group_sizes,
                self.eta, self.xi, self.bit_kv)


def rank_candidates(candidates: Sequence[_Candidate]) -> List[_Candidate]:
    """The solved candidates sorted on (score, enumeration index) — the
    order a stable score sort of the serial enumeration produces."""
    solved = [c for c in candidates if c.status == "solved"]
    solved.sort(key=lambda c: (c.score, c.index))
    return solved


def enumerate_candidates(
    spec: ModelSpec,
    cluster: ClusterSpec,
    config: PlannerConfig,
    omega_layers: np.ndarray,
    cost_model_for_kv: Callable[[int], LatencyCostModel],
    workload: BatchWorkload,
    orderings: Sequence[Sequence[StageGroup]],
    kv_choices: Optional[Sequence[int]] = None,
    depths: Optional[
        Callable[[Tuple[StageGroup, ...], TimingSource], Sequence[int]]
    ] = None,
) -> Tuple[List[_Candidate], List[MemoizedTiming]]:
    """The planner's candidate grid, shared by every tier.

    Loops KV bits (default ``config.kv_bit_choices or (config.bit_kv,)``)
    -> ordering -> pipeline depth -> eta -> xi.  ``depths(ordering,
    timing)`` names the leading stage-group counts to try per ordering;
    by default only the full ordering.  A prefix whose total capacity
    cannot hold the all-min-bits weights is skipped.  Problems share one
    :class:`MemoizedTiming` per KV bitwidth and one
    :func:`~repro.core.costs.problem_invariants` per prefix, so each is
    bit-identical to a standalone :func:`build_problem`.  Returns the
    candidates in enumeration order and the per-KV timing memos.
    """
    cfg = config
    if kv_choices is None:
        kv_choices = cfg.kv_bit_choices or (cfg.bit_kv,)
    mbs = microbatch_candidates(workload.batch, cfg.microbatch_candidates)
    min_weights = spec.num_layers * weight_storage_bytes(
        spec, min(cfg.bit_choices)
    )
    candidates: List[_Candidate] = []
    timings: List[MemoizedTiming] = []
    n_prefixes = 0
    for bit_kv in kv_choices:
        cost_model = cost_model_for_kv(bit_kv)
        timing = MemoizedTiming(CostModelTiming(cost_model=cost_model, spec=spec))
        timings.append(timing)
        for ordering in orderings:
            ordering = tuple(ordering)
            for depth in depths(ordering, timing) if depths else [len(ordering)]:
                prefix = ordering[:depth]
                if min_weights > sum(sg.capacity_bytes for sg in prefix):
                    continue
                inv = problem_invariants(
                    spec, cluster, prefix, workload, omega_layers,
                    cfg.bit_choices, group_size=cfg.group_size, bit_kv=bit_kv,
                )
                for eta in mbs:
                    for xi in mbs:
                        if cfg.tie_microbatches and xi != eta:
                            continue
                        problem = build_problem(
                            spec, cluster, prefix, workload, cost_model,
                            omega_layers, eta, xi, cfg.bit_choices,
                            group_size=cfg.group_size, bit_kv=bit_kv,
                            phase_blind=cfg.phase_blind, timing=timing,
                            invariants=inv,
                        )
                        candidates.append(_Candidate(
                            len(candidates), n_prefixes, prefix, bit_kv,
                            eta, xi, problem,
                        ))
                n_prefixes += 1
    return candidates, timings


@dataclass
class SearchOutcome:
    """Everything ``plan()`` needs from one search."""

    #: Solved candidates sorted by (score, enumeration index) — the same
    #: order a stable sort of the exhaustive serial search produces.
    ranked: List[RankedCandidate]
    #: Per-candidate records in enumeration order.
    stats: List[CandidateStat]
    search: SearchStats


@dataclass
class CandidateSearchEngine:
    """Enumerate, bound, prune and solve planner candidates.

    The engine owns enumeration and scheduling; the *meaning* of a solve
    stays with the caller through two callbacks: ``cost_model_for_kv``
    (lazily fitted per KV bitwidth) and ``solve_one(problem, warm_start)``
    (the ILP or heuristic backend).  Guarantee: for any configuration, the
    ranked output equals the exhaustive serial search's stable
    score-sorted candidate list restricted to its top, so the chosen plan
    is bit-identical — pruning only ever removes candidates whose
    admissible bound proves they cannot enter the ranked top-k.
    """

    spec: ModelSpec
    cluster: ClusterSpec
    config: PlannerConfig
    omega_layers: np.ndarray
    cost_model_for_kv: Callable[[int], LatencyCostModel]
    solve_one: Callable[
        [PlanningProblem, Optional[ILPSolution]], Optional[ILPSolution]
    ]

    def candidates(
        self, workload: BatchWorkload
    ) -> Tuple[List[_Candidate], List[MemoizedTiming]]:
        """The exact tier's candidate grid for ``workload``: every KV
        bitwidth x pruned device ordering x (eta, xi) pair."""
        cfg = self.config
        return enumerate_candidates(
            self.spec,
            self.cluster,
            cfg,
            self.omega_layers,
            self.cost_model_for_kv,
            workload,
            candidate_orderings(
                self.cluster,
                enable_tp=cfg.enable_tp,
                max_orderings=cfg.max_orderings,
            ),
        )

    def search(self, workload: BatchWorkload, top_k: int) -> SearchOutcome:
        """Run the search; the leading ``top_k`` ranked candidates are
        exactly those of the exhaustive search, so any re-rank over them
        is independent of pruning and solve order."""
        with trace.span("search.run", batch=workload.batch):
            return self._search(workload, top_k)

    def _search(self, workload: BatchWorkload, top_k: int) -> SearchOutcome:
        cfg = self.config
        t0 = time.perf_counter()
        theta_eff = 0.0 if cfg.quality_budget is not None else cfg.theta

        with trace.span("search.enumerate") as sp:
            candidates, timings = self.candidates(workload)
            sp.set(candidates=len(candidates))
        lp_bounds = 0
        tb = time.perf_counter()
        with trace.span("search.bounds", candidates=len(candidates)):
            for cand in candidates:
                cand.bound = analytic_lower_bound(
                    cand.problem, theta_eff, cfg.quality_budget
                )
        bound_time = time.perf_counter() - tb

        # The incumbent threshold is the k-th best *known* score per
        # candidate: solves record their exact final score, and the bulk
        # seeding stage below registers warm-start scores that each
        # candidate's solve can only improve on.  Either way every table
        # entry upper-bounds its candidate's achievable score, so the
        # k-th smallest entry upper-bounds the true k-th best score and
        # anything whose admissible bound exceeds it cannot enter the
        # ranked top-k — skipping it cannot change the final plan.
        k_keep = max(top_k, 1)
        known: Dict[int, float] = {}

        def threshold() -> float:
            if len(known) < k_keep:
                return float("inf")
            return sorted(known.values())[k_keep - 1]

        # Bulk frontier scoring (heuristic mode): before any solve, score
        # every live candidate's warm-start assignment exactly — the same
        # analytic score function the backend minimizes — in one sweep,
        # and seed the incumbent table with the results.  The hill climb
        # only ever improves a warm start that is feasible for its
        # subproblem, so each seed upper-bounds that candidate's final
        # score and pruning on the seeded threshold stays parity-exact,
        # while incumbents tighten before the first solve instead of
        # trickling in with solve order.  Each start stays on its
        # candidate for the backend solve, so none is computed twice.
        # A candidate whose analytic bound is already ``inf`` is pruned at
        # its first pop and gets no start.
        seeded = 0
        batches_run = 0
        live: List[_Candidate] = []
        if cfg.use_heuristic:
            live = [c for c in candidates if c.bound != float("inf")]
        if live:
            tb = time.perf_counter()
            batches_run = 1
            with trace.span("search.batch_score", plans=len(live)) as sp:
                for cand in live:
                    cand.warm = warm = adabits_start(
                        cand.problem, cfg.quality_budget, cfg.time_limit_s
                    )
                    if warm is None:
                        continue
                    problem = cand.problem
                    if not problem.memory_ok(
                        warm.assign_stage, warm.assign_bits
                    ):
                        continue
                    quality = problem.quality_sum(warm.assign_bits)
                    if (
                        cfg.quality_budget is not None
                        and quality > cfg.quality_budget + 1e-12
                    ):
                        continue
                    known[cand.index] = candidate_score(
                        problem.latency_estimate(
                            warm.assign_stage, warm.assign_bits
                        ),
                        quality,
                        cfg,
                    )
                    seeded += 1
                sp.set(seeded=seeded)
            bound_time += time.perf_counter() - tb

        def record(cand: _Candidate, sol: Optional[ILPSolution]) -> None:
            cand.record(sol, cfg)
            if sol is None:
                known.pop(cand.index, None)
            else:
                known[cand.index] = cand.score

        def solve(cand: _Candidate) -> Optional[ILPSolution]:
            """Backend solve, traced."""
            if not trace.enabled:
                return self.solve_one(cand.problem, cand.warm)
            with trace.span(
                "search.solve",
                index=cand.index,
                eta=cand.eta,
                xi=cand.xi,
                bit_kv=cand.bit_kv,
            ) as sp:
                sol = self.solve_one(cand.problem, cand.warm)
                sp.set(
                    status="infeasible" if sol is None else sol.status,
                    bound_s=max(cand.bound, 0.0),
                )
                return sol

        # Best-first over (best known bound, enumeration index): with the
        # exact ILP backend a pop that still lacks its LP bound is
        # tightened and pushed back, so a pop that is solved holds the
        # smallest admissible bound left.  Tightening climbs a ladder:
        # the Lagrangian bound from the LP multipliers of already-LP'd
        # siblings (same ordering and bit_kv, so the same row space)
        # first, once, then the LP itself.  The heuristic backend keeps
        # its analytic keys, so it pops in (bound, index) order.
        duals: Dict[int, List[np.ndarray]] = {}
        heap = [(c.bound, c.index) for c in candidates]
        heapq.heapify(heap)
        while heap:
            key, idx = heapq.heappop(heap)
            cand = candidates[idx]
            thr = threshold()
            slack = _PRUNE_ABS_SLACK + _PRUNE_REL_SLACK * abs(thr)
            if key == float("inf") or key > thr + slack:
                cand.status = "pruned"
                continue
            if not cfg.use_heuristic and not cand.lp_done:
                tb = time.perf_counter()
                group = cand.prefix_index
                if group in duals and not cand.lagrangian_done:
                    cand.lagrangian_done = True
                    tight = lagrangian_bound(
                        cand.problem,
                        theta_eff,
                        cfg.quality_budget,
                        np.array(duals[group]),
                    )
                else:
                    cand.lp_done = True
                    tight, y = solve_partition_lp_relaxation(
                        cand.problem,
                        theta=theta_eff,
                        quality_budget=cfg.quality_budget,
                        time_limit_s=cfg.time_limit_s,
                    )
                    lp_bounds += 1
                    if y is not None:
                        duals.setdefault(group, []).append(y)
                bound_time += time.perf_counter() - tb
                # None (no bound available) must never prune; an
                # infeasible LP (inf) prunes on the next pop.
                if tight is not None:
                    cand.bound = max(cand.bound, tight)
                heapq.heappush(heap, (cand.bound, idx))
                continue
            if cfg.use_heuristic and cand.warm is None:
                # The heuristic backend would rebuild this same failed
                # start (the greedy, then the adabits MILP) and give up.
                record(cand, None)
                continue
            record(cand, solve(cand))

        # Deterministic reduction: a stable sort on (score, enumeration
        # index) reproduces the serial search's stable score sort exactly.
        solved = rank_candidates(candidates)
        ranked = [c.entry() for c in solved]
        stats = [c.stat() for c in candidates]
        tightness = [
            c.bound / c.score
            for c in solved
            if np.isfinite(c.bound) and c.score > 0
        ]
        search_stats = SearchStats(
            enumerated=len(candidates),
            solved=len(solved),
            pruned=sum(1 for c in candidates if c.status == "pruned"),
            infeasible=sum(
                1 for c in candidates if c.status == "infeasible"
            ),
            cache_hits=sum(t.hits for t in timings),
            cache_misses=sum(t.misses for t in timings),
            lp_bounds=lp_bounds,
            warm_starts=len(live),
            mean_bound_tightness=(
                float(np.mean(tightness)) if tightness else 0.0
            ),
            wall_time_s=time.perf_counter() - t0,
            cum_solve_time_s=sum(
                c.sol.solve_time_s for c in candidates if c.sol is not None
            ),
            bound_time_s=bound_time,
            seeded_incumbents=seeded,
            batches=batches_run,
            batched_plans_scored=len(live),
        )
        return SearchOutcome(ranked=ranked, stats=stats, search=search_stats)
