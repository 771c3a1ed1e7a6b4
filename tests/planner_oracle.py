"""Exhaustive serial reference for the exact planner tier.

The candidate loop the paper inherits from LLM-PQ (Fig. 6, step 2),
written out with no timing memo, no bound pruning and no best-first
order: every (KV bits, ordering, eta, xi) candidate gets its own
``build_problem`` and its own solve.  ``SplitQuantPlanner.plan``
must return an identical plan (``tests/test_core_search.py``), so the
pruning can only ever drop candidates this loop would also reject.
Test-only: keep it here, out of ``src/``.
"""

from __future__ import annotations

import time
from typing import List, Optional, Tuple

from repro.core.costs import StageGroup, build_problem
from repro.core.enumeration import candidate_orderings, microbatch_candidates
from repro.core.ilp import ILPSolution
from repro.core.planner import PlannerResult, SplitQuantPlanner
from repro.core.search import CandidateStat
from repro.models.layers import weight_storage_bytes
from repro.workloads import BatchWorkload


def plan_reference(
    planner: SplitQuantPlanner,
    workload: BatchWorkload,
    objective: str = "throughput",
    budget: Optional[float] = None,
) -> Optional[PlannerResult]:
    """The plan the exhaustive serial search picks, through the
    planner's own solve and finish (verify or objective re-rank, expand,
    report) steps."""
    cfg = planner.config
    spec = planner.spec
    t0 = time.perf_counter()
    orderings = candidate_orderings(
        planner.cluster, enable_tp=cfg.enable_tp,
        max_orderings=cfg.max_orderings,
    )
    mbs = microbatch_candidates(workload.batch, cfg.microbatch_candidates)
    kv_choices = cfg.kv_bit_choices or (cfg.bit_kv,)
    stats: List[CandidateStat] = []
    candidates: List[
        Tuple[
            float,
            ILPSolution,
            Tuple[StageGroup, ...],
            Tuple[int, ...],
            int,
            int,
            int,
        ]
    ] = []
    # Loop-invariant feasibility floor: even all-min-bits weights must
    # fit in a candidate ordering's total capacity.
    min_weights = spec.num_layers * weight_storage_bytes(
        spec, min(cfg.bit_choices)
    )
    for bit_kv in kv_choices:
        cost_model = planner.cost_model_for_kv(bit_kv)
        for ordering in orderings:
            if min_weights > sum(sg.capacity_bytes for sg in ordering):
                continue
            for eta in mbs:
                for xi in mbs:
                    if cfg.tie_microbatches and xi != eta:
                        continue
                    problem = build_problem(
                        spec, planner.cluster, ordering, workload,
                        cost_model, planner.omega_layers, eta, xi,
                        cfg.bit_choices, group_size=cfg.group_size,
                        bit_kv=bit_kv, phase_blind=cfg.phase_blind,
                    )
                    sol = planner._solve_one(problem)
                    key = tuple(sg.key() for sg in ordering)
                    if sol is None:
                        stats.append(CandidateStat(
                            key, eta, xi, "infeasible", 0.0, 0.0, 0.0
                        ))
                        continue
                    stats.append(CandidateStat(
                        key, eta, xi, sol.status, sol.latency_s,
                        sol.quality, sol.solve_time_s,
                    ))
                    score = sol.latency_s + cfg.theta * sol.quality
                    if cfg.quality_budget is not None:
                        score = sol.latency_s
                    candidates.append(
                        (score, sol, ordering, problem.group_sizes,
                         eta, xi, bit_kv)
                    )
    candidates.sort(key=lambda c: c[0])  # stable: ties keep loop order
    return planner._finish(
        candidates, stats, workload, t0, search=None, objective=objective,
        budget=budget,
    )
