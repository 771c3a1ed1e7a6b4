"""SplitQuant's core: joint quantization / partition / micro-batch planning."""

from .config import PlannerConfig
from .costs import PlanningProblem, StageGroup, build_problem, group_layers
from .dp import DPOutcome, dp_search, flow_relaxed_span, segment_partition
from .enumeration import (
    candidate_orderings,
    microbatch_candidates,
    node_tp_groupings,
    scalable_orderings,
)
from .heuristic import bitwidth_transfer
from .ilp import (
    ILPSolution,
    lagrangian_bound,
    solve_adabits,
    solve_partition_ilp,
    solve_partition_lp_relaxation,
)
from .planner import (
    CandidateStat,
    PlannerResult,
    SplitQuantPlanner,
    solution_to_plan,
)
from .replan import ClusterDelta, JobDelta, replan_incremental
from .search import (
    CandidateSearchEngine,
    SearchOutcome,
    SearchStats,
    analytic_lower_bound,
    mckp_lp_min_cost,
)

__all__ = [
    "PlannerConfig",
    "PlanningProblem",
    "StageGroup",
    "build_problem",
    "group_layers",
    "DPOutcome",
    "dp_search",
    "flow_relaxed_span",
    "segment_partition",
    "candidate_orderings",
    "microbatch_candidates",
    "node_tp_groupings",
    "scalable_orderings",
    "bitwidth_transfer",
    "ILPSolution",
    "lagrangian_bound",
    "solve_adabits",
    "solve_partition_ilp",
    "solve_partition_lp_relaxation",
    "ClusterDelta",
    "JobDelta",
    "replan_incremental",
    "CandidateSearchEngine",
    "SearchOutcome",
    "SearchStats",
    "analytic_lower_bound",
    "mckp_lp_min_cost",
    "CandidateStat",
    "PlannerResult",
    "SplitQuantPlanner",
    "solution_to_plan",
]
