"""Table VI: layer grouping and the bitwidth-transfer heuristic.

Three optimizer strategies — exact ILP with group=2, exact ILP with
group=1 (full solution space), and the heuristic — under a 60-second
per-solve time limit, on (OPT-30B, clusters 5/6) and (OPT-66B, cluster 9).
Reported: simulated throughput of the chosen plan and total solve
overhead.  The paper's shape: group=1 is slower to solve and not always
better under the limit; the heuristic is fastest and competitive.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Tuple

from ..core import PlannerConfig, SplitQuantPlanner
from ..hardware.cluster import table_iii_cluster
from ..models.architectures import get_model
from ..workloads.spec import BatchWorkload
from .common import cost_model_for, throughput_of
from .harness import ExperimentResult

CASES: Tuple[Tuple[str, int], ...] = (
    ("opt-30b", 5),
    ("opt-30b", 6),
    ("opt-66b", 9),
)

STRATEGIES = ("group=2", "group=1", "heuristic")

WORKLOAD = BatchWorkload(batch=32, prompt_len=512, output_len=100)


def strategy_config(
    strategy: str, time_limit_s: float = 60.0, max_orderings: int = 2
) -> PlannerConfig:
    """The planner configuration of one of :data:`STRATEGIES`."""
    cfg = PlannerConfig(
        group_size=2,
        max_orderings=max_orderings,
        microbatch_candidates=(8, 16),
        time_limit_s=time_limit_s,
    )
    if strategy == "group=1":
        return dataclasses.replace(cfg, group_size=1)
    if strategy == "heuristic":
        return dataclasses.replace(cfg, use_heuristic=True)
    return cfg


def run(
    time_limit_s: float = 60.0,
    max_orderings: int = 2,
    seed: int = 0,
) -> ExperimentResult:
    rows = []
    summary: Dict[str, float] = {}
    for model_name, cluster_idx in CASES:
        spec = get_model(model_name)
        cluster = table_iii_cluster(cluster_idx)
        wl = WORKLOAD
        cm = cost_model_for(spec, cluster)
        tputs = {}
        for strategy in STRATEGIES:
            cfg = strategy_config(strategy, time_limit_s, max_orderings)
            planner = SplitQuantPlanner(spec, cluster, cfg, cost_model=cm)
            res = planner.plan(wl)
            tput = throughput_of(
                res.plan if res else None, cluster, spec, wl
            )
            overhead = res.solve_time_s if res else float("nan")
            tputs[strategy] = tput
            rows.append(
                [model_name, f"cluster-{cluster_idx}", strategy, tput, overhead]
            )
        best = max(tputs.values())
        summary[f"{model_name}_c{cluster_idx}_heuristic_gap"] = (
            (tputs["heuristic"] / best) if best > 0 else 0.0
        )
    return ExperimentResult(
        name="tab06",
        title="Grouping and heuristic under solver time limits",
        headers=["model", "cluster", "strategy", "tokens_per_s", "overhead_s"],
        rows=rows,
        summary=summary,
        notes=(
            "Paper: heuristic is near-best throughput at the smallest "
            "overhead; group=1 explores the full space but costs more."
        ),
    )
