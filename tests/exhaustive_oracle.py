"""Exhaustive reference solver for tiny planning subproblems.

Enumerates every contiguous partition of layer groups over stages and
every bitwidth combination, evaluating the same objective as the ILP.
Exponential — a test oracle that cross-validates the ILP and the
heuristic on problems small enough to enumerate.
"""

from __future__ import annotations

import itertools
from typing import Optional, Tuple

from repro.core.costs import PlanningProblem
from repro.core.ilp import ILPSolution


def _compositions(total: int, parts: int):
    """All ways to write ``total`` as ``parts`` positive integers."""
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def brute_force_solve(
    problem: PlanningProblem,
    theta: float = 10.0,
    quality_budget: Optional[float] = None,
    max_states: int = 2_000_000,
) -> Optional[ILPSolution]:
    """Optimal solution by enumeration; ``None`` when infeasible."""
    G, N = problem.n_groups, problem.n_stages
    n_states = 0
    best_val = float("inf")
    best: Optional[Tuple[Tuple[int, ...], Tuple[int, ...]]] = None
    for comp in _compositions(G, N):
        stages = []
        for j, count in enumerate(comp):
            stages.extend([j] * count)
        for bits in itertools.product(problem.bit_choices, repeat=G):
            n_states += 1
            if n_states > max_states:
                raise RuntimeError(
                    f"state space exceeds {max_states}; use the ILP instead"
                )
            if not problem.memory_ok(stages, bits):
                continue
            quality = problem.quality_sum(bits)
            if quality_budget is not None and quality > quality_budget + 1e-12:
                continue
            val = problem.latency_estimate(stages, bits) + theta * quality
            if val < best_val:
                best_val = val
                best = (tuple(stages), tuple(bits))
    if best is None:
        return None
    stages, bits = best
    return ILPSolution(
        assign_stage=stages,
        assign_bits=bits,
        objective=best_val,
        latency_s=problem.latency_estimate(stages, bits),
        quality=problem.quality_sum(bits),
        solve_time_s=0.0,
        status="brute-force",
    )
