"""The bitwidth-transfer heuristic (Sec. IV-C).

Scales the assigner to configurations where the exact ILP is too slow:

1. obtain a feasible quality-first start from :func:`adabits_start` (a
   greedy *adabits* construction: capacity-proportional contiguous split
   with per-group bit upgrades; the exact adabits ILP is the fallback
   only when the greedy fails);
2. hill-climb with the paper's transformation family
   ``C = (b_st, b_pi, num_s)`` — re-precision a group in place, or move
   boundary groups between adjacent stages with an optional bitwidth
   conversion — until no move improves the objective.

The objective mirrors the ILP: analytic end-to-end latency plus
``theta * sum(omega)``, under memory and (optional) quality-budget
constraints.  Each iteration scores every candidate move from the
state's per-stage time/memory aggregates, held as plain float lists,
without mutating the state; only the winning move is applied.  One
score costs O(stages) rather than O(layers), keeping the heuristic
orders of magnitude cheaper than an exact solve at scale.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .costs import PlanningProblem
from .ilp import ILPSolution, solve_adabits


#: A state's per-stage prefill time, decode time and memory, and its
#: total quality: the inputs of the objective.
Aggregates = Tuple[List[float], List[float], List[float], float]


@dataclass
class _State:
    """Assignment plus its per-stage aggregates, as plain float lists.

    ``tables`` holds the problem's ``l_pre``/``l_dec``/``mem``/``omega``
    as nested lists: the same float64 values, but read without numpy's
    per-scalar indexing cost in the hill climb's inner loop.
    """

    stage: List[int]
    kidx: List[int]  # bit-choice index per group
    t_pre: List[float]
    t_dec: List[float]
    mem: List[float]
    quality: float
    tables: Tuple[list, list, list, list]

    @classmethod
    def build(
        cls, problem: PlanningProblem, stage: Sequence[int], kidx: Sequence[int]
    ) -> "_State":
        state = cls(
            stage=list(stage),
            kidx=list(kidx),
            t_pre=problem.const_pre.tolist(),
            t_dec=problem.const_dec.tolist(),
            mem=[0.0] * problem.n_stages,
            quality=0.0,
            tables=(
                problem.l_pre.tolist(),
                problem.l_dec.tolist(),
                problem.mem.tolist(),
                problem.omega.tolist(),
            ),
        )
        l_pre, l_dec, mem, omega = state.tables
        for g, (j, k) in enumerate(zip(stage, kidx)):
            state.t_pre[j] += l_pre[g][j][k]
            state.t_dec[j] += l_dec[g][j][k]
            state.mem[j] += mem[g][k]
            state.quality += omega[g][k]
        return state

    @property
    def aggregates(self) -> Aggregates:
        return self.t_pre, self.t_dec, self.mem, self.quality

    def moved(self, changes: Sequence[Tuple[int, int, int]]) -> Aggregates:
        """The aggregates after ``(group, new_stage, new_kidx)`` changes,
        leaving the state untouched: each group's old terms are
        subtracted, then its new ones added, in ``changes`` order."""
        l_pre, l_dec, mem, omega = self.tables
        t_pre, t_dec, used = self.t_pre[:], self.t_dec[:], self.mem[:]
        quality = self.quality
        for g, nj, nk in changes:
            oj, ok = self.stage[g], self.kidx[g]
            t_pre[oj] -= l_pre[g][oj][ok]
            t_dec[oj] -= l_dec[g][oj][ok]
            used[oj] -= mem[g][ok]
            quality -= omega[g][ok]
            t_pre[nj] += l_pre[g][nj][nk]
            t_dec[nj] += l_dec[g][nj][nk]
            used[nj] += mem[g][nk]
            quality += omega[g][nk]
        return t_pre, t_dec, used, quality

    def apply(self, changes: Sequence[Tuple[int, int, int]]) -> None:
        """Make ``changes`` the state's assignment."""
        self.t_pre, self.t_dec, self.mem, self.quality = self.moved(changes)
        for g, nj, nk in changes:
            self.stage[g] = nj
            self.kidx[g] = nk


def _objective(
    problem: PlanningProblem,
    theta: float,
    quality_budget: Optional[float],
) -> Callable[[Aggregates], float]:
    """The ILP's objective on a state's aggregates (``inf`` past memory or
    the quality budget), with the per-problem terms computed once.

    Stage sums run left to right, as numpy's ``sum`` does below eight
    elements; the builtin ``sum`` is compensated on Python 3.12+.
    """
    inf = float("inf")
    quality_cap = inf if quality_budget is None else quality_budget + 1e-12
    capacity = (problem.capacity + 1e-6).tolist()
    comm_pre_max = float(problem.comm_pre.max()) if problem.comm_pre.size else 0.0
    comm_dec_max = float(problem.comm_dec.max()) if problem.comm_dec.size else 0.0
    comm_pre_sum = float(problem.comm_pre.sum())
    comm_dec_sum = float(problem.comm_dec.sum())
    pre_waits = problem.prefill_jobs - 1
    dec_steps = problem.workload.output_len - 1
    mu_dec = problem.mu_dec

    def value(aggregates: Aggregates) -> float:
        t_pre, t_dec, used, quality = aggregates
        if quality > quality_cap:
            return inf
        for u, cap in zip(used, capacity):
            if u > cap:
                return inf
        pre_sum = dec_sum = 0.0
        for tp, td in zip(t_pre, t_dec):
            pre_sum += tp
            dec_sum += td
        pre_bottleneck = max(max(t_pre), comm_pre_max)
        prefill_span = (pre_sum + comm_pre_sum) + pre_waits * pre_bottleneck
        dec_bottleneck = max(max(t_dec), comm_dec_max)
        round_trip = dec_sum + comm_dec_sum
        decode_span = dec_steps * max(mu_dec * dec_bottleneck, round_trip)
        return prefill_span + decode_span + theta * quality

    return value


def _boundaries(stage: Sequence[int], n_stages: int) -> List[Tuple[int, int, int]]:
    """(stage, first_group, last_group) per non-empty stage."""
    out = []
    for j in range(n_stages):
        gs = [g for g, s in enumerate(stage) if s == j]
        if gs:
            out.append((j, gs[0], gs[-1]))
    return out


def _candidate_changes(
    problem: PlanningProblem, state: _State
) -> List[List[Tuple[int, int, int]]]:
    """Change-lists for every neighbor state.

    (a) re-precision any group in place; (b) shift 1-2 boundary groups of
    any stage to the adjacent stage, optionally converting their bits —
    the paper's ``(b_st, b_pi, num_s)`` transformations.
    """
    moves: List[List[Tuple[int, int, int]]] = []
    K = problem.n_bits
    for g in range(problem.n_groups):
        for k in range(K):
            if k != state.kidx[g]:
                moves.append([(g, state.stage[g], k)])
    spans = _boundaries(state.stage, problem.n_stages)
    for idx, (j, first, last) in enumerate(spans):
        n_in_stage = last - first + 1
        for num_s in (1, 2):
            if n_in_stage <= num_s:
                continue  # stages must stay non-empty
            if idx + 1 < len(spans):
                nxt = spans[idx + 1][0]
                for k in range(K):
                    moves.append(
                        [
                            (g, nxt, k)
                            for g in range(last - num_s + 1, last + 1)
                        ]
                    )
            if idx > 0:
                prv = spans[idx - 1][0]
                for k in range(K):
                    moves.append(
                        [(g, prv, k) for g in range(first, first + num_s)]
                    )
    return moves


def upgrade_bits(
    problem: PlanningProblem,
    stage: Sequence[int],
    capacity: Sequence[float],
) -> List[int]:
    """Greedy per-stage bit upgrades by quality gain within memory.

    The MCKP direction of the *adabits* problem on a fixed partition:
    every group starts at min bits, and per stage the upgrade with the
    best indicator reduction that still fits ``capacity[j]`` is taken
    until none fits.  Returns each group's bit index.
    """
    G, K = problem.n_groups, problem.n_bits
    kidx = [0] * G
    mem, omega = problem.mem.tolist(), problem.omega.tolist()
    for j in range(problem.n_stages):
        gs = [g for g in range(G) if stage[g] == j]
        used = 0.0
        for g in gs:  # left to right, not the compensated builtin sum
            used += mem[g][0]
        slack = float(capacity[j] - used)
        while True:
            best_g, best_gain, best_cost = -1, 0.0, 0.0
            for g in gs:
                k = kidx[g]
                if k + 1 >= K:
                    continue
                cost = mem[g][k + 1] - mem[g][k]
                if cost > slack:
                    continue
                gain = omega[g][k] - omega[g][k + 1]
                if gain > best_gain:
                    best_g, best_gain, best_cost = g, gain, cost
            if best_g < 0:
                break
            kidx[best_g] += 1
            slack -= best_cost
    return kidx


def greedy_adabits(
    problem: PlanningProblem,
    quality_budget: Optional[float] = None,
) -> Optional[ILPSolution]:
    """Greedy quality-first start: capacity-proportional contiguous split,
    then per-group bit upgrades by best quality gain per stage.

    A non-ILP stand-in for the *adabits* warm start so the heuristic path
    never pays a branch-and-bound solve; the hill climb repairs any
    latency slack it leaves.
    """
    G, N = problem.n_groups, problem.n_stages
    cap = np.maximum(problem.capacity, 0.0)
    if cap.sum() <= 0:
        return None
    mem_min = problem.mem[:, 0]
    # Contiguous counts proportional to capacity, each stage non-empty.
    raw = cap / cap.sum() * G
    counts = np.maximum(np.floor(raw).astype(int), 1)
    while counts.sum() > G:
        j = int(np.argmax(counts))
        if counts[j] <= 1:
            return None
        counts[j] -= 1
    while counts.sum() < G:
        counts[int(np.argmax(raw - counts))] += 1
    # Repair min-bits overflows by shifting boundary groups outward.
    worst_group = float(mem_min.max())
    max_groups = np.floor(cap / max(worst_group, 1.0)).astype(int)
    if max_groups.sum() < G:
        return None
    for _ in range(4 * G):
        over = np.where(counts > max_groups)[0]
        if over.size == 0:
            break
        j = int(over[0])
        left = max_groups[j - 1] - counts[j - 1] if j > 0 else -1
        right = max_groups[j + 1] - counts[j + 1] if j + 1 < N else -1
        if right >= left and j + 1 < N:
            counts[j] -= 1
            counts[j + 1] += 1
        elif j > 0:
            counts[j] -= 1
            counts[j - 1] += 1
        else:
            return None
        if counts.min() < 1:
            return None
    else:
        return None
    if np.any(counts > max_groups):
        return None

    stage: List[int] = []
    for j, c in enumerate(counts):
        stage.extend([j] * int(c))
    kidx = upgrade_bits(problem, stage, cap)
    bits = tuple(problem.bit_choices[k] for k in kidx)
    quality = problem.quality_sum(bits)
    if quality_budget is not None and quality > quality_budget + 1e-12:
        return None
    return ILPSolution(
        assign_stage=tuple(stage),
        assign_bits=bits,
        objective=quality,
        latency_s=problem.latency_estimate(stage, bits),
        quality=quality,
        solve_time_s=0.0,
        status="greedy-adabits",
    )


def adabits_start(
    problem: PlanningProblem,
    quality_budget: Optional[float] = None,
    time_limit_s: float = 60.0,
) -> Optional[ILPSolution]:
    """The heuristic tier's start: :func:`greedy_adabits`, falling back to
    the exact adabits MILP only when the greedy finds no feasible start;
    ``None`` if neither does."""
    start = greedy_adabits(problem, quality_budget=quality_budget)
    if start is None:
        start = solve_adabits(
            problem, quality_budget=quality_budget, time_limit_s=time_limit_s
        )
    return start


def bitwidth_transfer(
    problem: PlanningProblem,
    theta: float = 10.0,
    quality_budget: Optional[float] = None,
    time_limit_s: float = 60.0,
    max_iters: int = 200,
    start: Optional[ILPSolution] = None,
) -> Optional[ILPSolution]:
    """Heuristic solve of one planning subproblem; ``None`` if infeasible.

    The hill climb starts from ``start`` (a caller's solution to polish)
    when it is feasible here, else from :func:`adabits_start`.
    """
    t0 = time.perf_counter()
    bit_to_k = {b: k for k, b in enumerate(problem.bit_choices)}
    objective = _objective(problem, theta, quality_budget)

    def scored(sol: ILPSolution) -> Tuple[_State, float]:
        state = _State.build(
            problem, sol.assign_stage, [bit_to_k[b] for b in sol.assign_bits]
        )
        return state, objective(state.aggregates)

    best = float("inf")
    if start is not None:
        state, best = scored(start)
    if not math.isfinite(best):
        # No caller start, or one that violates this subproblem.
        start = adabits_start(problem, quality_budget, time_limit_s)
        if start is None:
            return None
        state, best = scored(start)
        if not math.isfinite(best):
            return None

    for _ in range(max_iters):
        best_move: Optional[List[Tuple[int, int, int]]] = None
        best_val = best
        for changes in _candidate_changes(problem, state):
            val = objective(state.moved(changes))
            if val < best_val - 1e-9:
                best_val = val
                best_move = changes
        if best_move is None:
            break
        state.apply(best_move)
        best = best_val
        if time.perf_counter() - t0 > time_limit_s:
            break

    assign_stage = tuple(state.stage)
    assign_bits = tuple(problem.bit_choices[k] for k in state.kidx)
    latency = problem.latency_estimate(assign_stage, assign_bits)
    quality = problem.quality_sum(assign_bits)
    return ILPSolution(
        assign_stage=assign_stage,
        assign_bits=assign_bits,
        objective=best,
        latency_s=latency,
        quality=quality,
        solve_time_s=time.perf_counter() - t0,
        status="heuristic",
    )
