"""Reference oracle for the bitwidth-transfer hill climb.

The apply / score / revert climb that
:func:`repro.core.heuristic.bitwidth_transfer` used before it scored
moves without mutating its state: every candidate move is applied to
numpy per-stage accumulators, scored by numpy reductions and reverted.
It is slow but direct, so ``tests/test_heuristic_differential.py``
checks that the production climb picks the same plans.  Test-only: keep
it here, out of ``src/``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.costs import PlanningProblem
from repro.core.heuristic import adabits_start
from repro.core.ilp import ILPSolution


@dataclass
class _State:
    """Assignment plus incrementally-maintained per-stage aggregates.

    ``tables`` holds the problem's ``l_pre``/``l_dec``/``mem``/``omega``
    as nested lists: the same float64 values, but read without numpy's
    per-scalar indexing cost in the hill climb's inner loop.
    """

    stage: List[int]
    kidx: List[int]  # bit-choice index per group
    t_pre: np.ndarray
    t_dec: np.ndarray
    mem: np.ndarray
    quality: float
    tables: Tuple[list, list, list, list]

    @classmethod
    def build(
        cls, problem: PlanningProblem, stage: Sequence[int], kidx: Sequence[int]
    ) -> "_State":
        state = cls(
            stage=list(stage),
            kidx=list(kidx),
            t_pre=problem.const_pre.copy(),
            t_dec=problem.const_dec.copy(),
            mem=np.zeros(problem.n_stages),
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

    def apply(self, changes: Sequence[Tuple[int, int, int]]) -> None:
        """Apply ``(group, new_stage, new_kidx)`` changes in place."""
        l_pre, l_dec, mem, omega = self.tables
        t_pre, t_dec, used = self.t_pre, self.t_dec, self.mem
        for g, nj, nk in changes:
            oj, ok = self.stage[g], self.kidx[g]
            t_pre[oj] -= l_pre[g][oj][ok]
            t_dec[oj] -= l_dec[g][oj][ok]
            used[oj] -= mem[g][ok]
            self.quality -= omega[g][ok]
            t_pre[nj] += l_pre[g][nj][nk]
            t_dec[nj] += l_dec[g][nj][nk]
            used[nj] += mem[g][nk]
            self.quality += omega[g][nk]
            self.stage[g] = nj
            self.kidx[g] = nk

    def revert(
        self,
        changes: Sequence[Tuple[int, int, int]],
        saved: Sequence[Tuple[int, int]],
    ) -> None:
        self.apply(
            [(g, oj, ok) for (g, _, _), (oj, ok) in zip(changes, saved)]
        )


def _objective(
    problem: PlanningProblem,
    theta: float,
    quality_budget: Optional[float],
) -> Callable[[_State], float]:
    """The ILP's objective on a state's aggregates (``inf`` past memory or
    the quality budget), with the per-problem terms computed once."""
    capacity = problem.capacity + 1e-6
    comm_pre_max = float(problem.comm_pre.max()) if problem.comm_pre.size else 0.0
    comm_dec_max = float(problem.comm_dec.max()) if problem.comm_dec.size else 0.0
    comm_pre_sum = problem.comm_pre.sum()
    comm_dec_sum = problem.comm_dec.sum()
    pre_waits = problem.prefill_jobs - 1
    dec_steps = problem.workload.output_len - 1
    mu_dec = problem.mu_dec

    def value(state: _State) -> float:
        if quality_budget is not None and state.quality > quality_budget + 1e-12:
            return float("inf")
        if (state.mem > capacity).any():
            return float("inf")
        pre_bottleneck = max(float(state.t_pre.max()), comm_pre_max)
        prefill_span = (
            float(state.t_pre.sum() + comm_pre_sum) + pre_waits * pre_bottleneck
        )
        dec_bottleneck = max(float(state.t_dec.max()), comm_dec_max)
        round_trip = float(state.t_dec.sum() + comm_dec_sum)
        decode_span = dec_steps * max(mu_dec * dec_bottleneck, round_trip)
        return prefill_span + decode_span + theta * state.quality

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
        return state, objective(state)

    best = float("inf")
    if start is not None:
        state, best = scored(start)
    if not np.isfinite(best):
        # No caller start, or one that violates this subproblem.
        start = adabits_start(problem, quality_budget, time_limit_s)
        if start is None:
            return None
        state, best = scored(start)
        if not np.isfinite(best):
            return None

    for _ in range(max_iters):
        best_move: Optional[List[Tuple[int, int, int]]] = None
        best_val = best
        for changes in _candidate_changes(problem, state):
            saved = [(state.stage[g], state.kidx[g]) for g, _, _ in changes]
            state.apply(changes)
            val = objective(state)
            state.revert(changes, saved)
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
