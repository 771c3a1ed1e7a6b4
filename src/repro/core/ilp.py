"""The joint partition + bitwidth ILP (objective (4), constraints (5)-(16)).

Decision variables ``z[g, j, k]`` place layer group ``g`` on stage ``j``
at bitwidth ``bit_choices[k]``; continuous epigraph variables model the
slowest-stage times and the decode-span max.  Solved with HiGHS through
``scipy.optimize.milp`` (the GUROBI substitute), honoring a wall-clock
time limit like the paper's 60 s solver budget (Sec. VI-F).

The *adabits* variant (pure adaptive quantization, Sec. IV-C / VI-H)
drops the latency terms and minimizes the quality indicator alone under
the same memory/contiguity constraints.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, linprog, milp
from scipy.sparse import csc_array, vstack

from ..obs import trace
from .costs import PlanningProblem


@contextlib.contextmanager
def _silenced_stdout():
    """Mute HiGHS's C-level debug chatter during a solve.

    Some HiGHS builds print internal diagnostics straight to fd 1, which
    scipy's ``disp=False`` cannot suppress.  Solves run serially, so fd 1
    is saved, pointed at ``/dev/null`` and restored around each one.
    """
    try:
        saved = os.dup(1)
    except OSError:  # exotic environments without a real fd 1
        saved = None
    if saved is None:
        yield
        return
    try:
        with open(os.devnull, "wb") as devnull:
            os.dup2(devnull.fileno(), 1)
        yield
    finally:
        os.dup2(saved, 1)
        os.close(saved)


@dataclass(frozen=True)
class ILPSolution:
    """A solved planning subproblem."""

    #: Stage index per layer group.
    assign_stage: Tuple[int, ...]
    #: Bitwidth per layer group.
    assign_bits: Tuple[int, ...]
    objective: float
    latency_s: float
    quality: float
    solve_time_s: float
    status: str


@functools.lru_cache(maxsize=64)
def _pattern(
    G: int, N: int, K: int, latency_objective: bool, budgeted: bool
) -> Tuple[np.ndarray, ...]:
    """Sparsity pattern of constraints (5)-(16) for one problem shape.

    ``z[g, j, k]`` is column ``(g * N + j) * K + k`` -- the C order of a
    ``(G, N, K)`` array -- followed by ``T_pre_max``, ``T_dec_max`` and
    ``D``.  Returns read-only ``(lb, ub_src, src, indices, indptr)``: the
    row lower bounds, each row's index into the upper-bound sources and,
    per nonzero in CSC order, its index into the value sources and its
    row.  :func:`_build_milp` lays out both source vectors.
    """
    nz = G * N * K
    i_pre, i_dec, i_d = nz, nz + 1, nz + 2
    one, minus, mu = 0, 1, 2  # value sources, then five (G, N, K) arrays
    l_pre, l_dec, span, mem, omega = 3 + nz * np.arange(5)
    ub_one, ub_inf, ub_zero, ub_span, ub_budget = range(5)  # bound sources,
    ub_pre, ub_dec, ub_cap = 5 + N * np.arange(3)  # then three (N,) arrays
    z = np.arange(nz)
    gz, jz, _ = np.unravel_index(z, (G, N, K))
    stages = np.arange(N)
    # Blocks in row order: (rows, lb, ub source, [(row, col, source)]),
    # rows counted from the block's first row.
    blocks = [(G, 1.0, ub_one, [(gz, z, one)])]  # (9)-(11): one slot/group
    if latency_objective:
        # (5)-(6): T_pre_max / T_dec_max >= per-stage time.
        blocks += [
            (N, -np.inf, ub + stages, [(jz, z, t + z), (stages, col, minus)])
            for ub, t, col in ((ub_pre, l_pre, i_pre), (ub_dec, l_dec, i_dec))
        ]
        # Decode span D >= bottleneck bound and >= round-trip bound.
        blocks.append((2, -np.inf, [ub_zero, ub_span], [
            (0, i_dec, mu), (0, i_d, minus), (1, z, span + z), (1, i_d, minus),
        ]))
    # (12)-(13): per-stage memory.
    blocks.append((N, -np.inf, ub_cap + stages, [(jz, z, mem + z)]))
    if N > 1 and G > 1:
        # (15)-(16): contiguity -- row (g, j) is the stage-<=j mass of
        # group g minus that of group g + 1, which must stay >= 0.
        g, j, jj, k = np.nonzero(np.broadcast_to(
            (stages <= stages[: N - 1, None])[None, :, :, None],
            (G - 1, N - 1, N, K),
        ))
        row, col = g * (N - 1) + j, (g * N + jj) * K + k
        blocks.append(((G - 1) * (N - 1), 0.0, ub_inf, [
            (row, col, one), (row, col + N * K, minus),
        ]))
    if N > 1:  # every stage holds at least one group
        blocks.append((N, 1.0, ub_inf, [(jz, z, one)]))
    if budgeted:  # optional hard quality budget (Sec. VI-C mode)
        blocks.append((1, -np.inf, ub_budget, [(0, z, omega + z)]))

    rows, cols, srcs, lbs, ub_srcs = [], [], [], [], []
    n_rows = 0
    for n, lb, ub_src, entries in blocks:
        for row, col, src in entries:
            row, col, src = map(np.ravel, np.broadcast_arrays(row, col, src))
            rows.append(n_rows + row)
            cols.append(col)
            srcs.append(src)
        lbs.append(np.full(n, lb))
        ub_srcs.append(np.broadcast_to(ub_src, n))
        n_rows += n
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    perm = np.lexsort((rows, cols))
    pattern = (
        np.concatenate(lbs),
        np.concatenate(ub_srcs),
        np.concatenate(srcs)[perm],
        rows[perm].astype(np.int32),
        np.searchsorted(cols[perm], np.arange(nz + 4)).astype(np.int32),
    )
    for arr in pattern:
        arr.flags.writeable = False  # shared by every build of this shape
    return pattern


def _build_milp(
    problem: PlanningProblem,
    theta: float,
    quality_budget: Optional[float],
    latency_objective: bool = True,
) -> Tuple[np.ndarray, List[LinearConstraint], np.ndarray, Bounds]:
    """Assemble objective (4) + constraints (5)-(16) for one subproblem.

    Shared between the exact branch-and-bound solve and the LP relaxation
    the search engine uses as an admissible pruning bound — both must see
    bit-identical matrices for the bound to be sound.  The sparsity
    pattern is cached per shape; only the values are computed here.
    """
    G, N, K = problem.n_groups, problem.n_stages, problem.n_bits
    n = problem.workload.output_len
    nz = G * N * K
    nvars, i_pre, i_dec, i_d = nz + 3, nz, nz + 1, nz + 2
    lb, ub_src, src, indices, indptr = _pattern(
        G, N, K, latency_objective, quality_budget is not None
    )
    omega = np.broadcast_to(problem.omega[:, None, :], (G, N, K))

    c = np.zeros(nvars)
    if latency_objective:
        c[:nz] = (problem.l_pre + theta * omega).ravel()
        c[i_pre] = max(problem.prefill_jobs - 1, 0)
        c[i_d] = 1.0
    else:
        # Tiny latency tie-breaker: the quality-only problem has a large
        # plateau of symmetric optima that stalls branch-and-bound;
        # epsilon-perturbing with layer costs breaks the symmetry without
        # changing the quality optimum materially.
        c[:nz] = (omega + 1e-4 * (problem.l_pre + problem.l_dec)).ravel()

    # The value and upper-bound sources _pattern indexes.
    values = np.concatenate((
        [1.0, -1.0, (n - 1) * problem.mu_dec],
        problem.l_pre.ravel(),
        problem.l_dec.ravel(),
        ((n - 1) * problem.l_dec).ravel(),
        np.broadcast_to(problem.mem[:, None, :], (G, N, K)).ravel(),
        omega.ravel(),
    ))
    span_ub = -(n - 1) * (
        float(problem.const_dec.sum()) + float(problem.comm_dec.sum())
    )
    budget = np.inf if quality_budget is None else quality_budget
    bounds = np.concatenate((
        [1.0, np.inf, 0.0, span_ub, budget],
        -problem.const_pre, -problem.const_dec, problem.capacity,
    ))
    data = values[src]
    keep = data != 0
    if not keep.all():  # store no explicit zeros (16-bit omega, n == 1)
        data, indices = data[keep], indices[keep]
        indptr = np.cumsum(np.append(False, keep), dtype=np.int32)[indptr]
    a = csc_array((data, indices, indptr), shape=(lb.size, nvars))
    constraints = [LinearConstraint(a, lb, bounds[ub_src])]

    integrality = np.zeros(nvars)
    integrality[:nz] = 1
    lb_v = np.zeros(nvars)
    ub_v = np.full(nvars, np.inf)
    ub_v[:nz] = 1.0
    if problem.comm_pre.size:
        lb_v[i_pre] = float(problem.comm_pre.max())
        lb_v[i_dec] = float(problem.comm_dec.max())
    return c, constraints, integrality, Bounds(lb_v, ub_v)


def solve_partition_ilp(
    problem: PlanningProblem,
    theta: float = 10.0,
    quality_budget: Optional[float] = None,
    time_limit_s: float = 60.0,
    latency_objective: bool = True,
) -> Optional[ILPSolution]:
    """Solve one planning subproblem; ``None`` when infeasible.

    ``latency_objective=False`` yields the *adabits* problem: minimize the
    quality indicator only (the latency epigraphs are dropped).

    HiGHS presolve follows the problem shape.  The latency MILPs close
    at the root node, where presolve costs about half the solve, so it
    is off.  The quality-only MILPs keep it: without it they take
    nearly three times as long.
    """
    t0 = time.perf_counter()
    G, N, K = problem.n_groups, problem.n_stages, problem.n_bits
    nz = G * N * K
    c, constraints, integrality, bounds = _build_milp(
        problem, theta, quality_budget, latency_objective
    )

    with trace.span(
        "ilp.solve",
        groups=G,
        stages=N,
        bits=K,
        mode="latency" if latency_objective else "adabits",
        budgeted=quality_budget is not None,
    ) as sp:
        with _silenced_stdout():
            res = milp(
                c,
                constraints=constraints,
                integrality=integrality,
                bounds=bounds,
                options={
                    "time_limit": time_limit_s,
                    "mip_rel_gap": 1e-4,
                    "presolve": not latency_objective,
                },
            )
        sp.set(status=int(res.status), feasible=res.x is not None)
    solve_time = time.perf_counter() - t0
    if res.x is None:
        return None

    z = res.x[:nz].reshape(G, N, K)
    assign_stage: List[int] = []
    assign_bits: List[int] = []
    for g in range(G):
        j, k = np.unravel_index(int(np.argmax(z[g])), (N, K))
        assign_stage.append(int(j))
        assign_bits.append(int(problem.bit_choices[k]))
    latency = problem.latency_estimate(assign_stage, assign_bits)
    quality = problem.quality_sum(assign_bits)
    return ILPSolution(
        assign_stage=tuple(assign_stage),
        assign_bits=tuple(assign_bits),
        objective=float(res.fun),
        latency_s=latency,
        quality=quality,
        solve_time_s=solve_time,
        status="optimal" if res.status == 0 else f"status-{res.status}",
    )


def solve_adabits(
    problem: PlanningProblem,
    quality_budget: Optional[float] = None,
    time_limit_s: float = 60.0,
) -> Optional[ILPSolution]:
    """Pure adaptive quantization: best quality that fits (no latency)."""
    return solve_partition_ilp(
        problem,
        theta=1.0,
        quality_budget=quality_budget,
        time_limit_s=time_limit_s,
        latency_objective=False,
    )


def _row_senses(
    lb: np.ndarray, ub: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Masks of the ``<=``, ``>=`` and ``==`` rows of :func:`_build_milp`.

    Rows with both bounds infinite (an ``inf`` quality budget) are in
    none of them: they constrain nothing and carry no multiplier.
    """
    le = np.isinf(lb) & np.isfinite(ub)
    ge = np.isfinite(lb) & np.isinf(ub)
    return le, ge, np.isfinite(lb) & np.isfinite(ub)


def solve_partition_lp_relaxation(
    problem: PlanningProblem,
    theta: float = 10.0,
    quality_budget: Optional[float] = None,
    time_limit_s: float = 60.0,
) -> Tuple[Optional[float], Optional[np.ndarray]]:
    """LP relaxation of the partition MILP: an admissible score bound.

    Every feasible integer assignment scores
    ``latency + theta * quality  =  c @ z  +  sum(const_pre) +
    sum(comm_pre)`` (the epigraph variables are tight at a minimizer and
    the prefill constants/communication enter the score but not the
    objective vector), so the relaxation's optimum plus those constants
    lower-bounds the score of *any* solution a per-candidate solve can
    return.  Returns ``(bound, multipliers)``: the bound is ``inf`` when
    the relaxation is provably infeasible (the integer problem then is
    too) and ``None`` when no bound could be computed (e.g. the LP hit
    the time limit) — callers must not prune on ``None``.  On an optimal
    solve the multipliers are the row duals in :func:`_build_milp`'s row
    space (``>= 0`` on ``<=`` rows, ``<= 0`` on ``>=`` rows, 0 on the
    one-slot rows), ready for :func:`lagrangian_bound`; otherwise
    ``None``.
    """
    c, (con,), _, bounds = _build_milp(
        problem, theta, quality_budget, latency_objective=True
    )
    le, ge, eq = _row_senses(con.lb, con.ub)
    a = con.A.tocsr()
    with trace.span(
        "ilp.lp_relaxation",
        groups=problem.n_groups,
        stages=problem.n_stages,
        budgeted=quality_budget is not None,
    ) as sp:
        with _silenced_stdout():
            # ``linprog`` (unlike ``milp``) reports row marginals; HiGHS
            # presolve is off so they come back for every row.
            res = linprog(
                c,
                A_ub=vstack((a[le], -a[ge])),
                b_ub=np.concatenate((con.ub[le], -con.lb[ge])),
                A_eq=a[eq],
                b_eq=con.lb[eq],
                bounds=np.column_stack((bounds.lb, bounds.ub)),
                method="highs",
                options={"presolve": False, "time_limit": time_limit_s},
            )
        sp.set(status=int(res.status))
    if res.status == 2:  # LP infeasible => the ILP is infeasible as well
        return float("inf"), None
    if res.status != 0:  # a time/iteration-limited point over-estimates
        return None, None
    marginals = res.ineqlin.marginals  # d(objective) / d(b_ub) <= 0
    n_le = int(le.sum())
    multipliers = np.zeros(con.lb.size)
    multipliers[le] = -marginals[:n_le]
    multipliers[ge] = marginals[n_le:]
    bound = float(res.fun) + float(
        problem.const_pre.sum() + problem.comm_pre.sum()
    )
    return bound, multipliers


def lagrangian_bound(
    problem: PlanningProblem,
    theta: float,
    quality_budget: Optional[float],
    multipliers: np.ndarray,
) -> float:
    """Closed-form admissible score bound from any row multipliers.

    ``multipliers`` is one vector in :func:`_build_milp`'s row space, or
    a 2-D stack of such vectors; the result is the best bound over the
    stack.  Each vector is first clipped to its rows' signs (``>= 0`` on
    ``<=`` rows, ``<= 0`` on ``>=`` rows, 0 elsewhere), so every
    multiplied row term is ``<= 0`` at any feasible point.  Dualizing all
    rows but the one-slot rows leaves ``min  (c + y A) x - y b`` over one
    (stage, bit) slot per group and the epigraph columns' bounds.  For the
    epigraph columns (D, then T_dec, then T_pre) the multipliers of rows
    with a negative coefficient are shrunk until the reduced cost is
    ``>= 0``, so the minimum sits at the column's lower bound.  By weak
    duality the result lower-bounds the LP relaxation, and with it the
    score of every feasible assignment, for *any* multipliers; a
    candidate's own LP multipliers reproduce its LP bound.
    """
    c, (con,), _, bounds = _build_milp(
        problem, theta, quality_budget, latency_objective=True
    )
    a = con.A
    le, ge, _ = _row_senses(con.lb, con.ub)
    y = np.atleast_2d(multipliers)
    y = np.where(le, np.maximum(y, 0.0), np.where(ge, np.minimum(y, 0.0), 0.0))
    rhs = np.where(le, con.ub, np.where(ge, con.lb, 0.0))
    G, N, K = problem.n_groups, problem.n_stages, problem.n_bits
    nz = G * N * K
    for col in (nz + 2, nz + 1, nz):  # D, T_dec, T_pre
        rows = a.indices[a.indptr[col]:a.indptr[col + 1]]
        terms = y[:, rows] * a.data[a.indptr[col]:a.indptr[col + 1]]
        gain = c[col] + np.maximum(terms, 0.0).sum(axis=1)
        loss = -np.minimum(terms, 0.0).sum(axis=1)
        shrink = loss > gain  # gain >= c[col] >= 0, so loss > 0 here
        scale = np.ones(len(y))
        scale[shrink] = gain[shrink] / loss[shrink]
        y[:, rows] *= np.where(terms < 0, scale[:, None], 1.0)
    reduced = c + (a.T @ y.T).T
    bound = (
        reduced[:, :nz].reshape(-1, G, N * K).min(axis=2).sum(axis=1)
        + reduced[:, nz:] @ bounds.lb[nz:]
        - y @ rhs
        + float(problem.const_pre.sum() + problem.comm_pre.sum())
    )
    return float(bound.max())
