"""Differential test of the partition-MILP assembler.

``core.ilp._build_milp`` fills a per-shape cached sparsity pattern with
vectorized values.  ``_loop_build`` below is the per-element reference
it replaced: quadruple Python loops writing ``lil_matrix`` blocks.  For
every problem, the arrays scipy's ``milp`` hands to HiGHS must be
byte-identical between the two, so every LP bound, MILP solution and
chosen plan stays bit-identical by construction.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from scipy.optimize import Bounds, LinearConstraint
from scipy.sparse import csc_array, lil_matrix, vstack

from repro.core import PlannerConfig, SplitQuantPlanner, StageGroup, build_problem
from repro.core.enumeration import candidate_orderings
from repro.core.ilp import _build_milp, _pattern
from repro.costmodel.latency import LatencyCostModel
from repro.hardware import make_cluster, table_iii_cluster
from repro.quant import normalized_indicator_table
from repro.simgpu import Profiler
from repro.workloads import BatchWorkload

BITS = (3, 4, 8, 16)


def _loop_build(problem, theta, quality_budget, latency_objective=True):
    """The per-element reference assembler (same contract as _build_milp)."""
    G, N, K = problem.n_groups, problem.n_stages, problem.n_bits
    n = problem.workload.output_len
    nz = G * N * K
    i_pre, i_dec, i_d = nz, nz + 1, nz + 2
    nvars = nz + 3

    def zidx(g, j, k):
        return (g * N + j) * K + k

    c = np.zeros(nvars)
    for g in range(G):
        for j in range(N):
            for k in range(K):
                idx = zidx(g, j, k)
                if latency_objective:
                    c[idx] = problem.l_pre[g, j, k] + theta * problem.omega[g, k]
                else:
                    c[idx] = problem.omega[g, k] + 1e-4 * (
                        problem.l_pre[g, j, k] + problem.l_dec[g, j, k]
                    )
    if latency_objective:
        c[i_pre] = max(problem.prefill_jobs - 1, 0)
        c[i_d] = 1.0

    constraints = []
    a = lil_matrix((G, nvars))
    for g in range(G):
        for j in range(N):
            for k in range(K):
                a[g, zidx(g, j, k)] = 1.0
    constraints.append(LinearConstraint(a.tocsr(), 1.0, 1.0))

    if latency_objective:
        for table, col, const in (
            (problem.l_pre, i_pre, problem.const_pre),
            (problem.l_dec, i_dec, problem.const_dec),
        ):
            a = lil_matrix((N, nvars))
            ub = np.zeros(N)
            for j in range(N):
                for g in range(G):
                    for k in range(K):
                        a[j, zidx(g, j, k)] = table[g, j, k]
                a[j, col] = -1.0
                ub[j] = -const[j]
            constraints.append(LinearConstraint(a.tocsr(), -np.inf, ub))

        a = lil_matrix((2, nvars))
        ub = np.zeros(2)
        a[0, i_dec] = (n - 1) * problem.mu_dec
        a[0, i_d] = -1.0
        for g in range(G):
            for j in range(N):
                for k in range(K):
                    a[1, zidx(g, j, k)] = (n - 1) * problem.l_dec[g, j, k]
        a[1, i_d] = -1.0
        ub[1] = -(n - 1) * (
            float(problem.const_dec.sum()) + float(problem.comm_dec.sum())
        )
        constraints.append(LinearConstraint(a.tocsr(), -np.inf, ub))

    a = lil_matrix((N, nvars))
    for j in range(N):
        for g in range(G):
            for k in range(K):
                a[j, zidx(g, j, k)] = problem.mem[g, k]
    constraints.append(LinearConstraint(a.tocsr(), -np.inf, problem.capacity))

    if N > 1 and G > 1:
        a = lil_matrix(((G - 1) * (N - 1), nvars))
        row = 0
        for g in range(G - 1):
            for j in range(N - 1):
                for jj in range(j + 1):
                    for k in range(K):
                        a[row, zidx(g, jj, k)] = 1.0
                        a[row, zidx(g + 1, jj, k)] = -1.0
                row += 1
        constraints.append(LinearConstraint(a.tocsr(), 0.0, np.inf))

    if N > 1:
        a = lil_matrix((N, nvars))
        for j in range(N):
            for g in range(G):
                for k in range(K):
                    a[j, zidx(g, j, k)] = 1.0
        constraints.append(LinearConstraint(a.tocsr(), 1.0, np.inf))

    if quality_budget is not None:
        a = lil_matrix((1, nvars))
        for g in range(G):
            for j in range(N):
                for k in range(K):
                    a[0, zidx(g, j, k)] = problem.omega[g, k]
        constraints.append(LinearConstraint(a.tocsr(), -np.inf, quality_budget))

    integrality = np.zeros(nvars)
    integrality[:nz] = 1
    lb = np.zeros(nvars)
    ub_v = np.full(nvars, np.inf)
    ub_v[:nz] = 1.0
    if problem.comm_pre.size:
        lb[i_pre] = float(problem.comm_pre.max())
        lb[i_dec] = float(problem.comm_dec.max())
    return c, constraints, integrality, Bounds(lb, ub_v)


def _highs_input(c, constraints, integrality, bounds):
    """The arrays HiGHS receives, stacked to CSC the way ``milp`` does."""
    blocks = [csc_array(con.A) for con in constraints]
    a = vstack(blocks, format="csc") if len(blocks) > 1 else blocks[0]
    return {
        "c": c,
        "integrality": integrality,
        "bounds.lb": bounds.lb,
        "bounds.ub": bounds.ub,
        "indptr": a.indptr,
        "indices": a.indices,
        "data": a.data,
        "lb": np.concatenate([con.lb for con in constraints]),
        "ub": np.concatenate([con.ub for con in constraints]),
    }


def _assert_byte_identical(problem, **kwargs):
    got = _highs_input(*_build_milp(problem, **kwargs))
    want = _highs_input(*_loop_build(problem, **kwargs))
    for name, ref in want.items():
        arr = got[name]
        assert arr.dtype == ref.dtype, name
        assert arr.shape == ref.shape, name
        assert arr.tobytes() == ref.tobytes(), name


@pytest.fixture(scope="module")
def grid(opt30b):
    """Planning problems keyed by (stages, groups, output_len)."""
    clusters = {
        1: make_cluster("one-v100", [("V100-32G", 1)]),
        2: make_cluster("t4-v100", [("T4-16G", 1), ("V100-32G", 1)]),
        4: table_iii_cluster(5),
    }
    cm = LatencyCostModel(opt30b)
    cm.fit(
        sorted({d.gpu for d in clusters[4].devices}, key=lambda g: g.name),
        BITS,
        Profiler(seed=3),
    )
    omega = normalized_indicator_table(opt30b, BITS)
    problems = {}
    for n_stages, cluster in clusters.items():
        ordering = tuple(
            StageGroup(device_ids=(d.device_id,), gpu=d.gpu)
            for d in cluster.devices
        )
        for group_size in (48, 24, 3):  # 48 layers -> 1, 2, 16 groups
            for out in (32, 1):
                p = build_problem(
                    opt30b, cluster, ordering,
                    BatchWorkload(batch=8, prompt_len=256, output_len=out),
                    cm, omega, eta=4, xi=2, bit_choices=BITS,
                    group_size=group_size,
                )
                problems[n_stages, p.n_groups, out] = p
    return problems


@pytest.mark.parametrize("budget", [None, 7.5])
@pytest.mark.parametrize("latency_objective", [True, False])
@pytest.mark.parametrize("out", [32, 1])
@pytest.mark.parametrize("groups", [1, 2, 16])
@pytest.mark.parametrize("stages", [1, 2, 4])
def test_assembly_byte_identical(
    grid, stages, groups, out, latency_objective, budget
):
    problem = grid[stages, groups, out]
    _assert_byte_identical(
        problem,
        theta=10.0,
        quality_budget=budget,
        latency_objective=latency_objective,
    )


def test_grid_exercises_zero_dropping(grid):
    """16-bit omega is exactly 0 and n == 1 zeroes the span row."""
    problem = grid[4, 16, 1]
    assert problem.omega[:, BITS.index(16)].max() == 0.0
    _, constraints, _, _ = _build_milp(problem, 10.0, 7.5)
    (con,) = constraints
    _, _, src, _, _ = _pattern(16, 4, len(BITS), True, True)
    assert con.A.nnz < src.size


def test_table_vi_cluster5_problem(opt30b):
    """A problem exactly as the Table-VI plan builds it (TP groups incl.)."""
    cluster = table_iii_cluster(5)
    base = PlannerConfig(
        group_size=3,
        max_orderings=6,
        microbatch_candidates=(8, 16, 32),
        verify_top_k=1,
    )
    planner = SplitQuantPlanner(opt30b, cluster, base)
    cfg = dataclasses.replace(base, quality_budget=planner.uniform_quality(4))
    workload = BatchWorkload(batch=64, prompt_len=512, output_len=128)
    for ordering in candidate_orderings(cluster, max_orderings=2):
        problem = build_problem(
            opt30b, cluster, ordering, workload, planner.cost_model,
            planner.omega_layers, 16, 8, cfg.bit_choices,
            group_size=cfg.group_size,
        )
        for latency_objective in (True, False):
            _assert_byte_identical(
                problem,
                theta=cfg.theta,
                quality_budget=cfg.quality_budget,
                latency_objective=latency_objective,
            )
