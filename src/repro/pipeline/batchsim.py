"""Batched plan-frontier evaluation: the max-plus fastsim across plans.

The planner's candidate search and the fleet beam allocator both score
*frontiers* of structurally similar plans — thousands of calls into the
closed-form fast path of :mod:`repro.pipeline.fastsim`, each paying the
Python interpreter once per (stage, job) cell.  This module stacks many
plans' duration tables into one ``(steps x stages x plans)`` tensor and
runs the same recurrence

    F[j][k] = max(F[j][k-1], A[j][k]) + dur[j][k]

across the whole frontier in a single vectorized sweep: the sequential
``k`` (and decode ``(round, micro-batch)``) loops remain Python, but each
iteration now advances *every* plan with one ``np.maximum`` + add over
the lane axis, so the interpreter cost is paid once per batch instead of
once per plan.

**Bit-exactness.**  ``np.maximum`` and elementwise float64 adds perform
the identical IEEE operations per lane that the scalar loop performs per
plan, in the identical order, so each lane's result is bit-equal to
``_fast_core`` on that plan alone — and therefore to the discrete-event
oracle.  Ragged frontiers (different stage counts, micro-batch counts,
decode horizons) are padded with *identity elements* chosen so padded
cells are exact no-ops:

- padded **stages** (``j >= n_stages``) get zero durations and zero
  arrival delay.  Finish times are nondecreasing in FIFO job order, so
  ``max(F[k-1], F_prev[k]) + 0 == F_prev[k]`` — the stage is an exact
  pass-through.
- padded **jobs / micro-batches** (``k >= n_pre``, ``m >= n_dec``) and
  **rounds** (``t >= decode_steps``) get ``-inf`` arrival contributions
  (the identity of ``max``) and zero durations: the server state is
  untouched and the cell replicates the last real finish, keeping the
  final-row / final-round reads exact.  ``x + 0.0`` and ``max(x, -inf)``
  are bit-exact identities, and ``-inf`` only ever enters arrival terms,
  never durations or finish times, so no NaNs can form.

A lane is any batch whose output lengths are all equal, the same
predicate the per-plan dispatch uses: a uniform batch always, and an
equal-lengths variable batch on its worst-case uniform view.  A member
whose requests retire mid-decode runs through ``simulate_plan_variable``
on its own, which replays it on the online fast driver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from ..hardware.cluster import ClusterSpec
from ..models.architectures import ModelSpec
from ..obs import trace
from ..plan import ExecutionPlan
from ..workloads.spec import BatchWorkload, VariableBatchWorkload
from .fastsim import PlanTables, build_plan_tables, shared_default_timing
from .stage import TimingSource
from .topology import check_plan_model

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .simulator import PipelineSimResult

__all__ = ["PlanCase", "evaluate_plans"]

_NEG_INF = float("-inf")


@dataclass(frozen=True)
class PlanCase:
    """One frontier member: a plan plus everything needed to score it."""

    plan: ExecutionPlan
    cluster: ClusterSpec
    spec: ModelSpec
    workload: Union[BatchWorkload, VariableBatchWorkload]
    #: Timing source; ``None`` uses the shared memoized roofline default
    #: (bit-identical to the per-plan default).
    timing: Optional[TimingSource] = None


def evaluate_plans(
    cases: Sequence[PlanCase],
    check_memory: bool = False,
) -> List["PipelineSimResult"]:
    """Score a frontier of plans in one vectorized sweep.

    Returns one :class:`PipelineSimResult` per case, in input order,
    bit-identical to calling ``simulate_plan`` (fast backend) on each
    case individually.  Members whose requests retire mid-decode are
    scored by ``simulate_plan_variable`` (default backend) one by one.

    ``check_memory=True`` replays the per-plan memory check in input
    order, so an infeasible member raises the same
    :class:`~repro.simgpu.memory.OutOfMemoryError` the per-plan call
    would.  The default skips it — frontier scoring is typically applied
    to already-validated candidates.
    """
    from ..costmodel.energy import plan_cost, plan_energy
    from .simulator import (
        PipelineSimResult,
        check_plan_memory,
        simulate_plan_variable,
    )

    n = len(cases)
    if n == 0:
        return []
    with trace.span("batchsim.evaluate", plans=n) as sp:
        results: List[Optional[PipelineSimResult]] = [None] * n
        lanes: List[
            Tuple[int, PlanTables, Tuple[int, ...], PlanCase, BatchWorkload]
        ] = []
        for i, case in enumerate(cases):
            plan, wl = case.plan, case.workload
            if isinstance(wl, VariableBatchWorkload):
                if len(set(wl.output_lens)) > 1:
                    results[i] = simulate_plan_variable(
                        plan, case.cluster, case.spec, wl,
                        timing=case.timing, check_memory=check_memory,
                    )
                    continue
                uniform = wl.planning_view("max")
            else:
                uniform = wl
            check_plan_model(plan, case.spec)
            stage_mem = (
                check_plan_memory(plan, case.cluster, case.spec, uniform)
                if check_memory
                else tuple(0 for _ in plan.stages)
            )
            timing = case.timing or shared_default_timing(
                case.spec, plan.bit_kv
            )
            tables = build_plan_tables(
                plan, case.cluster, case.spec, uniform, timing
            )
            lanes.append((i, tables, stage_mem, case, uniform))

        if lanes:
            prefill_span, decode_span, busy = _batched_core(
                [t for _, t, _, _, _ in lanes]
            )
            for li, (i, tables, stage_mem, case, uniform) in enumerate(lanes):
                pre = float(prefill_span[li])
                dec = float(decode_span[li])
                stage_busy = tuple(
                    float(busy[j, li]) for j in range(tables.n_stages)
                )
                # Same pure post-pass the per-plan wrappers apply
                # (attach_energy), over the same bit-identical fields ->
                # lane energy matches the event and fast backends
                # exactly; folded into construction to keep the batched
                # path's per-lane overhead minimal.
                energy = plan_energy(
                    case.plan, case.cluster, case.spec, uniform,
                    pre + dec, pre, dec, stage_busy,
                )
                results[i] = PipelineSimResult(
                    makespan_s=pre + dec,
                    prefill_span_s=pre,
                    decode_span_s=dec,
                    total_tokens=uniform.total_output_tokens,
                    stage_busy_s=stage_busy,
                    stage_memory_bytes=stage_mem,
                    events_processed=tables.events,
                    sim_backend="fast",
                    energy_j=energy,
                    cost_usd=plan_cost(
                        case.plan, case.cluster, pre + dec, energy
                    ),
                )
        sp.set(batched=len(lanes))
    return results  # type: ignore[return-value]


def _batched_core(
    tables: Sequence[PlanTables],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run the max-plus recurrence over all lanes at once.

    Returns ``(prefill_span, decode_span, busy)`` with shapes ``(N,)``,
    ``(N,)`` and ``(s_max, N)``; lane ``n``'s entries are bit-equal to
    ``_fast_core(tables[n])``.

    The hot decode loop advances a stacked ``[finish; busy]`` state per
    stage in exactly two ufunc calls per (round, stage, micro-batch)
    cell: the busy row rides along with a ``-inf`` arrival (the identity
    of ``max``) and the same duration added, so it accumulates the
    identical IEEE addition chain the scalar path performs.
    """
    n = len(tables)
    s_max = max(t.n_stages for t in tables)
    p_max = max(t.n_pre for t in tables)

    # -- prefill ---------------------------------------------------------
    # D[j, k, n]: duration of job k at stage j on lane n (0 when padded).
    # C[j-1, k, n]: arrival delay into stage j.  Real links carry the
    # link time for real jobs and -inf for padded jobs (so replicated
    # finishes never advance arrivals); padded pass-through stages carry
    # 0 so arrivals equal the upstream finish exactly.
    dur = np.zeros((s_max, p_max, n), dtype=np.float64)
    comm = np.zeros((max(s_max - 1, 0), p_max, n), dtype=np.float64)
    for li, t in enumerate(tables):
        for j in range(t.n_stages):
            dur[j, : t.n_pre, li] = t.pre_dur[j]
        for j in range(1, t.n_stages):
            comm[j - 1, : t.n_pre, li] = t.pre_comm[j - 1]
            comm[j - 1, t.n_pre:, li] = _NEG_INF

    # Stage 0: zero arrivals, finishes are a running sum per lane
    # (np.cumsum accumulates sequentially along the axis — the same
    # addition chain the scalar path performs).  Padded jobs add 0, so
    # the final row replicates each lane's real final finish.  Busy
    # times are per-stage sequential sums of the same durations, again
    # via cumsum so the addition order matches the scalar loop.
    prev = np.cumsum(dur[0], axis=0)
    busy = np.ascontiguousarray(np.cumsum(dur, axis=1)[:, -1, :])
    free = np.zeros((s_max, n), dtype=np.float64)
    free[0] = prev[-1]
    out = np.empty((p_max, n), dtype=np.float64)
    zero = np.zeros(n, dtype=np.float64)
    for j in range(1, s_max):
        arrivals = prev + comm[j - 1]
        dj = dur[j]
        f = zero
        for k in range(p_max):
            np.maximum(f, arrivals[k], out=out[k])
            out[k] += dj[k]
            f = out[k]
        free[j] = f
        prev, out = out, prev
    prefill_span = prev[-1].copy()

    # -- decode ----------------------------------------------------------
    t_max = max(t.decode_steps for t in tables)
    decode_span = np.zeros(n, dtype=np.float64)
    if t_max > 0:
        m_max = max((t.n_dec for t in tables if t.decode_steps > 0),
                    default=0)
        # dd[t, j, m, n]: decode duration (0 when padded in any axis).
        dd = np.zeros((t_max, s_max, m_max, n), dtype=np.float64)
        # cd[j-1, m, n]: forward link delay into stage j (0 at
        # pass-through stages; padded micro-batch rows are neutralized
        # by the replicated-finish argument, see module docstring).
        cd = np.zeros((max(s_max - 1, 0), m_max, n), dtype=np.float64)
        # fb[m, n]: feedback delay (-inf for padded micro-batches).
        fb = np.full((m_max, n), _NEG_INF, dtype=np.float64)
        # pad[t, n]: 0 while the lane still decodes, -inf afterwards —
        # folded into the per-round link/feedback terms so retired lanes
        # freeze exactly (``x + 0.0`` leaves active-lane delays
        # bit-unchanged before they are added to finishes).
        pad = np.full((t_max, n), _NEG_INF, dtype=np.float64)
        # arr0[m, n]: round-0 arrivals at stage 0 (the prefill span).
        arr0 = np.full((m_max, n), _NEG_INF, dtype=np.float64)
        for li, t in enumerate(tables):
            if t.decode_steps <= 0:
                continue
            steps, m_n = t.decode_steps, t.n_dec
            pad[:steps, li] = 0.0
            arr0[:m_n, li] = prefill_span[li]
            fb[:m_n, li] = t.fb_m
            dd[:steps, : t.n_stages, :m_n, li] = (
                t.decode_array().transpose(2, 0, 1)
            )
            for j in range(1, t.n_stages):
                cd[j - 1, :m_n, li] = t.comm_jm[j - 1]

        # Stacked per-stage state: row 0 is the server's free time, row
        # 1 its busy total; arrivals for the busy row are -inf.
        st = np.empty((s_max, 2, n), dtype=np.float64)
        st[:, 0, :] = free
        st[:, 1, :] = busy
        arr = np.empty((m_max, 2, n), dtype=np.float64)
        arr[:, 1, :] = _NEG_INF
        buf_a = np.empty((m_max, 2, n), dtype=np.float64)
        buf_b = np.empty((m_max, 2, n), dtype=np.float64)
        arr0_view = arr[:, 0, :]
        np.copyto(arr0_view, arr0)
        finishes0 = arr0  # row-0 finishes of the last processed stage
        for tt in range(t_max):
            pad_t = pad[tt]
            cdp = cd + pad_t
            dt = dd[tt]
            for j in range(s_max):
                if j > 0:
                    np.add(finishes0, cdp[j - 1], out=arr0_view)
                dview = np.broadcast_to(
                    dt[j][:, None, :], (m_max, 2, n)
                )
                s2 = st[j]
                nxt = buf_a
                for m in range(m_max):
                    np.maximum(s2, arr[m], out=nxt[m])
                    nxt[m] += dview[m]
                    s2 = nxt[m]
                st[j] = s2
                finishes0 = nxt[:, 0, :]
                buf_a, buf_b = buf_b, buf_a
            if tt + 1 < t_max:
                np.add(finishes0, fb + pad[tt + 1], out=arr0_view)
        # Rows beyond a lane's real micro-batches replicate its last
        # real finish, and rounds beyond its horizon freeze state, so
        # the column max is exactly the scalar path's max(finishes);
        # zero-decode lanes carried the prefill span through and land on
        # an exact 0.0 span.
        decode_span = finishes0.max(axis=0) - prefill_span
        busy = np.ascontiguousarray(st[:, 1, :])

    return prefill_span, decode_span, busy
