"""Closed-form steady-state fast path for the pipeline simulator.

The discrete-event driver (:mod:`repro.pipeline.online`, also the offline
``"event"`` backend) executes one heap event per (micro-batch, stage,
step) job.  For the uniform micro-batch schedules the paper's offline
serving model produces, that event ordering is fully determined in
advance, so the same finish times admit a closed-form recurrence — the
trick Vidur-class LLM-serving simulators use to stay fast at fleet scale.

**Why the recurrence is exact.**  Every stage is a FIFO server whose jobs
arrive from exactly one upstream source (stage ``j-1`` forward, or the
last stage's feedback for stage 0 in decode), and finish times at a FIFO
server are nondecreasing in submission order, with event-loop ties broken
by the submission counter.  By induction the global service order at
every stage is the lexicographic job order — flat ``(micro-batch, chunk)``
for prefill and ``(round, micro-batch)`` for decode — so each stage's
finish times satisfy

    F[j][k] = max(F[j][k-1], A[j][k]) + dur[j][k]

where ``A[j][k]`` is the arrival (upstream finish + link time, or the
decode feedback ``F[last][m, t-1] + fb``).  The implementation replays
the *identical* floating-point operations the event loop performs —
``max`` then one add per job, ``np.cumsum`` (sequential) for the
zero-arrival first stage, busy-time accumulated in submission order — so
results are bit-equal to the event-driven oracle, not approximations.
The differential grid in ``tests/test_fastsim.py`` asserts exact
equality.

Eligibility: every batch whose requests all generate the same number of
tokens — every ``simulate_plan`` call, and the equal-lengths case of
``simulate_plan_variable``, which runs :func:`_fast_simulate_plan` on
its worst-case uniform view.  Variable-length decode with mid-flight
retirement runs on the online fast driver
(:mod:`repro.pipeline.online_fast`) instead.

Duration tables (per-stage chunk times, decode step series, link and
feedback delays) come from the shared topology memo
(:func:`~repro.pipeline.topology.shared_topology`), which also keeps the
per-phase bundles :func:`build_plan_tables` assembles, so repeat
evaluations of the same plan — and the cross-plan batched evaluator in
:mod:`repro.pipeline.batchsim` — pay the table cost once, and identical
stages of different plans share their durations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..hardware.cluster import ClusterSpec
from ..models.architectures import ModelSpec
from ..obs import trace
from ..plan import ExecutionPlan
from ..workloads.spec import BatchWorkload
from . import topology
from .stage import MemoizedTiming, RooflineTiming, TimingSource
from .topology import (
    _BUNDLES_MAX,
    _bounded_put,
    microbatch_sizes,
    shared_topology,
)

__all__ = [
    "PlanTables",
    "build_plan_tables",
    "clear_table_caches",
    "shared_default_timing",
]


# ---------------------------------------------------------------------------
# Duration tables: built once per (plan, cluster, workload, timing).
# ---------------------------------------------------------------------------


@dataclass
class PlanTables:
    """Everything the max-plus recurrence needs, precomputed.

    One instance fully describes a (plan, workload) evaluation: per-stage
    prefill chunk durations and link delays as flat job vectors, and the
    decode step series / link / feedback delays hoisted per micro-batch.
    The batched evaluator stacks many of these into one tensor.
    """

    n_stages: int
    # -- prefill: flat (micro-batch, chunk) wavefront --------------------
    n_mb: int
    kappa: int
    n_pre: int
    pre_events: int
    #: ``pre_dur[j]`` is the (n_pre,) duration vector of stage ``j``.
    pre_dur: List[np.ndarray]
    #: ``pre_comm[j]`` is the (n_pre,) link delay from stage j to j+1.
    pre_comm: List[np.ndarray]
    # -- decode: (round, micro-batch) with feedback ----------------------
    n_dec: int
    decode_steps: int
    dec_events: int
    #: ``series_jm[j][m][t]`` — decode durations per stage, micro-batch.
    series_jm: List[List[List[float]]]
    #: ``comm_jm[j][m]`` — forward link delay from stage j to j+1.
    comm_jm: List[List[float]]
    #: ``fb_m[m]`` — feedback delay from the last stage back to stage 0.
    fb_m: List[float]
    #: ``series_jm`` as one (n_stages, n_dec, decode_steps) array, built
    #: lazily (the batched evaluator's stacking fast path; the exact
    #: same floats as the nested lists).
    dec_arr: Optional[np.ndarray] = None

    @property
    def events(self) -> int:
        return self.pre_events + self.dec_events

    def decode_array(self) -> np.ndarray:
        if self.dec_arr is None:
            self.dec_arr = np.asarray(self.series_jm, dtype=np.float64)
        return self.dec_arr


# Default-timing memo for the batched evaluator: one MemoizedTiming per
# (model, KV bitwidth) so unit layer costs are computed once per fleet,
# not once per plan.  Returns the very floats RooflineTiming would, so
# results stay bit-identical to the uncached default.  Its entries key
# on the whole GPUSpec, like the stage-duration memo.
_DEFAULT_MEMOS: Dict[Tuple[ModelSpec, int], MemoizedTiming] = {}


def clear_table_caches() -> None:
    """Drop every simulator memo (benchmarks use this for cold timings)."""
    _DEFAULT_MEMOS.clear()
    topology._TOPOLOGIES.clear()
    topology._STRUCTURE_IDS.clear()
    topology._DURATIONS.clear()


def shared_default_timing(spec: ModelSpec, bit_kv: int) -> TimingSource:
    """The batched evaluator's default timing: memoized roofline truth."""
    key = (spec, bit_kv)
    memo = _DEFAULT_MEMOS.get(key)
    if memo is None:
        memo = _DEFAULT_MEMOS[key] = MemoizedTiming(
            RooflineTiming(spec=spec, bit_kv=bit_kv)
        )
    return memo


def build_plan_tables(
    plan: ExecutionPlan,
    cluster: ClusterSpec,
    spec: ModelSpec,
    workload: BatchWorkload,
    timing: TimingSource,
) -> PlanTables:
    """Build (or fetch) the duration tables for one plan evaluation.

    The prefill and decode bundles are memoized on the shared topology,
    each keyed by exactly what its phase depends on — decode ignores
    prefill chunking and vice versa, so chunk- and micro-batch-variant
    frontiers reuse them wholesale.
    """
    topo = shared_topology(plan, cluster, spec, timing)
    n_stages = topo.num_stages
    bundles = topo.bundles

    # -- prefill ---------------------------------------------------------
    chunk = workload.chunk_len
    pre_key = (
        "p", plan.prefill_microbatch, workload.batch, workload.prompt_len,
        chunk,
    )
    pre = bundles.get(pre_key)
    if pre is None:
        pre_sizes = microbatch_sizes(workload.batch, plan.prefill_microbatch)
        kappa = workload.kappa
        # Uniform micro-batching yields at most two distinct sizes, so the
        # flat job vectors are assembled by fancy-indexing one value per
        # distinct size (exact copies of the same floats).
        uniq_pre = sorted(set(pre_sizes))
        pos = {s: i for i, s in enumerate(uniq_pre)}
        idx = np.asarray(
            [pos[s] for s in pre_sizes for _ in range(kappa)], dtype=np.intp
        )
        pre_dur = [
            np.asarray(
                [topo.prefill_time(j, s, chunk) for s in uniq_pre],
                dtype=np.float64,
            )[idx]
            for j in range(n_stages)
        ]
        pre_comm = [
            np.asarray(
                [topo.prefill_comm(j, s, chunk) for s in uniq_pre],
                dtype=np.float64,
            )[idx]
            for j in range(n_stages - 1)
        ]
        n_mb = len(pre_sizes)
        pre = (n_mb, kappa, n_mb * kappa, pre_dur, pre_comm)
        _bounded_put(bundles, _BUNDLES_MAX, pre_key, pre)
    n_mb, kappa, n_pre, pre_dur, pre_comm = pre

    # -- decode ----------------------------------------------------------
    n_out = workload.output_len
    decode_steps = n_out - 1
    dec: Tuple[Any, ...] = (0, [], [], [], None)
    if decode_steps > 0:
        dec_key = (
            "d", plan.decode_microbatch, workload.batch,
            workload.prompt_len, n_out,
        )
        dec = bundles.get(dec_key)
        if dec is None:
            dec_sizes = microbatch_sizes(
                workload.batch, plan.decode_microbatch
            )
            series_jm = [
                [
                    topo.decode_series(j, size, workload.prompt_len, n_out)
                    for size in dec_sizes
                ]
                for j in range(n_stages)
            ]
            comm_jm = [
                [topo.decode_comm(j, size) for size in dec_sizes]
                for j in range(n_stages - 1)
            ]
            fb_m = [topo.feedback_delay(size) for size in dec_sizes]
            dec = (
                len(dec_sizes), series_jm, comm_jm, fb_m,
                np.asarray(series_jm, dtype=np.float64),
            )
            _bounded_put(bundles, _BUNDLES_MAX, dec_key, dec)
    n_dec, series_jm, comm_jm, fb_m, dec_arr = dec

    return PlanTables(
        n_stages=n_stages,
        n_mb=n_mb,
        kappa=kappa,
        n_pre=n_pre,
        pre_events=n_pre * n_stages,
        pre_dur=pre_dur,
        pre_comm=pre_comm,
        n_dec=n_dec,
        decode_steps=decode_steps,
        dec_events=n_dec * decode_steps * n_stages,
        series_jm=series_jm,
        comm_jm=comm_jm,
        fb_m=fb_m,
        dec_arr=dec_arr,
    )


def _fast_core(
    tables: PlanTables,
) -> Tuple[float, float, List[float], int]:
    """The cumulative-max recurrence over (micro-batch x stage) arrays.

    Returns ``(prefill_span, decode_span, stage_busy, events)`` with
    every float bit-equal to what the event loop would produce.
    """
    n_stages = tables.n_stages
    n_pre = tables.n_pre

    # -- prefill: flat (micro-batch, chunk) wavefront -------------------
    busy: List[float] = []
    free: List[float] = []
    with trace.span(
        "sim.prefill", microbatches=tables.n_mb, chunks=tables.kappa
    ) as sp:
        # Stage 0 sees zero arrivals: finish times are a plain running
        # sum, and np.cumsum accumulates sequentially (bit-identical to
        # the event loop's free_at chain).
        dur0 = tables.pre_dur[0]
        prev = np.cumsum(dur0)
        b = 0.0
        for d in dur0.tolist():
            b += d
        busy.append(b)
        free.append(float(prev[-1]))
        for j in range(1, n_stages):
            # Elementwise adds are one IEEE op per job — exact.
            arrivals = (prev + tables.pre_comm[j - 1]).tolist()
            dur = tables.pre_dur[j].tolist()
            out = np.empty(n_pre, dtype=np.float64)
            f = 0.0
            b = 0.0
            for k in range(n_pre):
                a = arrivals[k]
                if f < a:
                    f = a
                d = dur[k]
                f = f + d
                out[k] = f
                b += d
            busy.append(b)
            free.append(f)
            prev = out
        # Per-stage finishes are nondecreasing in FIFO order, so the
        # last stage's final job is the event loop's max().
        prefill_span = float(prev[-1])
        sp.set(events=tables.pre_events)

    # -- decode: (round, micro-batch) with autoregressive feedback ------
    decode_steps = tables.decode_steps
    decode_span = 0.0
    if decode_steps > 0:
        n_dec = tables.n_dec
        series_jm = tables.series_jm
        comm_jm = tables.comm_jm
        fb_m = tables.fb_m

        with trace.span(
            "sim.decode", microbatches=n_dec, steps=decode_steps
        ) as sp:
            arrivals0 = [prefill_span] * n_dec
            rng_dec = range(n_dec)
            finishes: List[float] = arrivals0
            for t in range(decode_steps):
                cur = arrivals0
                for j in range(n_stages):
                    sj = series_jm[j]
                    fj = free[j]
                    bj = busy[j]
                    nxt: List[float] = []
                    append = nxt.append
                    if j == 0:
                        for m in rng_dec:
                            a = cur[m]
                            if fj < a:
                                fj = a
                            d = sj[m][t]
                            fj = fj + d
                            bj += d
                            append(fj)
                    else:
                        cm = comm_jm[j - 1]
                        for m in rng_dec:
                            a = finishes[m] + cm[m]
                            if fj < a:
                                fj = a
                            d = sj[m][t]
                            fj = fj + d
                            bj += d
                            append(fj)
                    free[j] = fj
                    busy[j] = bj
                    finishes = nxt
                if t + 1 < decode_steps:
                    arrivals0 = [
                        finishes[m] + fb_m[m] for m in rng_dec
                    ]
            decode_span = max(finishes) - prefill_span
            sp.set(events=tables.dec_events)

    return prefill_span, decode_span, busy, tables.events


def _fast_simulate_plan(
    plan: ExecutionPlan,
    cluster: ClusterSpec,
    spec: ModelSpec,
    workload: BatchWorkload,
    timing: Optional[TimingSource],
    check_memory: bool,
):
    """Fast-path twin of the event engine on a uniform batch (bit-equal
    results); ``workload`` is the batch's worst-case uniform view."""
    from .simulator import PipelineSimResult, check_plan_memory

    timing = timing or RooflineTiming(spec=spec, bit_kv=plan.bit_kv)
    stage_mem = (
        check_plan_memory(plan, cluster, spec, workload)
        if check_memory
        else tuple(0 for _ in plan.stages)
    )
    tables = build_plan_tables(plan, cluster, spec, workload, timing)
    prefill_span, decode_span, busy, events = _fast_core(tables)
    return PipelineSimResult(
        makespan_s=prefill_span + decode_span,
        prefill_span_s=prefill_span,
        decode_span_s=decode_span,
        total_tokens=workload.batch * workload.output_len,
        stage_busy_s=tuple(busy),
        stage_memory_bytes=stage_mem,
        events_processed=events,
        sim_backend="fast",
    )
