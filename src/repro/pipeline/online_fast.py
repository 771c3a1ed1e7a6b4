"""Epoch-vectorized fast path for the online serving simulator.

The event backend in :mod:`repro.pipeline.online` spends one heap event
per (micro-batch, stage, step) job.  But between scheduler decision
points — admission, group launch, per-request retirement, SLO expiry —
the submitted work per stage is deterministic FIFO, so whole *units* of
work advance in closed form with the same max-plus recurrence as
:mod:`repro.pipeline.fastsim`:

    F[j][k] = max(F[j][k-1], A[j][k]) + dur[j][k]

**Why cascading whole units is exact.**  Every stage-0 submission in the
online engine happens *synchronously inside a scheduler event*: a group
launch submits all of its prefill chunks at once, and each decode
feedback submits exactly one next-round job.  Finish times at a FIFO
server are nondecreasing in submission order, and each stage ``j+1``
submission fires at its stage-``j`` finish, so by induction the global
service order at every stage is *unit-major*: if unit U1's stage-0
submission precedes U2's, then U1's jobs precede U2's at every stage.  A
driver that processes units (one prefill wave, one decode round) in
stage-0 submission-time order and commits each unit through all stages
immediately therefore reproduces the event engine's schedules — the
same ``max`` then one add per job, the same per-server busy-time
accumulation order — bit-identically.

The coarse event heap orders only scheduler boundaries:

* *arrival waves* (kind 0) — the engine schedules all arrival timers
  upfront, so at equal times they beat any finish callback;
* *prefill barriers* and *decode round completions* (kind 1) — distinct
  last-stage finish times of a FIFO server with positive durations never
  collide, and the creation-order ``seq`` mirrors the engine's
  submission counters in any residual tie.

Between boundaries the driver fast-forwards decode rounds inline — the
steady-state stretch where nothing retires and no earlier coarse event
is pending — which is exactly the offline recurrence re-run per round,
with no heap traffic at all.

Scheduler state (queue, KV ledger, SLO shedding, Little's-law area,
energy post-pass) is the *shared* :class:`~repro.pipeline.online._OnlineState`
/ :func:`~repro.pipeline.online._finalize` code, so decisions and
accounting are identical by construction, not by re-implementation.

Eligibility: every online run replays exactly (the argument above has
no side conditions), so ``sim_backend="auto"`` always runs this driver,
and so does the offline simulator for a closed batch whose requests
retire mid-decode (every request at t=0, admission off).
``tests/test_online_fast.py`` pins the full online differential grid,
``tests/test_ragged_closed.py`` the ragged closed batches.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from typing import List, Optional

from ..hardware.cluster import ClusterSpec
from ..models.architectures import ModelSpec
from ..obs import trace
from ..plan import ExecutionPlan
from ..workloads.arrivals import ArrivalTrace, Request
from .online import (
    OnlineConfig,
    OnlineSimResult,
    _arrival_waves,
    _finalize,
    _Group,
    _OnlineContext,
    _OnlineState,
)
from .stage import TimingSource
from .topology import microbatch_sizes

# Coarse event kinds (heap tuples sort by (time, kind, seq)).
_ARRIVE = 0
_BARRIER = 1
_ROUND = 2


class _Chain:
    """One decode slice's in-flight state (per (group, micro-batch))."""

    __slots__ = (
        "g", "sl", "lens", "n", "retire", "t", "rows", "comms", "row_size",
    )

    def __init__(self, g: _Group, sl: List[Request]):
        self.g = g
        self.sl = sl
        self.lens = sorted(r.output_len for r in sl)
        self.n = len(sl)
        self.retire = set(self.lens)
        self.t = 0
        self.rows: List[List[float]] = []
        self.comms: List[float] = []
        self.row_size = -1


def _fast_simulate_online(
    plan: ExecutionPlan,
    cluster: ClusterSpec,
    spec: ModelSpec,
    arrivals: ArrivalTrace,
    config: OnlineConfig,
    timing: Optional[TimingSource],
    check_memory: bool,
) -> OnlineSimResult:
    ctx = _OnlineContext(
        plan, cluster, spec, arrivals, config, timing, check_memory
    )
    topo = ctx.topo
    n_stages = ctx.n_stages
    stages_1 = range(1, n_stages)
    pre_time = topo.prefill_time
    pre_comm = topo.prefill_comm
    dec_series = topo.decode_series
    dec_comm = topo.decode_comm
    feedback = topo.feedback_delay
    xi = plan.decode_microbatch
    mb_pre = plan.prefill_microbatch

    state = _OnlineState(ctx)
    complete = state.complete
    try_schedule = state.try_schedule

    # Per-stage FIFO server state, mirroring Server.free_at / busy_time.
    free = [0.0] * n_stages
    busy = [0.0] * n_stages
    jobs = 0  # every committed job is one Server.submit = one loop event
    heap: list = []
    heappush = heapq.heappush
    seq = 0  # creation order of kind-1 events (engine counter mirror)

    def launch_group(requests: List[Request], now: float) -> None:
        nonlocal jobs, seq
        g = _Group(state.counts["groups"] - 1, requests, config.chunk_tokens)
        pre_sizes = microbatch_sizes(len(requests), mb_pre)
        with trace.span(
            "sim.online.group",
            size=len(requests), kappa=g.kappa, start=now,
        ):
            # All of this wave's stage-0 submissions happen at this
            # instant, so the whole wave cascades through every stage
            # now (unit-major order; see module docstring).
            chunk = g.chunk_len
            kappa = g.kappa
            sizes = [s for s in pre_sizes for _ in range(kappa)]
            fin: List[float] = []
            f = free[0]
            b = busy[0]
            for size in sizes:
                if f < now:
                    f = now
                d = pre_time(0, size, chunk)
                f = f + d
                b += d
                fin.append(f)
            free[0] = f
            busy[0] = b
            for j in stages_1:
                jm1 = j - 1
                f = free[j]
                b = busy[j]
                for k, size in enumerate(sizes):
                    a = fin[k] + pre_comm(jm1, size, chunk)
                    if f < a:
                        f = a
                    d = pre_time(j, size, chunk)
                    f = f + d
                    b += d
                    fin[k] = f
                free[j] = f
                busy[j] = b
            jobs += len(sizes) * n_stages
            # FIFO finishes are nondecreasing, so the last chunk's
            # last-stage finish is the group's prefill barrier.
            g.prefill_end = fin[-1]
            heappush(heap, (fin[-1], 1, seq, _BARRIER, g))
            seq += 1

    state.launch = launch_group

    def cascade_round(ch: _Chain, t: int, size: int, ready: float) -> float:
        """Commit one decode round through every stage; returns its
        last-stage finish (the engine's round-completion event time)."""
        nonlocal jobs
        if size != ch.row_size:
            g = ch.g
            ch.rows = [
                dec_series(j, size, g.pad, g.max_output)
                for j in range(n_stages)
            ]
            ch.comms = [dec_comm(j, size) for j in range(n_stages - 1)]
            ch.row_size = size
        rows = ch.rows
        comms = ch.comms
        ti = t - 1
        f = free[0]
        if f < ready:
            f = ready
        d = rows[0][ti]
        f = f + d
        busy[0] += d
        free[0] = f
        prev = f
        for j in stages_1:
            a = prev + comms[j - 1]
            f = free[j]
            if f < a:
                f = a
            d = rows[j][ti]
            f = f + d
            busy[j] += d
            free[j] = f
            prev = f
        jobs += n_stages
        return prev

    def on_barrier(g: _Group, end: float) -> None:
        nonlocal seq
        state.barrier(g.requests, end)
        singles = [r for r in g.requests if r.output_len == 1]
        slices = [
            g.requests[s : s + xi]
            for s in range(0, len(g.requests), xi)
        ]
        for sl in slices:
            size = sum(1 for r in sl if r.output_len > 1)
            if size > 0:
                # Round-1 submissions happen at the barrier, slice by
                # slice; rounds 2+ belong to each chain's own events.
                ch = _Chain(g, sl)
                ch.t = 1
                fin = cascade_round(ch, 1, size, end)
                heappush(heap, (fin, 1, seq, _ROUND, ch))
                seq += 1
        for r in singles:
            complete(r, end)
        # Refill point: freed KV (one-token requests) or queued arrivals
        # can now form the next group; decode above keeps priority.
        try_schedule(end)

    def on_round(ch: _Chain, fin: float) -> float:
        """Process round completions for this chain, fast-forwarding
        inline while no earlier coarse event is pending; returns the
        time of the last round processed (the engine's loop.now)."""
        nonlocal seq
        sl = ch.sl
        lens = ch.lens
        n = ch.n
        retire = ch.retire
        t = ch.t
        while True:
            # Mirror of the engine's last-stage decode callback: submit
            # the next round first (decode keeps priority), then retire
            # completed requests and refill.
            nxt = n - bisect_right(lens, t + 1)
            if nxt > 0:
                nfin = cascade_round(ch, t + 1, nxt, fin + feedback(nxt))
            if t + 1 in retire:
                for r in sl:
                    if r.output_len == t + 1:
                        complete(r, fin)
                try_schedule(fin)
            if nxt == 0:
                return fin
            t += 1
            # Inline fast-forward: round t's completion can be processed
            # now unless some pending coarse event is due first (ties go
            # to the heap — the engine scheduled those callbacks first).
            if heap and heap[0][0] <= nfin:
                ch.t = t
                heappush(heap, (nfin, 1, seq, _ROUND, ch))
                seq += 1
                return fin
            fin = nfin

    # ---- inject arrivals and run ---------------------------------------
    initial, waves = _arrival_waves(arrivals)
    for r in initial:
        state.enqueue(r, 0.0)
    try_schedule(0.0)
    for widx, (t_arr, wave) in enumerate(waves):
        heappush(heap, (t_arr, 0, widx, _ARRIVE, wave))

    now = 0.0
    heappop = heapq.heappop
    while heap:
        ev = heappop(heap)
        now = ev[0]
        act = ev[3]
        if act == _ROUND:
            now = on_round(ev[4], now)
        elif act == _BARRIER:
            on_barrier(ev[4], now)
        else:
            for r in ev[4]:
                state.enqueue(r, now)
            try_schedule(now)

    events = len(waves) + jobs
    return _finalize(
        ctx, state, arrivals, tuple(busy), events, now, "fast"
    )
