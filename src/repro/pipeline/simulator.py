"""End-to-end pipeline serving simulation (the "runtime" of Fig. 6).

Simulates offline serving of one padded batch through a pipeline plan:
chunked prefill micro-batches flow through the FIFO stage servers with
asynchronous point-to-point communication, then decode proceeds token by
token with the autoregressive feedback loop from the last stage's LM head
back to the first stage's embedding.  Phases are sequential, matching the
paper's offline latency model (objective (4)).  A uniform batch is the
equal-lengths case of a variable-output batch, so ``simulate_plan`` and
``simulate_plan_variable`` share one body.  It runs a batch with equal
output lengths on the closed-form max-plus recurrence (:mod:`.fastsim`)
and any other batch as the degenerate online run (every request at t=0,
admission off) on the online fast driver (:mod:`.online_fast`).  The
``"event"`` backend runs every batch on the per-job event driver of
:mod:`repro.pipeline.online` instead: the bit-exactness oracle both fast
paths are tested against.

Per-stage memory is checked against the paper's memory cost model before
anything runs; infeasible plans raise
:class:`~repro.simgpu.memory.OutOfMemoryError` just as they would on
hardware.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from ..costmodel.memory import layer_memory_bytes, stage_overhead_bytes
from ..hardware.cluster import ClusterSpec
from ..models.architectures import ModelSpec
from ..obs import trace
from ..plan import ExecutionPlan
from ..simgpu.memory import OutOfMemoryError
from ..workloads.arrivals import ArrivalTrace, Request
from ..workloads.spec import BatchWorkload, VariableBatchWorkload
from .events import FaultEvent
from .stage import TimingSource
from .topology import check_plan_model, stage_devices

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.faults import FaultPlan
    from .events import Server

#: Accepted ``sim_backend`` values for the simulator entry points.
SIM_BACKENDS = ("event", "fast", "auto")


def _check_backend(sim_backend: str) -> None:
    if sim_backend not in SIM_BACKENDS:
        raise ValueError(
            f"unknown sim_backend {sim_backend!r} (expected one of "
            f"{SIM_BACKENDS})"
        )


@dataclass(frozen=True)
class PipelineSimResult:
    """Outcome of simulating one batch through a plan."""

    makespan_s: float
    prefill_span_s: float
    decode_span_s: float
    total_tokens: int
    stage_busy_s: Tuple[float, ...]
    stage_memory_bytes: Tuple[int, ...]
    events_processed: int
    #: Which simulation backend produced this result (``"event"`` or
    #: ``"fast"``).  Provenance only: excluded from equality so the
    #: differential tests can assert fast == event directly.
    sim_backend: str = field(default="event", compare=False)
    #: Always ``None``, as every batch has a fast path; the performance
    #: ledger's ``pipeline.batchsim.fallback_frac`` ratio still reads it.
    backend_reason: Optional[str] = field(default=None, compare=False)
    #: Joules drawn by the plan's GPUs over the run
    #: (:func:`repro.costmodel.energy.plan_energy`); ``None`` when the
    #: result predates energy accounting.  Participates in equality, so
    #: the event/fast/batched differential tests pin it bit-identical.
    energy_j: Optional[float] = None
    #: Dollars for the run: rental + electricity
    #: (:func:`repro.costmodel.energy.plan_cost`).
    cost_usd: Optional[float] = None

    @property
    def throughput_tokens_s(self) -> float:
        """Output token throughput — the paper's headline metric."""
        if self.makespan_s <= 0:
            return 0.0
        return self.total_tokens / self.makespan_s

    @property
    def stage_utilization(self) -> Tuple[float, ...]:
        if self.makespan_s <= 0:
            return tuple(0.0 for _ in self.stage_busy_s)
        return tuple(min(b / self.makespan_s, 1.0) for b in self.stage_busy_s)

    @property
    def bubble_fraction(self) -> float:
        """Mean idle fraction across stages — pipeline imbalance measure."""
        util = self.stage_utilization
        return 1.0 - float(np.mean(util)) if util else 0.0

    @property
    def duration_s(self) -> float:
        """Simulated wall-clock (the Summary-protocol duration)."""
        return self.makespan_s

    @property
    def joules_per_token(self) -> float:
        """Energy efficiency headline (J per output token)."""
        if self.energy_j is None or self.total_tokens <= 0:
            return 0.0
        return self.energy_j / self.total_tokens

    @property
    def usd_per_mtoken(self) -> float:
        """Dollar efficiency headline ($ per million output tokens)."""
        if self.cost_usd is None or self.total_tokens <= 0:
            return 0.0
        return self.cost_usd / (self.total_tokens / 1e6)

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe dict via :func:`repro.serialization.to_dict`."""
        from ..serialization import to_dict

        return to_dict(self)


def attach_energy(
    result: PipelineSimResult,
    plan: ExecutionPlan,
    cluster: ClusterSpec,
    spec: ModelSpec,
    workload: BatchWorkload,
) -> PipelineSimResult:
    """Stamp joules and dollars onto a finished simulation result.

    A pure post-pass over fields every backend already agrees on
    bit-for-bit (makespan, phase spans, per-stage busy times), so the
    stamped totals are bit-identical across event, fast and batched
    engines by construction.
    """
    from ..costmodel.energy import plan_cost, plan_energy

    energy = plan_energy(
        plan,
        cluster,
        spec,
        workload,
        result.makespan_s,
        result.prefill_span_s,
        result.decode_span_s,
        result.stage_busy_s,
    )
    cost = plan_cost(plan, cluster, result.makespan_s, energy)
    return replace(result, energy_j=energy, cost_usd=cost)


def check_plan_memory(
    plan: ExecutionPlan,
    cluster: ClusterSpec,
    spec: ModelSpec,
    workload: BatchWorkload,
) -> Tuple[int, ...]:
    """Per-stage predicted peak bytes; raises OutOfMemoryError on misfit.

    Peak prefill activations cover one actual chunk, not the configured
    cap (the planner's capacity rows use the same chunk).
    """
    chunk = min(workload.chunk_len, workload.context_len)
    usages: List[int] = []
    for j, (st, devs) in enumerate(
        zip(plan.stages, stage_devices(plan, cluster))
    ):
        capacity = sum(d.gpu.usable_mem_bytes for d in devs)
        need = sum(
            layer_memory_bytes(
                spec, b, workload.batch, workload.context_len, plan.bit_kv
            )
            for b in st.layer_bits
        ) + stage_overhead_bytes(
            spec, j, plan.num_stages, plan.prefill_microbatch, chunk
        )
        if need > capacity:
            raise OutOfMemoryError(
                f"stage{j}({st.gpu_name})", need, capacity
            )
        usages.append(need)
    return tuple(usages)


def simulate_plan(
    plan: ExecutionPlan,
    cluster: ClusterSpec,
    spec: ModelSpec,
    workload: BatchWorkload,
    timing: Optional[TimingSource] = None,
    check_memory: bool = True,
    sim_backend: str = "auto",
) -> PipelineSimResult:
    """Simulate serving ``workload`` under ``plan`` on ``cluster``.

    ``sim_backend`` selects the engine: ``"event"`` runs the
    discrete-event oracle, while ``"fast"`` and ``"auto"`` (default)
    run the closed-form steady-state recurrence
    (:mod:`repro.pipeline.fastsim`).  The two backends produce bit-equal
    results; :attr:`PipelineSimResult.sim_backend` records which one
    ran.
    """
    return _simulate(
        plan, cluster, spec, workload,
        (workload.output_len,) * workload.batch,
        timing, check_memory, sim_backend,
        "sim.run", output_len=workload.output_len,
    )


def _simulate(
    plan: ExecutionPlan,
    cluster: ClusterSpec,
    spec: ModelSpec,
    workload: BatchWorkload,
    output_lens: Sequence[int],
    timing: Optional[TimingSource],
    check_memory: bool,
    sim_backend: str,
    span_name: str,
    **span_attrs: object,
) -> PipelineSimResult:
    """The body both entry points share.

    ``workload`` is the uniform worst-case view (it sizes memory,
    prefill and energy, and its ``output_len`` is the longest request's);
    ``output_lens`` are the per-request output lengths.
    """
    _check_backend(sim_backend)
    check_plan_model(plan, spec)
    with trace.span(
        span_name, stages=plan.num_stages, batch=workload.batch,
        **span_attrs,
    ) as sp:
        from .fastsim import _fast_simulate_plan

        if sim_backend != "event" and len(set(output_lens)) == 1:
            result = _fast_simulate_plan(
                plan, cluster, spec, workload, timing, check_memory
            )
        else:
            result, _ = _simulate_closed_batch(
                plan, cluster, spec, workload, output_lens, timing,
                check_memory, sim_backend,
            )
        result = attach_energy(result, plan, cluster, spec, workload)
        sp.set(events=result.events_processed)
        return result


def _simulate_closed_batch(
    plan: ExecutionPlan,
    cluster: ClusterSpec,
    spec: ModelSpec,
    workload: BatchWorkload,
    output_lens: Sequence[int],
    timing: Optional[TimingSource],
    check_memory: bool,
    sim_backend: str,
    record_jobs: bool = False,
) -> Tuple[PipelineSimResult, List["Server"]]:
    """The batch as a degenerate online run.

    Every request arrives at t=0 with admission off, so the online
    driver forms one group and replays the closed batch, retiring
    requests as their ``output_lens`` run out.  ``sim_backend="event"``
    runs the per-job event driver; any other value its bit-identical
    fast twin (:mod:`repro.pipeline.online_fast`).  Memory is checked
    here, on ``workload`` — the worst-case uniform view, whose KV
    reservation the online driver does not see.  Also returns the
    event driver's stage servers, with per-job records when
    ``record_jobs`` is set (none for the fast driver).
    """
    from .online import OnlineConfig, _simulate_online
    from .online_fast import _fast_simulate_online

    stage_mem = (
        check_plan_memory(plan, cluster, spec, workload)
        if check_memory
        else tuple(0 for _ in plan.stages)
    )
    arrivals = ArrivalTrace(tuple(
        Request(i, 0.0, workload.prompt_len, n)
        for i, n in enumerate(output_lens)
    ))
    config = OnlineConfig(chunk_tokens=workload.chunk_tokens, admission="none")
    servers: List["Server"] = []
    if sim_backend == "event":
        online, servers = _simulate_online(
            plan, cluster, spec, arrivals, config, timing, False, record_jobs
        )
    else:
        online = _fast_simulate_online(
            plan, cluster, spec, arrivals, config, timing, False
        )
    # The phases of a closed batch never overlap: emit the fast path's
    # phase spans; their wall time stays on the enclosing run span.
    n_pre = -(-workload.batch // plan.prefill_microbatch)
    pre_events = n_pre * workload.kappa * plan.num_stages
    with trace.span("sim.prefill", microbatches=n_pre,
                    chunks=workload.kappa, events=pre_events):
        pass
    if workload.output_len > 1:
        with trace.span(
            "sim.decode",
            microbatches=-(-workload.batch // plan.decode_microbatch),
            steps=workload.output_len - 1,
            events=online.events_processed - pre_events,
        ):
            pass
    result = PipelineSimResult(
        makespan_s=online.makespan_s,
        prefill_span_s=online.prefill_span_s,
        decode_span_s=online.decode_span_s,
        total_tokens=online.total_tokens,
        stage_busy_s=online.stage_busy_s,
        stage_memory_bytes=stage_mem,
        events_processed=online.events_processed,
        sim_backend=online.sim_backend,
    )
    return result, servers


@dataclass(frozen=True)
class DegradedSimResult:
    """Outcome of simulating a batch through a plan *with faults*.

    Mirrors the fault-tolerant runtime's recovery semantics in discrete
    event time so planned-vs-executed degradation can be cross-validated:
    each fault splits the run into segments (the partial attempt lost to
    the fault, then the replayed attempt on the degraded plan), and the
    makespan is the sum of segment spans plus detection overheads.
    """

    makespan_s: float
    total_tokens: int
    #: Recovery attempts (replan or rebuild), as the runtime counts them.
    replans: int
    #: Plan per attempt, initial plan first — comparable 1:1 against
    #: :attr:`repro.runtime.engine.PipelineEngine.plan_history`.
    plans: Tuple[ExecutionPlan, ...]
    #: Per-segment simulation results (lost attempts, then the final one).
    segments: Tuple[PipelineSimResult, ...]
    fault_events: Tuple[FaultEvent, ...]

    @property
    def throughput_tokens_s(self) -> float:
        if self.makespan_s <= 0:
            return 0.0
        return self.total_tokens / self.makespan_s

    @property
    def degradation_overhead_s(self) -> float:
        """Extra wall-clock versus running the final plan fault-free."""
        return self.makespan_s - self.segments[-1].makespan_s

    @property
    def duration_s(self) -> float:
        """Simulated wall-clock (the Summary-protocol duration)."""
        return self.makespan_s

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe dict via :func:`repro.serialization.to_dict`."""
        from ..serialization import to_dict

        return to_dict(self)


def _surviving_devices(
    plan: ExecutionPlan, dead: Tuple[int, ...]
) -> Tuple[int, ...]:
    """Device ids of ``plan`` minus ``dead`` — identical expression to the
    runtime engine's, so plan sequences line up bit-for-bit."""
    dead_set = set(dead)
    return tuple(
        d
        for st in plan.stages
        for d in st.device_ids
        if d not in dead_set
    )


def simulate_degraded(
    plan: ExecutionPlan,
    cluster: ClusterSpec,
    spec: ModelSpec,
    workload: BatchWorkload,
    fault_plan: "FaultPlan",
    timing: Optional[TimingSource] = None,
    check_memory: bool = True,
    detection_overhead_s: float = 0.0,
    replan: Optional[
        Callable[[ExecutionPlan, Tuple[int, ...]], ExecutionPlan]
    ] = None,
) -> DegradedSimResult:
    """Simulate serving under an injected :class:`FaultPlan`.

    The mirror of :meth:`repro.runtime.engine.PipelineEngine.generate`'s
    recovery loop: ``kill`` faults cost the partial attempt up to the last
    committed token, a detection overhead, then a full replayed attempt on
    the degraded plan (the runtime re-prefills and replays the committed
    prefix, so the recovered attempt is a from-scratch run); ``drop``
    faults rebuild the same plan; ``slow`` faults are absorbed as a pure
    delay.  Raises :class:`repro.plan.InfeasibleError` (via ``replan``)
    when no degraded plan fits — exactly when the runtime would.

    The partial span of a fault hitting prefill is approximated by a full
    prefill pass (conservative: the wavefront is mostly through by the
    time a late stage dies).
    """
    if replan is None:
        from ..core.planner import degrade_execution_plan_internal

        def replan(
            cur: ExecutionPlan, surviving: Tuple[int, ...]
        ) -> ExecutionPlan:
            return degrade_execution_plan_internal(
                cur, surviving, cluster, spec, workload
            )

    with trace.span(
        "sim.degraded", faults=len(tuple(fault_plan.in_order()))
    ) as sp:
        result = _simulate_degraded(
            plan, cluster, spec, workload, fault_plan, timing,
            check_memory, detection_overhead_s, replan,
        )
        sp.set(replans=result.replans)
        return result


def _simulate_degraded(
    plan: ExecutionPlan,
    cluster: ClusterSpec,
    spec: ModelSpec,
    workload: BatchWorkload,
    fault_plan: "FaultPlan",
    timing: Optional[TimingSource],
    check_memory: bool,
    detection_overhead_s: float,
    replan: Callable[[ExecutionPlan, Tuple[int, ...]], ExecutionPlan],
) -> DegradedSimResult:
    current = plan
    plans: List[ExecutionPlan] = [plan]
    segments: List[PipelineSimResult] = []
    events: List[FaultEvent] = []
    t_acc = 0.0
    replans = 0
    for fs in fault_plan.in_order():
        if fs.kind == "slow":
            # Absorbed by recv retry/backoff: a pure serial delay.
            t_acc += fs.delay_s
            events.append(
                FaultEvent(
                    time_s=t_acc,
                    kind="slow",
                    stage=fs.stage,
                    phase=fs.phase,
                    step=fs.step,
                    action="absorb",
                    detail=f"delay {fs.delay_s:.3g}s",
                )
            )
            with trace.span(
                "sim.fault", kind="slow", stage=fs.stage,
                phase=fs.phase, step=fs.step, action="absorb",
            ):
                pass  # marker: the delay is pure simulated time
            continue
        if fs.stage >= current.num_stages:
            continue  # the degraded pipeline no longer has this stage
        if fs.phase == "decode" and fs.step >= workload.output_len:
            continue  # beyond the generation horizon: never fires
        with trace.span(
            "sim.fault", kind=fs.kind, stage=fs.stage,
            phase=fs.phase, step=fs.step,
            action="replan" if fs.kind == "kill" else "rebuild",
        ):
            committed = 0 if fs.phase == "prefill" else fs.step
            lost_wl = replace(workload, output_len=max(committed, 1))
            lost = simulate_plan(
                current, cluster, spec, lost_wl,
                timing=timing, check_memory=False,
            )
            segments.append(lost)
            t_acc += lost.makespan_s + detection_overhead_s
            if fs.kind == "kill":
                dead = current.stages[fs.stage].device_ids
                events.append(
                    FaultEvent(
                        time_s=t_acc,
                        kind="kill",
                        stage=fs.stage,
                        phase=fs.phase,
                        step=fs.step,
                        action="replan",
                        detail=f"devices {dead} removed",
                    )
                )
                current = replan(current, _surviving_devices(current, dead))
            else:  # drop: same devices, fresh pipeline + replay
                events.append(
                    FaultEvent(
                        time_s=t_acc,
                        kind="drop",
                        stage=fs.stage,
                        phase=fs.phase,
                        step=fs.step,
                        action="rebuild",
                    )
                )
            replans += 1
            plans.append(current)

    final = simulate_plan(
        current, cluster, spec, workload,
        timing=timing, check_memory=check_memory,
    )
    segments.append(final)
    return DegradedSimResult(
        makespan_s=t_acc + final.makespan_s,
        total_tokens=workload.total_output_tokens,
        replans=replans,
        plans=tuple(plans),
        segments=tuple(segments),
        fault_events=tuple(events),
    )


def simulate_plan_variable(
    plan: ExecutionPlan,
    cluster: ClusterSpec,
    spec: ModelSpec,
    workload: VariableBatchWorkload,
    timing: Optional[TimingSource] = None,
    check_memory: bool = True,
    sim_backend: str = "auto",
) -> PipelineSimResult:
    """Simulate a batch whose requests generate different token counts.

    Requests retire as they finish, so decode micro-batches shrink over
    time and short requests stop paying for long ones — the
    variable-output-length scenario the paper's latency model only
    sketches (Sec. IV-C).  Memory, prefill and energy follow the
    worst-case uniform view, :meth:`VariableBatchWorkload.planning_view`
    ``("max")``.

    A uniform batch is the equal-lengths case: ``"auto"`` and ``"fast"``
    run it on the closed-form fast path, exactly as ``simulate_plan``
    would, and a batch whose requests retire mid-decode on the online
    fast driver over the closed trace.  Both report ``sim_backend ==
    "fast"`` and equal ``sim_backend="event"`` bit for bit.
    """
    return _simulate(
        plan, cluster, spec, workload.planning_view("max"),
        workload.output_lens, timing, check_memory, sim_backend,
        "sim.run_variable",
        max_output=workload.max_output,
    )
