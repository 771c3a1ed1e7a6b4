"""``repro.api``: the unified façade over planner, simulator and runtime.

One object — :class:`Session` — drives the paper's whole pipeline:

    from repro import Session, BatchWorkload

    sess = Session("opt-30b", cluster=5, trace_path="trace.jsonl")
    wl = BatchWorkload(batch=32, prompt_len=512, output_len=100)
    result = sess.plan(wl)          # PlannerResult
    sim = sess.simulate()           # PipelineSimResult for that plan
    gen = sess.serve()              # GenerationResult (TinyLM proxy)
    sess.close()                    # writes trace.jsonl

All three phases thread the *same* :class:`~repro.obs.Tracer`, so one
JSONL trace covers plan -> simulate -> serve end to end.  Without a
tracer the session adds nothing beyond the direct calls (the
observability fast path is one attribute check).

Every result implements the :class:`Summary` protocol — ``to_dict()``
(JSON-safe, round-trippable through :mod:`repro.serialization`),
``throughput_tokens_s`` and ``duration_s`` — so heterogeneous results
can be logged, persisted and compared uniformly.
"""

from __future__ import annotations

import contextlib
from typing import Any, Dict, Optional, Protocol, Union, runtime_checkable

import numpy as np

from .core import PlannerConfig, PlannerResult, SplitQuantPlanner
from .hardware import ClusterSpec, table_iii_cluster
from .models import ModelSpec, get_model
from .obs import Tracer, flame_summary, use_tracer
from .pipeline import (
    DegradedSimResult,
    OnlineConfig,
    OnlineSimResult,
    PipelineSimResult,
    simulate_online,
    simulate_plan,
    simulate_plan_variable,
)
from .plan import ExecutionPlan, InfeasibleError
from .quality import TinyLM, TinyLMConfig
from .runtime import FaultPlan, GenerationResult, PipelineEngine
from .workloads import ArrivalTrace, BatchWorkload
from .workloads.spec import VariableBatchWorkload

__all__ = ["Session", "Summary"]


@runtime_checkable
class Summary(Protocol):
    """The uniform result-object protocol.

    Implemented by :class:`~repro.core.planner.PlannerResult`,
    :class:`~repro.pipeline.simulator.PipelineSimResult`,
    :class:`~repro.pipeline.simulator.DegradedSimResult`,
    :class:`~repro.pipeline.online.OnlineSimResult`,
    :class:`~repro.fleet.simulator.FleetSimResult`,
    :class:`~repro.fleet.online.OnlineFleetResult` and
    :class:`~repro.runtime.engine.GenerationResult`: a JSON-safe
    :meth:`to_dict` (round-trippable via :mod:`repro.serialization`),
    the paper's headline :attr:`throughput_tokens_s` metric, and
    :attr:`duration_s` wall-clock.
    """

    def to_dict(self) -> Dict[str, Any]: ...

    @property
    def throughput_tokens_s(self) -> float: ...

    @property
    def duration_s(self) -> float: ...


class Session:
    """Plan, simulate and serve one (model, cluster) configuration.

    Parameters
    ----------
    model:
        A :class:`~repro.models.architectures.ModelSpec` or a registered
        model name (``"opt-30b"``).
    cluster:
        A :class:`~repro.hardware.cluster.ClusterSpec` or a Table-III
        cluster index (``5`` -> 3x T4 + 1x V100).
    config:
        Planner knobs; defaults to :class:`PlannerConfig()`.
    tracer:
        An explicit :class:`~repro.obs.Tracer` to thread through every
        phase.  ``None`` with ``trace_path`` set creates a fresh enabled
        tracer; ``None`` without a path leaves tracing to whatever is
        globally installed (e.g. ``SPLITQUANT_TRACE``).
    trace_path:
        Where :meth:`close` writes the JSONL trace.
    """

    def __init__(
        self,
        model: Union[str, ModelSpec],
        cluster: Union[int, ClusterSpec],
        config: PlannerConfig = PlannerConfig(),
        tracer: Optional[Tracer] = None,
        trace_path: Optional[str] = None,
        cost_model=None,
        omega_layers=None,
    ) -> None:
        self.spec = get_model(model) if isinstance(model, str) else model
        self.cluster = (
            table_iii_cluster(cluster)
            if isinstance(cluster, int)
            else cluster
        )
        self.config = config
        self.trace_path = trace_path
        self._cost_model = cost_model
        self._omega_layers = omega_layers
        if tracer is None and trace_path is not None:
            tracer = Tracer(enabled=True)
        self.tracer = tracer
        self._planner: Optional[SplitQuantPlanner] = None
        self._last_workload: Optional[BatchWorkload] = None
        self._last_result: Optional[PlannerResult] = None
        self._proxy: Optional[TinyLM] = None
        self._closed = False

    # ------------------------------------------------------------------
    # Tracer plumbing
    # ------------------------------------------------------------------

    def _scope(self):
        """Activate this session's tracer for one phase (if it has one)."""
        if self.tracer is None:
            return contextlib.nullcontext()
        return use_tracer(self.tracer)

    @property
    def planner(self) -> SplitQuantPlanner:
        """The lazily built (and cached) planner for this session."""
        if self._planner is None:
            with self._scope():
                self._planner = SplitQuantPlanner(
                    self.spec,
                    self.cluster,
                    self.config,
                    cost_model=self._cost_model,
                    omega_layers=self._omega_layers,
                )
        return self._planner

    # ------------------------------------------------------------------
    # The three phases
    # ------------------------------------------------------------------

    def plan(
        self,
        workload: BatchWorkload,
        *,
        tier: str = "auto",
        objective: str = "throughput",
        budget: Optional[float] = None,
    ) -> Optional[PlannerResult]:
        """Run the SplitQuant assigner; remembers the plan for
        :meth:`simulate` / :meth:`serve`.  ``None`` when nothing fits.

        ``tier`` selects the planning tier (``"exact"``, ``"dp"`` or
        ``"auto"``).  ``objective`` (``"throughput"``, ``"energy"``,
        ``"cost"``) and ``budget`` (a J/token or $/Mtoken ceiling for the
        latter two) select the planning objective.  See
        :meth:`repro.core.SplitQuantPlanner.plan`.
        """
        with self._scope():
            result = self.planner.plan(
                workload, tier=tier, objective=objective, budget=budget
            )
        self._last_workload = workload
        self._last_result = result
        return result

    def replan(
        self,
        delta,
        prev: Optional[PlannerResult] = None,
        *,
        workload: Optional[BatchWorkload] = None,
    ) -> PlannerResult:
        """Incremental re-solve after a cluster or job change.

        ``delta`` is a :class:`repro.core.ClusterDelta` or
        :class:`repro.core.JobDelta`; ``prev`` defaults to the session's
        last planning result.  The returned result becomes the session's
        remembered plan.  See :meth:`repro.core.SplitQuantPlanner.replan`.
        """
        previous = prev if prev is not None else self._last_result
        if previous is None:
            raise ValueError(
                "no previous result: pass prev= or call Session.plan() first"
            )
        with self._scope():
            result = self.planner.replan(
                previous, delta, workload=workload
            )
        if result.workload is not None:
            self._last_workload = result.workload
        self._last_result = result
        return result

    def simulate(
        self,
        plan: Optional[Union[ExecutionPlan, PlannerResult]] = None,
        workload: Optional[Union[BatchWorkload, VariableBatchWorkload]] = None,
        check_memory: bool = True,
        fault_plan: Optional[FaultPlan] = None,
        detection_overhead_s: float = 0.0,
        sim_backend: str = "auto",
    ) -> Union[PipelineSimResult, DegradedSimResult]:
        """Simulate a plan (defaults to the last one).

        ``sim_backend`` selects the engine: ``"event"`` forces the
        discrete-event loop, ``"fast"`` and ``"auto"`` the closed-form
        steady-state recurrence (bit-identical results).  A
        :class:`~repro.workloads.spec.VariableBatchWorkload` runs on
        :func:`repro.pipeline.simulate_plan_variable`, its requests
        retiring as they finish.  With ``fault_plan`` the
        degraded-recovery mirror (:func:`repro.pipeline.simulate_degraded`)
        runs instead and a :class:`DegradedSimResult` is returned
        (``sim_backend`` does not apply there: each segment runs on the
        default dispatch); it takes a :class:`BatchWorkload` only.
        """
        ex_plan = self._resolve_plan(plan)
        wl = workload or self._last_workload
        if wl is None:
            raise ValueError(
                "no workload: pass one or call Session.plan() first"
            )
        variable = isinstance(wl, VariableBatchWorkload)
        if variable and fault_plan is not None:
            raise ValueError(
                "fault_plan needs a BatchWorkload: degraded simulation "
                "does not run a VariableBatchWorkload"
            )
        with self._scope():
            if variable:
                return simulate_plan_variable(
                    ex_plan, self.cluster, self.spec, wl,
                    check_memory=check_memory, sim_backend=sim_backend,
                )
            if fault_plan is not None:
                from .pipeline import simulate_degraded

                return simulate_degraded(
                    ex_plan, self.cluster, self.spec, wl, fault_plan,
                    check_memory=check_memory,
                    detection_overhead_s=detection_overhead_s,
                )
            return simulate_plan(
                ex_plan, self.cluster, self.spec, wl,
                check_memory=check_memory, sim_backend=sim_backend,
            )

    def score_plans(
        self,
        plans,
        workload: Optional[Union[BatchWorkload, VariableBatchWorkload]] = None,
        check_memory: bool = False,
    ):
        """Score a whole plan frontier in one batched fastsim sweep.

        ``plans`` is a sequence of :class:`ExecutionPlan` or
        :class:`PlannerResult` objects (mixed is fine); each is simulated
        against ``workload`` (default: the last :meth:`plan` workload)
        on this session's cluster via
        :func:`repro.pipeline.evaluate_plans` — the vectorized max-plus
        evaluator, bit-identical to the per-plan fast backend.  Returns
        one :class:`PipelineSimResult` per plan, in order.  A
        :class:`~repro.workloads.spec.VariableBatchWorkload` whose
        requests retire mid-decode is scored plan by plan on the online
        fast driver, bit-identical to the event engine as well.
        """
        from .pipeline import PlanCase, evaluate_plans

        resolved = []
        for p in plans:
            if isinstance(p, PlannerResult):
                resolved.append(p.plan)
            elif isinstance(p, ExecutionPlan):
                resolved.append(p)
            else:
                raise TypeError(
                    f"plans must contain ExecutionPlan or PlannerResult, "
                    f"got {type(p).__name__}"
                )
        wl = workload or self._last_workload
        if wl is None:
            raise ValueError(
                "no workload: pass one or call Session.plan() first"
            )
        cases = [
            PlanCase(plan=p, cluster=self.cluster, spec=self.spec, workload=wl)
            for p in resolved
        ]
        with self._scope():
            return evaluate_plans(cases, check_memory=check_memory)

    def serve(
        self,
        workload: Optional[BatchWorkload] = None,
        plan: Optional[Union[ExecutionPlan, PlannerResult]] = None,
        prompts: Optional[np.ndarray] = None,
        n_tokens: Optional[int] = None,
        fault_plan: Optional[FaultPlan] = None,
        microbatch: Optional[int] = None,
        max_batch: int = 8,
        max_prompt_len: int = 16,
        max_tokens: int = 8,
    ) -> GenerationResult:
        """Execute the plan through the threaded pipeline runtime.

        Real model specs (OPT-30B and friends) cannot run in-process, so
        the runtime executes a **TinyLM proxy**: a small real transformer
        with the *same layer count* as the planned model, partitioned and
        quantized exactly as the plan dictates.  Default prompts are a
        seeded slice of the workload (capped at ``max_batch`` requests x
        ``max_prompt_len`` tokens, ``max_tokens`` generated) so serving
        stays tractable; pass ``prompts``/``n_tokens`` to override.

        Generation is greedy and bit-exact against the single-process
        reference on the same quantized weights — including through
        injected faults (``fault_plan``), which trigger the engine's
        degrade-and-replan recovery.
        """
        ex_plan = self._resolve_plan(plan)
        wl = workload or self._last_workload
        if prompts is None or n_tokens is None:
            if wl is None:
                raise ValueError(
                    "no workload: pass one (or prompts + n_tokens), or "
                    "call Session.plan() first"
                )
        model = self._proxy_model(ex_plan)
        if prompts is None:
            rng = np.random.default_rng(self.config.seed)
            prompts = rng.integers(
                0,
                model.config.vocab,
                size=(
                    min(wl.batch, max_batch),
                    min(wl.prompt_len, max_prompt_len),
                ),
            )
        else:
            prompts = np.asarray(prompts)
        if n_tokens is None:
            n_tokens = min(wl.output_len, max_tokens)
        if prompts.shape[1] + n_tokens > model.config.max_seq:
            raise ValueError(
                f"prompt ({prompts.shape[1]}) + n_tokens ({n_tokens}) "
                f"exceeds the proxy's max_seq ({model.config.max_seq}); "
                "pass shorter prompts or fewer tokens"
            )
        with self._scope():
            with PipelineEngine(
                model,
                ex_plan,
                fault_plan=fault_plan,
                recv_timeout_s=5.0,
                stall_timeout_s=0.3,
            ) as engine:
                return engine.generate(
                    prompts, n_tokens=n_tokens, microbatch=microbatch
                )

    def serve_online(
        self,
        arrivals: "ArrivalTrace",
        plan: Optional[Union[ExecutionPlan, PlannerResult]] = None,
        config: Optional["OnlineConfig"] = None,
        check_memory: bool = True,
        sim_backend: str = "auto",
    ) -> "OnlineSimResult":
        """Simulate online serving of an arrival stream on this session.

        ``arrivals`` is an :class:`~repro.workloads.arrivals.ArrivalTrace`
        (build one with :func:`~repro.workloads.poisson_trace`,
        :func:`~repro.workloads.diurnal_trace`,
        :func:`~repro.workloads.bursty_trace`, or
        :func:`~repro.workloads.closed_batch_trace`); ``plan`` defaults
        to the last :meth:`plan` result.  ``config`` is an
        :class:`~repro.pipeline.OnlineConfig` controlling chunking,
        continuous-batching group size, and KV/SLO admission.
        ``sim_backend`` picks the engine (``"event"``, ``"fast"``, or
        the default ``"auto"``) — the backends are bit-identical, so
        this is a speed knob, not a fidelity one.  Returns an
        :class:`~repro.pipeline.OnlineSimResult` (a :class:`Summary`)
        with per-request TTFT/TPOT/latency percentiles.
        """
        ex_plan = self._resolve_plan(plan)
        with self._scope():
            return simulate_online(
                ex_plan, self.cluster, self.spec, arrivals,
                config=config, check_memory=check_memory,
                sim_backend=sim_backend,
            )

    def schedule_fleet(
        self,
        jobs=None,
        inventory: Optional[Dict[str, int]] = None,
        allocator: str = "beam",
        fleet_config=None,
        simulate: bool = True,
        pool_gpus: int = 24,
        n_jobs: int = 8,
        objective: str = "throughput",
        spot_types=(),
        price_book=None,
    ):
        """Schedule a multi-job queue onto an idle-GPU fleet inventory.

        The fleet-level entry point (:mod:`repro.fleet`): carves
        ``inventory`` (default: a :func:`~repro.hardware.fleet.
        schedulable_inventory` slice of the seeded Fig. 1 fleet sample)
        into per-job heterogeneous GPU groups with the chosen allocator
        (``"beam"`` lookahead or the ``"greedy"`` bin-packing baseline),
        plans each group with the SplitQuant planner, and — with
        ``simulate=True`` — replays the schedule through the
        discrete-event fleet simulator.

        ``jobs`` defaults to a seeded queue
        (:func:`repro.fleet.make_job_queue` with ``n_jobs`` and the
        session seed).  Returns a :class:`~repro.fleet.FleetSimResult`
        (a :class:`Summary`) when simulating, otherwise the raw
        :class:`~repro.fleet.FleetSchedule`.  The session's tracer is
        threaded through scheduling and simulation.

        ``objective="cost"`` makes the allocator pack by tokens/s per
        rental $/hr; ``spot_types`` bills those GPU types at the default
        price book's spot rate (they become preemptible via
        :meth:`repro.fleet.FleetScheduler.preempt_spot`); ``price_book``
        overrides pricing wholesale
        (:class:`repro.costmodel.PriceBook`).
        """
        from .fleet import FleetScheduler, make_job_queue, simulate_schedule
        from .hardware.fleet import sample_fleet, schedulable_inventory

        seed = getattr(self.config, "seed", 0)
        with self._scope():
            if inventory is None:
                inventory = schedulable_inventory(
                    sample_fleet(seed=seed), pool_gpus=pool_gpus
                )
            if jobs is None:
                jobs = make_job_queue(n_jobs=n_jobs, seed=seed)
            scheduler = FleetScheduler(
                inventory,
                config=fleet_config,
                allocator=allocator,
                objective=objective,
                spot_types=spot_types,
                price_book=price_book,
            )
            schedule = scheduler.schedule(jobs)
            if not simulate:
                return schedule
            return simulate_schedule(schedule, price_book=scheduler.price_book)

    def fleet_stats(self, n_gpus: int = 10_000):
        """The seeded Fig. 1 fleet sample behind :meth:`schedule_fleet`.

        Returns the :class:`~repro.hardware.fleet.FleetStats` drawn at
        the session seed — the baseline that
        :meth:`~repro.fleet.FleetSimResult.idle_recovery` measures
        reclaimed idle GPU-hours against.
        """
        from .hardware.fleet import sample_fleet

        return sample_fleet(n_gpus=n_gpus, seed=getattr(self.config, "seed", 0))

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _resolve_plan(
        self, plan: Optional[Union[ExecutionPlan, PlannerResult]]
    ) -> ExecutionPlan:
        if isinstance(plan, PlannerResult):
            return plan.plan
        if isinstance(plan, ExecutionPlan):
            return plan
        if plan is not None:
            raise TypeError(
                f"plan must be an ExecutionPlan or PlannerResult, "
                f"got {type(plan).__name__}"
            )
        if self._last_result is None:
            raise InfeasibleError(
                "no plan: call Session.plan() first (or pass one) — "
                "the last plan() returned None or was never run"
            )
        return self._last_result.plan

    def _proxy_model(self, plan: ExecutionPlan) -> TinyLM:
        """TinyLM stand-in with the planned model's layer count (cached)."""
        if (
            self._proxy is None
            or self._proxy.config.layers != plan.num_layers
        ):
            self._proxy = TinyLM(
                TinyLMConfig(
                    vocab=128,
                    layers=plan.num_layers,
                    hidden=64,
                    ffn=192,
                    heads=4,
                    max_seq=64,
                    seed=self.config.seed,
                )
            )
        return self._proxy

    # ------------------------------------------------------------------
    # Observability output
    # ------------------------------------------------------------------

    def trace_jsonl(self) -> str:
        """The session trace as JSONL (empty without a tracer)."""
        return "" if self.tracer is None else self.tracer.to_jsonl()

    def flame(self, max_depth: int = 8) -> str:
        """Text flame summary of this session's trace."""
        if self.tracer is None:
            return "(no tracer installed)\n"
        return flame_summary(self.tracer.records, max_depth=max_depth)

    def save_trace(self, path: Optional[str] = None) -> Optional[str]:
        """Write the JSONL trace; returns the path."""
        target = path or self.trace_path
        if target is None or self.tracer is None:
            return None
        self.tracer.write(target)
        return str(target)

    def close(self) -> None:
        """Flush the trace to :attr:`trace_path` (idempotent)."""
        if not self._closed:
            self.save_trace()
            self._closed = True

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
