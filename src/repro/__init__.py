"""SplitQuant reproduction: resource-efficient LLM offline serving on
heterogeneous GPUs via phase-aware model partition and adaptive
quantization (Zhao et al., CLUSTER 2025).

Quickstart (the :class:`repro.api.Session` façade)::

    from repro import Session, BatchWorkload

    sess = Session("opt-30b", cluster=5)    # 3x T4 + 1x V100
    wl = BatchWorkload(batch=32, prompt_len=512, output_len=100)
    result = sess.plan(wl)                  # PlannerResult
    sim = sess.simulate()                   # PipelineSimResult
    print(result.plan.describe(), sim.throughput_tokens_s)

Set ``trace_path="trace.jsonl"`` (or the ``SPLITQUANT_TRACE`` env var)
to capture a span trace of everything the session does; render it with
``scripts/trace_report.py``.  The lower-level pieces remain available::

    from repro import SplitQuantPlanner, PlannerConfig, simulate_plan

Subpackages: ``hardware`` (GPUs/clusters), ``models`` (architectures),
``simgpu`` (the simulated testbed), ``quant`` (quantization + indicators),
``quality`` (TinyLM + perplexity), ``costmodel``, ``pipeline`` (DES),
``workloads``, ``core`` (the planner), ``baselines``, ``runtime``
(threaded execution), ``experiments`` (per-figure reproduction).
"""

from .api import Session, Summary
from .core import PlannerConfig, PlannerResult, SplitQuantPlanner
from .fleet import (
    FleetJob,
    FleetSchedule,
    FleetScheduler,
    FleetSimResult,
    make_job_queue,
    simulate_schedule,
)
from .obs import Tracer, trace, use_tracer
from .hardware import (
    ClusterSpec,
    GPUSpec,
    get_gpu,
    make_cluster,
    table_iii_cluster,
)
from .models import ModelSpec, get_model, list_models
from .pipeline import (
    DegradedSimResult,
    PipelineSimResult,
    render_gantt,
    simulate_degraded,
    simulate_plan,
    simulate_plan_variable,
    trace_plan,
)
from .plan import ExecutionPlan, InfeasibleError, StagePlan, uniform_plan
from .runtime import FaultPlan, FaultSpec, PipelineEngine
from .serialization import load_plan, save_plan
from .workloads import (
    BatchWorkload,
    VariableBatchWorkload,
    WorkloadConfig,
    representative_workload,
)

__version__ = "1.0.0"

__all__ = [
    "Session",
    "Summary",
    "Tracer",
    "trace",
    "use_tracer",
    "PlannerConfig",
    "PlannerResult",
    "SplitQuantPlanner",
    "FleetJob",
    "FleetSchedule",
    "FleetScheduler",
    "FleetSimResult",
    "make_job_queue",
    "simulate_schedule",
    "ClusterSpec",
    "GPUSpec",
    "get_gpu",
    "make_cluster",
    "table_iii_cluster",
    "ModelSpec",
    "get_model",
    "list_models",
    "DegradedSimResult",
    "PipelineSimResult",
    "render_gantt",
    "simulate_degraded",
    "simulate_plan",
    "simulate_plan_variable",
    "trace_plan",
    "load_plan",
    "save_plan",
    "ExecutionPlan",
    "InfeasibleError",
    "StagePlan",
    "uniform_plan",
    "FaultPlan",
    "FaultSpec",
    "PipelineEngine",
    "BatchWorkload",
    "VariableBatchWorkload",
    "WorkloadConfig",
    "representative_workload",
    "__version__",
]
