"""Pipeline serving: discrete-event engine, stage timing, simulator."""

from .events import EventLoop, FaultEvent, Server
from .batchsim import PlanCase, evaluate_plans
from .fastsim import build_plan_tables, clear_table_caches
from .online import (
    ADMISSION_POLICIES,
    OnlineConfig,
    OnlineSimResult,
    online_tables,
    simulate_online,
)
from .simulator import (
    DegradedSimResult,
    PipelineSimResult,
    SIM_BACKENDS,
    check_plan_memory,
    simulate_degraded,
    simulate_plan,
    simulate_plan_variable,
)
from .topology import PipelineTopology, microbatch_sizes
from .trace import Timeline, render_gantt, trace_plan
from .stage import (
    CostModelTiming,
    RooflineTiming,
    StageExecutionModel,
    TimingSource,
)

__all__ = [
    "EventLoop",
    "FaultEvent",
    "Server",
    "ADMISSION_POLICIES",
    "DegradedSimResult",
    "OnlineConfig",
    "OnlineSimResult",
    "PipelineSimResult",
    "PipelineTopology",
    "SIM_BACKENDS",
    "check_plan_memory",
    "microbatch_sizes",
    "online_tables",
    "simulate_online",
    "PlanCase",
    "build_plan_tables",
    "clear_table_caches",
    "evaluate_plans",
    "simulate_degraded",
    "simulate_plan",
    "simulate_plan_variable",
    "Timeline",
    "render_gantt",
    "trace_plan",
    "CostModelTiming",
    "RooflineTiming",
    "StageExecutionModel",
    "TimingSource",
]
