"""Execution timelines: record and render pipeline schedules.

``trace_plan`` reruns a plan through the discrete-event simulator with
the stage servers' per-job recording on and returns a :class:`Timeline`;
``render_gantt`` draws it as text — the quickest way to *see* pipeline
bubbles, phase boundaries and stage imbalance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..hardware.cluster import ClusterSpec
from ..models.architectures import ModelSpec
from ..plan import ExecutionPlan
from ..workloads.spec import BatchWorkload
from .simulator import PipelineSimResult, _simulate_closed_batch, attach_energy
from .stage import TimingSource


@dataclass(frozen=True)
class Timeline:
    """Per-stage job intervals of one simulated batch."""

    #: (stage name, ((start, finish, label), ...)) per pipeline stage.
    stages: Tuple[Tuple[str, Tuple[Tuple[float, float, str], ...]], ...]
    makespan_s: float
    result: PipelineSimResult

    def stage_jobs(self, index: int) -> Tuple[Tuple[float, float, str], ...]:
        return self.stages[index][1]

    def idle_gaps(self, index: int) -> List[Tuple[float, float]]:
        """Idle intervals of a stage between its first and last job."""
        jobs = sorted(self.stage_jobs(index))
        gaps: List[Tuple[float, float]] = []
        for (s0, f0, _), (s1, _, _) in zip(jobs, jobs[1:]):
            if s1 > f0 + 1e-12:
                gaps.append((f0, s1))
        return gaps


def trace_plan(
    plan: ExecutionPlan,
    cluster: ClusterSpec,
    spec: ModelSpec,
    workload: BatchWorkload,
    timing: Optional[TimingSource] = None,
    check_memory: bool = True,
) -> Timeline:
    """Simulate ``plan`` with per-job recording and return the timeline.

    Per-job intervals exist only in the discrete-event engine (the fast
    path computes the same finish times in closed form without servers),
    so this always runs the event backend.  Job labels are those of the
    online driver the event backend runs on: ``P{group}.{micro-batch}.
    {chunk}`` for prefill and ``D{group}.{micro-batch}.{step}`` for
    decode, with one group (``0``) per closed batch.
    """
    result, servers = _simulate_closed_batch(
        plan, cluster, spec, workload,
        (workload.output_len,) * workload.batch,
        timing, check_memory, "event", record_jobs=True,
    )
    return Timeline(
        stages=tuple((srv.name, tuple(srv.jobs)) for srv in servers),
        makespan_s=result.makespan_s,
        result=attach_energy(result, plan, cluster, spec, workload),
    )


def render_gantt(
    timeline: Timeline,
    width: int = 100,
    labels: Optional[Sequence[str]] = None,
) -> str:
    """Render a timeline as a text Gantt chart.

    Busy time is drawn with ``#`` (prefill-tagged jobs) and ``=``
    (decode-tagged jobs); idle time with spaces.
    """
    if width < 10:
        raise ValueError("width must be >= 10")
    span = timeline.makespan_s
    if span <= 0:
        return "(empty timeline)"
    lines = []
    name_w = max(len(n) for n, _ in timeline.stages)
    if labels is not None:
        if len(labels) != len(timeline.stages):
            raise ValueError("one label per stage required")
        name_w = max(name_w, max(len(l) for l in labels))
    for i, (name, jobs) in enumerate(timeline.stages):
        row = [" "] * width
        for start, finish, label in jobs:
            a = int(start / span * (width - 1))
            b = max(int(finish / span * (width - 1)), a)
            ch = "#" if label.startswith("P") else "="
            for k in range(a, b + 1):
                row[k] = ch
        shown = labels[i] if labels is not None else name
        lines.append(f"{shown:>{name_w}} |{''.join(row)}|")
    scale = f"{' ' * name_w} 0s{' ' * (width - 12)}{span:8.2f}s"
    lines.append(scale)
    lines.append(f"{' ' * name_w} #=prefill  ==decode")
    return "\n".join(lines)
