"""Online fleet scheduling: jobs arrive and depart over time.

The offline :class:`~repro.fleet.scheduler.FleetScheduler` sees the whole
job queue upfront and packs it globally.  Online, jobs show up one at a
time and the allocator must react *incrementally*: an arriving job is
placed on the currently **free** inventory only — running jobs keep
their groups and plans untouched, nothing is re-packed from scratch.  A
job that cannot start now but could ever run on the total inventory
waits in a FIFO queue (with backfill past a blocked head); a job no
group of the pool can ever serve is dropped immediately.

One :class:`~repro.fleet.allocator.PlannerPool` persists across all
arrivals, so the shared cost models, indicator tables, and memoized
per-(model, group, workload) plans warm up as the stream progresses —
the fleet-level analogue of the online simulator's duration caches.

Everything is deterministic: arrivals are seeded, placement is the
greedy allocator's pick (:func:`~repro.fleet.allocator.best_assignment`,
ties included), and the timeline replays on the same
:class:`~repro.pipeline.events.EventLoop` the pipeline simulators use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core import PlannerConfig
from ..obs import trace
from ..pipeline.events import EventLoop
from .allocator import (
    Assignment,
    GroupSpec,
    PlannerPool,
    best_assignment,
)
from .jobs import FleetJob, make_job_queue

__all__ = [
    "JobArrival",
    "OnlineFleetResult",
    "OnlineFleetScheduler",
    "OnlineJobRecord",
    "make_job_arrivals",
    "simulate_online_fleet",
]


@dataclass(frozen=True)
class JobArrival:
    """One fleet job plus the time it shows up."""

    job: FleetJob
    arrival_s: float

    def __post_init__(self) -> None:
        if self.arrival_s < 0:
            raise ValueError("arrival_s must be non-negative")


def make_job_arrivals(
    n_jobs: int = 8,
    seed: int = 0,
    mean_interarrival_s: float = 120.0,
    **job_kwargs: object,
) -> Tuple[JobArrival, ...]:
    """A seeded Poisson stream of fleet jobs.

    Job parameters come from :func:`~repro.fleet.jobs.make_job_queue`
    (same seed), arrival gaps from an exponential of the given mean; the
    first job arrives at t=0 so the fleet is never trivially idle.
    """
    if mean_interarrival_s <= 0:
        raise ValueError("mean_interarrival_s must be positive")
    jobs = make_job_queue(n_jobs=n_jobs, seed=seed, **job_kwargs)
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(mean_interarrival_s, size=len(jobs))
    t = 0.0
    out: List[JobArrival] = []
    for i, job in enumerate(jobs):
        out.append(JobArrival(job=job, arrival_s=t))
        t += float(gaps[i])
    return tuple(out)


@dataclass(frozen=True)
class OnlineJobRecord:
    """One job's life on the online fleet timeline."""

    job_id: str
    model: str
    group_counts: Tuple[Tuple[str, int], ...]
    arrival_s: float
    start_s: float
    end_s: float
    total_tokens: int

    @property
    def wait_s(self) -> float:
        return self.start_s - self.arrival_s

    @property
    def turnaround_s(self) -> float:
        return self.end_s - self.arrival_s

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s

    def describe(self) -> str:
        group = "+".join(f"{n}x{g}" for g, n in self.group_counts)
        return (
            f"{self.job_id}: {self.model} on {group} "
            f"arrived {self.arrival_s:.0f}s, waited {self.wait_s:.0f}s, "
            f"ran [{self.start_s:.0f}s - {self.end_s:.0f}s]"
        )


@dataclass(frozen=True)
class OnlineFleetResult:
    """Outcome of one online fleet run (Summary-compliant)."""

    inventory: Dict[str, int]
    jobs: Tuple[OnlineJobRecord, ...]
    #: Jobs no group of the total inventory could ever serve.
    dropped: Tuple[str, ...]
    makespan_s: float
    total_tokens: int
    #: Planner-pool observability; cache warmth varies run to run, so
    #: (like the simulator's provenance fields) it is excluded from
    #: equality.
    pool_stats: Dict[str, int] = field(default_factory=dict, compare=False)
    #: Events the replay loop processed (arrivals + job finishes).
    #: Provenance for the drain-queue regression tests; excluded from
    #: equality like the pipeline result's provenance fields.
    events_processed: int = field(default=0, compare=False)

    @property
    def throughput_tokens_s(self) -> float:
        """Aggregate output tokens/s over the online makespan."""
        if self.makespan_s <= 0:
            return 0.0
        return self.total_tokens / self.makespan_s

    @property
    def duration_s(self) -> float:
        """Online-fleet makespan (the Summary-protocol duration)."""
        return self.makespan_s

    @property
    def mean_wait_s(self) -> float:
        if not self.jobs:
            return 0.0
        return sum(r.wait_s for r in self.jobs) / len(self.jobs)

    @property
    def max_wait_s(self) -> float:
        return max((r.wait_s for r in self.jobs), default=0.0)

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe dict via :func:`repro.serialization.to_dict`."""
        from ..serialization import to_dict

        return to_dict(self)

    def describe(self) -> str:
        lines = [
            f"online fleet: {len(self.jobs)} jobs served on "
            + " + ".join(
                f"{n}x{g}" for g, n in sorted(self.inventory.items())
            )
            + f", makespan {self.makespan_s:.0f}s, "
            f"{self.throughput_tokens_s:.0f} tok/s aggregate, "
            f"mean wait {self.mean_wait_s:.0f}s"
        ]
        for r in sorted(self.jobs, key=lambda r: (r.arrival_s, r.job_id)):
            lines.append("  " + r.describe())
        if self.dropped:
            lines.append("  dropped: " + ", ".join(self.dropped))
        return "\n".join(lines)


class OnlineFleetScheduler:
    """Incremental allocation of arriving jobs onto free fleet capacity.

    Holds the free-GPU ledger and the waiting queue; the driver
    (:func:`simulate_online_fleet`) feeds it ``submit`` / ``release``
    calls in event order.  Placement of one job mirrors the greedy
    allocator's pick — best predicted tokens/s per GPU among feasible
    groups — but restricted to the *free* inventory, so running jobs are
    never disturbed.
    """

    def __init__(
        self,
        inventory: Dict[str, int],
        config: Optional[PlannerConfig] = None,
    ) -> None:
        if config is None:
            from .scheduler import default_fleet_config

            config = default_fleet_config()
        self.inventory = {g: n for g, n in inventory.items() if n > 0}
        self.free = dict(self.inventory)
        self.pool = PlannerPool(self.inventory, config=config)
        #: Waiting jobs as (job, arrival time), FIFO by arrival.
        self.queue: List[Tuple[FleetJob, float]] = []
        #: Admissibility index: per waiting job, its planner-feasible
        #: assignments over every inventory-fitting group (in group
        #: enumeration order).  Planner feasibility depends only on the
        #: (job, group) pair — never on the free budget — so a release
        #: event just filters this list by ``fits(free)`` instead of
        #: re-running the planner scan per waiting job.
        self._feasible_cache: Dict[str, List[Assignment]] = {}

    def _feasible_on(
        self, job: FleetJob, budget: Dict[str, int]
    ) -> List[Assignment]:
        """Planner-feasible assignments on budget-fitting groups, in
        group enumeration order (the tie-break order of ``_best_on``)."""
        candidates = [g for g in self.pool.groups if g.fits(budget)]
        evaluated = [self.pool.evaluate(job, g) for g in candidates]
        return [a for a in evaluated if a is not None]

    def _best_on(
        self, job: FleetJob, budget: Dict[str, int]
    ) -> Optional[Assignment]:
        candidates = [g for g in self.pool.groups if g.fits(budget)]
        return self.pool.best_on(job, candidates)

    def _reserve(self, group: GroupSpec) -> None:
        for g, n in group.counts:
            self.free[g] -= n

    def _release(self, group: GroupSpec) -> None:
        for g, n in group.counts:
            self.free[g] += n

    def submit(
        self, job: FleetJob, now: float
    ) -> Tuple[str, Optional[Assignment]]:
        """Offer an arriving job; returns (status, assignment).

        ``status`` is ``"started"`` (placed on free GPUs now),
        ``"queued"`` (feasible on the total inventory, waiting), or
        ``"dropped"`` (no group of this pool can ever serve it).
        """
        assignment = self._best_on(job, self.free)
        if assignment is not None:
            self._reserve(assignment.group)
            return "started", assignment
        feasible = self._feasible_on(job, self.inventory)
        if feasible:
            self._feasible_cache[job.job_id] = feasible
            self.queue.append((job, now))
            return "queued", None
        return "dropped", None

    def drain_queue(
        self, now: float
    ) -> List[Tuple[FleetJob, float, Assignment]]:
        """Start every waiting job that now fits (FIFO, with backfill).

        Called after a release; returns the started
        ``(job, arrival, assignment)`` triples in start order.  The pick
        filters each job's cached admissibility index by the free budget
        — zero planner calls — and is decision-identical to a per-job
        planner rescan (``_best_on(job, self.free)``): free-fitting
        groups are a subset of inventory-fitting ones, the cached list
        preserves group enumeration order, and the pick is the same, so
        the same assignment wins every tie.
        """
        started: List[Tuple[FleetJob, float, Assignment]] = []
        remaining: List[Tuple[FleetJob, float]] = []
        for job, arrival in self.queue:
            fits = [
                a
                for a in self._feasible_cache[job.job_id]
                if a.group.fits(self.free)
            ]
            assignment = best_assignment(fits) if fits else None
            if assignment is None:
                remaining.append((job, arrival))
                continue
            self._reserve(assignment.group)
            self._feasible_cache.pop(job.job_id, None)
            started.append((job, arrival, assignment))
        self.queue = remaining
        return started


def simulate_online_fleet(
    inventory: Dict[str, int],
    arrivals: Sequence[Union[JobArrival, Tuple[float, FleetJob]]],
    config: Optional[PlannerConfig] = None,
) -> OnlineFleetResult:
    """Replay an arrival stream of fleet jobs through the online scheduler.

    Job durations come from the batched pipeline simulator
    (:meth:`PlannerPool.score_assignments`) — the same measured
    per-batch makespans the offline
    :func:`~repro.fleet.simulator.simulate_schedule` composes — falling
    back to the planner's analytic prediction where scoring declines.

    Queue drains filter each waiting job's cached feasible assignments
    instead of re-running the planner scan.
    """
    if not arrivals:
        raise ValueError("arrival stream is empty")
    stream: List[JobArrival] = [
        a if isinstance(a, JobArrival) else JobArrival(job=a[1], arrival_s=a[0])
        for a in arrivals
    ]
    stream.sort(key=lambda a: (a.arrival_s, a.job.job_id))
    ids = [a.job.job_id for a in stream]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate job ids in arrival stream")

    with trace.span(
        "fleet.online",
        jobs=len(stream),
        gpus=sum(inventory.values()),
    ) as sp:
        result = _simulate_online_fleet(inventory, stream, config)
        sp.set(
            served=len(result.jobs),
            dropped=len(result.dropped),
            makespan_s=round(result.makespan_s, 3),
        )
        return result


def _simulate_online_fleet(
    inventory: Dict[str, int],
    stream: List[JobArrival],
    config: Optional[PlannerConfig],
) -> OnlineFleetResult:
    sched = OnlineFleetScheduler(inventory, config=config)
    loop = EventLoop()
    records: List[OnlineJobRecord] = []
    dropped: List[str] = []

    def duration_of(assignment: Assignment) -> float:
        score = sched.pool.score_assignments([assignment])[0]
        if score is None:
            return assignment.duration_s
        return assignment.job.num_batches * score

    def start(job: FleetJob, arrival: float, assignment: Assignment,
              now: float) -> None:
        end = now + duration_of(assignment)
        records.append(
            OnlineJobRecord(
                job_id=job.job_id,
                model=job.model,
                group_counts=assignment.group.counts,
                arrival_s=arrival,
                start_s=now,
                end_s=end,
                total_tokens=job.total_output_tokens,
            )
        )

        def finish() -> None:
            sched._release(assignment.group)
            for qjob, qarr, qassign in sched.drain_queue(loop.now):
                start(qjob, qarr, qassign, loop.now)

        loop.at(end, finish)

    for ja in stream:
        def arrive(ja: JobArrival = ja) -> None:
            status, assignment = sched.submit(ja.job, loop.now)
            if status == "started":
                assert assignment is not None
                start(ja.job, ja.arrival_s, assignment, loop.now)
            elif status == "dropped":
                dropped.append(ja.job.job_id)

        loop.at(ja.arrival_s, arrive)

    loop.run()

    makespan = max((r.end_s for r in records), default=0.0)
    return OnlineFleetResult(
        inventory=dict(sched.inventory),
        jobs=tuple(records),
        dropped=tuple(dropped),
        makespan_s=makespan,
        total_tokens=sum(r.total_tokens for r in records),
        pool_stats=sched.pool.stats(),
        events_processed=loop.processed,
    )
