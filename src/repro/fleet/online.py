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
arrivals, so the shared cost models, indicator tables, latency floors
and memoized per-(model, group, workload) plans warm up as the stream
progresses.  Every pick — start, queue-or-drop, drain — is the pool's
bound-pruned :meth:`~repro.fleet.allocator.PlannerPool.best_on`, the
same pick the offline greedy allocator makes, and job durations come
from the per-job simulation the offline fleet simulator runs.

Everything is deterministic: arrivals are seeded, picks break ties as
:func:`~repro.fleet.allocator.best_assignment` does, and the timeline
is a heap of releases: at equal times arrivals come before releases,
and releases come in start order.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core import PlannerConfig
from ..obs import trace
from .allocator import Assignment, GroupSpec, PlannerPool
from .jobs import FleetJob, make_job_queue
from .simulator import job_batch_sim

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
        if not math.isfinite(self.arrival_s) or self.arrival_s < 0:
            raise ValueError(
                f"arrival_s must be finite and non-negative, got {self.arrival_s}"
            )


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
    if not math.isfinite(mean_interarrival_s) or mean_interarrival_s <= 0:
        raise ValueError(
            "mean_interarrival_s must be finite and positive, "
            f"got {mean_interarrival_s}"
        )
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
    #: Timeline events replayed: one per arrival, one per job release.
    #: Provenance, excluded from equality like the pipeline result's
    #: provenance fields.
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
        if self._best_on(job, self.inventory) is not None:
            self.queue.append((job, now))
            return "queued", None
        return "dropped", None

    def drain_queue(
        self, now: float
    ) -> List[Tuple[FleetJob, float, Assignment]]:
        """Start every waiting job that now fits (FIFO, with backfill).

        Called after a release; returns the started
        ``(job, arrival, assignment)`` triples in start order.  Each
        waiting job is picked on the groups that fit the free budget left
        by the jobs started before it.
        """
        started: List[Tuple[FleetJob, float, Assignment]] = []
        remaining: List[Tuple[FleetJob, float]] = []
        for job, arrival in self.queue:
            assignment = self._best_on(job, self.free)
            if assignment is None:
                remaining.append((job, arrival))
                continue
            self._reserve(assignment.group)
            started.append((job, arrival, assignment))
        self.queue = remaining
        return started


def simulate_online_fleet(
    inventory: Dict[str, int],
    arrivals: Sequence[Union[JobArrival, Tuple[float, FleetJob]]],
    config: Optional[PlannerConfig] = None,
) -> OnlineFleetResult:
    """Replay an arrival stream of fleet jobs through the online scheduler.

    A job runs for its batch count times the simulated makespan of one
    batch — the per-job simulation
    :func:`~repro.fleet.simulator.simulate_schedule` composes.
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
    records: List[OnlineJobRecord] = []
    dropped: List[str] = []
    # Pending releases as (end time, start index, group).
    releases: List[Tuple[float, int, GroupSpec]] = []

    def start(
        job: FleetJob, arrival: float, assignment: Assignment, now: float
    ) -> None:
        end = now + job.num_batches * job_batch_sim(assignment).makespan_s
        heapq.heappush(releases, (end, len(records), assignment.group))
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

    def release_before(t: float) -> None:
        """Release every job ending before ``t``, each followed by a
        queue drain."""
        while releases and releases[0][0] < t:
            now, _, group = heapq.heappop(releases)
            sched._release(group)
            for job, arrival, assignment in sched.drain_queue(now):
                start(job, arrival, assignment, now)

    for ja in stream:
        # Releases at the arrival's own time come after it.
        release_before(ja.arrival_s)
        status, assignment = sched.submit(ja.job, ja.arrival_s)
        if status == "started":
            assert assignment is not None
            start(ja.job, ja.arrival_s, assignment, ja.arrival_s)
        elif status == "dropped":
            dropped.append(ja.job.job_id)
    release_before(math.inf)

    makespan = max((r.end_s for r in records), default=0.0)
    return OnlineFleetResult(
        inventory=dict(sched.inventory),
        jobs=tuple(records),
        dropped=tuple(dropped),
        makespan_s=makespan,
        total_tokens=sum(r.total_tokens for r in records),
        pool_stats=sched.pool.stats(),
        events_processed=len(stream) + len(records),
    )
