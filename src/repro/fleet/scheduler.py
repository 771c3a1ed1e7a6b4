"""The fleet-level multi-job scheduler (the layer above the per-job planner).

The paper's Fig. 1 motivation — a fleet whose A100s run hot while the
T4/V100/P100 long tail idles — becomes actionable here: a queue of
offline serving jobs (:class:`~repro.fleet.jobs.FleetJob`) is placed onto
a schedulable inventory of idle GPUs.  An allocator carves the inventory
into per-job heterogeneous groups (each planned by the per-job
:class:`~repro.core.planner.SplitQuantPlanner` through the shared
:class:`~repro.fleet.allocator.PlannerPool`), and a deterministic
backfilling list scheduler lays the jobs out in time, minimizing fleet
makespan / maximizing aggregate tokens per second.

Degrade-aware rescheduling (:meth:`FleetScheduler.reschedule_after_failure`)
hooks into the runtime fault model: when a GPU is reclaimed by its owner
mid-job (the fleet is *borrowed* idle capacity), the job replans on its
reduced group via :meth:`~repro.core.planner.SplitQuantPlanner.replan`;
if nothing fits there, the job's surviving GPUs return to the pool and
the job is re-allocated from scratch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple, Union

from ..core import PlannerConfig
from ..costmodel.energy import PriceBook, default_price_book
from ..hardware.fleet import FleetStats, schedulable_inventory
from ..obs import trace
from ..plan import InfeasibleError
from .allocator import (
    Assignment,
    BeamAllocator,
    GreedyAllocator,
    GroupSpec,
    PlannerPool,
    list_schedule,
)
from .jobs import FleetJob

__all__ = [
    "FleetSchedule",
    "FleetScheduler",
    "ScheduledJob",
    "compare_allocators",
    "default_fleet_config",
]

#: Allocator registry for the string shorthand.
_ALLOCATORS = {"greedy": GreedyAllocator, "beam": BeamAllocator}


def default_fleet_config() -> PlannerConfig:
    """A planner configuration tuned for fleet-scale probing.

    Allocators evaluate dozens of (job, group) candidates per scheduling
    run, so each per-group plan uses the fast bitwidth-transfer heuristic
    with a small enumeration budget; the per-job plan quality SLO is
    still enforced through each job's hard quality budget.
    """
    return PlannerConfig(
        use_heuristic=True,
        group_size=8,
        max_orderings=3,
        microbatch_candidates=(8,),
        verify_top_k=1,
    )


@dataclass(frozen=True)
class ScheduledJob:
    """One placed job: its assignment plus its slot on the timeline."""

    assignment: Assignment
    start_s: float
    end_s: float

    @property
    def job(self) -> FleetJob:
        return self.assignment.job

    @property
    def group(self) -> GroupSpec:
        return self.assignment.group

    def describe(self) -> str:
        return (
            f"[{self.start_s:8.1f}s - {self.end_s:8.1f}s] "
            + self.assignment.describe()
        )


@dataclass(frozen=True)
class FleetSchedule:
    """The scheduler's output: placed jobs on a shared inventory."""

    inventory: Dict[str, int]
    jobs: Tuple[ScheduledJob, ...]
    #: Jobs no allocator could place (infeasible on every group).
    unscheduled: Tuple[FleetJob, ...]
    makespan_s: float
    allocator: str
    #: Planner-pool observability (evaluations / cache hits / infeasible).
    pool_stats: Dict[str, int]

    @property
    def total_output_tokens(self) -> int:
        return sum(sj.job.total_output_tokens for sj in self.jobs)

    @property
    def aggregate_tokens_s(self) -> float:
        """Fleet-level output throughput over the whole makespan."""
        if self.makespan_s <= 0:
            return 0.0
        return self.total_output_tokens / self.makespan_s

    def gpu_hours_used(self) -> Dict[str, float]:
        """Busy GPU-hours per type over the schedule."""
        out: Dict[str, float] = {g: 0.0 for g in self.inventory}
        for sj in self.jobs:
            hours = (sj.end_s - sj.start_s) / 3600.0
            for g, n in sj.group.counts:
                out[g] = out.get(g, 0.0) + n * hours
        return out

    def describe(self) -> str:
        lines = [
            f"fleet schedule ({self.allocator}): "
            f"{len(self.jobs)} jobs on "
            + " + ".join(
                f"{n}x{g}" for g, n in sorted(self.inventory.items())
            ),
        ]
        for sj in sorted(self.jobs, key=lambda s: (s.start_s, s.job.job_id)):
            lines.append("  " + sj.describe())
        lines.append(
            f"  makespan {self.makespan_s:.1f}s, "
            f"aggregate {self.aggregate_tokens_s:.0f} tok/s"
        )
        if self.unscheduled:
            lines.append(
                "  unscheduled: "
                + ", ".join(j.job_id for j in self.unscheduled)
            )
        return "\n".join(lines)


class FleetScheduler:
    """Schedule a queue of offline jobs onto an idle-GPU inventory."""

    def __init__(
        self,
        inventory: Union[Dict[str, int], FleetStats],
        config: Optional[PlannerConfig] = None,
        allocator: str = "beam",
        pool_gpus: int = 32,
        objective: str = "throughput",
        spot_types: Sequence[str] = (),
        price_book: Optional[PriceBook] = None,
    ) -> None:
        if isinstance(inventory, FleetStats):
            inventory = schedulable_inventory(inventory, pool_gpus=pool_gpus)
        if config is None:
            config = default_fleet_config()
        self.inventory = dict(inventory)
        self.config = config
        # Spot-priced GPU types bill at the book's spot rate and are the
        # preemptible ones (:meth:`preempt_spot`).
        if price_book is None:
            price_book = default_price_book(spot_types=tuple(spot_types))
        elif spot_types:
            raise ValueError(
                "pass spot_types inside the price_book, not alongside it"
            )
        self.price_book = price_book
        if allocator not in _ALLOCATORS:
            raise ValueError(
                f"unknown allocator {allocator!r} "
                f"(expected one of {sorted(_ALLOCATORS)})"
            )
        self.allocator = _ALLOCATORS[allocator](objective, price_book)
        self.pool = PlannerPool(self.inventory, config=config)

    # -- scheduling ----------------------------------------------------

    def schedule(self, jobs: Sequence[FleetJob]) -> FleetSchedule:
        """Allocate groups, plan each job, and lay jobs out in time."""
        if not jobs:
            raise ValueError("job queue is empty")
        ids = [j.job_id for j in jobs]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate job ids in queue")
        with trace.span(
            "fleet.schedule",
            jobs=len(jobs),
            gpus=sum(self.inventory.values()),
            allocator=self.allocator.name,
        ) as sp:
            assignments = self.allocator.allocate(jobs, self.pool)
            schedule = self._timeline(jobs, assignments)
            sp.set(
                scheduled=len(schedule.jobs),
                makespan_s=round(schedule.makespan_s, 3),
            )
            return schedule

    def _timeline(
        self,
        jobs: Sequence[FleetJob],
        assignments: Sequence[Assignment],
        inventory: Optional[Dict[str, int]] = None,
    ) -> FleetSchedule:
        inv = dict(self.inventory if inventory is None else inventory)
        start, end, makespan = list_schedule(assignments, inv)
        placed = {a.job.job_id for a in assignments}
        scheduled = tuple(
            ScheduledJob(assignment=a, start_s=s, end_s=e)
            for a, s, e in zip(assignments, start, end)
        )
        return FleetSchedule(
            inventory=inv,
            jobs=scheduled,
            unscheduled=tuple(
                j for j in jobs if j.job_id not in placed
            ),
            makespan_s=makespan,
            allocator=self.allocator.name,
            pool_stats=self.pool.stats(),
        )

    # -- degrade-aware rescheduling ------------------------------------

    def reschedule_after_failure(
        self,
        schedule: FleetSchedule,
        job_id: str,
        dead_gpu: Optional[str] = None,
    ) -> FleetSchedule:
        """One GPU of a running job is reclaimed; repair the schedule.

        The reclaimed GPU leaves the schedulable inventory (its owner
        took it back — the fault model's permanent ``kill``).  The victim
        job first replans on its reduced group via
        :meth:`SplitQuantPlanner.replan`; when nothing fits there, the
        job's surviving GPUs return to the pool and the job is
        re-allocated from the remaining inventory.  All other jobs keep
        their groups and plans; only the timeline is recomputed.
        """
        victim = next(
            (sj for sj in schedule.jobs if sj.job.job_id == job_id), None
        )
        if victim is None:
            raise KeyError(f"job {job_id!r} is not in the schedule")
        group = victim.group
        if dead_gpu is None:
            dead_gpu = group.counts[0][0]
        if dead_gpu not in group.as_dict():
            raise ValueError(
                f"job {job_id!r} holds no {dead_gpu!r} "
                f"(group {group.describe()})"
            )
        with trace.span("fleet.reschedule", job=job_id, dead_gpu=dead_gpu) as sp:
            new_inventory = dict(schedule.inventory)
            new_inventory[dead_gpu] -= 1
            if new_inventory[dead_gpu] <= 0:
                del new_inventory[dead_gpu]
            # A fresh pool: its cost models are fitted over the GPU
            # types that remain.
            pool = PlannerPool(new_inventory, config=self.config)
            # Cascade: other jobs keep their groups unless the shrunken
            # inventory can no longer ever host them concurrently with
            # itself (e.g. a 4xV100 group with 3 V100s left) — those are
            # reallocated from the reduced pool.
            others = []
            cascaded = 0
            for sj in schedule.jobs:
                if sj.job.job_id == job_id:
                    continue
                if sj.assignment.group.fits(new_inventory):
                    others.append(sj.assignment)
                else:
                    realloc = self._reallocate(sj.job, pool)
                    if realloc is not None:
                        others.append(realloc)
                    cascaded += 1
            repaired = self._replan_reduced(victim.assignment, dead_gpu)
            action = "degrade"
            if repaired is None:
                repaired = self._reallocate(victim.job, pool)
                action = "reallocate" if repaired is not None else "drop"
            sp.set(action=action, cascaded=cascaded)
            assignments = others + ([repaired] if repaired else [])
            jobs = [sj.job for sj in schedule.jobs] + list(
                schedule.unscheduled
            )
            return self._timeline(jobs, assignments, inventory=new_inventory)

    def preempt_spot(
        self,
        schedule: FleetSchedule,
        job_id: str,
        gpu: Optional[str] = None,
    ) -> FleetSchedule:
        """A spot instance of a running job is reclaimed by the provider.

        Spot GPUs trade the discounted rate in the price book for
        preemptibility; losing one is operationally identical to an owner
        reclaiming an idle GPU, so this validates that the reclaimed type
        is actually spot-priced and then routes through
        :meth:`reschedule_after_failure` — the victim job repairs its
        plan via the incremental
        :class:`~repro.core.replan.ClusterDelta` replan path.
        """
        victim = next(
            (sj for sj in schedule.jobs if sj.job.job_id == job_id), None
        )
        if victim is None:
            raise KeyError(f"job {job_id!r} is not in the schedule")
        if gpu is None:
            spot_held = [
                g
                for g, _ in victim.group.counts
                if g in self.price_book.spot_types
            ]
            if not spot_held:
                raise ValueError(
                    f"job {job_id!r} holds no spot-priced GPUs "
                    f"(group {victim.group.describe()}, spot types "
                    f"{sorted(self.price_book.spot_types)})"
                )
            gpu = spot_held[0]
        elif gpu not in self.price_book.spot_types:
            raise ValueError(
                f"{gpu!r} is not a spot-priced type "
                f"(spot types {sorted(self.price_book.spot_types)})"
            )
        return self.reschedule_after_failure(schedule, job_id, dead_gpu=gpu)

    def _replan_reduced(
        self, assignment: Assignment, dead_gpu: str
    ) -> Optional[Assignment]:
        """Replan the job on its group minus one ``dead_gpu`` device."""
        reduced_counts = tuple(
            (g, n - 1 if g == dead_gpu else n)
            for g, n in assignment.group.counts
            if not (g == dead_gpu and n == 1)
        )
        if not reduced_counts:
            return None
        job = assignment.job
        cluster = assignment.materialize_cluster()
        # The reclaimed device is the *last* device of the dead type
        # (deterministic choice; device ids are group-local).
        dead_id = max(
            d.device_id for d in cluster.devices if d.gpu.name == dead_gpu
        )
        survivors = [
            d.device_id for d in cluster.devices if d.device_id != dead_id
        ]
        planner = self.pool.planner(job, cluster)
        from ..core.planner import _reduced_cluster
        from ..core.replan import ClusterDelta

        try:
            # Incremental: repair the previous plan (bits kept, layers
            # re-partitioned) and only re-solve when the repair fails.
            result = planner.replan(
                assignment.result,
                ClusterDelta(removed_device_ids=(dead_id,)),
                workload=job.workload,
            )
        except InfeasibleError:
            return None
        return Assignment(
            job=job,
            group=GroupSpec(counts=reduced_counts),
            result=result,
            cluster=_reduced_cluster(cluster, survivors),
        )

    def _reallocate(self, job: FleetJob, pool: PlannerPool) -> Optional[Assignment]:
        """Greedy allocation of one job from ``pool`` by the scheduler's
        objective."""
        greedy = GreedyAllocator(self.allocator.objective, self.price_book)
        allocated = greedy.allocate([job], pool)
        return allocated[0] if allocated else None


def compare_allocators(
    jobs: Sequence[FleetJob],
    inventory: Dict[str, int],
    config: Optional[PlannerConfig] = None,
) -> Dict[str, FleetSchedule]:
    """Schedule the same queue with every registered allocator."""
    out: Dict[str, FleetSchedule] = {}
    for name in sorted(_ALLOCATORS):
        sched = FleetScheduler(inventory, config=config, allocator=name)
        out[name] = sched.schedule(jobs)
    return out
