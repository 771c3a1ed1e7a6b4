"""Discrete-event fleet simulation: compose per-job pipeline sims.

Each scheduled job's one-batch serving is simulated with the PR-0
discrete-event pipeline simulator (:func:`repro.pipeline.simulate_plan`)
on the job's materialized group cluster; the measured per-batch makespan
replaces the planner's analytic prediction, the backfilling list
scheduler is re-run with the measured durations, and everything is
composed into a :class:`FleetSimResult`.

The headline metric mirrors Fig. 1: how many of the fleet's idle
GPU-hours would serving like this reclaim?  :meth:`FleetSimResult.
idle_recovery` extrapolates the pool utilization the schedule achieved
to the full idle capacity of a sampled fleet
(:class:`~repro.hardware.fleet.FleetStats`), using the same
:data:`~repro.hardware.fleet.HOURS_PER_MONTH` denominator
``FleetStats.idle_gpu_hours`` reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from ..costmodel.energy import PriceBook, default_price_book
from ..hardware.fleet import HOURS_PER_MONTH, FleetStats
from ..hardware.gpus import get_gpu
from ..models import get_model
from ..obs import trace
from ..pipeline.simulator import PipelineSimResult, simulate_plan
from .allocator import Assignment, list_schedule
from .scheduler import FleetSchedule

__all__ = ["FleetSimResult", "JobSimRecord", "simulate_schedule"]

_JOULES_PER_KWH = 3.6e6


@dataclass(frozen=True)
class JobSimRecord:
    """One job's simulated run inside the fleet timeline."""

    job_id: str
    model: str
    group_counts: Tuple[Tuple[str, int], ...]
    num_batches: int
    start_s: float
    end_s: float
    total_tokens: int
    #: The one-batch discrete-event simulation the run is composed from.
    batch_sim: PipelineSimResult

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s

    @property
    def throughput_tokens_s(self) -> float:
        if self.duration_s <= 0:
            return 0.0
        return self.total_tokens / self.duration_s

    def describe(self) -> str:
        group = "+".join(f"{n}x{g}" for g, n in self.group_counts)
        return (
            f"{self.job_id}: {self.model} on {group} "
            f"[{self.start_s:.1f}s - {self.end_s:.1f}s] "
            f"{self.throughput_tokens_s:.0f} tok/s"
        )


@dataclass(frozen=True)
class FleetSimResult:
    """Outcome of simulating a whole fleet schedule.

    Implements the :class:`repro.api.Summary` protocol — ``to_dict()``
    round-trips through :mod:`repro.serialization`,
    :attr:`throughput_tokens_s` is the fleet-aggregate output
    throughput, and :attr:`duration_s` is the fleet makespan.
    """

    inventory: Dict[str, int]
    jobs: Tuple[JobSimRecord, ...]
    makespan_s: float
    total_tokens: int
    allocator: str
    #: Fleet-wide joules over the makespan: every job's per-batch energy
    #: times its batch count, plus idle draw for unallocated inventory
    #: GPU-seconds.  ``None`` on results predating energy accounting.
    energy_j: Optional[float] = None
    #: Fleet-wide dollars: the whole inventory rented for the makespan at
    #: the price book's tier rates, plus electricity for ``energy_j``.
    cost_usd: Optional[float] = None

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

    @property
    def throughput_tokens_s(self) -> float:
        """Aggregate output tokens/s over the fleet makespan."""
        if self.makespan_s <= 0:
            return 0.0
        return self.total_tokens / self.makespan_s

    @property
    def duration_s(self) -> float:
        """Fleet makespan (the Summary-protocol duration)."""
        return self.makespan_s

    def gpu_hours_used(self) -> Dict[str, float]:
        """Busy GPU-hours per type over the simulated timeline."""
        out: Dict[str, float] = {g: 0.0 for g in self.inventory}
        for rec in self.jobs:
            hours = rec.duration_s / 3600.0
            for g, n in rec.group_counts:
                out[g] = out.get(g, 0.0) + n * hours
        return out

    def pool_utilization(self) -> Dict[str, float]:
        """Busy fraction of each pool GPU type during the makespan."""
        if self.makespan_s <= 0:
            return {g: 0.0 for g in self.inventory}
        span_hours = self.makespan_s / 3600.0
        used = self.gpu_hours_used()
        return {
            g: min(used.get(g, 0.0) / (n * span_hours), 1.0)
            for g, n in self.inventory.items()
            if n > 0
        }

    def idle_recovery(
        self,
        stats: FleetStats,
        hours_per_month: float = HOURS_PER_MONTH,
    ) -> Dict[str, Any]:
        """Reclaimed idle GPU-hours vs the Fig. 1 baseline.

        Extrapolates the pool utilization this schedule achieved to the
        sampled fleet's whole idle capacity: operating all of type
        ``t``'s idle GPUs at the schedule's busy fraction reclaims
        ``idle_gpu_hours[t] * pool_utilization[t]`` GPU-hours/month.
        """
        idle = stats.idle_gpu_hours(hours_per_month=hours_per_month)
        util = self.pool_utilization()
        per_type = {
            g: {
                "idle_gpu_hours": idle.get(g, 0.0),
                "pool_utilization": util.get(g, 0.0),
                "reclaimed_gpu_hours": idle.get(g, 0.0) * util.get(g, 0.0),
            }
            for g in sorted(set(idle) | set(util))
        }
        total_idle = sum(v["idle_gpu_hours"] for v in per_type.values())
        total_reclaimed = sum(
            v["reclaimed_gpu_hours"] for v in per_type.values()
        )
        return {
            "per_type": per_type,
            "total_idle_gpu_hours": total_idle,
            "total_reclaimed_gpu_hours": total_reclaimed,
            "reclaimed_fraction": (
                total_reclaimed / total_idle if total_idle > 0 else 0.0
            ),
        }

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe dict via :func:`repro.serialization.to_dict`."""
        from ..serialization import to_dict

        return to_dict(self)

    def describe(self) -> str:
        lines = [
            f"fleet simulation ({self.allocator}): {len(self.jobs)} jobs, "
            f"makespan {self.makespan_s:.1f}s, "
            f"{self.throughput_tokens_s:.0f} tok/s aggregate"
        ]
        for rec in sorted(self.jobs, key=lambda r: (r.start_s, r.job_id)):
            lines.append("  " + rec.describe())
        return "\n".join(lines)


def simulate_schedule(
    schedule: FleetSchedule,
    price_book: Optional[PriceBook] = None,
) -> FleetSimResult:
    """Simulate every scheduled job and compose the fleet timeline.

    Each job's plan is memory-checked and simulated on the cluster its
    plan was made for (``sim_backend="auto"``: the closed-form fast path
    whenever it is exact, which for fleet jobs' uniform batches is
    always).  ``price_book`` prices the fleet's rental and electricity
    (:func:`repro.costmodel.energy.default_price_book` when ``None``) —
    GPU types listed in its ``spot_types`` bill at spot rates.
    """
    with trace.span(
        "fleet.simulate",
        jobs=len(schedule.jobs),
        allocator=schedule.allocator,
    ) as sp:
        result = _simulate_schedule(schedule, price_book)
        sp.set(makespan_s=round(result.makespan_s, 3))
        return result


def job_batch_sim(assignment: Assignment) -> PipelineSimResult:
    """One batch of ``assignment``'s job, memory-checked and simulated
    under its plan on the cluster the plan was made for."""
    return simulate_plan(
        assignment.result.plan,
        assignment.materialize_cluster(),
        get_model(assignment.job.model),
        assignment.job.workload,
    )


def _fleet_energy_cost(
    inventory: Dict[str, int],
    records: Tuple[JobSimRecord, ...],
    makespan_s: float,
    price_book: PriceBook,
) -> Tuple[float, float]:
    """Compose fleet joules and dollars from the per-job simulations.

    Busy energy is each job's one-batch ``energy_j`` scaled by its batch
    count (the job's GPUs draw that power for its whole slot).  Idle
    energy covers the rest of the inventory: each type's un-allocated
    GPU-seconds over the makespan at its idle wattage.  Cost rents the
    whole inventory for the makespan (spot or on-demand per the price
    book) and adds electricity for the total joules.
    """
    busy_j = sum(
        (rec.batch_sim.energy_j or 0.0) * rec.num_batches for rec in records
    )
    allocated_s: Dict[str, float] = {g: 0.0 for g in inventory}
    for rec in records:
        for g, n in rec.group_counts:
            allocated_s[g] = allocated_s.get(g, 0.0) + n * rec.duration_s
    idle_j = 0.0
    rental_usd = 0.0
    for g, n in inventory.items():
        idle_gpu_s = max(n * makespan_s - allocated_s.get(g, 0.0), 0.0)
        idle_j += get_gpu(g).idle_watts * idle_gpu_s
        rental_usd += n * price_book.rate_usd_hr(g) * (makespan_s / 3600.0)
    energy = busy_j + idle_j
    cost = rental_usd + (
        energy / _JOULES_PER_KWH
    ) * price_book.electricity_usd_per_kwh
    return energy, cost


def _simulate_schedule(
    schedule: FleetSchedule, price_book: Optional[PriceBook]
) -> FleetSimResult:
    if price_book is None:
        price_book = default_price_book()
    assignments = [sj.assignment for sj in schedule.jobs]
    batch_sims = [job_batch_sim(a) for a in assignments]
    durations = [
        sj.job.num_batches * sim.makespan_s
        for sj, sim in zip(schedule.jobs, batch_sims)
    ]
    start, end, makespan = list_schedule(
        assignments, schedule.inventory, durations=durations
    )
    records = tuple(
        JobSimRecord(
            job_id=sj.job.job_id,
            model=sj.job.model,
            group_counts=sj.group.counts,
            num_batches=sj.job.num_batches,
            start_s=s,
            end_s=e,
            total_tokens=sj.job.total_output_tokens,
            batch_sim=sim,
        )
        for sj, sim, s, e in zip(schedule.jobs, batch_sims, start, end)
    )
    energy, cost = _fleet_energy_cost(
        dict(schedule.inventory), records, makespan, price_book
    )
    return FleetSimResult(
        inventory=dict(schedule.inventory),
        jobs=records,
        makespan_s=makespan,
        total_tokens=sum(r.total_tokens for r in records),
        allocator=schedule.allocator,
        energy_j=energy,
        cost_usd=cost,
    )
