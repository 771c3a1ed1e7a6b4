"""Carving the idle fleet into per-job heterogeneous GPU groups.

Three layers:

* :class:`PlannerPool` — the shared evaluation substrate.  One
  :class:`~repro.costmodel.latency.LatencyCostModel` is fitted per
  (model, KV bitwidth) over *every* GPU type in the inventory and shared
  by all group evaluations (the fleet-level analogue of the planner's
  shared timing memo), the per-model indicator table is computed once,
  and ``plan()`` outcomes are memoized by (model, group, workload, SLO)
  so repeated proposals are free.  :meth:`PlannerPool.best_on` makes
  the :func:`best_assignment` pick best-first, as the candidate search
  does: each group's :meth:`~repro.core.planner.SplitQuantPlanner.latency_floor`
  caps the metric any plan there can reach, and only groups whose cap
  reaches the best metric found are planned.

* :class:`GreedyAllocator` — the bin-packing baseline: jobs in deadline
  order, each takes the feasible group :func:`best_assignment` picks
  (best predicted tokens/s *per GPU*, or per rental $/hr under the cost
  objective) among those that fit the uncommitted inventory (falling
  back to any group that fits the total pool, i.e. a later wave),
  through :meth:`PlannerPool.best_on`.

* :class:`BeamAllocator` — beam search with lookahead: partial
  assignment states are scored by the fleet makespan a deterministic
  list scheduler predicts (so grabbing a big fast group that starves
  later jobs is visible *before* committing), keeping the best
  :data:`BEAM_WIDTH` states per job.  Each job's greedy pick is among
  its expansions and the greedy allocation competes as a final state,
  so beam can only match or beat greedy on the objective it scores.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import asdict, dataclass, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..cache import MISS, cache_key, code_version_salt, default_cache
from ..core import PlannerConfig, PlannerResult, SplitQuantPlanner
from ..costmodel.energy import PriceBook, default_price_book
from ..costmodel.latency import LatencyCostModel
from ..hardware.cluster import ClusterSpec, make_cluster
from ..models import get_model
from ..obs import trace
from ..quant.sensitivity import normalized_indicator_table
from ..serialization import from_dict, to_dict
from .jobs import FleetJob

__all__ = [
    "Assignment",
    "BeamAllocator",
    "GreedyAllocator",
    "GroupSpec",
    "PlannerPool",
    "best_assignment",
    "enumerate_groups",
    "group_rate_usd_hr",
    "list_schedule",
]

#: Candidate groups hold at most this many GPUs of at most this many types.
MAX_GROUP_GPUS = 4
MAX_GROUP_TYPES = 2
#: Beam states kept per job, and the fastest groups each job expands to
#: besides its most frugal, greedy and (cost objective) cheapest picks.
BEAM_WIDTH = 4
BEAM_TOP_GROUPS = 3
#: The link between the nodes of a materialized group (one node per GPU
#: type): planning, scoring and simulation all see the same one.
CROSS_NODE_LINK = "eth-800g"


def group_rate_usd_hr(group: "GroupSpec", price_book: PriceBook) -> float:
    """Rental rate of a whole group ($/hr at the book's tier prices)."""
    return sum(n * price_book.rate_usd_hr(g) for g, n in group.counts)


#: A group's sorted ``(gpu_name, count)`` pairs.
Counts = Tuple[Tuple[str, int], ...]


@dataclass(frozen=True)
class GroupSpec:
    """A proposed per-job GPU group: sorted ``(gpu_name, count)`` pairs."""

    counts: Counts

    def __post_init__(self) -> None:
        if not self.counts:
            raise ValueError("group must contain at least one GPU")
        if any(n <= 0 for _, n in self.counts):
            raise ValueError("group counts must be positive")
        if list(self.counts) != sorted(self.counts):
            raise ValueError("group counts must be sorted by GPU name")

    @property
    def total(self) -> int:
        return sum(n for _, n in self.counts)

    def as_dict(self) -> Dict[str, int]:
        return dict(self.counts)

    def fits(self, inventory: Dict[str, int]) -> bool:
        return all(inventory.get(g, 0) >= n for g, n in self.counts)

    def to_cluster(self, name: str) -> ClusterSpec:
        """Materialize as a cluster (one node per GPU type, as Table III)."""
        return make_cluster(name, list(self.counts), cross_node_link=CROSS_NODE_LINK)

    def describe(self) -> str:
        return "+".join(f"{n}x{g}" for g, n in self.counts)


def enumerate_groups(
    inventory: Dict[str, int],
    max_gpus: int = MAX_GROUP_GPUS,
    max_types: int = MAX_GROUP_TYPES,
) -> Tuple[GroupSpec, ...]:
    """All candidate groups drawable from ``inventory``.

    Combinations of up to ``max_types`` GPU types with up to ``max_gpus``
    devices total, each type's count capped by the inventory.  Ordered
    deterministically (small groups first, then by name) so allocator
    tie-breaks are stable.
    """
    if max_gpus <= 0 or max_types <= 0:
        raise ValueError("max_gpus and max_types must be positive")
    types = sorted(g for g, n in inventory.items() if n > 0)
    seen = set()
    groups: List[GroupSpec] = []
    for k in range(1, min(max_types, len(types)) + 1):
        for combo in itertools.combinations(types, k):
            caps = [min(inventory[g], max_gpus) for g in combo]
            for counts in itertools.product(
                *[range(1, c + 1) for c in caps]
            ):
                if sum(counts) > max_gpus:
                    continue
                spec = GroupSpec(counts=tuple(zip(combo, counts)))
                if spec.counts not in seen:
                    seen.add(spec.counts)
                    groups.append(spec)
    groups.sort(key=lambda g: (g.total, g.counts))
    return tuple(groups)


@dataclass(frozen=True)
class Assignment:
    """One job bound to one group, with its SplitQuant plan.

    ``cluster`` pins the exact cluster the plan's device ids refer to;
    ``None`` means the canonical :meth:`GroupSpec.to_cluster`
    materialization (degraded assignments keep their reduced cluster so
    original device numbering survives a reclaimed GPU).
    """

    job: FleetJob
    group: GroupSpec
    result: PlannerResult
    cluster: Optional[ClusterSpec] = None

    def materialize_cluster(self) -> ClusterSpec:
        if self.cluster is not None:
            return self.cluster
        return self.group.to_cluster(f"fleet-{self.job.job_id}")

    @property
    def batch_makespan_s(self) -> float:
        """Predicted serving latency of one batch."""
        return self.result.predicted_latency_s

    @property
    def duration_s(self) -> float:
        """Predicted runtime of the whole job on its group."""
        return self.job.num_batches * self.batch_makespan_s

    @property
    def tokens_s(self) -> float:
        """Predicted output-token throughput while the job runs."""
        if self.duration_s <= 0:
            return 0.0
        return self.job.total_output_tokens / self.duration_s

    def describe(self) -> str:
        return (
            f"{self.job.job_id} -> {self.group.describe()} "
            f"({self.tokens_s:.0f} tok/s, {self.duration_s:.0f}s)"
        )


def _packing_metric(
    group: GroupSpec, tokens_s: float, price_book: Optional[PriceBook]
) -> float:
    """Tokens/s per GPU of ``group``, or per rental $/hr with a
    ``price_book`` (0 for a free group)."""
    if price_book is None:
        return tokens_s / group.total
    rate = group_rate_usd_hr(group, price_book)
    if rate <= 0:
        return 0.0
    return tokens_s / rate


def _ceiling(
    job: FleetJob,
    group: GroupSpec,
    floor_s: float,
    price_book: Optional[PriceBook],
) -> float:
    """The packing metric ``job`` would reach on ``group`` at the batch
    latency ``floor_s``.  It is computed as :attr:`Assignment.tokens_s`
    is, so a floor at or below a plan's predicted latency gives a ceiling
    at or above its metric, float for float."""
    if floor_s <= 0:
        return float("inf")
    tokens_s = job.total_output_tokens / (job.num_batches * floor_s)
    return _packing_metric(group, tokens_s, price_book)


def best_assignment(
    feasible: Sequence[Assignment], price_book: Optional[PriceBook] = None
) -> Assignment:
    """The packing pick: best predicted tokens/s per GPU.

    With a ``price_book`` (the cost objective) the metric is tokens/s per
    rental $/hr instead, preferring cheap (e.g. spot-priced) GPU types at
    equal speed.  Ties go to the smaller group, then to the first in
    ``feasible`` order.
    """
    return max(
        feasible,
        key=lambda a: (
            _packing_metric(a.group, a.tokens_s, price_book),
            -a.group.total,
        ),
    )


def list_schedule(
    assignments: Sequence[Assignment],
    inventory: Dict[str, int],
    durations: Optional[Sequence[float]] = None,
) -> Tuple[Tuple[float, ...], Tuple[float, ...], float]:
    """Deterministic backfilling list scheduler.

    Jobs are considered in deadline order; at each event time every
    queued job whose group fits the free inventory starts (later jobs
    may backfill past a blocked head-of-line job).  Returns per-
    assignment ``(start_times, end_times, makespan)`` in the order of
    ``assignments``.  ``durations`` overrides the predicted
    :attr:`Assignment.duration_s` (the fleet simulator passes measured
    per-batch makespans).
    """
    if durations is None:
        durations = [a.duration_s for a in assignments]
    if len(durations) != len(assignments):
        raise ValueError("durations must match assignments")
    order = sorted(
        range(len(assignments)),
        key=lambda i: assignments[i].job.sort_key(),
    )
    for i in order:
        if not assignments[i].group.fits(inventory):
            raise ValueError(
                f"job {assignments[i].job.job_id}: group "
                f"{assignments[i].group.describe()} can never fit "
                f"inventory {inventory}"
            )
    free = dict(inventory)
    queued: List[int] = list(order)
    running: List[Tuple[float, int]] = []  # (end_time, index) min-heap
    start = [0.0] * len(assignments)
    end = [0.0] * len(assignments)
    now = 0.0
    while queued or running:
        started = []
        for i in queued:
            if assignments[i].group.fits(free):
                for g, n in assignments[i].group.counts:
                    free[g] -= n
                start[i] = now
                end[i] = now + durations[i]
                heapq.heappush(running, (end[i], i))
                started.append(i)
        queued = [i for i in queued if i not in started]
        if not queued:
            break
        if not running:  # pragma: no cover - guarded by fits() above
            raise RuntimeError("queued jobs but nothing running")
        now, i = heapq.heappop(running)
        for g, n in assignments[i].group.counts:
            free[g] += n
    return tuple(start), tuple(end), max(end) if end else 0.0


#: Distinguishes "persistent cache has no entry" from a cached infeasible
#: (``None``) outcome.
_PMISS = object()


def _decode_plan(entry: Any) -> Optional[PlannerResult]:
    """A stored plan entry; ``None`` marks an infeasible group, stored as
    ``{"result": null}``.  Anything else raises (the caller evicts it)."""
    if not isinstance(entry, dict):
        raise TypeError("stored plan entry is not an object")
    if entry["result"] is None:
        return None
    return from_dict(PlannerResult, entry["result"])


def _job_key(job: FleetJob) -> tuple:
    """What planning ``job`` depends on within a pool, on any group."""
    wl = job.workload
    return (
        job.model,
        (
            wl.batch,
            wl.prompt_len,
            wl.output_len,
            wl.chunk_tokens,
            wl.reserve_output_len,
        ),
        job.min_uniform_bits,
    )


def _memo_key(job: FleetJob, group: GroupSpec) -> tuple:
    """What one evaluation depends on within a pool."""
    model, wl, min_bits = _job_key(job)
    return (model, group.counts, wl, min_bits)


class PlannerPool:
    """Shared, memoized per-group planner evaluation.

    One cost model per (model, KV bitwidth) fitted over all inventory GPU
    types, one indicator table per model, and one memoized ``plan()``
    outcome per (model, group, workload, SLO) — shared across every
    allocator probe in a scheduling run.
    """

    def __init__(
        self,
        inventory: Dict[str, int],
        config: PlannerConfig = PlannerConfig(),
    ) -> None:
        if not inventory or all(n <= 0 for n in inventory.values()):
            raise ValueError("inventory must contain at least one GPU")
        self.inventory = {g: n for g, n in inventory.items() if n > 0}
        self.config = config
        #: Every candidate group of the inventory, in enumeration order.
        self.groups = enumerate_groups(self.inventory)
        # What the persistent plan cache keys on beyond the memo key: the
        # full config and the types the shared cost model is fitted over.
        self._key_base = {
            "kind": "fleet_plan",
            "config": asdict(config),
            "inventory_types": sorted(self.inventory),
        }
        self._cost_models: Dict[Tuple[str, int], LatencyCostModel] = {}
        self._omegas: Dict[str, np.ndarray] = {}
        self._plans: Dict[tuple, Optional[Assignment]] = {}
        self._floors: Dict[tuple, Dict[Counts, float]] = {}
        #: Pool-level observability counters.
        self.evaluations = 0
        self.cache_hits = 0
        self.infeasible = 0

    # -- shared memos --------------------------------------------------

    def _omega(self, model: str) -> np.ndarray:
        if model not in self._omegas:
            self._omegas[model] = normalized_indicator_table(
                get_model(model), self.config.bit_choices
            )
        return self._omegas[model]

    def _cost_model(self, model: str) -> LatencyCostModel:
        """The (model, bit_kv) cost model, fitted over *all* pool types."""
        key = (model, self.config.bit_kv)
        if key not in self._cost_models:
            spec = get_model(model)
            cm = LatencyCostModel(spec, bit_kv=self.config.bit_kv)
            from ..hardware.gpus import get_gpu

            cm.fit(
                [get_gpu(g) for g in sorted(self.inventory)],
                self.config.bit_choices,
            )
            self._cost_models[key] = cm
        return self._cost_models[key]

    def planner(self, job: FleetJob, cluster: ClusterSpec) -> SplitQuantPlanner:
        """The job's planner on ``cluster``: the pool's shared cost model
        and indicator table, the job's quality SLO as a hard budget."""
        omega = self._omega(job.model)
        config = self.config
        bits = job.min_uniform_bits
        if bits is not None:
            if bits not in config.bit_choices:
                raise ValueError(
                    f"job {job.job_id}: min_uniform_bits={bits} not in "
                    f"bit_choices {config.bit_choices}"
                )
            k = list(config.bit_choices).index(bits)
            config = replace(config, quality_budget=float(omega[:, k].sum()))
        return SplitQuantPlanner(
            get_model(job.model),
            cluster,
            config,
            cost_model=self._cost_model(job.model),
            omega_layers=omega,
        )

    def _planner_on(self, job: FleetJob, group: GroupSpec) -> SplitQuantPlanner:
        cluster = group.to_cluster(f"fleet-{job.model}-{group.describe()}")
        return self.planner(job, cluster)

    # -- persistent plan cache -----------------------------------------

    def _cache_key(self, **fields: object) -> str:
        """Content hash of ``fields``, the pool's fixed key part and the
        code-version salt."""
        return cache_key({**self._key_base, "salt": code_version_salt(), **fields})

    def _persistent_key(self, key: tuple) -> str:
        """The persistent key of one memo key."""
        model, counts, wl, min_bits = key
        return self._cache_key(
            model=model,
            group=[list(c) for c in counts],
            workload=list(wl),
            min_uniform_bits=min_bits,
        )

    def _floors_key(self, key: tuple) -> str:
        """The persistent key of one job key's floor table."""
        model, wl, min_bits = key
        return self._cache_key(
            kind="fleet_floors",
            model=model,
            workload=list(wl),
            min_uniform_bits=min_bits,
            groups=[[list(c) for c in g.counts] for g in self.groups],
        )

    def _decode_floors(self, entry: Any) -> List[float]:
        """A stored floor table, one floor per pool group (``inf`` stored
        as ``null``)."""
        floors = [float("inf") if f is None else float(f) for f in entry["floors"]]
        if len(floors) != len(self.groups) or not all(f >= 0 for f in floors):
            raise ValueError("stored floors do not match the pool's groups")
        return floors

    @staticmethod
    def _stored(pkey: str, decode: Callable[[Any], Any]) -> Any:
        """The decoded ``fleet_plan`` entry under ``pkey``, else ``_PMISS``
        (cache off or no entry).  A malformed entry is evicted."""
        cache = default_cache()
        hit = MISS if cache is None else cache.get("fleet_plan", pkey)
        if hit is MISS:
            return _PMISS
        try:
            return decode(hit)
        except (KeyError, TypeError, ValueError):
            cache.evict("fleet_plan", pkey)
            return _PMISS

    @staticmethod
    def _store(pkey: str, entry: Dict[str, Any]) -> None:
        cache = default_cache()
        if cache is not None:
            cache.put("fleet_plan", pkey, entry)

    # -- evaluation ----------------------------------------------------

    def evaluate(self, job: FleetJob, group: GroupSpec) -> Optional[Assignment]:
        """Plan ``job`` on ``group``; ``None`` when nothing fits.

        Memoized: two jobs with the same (model, workload, SLO) probing
        the same group composition share one planner run.
        """
        key = _memo_key(job, group)
        if key in self._plans:
            self.cache_hits += 1
            cached = self._plans[key]
            if cached is None:
                return None
            return Assignment(job=job, group=group, result=cached.result)
        pkey = self._persistent_key(key)
        persisted = self._stored(pkey, _decode_plan)
        if persisted is not _PMISS:
            assignment = (
                None
                if persisted is None
                else Assignment(job=job, group=group, result=persisted)
            )
            self._plans[key] = assignment
            self.cache_hits += 1
            return assignment
        with trace.span(
            "fleet.plan_group",
            job=job.job_id,
            model=job.model,
            group=group.describe(),
        ):
            assignment = self._evaluate_uncached(job, group)
        self._plans[key] = assignment
        result = None if assignment is None else to_dict(assignment.result)
        self._store(pkey, {"result": result})
        self.evaluations += 1
        if assignment is None:
            self.infeasible += 1
        return assignment

    def _evaluate_uncached(
        self, job: FleetJob, group: GroupSpec
    ) -> Optional[Assignment]:
        result = self._planner_on(job, group).plan(job.workload)
        if result is None or result.predicted_latency_s <= 0:
            return None
        return Assignment(job=job, group=group, result=result)

    def latency_floors(self, job: FleetJob) -> Dict[Counts, float]:
        """Each pool group's :meth:`SplitQuantPlanner.latency_floor` for
        ``job``, by group counts.

        Memoized per (model, workload, SLO) and persisted as one
        ``fleet_plan`` entry per job key and group list.
        """
        key = _job_key(job)
        if key not in self._floors:
            pkey = self._floors_key(key)
            floors = self._stored(pkey, self._decode_floors)
            if floors is _PMISS:
                with trace.span(
                    "fleet.latency_floors", job=job.job_id, groups=len(self.groups)
                ):
                    floors = [
                        self._planner_on(job, g).latency_floor(job.workload)
                        for g in self.groups
                    ]
                stored = [None if f == float("inf") else f for f in floors]
                self._store(pkey, {"floors": stored})
            self._floors[key] = {g.counts: f for g, f in zip(self.groups, floors)}
        return self._floors[key]

    def best_on(
        self,
        job: FleetJob,
        groups: Sequence[GroupSpec],
        price_book: Optional[PriceBook] = None,
    ) -> Optional[Assignment]:
        """The :func:`best_assignment` pick among ``job``'s feasible
        assignments on ``groups`` (pool groups in enumeration order);
        ``None`` when none is feasible.

        Best-first, as the candidate search is: each group's ceiling is
        the packing metric at its :meth:`latency_floors` entry, which no
        plan on that group can beat.  Groups are planned in descending
        ceiling order, groups with an ``inf`` floor (no plan fits) are
        skipped, and the scan stops once the next ceiling falls below
        the best metric found, so skipped groups cannot win, not even a
        tie.  When every group is already planned in this pool the pick
        is made directly and no floor is computed.
        """
        if all(_memo_key(job, g) in self._plans for g in groups):
            evaluated = [self.evaluate(job, g) for g in groups]
            feasible = [a for a in evaluated if a is not None]
            return best_assignment(feasible, price_book) if feasible else None
        floors = self.latency_floors(job)
        ceilings = [_ceiling(job, g, floors[g.counts], price_book) for g in groups]
        order = sorted(
            (i for i, g in enumerate(groups) if floors[g.counts] != float("inf")),
            key=lambda i: -ceilings[i],
        )
        found: Dict[int, Assignment] = {}
        top = 0.0  # the best packing metric found so far
        for i in order:
            if ceilings[i] < top:
                break
            assignment = self.evaluate(job, groups[i])
            if assignment is not None:
                found[i] = assignment
                metric = _packing_metric(
                    assignment.group, assignment.tokens_s, price_book
                )
                top = max(top, metric)
        if not found:
            return None
        return best_assignment([found[i] for i in sorted(found)], price_book)

    def stats(self) -> Dict[str, int]:
        return {
            "evaluations": self.evaluations,
            "cache_hits": self.cache_hits,
            "infeasible": self.infeasible,
        }


def _beam_score(
    assignments: Sequence[Assignment],
    inventory: Dict[str, int],
    price_book: Optional[PriceBook],
) -> Tuple[float, ...]:
    """(makespan, -aggregate tokens/s): lexicographically smaller wins.

    With a ``price_book`` (the cost objective) the allocated rental
    dollars slot in between: among equal-makespan states the one tying
    up cheaper GPU-hours wins.
    """
    if not assignments:
        return (0.0, 0.0) if price_book is None else (0.0, 0.0, 0.0)
    _, _, makespan = list_schedule(assignments, inventory)
    total_tokens = sum(a.job.total_output_tokens for a in assignments)
    agg = total_tokens / makespan if makespan > 0 else 0.0
    if price_book is None:
        return (makespan, -agg)
    usd = sum(
        group_rate_usd_hr(a.group, price_book) * (a.duration_s / 3600.0)
        for a in assignments
    )
    return (makespan, usd, -agg)


class _Allocator:
    """The packing objective shared by both allocators.

    ``objective="cost"`` packs by tokens/s per rental $/hr of the
    ``price_book`` (:func:`best_assignment`), preferring cheap — e.g.
    spot-priced — GPU types at equal speed.
    """

    name = ""

    def __init__(
        self,
        objective: str = "throughput",
        price_book: Optional[PriceBook] = None,
    ) -> None:
        if objective not in ("throughput", "cost"):
            raise ValueError(
                f"unknown allocator objective {objective!r} "
                "(expected 'throughput' or 'cost')"
            )
        self.objective = objective
        self.price_book = default_price_book() if price_book is None else price_book

    @property
    def _cost_book(self) -> Optional[PriceBook]:
        """The price book under the cost objective, else ``None``."""
        return self.price_book if self.objective == "cost" else None

    def allocate(self, jobs: Sequence[FleetJob], pool: PlannerPool) -> List[Assignment]:
        raise NotImplementedError


class GreedyAllocator(_Allocator):
    """Deadline-ordered bin packing, best :func:`best_assignment` first.

    Each pick plans only the groups whose latency-floor ceiling can still
    win (:meth:`PlannerPool.best_on`); the allocation equals the one
    planning every group would make.
    """

    name = "greedy"

    def allocate(self, jobs: Sequence[FleetJob], pool: PlannerPool) -> List[Assignment]:
        inventory = dict(pool.inventory)
        out: List[Assignment] = []
        free = dict(inventory)
        for job in sorted(jobs, key=FleetJob.sort_key):
            # Prefer groups that fit the *uncommitted* inventory (this
            # wave); fall back to anything that fits the total pool.
            for budget in (free, inventory):
                candidates = [g for g in pool.groups if g.fits(budget)]
                best = pool.best_on(job, candidates, self._cost_book)
                if best is not None:
                    break
            if best is None:
                continue  # job is unschedulable on this pool
            out.append(best)
            if best.group.fits(free):
                for g, n in best.group.counts:
                    free[g] -= n
        return out


class BeamAllocator(_Allocator):
    """Beam search over per-job group choices with makespan lookahead.

    Under the cost objective beam states tie-break on allocated rental
    dollars and each job also expands to its cheapest-per-token group.
    """

    name = "beam"

    def _expansions(
        self, job: FleetJob, pool: PlannerPool, groups: Sequence[GroupSpec]
    ) -> List[Assignment]:
        """The job's candidate assignments: top-k by tokens/s + frugal."""
        evaluated = [pool.evaluate(job, g) for g in groups]
        feasible = [a for a in evaluated if a is not None]
        if not feasible:
            return []
        by_speed = sorted(
            feasible, key=lambda a: (-a.tokens_s, a.group.total, a.group.counts)
        )
        picks = by_speed[:BEAM_TOP_GROUPS]
        # Always include the most GPU-frugal feasible group so lookahead
        # can trade per-job speed for fleet-level packing, and the
        # greedy pick, so greedy's trajectory is always in the beam.
        frugal = min(
            feasible, key=lambda a: (a.group.total, -a.tokens_s, a.group.counts)
        )
        extra = [frugal, best_assignment(feasible)]
        if self.objective == "cost":
            extra.append(best_assignment(feasible, self.price_book))
        for a in extra:
            if a not in picks:
                picks.append(a)
        return picks

    def allocate(self, jobs: Sequence[FleetJob], pool: PlannerPool) -> List[Assignment]:
        inventory = dict(pool.inventory)
        book = self._cost_book
        beam: List[List[Assignment]] = [[]]
        for job in sorted(jobs, key=FleetJob.sort_key):
            picks = self._expansions(job, pool, pool.groups)
            if not picks:
                continue  # unschedulable job: every state skips it
            nxt: List[Tuple[Tuple[float, ...], int, List[Assignment]]] = []
            for state in beam:
                for a in picks:
                    cand = state + [a]
                    nxt.append((_beam_score(cand, inventory, book), len(nxt), cand))
            nxt.sort(key=lambda t: (t[0], t[1]))
            beam = [s for _, _, s in nxt[:BEAM_WIDTH]]
        # Never regress the baseline: the greedy allocation (evaluated
        # from the same memoized pool, so nearly free) competes as one
        # more final state under the beam's own objective.
        greedy = GreedyAllocator(self.objective, self.price_book)
        finalists = beam + [greedy.allocate(jobs, pool)]
        best = min(
            enumerate(finalists),
            key=lambda t: (_beam_score(t[1], inventory, book), t[0]),
        )[1]
        return best
