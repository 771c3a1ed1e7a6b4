"""The five ledger workloads, driven through public entry points only.

Each workload builds its inputs from the seed in ``setup`` and answers
``call()``: one user-level call.  The harness repeats ``call`` as a
closed loop (one caller issues the next call when the previous one
returns) and requires every call's ``same`` key to equal the first
call's.  Outside the timed calls, ``outputs`` gives the first result's
deterministic simulator outputs and ``verify`` runs its oracle, raising
:class:`Mismatch` when the oracle disagrees.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import replace
from itertools import accumulate
from typing import Dict

import numpy as np

from repro import BatchWorkload, Session
from repro.core import PlannerConfig
from repro.fleet import FleetScheduler, make_job_queue, simulate_schedule
from repro.hardware import table_iii_cluster
from repro.hardware.fleet import sample_fleet, schedulable_inventory
from repro.models import get_model
from repro.pipeline import (
    OnlineConfig,
    PlanCase,
    check_plan_memory,
    clear_table_caches,
    evaluate_plans,
    simulate_plan,
)
from repro.plan import InfeasibleError, uniform_plan
from repro.workloads import ArrivalTrace, poisson_trace, rate_for_daily


class Mismatch(Exception):
    """An oracle disagreed with the workload's result."""


def _stage_groups(cluster):
    return [((d.device_id,), d.gpu.name) for d in cluster.devices]


class PlanTable6:
    """``Session.plan`` on the Table-VI configuration: candidate
    enumeration, LP bounds and MILP solves (ROADMAP item 2's target)."""

    def setup(self, seed: int) -> None:
        base = PlannerConfig(
            group_size=3,
            max_orderings=6,
            microbatch_candidates=(8, 16, 32),
            verify_top_k=1,
            time_limit_s=30.0,
            seed=seed,
        )
        planner = Session("opt-30b", cluster=5, config=base).planner
        self.session = Session(
            "opt-30b",
            cluster=5,
            config=replace(base, quality_budget=planner.uniform_quality(4)),
            cost_model=planner.cost_model,
            omega_layers=planner.omega_layers,
        )
        self.session.planner  # noqa: B018 - builds the planner in set-up
        self.workload = BatchWorkload(batch=64, prompt_len=512, output_len=128)

    def call(self):
        result = self.session.plan(self.workload)
        if result is None:
            raise InfeasibleError("plan() found no feasible plan")
        return result

    @staticmethod
    def same(result):
        return result.plan

    def outputs(self, result) -> Dict[str, float]:
        sim = self.session.simulate(result, self.workload, sim_backend="fast")
        return {"sim_tokens_s": sim.throughput_tokens_s}

    def verify(self, result) -> None:
        s = self.session
        check_plan_memory(result.plan, s.cluster, s.spec, self.workload)
        fast = s.simulate(result, self.workload, sim_backend="fast")
        if s.simulate(result, self.workload, sim_backend="event") != fast:
            raise Mismatch("event and fast simulations of the plan differ")


class Frontier500:
    """``evaluate_plans`` over the 500-plan Table-VI frontier (bits x
    prefill micro-batch x decode micro-batch x chunk): table
    construction, the max-plus kernel and the energy post-pass."""

    def setup(self, seed: int) -> None:
        spec = get_model("opt-30b")
        cluster = table_iii_cluster(5)
        cases = []
        for bits in (3, 4, 8, 16):
            for mb_pre in (2, 4, 8, 16, 32):
                for mb_dec in (4, 8, 16, 32, 64):
                    plan = uniform_plan(
                        spec.name, spec.num_layers, _stage_groups(cluster),
                        bits, mb_pre, mb_dec,
                    )
                    for chunk in (128, 256, 384, 512, 1024):
                        wl = BatchWorkload(
                            batch=64, prompt_len=512, output_len=128,
                            chunk_tokens=chunk,
                        )
                        cases.append(PlanCase(plan, cluster, spec, wl))
        order = np.random.default_rng(seed).permutation(len(cases))
        self.cases = [cases[i] for i in order]

    def call(self):
        clear_table_caches()
        return evaluate_plans(self.cases)

    @staticmethod
    def same(results):
        return results

    @staticmethod
    def outputs(results) -> Dict[str, float]:
        return {"sim_tokens_s": max(r.throughput_tokens_s for r in results)}

    def verify(self, results) -> None:
        for case, lane in zip(self.cases, results):
            alone = simulate_plan(
                case.plan, case.cluster, case.spec, case.workload,
                check_memory=False, sim_backend="fast",
            )
            if alone != lane:
                raise Mismatch(f"lane {case.plan.describe()} differs")


class Online:
    """``Session.serve_online`` of a seeded Poisson stream on cluster 7
    with the uniform 4-bit plan at micro-batch 8/8.  Arrivals form an
    open loop in simulated time; the calls themselves are a closed loop.

    With ``output_tokens`` set, the stream is cut after the first
    arrivals that together ask for that many output tokens.  Simulation
    cost follows the decode tokens served (correlation 0.99 across
    seeds), so the cut keeps the work from varying with the seed.
    """

    def __init__(
        self, requests_per_day: float, window_s: float, ttft_slo_s=None,
        output_tokens=None,
    ):
        self.rate = rate_for_daily(requests_per_day)
        self.window_s = window_s
        self.output_tokens = output_tokens
        self.config = OnlineConfig(
            chunk_tokens=512, admission="kv", ttft_slo_s=ttft_slo_s
        )

    def setup(self, seed: int) -> None:
        self.session = Session("opt-30b", cluster=7)
        spec = self.session.spec
        self.plan = uniform_plan(
            spec.name, spec.num_layers, _stage_groups(self.session.cluster),
            bits=4, prefill_microbatch=8, decode_microbatch=8,
        )
        trace = poisson_trace(self.rate, self.window_s, seed)
        if self.output_tokens is not None:
            asked = list(accumulate(r.output_len for r in trace.requests))
            cut = bisect_left(asked, self.output_tokens) + 1
            if cut > len(asked):
                raise ValueError("the window asks for too few output tokens")
            trace = ArrivalTrace(trace.requests[:cut], trace.source)
        self.trace = trace

    def call(self, sim_backend: str = "auto"):
        return self.session.serve_online(
            self.trace, plan=self.plan, config=self.config,
            sim_backend=sim_backend,
        )

    @staticmethod
    def same(result):
        return result

    @staticmethod
    def outputs(result) -> Dict[str, float]:
        return {
            "sim_tokens_s": result.throughput_tokens_s,
            "sim_ttft_p99_s": result.ttft_percentile(99),
            "sim_completed_frac": result.completed / result.arrived,
        }

    def verify(self, result) -> None:
        if self.call(sim_backend="event") != result:
            raise Mismatch("event and fast online simulations differ")


#: One job per model, all of one batch shape: every seed asks the
#: planner the same questions, so planning work does not vary with it.
FLEET_MODELS = ("opt-1.3b", "bloom-3b", "opt-13b")
FLEET_SHAPE = BatchWorkload(batch=16, prompt_len=256, output_len=64)


class Fleet1000:
    """``FleetScheduler(allocator="greedy").schedule`` then
    ``simulate_schedule`` on a 1000-GPU inventory carved from a
    10k-GPU fleet sample.  The first call in a process meets an empty
    result cache (heuristic tier with MILP warm starts, cache writes);
    later calls replay from the cache a new scheduler finds warm.  The
    seed draws the fleet sample and each job's batch count, deadline
    class and priority."""

    def setup(self, seed: int) -> None:
        self.inventory = schedulable_inventory(
            sample_fleet(10_000, seed), pool_gpus=1000
        )
        queue = make_job_queue(n_jobs=len(FLEET_MODELS), seed=seed)
        self.jobs = tuple(
            replace(job, model=model, workload=FLEET_SHAPE)
            for job, model in zip(queue, FLEET_MODELS)
        )

    def call(self):
        schedule = FleetScheduler(self.inventory, allocator="greedy").schedule(
            self.jobs
        )
        return simulate_schedule(schedule)

    @staticmethod
    def same(result):
        return result

    @staticmethod
    def outputs(result) -> Dict[str, float]:
        return {
            "sim_tokens_s": result.throughput_tokens_s,
            "sim_makespan_s": result.makespan_s,
        }

    def verify(self, result) -> None:
        if len(result.jobs) != len(self.jobs):
            raise Mismatch(
                f"{len(self.jobs) - len(result.jobs)} jobs left unscheduled"
            )


#: Workload name -> factory, in the order the benchmark runs them.
WORKLOADS = {
    "plan-table6": PlanTable6,
    "fleet-1000": Fleet1000,
    "frontier-500": Frontier500,
    "online-overload": lambda: Online(2_000_000, 900.0, ttft_slo_s=8.0),
    "online-sustain": lambda: Online(10_000, 4 * 3600.0, output_tokens=100_000),
}
