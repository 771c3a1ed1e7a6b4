"""Per-layer spans recorded from outside the program.

Each layer's public function is wrapped at every binding of the
function object in every loaded module (``repro.core.search`` imports
``solve_partition_lp_relaxation`` by name, so patching only
``repro.core.ilp`` would miss its calls).  Each call appends one span
record with the fields of a :class:`repro.obs.Tracer` record that self
time needs (``i``, ``parent``, ``name``, ``wall_s``).  The program's
own tracer is never installed, so its spans stay on their disabled
path.  The wrappers keep their own list rather than a ``Tracer``: a
``Tracer`` span costs about 6 us, which on ``frontier-500`` (1500
wrapped calls in a 0.12 s call) alone would be 8% overhead.

Self time is a span's wall time minus the wall time of its wrapped
children, summed per function and floored at zero, the way
``repro.obs.report`` computes it.  The benchmark is single-threaded, so
one nesting stack serves every span.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import pkgutil
import sys
import time
import types
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Tuple

#: (module under ``repro``, qualified name) of every wrapped function.
LAYER_FUNCTIONS: Tuple[Tuple[str, str], ...] = (
    ("core.ilp", "solve_partition_lp_relaxation"),
    ("core.ilp", "solve_partition_ilp"),
    ("core.ilp", "solve_adabits"),
    ("core.heuristic", "bitwidth_transfer"),
    ("core.search", "CandidateSearchEngine.search"),
    ("core.planner", "SplitQuantPlanner.plan"),
    ("core.costs", "build_problem"),
    ("core.dp", "dp_search"),
    ("costmodel.latency", "LatencyCostModel.fit"),
    ("simgpu.profiler", "Profiler.profile_grid"),
    ("quant.sensitivity", "normalized_indicator_table"),
    ("costmodel.energy", "plan_energy"),
    ("costmodel.energy", "plan_cost"),
    ("pipeline.batchsim", "evaluate_plans"),
    ("pipeline.fastsim", "build_plan_tables"),
    ("pipeline.simulator", "simulate_plan"),
    ("pipeline.simulator", "check_plan_memory"),
    ("pipeline.online", "online_tables"),
    ("pipeline.online", "simulate_online"),
    ("fleet.scheduler", "FleetScheduler.schedule"),
    ("fleet.allocator", "GreedyAllocator.allocate"),
    ("fleet.allocator", "PlannerPool.evaluate"),
    ("fleet.allocator", "enumerate_groups"),
    ("fleet.simulator", "simulate_schedule"),
    ("cache", "ResultCache.put"),
    ("cache", "ResultCache.get"),
    ("workloads.arrivals", "poisson_trace"),
)


def _search_pruned(outcome) -> Tuple[int, int]:
    return outcome.search.pruned, outcome.search.enumerated


def _pool_hits(schedule) -> Tuple[int, int]:
    stats = schedule.pool_stats
    return stats["cache_hits"], stats["cache_hits"] + stats["evaluations"]


def _cache_hit(value) -> Tuple[int, int]:
    return int(value is not sys.modules["repro.cache"].MISS), 1


def _lane_fallbacks(results) -> Tuple[int, int]:
    return sum(1 for r in results if r.backend_reason), len(results)


#: Useful outcomes over attempts, read from one wrapped function's
#: return value: ratio name -> (span name, result -> (useful, attempts)).
RATIOS: Dict[str, Tuple[str, Callable[[Any], Tuple[int, int]]]] = {
    "core.search.prune_frac": (
        "core.search.CandidateSearchEngine.search", _search_pruned
    ),
    "fleet.pool.hit_frac": (
        "fleet.scheduler.FleetScheduler.schedule", _pool_hits
    ),
    "cache.hit_frac": ("cache.ResultCache.get", _cache_hit),
    "pipeline.batchsim.fallback_frac": (
        "pipeline.batchsim.evaluate_plans", _lane_fallbacks
    ),
}


def span_name(module: str, qualname: str) -> str:
    return f"{module}.{qualname}"


def import_all() -> None:
    """Import every ``repro`` submodule, so every binding exists before
    the wrappers are placed (lazily imported modules would otherwise
    keep unwrapped references)."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)


def self_times(records: Iterable[Dict[str, Any]]) -> Dict[str, List[float]]:
    """``{span name: [calls, self seconds]}`` of closed-span records.

    A span's children are the records naming it as ``parent``; per
    name, self time is the summed wall time minus the summed wall time
    of the children, floored at zero.
    """
    records = list(records)
    child_wall: Dict[Any, float] = defaultdict(float)
    for rec in records:
        if rec["parent"] is not None:
            child_wall[rec["parent"]] += rec["wall_s"]
    out: Dict[str, List[float]] = {}
    for rec in records:
        entry = out.setdefault(rec["name"], [0, 0.0])
        entry[0] += 1
        entry[1] += rec["wall_s"] - child_wall.get(rec["i"], 0.0)
    for entry in out.values():
        entry[1] = max(entry[1], 0.0)
    return out


def add_totals(total: Dict[str, Any], phase: Dict[str, Any]) -> None:
    """Add one :meth:`LayerTrace.take` result into ``total`` in place."""
    for kind in ("layers", "ratios"):
        for name, pair in phase[kind].items():
            entry = total[kind].setdefault(name, [0, 0])
            entry[0] += pair[0]
            entry[1] += pair[1]


class LayerTrace:
    """The wrappers of :data:`LAYER_FUNCTIONS` and what they recorded.

    Creating one resolves every binding once; :meth:`install` and
    :meth:`restore` then only swap attributes, so wrapping can be
    toggled between calls.  :meth:`take` returns the per-layer calls,
    self time and ratio counts recorded since the last take.
    """

    def __init__(self) -> None:
        self.records: List[Dict[str, Any]] = []
        self._stack: List[int] = []
        self._ids = itertools.count()
        self._ratio_counts = {name: [0, 0] for name in RATIOS}
        self._patches: List[Tuple[Any, str, Any, Any]] = []
        hooks = {span: name for name, (span, _) in RATIOS.items()}
        for module, qualname in LAYER_FUNCTIONS:
            name = span_name(module, qualname)
            owner = importlib.import_module(f"repro.{module}")
            *outer, attr = qualname.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            if not isinstance(original, types.FunctionType):
                raise TypeError(f"{name} is not a plain function")
            wrapper = self._wrap(original, name, hooks.get(name))
            if outer:  # a method: its class holds the only binding
                self._patches.append((owner, attr, original, wrapper))
            else:
                self._patches.extend(
                    (mod, key, original, wrapper)
                    for mod, key in _bindings(original)
                )

    def _wrap(self, fn, name: str, ratio: Any) -> Callable:
        records, stack, ids = self.records, self._stack, self._ids
        clock = time.perf_counter
        outcome = RATIOS[ratio][1] if ratio else None
        counts = self._ratio_counts.get(ratio)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = next(ids)
            parent = stack[-1] if stack else None
            stack.append(i)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                wall = clock() - t0
                stack.pop()
                records.append(
                    {"i": i, "parent": parent, "name": name, "wall_s": wall}
                )
            if outcome is not None:
                useful, attempts = outcome(out)
                counts[0] += useful
                counts[1] += attempts
            return out

        return wrapper

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def take(self) -> Dict[str, Any]:
        """``{"layers": {name: [calls, self_s]}, "ratios": {name:
        [useful, attempts]}}`` since the last take; then resets."""
        out = {
            "layers": self_times(self.records),
            "ratios": {k: list(v) for k, v in self._ratio_counts.items()},
        }
        self.records.clear()
        for counts in self._ratio_counts.values():
            counts[0] = counts[1] = 0
        return out


def _bindings(fn) -> List[Tuple[Any, str]]:
    """Every ``(module, attribute)`` currently bound to ``fn``."""
    found = []
    for mod in list(sys.modules.values()):
        namespace = getattr(mod, "__dict__", None)
        if not isinstance(namespace, dict):
            continue
        found.extend(
            (mod, key) for key, value in list(namespace.items())
            if value is fn
        )
    return found
