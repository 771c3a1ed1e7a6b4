#!/usr/bin/env python
"""CI guard: fresh benchmark numbers vs the committed baselines.

Re-measures the two benchmark headlines on the current checkout and
compares them against the records committed under ``benchmarks/``:

* ``BENCH_planner.json`` — the search engine's speedup over the naive
  serial planner on the Table-VI configuration.  The guard compares the
  *ratio* (engine vs naive on the same machine, same process), which is
  robust to runner hardware, and fails when the fresh ratio falls more
  than ``--tolerance`` (default 25%) below the committed one.
* ``BENCH_obs.json`` — the observability layer's disabled-mode
  overhead.  The committed contract is a *budget* (< 2% of planning
  wall); the guard fails when the fresh estimate breaks the budget.
  The drift vs the committed fraction is reported but not gated: the
  absolute numbers are nanoseconds and CI-noise dominated.
* ``BENCH_sim.json`` — the closed-form fast simulator's speedup over
  the discrete-event engine on the fleet-scale configuration.  Like the
  planner guard it compares the same-machine ratio, with a hard floor
  of 5x and bit-identical results as a structural invariant.
* ``BENCH_batchsim.json`` — the batched frontier evaluator's
  plans-per-second speedup over the per-plan fast path, on both the
  Table-VI planner frontier and the 25-GPU fleet probe frontier.  Same
  same-machine ratio comparison, with a hard floor of 10x per frontier
  and bit-identical results as a structural invariant.
* ``BENCH_online.json`` — the online serving simulator's
  epoch-vectorized fast backend vs the discrete-event engine, on the
  steady (150k req/day) and overload (2M req/day, SLO shedding)
  streams.  Same same-machine ratio comparison, with a hard floor of
  5x on the overload stream and bit-identical results as a structural
  invariant.
* ``BENCH_energy.json`` — the energy/cost accounting layer.  The
  numbers are deterministic cost-model outputs (no wall-clock), so the
  guard enforces hard ceilings: the fresh throughput-optimal plan's
  J/token and $/Mtoken must stay within ``--tolerance`` of the
  committed record, the energy/cost objectives must still improve (or
  match) their respective metrics, and the event/fast/batched backends
  must agree on joules and dollars bit-for-bit (structural, not noise).
* ``BENCH_planner_scale.json`` — the scalable planning tier.  The guard
  re-measures the cheap sections (the 1000-GPU DP plan and the
  incremental-vs-cold re-solve; the 100-job fleet schedule is
  nightly-only) and enforces the hard contracts: auto routing lands on
  the DP tier, the certified gap bound stays inside ``[1, 25)`` and
  within tolerance of the committed bound, and the incremental re-solve
  beats a cold re-plan by >= 3x while keeping >= half its throughput.
  The raw incremental speedup (~35x) is reported, not gated — the
  numerator is milliseconds and CI-noise dominated.

Structural invariants (plan parity between the two search paths, the
pruner actually pruning, the memo actually hitting) fail the guard
outright — those are correctness, not noise.

Writes the fresh measurements as JSON (``--out``) for artifact upload.

Run:  PYTHONPATH=src python scripts/check_bench_regression.py
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
BENCH_DIR = REPO / "benchmarks"

sys.path.insert(0, str(REPO / "src"))

from repro.core import PlannerConfig, SplitQuantPlanner  # noqa: E402
from repro.hardware import table_iii_cluster  # noqa: E402
from repro.models import get_model  # noqa: E402
from repro.obs import NOOP_SPAN, trace  # noqa: E402
from repro.workloads import BatchWorkload  # noqa: E402

#: Guarded metric updates budgeted per span site (see BENCH_obs.json).
HOOKS_PER_SPAN = 3


def _table_vi_planner() -> tuple[SplitQuantPlanner, BatchWorkload]:
    """The Table-VI configuration both committed benches measure."""
    spec = get_model("opt-30b")
    cluster = table_iii_cluster(5)
    workload = BatchWorkload(batch=64, prompt_len=512, output_len=128)
    base = PlannerConfig(
        group_size=3,
        max_orderings=6,
        microbatch_candidates=(8, 16, 32),
        verify_top_k=1,
        time_limit_s=30.0,
    )
    seed = SplitQuantPlanner(spec, cluster, base)
    cfg = dataclasses.replace(base, quality_budget=seed.uniform_quality(4))
    planner = SplitQuantPlanner(
        spec,
        cluster,
        cfg,
        cost_model=seed.cost_model,
        omega_layers=seed.omega_layers,
    )
    return planner, workload


def measure_planner() -> dict:
    """Fresh engine-vs-naive speedup on the Table-VI configuration."""
    planner, workload = _table_vi_planner()
    t0 = time.perf_counter()
    fast = planner.plan(workload)
    engine_wall_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    naive = planner.plan_reference(workload)
    naive_wall_s = time.perf_counter() - t0
    assert fast is not None and naive is not None
    s = fast.search
    return {
        "bench": "planner_scaling",
        "naive_wall_s": round(naive_wall_s, 4),
        "engine_wall_s": round(engine_wall_s, 4),
        "speedup": round(naive_wall_s / engine_wall_s, 3),
        "plan_identical": fast.plan == naive.plan,
        "pruned": s.pruned,
        "cache_hits": s.cache_hits,
    }


def measure_sim() -> dict:
    """Fresh fast-vs-event simulator speedup on the fleet-scale config."""
    from repro.pipeline import simulate_plan
    from repro.plan import uniform_plan

    spec = get_model("opt-30b")
    cluster = table_iii_cluster(7)
    plan = uniform_plan(
        spec.name,
        spec.num_layers,
        [((d.device_id,), d.gpu.name) for d in cluster.devices],
        bits=4,
        prefill_microbatch=16,
        decode_microbatch=8,
    )
    workload = BatchWorkload(
        batch=64, prompt_len=512, output_len=256, chunk_tokens=512
    )

    def wall(backend: str, rounds: int = 5) -> tuple[float, object]:
        best, res = float("inf"), None
        for _ in range(rounds):
            t0 = time.perf_counter()
            res = simulate_plan(
                plan, cluster, spec, workload,
                check_memory=False, sim_backend=backend,
            )
            best = min(best, time.perf_counter() - t0)
        return best, res

    event_wall_s, ev = wall("event")
    fast_wall_s, fa = wall("fast")
    return {
        "bench": "sim_scaling",
        "event_wall_s": round(event_wall_s, 5),
        "fast_wall_s": round(fast_wall_s, 5),
        "speedup": round(event_wall_s / fast_wall_s, 2),
        "results_identical": ev == fa,
        "events_per_run": ev.events_processed,
    }


def measure_batchsim() -> dict:
    """Fresh batched-vs-per-plan frontier throughput on both frontiers."""
    sys.path.insert(0, str(REPO))
    from benchmarks.test_batchsim_scaling import (  # noqa: E402
        _fleet_frontier,
        _measure,
        _planner_frontier,
    )

    out: dict = {"bench": "batchsim_scaling"}
    for name, cases in (
        ("planner_frontier", _planner_frontier()),
        ("fleet_frontier", _fleet_frontier()),
    ):
        loop_wall, batch_wall, loop_res, batch_res = _measure(cases)
        out[name] = {
            "plans": len(cases),
            "per_plan_wall_s": round(loop_wall, 5),
            "batched_wall_s": round(batch_wall, 5),
            "speedup": round(loop_wall / batch_wall, 2),
            "results_identical": batch_res == loop_res,
        }
    return out


def measure_online() -> dict:
    """Fresh fast-vs-event online serving speedup on both streams."""
    sys.path.insert(0, str(REPO))
    from benchmarks.test_online_scaling import (  # noqa: E402
        _bench_cases,
        _measure_case,
    )

    out: dict = {"bench": "online_scaling"}
    for name, plan, cluster, spec, arrivals, config in _bench_cases():
        event_wall, fast_wall, event_res, fast_res = _measure_case(
            plan, cluster, spec, arrivals, config
        )
        out[name] = {
            "requests": arrivals.n_requests,
            "event_wall_s": round(event_wall, 5),
            "fast_wall_s": round(fast_wall, 5),
            "speedup": round(event_wall / fast_wall, 2),
            "results_identical": fast_res == event_res,
        }
    return out


def measure_energy() -> dict:
    """Fresh energy parity + objective headlines from the energy bench."""
    sys.path.insert(0, str(REPO))
    from benchmarks.test_energy import (  # noqa: E402
        measure_objectives,
        measure_parity,
    )

    return {
        "bench": "energy",
        "parity": measure_parity(),
        "objectives": measure_objectives(),
    }


def measure_planner_scale() -> dict:
    """Fresh DP-tier gap + incremental-vs-cold from the scale bench.

    Reuses the bench's own section helpers, so their hard floors
    (incremental >= 3x cold at >= half the throughput, gap bound inside
    ``[1, 25)``, DP plan under its wall budget) fail the guard outright
    via ``AssertionError``.
    """
    sys.path.insert(0, str(REPO))
    from benchmarks.test_planner_scale import (  # noqa: E402
        _dp_large_cluster,
        _incremental_vs_cold,
    )

    return {
        "bench": "planner_scale",
        "dp_large_cluster": _dp_large_cluster(),
        "incremental_vs_cold": _incremental_vs_cold(),
    }


def _per_op_s(fn, n: int = 50_000) -> float:
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        best = min(best, time.perf_counter() - t0)
    return best / n


def measure_obs() -> dict:
    """Fresh disabled-mode tracing overhead estimate."""
    from repro.obs import Tracer, current_tracer, use_tracer

    assert current_tracer() is None, "guard requires tracing disabled"
    planner, workload = _table_vi_planner()
    tracer = Tracer(enabled=True)
    with use_tracer(tracer):
        enabled_result = planner.plan(workload)
    spans = tracer.spans_started
    assert enabled_result is not None and spans > 0

    def noop_roundtrip() -> None:
        with trace.span("bench.noop", a=1, b=2):
            pass

    def enabled_check() -> None:
        if trace.enabled:  # pragma: no cover
            raise AssertionError

    assert trace.span("bench.check") is NOOP_SPAN
    span_cost_s = _per_op_s(noop_roundtrip)
    check_cost_s = _per_op_s(enabled_check)

    planner2, _ = _table_vi_planner()
    t0 = time.perf_counter()
    disabled_result = planner2.plan(workload)
    disabled_wall_s = time.perf_counter() - t0
    assert disabled_result is not None
    assert disabled_result.plan == enabled_result.plan

    estimated = spans * (span_cost_s + HOOKS_PER_SPAN * check_cost_s)
    return {
        "bench": "obs_disabled_overhead",
        "spans_opened": spans,
        "noop_span_cost_ns": round(span_cost_s * 1e9, 1),
        "enabled_check_cost_ns": round(check_cost_s * 1e9, 1),
        "disabled_wall_s": round(disabled_wall_s, 4),
        "overhead_fraction": round(estimated / disabled_wall_s, 7),
    }


def _load_baseline(name: str) -> dict:
    """A committed BENCH baseline, or a hard, explicit failure.

    A missing baseline must never silently skip its guard — that would
    read as "no regression" when nothing was checked.
    """
    path = BENCH_DIR / name
    if not path.exists():
        raise SystemExit(
            f"ERROR: committed baseline benchmarks/{name} is missing — "
            "the regression guard cannot run without it.  Regenerate it "
            "with `PYTHONPATH=src python -m pytest benchmarks/ -q` and "
            "commit the refreshed file."
        )
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise SystemExit(
            f"ERROR: committed baseline benchmarks/{name} is not valid "
            f"JSON ({exc}); regenerate and commit it."
        ) from None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help="allowed fractional slowdown vs baseline (default 0.25)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=Path("bench_measured.json"),
        help="where to write the fresh measurements",
    )
    args = parser.parse_args(argv)

    baseline_planner = _load_baseline("BENCH_planner.json")
    baseline_obs = _load_baseline("BENCH_obs.json")
    baseline_sim = _load_baseline("BENCH_sim.json")
    baseline_batchsim = _load_baseline("BENCH_batchsim.json")
    baseline_scale = _load_baseline("BENCH_planner_scale.json")
    baseline_energy = _load_baseline("BENCH_energy.json")
    baseline_online = _load_baseline("BENCH_online.json")

    failures: list[str] = []

    fresh_planner = measure_planner()
    floor = baseline_planner["speedup"] * (1.0 - args.tolerance)
    print(
        f"planner speedup: fresh {fresh_planner['speedup']:.2f}x vs "
        f"baseline {baseline_planner['speedup']:.2f}x "
        f"(floor {floor:.2f}x at tolerance {args.tolerance:.0%})"
    )
    if not fresh_planner["plan_identical"]:
        failures.append("engine plan diverged from naive plan")
    if fresh_planner["pruned"] <= 0:
        failures.append("bound pruner pruned nothing")
    if fresh_planner["cache_hits"] <= 0:
        failures.append("timing memo never hit")
    if fresh_planner["speedup"] < floor:
        failures.append(
            f"planner speedup regressed: {fresh_planner['speedup']:.2f}x "
            f"< floor {floor:.2f}x (baseline "
            f"{baseline_planner['speedup']:.2f}x)"
        )

    fresh_obs = measure_obs()
    budget = baseline_obs["budget_fraction"]
    print(
        f"obs disabled overhead: fresh "
        f"{fresh_obs['overhead_fraction']:.2e} vs committed "
        f"{baseline_obs['overhead_fraction']:.2e} "
        f"(budget {budget:.0%})"
    )
    if fresh_obs["overhead_fraction"] >= budget:
        failures.append(
            f"obs disabled overhead {fresh_obs['overhead_fraction']:.2e} "
            f"breaks the {budget:.0%} budget"
        )

    fresh_sim = measure_sim()
    sim_floor = max(
        baseline_sim["speedup"] * (1.0 - args.tolerance), 5.0
    )
    print(
        f"sim fast-path speedup: fresh {fresh_sim['speedup']:.2f}x vs "
        f"baseline {baseline_sim['speedup']:.2f}x "
        f"(floor {sim_floor:.2f}x)"
    )
    if not fresh_sim["results_identical"]:
        failures.append("fast simulator diverged from event simulator")
    if fresh_sim["speedup"] < sim_floor:
        failures.append(
            f"sim fast-path speedup regressed: {fresh_sim['speedup']:.2f}x "
            f"< floor {sim_floor:.2f}x (baseline "
            f"{baseline_sim['speedup']:.2f}x)"
        )

    fresh_batchsim = measure_batchsim()
    for frontier in ("planner_frontier", "fleet_frontier"):
        fresh = fresh_batchsim[frontier]
        base = baseline_batchsim[frontier]
        batch_floor = max(base["speedup"] * (1.0 - args.tolerance), 10.0)
        print(
            f"batchsim {frontier} speedup: fresh {fresh['speedup']:.2f}x "
            f"vs baseline {base['speedup']:.2f}x (floor {batch_floor:.2f}x)"
        )
        if not fresh["results_identical"]:
            failures.append(
                f"batched evaluator diverged from per-plan fastsim "
                f"on the {frontier}"
            )
        if fresh["speedup"] < batch_floor:
            failures.append(
                f"batchsim {frontier} speedup regressed: "
                f"{fresh['speedup']:.2f}x < floor {batch_floor:.2f}x "
                f"(baseline {base['speedup']:.2f}x)"
            )

    fresh_online = measure_online()
    for stream in ("steady", "overload"):
        fresh = fresh_online[stream]
        base = baseline_online[stream]
        ratio_floor = base["speedup"] * (1.0 - args.tolerance)
        online_floor = (
            max(ratio_floor, 5.0) if stream == "overload" else ratio_floor
        )
        print(
            f"online {stream} fast-path speedup: fresh "
            f"{fresh['speedup']:.2f}x vs baseline {base['speedup']:.2f}x "
            f"(floor {online_floor:.2f}x)"
        )
        if not fresh["results_identical"]:
            failures.append(
                f"online fast backend diverged from the event engine "
                f"on the {stream} stream"
            )
        if fresh["speedup"] < online_floor:
            failures.append(
                f"online {stream} fast-path speedup regressed: "
                f"{fresh['speedup']:.2f}x < floor {online_floor:.2f}x "
                f"(baseline {base['speedup']:.2f}x)"
            )

    fresh_scale = measure_planner_scale()
    fresh_dp = fresh_scale["dp_large_cluster"]
    fresh_inc = fresh_scale["incremental_vs_cold"]
    base_dp = baseline_scale["dp_large_cluster"]
    base_inc = baseline_scale["incremental_vs_cold"]
    gap_ceiling = base_dp["gap_bound"] * (1.0 + args.tolerance)
    print(
        f"planner-scale DP gap bound: fresh {fresh_dp['gap_bound']:.3f} "
        f"vs baseline {base_dp['gap_bound']:.3f} "
        f"(ceiling {gap_ceiling:.3f})"
    )
    print(
        f"planner-scale incremental speedup: fresh "
        f"{fresh_inc['speedup']:.0f}x vs baseline "
        f"{base_inc['speedup']:.0f}x (hard floor 3x; drift not gated)"
    )
    if fresh_dp["tier"] != "dp":
        failures.append(
            f"auto routing sent the 1000-GPU plan to the "
            f"{fresh_dp['tier']!r} tier, not 'dp'"
        )
    if fresh_dp["gap_bound"] > gap_ceiling:
        failures.append(
            f"DP gap bound loosened: {fresh_dp['gap_bound']:.3f} > "
            f"ceiling {gap_ceiling:.3f} (baseline "
            f"{base_dp['gap_bound']:.3f})"
        )
    if baseline_scale["fleet_schedule"]["unscheduled"] != 0:
        failures.append(
            "committed planner-scale baseline left fleet jobs unscheduled"
        )

    fresh_energy = measure_energy()
    base_obj = baseline_energy["objectives"]
    fresh_obj = fresh_energy["objectives"]
    jpt_ceiling = base_obj["throughput"]["j_per_token"] * (
        1.0 + args.tolerance
    )
    upm_ceiling = base_obj["throughput"]["usd_per_mtoken"] * (
        1.0 + args.tolerance
    )
    print(
        f"energy: fresh {fresh_obj['throughput']['j_per_token']:.4f} "
        f"J/token vs baseline "
        f"{base_obj['throughput']['j_per_token']:.4f} "
        f"(ceiling {jpt_ceiling:.4f}); "
        f"{fresh_obj['throughput']['usd_per_mtoken']:.4f} $/Mtoken "
        f"(ceiling {upm_ceiling:.4f})"
    )
    if not fresh_energy["parity"]["all_identical"]:
        failures.append(
            "energy accounting diverged across event/fast/batched backends"
        )
    if fresh_obj["throughput"]["j_per_token"] > jpt_ceiling:
        failures.append(
            f"J/token regressed: "
            f"{fresh_obj['throughput']['j_per_token']:.4f} > "
            f"ceiling {jpt_ceiling:.4f} (baseline "
            f"{base_obj['throughput']['j_per_token']:.4f})"
        )
    if fresh_obj["throughput"]["usd_per_mtoken"] > upm_ceiling:
        failures.append(
            f"$/Mtoken regressed: "
            f"{fresh_obj['throughput']['usd_per_mtoken']:.4f} > "
            f"ceiling {upm_ceiling:.4f} (baseline "
            f"{base_obj['throughput']['usd_per_mtoken']:.4f})"
        )
    if (
        fresh_obj["energy"]["j_per_token"]
        > fresh_obj["throughput"]["j_per_token"] + 1e-9
    ):
        failures.append(
            "energy objective no longer improves J/token over throughput"
        )
    if (
        fresh_obj["cost"]["usd_per_mtoken"]
        > fresh_obj["throughput"]["usd_per_mtoken"] + 1e-9
    ):
        failures.append(
            "cost objective no longer improves $/Mtoken over throughput"
        )

    record = {
        "tolerance": args.tolerance,
        "planner": fresh_planner,
        "planner_baseline_speedup": baseline_planner["speedup"],
        "obs": fresh_obs,
        "obs_budget_fraction": budget,
        "sim": fresh_sim,
        "sim_baseline_speedup": baseline_sim["speedup"],
        "batchsim": fresh_batchsim,
        "batchsim_baseline_speedups": {
            f: baseline_batchsim[f]["speedup"]
            for f in ("planner_frontier", "fleet_frontier")
        },
        "online": fresh_online,
        "online_baseline_speedups": {
            s: baseline_online[s]["speedup"]
            for s in ("steady", "overload")
        },
        "planner_scale": fresh_scale,
        "planner_scale_baseline": {
            "gap_bound": base_dp["gap_bound"],
            "incremental_speedup": base_inc["speedup"],
        },
        "energy": fresh_energy,
        "energy_baseline": {
            "j_per_token": base_obj["throughput"]["j_per_token"],
            "usd_per_mtoken": base_obj["throughput"]["usd_per_mtoken"],
        },
        "failures": failures,
    }
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {args.out}")

    if failures:
        for msg in failures:
            print(f"REGRESSION: {msg}", file=sys.stderr)
        return 1
    print("bench regression guard OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
