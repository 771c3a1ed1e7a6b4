#!/usr/bin/env python
"""CI guard: the performance ledger of a change against its base commit,
plus the committed benchmark contracts no ledger workload covers.

``--base B... --change C...`` reads ``benchmarks/ledger/run.py --out``
ledgers of the base commit and of the change, measured on the same
host, and the workloads and end-to-end bounds of ``--spec`` (the
repository's ``BENCHMARK.json`` by default; CI passes the base
commit's, so a change can neither widen its own bound nor be timed on
a workload its base cannot run).  It fails when, on any declared
workload, the median of an end-to-end metric over the change runs is
worse than the median over the base runs by more than its bound, when
a workload or metric is missing from a ledger, when a change run is
not ``correct``, or when the change fails a larger share of its
operations.  A workload only the change ledgers hold (one the change
adds) is checked for correctness alone.  Both sides run on one host,
so there is no committed baseline to go stale and no cross-host
calibration to trust; the ledger rows are absolute wall-clock budgets,
so a slowdown shows whether it hits a fast path, its reference path or
both:

* ``plan-table6`` — ``Session.plan`` on the Table-VI configuration;
* ``frontier-500`` — the batched evaluator on the planner frontier (no
  row runs the fleet beam-lookahead frontier);
* ``online-overload`` / ``online-sustain`` — the online fast backend;
* ``fleet-1000`` — greedy fleet scheduling on 1000 GPUs.

Without ``--base`` / ``--change`` the script re-measures the contracts
that have no ledger row and compares them against the records committed
under ``benchmarks/``:

* ``BENCH_obs.json`` — the observability layer's disabled-mode
  overhead.  The committed contract is a *budget* (< 2% of planning
  wall); the guard fails when the fresh estimate breaks the budget.
  The drift vs the committed fraction is reported but not gated: the
  absolute numbers are nanoseconds and CI-noise dominated.
* ``BENCH_sim.json`` — the closed-form fast simulator's speedup over
  the discrete-event engine on the fleet-scale configuration.  The
  guard compares the same-machine ratio, with a hard floor of 5x and
  bit-identical results as a structural invariant.
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

Writes the fresh measurements as JSON (``--out``) for artifact upload.

Run:  PYTHONPATH=src python scripts/check_bench_regression.py
      python scripts/check_bench_regression.py --base b1.json b2.json \
          --change c1.json c2.json [--spec base/BENCHMARK.json]
      scripts/ledger_against.sh REF   # runs both sides, then compares
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import statistics
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
    """The Table-VI configuration the obs bench measures."""
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


def _failed_share(records: list[dict]) -> float:
    """Failed over attempted operations across ``records``; runs that
    attempted nothing count as all-failed, never as clean runs."""
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    return failed / attempted if attempted else 1.0


def compare_ledgers(
    bases: list[dict], changes: list[dict], spec: dict
) -> list[str]:
    """Failures of the ``changes`` ledgers against the ``bases`` ledgers.

    Each ledger is a ``benchmarks/ledger/run.py --out`` document (all
    workloads, or one ``--workload``); ``spec`` is ``BENCHMARK.json``.
    A side's records of one workload are pooled over its ledgers, and
    every declared workload needs at least one record with every
    end-to-end metric on each side.  The change runs must all be
    ``correct`` and fail no larger share of operations than the base
    runs, and the median of the change runs may be worse than the median
    of the base runs on no metric by more than its bound (a fraction of
    the base median, in the metric's ``better`` direction).  One run per
    side is enough to catch a gross slowdown; a few alternating runs per
    side keep single-run host noise from failing an unchanged program.
    Change records of a workload ``spec`` does not declare are checked
    for ``correct`` only: there is no base to time them against.
    """

    def records(ledgers, workload):
        return [
            r for ledger in ledgers for r in ledger["records"]
            if r["workload"] == workload
        ]

    def incorrect(workload, recs):
        if all(r["correct"] for r in recs):
            return []
        problems = "; ".join(
            p for r in recs for p in r.get("problems", [])
        ) or "no detail"
        return [f"{workload}: change run not correct ({problems})"]

    failures: list[str] = []
    declared = [w["name"] for w in spec["workloads"]]
    for workload in declared:
        b, c = records(bases, workload), records(changes, workload)
        missing = [
            side for side, recs in (("base", b), ("change", c)) if not recs
        ]
        if missing:
            failures.append(
                f"{workload}: missing from the {' and '.join(missing)} "
                "ledgers"
            )
            continue
        failures += incorrect(workload, c)
        if _failed_share(c) > _failed_share(b):
            failures.append(
                f"{workload}: failed share rose {_failed_share(b):.4g} -> "
                f"{_failed_share(c):.4g}"
            )
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            if not all(name in r["metrics"] for r in b + c):
                failures.append(f"{workload}: metric {name} missing")
                continue
            old = statistics.median(r["metrics"][name]["value"] for r in b)
            new = statistics.median(r["metrics"][name]["value"] for r in c)
            sign = 1.0 if metric["better"] == "lower" else -1.0
            worse = sign * (new - old) / old
            print(
                f"  {workload:<16}{name:<14}{old:12.6g} -> {new:<12.6g}"
                f"{worse:+8.1%}  (bound {bound:.0%})"
            )
            if worse > bound:
                failures.append(
                    f"{workload}: {name} {old:.6g} -> {new:.6g} "
                    f"{metric['unit']} is {worse:.1%} worse (bound "
                    f"{bound:.0%})"
                )
    added = {r["workload"] for ledger in changes for r in ledger["records"]}
    for workload in sorted(added.difference(declared)):
        print(f"  {workload:<16}not in the spec: correctness only")
        failures += incorrect(workload, records(changes, workload))
    return failures


def _load_json(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise SystemExit(f"ERROR: cannot read {path}: {exc}") from None


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
    parser.add_argument(
        "--base",
        nargs="+",
        type=Path,
        help="ledger --out files of the base commit (compare mode)",
    )
    parser.add_argument(
        "--change",
        nargs="+",
        type=Path,
        help="ledger --out files of the change (compare mode)",
    )
    parser.add_argument(
        "--spec",
        type=Path,
        default=REPO / "BENCHMARK.json",
        help="BENCHMARK.json whose workloads and bounds the compare mode "
        "applies (default: this checkout's; CI passes the base commit's)",
    )
    args = parser.parse_args(argv)

    if args.base or args.change:
        if not (args.base and args.change):
            parser.error("--base and --change go together")
        spec = _load_json(args.spec)
        bases = [_load_json(p) for p in args.base]
        changes = [_load_json(p) for p in args.change]
        print(
            "ledger: base "
            + ", ".join(b.get("git_sha", "?") for b in bases)
            + " vs change "
            + ", ".join(c.get("git_sha", "?") for c in changes)
        )
        failures = compare_ledgers(bases, changes, spec)
        for msg in failures:
            print(f"REGRESSION: {msg}", file=sys.stderr)
        if not failures:
            print("ledger comparison OK")
        return 1 if failures else 0

    baseline_obs = _load_baseline("BENCH_obs.json")
    baseline_sim = _load_baseline("BENCH_sim.json")
    baseline_scale = _load_baseline("BENCH_planner_scale.json")
    baseline_energy = _load_baseline("BENCH_energy.json")

    failures: list[str] = []

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
        "obs": fresh_obs,
        "obs_budget_fraction": budget,
        "sim": fresh_sim,
        "sim_baseline_speedup": baseline_sim["speedup"],
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
