"""Absolute performance ledger: five named workloads, end to end and per layer.

Run from the repository root:

    python3 benchmarks/ledger/run.py [--workload NAME|all] [--seed N]
        [--seconds S] [--trace 0|1] [--out PATH] [--smoke] [--sets N]

Each workload runs in fresh single-threaded processes.  Three launches
each time their set-up and first call; the last one then drives the
workload's user-level call as a closed loop for ``--seconds`` and checks
every result.  ``--trace 1`` instead makes one launch that alternates
untraced calls with calls whose layers are wrapped from outside
(``spans.py``) and reports the per-layer metrics.  ``--sets N`` runs the
whole benchmark N times and compares the sets against the bounds in
``BENCHMARK.json``.  The last stdout line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it are the human-readable ledger.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: Fresh processes whose set-up and first call are timed per run.
LAUNCHES = 3
#: Calls per workload under ``--smoke``.
SMOKE_CALLS = 2
#: Wall-clock budget of one run, launches included.
RUN_BUDGET_S = 170.0
#: The tail is the value with exactly this many samples above it.
TAIL_SAMPLES_ABOVE = 10
#: Timings are seconds on a reference host whose calibration loop
#: (``launch.calibrate``) takes this long; see :func:`ref_s`.
REF_CALIB_S = 0.030


class LaunchError(RuntimeError):
    """A launch crashed, timed out or printed no result."""


def load_spec() -> Dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def tail(values: List[float]) -> Optional[Tuple[float, float]]:
    """``(value, percentile)`` of the sample with exactly ten samples
    above it (p90 at n=100), or ``None`` below eleven samples."""
    n = len(values)
    if n <= TAIL_SAMPLES_ABOVE:
        return None
    rank = n - TAIL_SAMPLES_ABOVE
    return sorted(values)[rank - 1], 100.0 * rank / n


def ref_s(timing: List[float]) -> float:
    """A ``[wall seconds, calibration seconds]`` pair in reference-host
    seconds: the shared host's speed drifts by up to 1.6x, and scaling
    by a calibration taken next to the call cancels most of that."""
    wall, calib = timing
    return wall * REF_CALIB_S / calib


def child_env(cache_dir: Path) -> Dict[str, str]:
    """The launch environment: one BLAS/OpenMP thread, no inherited
    ``SPLITQUANT_*`` settings, and a result cache of its own."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("SPLITQUANT_")}
    env.update(
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        SPLITQUANT_CACHE_DIR=str(cache_dir),
    )
    return env


def launch(cfg: Dict[str, Any], cache_dir: Path, timeout_s: float) -> Dict[str, Any]:
    cmd = [sys.executable, str(HERE / "launch.py"), json.dumps(cfg)]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(cache_dir), capture_output=True,
            text=True, timeout=max(timeout_s, 1.0),
        )
    except subprocess.TimeoutExpired:
        raise LaunchError(f"{cfg['workload']}: launch timed out") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise LaunchError(
            f"{cfg['workload']}: launch exited {proc.returncode}\n"
            + proc.stderr[-2000:]
        )
    return json.loads(lines[-1])


def session_layers(phases: Dict[str, Any]) -> Dict[str, Any]:
    """Per-layer totals of one session: set-up, the first call and one
    steady call (the mean over the traced steady calls)."""
    total: Dict[str, Any] = {"layers": {}, "ratios": {}}
    for phase in phases.values():
        spans.add_totals(total, phase)
    return total


def ref_phases(measured: Dict[str, Any]) -> Dict[str, Any]:
    """The launch's per-phase layer totals with self time in
    reference-host seconds (scaled by the launch's median calibration)."""
    scale = REF_CALIB_S / measured["calib_s"]
    return {
        phase: {
            "layers": {
                k: [calls, self_s * scale]
                for k, (calls, self_s) in totals["layers"].items()
            },
            "ratios": totals["ratios"],
        }
        for phase, totals in measured["phases"].items()
    }


def per_layer_metrics(
    measured: Dict[str, Any], phases: Dict[str, Any]
) -> Dict[str, float]:
    total = session_layers(phases)
    out: Dict[str, float] = {}
    for module, qualname in spans.LAYER_FUNCTIONS:
        name = spans.span_name(module, qualname)
        calls, self_s = total["layers"].get(name, (0, 0.0))
        out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = self_s
    for name in spans.RATIOS:
        useful, attempts = total["ratios"].get(name, (0, 0))
        out[name] = useful / attempts if attempts else 0.0
    out["trace.overhead_frac"] = (
        statistics.median(map(ref_s, measured["traced_calls"]))
        / statistics.median(map(ref_s, measured["calls"])) - 1.0
    )
    return out


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, smoke: bool
) -> Dict[str, Any]:
    """Launch one workload and return its ledger record."""
    deadline = time.perf_counter() + RUN_BUDGET_S
    build = ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="ledger-", dir=build))
    n = 1 if trace or smoke else LAUNCHES
    cfg = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "calls": SMOKE_CALLS if smoke else None, "src": str(ROOT / "src"),
    }
    try:
        launches = [
            launch(
                dict(cfg, measure=i == n - 1), work / f"cache{i}",
                deadline - time.perf_counter(),
            )
            for i in range(n)
        ]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    measured = launches[-1]
    failed = sum(r["failed"] for r in launches)
    problems = [p for r in launches for p in r["problems"]]
    for r in launches[:-1]:
        if r["outputs"] != measured["outputs"]:
            failed += r["attempted"]
            problems.append("launches disagree on the simulator outputs")
    attempted = sum(r["attempted"] for r in launches)
    calls = [ref_s(c) for c in measured["calls"]]
    record: Dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "ops_failed_frac": failed / attempted,
        "sim": measured["outputs"],
        "call_n": len(calls),
        "call_s.tail": tail(calls),
        "call_s.p50.raw": statistics.median(c[0] for c in measured["calls"]),
        "host.calib_s": measured["calib_s"],
        "versions": measured["versions"],
    }
    if trace:
        record["phases"] = ref_phases(measured)
        record["metrics"] = per_layer_metrics(measured, record["phases"])
    else:
        record["metrics"] = {
            "setup_s": statistics.median(ref_s(r["setup"]) for r in launches),
            "cold_call_s": statistics.median(
                ref_s(r["first_call"]) for r in launches
            ),
            "call_s.p50": statistics.median(calls),
            "peak_rss_mb": max(r["rss_mb"] for r in launches),
        }
    return record


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
    )
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def declared(spec: Dict[str, Any], trace: bool) -> Dict[str, Dict[str, Any]]:
    section = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m for m in section}


def print_record(record: Dict[str, Any], units: Dict[str, Dict[str, Any]]) -> None:
    mode = "traced" if record["trace"] else "untraced"
    print(f"== {record['workload']} (seed {record['seed']}, {mode}) ==")
    if record["trace"]:
        print_layers(record)
    else:
        for name, value in record["metrics"].items():
            print(f"  {name:<20}{value:12.6g} {units[name]['unit']}")
        t = record["call_s.tail"]
        shown = f"{t[0]:12.6g} s  (p{t[1]:.1f})" if t else f"{'-':>12}    (n < 11)"
        print(f"  {'call_s.tail':<20}{shown}  n={record['call_n']}")
        print(f"  {'call_s.p50.raw':<20}{record['call_s.p50.raw']:12.6g} s  (unscaled)")
    for name, value in sorted(record["sim"].items()):
        print(f"  {name:<20}{value:12.6g}")
    print(
        f"  {'ops_failed_frac':<20}{record['ops_failed_frac']:12.6g}"
        f"    ({record['failed']}/{record['attempted']})"
    )
    print(f"  {'host.calib_s':<20}{record['host.calib_s']:12.6g} s")
    for problem in record["problems"]:
        print(f"  problem: {problem}")


def print_layers(record: Dict[str, Any]) -> None:
    """Where the time goes: self time per phase, largest first."""
    phases = record["phases"]
    metrics = record["metrics"]
    rows = []
    for module, qualname in spans.LAYER_FUNCTIONS:
        name = spans.span_name(module, qualname)
        per_phase = [phases[p]["layers"].get(name, [0, 0.0]) for p in phases]
        rows.append((metrics[f"{name}.self_s"], name, per_phase))
    rows.sort(key=lambda r: -r[0])
    head = "".join(f"{p + ' s':>12}" for p in phases)
    print(f"  {'layer (self time)':<44}{head}{'calls/session':>15}")
    for self_s, name, per_phase in rows:
        if not self_s and not metrics[f"{name}.calls"]:
            continue
        cells = "".join(f"{s:12.5f}" for _, s in per_phase)
        print(f"  {name:<44}{cells}{metrics[f'{name}.calls']:15.6g}")
    for name in (*spans.RATIOS, "trace.overhead_frac"):
        print(f"  {name:<44}{metrics[name]:12.5f}")


def result_line(records: List[Dict[str, Any]]) -> Dict[str, Any]:
    """The contract line: one workload's metrics, or all keyed by name."""
    if len(records) == 1:
        metrics: Dict[str, Any] = records[0]["metrics"]
    else:
        metrics = {r["workload"]: r["metrics"] for r in records}
    return {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }


def with_units(metrics: Dict[str, float], units: Dict[str, Dict[str, Any]]):
    if set(metrics) != set(units):
        raise SystemExit(
            "metrics differ from BENCHMARK.json: "
            f"{sorted(set(metrics) ^ set(units))}"
        )
    return {k: {"value": v, "unit": units[k]["unit"]} for k, v in metrics.items()}


def run_sets(
    names: List[str], seed: int, seconds: float, n_sets: int,
    spec: Dict[str, Any],
) -> int:
    """Run everything ``n_sets`` times; non-zero if an end-to-end metric
    spreads past its bound or a count or simulator output differs."""
    sets = []
    for k in range(n_sets):
        records = {}
        for name in names:
            for trace in (False, True):
                rec = run_workload(name, seed, seconds, trace, smoke=False)
                records[(name, trace)] = rec
                print_record(rec, declared(spec, trace))
        sets.append(records)
        print(f"-- set {k + 1} of {n_sets} done")
    bad = 0
    e2e = declared(spec, False)
    print("\n== stability across sets ==")
    print(f"  {'workload':<16}{'metric':<36}{'sets':<40}{'spread':>8}{'bound':>8}")
    for name in names:
        for metric, m in e2e.items():
            values = [s[(name, False)]["metrics"][metric] for s in sets]
            spread = max(values) / min(values) - 1.0
            ok = spread <= m["bound"]
            bad += not ok
            shown = " ".join(f"{v:.5g}" for v in values)
            print(
                f"  {name:<16}{metric:<36}{shown:<40}{spread:8.3f}"
                f"{m['bound']:8.2f}{'' if ok else '  EXCEEDS'}"
            )
        exact = {
            "sim": [s[(name, False)]["sim"] for s in sets],
            "traced sim": [s[(name, True)]["sim"] for s in sets],
            "per-layer counts": [
                {
                    k: v for k, v in s[(name, True)]["metrics"].items()
                    if not k.endswith(".self_s") and k != "trace.overhead_frac"
                }
                for s in sets
            ],
            "correct": [
                s[(name, t)]["correct"] for s in sets for t in (False, True)
            ],
        }
        for what, values in exact.items():
            same = all(v == values[0] for v in values)
            if what == "correct":
                same = same and values[0]
            bad += not same
            print(f"  {name:<16}{what:<36}{'identical' if same else 'DIFFER'}")
        overheads = [
            s[(name, True)]["metrics"]["trace.overhead_frac"] for s in sets
        ]
        print(
            f"  {name:<16}{'trace.overhead_frac':<36}"
            + " ".join(f"{v:.4f}" for v in overheads)
        )
    print(f"{bad} check(s) failed")
    return 1 if bad else 0


def main(argv: Optional[List[str]] = None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*names, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="write the full ledger JSON here")
    parser.add_argument(
        "--smoke", action="store_true",
        help=f"one launch and {SMOKE_CALLS} calls per workload",
    )
    parser.add_argument(
        "--sets", type=int, default=0,
        help="run everything N times and compare the sets",
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no src/repro under {ROOT}: nothing to measure", file=sys.stderr)
        return 2
    selected = names if args.workload == "all" else [args.workload]
    try:
        if args.sets:
            return run_sets(selected, args.seed, args.seconds, args.sets, spec)
        trace = bool(args.trace)
        units = declared(spec, trace)
        records = [
            run_workload(n, args.seed, args.seconds, trace, args.smoke)
            for n in selected
        ]
    except LaunchError as exc:
        print(exc, file=sys.stderr)
        return 1
    meta = {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        **records[0]["versions"],
        "seed": args.seed,
        "seconds": args.seconds,
    }
    print("ledger: " + ", ".join(f"{k} {v}" for k, v in meta.items()))
    for rec in records:
        print_record(rec, units)
        rec["metrics"] = with_units(rec["metrics"], units)
    if args.out:
        args.out.write_text(
            json.dumps({**meta, "records": records}, indent=2) + "\n"
        )
    print(json.dumps(result_line(records)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
