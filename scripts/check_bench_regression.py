#!/usr/bin/env python
"""CI guard: the performance ledger of a change against its base commit.

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

The contracts no ledger row covers (fast-vs-event simulator speedup,
disabled-tracing overhead, energy ceilings, DP-tier gap bound,
incremental re-solve) are asserted by the benches that measure them,
under ``benchmarks/``.

Run:  python scripts/check_bench_regression.py --base b1.json b2.json \
          --change c1.json c2.json [--spec base/BENCHMARK.json]
      scripts/ledger_against.sh REF   # runs both sides, then compares
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--base",
        nargs="+",
        type=Path,
        required=True,
        help="ledger --out files of the base commit",
    )
    parser.add_argument(
        "--change",
        nargs="+",
        type=Path,
        required=True,
        help="ledger --out files of the change",
    )
    parser.add_argument(
        "--spec",
        type=Path,
        default=REPO / "BENCHMARK.json",
        help="BENCHMARK.json whose workloads and bounds apply (default: "
        "this checkout's; CI passes the base commit's)",
    )
    args = parser.parse_args(argv)

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


if __name__ == "__main__":
    raise SystemExit(main())
