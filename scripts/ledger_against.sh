#!/usr/bin/env bash
# The performance ledger of the working tree against commit REF, on this host.
#
#   scripts/ledger_against.sh REF [ROUNDS]
#
# Checks REF out as a detached git worktree and runs
# benchmarks/ledger/run.py once per workload and round on each side
# (ROUNDS, default 3).  A workload's two runs go back to back, and the
# side that goes first alternates: host speed drifts over minutes, and
# one run can spread past its bound where the median of three rarely
# does.  The workloads and bounds are those of REF's BENCHMARK.json, so
# the working tree can neither widen its own bound nor ask REF to run a
# workload REF does not have; a workload only the working tree declares
# runs once there, for its correctness oracle, with no timing compared.
# Writes ledger_{base,change}_<workload>_<round>.json to the current
# directory and exits with the status of
# scripts/check_bench_regression.py --base ... --change ... --spec ...
set -euo pipefail

ref=$1
rounds=${2:-3}
repo=$(git rev-parse --show-toplevel)
out=$PWD
if compgen -G "$out/ledger_*_*.json" >/dev/null; then
  echo "ledger files from an earlier run are in $out; remove them first" >&2
  exit 2
fi

tmp=$(mktemp -d)
base=$tmp/base
git -C "$repo" worktree add --detach "$base" "$ref"
trap 'git -C "$repo" worktree remove --force "$base"; rm -rf "$tmp"' EXIT

ledger() {  # ledger SIDE DIR WORKLOAD ROUND
  (cd "$2" && python3 benchmarks/ledger/run.py --workload "$3" \
    --out "$out/ledger_$1_$3_$4.json")
}
names() {  # names BENCHMARK.json: its workload names, one a line
  python3 -c 'import json, sys
for w in json.load(open(sys.argv[1]))["workloads"]:
    print(w["name"])' "$1"
}

workloads=$(names "$base/BENCHMARK.json")
for i in $(seq "$rounds"); do
  for w in $workloads; do
    if [ $((i % 2)) -eq 1 ]; then
      ledger base "$base" "$w" "$i"
      ledger change "$repo" "$w" "$i"
    else
      ledger change "$repo" "$w" "$i"
      ledger base "$base" "$w" "$i"
    fi
  done
done
for w in $(comm -13 <(echo "$workloads" | sort) \
                    <(names "$repo/BENCHMARK.json" | sort)); do
  ledger change "$repo" "$w" new
done

python3 "$repo/scripts/check_bench_regression.py" \
  --spec "$base/BENCHMARK.json" \
  --base "$out"/ledger_base_*.json --change "$out"/ledger_change_*.json
