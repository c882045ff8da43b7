#!/usr/bin/env bash
# One run-set: every workload on seeds 1..N, each run its own process as the
# driver runs them, the records appended to a result file for -compare.
#   bash benchmark/runset.sh out.json [N=10] [first-seed=1] [workloads...]
set -euo pipefail
out="$1"; n="${2:-10}"; first="${3:-1}"; shift $(( $# < 3 ? $# : 3 ))
workloads=("$@")
[ ${#workloads[@]} -gt 0 ] || workloads=(cofactor-stream multiview-durable serve-read-heavy serve-write-heavy)
for w in "${workloads[@]}"; do
  for ((s = first; s < first + n; s++)); do
    bash benchmark/run.sh --workload "$w" --seed "$s" --seconds 10 --trace 0 -out "$out" | tail -n 1
  done
done
