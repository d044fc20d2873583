#!/usr/bin/env bash
# Runs every workload of BENCHMARK.json once for each of the seeds 1..10,
# each for its run_seconds, and appends each run's result line to a
# history file, the format perfbench --trend renders:
#
#   bash perfbench/collect.sh <commit> <out.jsonl>
#
# Run from the repository root.
set -euo pipefail

commit=$1 out=$2
read -r secs workloads < <(python3 -c '
import json
b = json.load(open("BENCHMARK.json"))
print(b["run_seconds"], " ".join(w["name"] for w in b["workloads"]))')
host="$(nproc) vCPU $(grep -m1 'model name' /proc/cpuinfo | cut -d: -f2 | sed 's/^ *//')"

for w in $workloads; do
  for s in $(seq 1 10); do
    line=$(bash perfbench/run.sh --workload "$w" --seed "$s" --seconds "$secs" --trace 0 | tail -n 1)
    printf '{"commit":"%s","host":"%s","workload":"%s","seed":%s,"result":%s}\n' \
      "$commit" "$host" "$w" "$s" "$line" >> "$out"
  done
done
