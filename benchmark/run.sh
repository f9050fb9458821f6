#!/usr/bin/env bash
# Runs every workload of BENCHMARK.json, each in its own process, and prints
# every metric by name with its unit. The first run builds
# benchmark/build/nsfbench from source.
#
#   benchmark/run.sh [--smoke] [--traced] [--seed S] [--runs N] [--out DIR]
#
#   --smoke    each workload for a tenth of run_seconds: a quick check
#   --traced   the per-layer metrics of a traced run instead of end-to-end
#   --seed S   the first seed (default 1)
#   --runs N   seeds S .. S+N-1, the workloads interleaved (default 1)
#   --out DIR  result directory (default benchmark/results/<date>-<time>)
#
# Each run's output goes to DIR/<workload>/seed-<S>.log and its result line
# to DIR/<workload>/seed-<S>.json; benchmark/compare.py compares two result
# directories. Exits non-zero when a run fails or reports incorrect output.
set -euo pipefail
cd "$(dirname "$0")/.."

smoke=0
trace=0
seed=1
runs=1
out="benchmark/results/$(date +%Y%m%d-%H%M%S)"
while [[ $# -gt 0 ]]; do
  case "$1" in
    --smoke) smoke=1 ;;
    --traced) trace=1 ;;
    --seed) seed="$2"; shift ;;
    --runs) runs="$2"; shift ;;
    --out) out="$2"; shift ;;
    *) echo "usage: benchmark/run.sh [--smoke] [--traced] [--seed S] [--runs N] [--out DIR]" >&2
       exit 2 ;;
  esac
  shift
done

read -r seconds workloads < <(python3 -c '
import json
spec = json.load(open("BENCHMARK.json"))
print(spec["run_seconds"], " ".join(w["name"] for w in spec["workloads"]))')
if [[ $smoke == 1 ]]; then
  seconds=$(python3 -c "print($seconds / 10)")
fi

status=0
for ((r = 0; r < runs; r++)); do
  s=$((seed + r))
  for w in $workloads; do
    mkdir -p "$out/$w"
    log="$out/$w/seed-$s.log"
    if python3 benchmark/run.py --workload "$w" --seed "$s" --seconds "$seconds" \
        --trace "$trace" > "$log" 2> "$log.err"; then
      tail -n 1 "$log" > "$out/$w/seed-$s.json"
      python3 -c '
import json, sys
path, workload, seed = sys.argv[1:4]
r = json.load(open(path))
print("%s seed %s: correct=%s attempted=%d failed=%d"
      % (workload, seed, r["correct"], r["attempted"], r["failed"]))
for name, m in r["metrics"].items():
    print("  %-32s %16.6g %s" % (name, m["value"], m["unit"]))
sys.exit(0 if r["correct"] and r["failed"] == 0 else 1)' "$out/$w/seed-$s.json" "$w" "$s" || status=1
    else
      echo "$w seed $s: FAILED (see $log.err)"
      status=1
    fi
  done
done
echo "results: $out"
exit $status
