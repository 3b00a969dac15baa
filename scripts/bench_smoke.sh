#!/usr/bin/env bash
# Benchmark smoke: each workload of BENCHMARK.json runs once, briefly,
# through the benchmark's own entry point (`perfbench/run.py`), and must
# exit 0 with a last line of JSON that reports `"correct": true` and
# `"failed": 0`. A change that would make a benchmark run fail fails here
# first. The build goes under target/, so the tree stays clean.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_TARGET_DIR=target/bench-smoke
# Five seconds is the floor: at one second serve-zipf's own p99 check
# fails for want of samples beyond the p99.
RUN_SECONDS=5

for W in sim-sweep sim-chaos serve-zipf model-check; do
  echo "--- bench smoke: ${W}"
  if ! OUT="$(python3 perfbench/run.py --workload "$W" --seed 1 \
      --seconds "$RUN_SECONDS" --trace 0)"; then
    echo "bench smoke: ${W} exited nonzero" >&2
    exit 1
  fi
  printf '%s\n' "$OUT" | tail -n 1 | python3 -c '
import json, sys
name = sys.argv[1]
try:
    r = json.loads(sys.stdin.read())
except ValueError as e:
    sys.exit(f"bench smoke: {name}: last line is not JSON ({e})")
correct, failed, n = r.get("correct"), r.get("failed"), r.get("attempted")
if correct is not True or failed != 0:
    sys.exit(f"bench smoke: {name}: correct={correct}, failed={failed}")
print(f"bench smoke: {name} correct, 0 of {n} failed")
' "$W"
done
echo "bench smoke green"
