#!/usr/bin/env bash
# Tier-1 gate: the checks every PR must keep green (see ROADMAP.md), plus a
# parallel smoke run of the full experiment harness. Fails on any nonzero
# exit or panic.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release

# Format gate: the tree stays `rustfmt`-clean (`scripts/check.sh` runs the
# same check).
cargo fmt --all -- --check

# Per-crate test matrix: the union equals `cargo test -q --workspace`, but a
# failure names its crate in the log instead of drowning in the firehose.
for CRATE in hmtx-types hmtx-isa hmtx-analysis hmtx-mem hmtx-core \
             hmtx-machine hmtx-explore hmtx-modelcheck hmtx-runtime \
             hmtx-smtx hmtx-workloads hmtx-power hmtx-bench hmtx-server \
             hmtx-cluster hmtx; do
  echo "--- cargo test -p ${CRATE}"
  cargo test -q -p "$CRATE"
done

# The benchmark (`perfbench/`, a Cargo workspace of its own) builds against
# this workspace's crates: test it here, so a change to an API it uses
# fails this gate rather than only the benchmark run. Its build goes under
# target/, so the tree stays clean.
CARGO_TARGET_DIR=target/perfbench \
  cargo test --offline --locked --manifest-path perfbench/Cargo.toml

# Chaos differential: committed outputs under any seeded fault schedule
# (including the pinned regression seeds) must match the fault-free run.
cargo test -q -p hmtx --test chaos

# Lint gate: the deny-by-default policy lives in `[workspace.lints]`
# (warnings denied, unsafe_code forbidden outside hmtx-mem/hmtx-server),
# so a plain clippy run enforces it.
cargo clippy --workspace --all-targets

# Doc gate: the same deny policy covers rustdoc's lints, so a public doc
# that links to a private or missing item fails here.
cargo doc --workspace --no-deps

# Static verification gate: every workload emitter, under every paradigm and
# SMTX mode, must produce programs the analyzer certifies clean (MTX
# protocol, register dataflow, queue matching/deadlock, store escape).
cargo run --release -p hmtx --bin hmtx-verify -- --all-workloads

# Protocol model-check gate: the 2-core × 2-line and 3-core × 3-line
# vid_bits=2 models must exhaust clean in well under a second — every
# reachable state satisfies every cache invariant, commit safety, and the
# serializability oracle — and the planted stale-migration-replica defect
# must be rediscovered (exit 1), proving the checker can still find real
# bugs. vid_bits=2 spans only 4 VIDs; the 8-VID c2-l2-v3 model, cut off at
# 20k states (a fraction of a second), must report no violations either.
# Each run's stdout, plain and --json, must equal its golden file in
# tests/model_golden/ byte for byte: a change to the state encoding or its
# fingerprint that merges or splits a single state fails here. Regenerate a
# golden file (`target/release/hmtx-model ARGS [--json] > FILE`) only in a
# change that deliberately changes the model.
model_gate() {
  local name=$1 want=$2
  shift 2
  local fmt got
  for fmt in txt json; do
    local args=("$@")
    if [ "$fmt" = json ]; then args+=(--json); fi
    got=0
    target/release/hmtx-model "${args[@]}" > "target/model-$name.$fmt" || got=$?
    if [ "$got" != "$want" ]; then
      echo "hmtx-model ${args[*]} exited $got, want $want" >&2
      exit 1
    fi
    diff -u "tests/model_golden/$name.$fmt" "target/model-$name.$fmt"
  done
}
model_gate c2-l2-v2 0
model_gate c3-l3-v2 0 --cores 3 --lines 3
model_gate c2-l2-v3-20k 0 --vid-bits 3 --max-states 20000
model_gate stale-migration-replica 1 --seed-bug stale-migration-replica

# Serving-layer smoke: ephemeral hmtx-serve + hmtx-load burst; verifies
# byte-identical cold/warm responses, cache-hit accounting, SIGTERM drain.
bash scripts/serve_smoke.sh

# Cluster smoke: 3 backends behind hmtx-router; checked sweeps stay green
# through a hard backend kill (ring failover), the cluster frame reports
# the fleet, and the router drains cleanly on SIGTERM.
# (scripts/cluster_bench.sh -> BENCH_pr9.json is an artifact generator, not
# a CI gate, and no longer a capacity benchmark: its 80 keys fit the
# router's result tier, so none of its measured arrivals reaches a backend
# -- ROADMAP item 9.)
bash scripts/cluster_smoke.sh

# Benchmark smoke: every BENCHMARK.json workload runs 5 s through
# perfbench/run.py and must exit 0 with a correct result and 0 failed
# operations (about 30 s of runs, plus a release build under target/).
bash scripts/bench_smoke.sh

# Exploration smoke: bounded systematic schedule exploration (hmtx-explore)
# must exhaust the kernel space clean, rediscover + pin the planted
# defect, and terminate bound-limited on every workload (DESIGN.md §9).
bash scripts/explore_smoke.sh

# Full harness at quick scale across all host cores. The JSON report holds
# host wall-clock, so it goes under target/ rather than over a tracked file
# (a tier-1 run leaves the tree clean).
cargo run --release -p hmtx-bench --bin experiments -- \
  all --quick --jobs "$(nproc)" --json target/quick-report.json >/dev/null

# Byte identity: the standard-scale harness output must equal the checked-in
# artifact exactly. Any simulator change that moves a cycle shows up here.
cargo run --release -p hmtx-bench --bin experiments -- \
  all --jobs "$(nproc)" > target/experiments_output.txt
cmp target/experiments_output.txt experiments_output.txt

# Determinism differentials: two identical runs must produce identical
# traces and stats (overflow-table order), and the full sweep must render
# byte-identical whatever the host thread count.
cargo test -q --release -p hmtx-machine --test determinism
cargo test -q --release -p hmtx-bench --test differential

# HyTM determinism differential: the hybrid-mode column of the standard
# sweep (fast-path retries, seeded backoff, slow-path slabs) must render
# byte-identical serial vs parallel.
cargo test -q --release -p hmtx-bench --test differential \
  hytm_sweep_is_byte_identical_serial_vs_parallel

# Perf gate: committed-simulated-cycles/sec over the standard sweep must
# stay within 20% of the BENCH_pr6.json baseline (see EXPERIMENTS.md). The
# gate also fails if the committed cycle total drifts from the recording —
# that means the simulation changed, and the baseline must be regenerated
# in the same PR.
cargo run --release -p hmtx-bench --bin cyclebench -- \
  --reps 3 --gate BENCH_pr6.json --threshold 0.8

echo "tier-1 green"
