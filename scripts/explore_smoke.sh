#!/usr/bin/env bash
# Smoke gate for schedule exploration (see DESIGN.md §9): every interleaving
# of the op kernels must check clean under hmtx-model, the planted defect
# must be found, lowered to a short seed and replayed by hmtx-run, found
# again at machine level and pinned as a one-divergence seed, bounded
# exploration must terminate clean on the two-thread machine kernels (reduced
# to bound 3, unreduced to bound 4), and a
# bound-limited sweep over every workload must finish within the smoke
# budget. Nonzero exit on any failure.
set -euo pipefail
cd "$(dirname "$0")/.."

PROFILE="${PROFILE:-release}"
BIN="target/${PROFILE}"
for B in hmtx-explore hmtx-model hmtx-run; do
  [ -x "$BIN/$B" ] || cargo build --release --bin "$B"
done

SCRATCH="$(mktemp -d)"
trap 'rm -rf "$SCRATCH"' EXIT

# --- op kernels: every interleaving ----------------------------------------
# The model checker visits every reachable state of each op kernel, with no
# preemption bound and the strict checks after every op.
for K in migrated_line forwarding_chain write_skew; do
  "$BIN/hmtx-model" --kernel "$K"
done

# --- planted-defect pipeline ----------------------------------------------
# Under the test-only stale-migration-replica defect the checker must find a
# counterexample (exit 1) and lower it to a seed of at most the 7 ops of the
# originally recorded schedule; replaying that seed must fail (exit 1) and
# name the same rule.
SEED="$SCRATCH/stale_migration_replica.json"
set +e
"$BIN/hmtx-model" --kernel migrated_line --seed-bug stale-migration-replica \
  --seed-out "$SEED" >"$SCRATCH/model.txt"
MODEL_EXIT=$?
"$BIN/hmtx-run" --replay "$SEED" >/dev/null 2>"$SCRATCH/replay.txt"
REPLAY_EXIT=$?
set -e
if [ "$MODEL_EXIT" -ne 1 ]; then
  echo "hmtx-model exited $MODEL_EXIT on the planted defect, expected 1" >&2
  exit 1
fi
OPS=$(python3 -c 'import json, sys; print(len(json.load(open(sys.argv[1]))["order"]))' "$SEED")
if [ "$OPS" -gt 7 ]; then
  echo "planted-defect seed has $OPS ops, limit 7" >&2
  exit 1
fi
RULE=$(sed -n 's/^VIOLATION \[\([^]]*\)\].*/\1/p' "$SCRATCH/model.txt" | head -n 1)
if [ "$REPLAY_EXIT" -ne 1 ] || ! grep -qF "[$RULE]" "$SCRATCH/replay.txt"; then
  echo "hmtx-run --replay exited $REPLAY_EXIT without naming [$RULE]:" >&2
  cat "$SCRATCH/replay.txt" >&2
  exit 1
fi

# --- machine-level planted defect -----------------------------------------
# Under the same defect, full-machine exploration of race_detect must fail,
# and breadth-first search must reach the failure at one divergence and pin
# it under a kernel-named stem in the corpus dir it is given. The seed's note
# must name the violated rule in plain text, and tests/corpus/ must stay
# untouched.
CORPUS_BEFORE=$(cksum tests/corpus/*.json)
"$BIN/hmtx-explore" --kernel race_detect --preemptions 3 \
  --seed-bug stale-migration-replica --corpus-dir "$SCRATCH" --expect-failure
MSEED="$SCRATCH/regression_race_detect_stale_migration_replica.json"
if [ ! -f "$MSEED" ]; then
  echo "hmtx-explore --corpus-dir did not write $MSEED" >&2
  exit 1
fi
PICKS=$(python3 -c 'import json, sys; print(len(json.load(open(sys.argv[1]))["picks"]))' "$MSEED")
if [ "$PICKS" -ne 1 ]; then
  echo "machine planted-defect seed has $PICKS divergences, expected 1" >&2
  exit 1
fi
NOTE=$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["note"])' "$MSEED")
case "$NOTE" in
  *"Violation {"*)
    echo "machine seed note renders the violation as Debug text: $NOTE" >&2
    exit 1 ;;
  *": at most one responding version hits per VID: "*) ;;
  *)
    echo "machine seed note does not name the rule: $NOTE" >&2
    exit 1 ;;
esac
if [ "$(cksum tests/corpus/*.json)" != "$CORPUS_BEFORE" ]; then
  echo "hmtx-explore --corpus-dir wrote into tests/corpus/" >&2
  exit 1
fi

# --- machine kernels ------------------------------------------------------
# The two-thread machine kernels, to the default preemption bound of 3: the
# bounded space must be exhausted with zero invariant or oracle violations.
"$BIN/hmtx-explore" --all-kernels --preemptions 3 --expect-exhausted
# The unreduced space to bound 4 (about 32k schedules, under a second):
# the conflict reduction is a heuristic at machine granularity, so the full
# bounded space is checked too.
"$BIN/hmtx-explore" --all-kernels --preemptions 4 --no-reduce --expect-exhausted

# --- bounded workload sweep -----------------------------------------------
# Every paper workload analogue, bound-limited: exploration must terminate
# clean (invariants hold, committed output matches the sequential
# reference) within the smoke budget.
for W in 052.alvinn 130.li 164.gzip 186.crafty 197.parser 256.bzip2 456.hmmer ispell; do
  "$BIN/hmtx-explore" --workload "$W" --bound 48 --preemptions 2
done

echo "explore_smoke green"
