#!/usr/bin/env bash
# Sustained-load cluster benchmark -> BENCH_pr9.json (see EXPERIMENTS.md).
#
# Measures saturation throughput of one capacity-bound hmtx-serve node vs a
# 3-backend hmtx-router cluster under identical open-loop load. Every node
# runs `--mem-only --mem-cache 30` against the 80-key standard sweep, so
# the single node's LRU thrashes (the round-robin key cycle evicts every
# entry before its reuse — each arrival re-simulates at ~ms cost) while the
# consistent-hash ring gives each cluster backend a ~27-key partition that
# fits its cache entirely (each arrival is a ~us memory hit). On a 1-core
# host this isolates exactly the claim the cluster makes: throughput scales
# with AGGREGATE CACHE CAPACITY, not with cores. The router's own result
# tier (1,024 frames) holds the whole 80-key working set after the warm-up
# round, so the measured cluster arrivals are answered by the router
# itself and never reach a backend.
#
# The offered rate self-calibrates to 2.5x the single node's measured
# all-miss throughput: safely past the single node's saturation point,
# safely below the cluster's (hits are ~3 orders cheaper than misses).
# Fails unless the cluster's achieved rate strictly exceeds the single
# node's.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${1:-BENCH_pr9.json}"
MEM_CAP=30
DURATION_S="${DURATION_S:-8}"
CLIENTS="${CLIENTS:-8}"

PROFILE="${PROFILE:-release}"
SERVE="target/${PROFILE}/hmtx-serve"
ROUTER="target/${PROFILE}/hmtx-router"
LOAD="target/${PROFILE}/hmtx-load"
{ [ -x "$SERVE" ] && [ -x "$ROUTER" ] && [ -x "$LOAD" ]; } \
  || cargo build --release -p hmtx-server -p hmtx-cluster

WORK="$(mktemp -d)"
ALL_PIDS=()
cleanup() {
  for p in "${ALL_PIDS[@]}"; do kill -9 "$p" 2>/dev/null || true; done
  rm -rf "$WORK"
}
trap cleanup EXIT

wait_addr() {
  local out="$1" addr=""
  for _ in $(seq 1 100); do
    addr="$(sed -n 's/^listening on //p' "$out" | head -n1)"
    [ -n "$addr" ] && { echo "$addr"; return 0; }
    sleep 0.1
  done
  echo "cluster_bench: no address in $out" >&2
  return 1
}

start_backend() { # name; sets BACKEND_ADDR/BACKEND_PID, tracks the pid
  local name="$1"
  "$SERVE" --addr 127.0.0.1:0 --workers 2 --mem-only --mem-cache "$MEM_CAP" \
    >"$WORK/$name.out" 2>"$WORK/$name.err" &
  BACKEND_PID=$!
  disown "$BACKEND_PID"
  ALL_PIDS+=("$BACKEND_PID")
  BACKEND_ADDR="$(wait_addr "$WORK/$name.out")"
}

# --- phase 1: single capacity-bound node ----------------------------------
start_backend single
SINGLE_ADDR="$BACKEND_ADDR"
SINGLE_PID="$BACKEND_PID"
echo "cluster_bench: single node at $SINGLE_ADDR"

# Calibration: one closed-loop sweep round = the all-miss service rate.
"$LOAD" --addr "$SINGLE_ADDR" --clients "$CLIENTS" --rounds 1 \
  --json "$WORK/calibrate.json" 2>/dev/null
RATE="$(python3 -c '
import json, sys
r = json.load(open(sys.argv[1]))["rounds"][0]
print(max(20, int(r["throughput_jobs_per_s"] * 2.5)))
' "$WORK/calibrate.json")"
echo "cluster_bench: calibrated offered rate: $RATE/s for ${DURATION_S}s"

"$LOAD" --addr "$SINGLE_ADDR" --sustained --rate "$RATE" \
  --duration-s "$DURATION_S" --clients "$CLIENTS" --json "$WORK/single.json"
kill -TERM "$SINGLE_PID" 2>/dev/null || true

# --- phase 2: 3 backends behind the router --------------------------------
start_backend b0; B0="$BACKEND_ADDR"
start_backend b1; B1="$BACKEND_ADDR"
start_backend b2; B2="$BACKEND_ADDR"
"$ROUTER" --addr 127.0.0.1:0 --health-interval-ms 100 \
  --backends "$B0,$B1,$B2" >"$WORK/router.out" 2>"$WORK/router.err" &
ALL_PIDS+=($!); disown $!
ROUTER_ADDR="$(wait_addr "$WORK/router.out")"
echo "cluster_bench: router at $ROUTER_ADDR over $B0 $B1 $B2"

# Warm each backend's ring partition and the router's result tier (one
# sweep round), then measure.
"$LOAD" --addr "$ROUTER_ADDR" --clients "$CLIENTS" --rounds 1 \
  --json /dev/null 2>/dev/null
"$LOAD" --addr "$ROUTER_ADDR" --sustained --rate "$RATE" \
  --duration-s "$DURATION_S" --clients "$CLIENTS" --json "$WORK/router.json"

# --- compose + gate -------------------------------------------------------
python3 - "$WORK/single.json" "$WORK/router.json" "$OUT" "$MEM_CAP" <<'EOF'
import json, sys
single = json.load(open(sys.argv[1]))
router = json.load(open(sys.argv[2]))
out, mem_cap = sys.argv[3], int(sys.argv[4])
report = {
    "schema": "hmtx-cluster-bench/1",
    "methodology": (
        "open-loop sustained load (hmtx-load --sustained) over the 80-key "
        "standard sweep; every node runs --mem-only --mem-cache "
        f"{mem_cap}, so the single node thrashes its LRU while each of 3 "
        "routed backends holds its consistent-hash partition resident and "
        "the router's result tier (1,024 frames) holds all 80 keys after "
        "the warm-up round, answering every measured arrival itself; "
        "offered rate is 2.5x the single node's calibrated all-miss "
        "throughput"
    ),
    "mem_cache_cap_per_node": mem_cap,
    "offered_rps": single["offered_rps"],
    "duration_s": single["duration_s"],
    "clients": single["clients"],
    "single_node": single,
    "router_3_backends": router,
    "saturation_speedup": (
        router["achieved_rps"] / single["achieved_rps"]
        if single["achieved_rps"] > 0 else None
    ),
}
json.dump(report, open(out, "w"), indent=2)
open(out, "a").write("\n")
s, r = single["achieved_rps"], router["achieved_rps"]
print(f"cluster_bench: single {s:.1f}/s "
      f"(p50 {single['p50_us']}us p99 {single['p99_us']}us "
      f"p999 {single['p999_us']}us)")
print(f"cluster_bench: router {r:.1f}/s "
      f"(p50 {router['p50_us']}us p99 {router['p99_us']}us "
      f"p999 {router['p999_us']}us)")
assert router["ok"] > 0 and router["failed"] == 0, router
if r <= s:
    print(f"cluster_bench: FAIL: cluster ({r:.1f}/s) did not beat "
          f"the single node ({s:.1f}/s)", file=sys.stderr)
    sys.exit(1)
print(f"cluster_bench: cluster beats single node {r/s:.2f}x -> {out}")
EOF
