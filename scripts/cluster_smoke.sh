#!/usr/bin/env bash
# Smoke gate for the cluster layer: 3 hmtx-serve backends behind an
# hmtx-router on ephemeral ports. A checked mini-sweep through the router
# must be all-results and byte-identical across rounds; after one backend
# is killed hard (kill -9, not a drain) a second checked sweep over keys
# the router has not seen (so its result tier cannot answer them) must
# still be green via ring failover; the `cluster` frame must report the
# fleet and those failovers; the router must run on two threads (main and
# the readiness loop); and SIGTERM must drain the router cleanly.
# Nonzero exit on any failure.
set -euo pipefail
cd "$(dirname "$0")/.."

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

# Parse `listening on ADDR` from a server's stdout (ephemeral ports).
wait_addr() {
  local out="$1" addr=""
  for _ in $(seq 1 100); do
    addr="$(sed -n 's/^listening on //p' "$out" | head -n1)"
    [ -n "$addr" ] && { echo "$addr"; return 0; }
    sleep 0.1
  done
  echo "cluster_smoke: no address in $out" >&2
  return 1
}

# --- 3 mem-only backends --------------------------------------------------
BACKEND_PIDS=()
BACKEND_ADDRS=()
for i in 0 1 2; do
  "$SERVE" --addr 127.0.0.1:0 --workers 2 --mem-only \
    >"$WORK/b$i.out" 2>"$WORK/b$i.err" &
  BACKEND_PIDS+=($!); disown $!
  ALL_PIDS+=($!)
  BACKEND_ADDRS+=("$(wait_addr "$WORK/b$i.out")")
done
echo "cluster_smoke: backends at ${BACKEND_ADDRS[*]}"

# --- the router over them -------------------------------------------------
"$ROUTER" --addr 127.0.0.1:0 --health-interval-ms 50 \
  --backends "${BACKEND_ADDRS[0]},${BACKEND_ADDRS[1]},${BACKEND_ADDRS[2]}" \
  >"$WORK/router.out" 2>"$WORK/router.err" &
ROUTER_PID=$!; disown $!
ALL_PIDS+=($ROUTER_PID)
ADDR="$(wait_addr "$WORK/router.out")"
echo "cluster_smoke: router at $ADDR (pid $ROUTER_PID)"

# --- checked mini-sweep through the router (cold + warm) ------------------
"$LOAD" --addr "$ADDR" --clients 2 --rounds 2 --limit 12 --check \
  --json "$WORK/load1.json"

# --- kill one backend hard; failover must keep the sweep green ------------
# The router answers the keys above from its result tier, so this sweep
# uses the standard-scale keys, which no backend has seen either.
kill -9 "${BACKEND_PIDS[2]}"
echo "cluster_smoke: killed backend 2 (${BACKEND_ADDRS[2]})"
"$LOAD" --addr "$ADDR" --clients 2 --rounds 2 --scale standard --check \
  --json "$WORK/load2.json"

# --- the cluster frame reports the fleet ----------------------------------
python3 - "$ADDR" <<'EOF'
import json, socket, struct, sys
host, port = sys.argv[1].rsplit(":", 1)
s = socket.create_connection((host, int(port)), timeout=10)
def rpc(obj):
    payload = json.dumps(obj).encode()
    s.sendall(struct.pack(">I", len(payload)) + payload)
    raw = b""
    while len(raw) < 4:
        raw += s.recv(4 - len(raw))
    n = struct.unpack(">I", raw)[0]
    buf = b""
    while len(buf) < n:
        buf += s.recv(n - len(buf))
    return json.loads(buf)
c = rpc({"type": "cluster"})
assert c["type"] == "cluster", c
ups = [b["up"] for b in c["backends"]]
assert ups.count(True) == 2, f"expected 2 live backends after the kill: {c['backends']}"
r = c["router"]
assert r["forwarded"] > 0, r
assert r["failovers"] > 0, f"the killed backend's keys did not fail over: {r}"
assert r["unrouteable"] == 0, f"jobs went unrouteable: {r}"
agg = c["aggregate"]
assert agg["executed"] > 0, agg
print(f"cluster_smoke: cluster frame ok: {ups.count(True)}/3 up, "
      f"forwarded {r['forwarded']}, hits {r['hits']}, failovers {r['failovers']}")
EOF

# --- one loop thread: the router is main plus the readiness loop ---------
THREADS="$(ls "/proc/$ROUTER_PID/task" | wc -l)"
if [ "$THREADS" -ne 2 ]; then
  echo "cluster_smoke: router has $THREADS threads, want 2 (main + loop)" >&2
  exit 1
fi

# --- graceful drain on SIGTERM --------------------------------------------
kill -TERM "$ROUTER_PID"
for _ in $(seq 1 100); do
  kill -0 "$ROUTER_PID" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "$ROUTER_PID" 2>/dev/null; then
  echo "cluster_smoke: router did not drain within 10s of SIGTERM" >&2
  exit 1
fi
wait "$ROUTER_PID" 2>/dev/null || true
grep -q "drained, exiting" "$WORK/router.err" || {
  echo "cluster_smoke: router exited without reporting a clean drain" >&2
  cat "$WORK/router.err" >&2
  exit 1
}

echo "cluster_smoke: green"
