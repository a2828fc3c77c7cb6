#!/usr/bin/env bash
# Two-node load proof for the structmined replica set: boot a 2-node
# localhost cluster (rendezvous-sharded, each node listed in the
# other's -peers), check proxy correctness (a dataset registered via
# node A mines to a byte-identical artifact no matter which node
# serves the request), then drive the set with cmd/loadgen's open-loop
# ramp to produce BENCH_LOAD.json, and finish with a SIGTERM drain of
# both nodes.
#
# Tunables (env): LOAD_RATES (default 10,25,50), LOAD_DURATION (3s),
# LOAD_OUT (BENCH_LOAD.json in the repo root).
#
# On failure the node logs are copied to $SMOKE_ARTIFACT_DIR (when
# set), so CI can upload them.
set -euo pipefail
cd "$(dirname "$0")/.."

for tool in curl jq cmp; do
  if ! command -v "$tool" >/dev/null 2>&1; then
    echo "load: FAIL — required tool '$tool' is not installed" >&2
    exit 1
  fi
done

workdir=$(mktemp -d)
pids=()
status=1
cleanup() {
  if [ "$status" -ne 0 ] && [ -n "${SMOKE_ARTIFACT_DIR:-}" ]; then
    mkdir -p "$SMOKE_ARTIFACT_DIR"
    for f in "$workdir"/log-*; do
      [ -f "$f" ] && cp "$f" "$SMOKE_ARTIFACT_DIR/$(basename "$f").txt"
    done
    echo "load: node logs preserved in $SMOKE_ARTIFACT_DIR" >&2
  fi
  for p in "${pids[@]:-}"; do
    [ -n "$p" ] && kill "$p" 2>/dev/null || true
  done
  rm -rf "$workdir"
}
trap cleanup EXIT

echo "load: building structmined and loadgen"
go build -o "$workdir/structmined" ./cmd/structmined
go build -o "$workdir/loadgen" ./cmd/loadgen

# The -peers list must name every node before any of them boots, so
# unlike smoke.sh we cannot lean on -addr :0 — probe for free ports.
pick_port() {
  local port
  while :; do
    port=$((20000 + RANDOM % 20000))
    if ! { true 2>/dev/null >"/dev/tcp/127.0.0.1/$port"; } 2>/dev/null; then
      echo "$port"
      return
    fi
  done
}
port_a=$(pick_port)
port_b=$(pick_port)
while [ "$port_b" = "$port_a" ]; do port_b=$(pick_port); done
node_a="http://127.0.0.1:$port_a"
node_b="http://127.0.0.1:$port_b"
peers="$node_a,$node_b"

# boot_node LOGFILE PORT — start one replica; appends to $pids.
boot_node() {
  local log=$1 port=$2
  "$workdir/structmined" -addr "127.0.0.1:$port" -workers 2 \
    -peers "$peers" -probe-interval 250ms >"$log" 2>&1 &
  pids+=($!)
  for _ in $(seq 1 100); do
    if curl -sSf -o /dev/null "http://127.0.0.1:$port/v1/healthz" 2>/dev/null; then
      return
    fi
    sleep 0.1
  done
  echo "load: FAIL — node on port $port did not start" >&2
  cat "$log" >&2
  exit 1
}

boot_node "$workdir/log-a" "$port_a"
boot_node "$workdir/log-b" "$port_b"
echo "load: 2-node replica set up at $node_a + $node_b"

for node in "$node_a" "$node_b"; do
  hp=$(curl -sS "$node/v1/healthz" | jq -r '.cluster.healthy_peers')
  if [ "$hp" != 2 ]; then
    echo "load: FAIL — $node reports healthy_peers=$hp, want 2"; exit 1
  fi
done
echo "load: both nodes see 2 healthy peers"

# --- proxy correctness ------------------------------------------------------
# Register through A, mine through B, and fetch the artifact through
# both: whichever node owns the hash, the bytes must match.
printf 'K,V,W\n' >"$workdir/toy.csv"
for r in $(seq 0 59); do
  printf '%s,%s,%s\n' "$r" "$((r * 7 % 13))" "$((r * 3 % 5))" >>"$workdir/toy.csv"
done
ds=$(curl -sS -X POST --data-binary @"$workdir/toy.csv" \
  -H 'Content-Type: text/csv' "$node_a/v1/datasets?name=toy" | jq -r .id)
[ -n "$ds" ] && [ "$ds" != null ] || { echo "load: FAIL — register via A"; exit 1; }

job=$(curl -sS -X POST -H 'Content-Type: application/json' \
  -d "{\"dataset\":\"$ds\",\"task\":\"rank-fds\"}" "$node_b/v1/jobs" | jq -r .id)
[ -n "$job" ] && [ "$job" != null ] || { echo "load: FAIL — submit via B"; exit 1; }
for _ in $(seq 1 300); do
  state=$(curl -sS "$node_b/v1/jobs/$job" | jq -r .state)
  [ "$state" = done ] && break
  if [ "$state" = failed ] || [ "$state" = canceled ]; then
    echo "load: FAIL — job $job ended $state"; exit 1
  fi
  sleep 0.1
done
[ "$state" = done ] || { echo "load: FAIL — job $job stuck in $state"; exit 1; }

curl -sS "$node_a/v1/jobs/$job/result" >"$workdir/result-via-a.json"
curl -sS "$node_b/v1/jobs/$job/result" >"$workdir/result-via-b.json"
if ! cmp -s "$workdir/result-via-a.json" "$workdir/result-via-b.json"; then
  echo "load: FAIL — artifact differs between serving nodes"; exit 1
fi
[ -s "$workdir/result-via-a.json" ] || { echo "load: FAIL — empty artifact"; exit 1; }
echo "load: artifact byte-identical via either node ($(wc -c <"$workdir/result-via-a.json") bytes)"

proxied=$(curl -sS "$node_a/v1/metrics" "$node_b/v1/metrics" |
  sed -n 's/^structmine_cluster_proxied_requests_total{[^}]*} //p' |
  awk '{s += $1} END {printf "%d", s}')
if [ "${proxied:-0}" -lt 1 ]; then
  echo "load: FAIL — no proxied requests counted across the set"; exit 1
fi
echo "load: cluster proxied $proxied request(s) between replicas"

# --- load ramp --------------------------------------------------------------
out=${LOAD_OUT:-BENCH_LOAD.json}
"$workdir/loadgen" -targets "$peers" \
  -rates "${LOAD_RATES:-10,25,50}" -duration "${LOAD_DURATION:-3s}" \
  -out "$out"
[ -s "$out" ] || { echo "load: FAIL — no $out written"; exit 1; }

sustained=$(jq -r .sustained_qps "$out")
low_5xx=$(jq -r '.levels[0].status_5xx' "$out")
low_reqs=$(jq -r '.levels[0].requests' "$out")
if ! jq -e '.sustained_qps > 0' "$out" >/dev/null; then
  echo "load: FAIL — sustained_qps=$sustained, want > 0"; exit 1
fi
if [ "$low_5xx" != 0 ]; then
  echo "load: FAIL — $low_5xx server errors at the lowest offered rate"; exit 1
fi
if [ "$low_reqs" = 0 ]; then
  echo "load: FAIL — lowest level saw no traffic"; exit 1
fi
echo "load: ramp complete — sustained $sustained qps, knee $(jq -r .knee_qps "$out") qps, report in $out"

# --- graceful drain ---------------------------------------------------------
for p in "${pids[@]}"; do
  kill -TERM "$p"
done
for p in "${pids[@]}"; do
  for _ in $(seq 1 100); do
    kill -0 "$p" 2>/dev/null || break
    sleep 0.1
  done
  if kill -0 "$p" 2>/dev/null; then
    echo "load: FAIL — node $p did not drain on SIGTERM"; exit 1
  fi
done
pids=()
echo "load: both nodes drained cleanly on SIGTERM"

echo "load: PASS"
status=0
