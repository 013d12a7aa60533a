#!/usr/bin/env bash
# Serve smoke: train a tiny checkpoint, start cascade_serve on an
# ephemeral port, exercise every endpoint over HTTP, kill -9 the
# process, restart it against the same WAL, and assert the replayed
# server answers bit-identically at the same watermark and keeps
# accepting. Used by CI; runnable locally:
#
#   cargo build --release -p cascade-serve --bin cascade_serve
#   bash scripts/serve_smoke.sh target/release/cascade_serve
set -euo pipefail

BIN="${1:?usage: serve_smoke.sh <path-to-cascade_serve>}"
WORK="$(mktemp -d)"
SERVER_PID=""
trap '[ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null; rm -rf "$WORK"' EXIT

# Serving dims must match the training run (--dim and the feature width;
# parameters are node-count independent, so --nodes is free to differ).
NODES=32
DIM=8
FEATURES='[0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8]' # cascade_train synth dims are 8

echo "serve_smoke: training a tiny checkpoint"
cargo run -q --release --offline -p cascade-bench --bin cascade_train -- \
  --dataset wiki --model tgn --strategy tgl --epochs 1 --scale 0.001 \
  --dim "$DIM" --save "$WORK/model.ckpt" >/dev/null

SERVE_ARGS=(--load "$WORK/model.ckpt" --arch tgn --nodes "$NODES" \
  --dim "$DIM" --feature-dim 8 --port 0 --wal "$WORK/serve.wal" \
  --snapshot "$WORK/serve_state.ckpt" --snapshot-every 8 --wal-chunk 4)

start_server() {
  "$BIN" "${SERVE_ARGS[@]}" >"$WORK/server.log" 2>&1 &
  SERVER_PID=$!
  ADDR=""
  for _ in $(seq 1 100); do
    ADDR="$(sed -n 's|^listening on http://||p' "$WORK/server.log" | head -1)"
    [ -n "$ADDR" ] && break
    kill -0 "$SERVER_PID" 2>/dev/null || { cat "$WORK/server.log"; exit 1; }
    sleep 0.1
  done
  [ -n "$ADDR" ] || { echo "server never bound"; cat "$WORK/server.log"; exit 1; }
}

req() { # method path [body] -> response body (fails the script on non-200)
  local method="$1" path="$2" body="${3:-}"
  curl -sS -f -X "$method" "http://$ADDR$path" ${body:+-d "$body"}
}

ingest_body() { # first count -> JSON body
  local first="$1" count="$2" events="" i
  for ((i = first; i < first + count; i++)); do
    events+="${events:+,}{\"src\": $((i % NODES)), \"dst\": $(((i * 3 + 1) % NODES)), \"time\": $i.0, \"features\": $FEATURES}"
  done
  printf '{"events": [%s]}' "$events"
}

start_server
echo "serve_smoke: server up at $ADDR (pid $SERVER_PID)"

# Ingest two batches, query, check stats.
req POST /ingest "$(ingest_body 0 6)" | grep -q '"total_acked":6'
req POST /ingest "$(ingest_body 6 6)" | grep -q '"total_acked":12'
PREDICT='{"src": 1, "dsts": [2, 3], "time": 100.0}'
BEFORE="$(req POST /predict "$PREDICT")"
echo "$BEFORE" | grep -q '"snapshot_events":12'
STATS="$(req GET /stats)"
echo "$STATS" | grep -q '"events_acked":12'
echo "$STATS" | grep -q '"publish_copies":[0-9]' || {
  echo "serve_smoke: /stats lacks publish_copies: $STATS"
  exit 1
}

# Error paths stay typed (non-200, hence raw curl without -f).
[ "$(curl -s -o /dev/null -w '%{http_code}' -X POST "http://$ADDR/predict" -d 'not json')" = 400 ]
[ "$(curl -s -o /dev/null -w '%{http_code}' "http://$ADDR/nope")" = 404 ]

# Kill without ceremony; restart must replay the WAL to the same state.
kill -9 "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
start_server
echo "serve_smoke: restarted at $ADDR (pid $SERVER_PID)"
grep -q "recovered 12 events" "$WORK/server.log"

AFTER="$(req POST /predict "$PREDICT")"
echo "$AFTER" | grep -q '"snapshot_events":12'
[ "$BEFORE" = "$AFTER" ] || {
  echo "serve_smoke: scores diverged across restart"
  echo "before: $BEFORE"
  echo "after:  $AFTER"
  exit 1
}

# And it keeps accepting after recovery.
req POST /ingest "$(ingest_body 12 4)" | grep -q '"total_acked":16'

echo "serve_smoke: OK"
