#!/usr/bin/env bash
# Dist smoke: gate on the driver matrix's N=1 row (the dist run against
# the reference train loop, tests/identity.rs), run a 2-worker
# in-process epoch through the cascade_dist CLI, then the same run as
# two real processes over TCP loopback (leader backgrounded), and
# assert all three transports report identical per-epoch losses and
# that the in-process run and the TCP leader save byte-identical
# full-state checkpoints. Last, cascade_train warm-starts from the
# in-process checkpoint at the same dataset, model, width and scale.
# Used by CI; runnable locally:
#
#   cargo build --release -p cascade-dist --bin cascade_dist
#   bash scripts/dist_smoke.sh target/release/cascade_dist
set -euo pipefail

BIN="${1:?usage: dist_smoke.sh <path-to-cascade_dist>}"
WORK="$(mktemp -d)"
LEADER_PID=""
trap '[ -n "$LEADER_PID" ] && kill "$LEADER_PID" 2>/dev/null; rm -rf "$WORK"' EXIT

echo "dist_smoke: gating on the N=1 bit-identity row"
cargo test -q --release --offline -p cascade --test identity \
  g4_n1_dist_is_bit_identical_to_the_reference >/dev/null

# The run's shape: cascade_train reads these four flags the same way.
SHAPE_ARGS=(--dataset wiki --model tgn --dim 8 --scale 0.003)
# All transports must agree on every flag except --mode/--worker.
RUN_ARGS=("${SHAPE_ARGS[@]}" --workers 2 --epochs 2 \
  --batch 64 --chunk 128 --seed 33 --data-seed 29)

echo "dist_smoke: 2-worker in-process epoch"
"$BIN" --mode inproc "${RUN_ARGS[@]}" --save "$WORK/inproc.ckpt" | tee "$WORK/inproc.log"
grep -q '^epoch ' "$WORK/inproc.log"
grep -q 'batches logged' "$WORK/inproc.log"

# TCP loopback: two real processes sharing nothing but the socket.
PORT=$(( (RANDOM % 20000) + 20000 ))
ADDR="127.0.0.1:$PORT"
echo "dist_smoke: TCP loopback on $ADDR"
"$BIN" --mode leader --addr "$ADDR" "${RUN_ARGS[@]}" \
  --save "$WORK/leader.ckpt" >"$WORK/leader.log" 2>&1 &
LEADER_PID=$!

# The follower retries until the leader's listener is up.
FOLLOWER_OK=""
for _ in $(seq 1 50); do
  if "$BIN" --mode follower --worker 1 --addr "$ADDR" "${RUN_ARGS[@]}" \
    >"$WORK/follower.log" 2>&1; then
    FOLLOWER_OK=1
    break
  fi
  kill -0 "$LEADER_PID" 2>/dev/null || { cat "$WORK/leader.log"; exit 1; }
  sleep 0.2
done
[ -n "$FOLLOWER_OK" ] || { echo "follower never connected"; cat "$WORK/follower.log"; exit 1; }
wait "$LEADER_PID"
LEADER_PID=""
cat "$WORK/leader.log"

# Every transport and every replica trained the same model: the
# per-epoch loss lines must match bit-rendered across all three logs.
for log in leader follower; do
  grep '^epoch ' "$WORK/$log.log" >"$WORK/$log.losses"
done
grep '^epoch ' "$WORK/inproc.log" >"$WORK/inproc.losses"
cmp -s "$WORK/leader.losses" "$WORK/follower.losses" || {
  echo "dist_smoke: leader and follower replicas diverged"
  diff "$WORK/leader.losses" "$WORK/follower.losses" || true
  exit 1
}
cmp -s "$WORK/inproc.losses" "$WORK/leader.losses" || {
  echo "dist_smoke: TCP and in-process transports diverged"
  diff "$WORK/inproc.losses" "$WORK/leader.losses" || true
  exit 1
}

# Losses agreeing is not enough: the whole trained state (weights,
# optimizer, node memories, mailboxes, adjacency) must match too.
cmp "$WORK/inproc.ckpt" "$WORK/leader.ckpt" || {
  echo "dist_smoke: TCP and in-process checkpoints differ"
  exit 1
}

# Every front door builds the model and the dataset by one rule each
# (ModelConfig::at_width, SynthConfig::at_scale), so a dist checkpoint
# loads into a single-node run of the same shape.
echo "dist_smoke: cascade_train --load of the in-process checkpoint"
cargo run -q --release --offline -p cascade-bench --bin cascade_train -- \
  "${SHAPE_ARGS[@]}" --epochs 1 --load "$WORK/inproc.ckpt" | tee "$WORK/warm.log"
grep -q "^loaded parameters from $WORK/inproc.ckpt" "$WORK/warm.log"

echo "dist_smoke: OK"
