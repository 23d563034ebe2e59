#!/usr/bin/env bash
# Dist-equivalence gate: one simulation sharded across OS processes over
# loopback TCP must stream bytes identical to the serial golden fixture —
# at 1 shard and at 4 — and a coordinator-driven checkpoint lap at 4 shards
# (snapshot at round 75, resume to 150) must be invisible in the stream.
# Workers dial with a 15s retry window, so launch order is free.
set -euo pipefail
. "$(dirname "$0")/need-multicore.sh"

ADDR="127.0.0.1:${DIST_PORT:-18099}"
GOLDEN=testdata/golden/playdemo.events.jsonl
SOS=/tmp/sos-dist

go build -o "$SOS" ./cmd/sos

# run_dist SHARDS OUT [flags...]: a coordinator on $ADDR plus SHARDS
# subprocess workers; every process must exit 0.
run_dist() {
  local shards=$1 out=$2
  shift 2
  "$SOS" dist -shards "$shards" -listen "$ADDR" -events jsonl -seed 1 "$@" \
    testdata/playdemo.sos > "$out" &
  local coord=$!
  local workers=()
  for _ in $(seq 1 "$shards"); do
    "$SOS" dist -connect "$ADDR" &
    workers+=($!)
  done
  wait "$coord"
  local p
  for p in "${workers[@]}"; do wait "$p"; done
}

echo "== shards=1"
run_dist 1 /tmp/dist-s1.jsonl
cmp /tmp/dist-s1.jsonl "$GOLDEN"

echo "== shards=4"
run_dist 4 /tmp/dist-s4.jsonl
cmp /tmp/dist-s4.jsonl "$GOLDEN"

echo "== shards=4 checkpoint lap (snapshot at 75, resume to 150)"
run_dist 4 /tmp/dist-head.jsonl -rounds 75 -snap /tmp/dist-ck.sosnap
test "$(wc -l < /tmp/dist-head.jsonl)" -eq 75
run_dist 4 /tmp/dist-tail.jsonl -rounds 150 -resume /tmp/dist-ck.sosnap
test "$(wc -l < /tmp/dist-tail.jsonl)" -eq 75
cat /tmp/dist-head.jsonl /tmp/dist-tail.jsonl | cmp - "$GOLDEN"

echo "dist-equivalence gate OK"
