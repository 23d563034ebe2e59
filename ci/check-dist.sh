#!/usr/bin/env bash
# Dist-equivalence gate: `sos dist` (the Plan phase of every round split
# over in-process replicas) must stream bytes identical to the serial golden
# fixture — at 1 shard, and at 4 shards of 2 threads each — and a checkpoint
# lap that changes the shard count across the cut (4 shards to round 75,
# 2 shards on to 150) must be invisible in the stream; its round-75
# checkpoint must hash to the same pinned golden sha256 as a serial one.
set -euo pipefail
. "$(dirname "$0")/need-multicore.sh"

GOLDEN=testdata/golden/playdemo.events.jsonl
CK_SHA256="$(cat testdata/golden/playdemo.r75.sosnap.sha256)"
SOS=/tmp/sos-dist

go build -o "$SOS" ./cmd/sos

echo "== shards=1"
"$SOS" dist -shards 1 -seed 1 testdata/playdemo.sos > /tmp/dist-s1.jsonl
cmp /tmp/dist-s1.jsonl "$GOLDEN"

echo "== shards=4 workers=2"
"$SOS" dist -shards 4 -workers 2 -seed 1 testdata/playdemo.sos > /tmp/dist-s4.jsonl
cmp /tmp/dist-s4.jsonl "$GOLDEN"

echo "== checkpoint lap (4 shards to round 75, 2 shards on to 150)"
"$SOS" dist -shards 4 -seed 1 -rounds 75 -snap /tmp/dist-ck.sosnap \
  testdata/playdemo.sos > /tmp/dist-head.jsonl
test "$(wc -l < /tmp/dist-head.jsonl)" -eq 75
got="$(sha256sum /tmp/dist-ck.sosnap | cut -d' ' -f1)"
test "$got" = "$CK_SHA256" || { echo "round-75 checkpoint sha256 $got, want $CK_SHA256" >&2; exit 1; }
"$SOS" dist -shards 2 -seed 1 -rounds 150 -resume /tmp/dist-ck.sosnap \
  testdata/playdemo.sos > /tmp/dist-tail.jsonl
test "$(wc -l < /tmp/dist-tail.jsonl)" -eq 75
cat /tmp/dist-head.jsonl /tmp/dist-tail.jsonl | cmp - "$GOLDEN"

echo "dist-equivalence gate OK"
