#!/usr/bin/env bash
# Golden-determinism gate: the per-node RNG draw sequence is API, so the
# playdemo event stream must be byte-identical to the committed fixture —
# serially and with the round sharded across 4 workers (the worker count
# must be invisible in the result).
set -euo pipefail
. "$(dirname "$0")/need-multicore.sh"

GOLDEN=testdata/golden/playdemo.events.jsonl
SOS=/tmp/sos-golden

go build -o "$SOS" ./cmd/sos

"$SOS" play -events jsonl -seed 1 testdata/playdemo.sos > /tmp/events.jsonl
test "$(wc -l < /tmp/events.jsonl)" -eq 150
cmp /tmp/events.jsonl "$GOLDEN"
"$SOS" play -events jsonl -seed 1 -workers 4 testdata/playdemo.sos > /tmp/events-w4.jsonl
cmp /tmp/events-w4.jsonl "$GOLDEN"
