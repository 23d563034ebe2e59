#!/usr/bin/env bash
# Resume-equivalence gate: run the playdemo scenario to round 75, snapshot,
# resume to 150, and byte-compare the concatenated event stream against the
# same frozen golden fixture the uninterrupted run is held to — serially
# and with rounds sharded across 4 workers. A checkpoint cycle must be
# invisible, and the round-75 checkpoint itself must hash to the pinned
# golden sha256 at both worker counts.
set -euo pipefail
. "$(dirname "$0")/need-multicore.sh"

GOLDEN=testdata/golden/playdemo.events.jsonl
CK_SHA256="$(cat testdata/golden/playdemo.r75.sosnap.sha256)"
SOS=/tmp/sos-resume

go build -o "$SOS" ./cmd/sos

for w in 1 4; do
  echo "== workers=$w"
  "$SOS" snapshot -rounds 75 -snap "/tmp/ck-w$w.sosnap" \
    -events jsonl -seed 1 -workers "$w" testdata/playdemo.sos > "/tmp/resume-head-w$w.jsonl"
  test "$(wc -l < "/tmp/resume-head-w$w.jsonl")" -eq 75
  got="$(sha256sum "/tmp/ck-w$w.sosnap" | cut -d' ' -f1)"
  test "$got" = "$CK_SHA256" || { echo "round-75 checkpoint sha256 $got, want $CK_SHA256" >&2; exit 1; }
  "$SOS" resume -snap "/tmp/ck-w$w.sosnap" -rounds 150 \
    -events jsonl -seed 1 -workers "$w" testdata/playdemo.sos > "/tmp/resume-tail-w$w.jsonl"
  test "$(wc -l < "/tmp/resume-tail-w$w.jsonl")" -eq 75
  cat "/tmp/resume-head-w$w.jsonl" "/tmp/resume-tail-w$w.jsonl" \
    | cmp - "$GOLDEN"
done
