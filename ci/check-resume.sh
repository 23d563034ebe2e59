#!/usr/bin/env bash
# Resume-equivalence gate: run the playdemo scenario to round 75, snapshot,
# resume to 150, and byte-compare the concatenated event stream against the
# same frozen golden fixture the uninterrupted run is held to — serially
# and with rounds sharded across 4 workers. A checkpoint cycle must be
# invisible, and the round-75 checkpoint itself must hash to the pinned
# golden sha256 at both worker counts. A last lap checks that a DSL
# `snapshot` action writes the checkpoint `sos snapshot` writes for its
# round, even when it is listed before a same-round kill.
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

# The DSL action runs after the whole of round 30 has ended (the kill listed
# after it, the measurement, the event), so its checkpoint equals the one
# `sos snapshot -rounds 30` writes after stepping the same copy.
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
awk -v path="$TMP/dsl30.sosnap" \
  '/at blast kill 0.3/ { print "        at blast snapshot \"" path "\"" } { print }' \
  testdata/playdemo.sos > "$TMP/dsl.sos"
grep -q 'at blast snapshot' "$TMP/dsl.sos"
for w in 1 4; do
  echo "== DSL snapshot, workers=$w"
  rm -f "$TMP/dsl30.sosnap"
  "$SOS" snapshot -rounds 30 -snap "$TMP/ref30-w$w.sosnap" \
    -seed 1 -workers "$w" "$TMP/dsl.sos" > /dev/null
  cmp "$TMP/dsl30.sosnap" "$TMP/ref30-w$w.sosnap"
done
