#!/usr/bin/env bash
# Serve smoke: boot `sos serve`, submit the playdemo scenario over HTTP,
# collect its SSE event stream, and byte-compare against the same golden
# fixture the play and resume gates use — the service layer must be
# invisible in the stream. Then check /metrics exposes the run and all 13
# metric families. (Load on the service is the benchmark's serve_jobs
# workload; see ci/check-bench.sh.)
set -euo pipefail

ADDR="127.0.0.1:${SERVE_PORT:-18080}"

go build -o /tmp/sos ./cmd/sos
/tmp/sos serve -addr "$ADDR" -dir /tmp/serve-data -max-resident 4 &
SERVE_PID=$!
for i in $(seq 1 50); do
  curl -sf "http://$ADDR/healthz" > /dev/null && break
  sleep 0.2
done
ID=$(curl -sf -X POST --data-binary @testdata/playdemo.sos \
  "http://$ADDR/jobs?start=1" \
  | python3 -c 'import json,sys; print(json.load(sys.stdin)["id"])')
curl -sf -X POST "http://$ADDR/jobs/$ID/wait" > /dev/null
curl -sfN "http://$ADDR/jobs/$ID/events" \
  | awk '/^event: end/{exit} sub(/^data: /, "")' > /tmp/serve-events.jsonl
cmp /tmp/serve-events.jsonl testdata/golden/playdemo.events.jsonl
curl -sf "http://$ADDR/metrics" > /tmp/serve-metrics.txt
grep -q '^sosf_serve_rounds_total 150$' /tmp/serve-metrics.txt
grep -q '^sosf_serve_protocol_bytes_total{protocol=' /tmp/serve-metrics.txt
test "$(grep -c '^# TYPE sosf_serve_' /tmp/serve-metrics.txt)" -eq 13
kill -INT $SERVE_PID
wait $SERVE_PID
