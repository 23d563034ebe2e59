#!/usr/bin/env bash
# The one performance judge (bench/, BENCHMARK.json), wired into CI: the
# harness's own gate (vet, tests, smoke sizing twice, exact metrics repeat);
# one full-size run, whose output checks (workers == serial, dist == play,
# SSE == in-process) fail it by themselves; and the worker-scaling floor:
# the pooled 10 000-node round at least 1.3x faster than the serial one, so
# the sharded Deliver cannot silently serialise. To judge a change, run
# `bash bench/run.sh -runs N -out X.json` on both commits and then
# `bash bench/run.sh -compare A.json B.json`.
set -euo pipefail
. "$(dirname "$0")/need-multicore.sh"

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
bash bench/ci.sh
bash bench/run.sh -runs 1 -out "$tmp/bench.json"
python3 - "$tmp/bench.json" <<'PY'
import json, sys
rs = json.load(open(sys.argv[1]))
p50 = lambda w: rs["runs"][0][w]["e2e"]["round_ms_p50"]
x = p50("steady_serial") / p50("steady_workers")
print(f"check-bench: steady_serial / steady_workers round_ms_p50 = {x:.2f}x")
if x < 1.3:
    sys.exit("check-bench: worker pool speed-up is below 1.3x")
PY
