#!/usr/bin/env bash
# Smoke gate for a later CI wiring: vet and test the harness, run every
# workload and both passes at the smoke sizing twice, and compare the two
# result sets. Only the exact metrics gate here: they must repeat to the
# last digit. A smoke run's timings are milliseconds long, so their rows
# are printed but a "worse" among them does not fail the gate.
set -euo pipefail
cd "$(dirname "$0")"
gofmt -l . | (! grep .) || { echo "gofmt: files above need formatting" >&2; exit 1; }
go vet .
go test -count=1 .
go build -o out/sosf-bench .
out/sosf-bench -smoke -trace 1 -runs 3 -out out/ci-a.json >/dev/null
out/sosf-bench -smoke -trace 1 -runs 3 -out out/ci-b.json >/dev/null
out/sosf-bench -compare out/ci-a.json out/ci-b.json | tee out/ci-compare.txt || true
! grep -q ' differs$' out/ci-compare.txt
