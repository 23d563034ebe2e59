#!/usr/bin/env bash
# Multi-core determinism gate: the worker pool must be invisible in the
# result, and that can only be shown where the pool really overlaps. Runs
# the root package's worker-invariance, resume-equivalence and golden tests
# under the race detector (un-short, so none is skipped), then repeats the
# worker-invariance tests five times — a shared write reachable from a
# parallel phase diverges intermittently, not on every run. On a single CPU
# the shards never run concurrently and a pass would prove nothing, so the
# gate refuses to run there instead of passing silently.
set -euo pipefail

. "$(dirname "$0")/need-multicore.sh"

go test -race -count=1 -run 'WorkerCountInvariant|ResumeEquivalence|Golden' .
go test -count=5 -run WorkerCountInvariant .
