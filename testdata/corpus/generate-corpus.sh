#!/bin/sh
# Regenerates the committed fuzzing regression corpus. Run from the repo
# root:
#
#     ./testdata/corpus/generate-corpus.sh
#
# Every entry derives from a fixed campaign seed, so regenerating is a
# no-op diff unless runtime behavior actually changed. If a diff shows up,
# either the change is intentional (commit the regenerated corpus with it)
# or determinism broke (fix that instead). TestCorpusRegenerates
# (corpus_test.go) reruns the pop-floor campaign below on every full
# `go test ./...` and fails on any such diff, so it names the drift before
# this script is needed.
#
# The corpus has been regenerated exactly once, when the runtime gained
# self-healing index re-densification: round events grew a "heals" field
# and the bare-fault recovery trajectories changed, so every committed
# .out stream shifted in that one sweep.
#
# `sos fuzz` exits non-zero when it finds violations — which is what the
# seeded pop-floor campaign is for — so that invocation is expected to
# "fail".
set -u
cd "$(dirname "$0")/../.."
dir=testdata/corpus

# Population-floor findings: a deliberately strict floor turns ordinary
# kill blasts into violations, exercising the full find-and-shrink loop.
go run ./cmd/sos fuzz -seed 3 -runs 3 -pop-floor 0.95 -corpus "$dir" && {
    echo "generate-corpus: expected the pop-floor campaign to find violations" >&2
    exit 1
}

# The self-healing contract: a campaign without repair events must be
# clean — bare kill/churn timelines reconverge with no reconfiguration. A
# violation here means the repair layer regressed.
go run ./cmd/sos fuzz -seed 1 -runs 6 -no-repair || {
    echo "generate-corpus: the no-repair campaign must be clean" >&2
    exit 1
}

echo "corpus regenerated under $dir"
