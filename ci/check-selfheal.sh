#!/usr/bin/env bash
# Self-healing smoke: the same campaign with the generator's trailing
# repair reconfiguration stripped must still find zero violations — bare
# kill/churn timelines reconverge on the runtime's index re-densification
# alone. (That they stay stuck without it is internal/core's
# TestDisabledHealingStaysStuck.)
set -euo pipefail

go run ./cmd/sos fuzz -seed 1 -runs 6 -no-repair
