#!/usr/bin/env bash
# Native Go fuzzing of the four decoders of untrusted bytes: the DSL front
# end (FuzzParse), the dist plan-record frame (FuzzDecodePlans), the
# POST /jobs body parser (FuzzParseJobSpec) and checkpoint restore
# (FuzzRestore), each for FUZZTIME (default 30s) of mutation on its seed
# corpus. Minimizing a new input is capped at 2s: under Go's 60s default a
# target with KB-sized seeds spends most of a 30s smoke minimizing its
# first new input instead of exploring. Crashes land in the package's
# testdata/fuzz directory and should be committed as regression inputs.
set -euo pipefail

for target in FuzzParse:./internal/dsl/ FuzzDecodePlans:./internal/sim/ FuzzParseJobSpec:./internal/serve/ FuzzRestore:./; do
	go test -run '^$' -fuzz "^${target%%:*}\$" -fuzztime "${FUZZTIME:-30s}" -fuzzminimizetime 2s "${target#*:}"
done
