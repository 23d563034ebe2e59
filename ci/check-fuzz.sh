#!/usr/bin/env bash
# Native Go fuzzing of the three decoders of untrusted bytes: the DSL front
# end (FuzzParse), the dist plan-record frame (FuzzDecodePlans) and the
# POST /jobs body parser (FuzzParseJobSpec), each for FUZZTIME (default 30s)
# of mutation on its seed corpus. Crashes land in the package's
# testdata/fuzz directory and should be committed as regression inputs.
set -euo pipefail

for target in FuzzParse:./internal/dsl/ FuzzDecodePlans:./internal/sim/ FuzzParseJobSpec:./internal/serve/; do
	go test -run '^$' -fuzz "^${target%%:*}\$" -fuzztime "${FUZZTIME:-30s}" "${target#*:}"
done
