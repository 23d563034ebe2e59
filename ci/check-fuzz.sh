#!/usr/bin/env bash
# Native Go fuzzing of the two decoders of untrusted bytes: the DSL front
# end (FuzzParse) and the dist plan-record frame (FuzzDecodePlans), each for
# FUZZTIME (default 30s) of mutation on its seed corpus. Crashes land in
# the package's testdata/fuzz directory and should be committed as
# regression inputs.
set -euo pipefail

for target in FuzzParse:./internal/dsl/ FuzzDecodePlans:./internal/sim/; do
	go test -run '^$' -fuzz "^${target%%:*}\$" -fuzztime "${FUZZTIME:-30s}" "${target#*:}"
done
