#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags:
#
#   bash bench/run.sh --workload persist-heavy --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The Go build cache, the binary and
# the trace files all live under .bench_build/, so nothing is read from
# or written to the user's home directory, and no network is used.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd bench && go build -o "$out/nvmstar-bench" .)
exec "$out/nvmstar-bench" "$@"
